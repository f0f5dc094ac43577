"""Outside-in span tracer for qcslab.

The tracer wraps the public functions of each qcslab module from outside the
package: every module namespace that binds a function gets the same wrapper,
because qcslab modules import each other's functions by name (``cli`` binds
``photon_distribution``, ``phase_space`` binds ``two_copy_output``), and
wrapping only the defining module would miss those calls. Nothing under
``src/`` is edited.

Spans stay in memory as ``[request, span_id, parent_id, layer, function,
start, end]`` and are written out by the caller at the end of the run. Kernel
counts (dense flops and bytes, Wigner grid points, hom pairs, bootstrap
resamples, cache hits) are computed from call arguments, return values and
``cache_info()``; they are not hardware measurements.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time
from contextlib import contextmanager

LAYER_MODULES = ("states", "fock", "interferometer", "estimators", "phase_space", "sampling")

# functions with a layer of their own; every other public function is counted
# under its module (``interferometer.other`` / ``phase_space.other`` /
# ``sampling.other`` for the modules that also have named layers)
NAMED_LAYERS = {
    "interferometer.photon_distribution": "interferometer.dense",
    "interferometer.two_copy_output": "interferometer.dense",
    "interferometer.beam_splitter_unitary": "interferometer.bs_unitary",
    "interferometer.hom_photon_distribution": "interferometer.fock_diag",
    "interferometer.photon_distribution_phase_invariant": "interferometer.fock_diag",
    "interferometer.multimode_two_copy_output": "interferometer.multimode",
    "phase_space.qcs_wigner_gradient": "phase_space.gradient",
    "phase_space.qcs_wigner_laplacian": "phase_space.laplacian",
    "phase_space.wigner_eval": "phase_space.wigner_eval",
    "sampling.estimate_qcs": "sampling.bootstrap",
    "sampling.sample_counts": "sampling.sample_counts",
}
SPLIT_MODULES = ("interferometer", "phase_space", "sampling")

# per-element inner kernels: hom_amplitudes runs once per (pair, n) inside
# hom_photon_distribution, so a span per call would cost more than the call;
# its time is counted in hom_photon_distribution's self time
UNWRAPPED = {"interferometer.hom_amplitudes"}

# U(ρ⊗ρ)U†-style products per call: one in photon_distribution, two in two_copy_output
DENSE_MATMULS = {"interferometer.photon_distribution": 1,
                 "interferometer.two_copy_output": 2}


def layer_of(qualname: str) -> str:
    module = qualname.split(".")[0]
    default = f"{module}.other" if module in SPLIT_MODULES else module
    return NAMED_LAYERS.get(qualname, default)


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()), None)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self.request = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._refused_ids: set[int] = set()

    # --- installation ---

    def install(self) -> None:
        """Wrap every public layer function in every qcslab namespace binding it."""
        if not self._patches:
            self._build_patches()
        for ns, name, _, wrapper in self._patches:
            setattr(ns, name, wrapper)

    def uninstall(self) -> None:
        for ns, name, original, _ in self._patches:
            setattr(ns, name, original)

    def _build_patches(self) -> None:
        import importlib

        from qcslab.errors import CutoffError

        self._cutoff_error = CutoffError
        modules = {m: importlib.import_module(f"qcslab.{m}") for m in LAYER_MODULES}
        wrappers, present = {}, set()
        for short, module in modules.items():
            for name, fn in _public_functions(module):
                qualname = f"{short}.{name}"
                present.add(qualname)
                if qualname not in UNWRAPPED:
                    wrappers[id(fn)] = self._wrap(qualname, layer_of(qualname), fn)
        self.absent = sorted(set(NAMED_LAYERS) - present)
        namespaces = [mod for name, mod in list(sys.modules.items())
                      if mod is not None and (name == "qcslab" or name.startswith("qcslab."))]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((ns, name, obj, wrapper))

    # --- spans ---

    def _open(self, layer: str, qualname: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [self.request, len(self.spans), parent, layer, qualname, time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(rec[1])
        return rec

    def _close(self, rec: list) -> None:
        rec[6] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, qualname: str):
        rec = self._open(layer, qualname)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, qualname: str, layer: str, fn):
        cache_info = getattr(fn, "cache_info", None)
        matmuls = DENSE_MATMULS.get(qualname, 0)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = cache_info() if cache_info is not None else None
            rec = self._open(layer, qualname)
            try:
                result = fn(*args, **kwargs)
            except self._cutoff_error as exc:
                if id(exc) not in self._refused_ids:
                    self._refused_ids.add(id(exc))
                    counts["interferometer.refused"] += 1
                raise
            finally:
                self._close(rec)
            counts[f"{qualname}.calls"] += 1
            if before is not None:
                counts[f"{qualname}.hits"] += cache_info().hits - before.hits
            # counts read attributes defensively: a changed signature must
            # not turn the tracer into a failure of the traced program
            if matmuls:
                d2 = getattr(_first_arg(args, kwargs), "dim", 0) ** 2
                counts["interferometer.dense.flops"] += matmuls * 8 * d2 ** 3
                counts["interferometer.dense.bytes"] += matmuls * 3 * 16 * d2 ** 2
            elif qualname == "phase_space.wigner_eval":
                counts["phase_space.grid_points"] += getattr(getattr(result, "values", None), "size", 0)
            elif qualname == "sampling.estimate_qcs":
                counts["sampling.resamples"] += getattr(result, "resamples", 0)
            elif qualname == "states.recommended_cutoff" and isinstance(result, int):
                counts["states.cutoff_sum"] += result
            return result

        return wrapper


def self_times(spans) -> dict:
    """Per-layer self time: span duration minus the time its child spans cover."""
    child = collections.defaultdict(float)
    for rec in spans:
        if rec[2] >= 0:
            child[(rec[0], rec[2])] += rec[6] - rec[5]
    out = collections.defaultdict(float)
    for rec in spans:
        out[rec[3]] += (rec[6] - rec[5]) - child[(rec[0], rec[1])]
    return dict(out)


def grids_per_gradient_call(spans) -> float:
    """Mean number of wigner_eval grids evaluated under each gradient-route call."""
    by_id = {(r[0], r[1]): r for r in spans}
    calls = sum(1 for r in spans if r[3] == "phase_space.gradient")
    grids = 0
    for r in spans:
        if r[3] != "phase_space.wigner_eval":
            continue
        parent = by_id.get((r[0], r[2]))
        while parent is not None and parent[3] != "phase_space.gradient":
            parent = by_id.get((parent[0], parent[2]))
        grids += parent is not None
    return grids / calls if calls else 0.0
