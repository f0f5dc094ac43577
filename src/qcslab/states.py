"""State specifications: the state-kind table and the inputs every command reads.

``KINDS`` is the one place that knows what a state kind is: each row parses
and validates the kind's parameters (with the converters of ``params``) and
gives its Fock-space constructor (from ``constructors``), ⟨n̂⟩, covariance,
top Fock level, Fock amplitudes when the spec is pure and a closed-form
two-copy p_n. A :class:`StateSpec` is parsed
once; ``route_inputs`` turns it into the inputs every command reads, the
two-copy p_n (``two_copy_pn``) among them. The constructors are imported here
by name, so ``states.coherent``, ``states.fock`` and the others still resolve.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .constructors import (ClassicalMixture, CovarianceMatrix, check_tail_mass,
                           classical_mixture, coherent, coherent_amplitudes, displace,
                           displace_amplitudes, fock, fock_amplitudes, fock_pair_pn,
                           mixture_pair_pn, phase_rotate, rho_2m, rho_even_m,
                           squeezed_amplitudes, squeezed_covariance, squeezed_vacuum, thermal,
                           thermal_parameters)
from .errors import CutoffError, ValidationError
from .fock import DEFAULT_DEFICIT_TOL, DensityOperator, purity_direct, squared_modulus
from .interferometer import (PhotonDistribution, photon_distribution,
                             thermal_photon_distribution)
from .params import _complex, _integer, _items, _real, parse_cutoff

SCHEMA_VERSION = 1
CUTOFF_TAIL_TOL = 1e-9  # photon-number tail mass the default cutoff leaves out
# Σ n p_n it leaves out: cutting that tail moves a pure state's C² by about
# twice it, so the probe's tail and the mass past the probe stay within
# compare's 1e-6 against the untruncated Gaussian closed form
CUTOFF_N_TAIL_TOL = 2e-7
PROBE_MAX_DIM = 1024  # largest state the default-cutoff probe builds
PURE_TOL = 1e-9  # Tr ρ² this close to (1 − deficit)² marks a pure probe


# --- parameter parsing: each kind's parser, from the converters of ``params`` ---

def _base_state(v, key: str) -> "StateSpec":
    """The state a displaced spec displaces: a {kind, params} document."""
    if isinstance(v, dict) and "kind" in v:
        v = StateSpec(v["kind"], v.get("params", {}))
    if not isinstance(v, StateSpec):
        raise ValidationError(f"{key!r} must be a state document with a 'kind', got {v!r}")
    if KINDS[v.kind].build is None:
        raise ValidationError(f"{key!r} must have a Fock-space constructor, not kind {v.kind!r}")
    return v


def _fields(**converters):
    """Parser for a kind whose parameters are all required and independent."""
    return lambda p: {key: convert(p[key], key) for key, convert in converters.items()}


def _parse_thermal(p: dict) -> dict:
    given = {key: _real(p[key], key) for key in ("q", "mean_n") if key in p}
    thermal_parameters(**given)
    return given


def _mixture(p: dict) -> ClassicalMixture:
    return ClassicalMixture(tuple(p["weights"]), tuple(p["amplitudes"]))


def _parse_mixture(p: dict) -> dict:
    parsed = {"weights": _items(p["weights"], "weights", _real),
              "amplitudes": _items(p["amplitudes"], "amplitudes", _complex)}
    _mixture(parsed)
    return parsed


def _parse_gaussian(p: dict) -> dict:
    parsed = {"gamma": _items(p["gamma"], "gamma", partial(_items, convert=_real)),
              "mean": None if p.get("mean") is None else _items(p["mean"], "mean", _real)}
    CovarianceMatrix(**parsed)
    return parsed


def _displaced_amplitudes(p: dict) -> Callable[[int], np.ndarray] | None:
    """D(β)ψ of a displaced spec whose base has amplitudes ψ at the same cutoff."""
    base = spec_amplitudes(p["base"])
    return base and (lambda dim: displace_amplitudes(base(dim), p["beta"]))


def _pair_pn(psi: np.ndarray, difference: Callable[[int], np.ndarray]) -> PhotonDistribution:
    """|⟨n|ψ_d⟩|² of the difference mode ψ_d that two copies of ψ leave, on the
    kernel's max(2, 2·top + 1) levels, top the last nonzero level of ψ."""
    top = np.flatnonzero(psi).max(initial=0)
    return PhotonDistribution.from_values(squared_modulus(difference(max(2, 2 * top + 1))))


# --- the state-kind table ---

@dataclass(frozen=True)
class Kind:
    """What a state kind is: how its parameters parse and what they determine.
    Every function takes the canonical parameters that ``parse`` returned."""

    parse: Callable[[dict], dict]  # validates raw params, returns the canonical ones
    build: Callable[[dict, int, float], DensityOperator] | None  # (params, dim, deficit_tol)
    mean_n: Callable[[dict], float] | None
    covariance: Callable[[dict], CovarianceMatrix] | None = None
    top_level: Callable[[dict], int] | None = None  # highest occupied Fock level
    # for a spec that may be pure: its Fock amplitudes ψ_0 … ψ_{dim−1} as a
    # function of dim, or None when these params give a mixed state
    amplitudes: Callable[[dict], Callable[[int], np.ndarray] | None] | None = None
    mixture: Callable[[dict], ClassicalMixture] | None = None
    # closed-form difference-mode p_n of the untruncated pair at cutoff dim: the
    # "pn" getter reads it in place of the kernel, the "kernel" getter does not
    two_copy_pn: Callable[[dict, int], PhotonDistribution] | None = None


KINDS = {
    "coherent": Kind(
        _fields(alpha=_complex),
        lambda p, dim, tol: coherent(p["alpha"], dim, tol),
        lambda p: squared_modulus(p["alpha"]),
        covariance=lambda p: CovarianceMatrix(
            0.5 * np.eye(2), np.sqrt(2.0) * np.array([p["alpha"].real, p["alpha"].imag])),
        amplitudes=lambda p: partial(coherent_amplitudes, p["alpha"]),
        # two identical coherent states leave the difference mode in vacuum
        two_copy_pn=lambda p, dim: _pair_pn(coherent_amplitudes(p["alpha"], dim),
                                            partial(coherent_amplitudes, 0))),
    "fock": Kind(
        _fields(n=_integer),
        lambda p, dim, tol: fock(p["n"], dim),
        lambda p: float(p["n"]),
        top_level=lambda p: p["n"], amplitudes=lambda p: partial(fock_amplitudes, p["n"]),
        # two copies of |n⟩: the multiphoton Hong–Ou–Mandel law
        two_copy_pn=lambda p, dim: PhotonDistribution.from_values(fock_pair_pn(p["n"]))),
    "thermal": Kind(
        _parse_thermal,
        lambda p, dim, tol: thermal(**p, cutoff=dim, deficit_tol=tol),
        lambda p: thermal_parameters(**p)[1],
        covariance=lambda p: CovarianceMatrix((0.5 + thermal_parameters(**p)[1]) * np.eye(2)),
        two_copy_pn=lambda p, dim: thermal_photon_distribution(
            thermal_parameters(**p)[0], 2 * dim)),
    "squeezed_vacuum": Kind(
        _fields(r=_real),
        lambda p, dim, tol: squeezed_vacuum(p["r"], dim, tol),
        lambda p: float(np.sinh(p["r"]) ** 2),
        covariance=lambda p: squeezed_covariance(p["r"]),
        amplitudes=lambda p: partial(squeezed_amplitudes, p["r"]),
        # S(r)⊗S(r) commutes with the beam splitter: the difference mode is S(r)|0⟩
        two_copy_pn=lambda p, dim: _pair_pn(squeezed_amplitudes(p["r"], dim),
                                            partial(squeezed_amplitudes, p["r"]))),
    "rho_2M": Kind(
        _fields(M=partial(_integer, minimum=1)),
        lambda p, dim, tol: rho_2m(p["M"], dim),
        lambda p: p["M"] + 0.5,
        top_level=lambda p: 2 * p["M"]),
    "rho_even_M": Kind(
        _fields(M=partial(_integer, minimum=1)),
        lambda p, dim, tol: rho_even_m(p["M"], dim),
        lambda p: p["M"] + 1.0,
        top_level=lambda p: 2 * p["M"]),
    "mixture": Kind(
        _parse_mixture,
        lambda p, dim, tol: classical_mixture(_mixture(p), dim, tol),
        lambda p: float(sum(w * squared_modulus(a) for w, a in zip(p["weights"], p["amplitudes"]))),
        mixture=_mixture,
        # each pair of members leaves the difference mode coherent: a Poisson sum
        two_copy_pn=lambda p, dim: PhotonDistribution.from_values(
            mixture_pair_pn(_mixture(p), dim))),
    "displaced": Kind(
        _fields(base=_base_state, beta=_complex),
        lambda p, dim, tol: displace(build_state(p["base"], cutoff=dim, deficit_tol=tol),
                                     p["beta"], tol),
        lambda p: mean_photon_number(p["base"]) + squared_modulus(p["beta"]),
        amplitudes=_displaced_amplitudes,
        # two copies displaced alike leave the difference mode undisplaced, (μ − μ)/√2 = 0:
        # the pair's p_n is the base's at the same cutoff, under this spec's deficit check
        two_copy_pn=lambda p, dim: _pn(p["base"], dim,
                                       partial(build_state, p["base"], cutoff=dim))),
    "gaussian": Kind(_parse_gaussian, None, None, covariance=lambda p: CovarianceMatrix(**p)),
}


def _json_value(obj):
    """json.dumps hook for the canonical parameter values."""
    if isinstance(obj, complex):
        return obj.real if obj.imag == 0 else [obj.real, obj.imag]
    if isinstance(obj, StateSpec):
        return {"kind": obj.kind, "params": obj.params}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# --- declarative state specification (the CLI input record) ---

@dataclass(frozen=True)
class StateSpec:
    """Declarative benchmark-state description; serialized as versioned JSON.
    Construction parses ``params`` once: afterwards they hold the canonical
    values of the kind's table row (complex numbers as ``complex``, a displaced
    base as a StateSpec, thermal states by the one of q / mean_n given)."""

    kind: str
    params: dict
    cutoff: int | None = None

    def __post_init__(self):
        row = KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if row is None:
            raise ValidationError(f"unknown state kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise ValidationError(f"kind {self.kind!r}: params must be a JSON object")
        try:
            params = row.parse(self.params)
        except KeyError as exc:
            raise ValidationError(f"kind {self.kind!r}: missing parameter {exc}") from exc
        except ValidationError as exc:
            raise ValidationError(f"kind {self.kind!r}: {exc}") from exc
        unknown = sorted(map(repr, self.params.keys() - params.keys()))
        if unknown:
            raise ValidationError(f"kind {self.kind!r}: unknown parameter {', '.join(unknown)}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "cutoff", parse_cutoff(self.cutoff))

    def to_json(self) -> str:
        return json.dumps(
            {"schema": SCHEMA_VERSION, "kind": self.kind, "params": self.params,
             "cutoff": self.cutoff},
            indent=2, sort_keys=True, default=_json_value)

    @classmethod
    def from_json(cls, text: str) -> "StateSpec":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError("state spec must be a JSON object")
        if doc.get("schema") != SCHEMA_VERSION:
            raise ValidationError(f"unsupported schema version {doc.get('schema')!r}")
        if "kind" not in doc:
            raise ValidationError("state spec missing 'kind'")
        return cls(kind=doc["kind"], params=doc.get("params", {}), cutoff=doc.get("cutoff"))


def mean_photon_number(spec: StateSpec) -> float:
    """Rough ⟨n̂⟩ of a spec, used for default-cutoff selection."""
    mean_n = KINDS[spec.kind].mean_n
    if mean_n is None:
        raise ValidationError(f"no Fock-space mean photon number for kind {spec.kind!r}")
    return mean_n(spec.params)


def gaussian_covariance(spec: StateSpec) -> CovarianceMatrix:
    """Covariance matrix of a Gaussian StateSpec (coherent/thermal/squeezed/gaussian)."""
    covariance = KINDS[spec.kind].covariance
    if covariance is None:
        raise ValidationError(f"no Gaussian covariance for state kind {spec.kind!r}")
    return covariance(spec.params)


def spec_amplitudes(spec: StateSpec) -> Callable[[int], np.ndarray] | None:
    """The Fock amplitudes ψ_0 … ψ_{dim−1} of a pure spec as a function of dim:
    a pure kind's, or D(β)ψ of a displaced pure base. None for any other spec."""
    amplitudes = KINDS[spec.kind].amplitudes
    return amplitudes and amplitudes(spec.params)


def _pn(spec: StateSpec, dim: int, state: Callable[[], DensityOperator]) -> PhotonDistribution:
    """Two-copy p_n at cutoff dim, unchecked: the closed form, else the kernel on ``state()``."""
    closed_form = KINDS[spec.kind].two_copy_pn
    if closed_form:
        return closed_form(spec.params, dim)
    rho = state()
    return photon_distribution(rho, rho)


def spec_cutoff(spec: StateSpec, cutoff: int | None = None) -> int:
    """``cutoff``, else the spec's own, else ``recommended_cutoff``; 0 for a
    covariance-only kind, which has no Fock-space construction."""
    pinned = cutoff if cutoff is not None else spec.cutoff
    if pinned is not None:
        return pinned
    return recommended_cutoff(spec) if KINDS[spec.kind].build else 0


def route_inputs(spec: StateSpec, cutoff: int | None = None) -> dict:
    """Cached getters of what every command reads, None where the kind lacks it:
    "cutoff" (``spec_cutoff``), "state", "pn" (the two-copy p_n, held to the
    build's deficit check), "kernel" (the beam-splitter kernel on the state,
    "pn" itself where the kind has no closed form), "pure" (the amplitudes,
    deficit-checked and normalised), "covariance" and "mixture". Only the Fock
    inputs read the cutoff, so the others run where the default-cutoff probe
    refuses. The Fock getters keep their first outcome, a CutoffError too."""
    row = KINDS[spec.kind]
    held = {}

    def once(key: str, getter: Callable[[], object]) -> Callable[[], object]:
        def get():
            if key not in held:
                try:
                    held[key] = getter()
                except CutoffError as exc:  # which functools.cache would not keep
                    held[key] = exc
            if isinstance(held[key], CutoffError):
                raise held[key]
            return held[key]
        return get

    dim = once("cutoff", partial(spec_cutoff, spec, cutoff))
    amplitudes = (amps := spec_amplitudes(spec)) and cache(amps)
    state = row.build and once("state", lambda: build_state(spec, cutoff=dim()))

    def pure():
        vec = amplitudes(dim())
        check_tail_mass(vec)  # a cutoff that cuts too much is infeasible
        return vec / np.linalg.norm(vec)

    def pn():  # a closed form's deficit check reads the built state, else ψ, else a build
        if row.two_copy_pn and not isinstance(held.get("state"), DensityOperator):
            if amplitudes:
                check_tail_mass(amplitudes(dim()))  # the check alone, not pure()'s normalised ψ
            else:
                state()
        return _pn(spec, dim(), state)

    pn = row.build and once("pn", pn)
    kernel = row.two_copy_pn and once("kernel", lambda: photon_distribution(state(), state()))
    return {"cutoff": dim, "state": state, "pn": pn, "kernel": kernel or pn,
            "pure": amplitudes and pure,
            "covariance": row.covariance and partial(row.covariance, spec.params),
            "mixture": row.mixture and partial(row.mixture, spec.params)}


def fock_inputs(spec: StateSpec, cutoff: int | None = None) -> dict:
    """``route_inputs`` of a spec whose "state" or "pn" a command reads. A
    covariance-only kind has neither, and ``build_state`` refuses it."""
    if KINDS[spec.kind].build is None:
        build_state(spec)
    return route_inputs(spec, cutoff)


def two_copy_pn(spec: StateSpec, dim: int) -> PhotonDistribution:
    """Difference-mode p_n at cutoff dim, the "pn" getter of ``route_inputs``:
    CutoffError past the state build's deficit check."""
    return fock_inputs(spec, dim)["pn"]()


def _support(weights: np.ndarray, tail_tol: float) -> int:
    """Smallest s with Σ_{n > s} weights_n <= tail_tol."""
    above = np.append(np.cumsum(weights[::-1])[::-1][1:], 0.0)
    return int(np.argmax(above <= tail_tol))


def recommended_cutoff(spec: StateSpec) -> int:
    """Default cutoff, the one-copy rule: 2·top + 4 for a kind with a top level,
    and otherwise max(ceil(4(⟨n̂⟩+3)), s + 2). A probe leaves at most
    CUTOFF_TAIL_TOL of probability and CUTOFF_N_TAIL_TOL of ⟨n̂⟩ above level s
    (slow tails, like thermal and strongly squeezed ones); it doubles, up to
    PROBE_MAX_DIM levels, while the mass its own truncation cuts off exceeds
    either. A pure spec's probe is |ψ_n|² of its amplitudes (``spec_amplitudes``:
    a pure kind or a displaced pure base); any other spec's is the diagonal of
    a state built at the probe's size. A kind with a top
    level has support s <= top, so a probe could not raise its cutoff and none
    is built. The two-copy kernel is exact at any cutoff, so the pair needs no
    more levels than one copy. CutoffError when the largest probe still cuts
    off more than either bound and the cutoff reaches PROBE_MAX_DIM, or the
    probe is pure (a pure spec, or Tr ρ² = (1 − deficit)² within PURE_TOL):
    the probe cannot show where the tail ends."""
    row = KINDS[spec.kind]
    if row.top_level is not None:
        return 2 * row.top_level(spec.params) + 4
    amplitudes = spec_amplitudes(spec)
    with np.errstate(over="ignore"):  # sinh² r past a double reads inf
        mean = mean_photon_number(spec)
    if not math.isfinite(mean):
        raise CutoffError(f"⟨n̂⟩ = {mean} overflows a double: no Fock cutoff holds the state")
    base = math.ceil(4.0 * (mean + 3.0))
    probe_dim = min(max(4 * base, 64), PROBE_MAX_DIM)
    while True:
        if amplitudes:
            try:
                amps = amplitudes(probe_dim)
            except CutoffError:  # a Fock base past the probe: all of the trace is past it
                amps = np.zeros(probe_dim)
            probs = (amps * amps.conj()).real
            deficit = max(1.0 - float(np.sum(probs)), 0.0)
        else:
            probe = build_state(spec, cutoff=probe_dim, deficit_tol=1.0)
            probs, deficit = probe.number_marginal(), probe.trace_deficit
        # the mass past the probe sits at levels >= probe_dim
        tail_cut = deficit > min(CUTOFF_TAIL_TOL, CUTOFF_N_TAIL_TOL / probe_dim)
        if not tail_cut or probe_dim == PROBE_MAX_DIM:
            break
        probe_dim = min(2 * probe_dim, PROBE_MAX_DIM)
    cutoff = max(base, _support(probs, CUTOFF_TAIL_TOL) + 2,
                 _support(np.arange(probe_dim) * probs, CUTOFF_N_TAIL_TOL) + 2)
    # a pure state's C² reads its own tail, not the tail of ρ², so no cutoff
    # inside a probe that cuts too much is safe for it
    if tail_cut and (cutoff >= PROBE_MAX_DIM or amplitudes
                     or purity_direct(probe) >= (1.0 - deficit) ** 2 - PURE_TOL):
        raise CutoffError(
            f"default cutoff: {deficit:.1e} of the trace lies past the "
            f"{PROBE_MAX_DIM} levels the cutoff probe builds; pass --cutoff")
    return cutoff


def build_state(spec: StateSpec, *, cutoff: int | None = None,
                deficit_tol: float = DEFAULT_DEFICIT_TOL) -> DensityOperator:
    """Construct the density operator described by a StateSpec."""
    build = KINDS[spec.kind].build
    if build is None:
        raise ValidationError(
            f"kind {spec.kind!r} has no Fock-space constructor; use the Gaussian route")
    return build(spec.params, spec_cutoff(spec, parse_cutoff(cutoff)), deficit_tol)
