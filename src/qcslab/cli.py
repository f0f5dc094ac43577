"""Command-line surface.

Commands read a StateSpec JSON file, run estimator routes, and emit CSV/JSON
artifacts with a reproducibility metadata block. Exit codes: 0 success,
2 validation or usage error, 3 numerical-tolerance failure, 4 infeasible cutoff.
The parser is the standard library's argparse, so numpy is the only package a
CLI process loads besides qcslab. ``phase_space`` and ``sampling`` are imported
by the routes and commands that call them, so a process compiles neither
unless its command reads it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import (
    CutoffError,
    DegenerateDenominatorError,
    GridError,
    QcslabError,
    RoundoffBudgetError,
    ValidationError,
)
from .estimators import (
    purity_from_pn,
    qcs_classical_mixture,
    qcs_direct,
    qcs_gaussian,
    qcs_pure_shortcut,
    qcs_two_copy,
    qcs_wigner_laplacian,
)
from .fock import purity_direct
from .interferometer import PhotonDistribution, photon_distribution
from .params import _integer, parse_cutoff
from .states import StateSpec, fock_inputs, route_inputs

# CPython's own SHA-256 (_sha2 from 3.12, _sha256 before) gives hashlib's
# digest without loading OpenSSL's libcrypto into every CLI process
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def _wigner_gradient(rho):
    """``phase_space.qcs_wigner_gradient``, importing phase_space on first use."""
    from .phase_space import qcs_wigner_gradient

    return qcs_wigner_gradient(rho)


EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3
EXIT_CUTOFF = 4
# each typed error's exit code; the first matching row wins
EXIT_CODES = ((CutoffError, EXIT_CUTOFF),
              ((DegenerateDenominatorError, GridError, RoundoffBudgetError), EXIT_TOLERANCE),
              (QcslabError, EXIT_VALIDATION))

# each route: the input it reads, and its estimator on that input
ROUTES = {
    "direct": ("state", qcs_direct),
    "two-copy": ("pn", qcs_two_copy),
    "kernel": ("kernel", qcs_two_copy),
    "pure": ("pure", qcs_pure_shortcut),
    "wigner-gradient": ("state", _wigner_gradient),
    "wigner-laplacian": ("pn", qcs_wigner_laplacian),
    "gaussian": ("covariance", qcs_gaussian),
    "classical-mixture": ("mixture", qcs_classical_mixture),
}

EXACT_ROUTE_TOL = 1e-6
FIGURE2_STATES = {"rho_10": StateSpec("rho_2M", {"M": 5}),
                  "rho_even_5": StateSpec("rho_even_M", {"M": 5}),
                  "thermal_q0.85": StateSpec("thermal", {"q": 0.85})}


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _metadata(opts: dict, cutoff: int, *specs: StateSpec) -> dict:
    """Provenance block. The hash covers the options with the state files
    replaced by their canonical specs and the output path left out, the
    resolved cutoff and the numpy version, so it identifies the input, not the
    paths it was read from or written to."""
    inputs = {**opts, "cutoff": cutoff, "numpy": np.__version__}
    del inputs["out"]
    if specs:
        inputs["state"] = [spec.to_json() for spec in specs]
    digest = sha256(
        json.dumps(inputs, sort_keys=True, default=str).encode()).hexdigest()[:16]
    return {"tool": "qcslab", "version": __version__, "schema": 1, "config_hash": digest,
            "timestamp": datetime.now(timezone.utc).isoformat()}


def _write(path, write) -> None:
    """``write(path)``; an output that cannot be written is a validation error
    (exit 2), as an input that cannot be read is (``_read_text``)."""
    try:
        write(path)
    except OSError as exc:
        raise ValidationError(f"cannot write output {path}: {exc}") from None


def _print(text: str) -> None:
    """Write ``text`` to stdout and flush it. Once stdout's reader is gone, the
    rest, and the flush at exit, go to the null device: the process keeps its
    own exit code and writes nothing to stderr."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _write_json(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        _write(out, lambda path: Path(path).write_text(text, encoding="utf-8"))
    else:
        _print(text)


class Option(NamedTuple):
    """One command option. Its config key, and its key in the flags a command
    body reads, is the flag without its dashes and with ``-`` read as ``_``;
    ``default`` is its value when neither the command line nor the config file
    gives it. An option without ``type`` takes a string: one of ``choices``
    when it has them, else a path, repeated when ``multiple``."""
    flag: str
    default: object = None
    type: type | None = None
    choices: tuple = ()
    multiple: bool = False
    help: str | None = None

    @property
    def key(self) -> str:
        return self.flag.removeprefix("--").replace("-", "_")


def _config_value(option: Option, value):
    """A config value held to its flag's type: a choice must be one of its
    choices, a path a string (a list of strings for a repeated flag)."""
    if option.choices:
        if value not in option.choices:
            raise ValidationError(f"config key {option.key!r}: {value!r} is not one of "
                                  f"{', '.join(map(repr, option.choices))}.")
    elif option.type is None:
        paths = value if option.multiple else [value]
        if not isinstance(paths, list) or not all(isinstance(v, str) for v in paths):
            kind = "a list of path strings" if option.multiple else "a path string"
            raise ValidationError(f"config key {option.key!r} must be {kind}, got {value!r}")
    return value


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of an input file; one that cannot be read as such is a
    validation error (exit 2), whatever the reason."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from None


def _merge_config(config: str | None, options: tuple[Option, ...], given: dict) -> dict:
    """The command's options: each one's default, overridden by the flags
    ``given`` on the command line and by config-file values. A key set both in
    the file and by a flag is ambiguous and rejected, and a value must have its
    flag's type. A cutoff from either source is held to the state file's rule
    (an integer >= 2), and shots, seed, resamples and n_max to their integer
    minimums."""
    by_key = {option.key: option for option in options}
    merged = {key: option.default for key, option in by_key.items()} | given
    if config:
        try:
            doc = json.loads(_read_text(config, "config"))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"cannot read config file: {exc}") from None
        if not isinstance(doc, dict):
            raise ValidationError("config file must hold a JSON object")
        for key, value in doc.items():
            if key not in by_key:
                raise ValidationError(f"unknown config key {key!r}")
            if key in given:
                raise ValidationError(
                    f"{key!r} given both in config file and as a flag (ambiguous)")
            merged[key] = _config_value(by_key[key], value)
    if "cutoff" in merged:
        merged["cutoff"] = parse_cutoff(merged["cutoff"])
    for key, minimum in (("shots", 1), ("seed", 0), ("resamples", 2), ("n_max", 0)):
        if key in merged:
            merged[key] = _integer(merged[key], key, minimum)
    return merged


def _spec(path: str | None, cutoff: int | None) -> StateSpec:
    """The state file's spec; a flag or config cutoff that disagrees with the
    file's own is ambiguous."""
    if not path:
        raise ValidationError("no state file given (use --state or a config file)")
    spec = StateSpec.from_json(_read_text(path, "state"))
    if cutoff is not None and spec.cutoff is not None and cutoff != spec.cutoff:
        raise ValidationError(f"cutoff given both in state file ({spec.cutoff}) and as a "
                              f"flag ({cutoff}) (ambiguous)")
    return spec


def _header(opts: dict, cutoff: int | None, *specs: StateSpec) -> dict:
    return {"metadata": _metadata(opts, cutoff, *specs), "cutoff": cutoff}


def _run_routes(inputs: dict, routes) -> tuple[dict, dict, int | None]:
    """Each route's estimate on its input in ``inputs`` (``states.route_inputs``),
    "not applicable" where the kind lacks it, or {"infeasible": reason}; the C² of
    the routes that ran; and the cutoff, None where the probe refused it. Exits 4
    when some route was infeasible and none ran."""
    results, values, reasons = {}, {}, []
    for route in routes:
        source, estimator = ROUTES[route]
        if not inputs[source]:
            results[route] = "not applicable"  # e.g. a covariance-only spec's Fock routes
            continue
        try:
            est = estimator(inputs[source]())
        except CutoffError as exc:
            results[route] = {"infeasible": str(exc)}
            reasons.append(str(exc))
            continue
        results[route] = est.to_dict()
        values[route] = est.c_squared
    if reasons and not values:
        raise CutoffError(reasons[0])
    try:
        cutoff = inputs["cutoff"]()
    except CutoffError:  # the routes that ran read no Fock input
        cutoff = None
    return results, values, cutoff


STATE = Option("--state")
CUTOFF = Option("--cutoff", type=int)
OUT = Option("--out")

# each command: its body and its options, in registration order
COMMANDS: dict = {}


def _command(name: str, *options: Option):
    """Register ``body(opts)`` as command ``name`` with ``options`` and
    ``--config``; ``opts`` is the options merged with the config file
    (``_merge_config``)."""
    def register(body):
        COMMANDS[name] = (body, options)
        return body
    return register


def _parser(prog: str, command: str | None = None) -> argparse.ArgumentParser:
    """The parser of the registered ``command``, of every one when None, and of
    none for ``--version``, which reads none. A parser of one command still
    names every command in its usage line, so its usage and error text is the
    full parser's. An option left off the command line is left out of the
    parsed namespace (suppressed defaults), so the namespace names exactly the
    flags given."""
    parser = argparse.ArgumentParser(prog=prog, allow_abbrev=False,
                                     description="Two-copy interferometric QCS laboratory.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    usage = {"metavar": "{" + ",".join(COMMANDS) + "}"} if command else {}
    commands = parser.add_subparsers(dest="command", required=True, **usage)
    for name in [name for name in COMMANDS if command in (None, name)]:
        body, options = COMMANDS[name]
        sub = commands.add_parser(name, help=body.__doc__, description=body.__doc__,
                                  argument_default=argparse.SUPPRESS, allow_abbrev=False)
        for option in options:
            default = f"(default: {option.default})" if option.default not in (None, ()) else None
            sub.add_argument(option.flag, dest=option.key, type=option.type,
                             choices=option.choices or None,
                             action="append" if option.multiple else "store",
                             help=" ".join(filter(None, (option.help, default))))
        sub.add_argument("--config")
    return parser


def main(args=None, prog_name=None):
    """Run the command that ``args`` (``sys.argv[1:]`` when None) names, with
    ``prog_name`` (default ``qcslab``) in usage lines. Only that command's
    parser is built when ``args`` starts with it, and none when it starts with
    ``--version``; argparse hands the rest to it. A usage error exits 2, and a
    typed error 4 (cutoff), 3 (tolerance) or 2 (any other)."""
    args = sys.argv[1:] if args is None else list(args)
    command = args[0] if args and (args[0] in COMMANDS or args[0] == "--version") else None
    try:
        given = vars(_parser(prog_name or "qcslab", command).parse_args(args))
    except SystemExit:  # --help and --version print, then exit: flush their text here
        _print("")
        raise
    body, options = COMMANDS[given.pop("command")]
    config = given.pop("config", None)
    try:
        body(_merge_config(config, options, given))
    except QcslabError as exc:
        _fail(next(code for kinds, code in EXIT_CODES if isinstance(exc, kinds)), str(exc))


@_command("qcs", STATE, Option("--route", "two-copy", choices=(*ROUTES, "all")), CUTOFF, OUT)
def qcs_cmd(opts):
    """Estimate QCS² of a state via one route (or all applicable)."""
    spec = _spec(opts["state"], opts["cutoff"])
    routes = ROUTES if opts["route"] == "all" else (opts["route"],)
    results, _, dim = _run_routes(route_inputs(spec, opts["cutoff"]), routes)
    _write_json({**_header(opts, dim, spec), "results": results}, opts["out"])


@_command("purity", STATE, CUTOFF, OUT)
def purity_cmd(opts):
    """Purity via the direct trace and the two-copy alternating sum."""
    spec = _spec(opts["state"], opts["cutoff"])
    inputs = fock_inputs(spec, opts["cutoff"])
    rho = inputs["state"]()
    _write_json({**_header(opts, inputs["cutoff"](), spec), "purity_direct": purity_direct(rho),
                 "purity_two_copy": purity_from_pn(inputs["pn"]())}, opts["out"])


@_command("pn-dist", STATE, CUTOFF, OUT, Option("--format", "csv", choices=("csv", "json")))
def pn_dist_cmd(opts):
    """Difference-mode photon-number distribution p_n."""
    spec = _spec(opts["state"], opts["cutoff"])
    inputs = fock_inputs(spec, opts["cutoff"])
    pn = inputs["pn"]()
    if opts["format"] == "json":
        _write_json({**_header(opts, inputs["cutoff"](), spec), "p_n": pn.probs.tolist(),
                     "deficit": pn.deficit}, opts["out"])
    elif not opts["out"]:
        raise ValidationError("--out is required for CSV output")
    else:
        _write(opts["out"], pn.to_csv)


@_command("overlap", Option("--state", (), multiple=True,
                            help="Give twice: --state a.json --state b.json"), CUTOFF, OUT)
def overlap_cmd(opts):
    """Overlap Tr(ρ_a ρ_b) directly (elementwise, as ρ_b is Hermitian), by parity
    of the interferometer output and by the position-kernel quadrature of
    2π∫W_aW_b."""
    from .phase_space import overlap_kernel

    if len(opts["state"]) != 2:
        raise ValidationError("overlap needs exactly two --state files")
    specs = [_spec(path, opts["cutoff"]) for path in opts["state"]]
    dim = max(route_inputs(spec, opts["cutoff"])["cutoff"]() for spec in specs)
    rho_a, rho_b = (fock_inputs(spec, dim)["state"]() for spec in specs)
    _write_json({**_header(opts, dim, *specs),
                 "overlap_trace": float(np.vdot(rho_b.matrix, rho_a.matrix).real),
                 "overlap_parity": purity_from_pn(photon_distribution(rho_a, rho_b)),
                 "overlap_kernel": overlap_kernel(rho_a, rho_b)}, opts["out"])


@_command("compare", STATE, CUTOFF, OUT)
def compare_cmd(opts):
    """Cross-validation matrix: run every applicable route and check that every
    pair agrees within 1e-6."""
    spec = _spec(opts["state"], opts["cutoff"])
    results, values, dim = _run_routes(route_inputs(spec, opts["cutoff"]), ROUTES)
    max_dev = max(values.values(), default=0.0) - min(values.values(), default=0.0)
    _write_json({**_header(opts, dim, spec), "results": results,
                 "max_deviation_exact": max_dev}, opts["out"])
    for route, res in results.items():
        print(f"{route:>18}: {values.get(route, res)}", file=sys.stderr)
    if max_dev > EXACT_ROUTE_TOL:
        _fail(EXIT_TOLERANCE,
              f"route deviation {max_dev:.3e} exceeds tolerance {EXACT_ROUTE_TOL:.0e}")


@_command("figure2", OUT, Option("--n-max", 24, int, help="Largest n in the p_n CSV columns"))
def figure2_cmd(opts):
    """Reproduce the benchmark p_n data: CSVs for the mixed Fock families
    rho_10 and rho_even_5 and for the thermal state with q = 0.85, each at its
    default cutoff, plus a summary JSON of their purities and QCS² values."""
    if not opts["out"]:
        raise ValidationError("figure2 needs an output directory (--out or a config file)")
    out_path = Path(opts["out"])
    _write(out_path, lambda path: path.mkdir(parents=True, exist_ok=True))
    nmax = opts["n_max"]
    summary = {"metadata": _metadata(opts, None, *FIGURE2_STATES.values()), "states": {}}
    for name, spec in FIGURE2_STATES.items():
        pn = route_inputs(spec)["pn"]()
        columns = np.pad(pn.probs[:nmax + 1], (0, max(nmax + 1 - len(pn.probs), 0)))
        _write(out_path / f"pn_{name}.csv", PhotonDistribution(columns).to_csv)
        summary["states"][name] = {"purity": purity_from_pn(pn),
                                   "c_squared": qcs_two_copy(pn).c_squared}
    _write_json(summary, out_path / "summary.json")
    print(f"wrote 3 CSV files and summary.json to {out_path}", file=sys.stderr)


@_command("sample", STATE, Option("--shots", type=int), Option("--seed", 0, int),
          Option("--resamples", 1000, int), CUTOFF, OUT)
def sample_cmd(opts):
    """Simulate a finite-shot run and report the plug-in QCS² with a bootstrap CI."""
    from .sampling import estimate_qcs, sample_counts

    spec = _spec(opts["state"], opts["cutoff"])
    inputs = fock_inputs(spec, opts["cutoff"])
    est = estimate_qcs(sample_counts(inputs["pn"](), opts["shots"], opts["seed"]),
                       resamples=opts["resamples"])
    _write_json({**_header(opts, inputs["cutoff"](), spec), "estimate": est.to_dict()},
                opts["out"])


def run():
    """The process entry of the ``qcslab`` script and ``python -m qcslab.cli``.
    A None entry for ``_hashlib`` makes hashlib, hmac and secrets fall back to
    CPython's built-in digests, as on a build without OpenSSL, so ``sample``'s
    ``numpy.random`` (which imports secrets) loads no libcrypto. The draws and
    every digest are unchanged. Importing this module leaves ``sys.modules``
    alone: only a process that starts here blocks the import."""
    sys.modules.setdefault("_hashlib", None)
    main()


if __name__ == "__main__":
    run()
