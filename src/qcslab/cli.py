"""Command-line surface.

Commands read a StateSpec JSON file, run estimator routes, and emit CSV/JSON
artifacts with a reproducibility metadata block. Exit codes: 0 success,
2 validation error, 3 numerical-tolerance failure, 4 infeasible cutoff.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

import click
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
from .fock import DensityOperator, purity_direct
from .interferometer import (
    PhotonDistribution,
    photon_distribution,
    thermal_photon_distribution,
)
from .phase_space import overlap_wigner, qcs_wigner_gradient
from .sampling import estimate_qcs, sample_counts
from .states import (
    KINDS,
    StateSpec,
    _integer,
    build_state,
    gaussian_covariance,
    parse_cutoff,
    pure_state_vector,
    recommended_cutoff,
    rho_2m,
    rho_even_m,
)

EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3
EXIT_CUTOFF = 4

ROUTES = ("direct", "two-copy", "pure", "wigner-gradient", "wigner-laplacian",
          "gaussian", "classical-mixture")

EXACT_ROUTE_TOL = 1e-6
FIGURE2_CUTOFF = 48


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _metadata(opts: dict, cutoff: int, *specs: StateSpec) -> dict:
    """Provenance block. The hash covers the options with the state files
    replaced by their canonical specs, the resolved cutoff and the numpy
    version, so it identifies the input, not the path it was read from."""
    inputs = {**opts, "cutoff": cutoff, "numpy": np.__version__}
    if specs:
        inputs["state"] = [spec.to_json() for spec in specs]
    digest = hashlib.sha256(
        json.dumps(inputs, sort_keys=True, default=str).encode()).hexdigest()[:16]
    return {"tool": "qcslab", "version": __version__, "schema": 1,
            "config_hash": digest,
            "timestamp": datetime.now(timezone.utc).isoformat()}


def _write_json(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        click.echo(text)


def _load_spec(path: str) -> StateSpec:
    if not path:
        _fail(EXIT_VALIDATION, "no state file given (use --state or a config file)")
    try:
        return StateSpec.from_json(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        _fail(EXIT_VALIDATION, f"state file not found: {path}")
    except ValidationError as exc:
        _fail(EXIT_VALIDATION, str(exc))


def _merge_config(config_path, flag_values: dict) -> dict:
    """Apply config-file values; a key set both in the file and by an explicit
    flag is ambiguous and rejected. A cutoff from either source is held to the
    state file's rule (an integer >= 2), and shots, seed, resamples and n_max
    to their integer minimums."""
    merged = dict(flag_values)
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            _fail(EXIT_VALIDATION, f"cannot read config file: {exc}")
        ctx = click.get_current_context()
        param_names = {"state": "state_path", "format": "fmt"}
        for key, value in doc.items():
            if key not in flag_values:
                _fail(EXIT_VALIDATION, f"unknown config key {key!r}")
            src = ctx.get_parameter_source(param_names.get(key, key))
            if src is not None and src.name == "COMMANDLINE":
                _fail(EXIT_VALIDATION,
                      f"{key!r} given both in config file and as a flag (ambiguous)")
            merged[key] = value
    if "cutoff" in merged:
        merged["cutoff"] = parse_cutoff(merged["cutoff"])
    for key, minimum in (("shots", 1), ("seed", 0), ("resamples", 2), ("n_max", 0)):
        if key in merged:
            merged[key] = _integer(merged[key], key, minimum)
    return merged


def _resolve_cutoff(spec: StateSpec, flag_cutoff: int | None) -> int:
    if flag_cutoff is not None and spec.cutoff is not None and flag_cutoff != spec.cutoff:
        _fail(EXIT_VALIDATION,
              f"cutoff given both in state file ({spec.cutoff}) and as a flag "
              f"({flag_cutoff}) (ambiguous)")
    pinned = flag_cutoff if flag_cutoff is not None else spec.cutoff
    if pinned is not None:
        return pinned
    if KINDS[spec.kind].build is None:
        return 0  # covariance-only description: no Fock-space construction, no cutoff
    return recommended_cutoff(spec)


def _two_copy_pn(spec: StateSpec, rho: DensityOperator) -> PhotonDistribution:
    """Difference-mode p_n: the kind's closed form if it has one, the block
    kernel otherwise."""
    closed_form = KINDS[spec.kind].two_copy_pn
    if closed_form is not None:
        return closed_form(spec.params, rho.dim)
    return photon_distribution(rho, rho)


def _run_route(route: str, spec: StateSpec, state: Callable[[], DensityOperator],
               pn: Callable[[], PhotonDistribution]):
    """One route's estimate, or None when it does not apply; ``state()`` builds ρ
    and ``pn()`` its two-copy p_n."""
    row = KINDS[spec.kind]
    if route == "gaussian":
        return qcs_gaussian(gaussian_covariance(spec)) if row.covariance else None
    if route == "classical-mixture":
        return qcs_classical_mixture(row.mixture(spec.params)) if row.mixture else None
    if row.build is None or (route == "pure" and not row.pure):
        return None  # e.g. a covariance-only spec has no Fock-space routes
    rho = state()
    if route == "direct":
        return qcs_direct(rho)
    if route == "two-copy":
        return qcs_two_copy(pn())
    if route == "pure":
        return qcs_pure_shortcut(pure_state_vector(rho) / np.sqrt(1 - rho.trace_deficit))
    if route == "wigner-gradient":
        return qcs_wigner_gradient(rho)
    if route == "wigner-laplacian":
        return qcs_wigner_laplacian(pn())
    raise ValidationError(f"unknown route {route!r}")


def _run_routes(spec: StateSpec, cutoff: int, routes) -> tuple[dict, dict]:
    """Each route's estimate, "not applicable", or {"infeasible": reason} when it
    does not fit the cutoff, plus the C² of the routes that ran. Exits 4 when
    some route was infeasible and none ran. The state and its p_n are built at
    most once each; a build that raises is not cached, so every route that
    needs it reports the error."""
    results, values, reasons = {}, {}, []
    state = functools.cache(functools.partial(build_state, spec, cutoff=cutoff))
    pn = functools.cache(lambda: _two_copy_pn(spec, state()))
    for route in routes:
        try:
            est = _run_route(route, spec, state, pn)
        except CutoffError as exc:
            results[route] = {"infeasible": str(exc)}
            reasons.append(str(exc))
            continue
        results[route] = "not applicable" if est is None else est.to_dict()
        if est is not None:
            values[route] = est.c_squared
    if reasons and not values:
        _fail(EXIT_CUTOFF, reasons[0])
    return results, values


def _handle_errors(func):
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (CutoffError,) as exc:
            _fail(EXIT_CUTOFF, str(exc))
        except (DegenerateDenominatorError, GridError, RoundoffBudgetError) as exc:
            _fail(EXIT_TOLERANCE, str(exc))
        except QcslabError as exc:
            _fail(EXIT_VALIDATION, str(exc))

    wrapper.__name__ = func.__name__
    wrapper.__doc__ = func.__doc__
    return wrapper


@click.group()
@click.version_option(version=__version__)
def main():
    """Two-copy interferometric QCS laboratory."""


@main.command("qcs")
@click.option("--state", "state_path", type=click.Path(), default=None)
@click.option("--route", default="two-copy",
              type=click.Choice(ROUTES + ("all",)), show_default=True)
@click.option("--cutoff", type=int, default=None)
@click.option("--out", "out", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_handle_errors
def qcs_cmd(state_path, route, cutoff, out, config_path):
    """Estimate QCS² of a state via one route (or all applicable)."""
    opts = _merge_config(config_path, {"state": state_path, "route": route,
                                       "cutoff": cutoff, "out": out})
    spec = _load_spec(opts["state"])
    dim = _resolve_cutoff(spec, opts["cutoff"])
    routes = ROUTES if opts["route"] == "all" else (opts["route"],)
    results, _ = _run_routes(spec, dim, routes)
    payload = {"metadata": _metadata(opts, dim, spec), "cutoff": dim, "results": results}
    _write_json(payload, opts["out"])


@main.command("purity")
@click.option("--state", "state_path", type=click.Path(), default=None)
@click.option("--cutoff", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_handle_errors
def purity_cmd(state_path, cutoff, out, config_path):
    """Purity via the direct trace and the two-copy alternating sum."""
    opts = _merge_config(config_path, {"state": state_path, "cutoff": cutoff, "out": out})
    spec = _load_spec(opts["state"])
    dim = _resolve_cutoff(spec, opts["cutoff"])
    rho = build_state(spec, cutoff=dim)
    payload = {"metadata": _metadata(opts, dim, spec), "cutoff": dim,
               "purity_direct": purity_direct(rho),
               "purity_two_copy": purity_from_pn(_two_copy_pn(spec, rho))}
    _write_json(payload, opts["out"])


@main.command("pn-dist")
@click.option("--state", "state_path", type=click.Path(), default=None)
@click.option("--cutoff", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_handle_errors
def pn_dist_cmd(state_path, cutoff, out, fmt, config_path):
    """Difference-mode photon-number distribution p_n."""
    opts = _merge_config(config_path, {"state": state_path, "cutoff": cutoff,
                                       "out": out, "format": fmt})
    spec = _load_spec(opts["state"])
    dim = _resolve_cutoff(spec, opts["cutoff"])
    pn = _two_copy_pn(spec, build_state(spec, cutoff=dim))
    if opts["format"] == "json":
        _write_json({"metadata": _metadata(opts, dim, spec), "cutoff": dim,
                     "p_n": pn.probs.tolist(), "deficit": pn.deficit}, opts["out"])
    else:
        if not opts["out"]:
            _fail(EXIT_VALIDATION, "--out is required for CSV output")
        pn.to_csv(opts["out"])


@main.command("overlap")
@click.option("--state", "state_paths", multiple=True,
              type=click.Path(), help="Give twice: --state a.json --state b.json")
@click.option("--cutoff", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_handle_errors
def overlap_cmd(state_paths, cutoff, out, config_path):
    """Overlap Tr(ρ_a ρ_b) by parity of the interferometer output and by the
    Wigner overlap integral."""
    opts = _merge_config(config_path, {"state": list(state_paths), "cutoff": cutoff,
                                       "out": out})
    if len(opts["state"]) != 2:
        _fail(EXIT_VALIDATION, "overlap needs exactly two --state files")
    spec_a, spec_b = (_load_spec(p) for p in opts["state"])
    dim = max(_resolve_cutoff(spec_a, opts["cutoff"]), _resolve_cutoff(spec_b, opts["cutoff"]))
    rho_a = build_state(spec_a, cutoff=dim)
    rho_b = build_state(spec_b, cutoff=dim)
    trace_route = float(np.trace(rho_a.matrix @ rho_b.matrix).real)
    parity_route = purity_from_pn(photon_distribution(rho_a, rho_b))
    wigner_route = overlap_wigner(rho_a, rho_b)
    payload = {"metadata": _metadata(opts, dim, spec_a, spec_b), "cutoff": dim,
               "overlap_trace": trace_route, "overlap_parity": parity_route,
               "overlap_wigner": wigner_route}
    _write_json(payload, opts["out"])


@main.command("compare")
@click.option("--state", "state_path", type=click.Path(), default=None)
@click.option("--cutoff", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_handle_errors
def compare_cmd(state_path, cutoff, out, config_path):
    """Cross-validation matrix: run every applicable route and check that every
    pair agrees within 1e-6."""
    opts = _merge_config(config_path, {"state": state_path, "cutoff": cutoff, "out": out})
    spec = _load_spec(opts["state"])
    dim = _resolve_cutoff(spec, opts["cutoff"])
    results, values = _run_routes(spec, dim, ROUTES)
    vals = list(values.values())
    max_dev = max((abs(a - b) for a in vals for b in vals), default=0.0)
    payload = {"metadata": _metadata(opts, dim, spec), "cutoff": dim, "results": results,
               "max_deviation_exact": max_dev}
    _write_json(payload, opts["out"])
    for route, res in results.items():
        click.echo(f"{route:>18}: {values.get(route, res)}", err=True)
    if max_dev > EXACT_ROUTE_TOL:
        _fail(EXIT_TOLERANCE,
              f"route deviation {max_dev:.3e} exceeds tolerance {EXACT_ROUTE_TOL:.0e}")


@main.command("figure2")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--cutoff", type=int, default=FIGURE2_CUTOFF, show_default=True)
@click.option("--n-max", type=int, default=24, show_default=True,
              help="Largest n in the p_n CSV columns")
@click.option("--config", "config_path", type=click.Path(), default=None)
@_handle_errors
def figure2_cmd(out_dir, cutoff, n_max, config_path):
    """Reproduce the benchmark p_n data: CSVs for the mixed Fock families
    rho_10 and rho_even_5 and for the thermal state with q = 0.85, plus a
    summary JSON of their purities and QCS² values."""
    opts = _merge_config(config_path, {"out": out_dir, "cutoff": cutoff,
                                       "n_max": n_max})
    out_path = Path(opts["out"])
    out_path.mkdir(parents=True, exist_ok=True)
    q = 0.85
    dim = opts["cutoff"] if opts["cutoff"] is not None else FIGURE2_CUTOFF
    nmax = opts["n_max"]

    def truncated(pn: PhotonDistribution) -> PhotonDistribution:
        probs = np.zeros(nmax + 1)
        probs[:min(len(pn.probs), nmax + 1)] = pn.probs[:nmax + 1]
        return PhotonDistribution(probs=probs, deficit=1.0 - probs.sum())

    summary = {"metadata": _metadata(opts, dim), "states": {}}
    for name, rho in (("rho_10", rho_2m(5, dim)), ("rho_even_5", rho_even_m(5, dim))):
        pn = photon_distribution(rho, rho)
        truncated(pn).to_csv(out_path / f"pn_{name}.csv")
        summary["states"][name] = {
            "purity": purity_from_pn(pn),
            "c_squared": qcs_two_copy(pn).c_squared,
        }
    thermal_pn = thermal_photon_distribution(q, nmax)
    thermal_pn.to_csv(out_path / "pn_thermal_q0.85.csv")
    # alternating geometric sums in closed form: both equal (1-q)/(1+q)
    summary["states"]["thermal_q0.85"] = {
        "purity": (1.0 - q) / (1.0 + q),
        "c_squared": (1.0 - q) / (1.0 + q),
    }
    _write_json(summary, out_path / "summary.json")
    click.echo(f"wrote 3 CSV files and summary.json to {out_path}", err=True)


@main.command("sample")
@click.option("--state", "state_path", type=click.Path(), default=None)
@click.option("--shots", type=int, default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--resamples", type=int, default=1000, show_default=True)
@click.option("--cutoff", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
@click.option("--config", "config_path", type=click.Path(), default=None)
@_handle_errors
def sample_cmd(state_path, shots, seed, resamples, cutoff, out, config_path):
    """Simulate a finite-shot run and report the plug-in QCS² with a bootstrap CI."""
    opts = _merge_config(config_path, {"state": state_path, "shots": shots,
                                       "seed": seed, "resamples": resamples,
                                       "cutoff": cutoff, "out": out})
    spec = _load_spec(opts["state"])
    dim = _resolve_cutoff(spec, opts["cutoff"])
    pn = _two_copy_pn(spec, build_state(spec, cutoff=dim))
    rec = sample_counts(pn, opts["shots"], opts["seed"])
    est = estimate_qcs(rec, resamples=opts["resamples"])
    payload = {"metadata": _metadata(opts, dim, spec), "cutoff": dim, "estimate": est.to_dict()}
    _write_json(payload, opts["out"])


if __name__ == "__main__":
    main()
