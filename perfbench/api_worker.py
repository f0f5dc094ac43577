"""The api-sweep workload: one long-lived process calling the qcslab API the way
a notebook study does, with warm caches.

Usage:
    python3 perfbench/api_worker.py <job.json> <out.json>   run the job's passes
    python3 perfbench/api_worker.py --env                   print numpy/scipy/BLAS info

The job holds the request list, the number of passes over it and the trace
flag. Each request is timed from call to return; results go back to the
benchmark's run.py, which checks them against the closed-form references.
With tracing on, every pass runs once untraced and once traced, so run.py can
report the tracer's overhead.
"""

import importlib
import json
import sys
import time

import numpy as np

from reference import from_pn
from workloads import API_DIM, DENSE_DIM, SHOTS


def env_record() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _modules(*names):
    """qcslab submodules, looked up at call time so tracer patches apply (the
    package attribute ``qcslab.fock`` is the state constructor, not the module)."""
    return [importlib.import_module(f"qcslab.{name}") for name in names]


def _single_mode(factor: dict):
    fock, states = _modules("fock", "states")
    if factor["kind"] == "fock":
        return states.fock(factor["n"], API_DIM)
    if factor["kind"] == "coherent":
        return states.coherent(complex(*factor["alpha"]), API_DIM)
    diag = np.zeros(API_DIM, dtype=complex)
    diag[:len(factor["lam"])] = factor["lam"]
    return fock.DensityOperator.from_matrix(np.diag(diag))


def run_op(req: dict) -> dict:
    estimators, fock, interferometer, sampling, states = _modules(
        "estimators", "fock", "interferometer", "sampling", "states")
    op = req["op"]
    if op == "multimode":
        rho = fock.tensor(*(_single_mode(f) for f in req["modes"]))
        return {"c2": estimators.qcs_multimode(rho).c_squared}
    if op == "bootstrap":
        pn = interferometer.thermal_photon_distribution(req["q"], 200)
        est = sampling.estimate_qcs(sampling.sample_counts(pn, SHOTS, req["seed"]))
        return {"c2": est.c_squared, "se": est.std_error}
    if op == "dense":
        spec = states.StateSpec.from_json(json.dumps(req["spec"]))
        rho = states.build_state(spec, cutoff=DENSE_DIM)
        c2, purity = from_pn(interferometer.photon_distribution(rho, rho).probs.tolist())
        return {"c2": c2, "purity": purity}
    if op == "family":
        pn = interferometer.photon_distribution_phase_invariant(req["lam"])
        c2, purity = from_pn(pn.probs.tolist())
        return {"c2": c2, "purity": purity}
    raise ValueError(f"unknown op {op!r}")


def _timed(req: dict) -> tuple[float, dict]:
    t0 = time.perf_counter()
    try:
        value = run_op(req)
    except Exception as exc:  # a raised request counts as failed, the run goes on
        value = {"error": f"{type(exc).__name__}: {exc}"}
    return time.perf_counter() - t0, value


def main(job_path: str, out_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    requests = job["requests"]
    import qcslab  # noqa: F401  (import cost is not part of any request)

    # fill the caches a running notebook would already hold: the unitaries of
    # both cutoffs and every hom pair of the family sweep
    first = {}
    for req in requests:
        first.setdefault(req["op"], req)
    for req in list(first.values()) + [r for r in requests if r["op"] == "family"]:
        _timed(req)

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    results = []
    started = time.perf_counter()
    for n in range(job["passes"]):
        for traced in ((False, True) if tracer else (False,)):
            if (n or traced) and time.perf_counter() - started > job["stop_after_s"]:
                break
            if traced:
                tracer.install()
            for index, req in enumerate(requests):
                if traced:
                    tracer.request = len(results)
                latency, value = _timed(req)
                results.append({"index": index, "pass": n, "traced": traced,
                                "latency": latency, "value": value})
            if traced:
                tracer.uninstall()
    out = {"results": results}
    if tracer is not None:
        out.update(spans=tracer.spans, counts=tracer.counts, absent=tracer.absent)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    if sys.argv[1:] == ["--env"]:
        print(json.dumps(env_record()))
    else:
        main(*sys.argv[1:3])
