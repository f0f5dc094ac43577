"""qcslab benchmark: the CLI and the notebook-style API on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): cli-dense, cli-compare, cli-fock-diagonal,
api-sweep. One closed-loop client with no think time sends every request from
this process: each CLI request is a fresh ``python3 -m qcslab.cli`` process,
timed from spawn to exit; api-sweep runs in one worker process and times each
call from call to return. The seed and ``--seconds`` fix the request list, so
a faster program finishes the same list sooner. The list is sent in two or
three passes (workloads.py) and each request's latency is the best of its
sends, as timeit does: the shared host this was tuned on alternates between a
fast and a 1.5x slower state for seconds at a time, and the best of sends a
pass apart keeps most of those bursts out of the figures. ``wall_s`` is the sum of the best latencies
(the time to finish the list once), ``latency_p50_s`` their median and
``latency_tail_s`` the highest percentile with ten requests beyond it. Every
answer is checked against a closed-form reference computed here
(reference.py); a wrong answer, a nonzero exit or an exception is a failed
operation and never stops the run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each cycle
untraced and then traced (tracer.py wraps qcslab's public functions from
outside) and reports per-layer metrics and the tracing overhead. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``correct`` is false when any request fails
outside the known defect that reference.py documents; those known failures are
still counted in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
import workloads
from tracer import grids_per_gradient_call, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
REQUEST_TIMEOUT_S = 60.0
STOP_AFTER_S = 100.0   # after the first pass, start no new request past this much measuring time
TAIL_BEYOND = 10       # the tail percentile keeps at least this many requests above it

END_TO_END = {"wall_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics (traced run, one pass over the list; self time = span time
# minus child spans). Which end-to-end metric each should move, and where:
#   interferometer.dense       wall_s, latency_tail_s, peak_rss_mb on cli-dense;
#                              nothing on cli-fock-diagonal
#   interferometer.bs_unitary  latency_p50_s on cli-dense (cold in every
#                              process); ~0 on api-sweep
#   interferometer.fock_diag   wall_s, latency_tail_s on cli-fock-diagonal;
#                              ~0 on api-sweep (warm cache)
#   interferometer.multimode   wall_s, peak_rss_mb on api-sweep only
#   interferometer.refused     failed operations, every workload
#   phase_space.gradient, .wigner_eval
#                              wall_s, latency_p50_s on cli-compare; absent on cli-dense
#   phase_space.laplacian      latency_tail_s on cli-dense (its two_copy_output
#                              child counts as dense)
#   sampling.*                 wall_s on api-sweep; small on cli-fock-diagonal
#   states.*                   latency_p50_s everywhere; cutoff_sum moves with the
#                              cutoff policy and, through dim^6, all of cli-dense
#   fock, estimators           latency_p50_s on api-sweep
#   cli                        latency_p50_s on cli-fock-diagonal (short requests)
#   trace_overhead             nothing; traced / untraced wall_s validates the trace
PER_LAYER = {
    "interferometer.dense.self_s": "s",
    "interferometer.dense.calls": "count",
    "interferometer.dense.flops": "flop",
    "interferometer.dense.bytes": "bytes",
    "interferometer.dense.gflops_per_s": "GFLOP/s",
    "interferometer.bs_unitary.self_s": "s",
    "interferometer.bs_unitary.builds": "count",
    "interferometer.fock_diag.self_s": "s",
    "interferometer.fock_diag.pairs": "count",
    "interferometer.fock_diag.hit_ratio": "ratio",
    "interferometer.multimode.self_s": "s",
    "interferometer.other.self_s": "s",
    "interferometer.refused": "count",
    "phase_space.gradient.self_s": "s",
    "phase_space.gradient.grids_per_call": "count",
    "phase_space.wigner_eval.self_s": "s",
    "phase_space.wigner_eval.calls": "count",
    "phase_space.grid_points": "count",
    "phase_space.laplacian.self_s": "s",
    "phase_space.other.self_s": "s",
    "sampling.bootstrap.self_s": "s",
    "sampling.resamples": "count",
    "sampling.sample_counts.self_s": "s",
    "sampling.other.self_s": "s",
    "states.self_s": "s",
    "states.cutoff_sum": "count",
    "fock.self_s": "s",
    "estimators.self_s": "s",
    "cli.self_s": "s",
    "trace_overhead": "ratio",
}

# counts computed from call arguments, return values and cache_info(), not
# measured by hardware counters; gflops_per_s divides computed flops by
# measured self time
COMPUTED = {"interferometer.dense.flops", "interferometer.dense.bytes",
            "interferometer.dense.gflops_per_s", "interferometer.bs_unitary.builds",
            "interferometer.fock_diag.pairs", "interferometer.fock_diag.hit_ratio",
            "phase_space.grid_points", "phase_space.gradient.grids_per_call",
            "sampling.resamples", "states.cutoff_sum"}

# the layers each workload exists to exercise (their summed self time should
# exceed every other layer's there)
TARGETS = {
    "cli-dense": ("interferometer.dense",),
    "cli-compare": ("phase_space.gradient", "phase_space.wigner_eval"),
    "cli-fock-diagonal": ("interferometer.fock_diag",),
    "api-sweep": ("interferometer.multimode", "sampling.bootstrap"),
}


# --- processes ---

def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def spawn(argv, env, stdout_path: Path, timeout: float = REQUEST_TIMEOUT_S) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, seconds from spawn to exit,
    the child's own peak RSS in KiB from wait4)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


def measure_setup(env, work: Path) -> list[float]:
    """Fresh interpreters importing qcslab.cli and dispatching ``--version``."""
    times = []
    for _ in range(SETUP_PROBES):
        code, elapsed, _ = spawn([sys.executable, "-m", "qcslab.cli", "--version"], env,
                                 work / "setup.out")
        if code != 0:
            raise RuntimeError(f"qcslab.cli --version exited {code}")
        times.append(elapsed)
    return times


def environment(env, nproc: int, work: Path) -> dict:
    code, _, _ = spawn([sys.executable, str(BENCH / "api_worker.py"), "--env"], env,
                       work / "env.out")
    record = json.loads((work / "env.out").read_text()) if code == 0 else {}
    try:
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                                capture_output=True, text=True, timeout=10)
        commit = commit.stdout.strip() if commit.returncode == 0 else "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unavailable"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    record.update(nproc=nproc, blas_threads=nproc, python=sys.version.split()[0],
                  git_commit=commit, src_lines=src_lines)
    return record


# --- checking answers ---

def check_cli(req: dict, code: int, out_path: Path, fig_dir: Path) -> bool:
    if code != 0:
        return False
    close = reference.close
    try:
        if req["check"] == "figure2":
            doc = json.loads((fig_dir / "summary.json").read_text())
            return all(close(doc["states"][name]["c_squared"], c2)
                       and close(doc["states"][name]["purity"], purity)
                       for name, (c2, purity) in workloads.FIGURE2_REFERENCE.items())
        doc = json.loads(out_path.read_text())
        c2, purity = req["c2"], req["purity"]
        if req["check"] == "qcs":
            return close(doc["results"][req["route"]]["c_squared"], c2)
        if req["check"] == "purity":
            return close(doc["purity_direct"], purity) and close(doc["purity_two_copy"], purity)
        if req["check"] == "pn":
            got_c2, got_purity = reference.from_pn(doc["p_n"])
            return close(got_c2, c2) and close(got_purity, purity)
        if req["check"] == "compare":
            routes = {r: v["c_squared"] for r, v in doc["results"].items() if isinstance(v, dict)}
            return bool(routes) and all(
                close(v, c2, reference.GRADIENT_TOL if r == "wigner-gradient" else reference.EXACT_TOL)
                for r, v in routes.items())
        if req["check"] == "sample":
            est = doc["estimate"]
            return abs(est["c_squared"] - c2) <= reference.SAMPLE_SIGMAS * est["std_error"]
    except (OSError, KeyError, TypeError, ValueError, ZeroDivisionError):
        return False
    raise ValueError(f"unknown check {req['check']!r}")


def check_api(req: dict, value: dict) -> bool:
    if "error" in value:
        return False
    if req["op"] == "bootstrap":
        return abs(value["c2"] - req["c2"]) <= reference.SAMPLE_SIGMAS * value["se"]
    ok = reference.close(value["c2"], req["c2"])
    return ok and ("purity" not in req or reference.close(value["purity"], req["purity"]))


# --- running a workload ---

def run_cli(requests, passes: int, trace: bool, env, work: Path, fig_dir: Path):
    records, spans, counts, absent = [], [], {}, []
    started = time.perf_counter()
    for n in range(passes):
        for traced in ((False, True) if trace else (False,)):
            for index, req in enumerate(requests):
                if (n or traced) and time.perf_counter() - started > STOP_AFTER_S:
                    return records, spans, counts, absent
                argv = [sys.executable] + (
                    [str(BENCH / "traced_cli.py")] if traced else ["-m", "qcslab.cli"])
                argv += req["cmd"]
                if req["spec"] is not None:
                    state = work / "state.json"
                    state.write_text(json.dumps(req["spec"]))
                    argv += ["--state", str(state)]
                if req["check"] == "figure2":
                    shutil.rmtree(fig_dir, ignore_errors=True)
                trace_path = work / "trace.json"
                req_env = dict(env, PERFBENCH_TRACE_OUT=str(trace_path)) if traced else env
                code, latency, rss = spawn(argv, req_env, work / "request.out")
                records.append({"index": index, "traced": traced, "latency": latency,
                                "rss_kb": rss, "defect": req["defect"],
                                "ok": check_cli(req, code, work / "request.out", fig_dir)})
                if traced and trace_path.exists():
                    doc = json.loads(trace_path.read_text())
                    trace_path.unlink()
                    request_id = len(records) - 1
                    spans += [[request_id] + s[1:] for s in doc["spans"]]
                    for key, value in doc["counts"].items():
                        counts[key] = counts.get(key, 0) + value
                    absent = doc["absent"]
    return records, spans, counts, absent


def run_api(requests, passes: int, trace: bool, env, work: Path):
    job, out = work / "job.json", work / "api.json"
    job.write_text(json.dumps({"requests": requests, "passes": passes, "trace": int(trace),
                               "stop_after_s": STOP_AFTER_S}))
    code, _, rss = spawn([sys.executable, str(BENCH / "api_worker.py"), str(job), str(out)],
                         env, work / "api.out", timeout=STOP_AFTER_S + REQUEST_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"api worker exited {code}")
    doc = json.loads(out.read_text())
    records = [{"index": r["index"], "traced": r["traced"], "latency": r["latency"],
                "rss_kb": rss, "defect": False,
                "ok": check_api(requests[r["index"]], r["value"])} for r in doc["results"]]
    return records, doc.get("spans", []), doc.get("counts", {}), doc.get("absent", [])


def best_latencies(records, traced: bool) -> list[float]:
    """Each request's latency as the best of its passes."""
    best = {}
    for r in records:
        if r["traced"] == traced:
            best[r["index"]] = min(r["latency"], best.get(r["index"], float("inf")))
    return [best[i] for i in sorted(best)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND requests above it: the
    (N - TAIL_BEYOND)-th smallest latency, and its percentile. Below
    2 * TAIL_BEYOND requests that percentile would sit under the median, so
    the slowest request is reported instead (percentile 100)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def per_layer(spans, counts, passes: int, overhead: float) -> dict:
    """Per-layer metrics for one pass over the request list (totals over the
    traced passes divided by their number)."""
    selfs = self_times(spans)
    hom_calls = counts.get("interferometer.hom_photon_distribution.calls", 0)
    bs_calls = counts.get("interferometer.beam_splitter_unitary.calls", 0)
    dense_self = selfs.get("interferometer.dense", 0.0)
    flops = counts.get("interferometer.dense.flops", 0)
    values = {
        "interferometer.dense.calls": counts.get("interferometer.photon_distribution.calls", 0)
        + counts.get("interferometer.two_copy_output.calls", 0),
        "interferometer.dense.flops": flops,
        "interferometer.dense.bytes": counts.get("interferometer.dense.bytes", 0),
        "interferometer.bs_unitary.builds":
            bs_calls - counts.get("interferometer.beam_splitter_unitary.hits", 0),
        "interferometer.fock_diag.pairs": hom_calls,
        "interferometer.refused": counts.get("interferometer.refused", 0),
        "phase_space.wigner_eval.calls": counts.get("phase_space.wigner_eval.calls", 0),
        "phase_space.grid_points": counts.get("phase_space.grid_points", 0),
        "sampling.resamples": counts.get("sampling.resamples", 0),
        "states.cutoff_sum": counts.get("states.cutoff_sum", 0),
    }
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = selfs.get(name[:-len(".self_s")], 0.0)
    values = {k: v / passes for k, v in values.items()}
    values.update({
        "interferometer.dense.gflops_per_s": flops / dense_self / 1e9 if dense_self else 0.0,
        "interferometer.fock_diag.hit_ratio":
            counts.get("interferometer.hom_photon_distribution.hits", 0) / hom_calls
            if hom_calls else 0.0,
        "phase_space.gradient.grids_per_call": grids_per_gradient_call(spans),
        "trace_overhead": overhead,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def run_workload(name, seed, seconds, trace, env, work, setup_times):
    fig_dir = work / "figure2"
    requests = workloads.build(name, seed, seconds, str(fig_dir))
    wl = workloads.WORKLOADS[name]
    if wl.cli:
        records, spans, counts, absent = run_cli(requests, wl.passes, trace, env, work, fig_dir)
    else:
        records, spans, counts, absent = run_api(requests, wl.passes, trace, env, work)
    best = best_latencies(records, traced=False)
    tail_value, tail_pct = tail(best)
    failed = [r for r in records if not r["ok"]]
    passes = len(records) // (len(requests) * (2 if trace else 1))
    result = {
        "correct": all(r["defect"] for r in failed),
        "attempted": len(records),
        "failed": len(failed),
    }
    detail = {
        "workload": name, "seed": seed, "requests": len(requests), "passes": passes,
        "tail_percentile": tail_pct,
        "failed_known_defect": sum(r["defect"] for r in failed),
        "setup_samples_s": setup_times,
    }
    if trace:
        overhead = sum(best_latencies(records, traced=True)) / sum(best)
        result["metrics"] = per_layer(spans, counts, passes, overhead)
        selfs = {k[:-len(".self_s")]: v["value"] for k, v in result["metrics"].items()
                 if k.endswith(".self_s")}
        detail.update(
            wall_s=sum(best),
            target_layers=TARGETS[name],
            target_self_s=sum(selfs[layer] for layer in TARGETS[name]),
            largest_other_layer=max((k for k in selfs if k not in TARGETS[name]), key=selfs.get),
            absent_functions=absent,
            trace_file=str(write_trace(name, seed, spans, counts).relative_to(ROOT)))
    else:
        result["metrics"] = {
            "wall_s": sum(best),
            "latency_p50_s": statistics.median(best),
            "latency_tail_s": tail_value,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024.0,
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]}
                             for k, v in result["metrics"].items()}
    return result, detail


def write_trace(name, seed, spans, counts) -> Path:
    path = ROOT / ".perfbench" / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({"columns": ["request", "span", "parent", "layer", "function",
                                            "start", "end"],
                                "spans": spans, "counts": counts}))
    return path


def report(result: dict, detail: dict) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"{detail['requests']} requests, best of {detail['passes']} passes")
    for name, metric in result["metrics"].items():
        note = ""
        if name == "latency_tail_s":
            note = f"  (p{detail['tail_percentile']:.1f} of {detail['requests']} requests)"
        elif name == "setup_s":
            note = f"  (median of {SETUP_PROBES})"
        elif name in COMPUTED:
            note = "  (computed)"
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}{note}")
    print(f"  {'failed_ops':<40} {result['failed']:>14d} of {result['attempted']} attempted"
          f"  ({detail['failed_known_defect']} in the known combinatorial-path defect)")
    if "target_layers" in detail:
        other = detail["largest_other_layer"]
        print(f"  target {' + '.join(detail['target_layers'])}: {detail['target_self_s']:.4g} s self,"
              f" {detail['target_self_s'] / detail['wall_s']:.1%} of untraced wall_s;"
              f" largest other layer {other}"
              f" {result['metrics'][other + '.self_s']['value']:.4g} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qcslab" / "cli.py").is_file():
        print(f"error: no qcslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = measure_setup(env, work)
        env_record = environment(env, nproc, work)
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                          env, work, setup_times)
            report(result, detail)
            print(json.dumps({"detail": detail, "env": env_record}))
            results.append((name, result))
        print(f"env: {json.dumps(env_record)}")
        if len(results) == 1:
            final = results[0][1]
        else:
            final = {"correct": all(r["correct"] for _, r in results),
                     "attempted": sum(r["attempted"] for _, r in results),
                     "failed": sum(r["failed"] for _, r in results),
                     "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()}}
        print(json.dumps(final))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
