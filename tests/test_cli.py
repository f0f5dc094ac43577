import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest

from cli_runner import CliRunner
from oracles import pure_state_vector
from qcslab import cli, interferometer, purity_from_pn, qcs_pure_shortcut, states
from qcslab.cli import main
from qcslab.states import StateSpec, build_state, recommended_cutoff, route_inputs, two_copy_pn


@pytest.fixture
def runner():
    return CliRunner()


def write_spec(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def fock1(tmp_path):
    return write_spec(tmp_path, "fock1.json",
                      {"schema": 1, "kind": "fock", "params": {"n": 1}})


@pytest.fixture
def thermal05(tmp_path):
    return write_spec(tmp_path, "th.json",
                      {"schema": 1, "kind": "thermal", "params": {"q": 0.5}})


def test_qcs_single_route(runner, fock1):
    result = runner.invoke(main, ["qcs", "--state", fock1, "--route", "direct"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert abs(doc["results"]["direct"]["c_squared"] - 3.0) < 1e-9
    assert doc["metadata"]["tool"] == "qcslab"
    assert "timestamp" in doc["metadata"]


def test_qcs_all_routes_marks_inapplicable(runner, fock1):
    result = runner.invoke(main, ["qcs", "--state", fock1, "--route", "all"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["results"]["gaussian"] == "not applicable"
    assert doc["results"]["classical-mixture"] == "not applicable"
    assert abs(doc["results"]["two-copy"]["c_squared"] - 3.0) < 1e-9


def test_missing_state_file(runner):
    result = runner.invoke(main, ["qcs", "--state", "/nonexistent.json"])
    assert result.exit_code == 2


NOT_UTF8 = b"\xff\xfe{}"


@pytest.mark.parametrize("command", ["qcs", "overlap"])
@pytest.mark.parametrize("state", ["directory", "not-utf8"])
def test_unreadable_state_file_exits_2(runner, tmp_path, fock1, command, state):
    path = tmp_path
    if state == "not-utf8":
        path = tmp_path / "latin.json"
        path.write_bytes(NOT_UTF8)
    readable = ["--state", fock1] if command == "overlap" else []
    result = runner.invoke(main, [command, *readable, "--state", str(path)])
    assert result.exit_code == 2, result.output
    assert "error: cannot read state file" in result.output


@pytest.mark.parametrize("command", [["qcs", "--out", "missing/x.json"],
                                     ["pn-dist", "--format", "csv", "--out", "missing/x.csv"],
                                     ["figure2", "--out", "fock1.json"]],
                         ids=["qcs-json", "pn-dist-csv", "figure2-out-is-a-file"])
def test_unwritable_output_exits_2(runner, tmp_path, monkeypatch, fock1, command):
    monkeypatch.chdir(tmp_path)
    state = [] if command[0] == "figure2" else ["--state", fock1]
    result = runner.invoke(main, [*command, *state])
    assert result.exit_code == 2, result.output
    assert f"error: cannot write output {command[-1]}" in result.output


def test_config_file_not_utf8_exits_2(runner, tmp_path, fock1):
    config = tmp_path / "cfg.json"
    config.write_bytes(NOT_UTF8)
    result = runner.invoke(main, ["qcs", "--state", fock1, "--config", str(config)])
    assert result.exit_code == 2, result.output
    assert "error: cannot read config file" in result.output


def test_invalid_state_document(runner, tmp_path):
    path = write_spec(tmp_path, "bad.json", {"schema": 1, "kind": "wibble"})
    result = runner.invoke(main, ["qcs", "--state", path])
    assert result.exit_code == 2


def test_cutoff_ambiguity_rejected(runner, tmp_path):
    path = write_spec(tmp_path, "f.json",
                      {"schema": 1, "kind": "fock", "params": {"n": 1}, "cutoff": 16})
    result = runner.invoke(main, ["qcs", "--state", path, "--cutoff", "20"])
    assert result.exit_code == 2
    assert "ambiguous" in result.output


def test_config_flag_conflict_rejected(runner, tmp_path, fock1):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"route": "direct"}))
    result = runner.invoke(main, ["qcs", "--state", fock1, "--route", "two-copy",
                                  "--config", str(config)])
    assert result.exit_code == 2
    assert "ambiguous" in result.output


def test_config_file_supplies_values(runner, tmp_path, fock1):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"state": fock1, "route": "direct"}))
    result = runner.invoke(main, ["qcs", "--config", str(config)])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert abs(doc["results"]["direct"]["c_squared"] - 3.0) < 1e-9


def test_infeasible_cutoff_exits_4(runner, tmp_path):
    path = write_spec(tmp_path, "th_small.json",
                      {"schema": 1, "kind": "thermal", "params": {"q": 0.5},
                       "cutoff": 8})
    result = runner.invoke(main, ["purity", "--state", path])
    assert result.exit_code == 4


def test_purity_routes_agree(runner, thermal05):
    result = runner.invoke(main, ["purity", "--state", thermal05])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert abs(doc["purity_direct"] - 1.0 / 3.0) < 1e-9
    assert abs(doc["purity_two_copy"] - 1.0 / 3.0) < 1e-9


def test_pn_dist_csv(runner, thermal05, tmp_path):
    out = tmp_path / "pn.csv"
    result = runner.invoke(main, ["pn-dist", "--state", thermal05,
                                  "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,p_n,cumulative"
    assert lines[1] == "0,0.5,0.5"


def test_pn_dist_json(runner, thermal05):
    result = runner.invoke(main, ["pn-dist", "--state", thermal05,
                                  "--format", "json"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert abs(doc["p_n"][1] - 0.25) < 1e-12


def test_overlap(runner, tmp_path, thermal05):
    other = write_spec(tmp_path, "coh.json",
                       {"schema": 1, "kind": "coherent", "params": {"alpha": 0.3}})
    result = runner.invoke(main, ["overlap", "--state", thermal05,
                                  "--state", other])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert abs(doc["overlap_trace"] - doc["overlap_parity"]) < 1e-8
    assert abs(doc["overlap_trace"] - doc["overlap_kernel"]) < 1e-6
    single = runner.invoke(main, ["overlap", "--state", thermal05])
    assert single.exit_code == 2


def test_overlap_trace_is_the_trace_of_the_dense_product(runner, tmp_path):
    rng = np.random.default_rng(5)
    amplitudes = (rng.normal(size=(3, 2)) * 0.4).tolist()
    docs = [{"kind": "mixture", "params": {"weights": rng.dirichlet(np.ones(3)).tolist(),
                                           "amplitudes": amplitudes}},
            {"kind": "displaced", "params": {"base": {"kind": "thermal", "params": {"q": 0.2}},
                                             "beta": (rng.normal(size=2) * 0.4).tolist()}}]
    paths = [write_spec(tmp_path, f"{i}.json", {"schema": 1, **doc}) for i, doc in enumerate(docs)]
    result = runner.invoke(main, ["overlap", "--state", paths[0], "--state", paths[1],
                                  "--cutoff", "16"])
    assert result.exit_code == 0, result.output
    rho_a, rho_b = (build_state(StateSpec(doc["kind"], doc["params"]), cutoff=16).matrix
                    for doc in docs)
    dense = np.trace(rho_a @ rho_b).real
    assert abs(json.loads(result.output)["overlap_trace"] - dense) <= 1e-15 * dense


def test_overlap_cutoff_pinned_in_a_state_file(runner, tmp_path):
    coh = write_spec(tmp_path, "coh.json",
                     {"schema": 1, "kind": "coherent", "params": {"alpha": 0.3}})
    pinned = write_spec(tmp_path, "f.json",
                        {"schema": 1, "kind": "fock", "params": {"n": 1}, "cutoff": 10})
    result = runner.invoke(main, ["overlap", "--state", coh, "--state", pinned,
                                  "--cutoff", "20"])
    assert result.exit_code == 2
    assert "ambiguous" in result.output
    # the flag may repeat the pinned cutoff; without it, the larger cutoff is used
    agreed = runner.invoke(main, ["overlap", "--state", coh, "--state", pinned,
                                  "--cutoff", "10"])
    assert agreed.exit_code == 0 and json.loads(agreed.output)["cutoff"] == 10
    unpinned = runner.invoke(main, ["overlap", "--state", coh, "--state", pinned])
    assert unpinned.exit_code == 0
    assert json.loads(unpinned.output)["cutoff"] == max(
        10, recommended_cutoff(StateSpec("coherent", {"alpha": 0.3})))


def test_compare_fock1_payload(runner, fock1, tmp_path):
    out = tmp_path / "cmp.json"
    result = runner.invoke(main, ["compare", "--state", fock1, "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["max_deviation_exact"] < 1e-6
    assert abs(doc["results"]["direct"]["c_squared"] - 3.0) < 1e-9


def test_compare_exits_3_when_routes_disagree(runner, fock1, monkeypatch):
    source, estimator = cli.ROUTES["direct"]

    def off_by_1e_3(value):
        est = estimator(value)
        return dataclasses.replace(est, c_squared=est.c_squared + 1e-3)

    monkeypatch.setitem(cli.ROUTES, "direct", (source, off_by_1e_3))
    result = runner.invoke(main, ["compare", "--state", fock1])
    assert result.exit_code == 3, result.output
    assert "error: route deviation 1.000e-03 exceeds tolerance 1e-06" in result.output


@pytest.mark.parametrize("command, state, config, message", [
    ("qcs", True, '{"bogus": 1}', "unknown config key 'bogus'"),
    ("qcs", True, "{", "cannot read config file"),
    ("qcs", False, None, "no state file given"),
    ("pn-dist", True, None, "--out is required for CSV output"),
], ids=["unknown-config-key", "config-not-json", "no-state", "csv-without-out"])
def test_unusable_invocation_exits_2(runner, tmp_path, fock1, command, state, config, message):
    flags = ["--state", fock1] if state else []
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        flags += ["--config", str(tmp_path / "cfg.json")]
    result = runner.invoke(main, [command, *flags])
    assert result.exit_code == 2, result.output
    assert f"error: {message}" in result.output


def test_sample_deterministic_apart_from_timestamp(runner, thermal05, tmp_path):
    args = ["sample", "--state", thermal05, "--shots", "1000", "--seed", "5",
            "--resamples", "50"]
    a = json.loads(runner.invoke(main, args).output)
    b = json.loads(runner.invoke(main, args).output)
    a["metadata"].pop("timestamp")
    b["metadata"].pop("timestamp")
    assert a == b


def test_sample_rejects_zero_shots(runner, thermal05):
    result = runner.invoke(main, ["sample", "--state", thermal05, "--shots", "0"])
    assert result.exit_code == 2


@pytest.mark.parametrize("flags, config, key", [
    (["--shots", "1000", "--seed", "-1"], None, "seed"),
    ([], {"shots": "100"}, "shots"),
    (["--shots", "1000"], {"resamples": "50"}, "resamples"),
    (["--shots", "1000"], {"seed": "7"}, "seed"),
    (["--shots", "1000"], {"resamples": 2.5}, "resamples"),
    (["--shots", "1000"], {"seed": 1.5}, "seed"),
    (["--shots", "1000"], {"resamples": True}, "resamples"),
], ids=["flag-seed-negative", "config-shots-string", "config-resamples-string",
        "config-seed-string", "config-resamples-float", "config-seed-float",
        "config-resamples-bool"])
def test_sample_bad_integers_exit_2(runner, tmp_path, thermal05, flags, config, key):
    if config is not None:
        flags = [*flags, "--config", write_spec(tmp_path, "cfg.json", config)]
    result = runner.invoke(main, ["sample", "--state", thermal05, *flags])
    assert result.exit_code == 2, result.output
    assert f"'{key}' must be an integer" in result.output


def test_figure2_negative_n_max_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["figure2", "--out", str(tmp_path), "--n-max", "-3"])
    assert result.exit_code == 2, result.output
    assert "'n_max' must be an integer >= 0" in result.output


def test_figure2(runner, tmp_path):
    out = tmp_path / "fig2"
    result = runner.invoke(main, ["figure2", "--out", str(out)])
    assert result.exit_code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["states"]["rho_10"]["purity"] - 0.1) < 1e-6
    assert abs(summary["states"]["rho_even_5"]["c_squared"] - 13.0) < 1e-6
    assert abs(summary["states"]["thermal_q0.85"]["purity"] - 3.0 / 37.0) < 1e-12
    csv = (out / "pn_thermal_q0.85.csv").read_text().splitlines()
    assert csv[0] == "n,p_n,cumulative"
    assert len(csv) == 26  # header + n = 0..24


def test_figure2_out_from_config_file(runner, tmp_path):
    out = tmp_path / "fig2"
    config = write_spec(tmp_path, "cfg.json", {"out": str(out), "n_max": 4})
    result = runner.invoke(main, ["figure2", "--config", config])
    assert result.exit_code == 0, result.output
    assert (out / "summary.json").exists()


def test_figure2_without_out_exits_2(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, ["figure2", "--n-max", "6"])
    assert result.exit_code == 2, result.output
    assert "needs an output directory" in result.output
    assert not any(tmp_path.iterdir())


def test_high_fock_level_two_copy(runner, tmp_path):
    # top Fock level 60: C² = 2n + 1 and purity 1 on the combinatorial path
    path = write_spec(tmp_path, "fock60.json",
                      {"schema": 1, "kind": "fock", "params": {"n": 60}})
    result = runner.invoke(main, ["qcs", "--state", path])
    assert result.exit_code == 0
    assert abs(json.loads(result.output)["results"]["two-copy"]["c_squared"] - 121.0) < 1e-6
    result = runner.invoke(main, ["purity", "--state", path])
    assert result.exit_code == 0
    assert abs(json.loads(result.output)["purity_two_copy"] - 1.0) < 1e-6


def test_squeezed_two_copy_at_recommended_cutoff(runner, tmp_path):
    # the recommended cutoff 68 is within the block memory guard
    path = write_spec(tmp_path, "sq.json",
                      {"schema": 1, "kind": "squeezed_vacuum", "params": {"r": 1.0}})
    result = runner.invoke(main, ["qcs", "--state", path, "--route", "two-copy"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["cutoff"] == 68
    assert abs(doc["results"]["two-copy"]["c_squared"] - math.cosh(2.0)) < 1e-6


MALFORMED_SPECS = {
    "fock-non-integral-n": ({"kind": "fock", "params": {"n": 2.5}}, [], "'n'"),
    "rho_even_M-non-integral-M": ({"kind": "rho_even_M", "params": {"M": 2.7}}, [], "'M'"),
    "thermal-q-and-mean_n": ({"kind": "thermal", "params": {"q": 0.5, "mean_n": 3.0}},
                             ["--route", "gaussian", "--cutoff", "30"], "mean_n"),
    "thermal-q-1": ({"kind": "thermal", "params": {"q": 1.0}}, [], "q"),
    "coherent-missing-alpha": ({"kind": "coherent", "params": {}}, [], "'alpha'"),
    "fock-missing-n": ({"kind": "fock", "params": {}}, [], "'n'"),
    "thermal-missing-q": ({"kind": "thermal", "params": {}}, [], "q"),
    "gaussian-missing-gamma": ({"kind": "gaussian", "params": {}},
                               ["--route", "gaussian"], "'gamma'"),
    "displaced-missing-beta": ({"kind": "displaced",
                                "params": {"base": {"kind": "fock", "params": {"n": 1}}}},
                               [], "'beta'"),
    "displaced-base-missing-kind": ({"kind": "displaced",
                                     "params": {"base": {"params": {"n": 1}}, "beta": 0.5}},
                                    [], "'base'"),
    "squeezed-string-r": ({"kind": "squeezed_vacuum", "params": {"r": "0.3"}}, [], "'r'"),
    "displaced-string-base": ({"kind": "displaced", "params": {"base": "fock", "beta": 0.5}},
                              [], "'base'"),
    "displaced-base-non-integral-n": (
        {"kind": "displaced",
         "params": {"base": {"kind": "fock", "params": {"n": 2.5}}, "beta": 0.5}},
        [], "'n'"),
}


@pytest.mark.parametrize("doc,flags,name", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS)
def test_malformed_spec_exits_2(runner, tmp_path, doc, flags, name):
    path = write_spec(tmp_path, "bad.json", {"schema": 1, **doc})
    result = runner.invoke(main, ["qcs", "--state", path, *flags])
    assert result.exit_code == 2, result.output
    assert name in result.output


HUGE_SPECS = {
    "coherent": ({"kind": "coherent", "params": {"alpha": 1e200}}, []),
    "coherent-cutoff-10": ({"kind": "coherent", "params": {"alpha": 1e200}}, ["--cutoff", "10"]),
    "squeezed": ({"kind": "squeezed_vacuum", "params": {"r": 800.0}}, []),
    "squeezed-cutoff-10": ({"kind": "squeezed_vacuum", "params": {"r": 800.0}}, ["--cutoff", "10"]),
    "displaced-vacuum": ({"kind": "displaced", "params": {
        "base": {"kind": "fock", "params": {"n": 0}}, "beta": 1e200}}, []),
    "displaced-vacuum-cutoff-10": ({"kind": "displaced", "params": {
        "base": {"kind": "fock", "params": {"n": 0}}, "beta": 1e200}}, ["--cutoff", "10"]),
    # |β|² = 1e20: scaled_laguerre floors its carried start exponents inside int32
    "displaced-vacuum-1e10-cutoff-10": ({"kind": "displaced", "params": {
        "base": {"kind": "fock", "params": {"n": 0}}, "beta": 1e10}}, ["--cutoff", "10"]),
}


@pytest.mark.parametrize("doc,flags", HUGE_SPECS.values(), ids=HUGE_SPECS)
def test_huge_finite_parameters_exit_4(runner, tmp_path, doc, flags):
    # ⟨n̂⟩ or a Fock amplitude past the double range is a cutoff error, not an
    # OverflowError traceback; the suite turns any numpy overflow warning into
    # an error too
    path = write_spec(tmp_path, "huge.json", {"schema": 1, **doc})
    result = runner.invoke(main, ["qcs", "--state", path, *flags])
    assert result.exit_code == 4, (result.output, result.exception)
    assert result.output.startswith("error: ")


def test_config_hash_identifies_state_content(runner, tmp_path):
    # one path, two contents, the same pinned cutoff
    path = tmp_path / "state.json"
    hashes = set()
    for n in (1, 3):
        path.write_text(json.dumps({"schema": 1, "kind": "fock", "params": {"n": n}}))
        result = runner.invoke(main, ["qcs", "--state", str(path), "--route", "direct",
                                      "--cutoff", "16"])
        assert result.exit_code == 0
        hashes.add(json.loads(result.output)["metadata"]["config_hash"])
    assert len(hashes) == 2


def test_config_hash_leaves_out_the_output_path(runner, tmp_path):
    coh = write_spec(tmp_path, "coh.json",
                     {"schema": 1, "kind": "coherent", "params": {"alpha": 0.7}})
    fock3 = write_spec(tmp_path, "fock3.json", {"schema": 1, "kind": "fock", "params": {"n": 3}})

    def config_hash(out, *args):
        result = runner.invoke(main, [*args, "--cutoff", "16", "--out", str(tmp_path / out)])
        assert result.exit_code == 0, result.output
        return json.loads((tmp_path / out).read_text())["metadata"]["config_hash"]

    first = config_hash("o1.json", "qcs", "--state", coh)
    assert config_hash("o2.json", "qcs", "--state", coh) == first
    assert config_hash("o3.json", "qcs", "--state", coh, "--route", "direct") != first
    assert config_hash("o4.json", "qcs", "--state", fock3) != first
    # figure2's --out is its output directory
    summaries = []
    for name in ("fig_a", "fig_b"):
        result = runner.invoke(main, ["figure2", "--out", str(tmp_path / name), "--n-max", "4"])
        assert result.exit_code == 0, result.output
        summaries.append(json.loads((tmp_path / name / "summary.json").read_text()))
    assert summaries[0]["metadata"]["config_hash"] == summaries[1]["metadata"]["config_hash"]


def test_config_hash_is_the_sha256_of_hashlib(runner, fock1, monkeypatch):
    hashes = set()
    for sha256 in (cli.sha256, hashlib.sha256):
        monkeypatch.setattr(cli, "sha256", sha256)
        result = runner.invoke(main, ["qcs", "--state", fock1, "--cutoff", "8"])
        assert result.exit_code == 0, result.output
        hashes.add(json.loads(result.output)["metadata"]["config_hash"])
    assert len(hashes) == 1


def test_infeasible_route_reported_and_others_kept(runner, tmp_path):
    # thermal(0.5) leaves 0.5**12 of its trace above cutoff 12, so every Fock
    # route is infeasible there; the Gaussian route still runs
    path = write_spec(tmp_path, "th.json",
                      {"schema": 1, "kind": "thermal", "params": {"q": 0.5}})
    for cmd in (["qcs", "--route", "all"], ["compare"]):
        out = tmp_path / "out.json"
        result = runner.invoke(main, [*cmd, "--state", path, "--cutoff", "12",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        for route in ("direct", "two-copy", "wigner-gradient", "wigner-laplacian"):
            assert "exceeds deficit tolerance" in doc["results"][route]["infeasible"]
        assert abs(doc["results"]["gaussian"]["c_squared"] - 1.0 / 3.0) < 1e-12
        assert doc["results"]["classical-mixture"] == "not applicable"
    assert doc["max_deviation_exact"] == 0.0
    single = runner.invoke(main, ["qcs", "--state", path, "--cutoff", "12",
                                  "--route", "two-copy"])
    assert single.exit_code == 4


def test_wigner_grid_past_the_memory_guard_is_infeasible(runner, tmp_path):
    # fock(300) at 1,100 levels: the gradient route's position grid has 4,741
    # points per axis, with its half-width capped at the top level's turning point
    path = write_spec(tmp_path, "f300.json", {"schema": 1, "kind": "fock", "params": {"n": 300}})
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["qcs", "--route", "all", "--state", path, "--cutoff", "1100",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert "exceeds memory guard" in doc["results"]["wigner-gradient"]["infeasible"]
    for route in ("direct", "two-copy", "pure"):
        assert abs(doc["results"][route]["c_squared"] - 601.0) < 1e-9


@pytest.mark.parametrize("kind, params", [
    ("coherent", {"alpha": 0.9}), ("coherent", {"alpha": [3.0, -2.0]}),
    ("coherent", {"alpha": 8.0}), ("fock", {"n": 0}), ("fock", {"n": 3}), ("fock", {"n": 40}),
    ("squeezed_vacuum", {"r": 0.4}), ("squeezed_vacuum", {"r": -1.0}),
    ("squeezed_vacuum", {"r": 2.0}),
    ("displaced", {"base": {"kind": "squeezed_vacuum", "params": {"r": 1.0}}, "beta": [0.5, 0.3]}),
    ("displaced", {"base": {"kind": "fock", "params": {"n": 3}}, "beta": [1.5, -0.5]}),
    ("displaced", {"base": {"kind": "displaced", "params": {
        "base": {"kind": "coherent", "params": {"alpha": 0.4}}, "beta": -0.7}}, "beta": 0.2}),
])
def test_pure_route_on_the_amplitudes_matches_the_eigh_vector(kind, params):
    # at the default cutoff: the amplitudes against ψ taken back from the
    # built state by eigh, and against the direct route on that state
    spec = StateSpec(kind, params)
    cutoff = recommended_cutoff(spec)
    results, _, _ = cli._run_routes(route_inputs(spec, cutoff), ("pure", "direct"))
    rho = build_state(spec, cutoff=cutoff)
    eigh = qcs_pure_shortcut(pure_state_vector(rho) / math.sqrt(1 - rho.trace_deficit))
    pure = results["pure"]["c_squared"]
    for other in (eigh.c_squared, results["direct"]["c_squared"]):
        assert abs(pure - other) <= 1e-10 * abs(other)


def test_pure_route_calls_no_eigh(runner, tmp_path, monkeypatch):
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    path = write_spec(tmp_path, "sq.json",
                      {"schema": 1, "kind": "squeezed_vacuum", "params": {"r": 2.0}})
    result = runner.invoke(main, ["qcs", "--state", path, "--route", "pure"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["cutoff"] == 538
    assert abs(doc["results"]["pure"]["c_squared"] - math.cosh(4.0)) < 1e-6


def test_two_copy_route_exact_at_tight_cutoff(runner, tmp_path):
    # coherent(0.7) fills cutoff 12: the two-copy route gives the C² of the
    # truncated state, as the direct route does
    path = write_spec(tmp_path, "coh.json",
                      {"schema": 1, "kind": "coherent", "params": {"alpha": 0.7}})
    values = {}
    for route in ("two-copy", "direct"):
        result = runner.invoke(main, ["qcs", "--state", path, "--cutoff", "12",
                                      "--route", route])
        assert result.exit_code == 0, result.output
        values[route] = json.loads(result.output)["results"][route]["c_squared"]
    assert abs(values["two-copy"] - values["direct"]) <= 1e-12 * values["direct"]


@pytest.mark.parametrize("params, cutoff, c2", [
    ({"kind": "fock", "params": {"n": 1}}, 2, 3.0),
    ({"kind": "rho_even_M", "params": {"M": 3}}, 7, 9.0),
])
def test_direct_route_at_tight_cutoff(runner, tmp_path, params, cutoff, c2):
    path = write_spec(tmp_path, "s.json", {"schema": 1, **params})
    result = runner.invoke(main, ["qcs", "--state", path, "--route", "direct",
                                  "--cutoff", str(cutoff)])
    assert result.exit_code == 0, result.output
    assert abs(json.loads(result.output)["results"]["direct"]["c_squared"] - c2) < 1e-12


@pytest.mark.parametrize("command", [["compare"], ["qcs", "--route", "all"]])
def test_state_built_once_per_command(runner, tmp_path, monkeypatch, command):
    # the two-copy and Wigner-Laplacian routes share one p_n (the two-copy kernel's
    # output diagonal, whoever calls it)
    calls, pn_builds = [], []
    output_diagonal = interferometer._output_diagonal

    def counting_build_state(spec, **kwargs):
        calls.append(spec)
        return build_state(spec, **kwargs)

    def counting_output_diagonal(*args):
        pn_builds.append(args)
        return output_diagonal(*args)

    monkeypatch.setattr("qcslab.states.build_state", counting_build_state)
    monkeypatch.setattr(interferometer, "_output_diagonal", counting_output_diagonal)
    path = write_spec(tmp_path, "coh.json",
                      {"schema": 1, "kind": "coherent", "params": {"alpha": [0.3, -0.26]}})
    result = runner.invoke(main, command + ["--state", path, "--cutoff", "28"])
    assert result.exit_code == 0, result.output
    assert len(calls) == 1
    assert len(pn_builds) == 1


@pytest.mark.parametrize("flags, config", [
    (["--cutoff", "0"], None),
    (["--cutoff", "1"], None),
    (["--cutoff", "-5"], None),
    ([], {"cutoff": 0}),
], ids=["flag-0", "flag-1", "flag-negative", "config-0"])
def test_cutoff_below_two_exits_2(runner, tmp_path, fock1, flags, config):
    # the state file's rule: a pinned cutoff is never ignored or read as "unset"
    if config is not None:
        config_path = write_spec(tmp_path, "cfg.json", config)
        flags = ["--config", config_path]
    result = runner.invoke(main, ["qcs", "--state", fock1, *flags])
    assert result.exit_code == 2, result.output
    assert "'cutoff' must be an integer >= 2" in result.output


@pytest.mark.parametrize("scale", [1e12, 1e308])
def test_singular_covariance_exits_2_at_any_scale(runner, tmp_path, scale):
    path = write_spec(tmp_path, "g.json", {"schema": 1, "kind": "gaussian", "params": {
        "gamma": [[scale, scale], [scale, scale]]}})
    result = runner.invoke(main, ["qcs", "--state", path, "--route", "gaussian"])
    assert result.exit_code == 2, result.output
    assert "positive definite" in result.output


def test_pure_route_on_a_displaced_pure_base_builds_no_state(runner, tmp_path, monkeypatch):
    # the default-cutoff probe and the route read D(β)ψ; C² is
    # displacement-invariant, so it is the base's cosh 2r
    def no_build(*args, **kwargs):
        raise AssertionError("build_state called")

    monkeypatch.setattr("qcslab.states.build_state", no_build)
    monkeypatch.setattr("qcslab.cli.build_state", no_build)
    path = write_spec(tmp_path, "dsq.json", {"schema": 1, "kind": "displaced", "params": {
        "base": {"kind": "squeezed_vacuum", "params": {"r": 2.0}}, "beta": [0.5, 0.3]}})
    result = runner.invoke(main, ["qcs", "--state", path, "--route", "pure"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["cutoff"] == 548
    assert abs(doc["results"]["pure"]["c_squared"] - math.cosh(4.0)) < 1e-6


def test_pure_route_holds_the_amplitudes_to_the_deficit_check(runner, tmp_path):
    # displaced vacuum at β = 2 leaves 5.1e-2 of its norm past 8 levels
    path = write_spec(tmp_path, "disp.json", {"schema": 1, "kind": "displaced", "params": {
        "base": {"kind": "fock", "params": {"n": 0}}, "beta": 2.0}})
    result = runner.invoke(main, ["qcs", "--state", path, "--route", "pure", "--cutoff", "8"])
    assert result.exit_code == 4, result.output
    assert "exceeds deficit tolerance" in result.output


def test_pure_route_on_a_displaced_mixed_base_is_not_applicable(runner, tmp_path):
    path = write_spec(tmp_path, "dth.json", {"schema": 1, "kind": "displaced", "params": {
        "base": {"kind": "thermal", "params": {"q": 0.2}}, "beta": 0.5}})
    result = runner.invoke(main, ["qcs", "--state", path, "--route", "all"])
    assert result.exit_code == 0, result.output
    results = json.loads(result.output)["results"]
    assert results["pure"] == "not applicable"
    # the base's closed form: C² = 1/(1 + 2⟨n̂⟩) with ⟨n̂⟩ = q/(1 − q) = 1/4
    assert abs(results["two-copy"]["c_squared"] - 1.0 / 1.5) < 1e-9


def test_displaced_pn_dist_is_its_base(runner, tmp_path, fock1):
    # README disp.json, D(0.5)|1⟩: the same p_n as |1⟩ at the same cutoff
    path = write_spec(tmp_path, "disp.json", {"schema": 1, "kind": "displaced", "params": {
        "base": {"kind": "fock", "params": {"n": 1}}, "beta": [0.5, 0.0]}})
    docs = []
    for state in (path, fock1):
        result = runner.invoke(main, ["pn-dist", "--state", state, "--format", "json",
                                      "--cutoff", "17"])
        assert result.exit_code == 0, result.output
        docs.append(json.loads(result.output))
    assert docs[0]["p_n"] == docs[1]["p_n"]
    assert abs(docs[0]["p_n"][0] - 0.5) < 1e-15 and abs(docs[0]["p_n"][2] - 0.5) < 1e-15


@pytest.mark.parametrize("command", [["pn-dist", "--format", "json"],
                                     ["sample", "--shots", "2000", "--resamples", "20"]],
                         ids=["pn-dist", "sample"])
def test_displaced_pure_base_p_n_builds_no_state(runner, tmp_path, monkeypatch, command):
    # the p_n is the base's closed form and the deficit check reads D(β)ψ, so
    # no displaced state is built (the base's own state is the kernel's input)
    calls = []

    def counting_build_state(spec, **kwargs):
        calls.append(spec)
        return build_state(spec, **kwargs)

    monkeypatch.setattr("qcslab.states.build_state", counting_build_state)
    path = write_spec(tmp_path, "dcoh.json", {"schema": 1, "kind": "displaced", "params": {
        "base": {"kind": "coherent", "params": {"alpha": [0.4, -0.2]}}, "beta": [0.5, 0.3]}})
    result = runner.invoke(main, [*command, "--state", path])
    assert result.exit_code == 0, result.output
    assert calls == [StateSpec("coherent", {"alpha": [0.4, -0.2]})]


def test_displaced_mixed_base_p_n_builds_its_base_once(runner, tmp_path, monkeypatch):
    # the deficit check builds the displaced state, which builds its base; the
    # base's closed form builds nothing more
    calls = []

    def counting_build_state(spec, **kwargs):
        calls.append(spec)
        return build_state(spec, **kwargs)

    monkeypatch.setattr("qcslab.states.build_state", counting_build_state)
    doc = {"kind": "displaced", "params": {
        "base": {"kind": "thermal", "params": {"q": 0.3}}, "beta": 0.4}}
    path = write_spec(tmp_path, "dth.json", {"schema": 1, **doc})
    result = runner.invoke(main, ["pn-dist", "--state", path, "--format", "json", "--cutoff", "40"])
    assert result.exit_code == 0, result.output
    spec = StateSpec(doc["kind"], doc["params"])
    assert calls == [spec, spec.params["base"]]


@pytest.mark.parametrize("command, computed", [
    (["compare"], 1), (["qcs", "--route", "all"], 1), (["qcs", "--route", "two-copy"], 1),
    (["pn-dist", "--format", "json"], 1), (["purity"], 0),
], ids=["compare", "qcs-all", "qcs-two-copy", "pn-dist", "purity"])
def test_displaced_amplitudes_computed_at_most_once(runner, tmp_path, monkeypatch,
                                                     command, computed):
    # at a pinned cutoff the pure route and the p_n's deficit check share one
    # D(β)ψ, and purity's check reads the state it built
    calls = []
    displace_amplitudes = states.displace_amplitudes

    def counting(*args):
        calls.append(args)
        return displace_amplitudes(*args)

    monkeypatch.setattr(states, "displace_amplitudes", counting)
    path = write_spec(tmp_path, "dcoh.json", {"schema": 1, "kind": "displaced", "params": {
        "base": {"kind": "coherent", "params": {"alpha": [0.4, -0.2]}}, "beta": [0.5, 0.3]}})
    result = runner.invoke(main, [*command, "--state", path, "--cutoff", "24"])
    assert result.exit_code == 0, result.output
    assert len(calls) == computed


# one spec of each kind with a Fock-space construction, and a displaced pure
# and a displaced mixed base
FOCK_KIND_DOCS = {
    "coherent": {"kind": "coherent", "params": {"alpha": [0.6, -0.3]}},
    "fock": {"kind": "fock", "params": {"n": 2}},
    "thermal": {"kind": "thermal", "params": {"q": 0.4}},
    "squeezed": {"kind": "squeezed_vacuum", "params": {"r": 0.5}},
    "rho_2M": {"kind": "rho_2M", "params": {"M": 2}},
    "rho_even_M": {"kind": "rho_even_M", "params": {"M": 2}},
    "mixture": {"kind": "mixture", "params": {"weights": [0.3, 0.7],
                                              "amplitudes": [0.5, [-0.2, 0.4]]}},
    "displaced-squeezed": {"kind": "displaced", "params": {
        "base": {"kind": "squeezed_vacuum", "params": {"r": 0.5}}, "beta": [0.5, 0.3]}},
    "displaced-thermal": {"kind": "displaced", "params": {
        "base": {"kind": "thermal", "params": {"q": 0.3}}, "beta": 0.4}},
}


@pytest.mark.parametrize("name", FOCK_KIND_DOCS)
def test_pn_dist_and_purity_read_two_copy_pn(runner, tmp_path, name):
    doc = FOCK_KIND_DOCS[name]
    path = write_spec(tmp_path, "s.json", {"schema": 1, **doc})
    result = runner.invoke(main, ["pn-dist", "--state", path, "--format", "json"])
    assert result.exit_code == 0, result.output
    pn_doc = json.loads(result.output)
    pn = two_copy_pn(StateSpec(doc["kind"], doc["params"]), pn_doc["cutoff"])
    assert pn_doc["p_n"] == pn.probs.tolist() and pn_doc["deficit"] == pn.deficit
    result = runner.invoke(main, ["purity", "--state", path])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["purity_two_copy"] == purity_from_pn(pn)


@pytest.mark.parametrize("command", [["pn-dist", "--format", "json"],
                                     ["sample", "--shots", "2000"],
                                     ["qcs", "--route", "two-copy"]],
                         ids=["pn-dist", "sample", "qcs-two-copy"])
def test_displaced_pure_base_p_n_holds_the_amplitudes_to_the_deficit_check(
        runner, tmp_path, command):
    # displaced vacuum at β = 2 leaves 5.1e-2 of its norm past 8 levels
    path = write_spec(tmp_path, "disp.json", {"schema": 1, "kind": "displaced", "params": {
        "base": {"kind": "fock", "params": {"n": 0}}, "beta": 2.0}})
    result = runner.invoke(main, [*command, "--state", path, "--cutoff", "8"])
    assert result.exit_code == 4, result.output
    assert "exceeds deficit tolerance" in result.output


def test_compare_reads_the_truncation_of_a_displaced_state(runner, tmp_path):
    # displaced vacuum at β = 2 leaves 2.5e-7 of its trace past 18 levels,
    # within the deficit tolerance, but the truncation moves the displaced
    # state's C² to 1 + 7.1e-6; the two-copy routes read the base's exact 1
    path = write_spec(tmp_path, "disp.json", {"schema": 1, "kind": "displaced", "params": {
        "base": {"kind": "fock", "params": {"n": 0}}, "beta": 2.0}})
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["compare", "--state", path, "--cutoff", "18", "--out", str(out)])
    assert result.exit_code == 3, result.output
    doc = json.loads(out.read_text())
    assert doc["results"]["two-copy"]["c_squared"] == 1.0
    assert 7e-6 < doc["results"]["direct"]["c_squared"] - 1.0 < 7.2e-6
    assert runner.invoke(main, ["compare", "--state", path, "--cutoff", "24"]).exit_code == 0


@pytest.mark.parametrize("base, beta, cutoff", [(0, 2.0, 8), (3, 1.0, 10)],
                         ids=["vacuum-beta-2-cutoff-8", "fock-3-beta-1-cutoff-10"])
def test_displaced_state_past_cutoff_exits_4(runner, tmp_path, base, beta, cutoff):
    # the exact displacement moves 5.1e-2 and 4.7e-3 of the trace past these
    # cutoffs; a unitary on the truncated space would keep it and read C² as
    # 2.510 and 7.085 (true values 1 and 7)
    path = write_spec(tmp_path, "disp.json", {"schema": 1, "kind": "displaced", "params": {
        "base": {"kind": "fock", "params": {"n": base}}, "beta": beta}})
    for cmd in (["qcs", "--route", "all"], ["compare"]):
        result = runner.invoke(main, [*cmd, "--state", path, "--cutoff", str(cutoff)])
        assert result.exit_code == 4, result.output
        assert "trace deficit" in result.output


# every option of every command, by config key
OPTIONS = {"qcs": ("state", "route", "cutoff", "out"), "purity": ("state", "cutoff", "out"),
           "pn-dist": ("state", "cutoff", "out", "format"), "overlap": ("state", "cutoff", "out"),
           "compare": ("state", "cutoff", "out"), "figure2": ("out", "n_max"),
           "sample": ("state", "shots", "seed", "resamples", "cutoff", "out")}
OPTION_CASES = [(command, key) for command, keys in OPTIONS.items() for key in keys]


def test_option_cases_cover_every_option():
    assert set(OPTION_CASES) == {(name, option.key) for name, (_, options) in cli.COMMANDS.items()
                                 for option in options}


@pytest.mark.parametrize("command, key", OPTION_CASES,
                         ids=[f"{command}-{key}" for command, key in OPTION_CASES])
def test_option_in_flag_and_config_is_ambiguous(runner, tmp_path, fock1, command, key):
    # a config value and a flag for one option, each valid alone: reading
    # either silently would answer for an input the user did not mean
    other = write_spec(tmp_path, "coh.json",
                       {"schema": 1, "kind": "coherent", "params": {"alpha": 0.3}})
    copies = 2 if command == "overlap" else 1
    given = {"state": (["--state", fock1] * copies, other if copies == 1 else [other] * 2),
             "out": (["--out", str(tmp_path / "flag_out")], str(tmp_path / "config_out")),
             "route": (["--route", "direct"], "direct"), "cutoff": (["--cutoff", "16"], 16),
             "format": (["--format", "json"], "json"), "shots": (["--shots", "100"], 100),
             "seed": (["--seed", "1"], 1), "resamples": (["--resamples", "50"], 50),
             "n_max": (["--n-max", "3"], 3)}
    needed = "out" if command == "figure2" else "state"
    flags, value = given[key]
    config = write_spec(tmp_path, "cfg.json", {key: value})
    result = runner.invoke(main, [command, *([] if key == needed else given[needed][0]),
                                  *flags, "--config", config])
    assert result.exit_code == 2, result.output
    assert "ambiguous" in result.output
    assert not (tmp_path / "flag_out").exists() and not (tmp_path / "config_out").exists()


@pytest.mark.parametrize("command, config, message", [
    (["pn-dist", "--out", "pn.csv"], {"format": "xml"}, "config key 'format'"),
    (["qcs"], {"state": 5}, "config key 'state'"),
    (["qcs"], {"out": 7}, "config key 'out'"),
    (["overlap"], {"state": "a.json"}, "config key 'state'"),
    (["qcs"], ["route", "direct"], "JSON object"),
], ids=["format-xml", "state-5", "out-7", "overlap-state-string", "not-an-object"])
def test_config_value_of_the_wrong_type_exits_2(runner, tmp_path, monkeypatch, fock1,
                                                command, config, message):
    monkeypatch.chdir(tmp_path)
    state = [] if "state" in config else ["--state", fock1]
    result = runner.invoke(main, [*command, *state, "--config",
                                  write_spec(tmp_path, "cfg.json", config)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "pn.csv").exists()


@pytest.mark.parametrize("params", [{"r": 2.5}, {"r": 2.35}, {"q": 0.99}],
                         ids=["squeezed-2.5", "squeezed-2.35", "thermal-0.99"])
def test_default_cutoff_past_the_probe_cap_exits_4(runner, tmp_path, params):
    # the probe stops at 1,024 levels, where r = 2.5's direct route reads
    # C² = 74.209630 for cosh 5 = 74.209949
    kind = "squeezed_vacuum" if "r" in params else "thermal"
    path = write_spec(tmp_path, "s.json", {"schema": 1, "kind": kind, "params": params})
    start = time.perf_counter()
    result = runner.invoke(main, ["qcs", "--state", path, "--route", "direct"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 4, result.output
    assert "1024 levels the cutoff probe builds; pass --cutoff" in result.output


def test_default_cutoff_below_the_probe_cap_runs(runner, tmp_path):
    path = write_spec(tmp_path, "s.json",
                      {"schema": 1, "kind": "squeezed_vacuum", "params": {"r": 2.3}})
    result = runner.invoke(main, ["qcs", "--state", path, "--route", "direct"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["cutoff"] == 982
    assert abs(doc["results"]["direct"]["c_squared"] - math.cosh(4.6)) < 1e-6


BIG_COHERENT = {"schema": 1, "kind": "coherent", "params": {"alpha": 1000.0}}


def test_gaussian_route_runs_where_the_default_cutoff_probe_refuses(runner, tmp_path):
    # |1000⟩ does not fit the probe's 1,024 levels; the gaussian route reads no
    # cutoff, so none is resolved
    path = write_spec(tmp_path, "big.json", BIG_COHERENT)
    result = runner.invoke(main, ["qcs", "--state", path, "--route", "gaussian"])
    assert result.exit_code == 0, result.output
    doc = json.loads(result.output)
    assert doc["cutoff"] is None
    assert doc["results"]["gaussian"]["c_squared"] == 1.0


@pytest.mark.parametrize("command", [["qcs", "--route", "all"], ["compare"]],
                         ids=["qcs-all", "compare"])
def test_fock_routes_report_the_default_cutoff_refusal_as_infeasible(runner, tmp_path,
                                                                      command):
    path = write_spec(tmp_path, "big.json", BIG_COHERENT)
    out = tmp_path / "out.json"
    result = runner.invoke(main, [*command, "--state", path, "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert doc["cutoff"] is None
    for route in ("direct", "two-copy", "pure", "wigner-gradient", "wigner-laplacian"):
        assert "the cutoff probe builds; pass --cutoff" in doc["results"][route]["infeasible"]
    assert doc["results"]["gaussian"]["c_squared"] == 1.0


@pytest.mark.parametrize("doc, cutoff", [
    ({"kind": "coherent", "params": {"alpha": 0.7}}, 14),
    ({"kind": "coherent", "params": {"alpha": 0.7}, "cutoff": 20}, 20),
    ({"kind": "gaussian", "params": {"gamma": [[1.0, 0.0], [0.0, 0.25]]}}, 0),
], ids=["default", "state-file", "covariance-only"])
def test_cutoff_resolved_where_no_route_reads_it(runner, tmp_path, doc, cutoff):
    # the header and the config hash carry the cutoff a Fock route would read,
    # as a pinned cutoff's run does (0 for a kind with no Fock construction)
    path = write_spec(tmp_path, "s.json", {"schema": 1, **doc})
    docs = []
    for pinned in ([], ["--cutoff", str(cutoff)] if cutoff else []):
        result = runner.invoke(main, ["qcs", "--state", path, "--route", "gaussian", *pinned])
        assert result.exit_code == 0, result.output
        docs.append(json.loads(result.output))
    assert docs[0]["cutoff"] == docs[1]["cutoff"] == cutoff
    assert docs[0]["metadata"]["config_hash"] == docs[1]["metadata"]["config_hash"]


@pytest.mark.parametrize("doc, route, code", [
    ({"kind": "mixture", "params": {"weights": [0.5, 0.5], "amplitudes": [0, 1e200]}},
     "classical-mixture", 0),
    ({"kind": "mixture", "params": {"weights": [0.5, 0.5], "amplitudes": [0, 1e200]}},
     "all", 0),
    ({"kind": "squeezed_vacuum", "params": {"r": 800}}, "gaussian", 4),
    ({"kind": "squeezed_vacuum", "params": {"r": 800}}, "all", 4),
], ids=["mixture-1e200", "mixture-1e200-all", "squeezed-800-gaussian", "squeezed-800-all"])
def test_overflowing_parameters_give_typed_results(runner, tmp_path, doc, route, code):
    # no traceback and no RuntimeWarning (an error under this suite's
    # filterwarnings): the mixture's cross terms vanish, so C² is exactly 1,
    # and e^{2r} past a double makes the gaussian route infeasible
    path = write_spec(tmp_path, "s.json", {"schema": 1, **doc})
    result = runner.invoke(main, ["qcs", "--state", path, "--route", route, "--cutoff", "10"])
    assert result.exception is None, repr(result.exception)
    assert result.exit_code == code, result.output
    if code == 0:
        assert json.loads(result.output)["results"]["classical-mixture"]["c_squared"] == 1.0
    elif route == "gaussian":
        assert "e^(2|r|) overflows a double" in result.output


def test_figure2_has_no_cutoff_option(runner, tmp_path):
    # each state runs at its default cutoff: both Fock families' p_n is the
    # same at every cutoff above their top level 10, and the thermal one is closed
    result = runner.invoke(main, ["figure2", "--out", str(tmp_path), "--cutoff", "16"])
    assert result.exit_code == 2, result.output
    assert "unrecognized arguments: --cutoff 16" in result.output
    config = write_spec(tmp_path, "cfg.json", {"cutoff": 16})
    result = runner.invoke(main, ["figure2", "--out", str(tmp_path / "fig"), "--config", config])
    assert result.exit_code == 2, result.output
    assert "unknown config key 'cutoff'" in result.output
