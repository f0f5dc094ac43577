import json
import math

import pytest
from click.testing import CliRunner

from qcslab import interferometer
from qcslab.cli import main
from qcslab.states import build_state


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
    assert abs(doc["overlap_trace"] - doc["overlap_wigner"]) < 1e-6
    single = runner.invoke(main, ["overlap", "--state", thermal05])
    assert single.exit_code == 2


def test_compare_fock1_payload(runner, fock1, tmp_path):
    out = tmp_path / "cmp.json"
    result = runner.invoke(main, ["compare", "--state", fock1, "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["max_deviation_exact"] < 1e-6
    assert abs(doc["results"]["direct"]["c_squared"] - 3.0) < 1e-9


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
    # the recommended cutoff 136 is within the block memory guard
    path = write_spec(tmp_path, "sq.json",
                      {"schema": 1, "kind": "squeezed_vacuum", "params": {"r": 1.0}})
    result = runner.invoke(main, ["qcs", "--state", path, "--route", "two-copy"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["cutoff"] == 136
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
    # fock(300) at 302 levels: the gradient route's grid has 7,881² points
    path = write_spec(tmp_path, "f300.json", {"schema": 1, "kind": "fock", "params": {"n": 300}})
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["qcs", "--route", "all", "--state", path, "--cutoff", "302",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    doc = json.loads(out.read_text())
    assert "exceeds memory guard" in doc["results"]["wigner-gradient"]["infeasible"]
    for route in ("direct", "two-copy", "pure"):
        assert abs(doc["results"][route]["c_squared"] - 601.0) < 1e-9


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

    monkeypatch.setattr("qcslab.cli.build_state", counting_build_state)
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
