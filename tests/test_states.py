import json
import math
import tracemalloc

import numpy as np
import pytest

from oracles import ladder, pure_state_vector, quadratures, random_classical_mixture
from qcslab import (
    ClassicalMixture,
    CutoffError,
    StateSpec,
    ValidationError,
    build_state,
    classical_mixture,
    coherent,
    displace,
    fock,
    gaussian_covariance,
    phase_rotate,
    rho_2m,
    rho_even_m,
    squeezed_vacuum,
    thermal,
)
from qcslab import constructors
from qcslab.fock import DensityOperator
from qcslab.states import (
    CovarianceMatrix,
    coherent_amplitudes,
    mean_photon_number,
    recommended_cutoff,
)


def test_coherent_amplitudes_poisson():
    alpha = 0.8 - 0.6j
    amps = coherent_amplitudes(alpha, 30)
    n = np.arange(30)
    assert abs(np.sum(np.abs(amps) ** 2) - 1.0) < 1e-12
    assert abs(float(n @ np.abs(amps) ** 2) - abs(alpha) ** 2) < 1e-10
    assert abs(amps[1] - alpha * amps[0]) < 1e-12


def test_coherent_state_mean_field():
    alpha = 0.7
    rho = coherent(alpha, 30)
    a = ladder(30)
    assert abs(np.trace(rho.matrix @ a) - alpha) < 1e-10


def test_fock_and_cutoff_errors():
    rho = fock(3, 8)
    assert rho.matrix[3, 3] == 1.0
    with pytest.raises(CutoffError):
        fock(8, 8)
    with pytest.raises(CutoffError):
        coherent(3.0, 4)


def test_pure_states_match_from_matrix_bit_for_bit(monkeypatch):
    # pure states skip from_matrix; its Hermitian part, taken over the whole
    # matrix, equals the tiled one to the bit (300 levels span two tiles)
    vecs = []
    pure = constructors._pure
    monkeypatch.setattr(constructors, "_pure", lambda vec, **kw: vecs.append(vec) or pure(vec, **kw))
    for build in (lambda: coherent(0.8 - 0.6j, 300), lambda: squeezed_vacuum(-0.7, 300),
                  lambda: fock(3, 9)):
        rho = build()
        reference = DensityOperator.from_matrix(np.outer(vecs[-1], vecs[-1].conj()))
        assert np.array_equal(rho.matrix, reference.matrix)
        assert rho.trace_deficit == reference.trace_deficit


def test_fock_state_builds_no_temporaries():
    tracemalloc.start()
    try:
        rho = fock(600, 2408)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rho.trace_deficit == 0.0 and rho.matrix[600, 600] == 1.0
    assert peak < 1.5 * rho.matrix.nbytes


def test_thermal_parametrizations():
    by_q = thermal(0.5, 40)
    by_mean = thermal(cutoff=40, mean_n=1.0)
    assert np.allclose(by_q.matrix, by_mean.matrix)
    assert abs(by_q.matrix[2, 2].real - 0.5 ** 3) < 1e-14
    assert abs(by_q.trace_deficit - 0.5 ** 40) < 1e-15
    with pytest.raises(ValidationError):
        thermal(0.5, 10, mean_n=1.0)
    with pytest.raises(ValidationError):
        thermal(1.2, 10)


def test_squeezed_vacuum_moments():
    r = 0.6
    rho = squeezed_vacuum(r, 40)
    n_op = np.diag(np.arange(40))
    mean_n = float(np.trace(rho.matrix @ n_op).real)
    assert abs(mean_n - np.sinh(r) ** 2) < 1e-9
    # x anti-squeezed for r > 0: var x = e^{2r}/2
    x, _ = quadratures(40)
    var_x = float(np.trace(rho.matrix @ x @ x).real)
    assert abs(var_x - 0.5 * np.exp(2 * r)) < 1e-9
    # odd photon numbers never populated
    assert np.max(np.abs(np.diag(rho.matrix)[1::2])) < 1e-15


def test_fock_mixture_families():
    r10 = rho_2m(5, 16)
    diag = np.real(np.diag(r10.matrix))
    assert abs(diag[1] - 0.1) < 1e-15 and abs(diag[10] - 0.1) < 1e-15
    assert diag[0] == 0.0 and diag[11] == 0.0
    even = rho_even_m(5, 16)
    diag = np.real(np.diag(even.matrix))
    assert abs(diag[2] - 0.2) < 1e-15 and abs(diag[10] - 0.2) < 1e-15
    assert diag[3] == 0.0
    with pytest.raises(CutoffError):
        rho_2m(5, 10)


def test_classical_mixture_validation():
    with pytest.raises(ValidationError):
        ClassicalMixture((0.7, 0.7), (0.0, 1.0))
    with pytest.raises(ValidationError):
        ClassicalMixture((1.5, -0.5), (0.0, 1.0))
    # a non-finite weight or amplitude passes no sign or sum check, so it is
    # refused before qcs_classical_mixture can turn it into a NaN C²
    for weights, amplitudes in (((math.nan,), (0j,)), ((1.0,), (math.inf,)),
                                ((0.5, 0.5), (0j, complex(0.0, math.nan)))):
        with pytest.raises(ValidationError, match="finite"):
            ClassicalMixture(weights, amplitudes)
    mix = ClassicalMixture((0.25, 0.75), (1.0, -0.5j))
    rho = classical_mixture(mix, 24)
    rho.validate()
    assert abs(rho.trace() - 1.0) < 1e-9


def test_random_classical_mixture_is_seeded():
    a = random_classical_mixture(np.random.default_rng(11))
    b = random_classical_mixture(np.random.default_rng(11))
    assert a == b
    assert all(abs(z) <= 2.0 for z in a.amplitudes)
    assert len(a.weights) <= 5


def test_displace_and_phase_rotate_preserve_purity():
    rho = fock(1, 40)
    moved = displace(rho, 0.6 - 0.2j)
    assert abs(np.sum(np.abs(moved.matrix) ** 2) - 1.0) < 1e-10
    spun = phase_rotate(rho, 1.3)
    assert np.allclose(spun.matrix, rho.matrix)  # Fock states are phase invariant


def test_phase_rotate_by_pi_flips_odd_coherences():
    rho = coherent(0.4 + 0.2j, 8, deficit_tol=1e-3)
    spun = phase_rotate(rho, np.pi)
    signs = (-1.0) ** np.arange(8)
    assert np.allclose(spun.matrix, signs[:, None] * rho.matrix * signs)
    assert spun.trace_deficit == rho.trace_deficit


def test_pure_state_vector():
    rho = coherent(0.5, 20)
    vec = pure_state_vector(rho)
    assert np.max(np.abs(np.outer(vec, vec.conj()) - rho.matrix)) < 1e-9
    with pytest.raises(ValidationError):
        pure_state_vector(thermal(0.5, 20))


def test_covariance_matrix_validation():
    CovarianceMatrix(0.5 * np.eye(2))
    with pytest.raises(ValidationError):
        CovarianceMatrix(0.1 * np.eye(2))  # violates uncertainty
    with pytest.raises(ValidationError):
        CovarianceMatrix(np.array([[0.5, 0.2], [0.1, 0.5]]))  # asymmetric


def test_covariance_check_holds_at_any_scale():
    for scale in (1e12, 1e308):  # det γ = 0 < 1/4, det itself overflows at 1e308
        with pytest.raises(ValidationError):
            CovarianceMatrix(scale * np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValidationError):
        CovarianceMatrix(np.diag([1e9, 1e-12]))  # ν = 0.03
    with pytest.raises(ValidationError):
        CovarianceMatrix(np.array([[np.inf, 0.0], [0.0, 0.5]]))
    with pytest.raises(ValidationError):
        CovarianceMatrix(0.5 * np.eye(2), mean=[np.nan, 0.0])
    CovarianceMatrix(1e6 * np.eye(2) / 2)
    # pure squeezing r = 8 along a rotated axis: ν = 1/2 up to the rounding of γ
    rot = np.array([[np.cos(0.76), -np.sin(0.76)], [np.sin(0.76), np.cos(0.76)]])
    gamma = rot @ np.diag([np.exp(16.0), np.exp(-16.0)]) @ rot.T / 2
    CovarianceMatrix(0.5 * (gamma + gamma.T))


def test_gaussian_covariances():
    sq = gaussian_covariance(StateSpec("squeezed_vacuum", {"r": 0.3}))
    assert np.allclose(np.diag(sq.gamma), 0.5 * np.exp([0.6, -0.6]))
    th = gaussian_covariance(StateSpec("thermal", {"mean_n": 2.0}))
    assert np.allclose(th.gamma, 2.5 * np.eye(2))
    coh = gaussian_covariance(StateSpec("coherent", {"alpha": 1.0 + 1.0j}))
    assert np.allclose(coh.gamma, 0.5 * np.eye(2))
    assert np.allclose(coh.mean, [np.sqrt(2), np.sqrt(2)])


def test_state_spec_json_roundtrip():
    spec = StateSpec("mixture", {"weights": [0.5, 0.5],
                                 "amplitudes": [0.3 + 0.1j, -0.3]}, cutoff=24)
    back = StateSpec.from_json(spec.to_json())
    assert back.kind == spec.kind
    assert back.cutoff == 24
    assert back.params["amplitudes"] == [0.3 + 0.1j, (-0.3 + 0j)]


def test_state_spec_rejects_bad_documents():
    with pytest.raises(ValidationError):
        StateSpec.from_json("not json")
    with pytest.raises(ValidationError):
        StateSpec.from_json(json.dumps({"schema": 99, "kind": "fock"}))
    with pytest.raises(ValidationError):
        StateSpec.from_json(json.dumps({"schema": 1, "kind": "wibble"}))
    with pytest.raises(ValidationError):
        StateSpec.from_json(json.dumps({"schema": 1, "kind": "fock",
                                        "params": {"n": 1}, "cutoff": 1}))


def test_build_state_dispatch():
    rho = build_state(StateSpec("fock", {"n": 2}), cutoff=8)
    assert rho.matrix[2, 2] == 1.0
    displaced = build_state(
        StateSpec("displaced", {"base": {"kind": "fock", "params": {"n": 0}},
                                "beta": 0.5}), cutoff=30)
    expected = coherent(0.5, 30)
    assert np.max(np.abs(displaced.matrix - expected.matrix)) < 1e-9
    with pytest.raises(ValidationError):
        build_state(StateSpec("gaussian", {"gamma": [[0.5, 0], [0, 0.5]]}))
    with pytest.raises(ValidationError):
        build_state(StateSpec("fock", {}), cutoff=8)


@pytest.mark.parametrize("cutoff", [0, 1, -3, 2.5])
def test_build_state_rejects_bad_cutoff(cutoff):
    # a pinned cutoff is never read as "unset" and replaced by the recommended one
    with pytest.raises(ValidationError, match="'cutoff' must be an integer >= 2"):
        build_state(StateSpec("fock", {"n": 1}), cutoff=cutoff)


def test_mean_photon_number_and_recommended_cutoff():
    assert mean_photon_number(StateSpec("fock", {"n": 4})) == 4.0
    assert mean_photon_number(StateSpec("thermal", {"q": 0.5})) == 1.0
    one_copy = math.ceil(4.0 * (0.7 ** 2 + 3.0))  # the one-copy rule ceil(4(⟨n̂⟩+3))
    assert recommended_cutoff(StateSpec("coherent", {"alpha": 0.7})) == one_copy
    # slow thermal tail forces extra headroom beyond the mean-based rule
    th = recommended_cutoff(StateSpec("thermal", {"q": 0.5}))
    assert 0.5 ** th < 1e-8


def test_recommended_cutoff_of_top_level_kinds_builds_no_probe(monkeypatch):
    # the support of these kinds stops at their top level, so a probe cannot
    # move the rule 2·top + 4, whatever the top
    def no_build(*args, **kwargs):
        raise AssertionError("recommended_cutoff built a state")

    monkeypatch.setattr("qcslab.states.build_state", no_build)
    for n in (0, 1, 60, 511, 600):
        assert recommended_cutoff(StateSpec("fock", {"n": n})) == 2 * n + 4
    for kind in ("rho_2M", "rho_even_M"):
        for m in (1, 24, 300):
            assert recommended_cutoff(StateSpec(kind, {"M": m})) == 4 * m + 4


def test_recommended_cutoff_of_pure_kinds_reads_their_amplitudes(monkeypatch):
    # |ψ_n|² is the probe: no dim × dim state and no Tr ρ², and the cutoffs of
    # the 64- to 1,024-level matrix probes they replace. A displaced pure base's
    # amplitudes D(β)ψ take the exact elements of D(β) on the base's occupied
    # columns, O(dim²): a third of the 98 MB traced by the matrix probes of
    # displaced squeezed r = 2
    def no_matrix(*args, **kwargs):
        raise AssertionError("recommended_cutoff built a state")

    monkeypatch.setattr("qcslab.states.build_state", no_matrix)
    monkeypatch.setattr("qcslab.states.purity_direct", no_matrix)
    cases = [(StateSpec("coherent", {"alpha": 8.0}), 268, 1e6),
             (StateSpec("coherent", {"alpha": [0.0, -8.0]}), 268, 1e6),
             (StateSpec("coherent", {"alpha": 0.0}), 12, 1e6),
             (StateSpec("squeezed_vacuum", {"r": 2.0}), 538, 1e6),
             (StateSpec("squeezed_vacuum", {"r": -2.0}), 538, 1e6),
             (StateSpec("squeezed_vacuum", {"r": 0.0}), 12, 1e6)]
    cases += [(StateSpec("displaced", {"base": {"kind": "squeezed_vacuum", "params": {"r": r}},
                                       "beta": [0.5, 0.3]}), cutoff, 33e6)
              for r, cutoff in ((1.0, 74), (2.0, 548))]
    cases.append((StateSpec("displaced", {"base": {"kind": "fock", "params": {"n": 3}},
                                          "beta": [1.5, -0.5]}), 34, 33e6))
    for spec, cutoff, peak_bound in cases:
        tracemalloc.start()
        try:
            assert recommended_cutoff(spec) == cutoff
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < peak_bound
    with pytest.raises(CutoffError, match="pass --cutoff"):
        recommended_cutoff(StateSpec("squeezed_vacuum", {"r": 2.35}))


@pytest.mark.parametrize("spec", [
    StateSpec("squeezed_vacuum", {"r": 2.35}),
    StateSpec("displaced", {"base": {"kind": "squeezed_vacuum", "params": {"r": 2.35}},
                            "beta": [0.5, 0.3]}),
], ids=["squeezed-2.35", "displaced-squeezed-2.35"])
def test_pure_probe_that_still_cuts_at_the_cap_is_refused(spec):
    # at r = 2.35 the 1,024-level probe cuts 1.0e-9 of the trace, so the
    # cutoff 1,016 it gives left C² 2.5e-6 below cosh 4.7; the smallest
    # refused r is 2.308 (2.307 gets cutoff 990, inside its probe)
    with pytest.raises(CutoffError, match="pass --cutoff"):
        recommended_cutoff(spec)


def test_mixed_probe_that_still_cuts_at_the_cap_runs():
    # thermal q = 0.98 cuts just over 1e-9 too, but its C² reads the tail of
    # ρ², which is squared: the cutoff inside the probe stays exact
    assert recommended_cutoff(StateSpec("thermal", {"q": 0.98})) == 1017
    assert recommended_cutoff(StateSpec("squeezed_vacuum", {"r": 2.307})) == 990
