import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import accumulate, islice

import numpy as np
import pytest

from oracles import default_axes, quadrature_spacing, two_copy_output, wigner_eval
from qcslab import (
    DensityOperator,
    MemoryGuardError,
    PhotonDistribution,
    ValidationError,
    coherent,
    fock,
    hom_photon_distribution,
    photon_distribution,
    photon_distribution_phase_invariant,
    tensor,
    thermal,
    thermal_photon_distribution,
)
from qcslab.errors import RoundoffBudgetError
from qcslab.interferometer import MEMORY_GUARD_DIM, _blocks, _held_block, _plans


def test_identical_coherent_inputs_cancel():
    rho = coherent(0.7, 24)
    pn = photon_distribution(rho, rho)
    assert abs(pn.probs[0] - 1.0) < 1e-9
    assert np.max(pn.probs[1:]) < 1e-9


def test_two_copy_output_of_coherent_is_vacuum():
    rho_d = two_copy_output(coherent(0.5, 20))
    assert abs(rho_d.matrix[0, 0].real - 1.0) < 1e-9


def test_two_copy_output_is_valid_state():
    rho_d = two_copy_output(thermal(0.3, 32))
    rho_d.validate()
    # Tr ρ_d = (Tr ρ)²: the recorded deficit is the one of the output
    rho_d = two_copy_output(thermal(0.5, 10, deficit_tol=1e-2))
    assert abs(rho_d.trace_deficit - (1.0 - rho_d.trace())) < 1e-12


def test_hom_dip():
    p = hom_photon_distribution(1, 1)
    assert np.allclose(p, [0.5, 0.0, 0.5], atol=1e-12)


def test_hom_distributions_normalized():
    for big_n in range(7):
        for big_np in range(7):
            p = hom_photon_distribution(big_n, big_np)
            assert abs(p.sum() - 1.0) < 1e-10


def test_hom_block_amplitudes_small_case():
    # |1>|1> is column k = 1 of the T = 2 block; output row k leaves n = 2 - k
    # photons in the difference mode. n = 1 cancels (the HOM dip), n = 0, 2
    # carry probability 1/2 each.
    c = next(islice(_blocks(2, 2), 2, None))[:, 1]
    assert abs(c[1]) < 1e-12
    for k_out in (0, 2):
        assert abs(c[k_out] ** 2 - 0.5) < 1e-12


@pytest.mark.parametrize("alpha", [1.3, 0.4 - 0.9j])
def test_coherent_against_vacuum_is_poisson(alpha):
    # copy b holds only level 0, so its window is one column wide: the pair
    # leaves a coherent state of amplitude α/√2 in the difference mode
    mean = abs(alpha) ** 2 / 2
    rho, vacuum = coherent(alpha, 40), fock(0, 40)
    for pair in ((rho, vacuum), (vacuum, rho)):
        pn = photon_distribution(*pair).probs
        poisson = [math.exp(-mean) * mean ** n / math.factorial(n) for n in range(len(pn))]
        assert len(pn) == 40
        assert np.abs(pn - poisson).max() < 1e-12


def hom_one_photon_exact(big_n):
    """p_n for |N⟩⊗|1⟩, n = 0 … N + 1, as the exact fraction
    (C(N,n) − C(N,n−1))²·n!·(N+1−n)! / (2^{N+1}·N!), rounded once."""
    fact = [1, *accumulate(range(1, big_n + 2), lambda a, b: a * b)]
    comb = [math.comb(big_n, n) for n in range(big_n + 1)] + [0]
    return np.array([
        float(Fraction((comb[n] - comb[n - 1]) ** 2 * fact[n] * fact[big_n + 1 - n],
                       2 ** (big_n + 1) * fact[big_n]))
        for n in range(big_n + 2)])


@pytest.mark.parametrize("big_n", [1, 5, 30, 2000])
def test_hom_one_photon_matches_exact_form(big_n):
    # unequal windows: the last one is the single column N of U_{N+1}
    exact = hom_one_photon_exact(big_n)
    for pair in ((big_n, 1), (1, big_n)):
        assert np.abs(hom_photon_distribution(*pair) - exact).max() < 1e-14


def test_hom_distribution_high_photon_numbers():
    # photon numbers where alternating closed-form amplitude sums cancel catastrophically
    assert abs(hom_photon_distribution(60, 60).sum() - 1.0) < 1e-12
    for big_n in (34, 61, 120):
        diag = np.zeros(big_n + 1)
        diag[big_n] = 1.0
        pn = photon_distribution_phase_invariant(diag).probs
        assert abs(pn.sum() - 1.0) < 1e-12
        signs = (-1.0) ** np.arange(len(pn))
        c2 = 1.0 + 2.0 * (np.arange(len(pn)) * signs * pn).sum() / (signs * pn).sum()
        assert abs(c2 - (2 * big_n + 1)) < 1e-9


def test_fast_path_matches_dense_pipeline():
    # the weights alone and the same state at cutoff 26 give one p_n on
    # 2·8 + 1 levels: the kernel stops at the top levels, not at the cutoff
    rng = np.random.default_rng(5)
    diag = np.zeros(26)
    diag[:9] = rng.dirichlet(np.ones(9))
    rho = DensityOperator(np.diag(diag).astype(complex), (26,))
    fast = photon_distribution_phase_invariant(diag[:9])
    dense = photon_distribution(rho, rho)
    assert len(fast) == len(dense) == 17
    assert np.max(np.abs(fast.probs - dense.probs)) < 1e-15


def test_thermal_closed_form_matches_dense():
    rho = thermal(0.3, 44)
    dense = photon_distribution(rho, rho)
    closed = thermal_photon_distribution(0.3, len(dense.probs) - 1)
    assert np.max(np.abs(dense.probs - closed.probs)) < 1e-9


def _zero_state(dims):
    # np.zeros maps its pages lazily, so an input above the guard costs no memory
    d = int(np.prod(dims))
    return DensityOperator(np.zeros((d, d), dtype=complex), tuple(dims))


def test_memory_guard():
    with pytest.raises(MemoryGuardError):
        two_copy_output(_zero_state((MEMORY_GUARD_DIM + 1,)))
    # an input within the guard whose full blocks are not: 2048 + 2048 + 1 levels
    top = _zero_state((2049,))
    top.matrix[2048, 2048] = 1.0
    with pytest.raises(MemoryGuardError, match="block side 4097"):
        photon_distribution(top, top)


def test_distribution_validation():
    with pytest.raises(RoundoffBudgetError):
        PhotonDistribution.from_values(np.array([1.0, -1e-3]))
    for broken in ([0.8, 0.3], [0.2, 0.7], [4e6, 0.0, 1.0]):
        with pytest.raises(RoundoffBudgetError):
            PhotonDistribution.from_values(np.array(broken))
    ok = PhotonDistribution.from_values(np.array([0.7, 0.3, -1e-12]))
    assert ok.probs[2] == 0.0
    assert ok.roundoff <= 1e-12


def test_joint_distribution_validation():
    # a joint p_n over two modes: Σp_n ≤ 1 over all entries, and the sign of
    # each entry is the total parity (−1)^(n_1 + n_2), not the first mode's
    with pytest.raises(RoundoffBudgetError):
        PhotonDistribution.from_values(np.array([[0.6, 0.0], [0.0, 0.6]]))
    with pytest.raises(RoundoffBudgetError):
        PhotonDistribution.from_values(np.array([[0.0, 0.5], [0.5, 0.0]]))
    ok = PhotonDistribution.from_values(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert ok.probs.shape == (2, 2) and ok.deficit == 0.0


def test_joint_distribution_refused_where_one_mode_is_meant(tmp_path):
    pn = photon_distribution(*[tensor(fock(1, 3), fock(0, 2))] * 2)
    with pytest.raises(ValidationError):
        pn.to_csv(tmp_path / "pn.csv")


def test_distribution_csv(tmp_path):
    pn = PhotonDistribution(probs=np.array([0.5, 0.25, 0.25]))
    path = tmp_path / "pn.csv"
    pn.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,p_n,cumulative"
    assert lines[1] == "0,0.5,0.5"
    assert lines[3].startswith("2,0.25,")


def test_multimode_matches_single_mode_pipeline():
    # a vacuum second mode leaves the first mode's difference-mode state as is;
    # its own difference mode keeps two levels, the smallest cutoff
    rho = thermal(0.2, 8, deficit_tol=1e-3)
    single = two_copy_output(rho)
    multi = two_copy_output(tensor(rho, fock(0, 3)))
    assert single.dims == (15,) and multi.dims == (15, 2)
    assert np.max(np.abs(multi.matrix - tensor(single, fock(0, 2)).matrix)) < 1e-12
    vacuum_d = two_copy_output(fock(0, 4))
    x_axis, p_axis = default_axes(vacuum_d, quadrature_spacing(vacuum_d.dim))
    assert wigner_eval(vacuum_d, x_axis, p_axis, norm_tol=1e-6).values.max() > 0


def test_multimode_product_state_factorizes():
    a = fock(1, 6)
    b = coherent(0.4, 6, deficit_tol=1e-3)
    joint = two_copy_output(tensor(a, b))
    expected = tensor(two_copy_output(a), two_copy_output(b))
    assert np.max(np.abs(joint.matrix - expected.matrix)) < 1e-12
    assert joint.dims == (3, 11)


def test_multimode_memory_guard():
    # the input side is the product of the per-mode cutoffs: 65 * 65 > 4096
    with pytest.raises(MemoryGuardError):
        two_copy_output(_zero_state((65, 65)))


def test_orthogonal_inputs_give_zero_overlap():
    # Σ(-1)ⁿp_n = Tr(ρ_a ρ_b) = 0 is physical for distinct inputs
    pn = photon_distribution(fock(0, 8), fock(1, 8))
    assert np.allclose(pn.probs[:2], [0.5, 0.5], atol=1e-15)
    assert abs(pn.probs[::2].sum() - pn.probs[1::2].sum()) < 1e-15


def test_input_validation():
    with pytest.raises(ValidationError):
        photon_distribution(fock(0, 8), fock(0, 10))
    # any mode count: two modes give the joint p_n, the diagonal of ρ_d
    rho = tensor(fock(1, 4), coherent(0.4, 4, deficit_tol=1e-2))
    pn = photon_distribution(rho, rho)
    rho_d = two_copy_output(rho)
    assert pn.probs.shape == rho_d.dims == (3, 7)
    assert np.max(np.abs(pn.probs.reshape(-1) - rho_d.matrix.diagonal().real)) < 1e-15
    with pytest.raises(ValidationError):
        thermal_photon_distribution(1.0, 10)
    # a NaN weight is malformed input, not a round-off budget failure
    for weights in ([], [0.5, -0.1], [0.7, 0.7], [0.5, math.nan], [math.inf]):
        with pytest.raises(ValidationError):
            photon_distribution_phase_invariant(weights)


# pairs of top levels whose totals end below, at and above the held U_64
HELD_EDGE_PAIRS = [(64, 0), (65, 0), (40, 7), (2, 90), (100, 100)]


def test_held_blocks_give_the_same_windows_cold_and_warm():
    for pair in HELD_EDGE_PAIRS:
        _held_block.cache_clear()
        cold = [w.copy() for w in _blocks(*pair)]
        warm = list(_blocks(*pair))
        assert len(cold) == len(warm) == sum(pair) + 1
        assert all(np.array_equal(c, w) for c, w in zip(cold, warm))
    # a window is the same columns of U_T whichever window it was streamed in
    for top_a, top_b in HELD_EDGE_PAIRS:
        for t, (w, full) in enumerate(zip(_blocks(top_a, top_b), _blocks(200, 200))):
            lo = max(0, t - top_b)
            assert np.array_equal(w, full[:, lo:lo + w.shape[1]])


def test_held_and_streamed_windows_are_read_only():
    windows = list(_blocks(100, 100))
    for t in (0, 40, 64, 65, 100, 200):
        with pytest.raises(ValueError):
            windows[t][0, 0] = 1.0


def test_first_mode_windows_stream():
    # holding every window of a top-200 pair would take 66 MB
    rho = fock(200, 202)
    _held_block.cache_clear()
    tracemalloc.start()
    try:
        photon_distribution(rho, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.8e6


def test_cold_threads_match_a_single_thread():
    # streamed pairs, and two pairs of one held shape that race for the plan cache
    inputs = [(coherent(0.9, 40), thermal(0.6, 40, deficit_tol=1e-6)),
              (fock(63, 64), fock(2, 64)), (thermal(0.8, 80), coherent(1.5, 80)),
              (fock(20, 90), coherent(2.0, 90)),
              (coherent(0.5, 24), thermal(0.4, 24, deficit_tol=1e-2)),
              (thermal(0.3, 24), coherent(0.7, 24))]
    expected = [photon_distribution(a, b).probs for a, b in inputs]
    results = [None] * len(inputs)
    start = threading.Barrier(len(inputs))

    def work(i):
        start.wait()
        results[i] = photon_distribution(*inputs[i]).probs

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _held_block.cache_clear()
        _plans.clear()
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(switch)
    for got, want in zip(results, expected):
        assert np.array_equal(got, want)
    assert _plans.nbytes == sum(size for _, size in _plans._plans.values()) > 0
