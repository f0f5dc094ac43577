import warnings

import numpy as np
import pytest

from qcslab import (
    ClassicalMixture,
    DegenerateDenominatorError,
    DensityOperator,
    PhotonDistribution,
    classical_mixture,
    coherent,
    fock,
    overlap_gaussian,
    photon_distribution,
    photon_distribution_phase_invariant,
    purity_direct,
    purity_from_pn,
    purity_gaussian,
    qcs_classical_mixture,
    qcs_direct,
    qcs_gaussian,
    qcs_multimode,
    qcs_pure_shortcut,
    qcs_two_copy,
    squeezed_vacuum,
    tensor,
    thermal,
    thermal_photon_distribution,
)
from qcslab.states import (CovarianceMatrix, StateSpec, coherent_amplitudes, gaussian_covariance,
                           squeezed_amplitudes)


def fast_pn(rho):
    return photon_distribution_phase_invariant(np.real(np.diag(rho.matrix)))


def test_direct_fock_states():
    for n in range(4):
        est = qcs_direct(fock(n, 12))
        assert abs(est.c_squared - (1 + 2 * n)) < 1e-10
        assert est.method == "direct"


def test_direct_exact_at_tightest_cutoff():
    # the top Fock level fills the cutoff, so [ρ, r] needs one level more
    assert abs(qcs_direct(fock(1, 2)).c_squared - 3.0) < 1e-12
    assert abs(qcs_direct(tensor(fock(1, 2), fock(0, 2))).c_squared - 2.0) < 1e-12
    assert abs(qcs_direct(tensor(fock(1, 2), fock(1, 3))).c_squared - 3.0) < 1e-12


def test_direct_coherent_is_one():
    assert abs(qcs_direct(coherent(0.7, 32)).c_squared - 1.0) < 1e-9


def test_direct_thermal():
    mean_n = 1.0
    est = qcs_direct(thermal(cutoff=50, mean_n=mean_n))
    assert abs(est.c_squared - 1.0 / (1 + 2 * mean_n)) < 1e-9
    assert abs(est.denominator - 1.0 / 3.0) < 1e-9  # purity in the denominator


def test_two_copy_matches_direct():
    cases = [(fock(2, 16), fast_pn(fock(2, 16))),
             (thermal(0.5, 40), thermal_photon_distribution(0.5, 80)),
             (coherent(0.7, 32), photon_distribution(coherent(0.7, 32),
                                                     coherent(0.7, 32)))]
    for rho, pn in cases:
        assert abs(qcs_two_copy(pn).c_squared - qcs_direct(rho).c_squared) < 1e-8


def test_purity_from_pn_matches_direct():
    rho = thermal(0.5, 50)
    pn = thermal_photon_distribution(0.5, 100)
    assert abs(purity_from_pn(pn) - purity_direct(rho)) < 1e-9


def test_degenerate_denominator():
    pn = PhotonDistribution(probs=np.array([0.5, 0.5]))
    with pytest.raises(DegenerateDenominatorError):
        qcs_two_copy(pn)


def test_pure_shortcut():
    vec = coherent_amplitudes(0.9, 30)
    assert abs(qcs_pure_shortcut(vec).c_squared - 1.0) < 1e-9
    vec = squeezed_amplitudes(0.4, 30)
    assert abs(qcs_pure_shortcut(vec).c_squared - np.cosh(0.8)) < 1e-9
    vec = np.zeros(8)
    vec[2] = 1.0
    assert abs(qcs_pure_shortcut(vec).c_squared - 5.0) < 1e-12


def test_classical_mixture_single_term_is_one():
    est = qcs_classical_mixture(ClassicalMixture((1.0,), (0.8 + 0.2j,)))
    assert abs(est.c_squared - 1.0) < 1e-14


def test_classical_mixture_balanced_pair_closed_form():
    a = 1.1
    est = qcs_classical_mixture(ClassicalMixture((0.5, 0.5), (a, -a)))
    d2 = 4 * a * a  # squared separation of the two amplitudes
    expected = 1.0 - d2 * np.exp(-d2) / (1.0 + np.exp(-d2))
    assert abs(est.c_squared - expected) < 1e-12


def test_classical_mixture_matches_direct():
    mix = ClassicalMixture((0.3, 0.45, 0.25), (1.2, -0.4 + 0.9j, 0.1 - 0.6j))
    closed = qcs_classical_mixture(mix)
    dense = qcs_direct(classical_mixture(mix, 36))
    assert abs(closed.c_squared - dense.c_squared) < 1e-7
    assert closed.c_squared <= 1.0 + 1e-12


def test_multimode_examples():
    vac2 = tensor(fock(0, 6), fock(0, 6))
    assert abs(qcs_multimode(vac2).c_squared - 1.0) < 1e-10
    one_zero = tensor(fock(1, 6), fock(0, 6))
    assert abs(qcs_multimode(one_zero).c_squared - 2.0) < 1e-10
    one_one = tensor(fock(1, 6), fock(1, 6))
    assert abs(qcs_multimode(one_one).c_squared - 3.0) < 1e-10


def test_multimode_matches_direct_on_correlated_state():
    dim = 6
    mat = np.zeros((dim * dim, dim * dim), dtype=complex)
    mat[0, 0] = 0.6
    mat[dim + 1, dim + 1] = 0.4  # |1,1><1,1|
    rho = DensityOperator(mat, (dim, dim))
    assert abs(qcs_multimode(rho).c_squared - qcs_direct(rho).c_squared) < 1e-8


def test_direct_on_entangled_two_mode_squeezed_vacuum():
    # Σ_n (−tanh r)ⁿ/cosh r |n, n⟩ is pure with ⟨n̂_k⟩ = sinh² r per mode, so
    # C² = 1 + 2 sinh² r = cosh 2r; 24 levels leave tanh(r)^48 ≈ 1e-20 behind
    r, dim = 0.4, 24
    psi = np.diag((-np.tanh(r)) ** np.arange(dim) / np.cosh(r)).ravel()
    rho = DensityOperator.from_matrix(np.outer(psi, psi), (dim, dim))
    assert abs(qcs_direct(rho).c_squared - np.cosh(2 * r)) < 1e-12


def test_gaussian_routes():
    vac = CovarianceMatrix(0.5 * np.eye(2))
    assert abs(purity_gaussian(vac) - 1.0) < 1e-14
    assert abs(qcs_gaussian(vac).c_squared - 1.0) < 1e-14
    r = 0.6
    sq = gaussian_covariance(StateSpec("squeezed_vacuum", {"r": r}))
    assert abs(qcs_gaussian(sq).c_squared - np.cosh(2 * r)) < 1e-12
    mean_n = 2.0
    th = gaussian_covariance(StateSpec("thermal", {"mean_n": mean_n}))
    assert abs(qcs_gaussian(th).c_squared - 1.0 / (1 + 2 * mean_n)) < 1e-12
    assert abs(purity_gaussian(th) - 1.0 / (1 + 2 * mean_n)) < 1e-12


def test_gaussian_purity_far_from_vacuum_scale():
    """det γ = 2.5e599 overflows; its logarithm keeps the purity 1e-300."""
    gamma = CovarianceMatrix(1e300 * np.eye(2) / 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        purity = purity_gaussian(gamma)
        estimate = qcs_gaussian(gamma)
        overlap = overlap_gaussian(gamma, gamma)
    assert abs(purity / 1e-300 - 1.0) < 1e-12
    assert estimate.denominator == purity
    assert abs(estimate.c_squared / 1e-300 - 1.0) < 1e-12
    assert abs(overlap / 1e-300 - 1.0) < 1e-12


def test_gaussian_overlap():
    mean_n = 1.0
    th = gaussian_covariance(StateSpec("thermal", {"mean_n": mean_n}))
    assert abs(overlap_gaussian(th, th) - 1.0 / (1 + 2 * mean_n)) < 1e-12
    a = gaussian_covariance(StateSpec("coherent", {"alpha": 0.4}))
    b = gaussian_covariance(StateSpec("coherent", {"alpha": -0.2 + 0.3j}))
    expected = np.exp(-abs(0.4 - (-0.2 + 0.3j)) ** 2)
    assert abs(overlap_gaussian(a, b) - expected) < 1e-12


def test_gaussian_route_matches_direct():
    r = 0.5
    sq = squeezed_vacuum(r, 44)
    cov = gaussian_covariance(StateSpec("squeezed_vacuum", {"r": r}))
    assert abs(qcs_gaussian(cov).c_squared - qcs_direct(sq).c_squared) < 1e-7
