import mpmath
import numpy as np
import pytest

from qcslab import (
    DensityOperator,
    ValidationError,
    annihilation,
    coherent,
    creation,
    fock,
    number_operator,
    parity_operator,
    partial_trace,
    purity_direct,
    quadratures,
    tensor,
    thermal,
)
from qcslab.fock import displacement_operator, scaled_laguerre


def test_ladder_matrix_elements():
    a = annihilation(5)
    assert a[0, 1] == 1.0
    assert abs(a[2, 3] - np.sqrt(3)) < 1e-12
    assert np.allclose(creation(5), a.conj().T)
    assert np.allclose(creation(5) @ a, number_operator(5))


def test_quadrature_commutator_on_untruncated_levels():
    dim = 10
    x, p = quadratures(dim)
    comm = x @ p - p @ x
    # truncation corrupts only the top level
    assert np.allclose(comm[: dim - 1, : dim - 1], 1j * np.eye(dim - 1))


def test_quadrature_sum_of_squares_is_one_plus_two_n():
    dim = 10
    x, p = quadratures(dim)
    expected = np.eye(dim) + 2.0 * number_operator(dim)
    assert np.allclose((x @ x + p @ p)[: dim - 1, : dim - 1],
                       expected[: dim - 1, : dim - 1])


def test_parity_diagonal():
    assert np.allclose(np.diag(parity_operator(4)), [1, -1, 1, -1])


def test_density_operator_validation():
    rho = fock(2, 6)
    rho.validate()
    assert rho.trace() == 1.0
    assert rho.n_modes == 1
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValidationError):
        DensityOperator.from_matrix(bad)


def test_number_marginal_and_support():
    rho = thermal(0.5, 30)
    marg = rho.number_marginal()
    assert abs(marg[0] - 0.5) < 1e-12
    assert abs(marg[3] - 0.5 * 0.5 ** 3) < 1e-12
    assert rho.effective_support(1e-6) < 30
    assert fock(4, 10).effective_support() == 4


def test_tensor_and_partial_trace_roundtrip():
    a = coherent(0.4, 6)
    b = thermal(0.3, 6, deficit_tol=1e-3)
    joint = tensor(a, b)
    assert joint.dims == (6, 6)
    back_a = partial_trace(joint, keep=0)
    back_b = partial_trace(joint, keep=1)
    # tracing out a truncated factor scales by its (slightly deficient) trace
    assert np.allclose(back_a.matrix, a.matrix * b.trace(), atol=1e-12)
    assert np.allclose(back_b.matrix, b.matrix * a.trace(), atol=1e-12)


def test_partial_trace_keep_order():
    rng = np.random.default_rng(3)
    mats = []
    for dim in (2, 3, 4):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = m @ m.conj().T
        mats.append(m / np.trace(m))
    rho = tensor(tensor(DensityOperator(mats[0], (2,)), DensityOperator(mats[1], (3,))),
                 DensityOperator(mats[2], (4,)))
    kept = partial_trace(rho, keep=[2, 0])
    assert kept.dims == (4, 2)
    expected = np.kron(mats[2], mats[0])
    assert np.allclose(kept.matrix, expected, atol=1e-12)


def test_purity_direct():
    assert abs(purity_direct(fock(1, 4)) - 1.0) < 1e-14
    assert abs(purity_direct(thermal(0.5, 40)) - 1.0 / 3.0) < 1e-10


def test_swap_expectation_is_purity():
    # the two-mode swap |m, n> -> |n, m> as a permutation of the product basis
    swap = np.eye(64).reshape(8, 8, 8, 8).transpose(1, 0, 2, 3).reshape(64, 64)
    for rho in (fock(1, 8), thermal(0.4, 8, deficit_tol=1e-3), coherent(0.5, 8)):
        joint = tensor(rho, rho)
        value = float(np.trace(joint.matrix @ swap).real)
        assert abs(value - purity_direct(rho)) < 1e-6


def test_displacement_is_unitary():
    # columns n < 10 of D(β) carry no mass past 30 levels, so they are orthonormal
    d = displacement_operator(0.3 - 0.2j, 30, 10)
    assert np.max(np.abs(d.conj().T @ d - np.eye(10))) < 1e-13
    # the exact elements are not a unitary on the truncated space: D|29⟩ leaks
    # past the cutoff
    full = displacement_operator(0.3 - 0.2j, 30, 30)
    assert np.linalg.norm(full[:, -1]) < 1 - 1e-3


def test_displacement_moves_vacuum_to_coherent():
    alpha = 0.5 + 0.3j
    moved = displacement_operator(alpha, 30, 1)[:, 0]
    expected = coherent(alpha, 30)
    assert np.max(np.abs(np.outer(moved, moved.conj()) - expected.matrix)) < 1e-15


def laguerre_element(m, d, x):
    """G_{m,d}(x) = √(m!/(m+d)!) x^{d/2} e^{−x/2} L_m^{(d)}(x) at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        return (mpmath.sqrt(mpmath.factorial(m) / mpmath.factorial(m + d))
                * x ** (mpmath.mpf(d) / 2) * mpmath.exp(-x / 2) * mpmath.laguerre(m, d, x))


def test_scaled_laguerre_past_the_underflow_of_its_start():
    # e^{−800} underflows, yet G_{m,d}(1600) is O(1e-2) near m = x and tiny
    # but representable below it
    bands = [0, 1, 2, 7]
    g = np.array(list(scaled_laguerre(1600.0, bands, 1600)))
    for m, d in [(1599, 0), (1599, 1), (1500, 2), (1200, 0), (1000, 7), (300, 1), (100, 0)]:
        ref = laguerre_element(m, d, 1600)
        assert abs(g[m, bands.index(d)] - ref) <= 1e-12 * abs(ref)


def test_displacement_elements_past_the_underflow_of_their_start():
    # ⟨m|D(40)|n⟩ for m < n lies on band n − m, whose start underflows for
    # |β|² = 1600; β is real, so the element is (−1)^{n−m} G_{m,n−m}
    d = displacement_operator(40.0, 1201, 1201)
    for m, n in [(1000, 1200), (5, 1200), (1200, 1000), (600, 600)]:
        lo, hi = min(m, n), max(m, n)
        ref = laguerre_element(lo, hi - lo, 1600) * (-1) ** ((n - m) * (n > m))
        assert d[m, n].imag == 0.0
        assert abs(d[m, n].real - ref) <= 1e-12 * abs(ref)
