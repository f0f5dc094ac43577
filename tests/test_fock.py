import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_lowering_commutators
from qcslab import (
    DensityOperator,
    ValidationError,
    coherent,
    fock,
    purity_direct,
    tensor,
    thermal,
)
from qcslab.fock import LOG_TINY, displacement_operator, lowering_commutators, scaled_laguerre


def effective_support(rho, tail_tol=1e-12):
    """Smallest s such that the first mode's photon-number tail mass above
    s is <= tail_tol."""
    probs = rho.number_marginal()
    tail = np.cumsum(probs[::-1])[::-1]
    above = np.concatenate([tail[1:], [0.0]])
    ok = np.nonzero(above <= tail_tol)[0]
    return int(ok[0]) if ok.size else len(probs) - 1


def test_density_operator_validation():
    rho = fock(2, 6)
    rho.validate()
    assert rho.trace() == 1.0
    assert rho.n_modes == 1
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0  # not Hermitian
    with pytest.raises(ValidationError):
        DensityOperator.from_matrix(bad)


@pytest.mark.parametrize("matrix", [np.full((2, 2), np.nan), np.diag([1.0, np.inf]),
                                    np.diag([1.0, complex(0.0, np.nan)])])
def test_non_finite_matrix_is_a_validation_error(matrix):
    # a NaN drift or trace fails no `>` test, so a state accepted with one
    # would give qcs_direct a nan C²
    with pytest.raises(ValidationError, match="finite"):
        DensityOperator.from_matrix(matrix)


def test_number_marginal_and_support():
    rho = thermal(0.5, 30)
    marg = rho.number_marginal()
    assert abs(marg[0] - 0.5) < 1e-12
    assert abs(marg[3] - 0.5 * 0.5 ** 3) < 1e-12
    assert effective_support(rho, 1e-6) < 30
    assert effective_support(fock(4, 10)) == 4


def test_tensor_and_partial_trace_roundtrip():
    a = coherent(0.4, 6)
    b = thermal(0.3, 6, deficit_tol=1e-3)
    joint = tensor(a, b)
    assert joint.dims == (6, 6)
    t = joint.matrix.reshape(6, 6, 6, 6)
    # tracing out a truncated factor scales by its (slightly deficient) trace
    assert np.allclose(np.einsum("ijkj->ik", t), a.matrix * b.trace(), atol=1e-12)
    assert np.allclose(np.einsum("ijil->jl", t), b.matrix * a.trace(), atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(dims=st.lists(st.integers(2, 4), min_size=2, max_size=3), rank=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_number_marginal_of_entangled_states(dims, rank, seed):
    # random vectors on the joint space are entangled across every cut
    rng = np.random.default_rng(seed)
    size = int(np.prod(dims))
    vecs = rng.normal(size=(rank, size)) + 1j * rng.normal(size=(rank, size))
    weights = rng.dirichlet(np.ones(rank))
    mat = sum(w * np.outer(v, v.conj()) / np.vdot(v, v).real for w, v in zip(weights, vecs))
    rest = "cdef"[:len(dims) - 1]
    reduced = np.einsum(f"a{rest}b{rest}->ab", mat.reshape(tuple(dims) * 2))
    marginal = DensityOperator(mat, tuple(dims)).number_marginal()
    assert np.allclose(marginal, np.diagonal(reduced).real, rtol=0, atol=1e-14)


@pytest.mark.parametrize("first, second", [
    (thermal(0.5, 30), coherent(0.8, 12)),
    (fock(4, 10), thermal(0.3, 6, deficit_tol=1e-3)),
    (coherent(1.5, 24), fock(2, 3)),
])
def test_effective_support_of_product_state_is_first_factors(first, second):
    joint = tensor(first, second)
    for tail_tol in (1e-12, 1e-6):
        assert effective_support(joint, tail_tol) == effective_support(first, tail_tol)


@settings(max_examples=60, deadline=None)
@given(dims=st.lists(st.integers(2, 8), min_size=1, max_size=3), rank=st.integers(1, 3),
       top=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_lowering_commutators_match_dense_products(dims, rank, top, seed):
    rng = np.random.default_rng(seed)
    size = int(np.prod(dims))
    vecs = rng.normal(size=(rank, size)) + 1j * rng.normal(size=(rank, size))
    if top:  # weight on each mode's top level, which only the padding keeps exact
        on_top = np.zeros(tuple(dims), dtype=bool)
        for k, d in enumerate(dims):
            on_top[(slice(None),) * k + (d - 1,)] = True
        vecs[:, on_top.ravel()] *= 10.0
    weights = rng.dirichlet(np.ones(rank))
    mat = sum(w * np.outer(v, v.conj()) / np.vdot(v, v).real for w, v in zip(weights, vecs))
    rho = DensityOperator(mat, tuple(dims))
    fast, dense = lowering_commutators(rho), dense_lowering_commutators(rho)
    assert len(fast) == len(dims)
    for c, oracle in zip(fast, dense):
        assert c.shape == oracle.shape
        assert np.abs(c - oracle).max() <= 1e-14


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


@pytest.mark.parametrize("x, carried", [(1410.0, []), (1417.0, [0]), (1420.0, [0]),
                                        (1430.0, [0, 1])])
def test_scaled_laguerre_where_some_starts_carry(x, carried):
    # G_{0,d}(x) underflows in the bands listed, which start with their binary
    # exponent carried; the other bands start at G_{0,d} itself, in one call
    bands = np.arange(8)
    log_start = 0.5 * (bands * math.log(x) - [math.lgamma(d + 1.0) for d in bands]) - 0.5 * x
    assert list(np.flatnonzero(log_start < LOG_TINY)) == carried
    g = np.array(list(scaled_laguerre(x, bands, 1500)))
    for m in (0, 1, 2, 5, 50, 300, 700, 1000, 1499):
        for d in bands:
            ref = laguerre_element(m, int(d), x)
            assert abs(g[m, d] - ref) <= 1e-12 * abs(ref), (m, d)


def test_scaled_laguerre_rounding_over_1024_levels():
    # the recurrence nears a double root at small x, so rounding builds up over
    # the steps: about 1.5e-11 at m = 1,023 for x = 1e-4, and 1.5e-15 at x = 13
    bands = [0, 1, 5]
    levels = list(range(0, 1024, 11)) + [1023]
    for x, tol in ((1e-4, 1e-10), (13.0, 1e-14)):
        g = np.array(list(scaled_laguerre(x, bands, 1024)))
        for j, d in enumerate(bands):
            for m in levels:
                assert abs(g[m, j] - float(laguerre_element(m, d, x))) <= tol, (x, m, d)


def test_displacement_elements_past_the_underflow_of_their_start():
    # ⟨m|D(40)|n⟩ for m < n lies on band n − m, whose start underflows for
    # |β|² = 1600; β is real, so the element is (−1)^{n−m} G_{m,n−m}
    d = displacement_operator(40.0, 1201, 1201)
    for m, n in [(1000, 1200), (5, 1200), (1200, 1000), (600, 600)]:
        lo, hi = min(m, n), max(m, n)
        ref = laguerre_element(lo, hi - lo, 1600) * (-1) ** ((n - m) * (n > m))
        assert d[m, n].imag == 0.0
        assert abs(d[m, n].real - ref) <= 1e-12 * abs(ref)
