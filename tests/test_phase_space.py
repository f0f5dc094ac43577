import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import (
    _wigner_values,
    default_axes,
    dense_second_moments,
    quadrature_spacing,
    two_copy_output,
    wigner_eval,
    wigner_origin,
    wigner_point_oracle,
)
from qcslab import (
    GridError,
    MemoryGuardError,
    StateSpec,
    ValidationError,
    build_state,
    coherent,
    fock,
    overlap_kernel,
    photon_distribution_phase_invariant,
    purity_direct,
    qcs_direct,
    qcs_wigner_gradient,
    qcs_wigner_laplacian,
    rho_even_m,
    squeezed_vacuum,
    tensor,
    thermal,
    thermal_photon_distribution,
)
from qcslab import phase_space
from qcslab.fock import DensityOperator
from qcslab.interferometer import MEMORY_GUARD_DIM
from qcslab.phase_space import _position_moments


def wigner_on_default_axes(rho):
    x_axis, p_axis = default_axes(rho, quadrature_spacing(rho.dim))
    return wigner_eval(rho, x_axis, p_axis, norm_tol=1e-6)


def test_vacuum_wigner_is_gaussian():
    grid = wigner_on_default_axes(fock(0, 6))
    xx, pp = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
    expected = np.exp(-(xx ** 2 + pp ** 2)) / np.pi
    assert np.max(np.abs(grid.values - expected)) < 1e-12


def test_fock_one_negative_at_origin():
    rho = fock(1, 8)
    assert abs(wigner_origin(rho) - (-1.0 / np.pi)) < 1e-14
    grid = wigner_on_default_axes(rho)
    i = np.argmin(np.abs(grid.x_axis))
    assert abs(grid.values[i, i] - (-1.0 / np.pi)) < 1e-12


def test_wigner_values_match_displaced_parity_oracle():
    points = [(-2.1, 0.4), (0.0, 0.0), (1.3, -1.7)]
    states = [coherent(0.6 - 0.3j, 24), squeezed_vacuum(0.5, 30), fock(3, 16)]
    for rho in states:
        for x, p in points:
            fast = _wigner_values(rho.matrix, np.array([x]), np.array([p]))[0, 0]
            assert abs(fast - wigner_point_oracle(rho.matrix, x, p)) < 1e-12


def test_normalization_invariant():
    for rho in (coherent(0.7, 28), thermal(0.5, 40), squeezed_vacuum(0.6, 40),
                rho_even_m(3, 16)):
        grid = wigner_on_default_axes(rho)  # raises GridError if the check fails
        assert abs(grid.integrate() - rho.trace()) < 1e-6


def test_purity_identity():
    for rho in (thermal(0.5, 40), squeezed_vacuum(0.5, 36), fock(2, 12)):
        assert abs(overlap_kernel(rho, rho) - purity_direct(rho)) < 1e-6


def test_overlap_coherent_closed_form():
    alpha, beta = 0.7, -0.3 + 0.4j
    value = overlap_kernel(coherent(alpha, 28), coherent(beta, 28))
    assert abs(value - np.exp(-abs(alpha - beta) ** 2)) < 1e-6


def random_state(rng, dim, rank):
    """A random complex single-mode state of the given rank (1 is pure)."""
    vecs = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    weights = rng.dirichlet(np.ones(rank))
    mat = sum(w * np.outer(v, v.conj()) / np.vdot(v, v).real for w, v in zip(weights, vecs))
    return DensityOperator(mat, (dim,))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(2, 40), ranks=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_overlap_kernel_matches_the_elementwise_trace(dim, ranks, seed):
    rng = np.random.default_rng(seed)
    rho_a, rho_b = (random_state(rng, dim, rank) for rank in ranks)
    value = overlap_kernel(rho_a, rho_b)
    assert abs(value - np.vdot(rho_b.matrix, rho_a.matrix).real) <= 1e-12 * (1 + abs(value))
    assert abs(overlap_kernel(rho_b, rho_a) - value) <= 1e-12 * (1 + abs(value))
    purity = purity_direct(rho_a)
    assert abs(overlap_kernel(rho_a, rho_a) - purity) <= 1e-12 * (1 + purity)


def test_overlap_kernel_refuses_a_grid_too_narrow(monkeypatch):
    monkeypatch.setattr(phase_space, "EXTENT_SIGMAS", 1.0)
    with pytest.raises(GridError):
        overlap_kernel(squeezed_vacuum(1.0, 68), thermal(0.5, 62))


def test_overlap_kernel_refuses_a_grid_past_the_memory_guard_in_milliseconds():
    # at 1,100 levels the shared position grid needs 4,741 points per axis, past
    # the guard even with the half-width capped at the top level's turning point
    rho_a, rho_b = fock(0, 2), fock(300, 1100)
    start = time.perf_counter()
    with pytest.raises(MemoryGuardError):
        overlap_kernel(rho_a, rho_b)
    assert time.perf_counter() - start < 0.1


def test_difference_mode_wigner_nonnegative_for_identical_inputs():
    rho_d = two_copy_output(coherent(0.8, 28))
    grid = wigner_on_default_axes(rho_d)
    assert grid.values.min() > -1e-10


def test_parity_identity_for_two_copy_output():
    rho = thermal(0.3, 32)
    rho_d = two_copy_output(rho)
    assert abs(np.pi * wigner_origin(rho_d) - purity_direct(rho)) < 1e-8


def two_copy_pn(rho):
    return photon_distribution_phase_invariant(np.real(np.diag(rho.matrix)))


def test_laplacian_route_examples():
    assert abs(qcs_wigner_laplacian(two_copy_pn(fock(0, 8))).c_squared - 1.0) < 1e-12
    assert abs(qcs_wigner_laplacian(two_copy_pn(rho_even_m(5, 24))).c_squared - 13.0) < 1e-9
    assert abs(qcs_wigner_laplacian(two_copy_pn(thermal(0.5, 62))).c_squared
               - 1.0 / 3.0) < 1e-9


def test_laplacian_origin_analytic():
    # identical thermal inputs leave a thermal difference mode, W_d = e^{-r²/s}/(πs)
    # with s = (1+q)/(1-q) (vacuum at q = 0), so ΔW_d(0) = -4/(πs²) and W_d(0) = 1/(πs)
    for q in (0.0, 0.85):
        s = (1.0 + q) / (1.0 - q)
        laplacian, origin = -4.0 / (np.pi * s ** 2), 1.0 / (np.pi * s)
        est = qcs_wigner_laplacian(thermal_photon_distribution(q, 400))
        assert abs(est.numerator - (-0.25 * np.pi * laplacian)) < 1e-14
        assert abs(est.denominator - np.pi * origin) < 1e-14


def test_gradient_route_examples():
    assert abs(qcs_wigner_gradient(fock(0, 6)).c_squared - 1.0) < 1e-4
    assert abs(qcs_wigner_gradient(fock(1, 10)).c_squared - 3.0) < 1e-3


@pytest.mark.parametrize("rho, c2", [(fock(30, 64), 61.0), (rho_even_m(15, 64), 33.0)])
def test_gradient_route_exact_where_a_fixed_grid_fails(rho, c2):
    # a Wigner grid at a fixed spacing of 0.2 is off by 4.4 and 0.57 here and
    # still normalizes
    assert abs(qcs_wigner_gradient(rho).c_squared - c2) < 1e-9 * c2
    assert abs(qcs_direct(rho).c_squared - c2) < 1e-9 * c2


def test_gradient_route_refuses_a_multimode_state():
    with pytest.raises(ValidationError):
        qcs_wigner_gradient(tensor(fock(1, 3), fock(0, 3)))


def test_grid_error_when_extent_too_small():
    axis = np.linspace(-1.0, 1.0, 51)
    with pytest.raises(GridError):
        wigner_eval(thermal(0.5, 30), axis, axis, norm_tol=1e-6)


def test_wigner_eval_refuses_axes_that_are_not_finite_and_1d():
    rho = fock(1, 6)
    x_axis, p_axis = default_axes(rho, quadrature_spacing(rho.dim))
    nan_x = x_axis.copy()
    nan_x[3] = np.nan
    for axes in ((nan_x, p_axis), (x_axis, np.append(p_axis, np.inf)),
                 (x_axis[None, :], p_axis)):
        with pytest.raises(ValidationError):
            wigner_eval(rho, *axes, norm_tol=1e-6)


def test_nan_integral_fails_the_normalization_check(monkeypatch):
    rho = fock(1, 6)
    x_axis, p_axis = default_axes(rho, quadrature_spacing(rho.dim))
    nan_grid = np.full((len(x_axis), len(p_axis)), np.nan)
    monkeypatch.setattr(oracles, "_wigner_values", lambda *_: nan_grid)
    with pytest.raises(GridError):
        wigner_eval(rho, x_axis, p_axis, norm_tol=1e-6)


@pytest.mark.parametrize("rho", [squeezed_vacuum(0.5, 30), fock(3, 16),
                                 coherent(0.6 - 0.3j, 24)])
def test_asymmetric_window_is_the_block_of_the_full_grid(rho):
    x_axis, p_axis = default_axes(rho, quadrature_spacing(rho.dim))
    full = wigner_eval(rho, x_axis, p_axis, norm_tol=1e-6).values
    mid_x, mid_p = len(x_axis) // 2, len(p_axis) // 2
    windows = [(slice(5, mid_x + 9), slice(mid_p - 3, None)),  # across both origins
               (slice(mid_x + 1, None), slice(None, mid_p)),  # x > 0, p < 0 only
               (slice(None, mid_x - 2), slice(mid_p - 7, mid_p + 1))]
    for xs, ps in windows:
        # a window holds only part of W's mass, so its normalization is not checked
        window = wigner_eval(rho, x_axis[xs], p_axis[ps], norm_tol=np.inf).values
        assert np.array_equal(window, full[xs, ps])


def test_default_axes_cover_displaced_states():
    rho = coherent(2.0, 40)
    x_axis, _ = default_axes(rho, quadrature_spacing(rho.dim))
    assert x_axis[-1] > np.sqrt(2) * 2.0 + 4.0  # mean offset plus several sigma


def test_squeezed_grid_is_sized_per_axis():
    # squeezed r = 1 at its default cutoff: x is the anti-squeezed quadrature, so
    # p needs a shorter axis than x
    rho = build_state(StateSpec("squeezed_vacuum", {"r": 1.0}))
    x_axis, p_axis = default_axes(rho, quadrature_spacing(rho.dim))
    assert len(p_axis) < len(x_axis)
    norm_tol = 1e-5  # overlap_wigner's
    grid = wigner_eval(rho, x_axis, p_axis, norm_tol=norm_tol)
    assert abs(grid.integrate() - rho.trace()) <= norm_tol
    assert abs(qcs_wigner_gradient(rho).c_squared - qcs_direct(rho).c_squared) <= 1e-9


@pytest.mark.parametrize("rho", [squeezed_vacuum(1.0, 68), thermal(0.5, 62)])
def test_gradient_route_refuses_a_grid_too_narrow(rho, monkeypatch):
    monkeypatch.setattr(phase_space, "EXTENT_SIGMAS", 1.0)
    with pytest.raises(GridError):
        qcs_wigner_gradient(rho)


def test_hermite_functions_match_mpmath():
    # past |u| ≈ 37.6 φ_0 underflows while φ_n near its turning point √(2n+1)
    # does not; where the exact value is subnormal or zero, so is ours
    points = np.array([0.0, 5.0, 20.0, 37.0, 38.0, 45.0])
    points = np.concatenate([points, -points[1:]])
    count = 121
    phi = phase_space.hermite_functions(points, count)
    assert phi.shape == (count, points.size)
    with mpmath.workdps(50):
        for j, u in enumerate(points.tolist()):
            for n in range(count):
                exact = float(mpmath.hermite(n, u) * mpmath.exp(-mpmath.mpf(u) ** 2 / 2)
                              / mpmath.sqrt(2 ** n * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi)))
                if abs(exact) >= np.finfo(float).tiny:
                    assert abs(phi[n, j] - exact) <= 1e-12 * abs(exact), (u, n)
                else:
                    assert abs(phi[n, j]) < np.finfo(float).tiny, (u, n)
    assert np.count_nonzero(phi[:, points == 38.0]) > 0  # φ_0(38) alone underflows


def test_wigner_grid_past_the_memory_guard_is_refused_before_allocating():
    axis = np.linspace(-5.0, 5.0, 5000)
    assert axis.size ** 2 > MEMORY_GUARD_DIM ** 2
    tracemalloc.start()
    try:
        with pytest.raises(MemoryGuardError):
            wigner_eval(fock(0, 2), axis, axis, norm_tol=1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a float grid of 5,000² points is 200 MB


def test_wigner_memory_does_not_grow_with_the_levels_past_the_underflow():
    # most of this grid lies past |β|² ≈ 1,417, where scaled_laguerre carries
    # exponents; that path must stay O(points), as the rest of the kernel is,
    # so Fock 40 (41 recurrence steps) peaks within a quarter of the vacuum (one)
    axis = np.linspace(-60.0, 60.0, 601)
    peaks = []
    for n in (0, 40):
        tracemalloc.start()
        try:
            _wigner_values(fock(n, 84).matrix, axis, axis)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_gradient_route_refuses_a_grid_past_the_memory_guard():
    # the position grid of fock(300) at 1,100 levels has 4,741 points per axis,
    # with its half-width capped at the top level's turning point
    with pytest.raises(MemoryGuardError):
        qcs_wigner_gradient(fock(300, 1100))


def test_gradient_route_on_fock_300_at_302_levels():
    # sized by its spread, this grid would need 5,017 points per axis; capped
    # at the turning point of level 301 it needs 1,437
    rho = fock(300, 302)
    assert abs(qcs_wigner_gradient(rho).c_squared - qcs_direct(rho).c_squared) < 1e-12


def test_gradient_route_refuses_a_large_grid_without_dense_products():
    # at 2,408 levels the position grid needs 19,949 points per axis; sizing it
    # from ρ's diagonals at offsets 0-2 costs O(dim), where dense products took
    # seconds
    rho = fock(600, 2408)
    start = time.perf_counter()
    with pytest.raises(MemoryGuardError):
        qcs_wigner_gradient(rho)
    assert time.perf_counter() - start < 1.0


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 24), rank=st.integers(1, 3), top=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_second_moments_match_dense_products(dim, rank, top, seed):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    if top:  # mass on the top level, where x @ x and p @ p are truncated
        vecs[:, -1] *= 10.0
    weights = rng.dirichlet(np.ones(rank))
    mat = sum(w * np.outer(v, v.conj()) / np.vdot(v, v).real for w, v in zip(weights, vecs))
    rho = DensityOperator(mat, (dim,))
    mx, _, sx, _ = dense_second_moments(rho)
    assert np.allclose(_position_moments(rho), (mx, sx), rtol=1e-12, atol=1e-12)


def test_fock_wigner_far_out_matches_closed_form():
    # W_n(α) = (−1)ⁿ e^{−2|α|²} L_n(4|α|²)/π; at |β|² = 4|α|² ≥ 1,458 the
    # Laguerre recurrence starts below the smallest normal double
    n = 10
    axis = np.array([0.0, 20.0, 24.0, 26.0, 27.0])
    w = _wigner_values(fock(n, 25).matrix, axis, axis)
    with mpmath.workdps(40):
        for i in range(1, len(axis)):
            a2 = mpmath.mpf(axis[i]) ** 2 / 2
            ref = (-1) ** n * mpmath.exp(-2 * a2) * mpmath.laguerre(n, 0, 4 * a2) / mpmath.pi
            assert abs(w[i, 0] - ref) <= 1e-12 * abs(ref)
