import tracemalloc

import mpmath
import numpy as np
import pytest

from qcslab import (
    GridError,
    MemoryGuardError,
    WignerGrid,
    coherent,
    fock,
    overlap_wigner,
    photon_distribution_phase_invariant,
    purity_direct,
    qcs_direct,
    qcs_wigner_gradient,
    qcs_wigner_laplacian,
    rho_even_m,
    squeezed_vacuum,
    thermal,
    thermal_photon_distribution,
    two_copy_output,
    wigner_eval,
    wigner_origin,
)
from scipy.linalg import expm

from qcslab.fock import annihilation, parity_operator
from qcslab.interferometer import MEMORY_GUARD_DIM
from qcslab.phase_space import _wigner_values, default_axes


def wigner_point_oracle(mat, x, p, pad_dim=80):
    """Slow reference: W = Tr[rho D(2 alpha) parity]/pi with the displacement
    built by scipy's matrix exponential in a padded space (truncation-safe),
    sharing no code with the kernel's Laguerre recurrence."""
    padded = np.zeros((pad_dim, pad_dim), dtype=complex)
    padded[: mat.shape[0], : mat.shape[0]] = mat
    beta = np.sqrt(2.0) * (x + 1j * p)
    a = annihilation(pad_dim)
    d = expm(beta * a.conj().T - np.conj(beta) * a)
    return float(np.real(np.trace(padded @ d @ parity_operator(pad_dim))) / np.pi)


def test_vacuum_wigner_is_gaussian():
    grid = wigner_eval(fock(0, 6))
    xx, pp = np.meshgrid(grid.x_axis, grid.p_axis, indexing="ij")
    expected = np.exp(-(xx ** 2 + pp ** 2)) / np.pi
    assert np.max(np.abs(grid.values - expected)) < 1e-12


def test_fock_one_negative_at_origin():
    rho = fock(1, 8)
    assert abs(wigner_origin(rho) - (-1.0 / np.pi)) < 1e-14
    grid = wigner_eval(rho)
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
        grid = wigner_eval(rho)  # raises GridError if the check fails
        assert abs(grid.integrate() - rho.trace()) < 1e-6


def test_purity_identity():
    for rho in (thermal(0.5, 40), squeezed_vacuum(0.5, 36), fock(2, 12)):
        assert abs(overlap_wigner(rho, rho) - purity_direct(rho)) < 1e-6


def test_overlap_coherent_closed_form():
    alpha, beta = 0.7, -0.3 + 0.4j
    value = overlap_wigner(coherent(alpha, 28), coherent(beta, 28))
    assert abs(value - np.exp(-abs(alpha - beta) ** 2)) < 1e-6


def test_difference_mode_wigner_nonnegative_for_identical_inputs():
    rho_d = two_copy_output(coherent(0.8, 28))
    grid = wigner_eval(rho_d)
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
    # a fixed spacing of 0.2 is off by 4.4 and 0.57 here and still normalizes
    assert abs(qcs_wigner_gradient(rho).c_squared - c2) < 1e-9 * c2
    assert abs(qcs_direct(rho).c_squared - c2) < 1e-9 * c2


def test_grid_error_when_extent_too_small():
    axis = np.linspace(-1.0, 1.0, 51)
    with pytest.raises(GridError):
        wigner_eval(thermal(0.5, 30), axis, axis)


def test_grid_io(tmp_path):
    grid = wigner_eval(fock(0, 6))
    csv_path = tmp_path / "w.csv"
    grid.to_csv(csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "x,p,W"


def test_default_axes_cover_displaced_states():
    rho = coherent(2.0, 40)
    axis, _ = default_axes(rho)
    assert axis[-1] > np.sqrt(2) * 2.0 + 4.0  # mean offset plus several sigma


def test_wigner_grid_past_the_memory_guard_is_refused_before_allocating():
    axis = np.linspace(-5.0, 5.0, 5000)
    assert axis.size ** 2 > MEMORY_GUARD_DIM ** 2
    tracemalloc.start()
    try:
        with pytest.raises(MemoryGuardError):
            wigner_eval(fock(0, 2), axis, axis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a float grid of 5,000² points is 200 MB


def test_gradient_route_refuses_a_grid_past_the_memory_guard():
    # the default grid of fock(300) at 302 levels has 7,881² points
    with pytest.raises(MemoryGuardError):
        qcs_wigner_gradient(fock(300, 302))


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
