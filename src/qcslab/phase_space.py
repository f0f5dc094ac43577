"""Wigner-function evaluation on grids: the gradient QCS route and overlaps.

The Wigner function is evaluated from the Fock-basis displaced-parity kernel
W(α) = (1/π) Tr[ρ D(2α) (-1)^n̂] with the exact displacement matrix elements
of ``fock.scaled_laguerre`` (the one recurrence that also builds D(β) for
``states.displace``) on any finite x and p axes, never by numerical Fourier
transform. The origin value is computed analytically from the parity trace,
the gradient as the Wigner function of the commutators with x̂ and p̂ (both
read from [ρ, a], ``fock.lowering_commutators``), integrated at a
trapezoid spacing derived from the cutoff (``quadrature_spacing``). The
origin-Laplacian route needs only the difference-mode p_n, so it lives with
the two-copy route in ``estimators``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, MemoryGuardError, ValidationError
from .estimators import QcsEstimate
from .fock import DensityOperator, lowering_commutators, pad_fock_level, scaled_laguerre
from .interferometer import MEMORY_GUARD_DIM

EXTENT_PADDING = 1.2
# grid half-width covers mean offset plus this many standard deviations,
# keeping the 2-D Gaussian tail mass below ~1e-8
EXTENT_SIGMAS = 6.1


@dataclass(frozen=True)
class WignerGrid:
    """W(x, p) sampled on a uniform grid; values[i, j] = W(x_axis[i], p_axis[j])."""

    values: np.ndarray
    x_axis: np.ndarray
    p_axis: np.ndarray

    def integrate(self, integrand: np.ndarray | None = None) -> float:
        """Trapezoidal ∫ f dx dp over the grid (f defaults to W)."""
        f = self.values if integrand is None else integrand
        return float(np.trapezoid(np.trapezoid(f, self.p_axis, axis=1), self.x_axis))


def _second_moments(rho: DensityOperator) -> tuple[float, float, float, float]:
    """Means and standard deviations of x and p for grid sizing, from ρ's
    diagonals at offsets 0, 1 and 2, the only ones the truncated x, p, x², p²
    reach, with no dim × dim product; x² and p² end in (dim − 1)/2, as x @ x does."""
    n, mat = np.arange(rho.dim), rho.matrix
    up, down = np.diagonal(mat, 1), np.diagonal(mat, -1)
    step1 = np.sqrt(n[1:] / 2.0)  # x_{n−1,n} = i p_{n−1,n} = √(n/2)
    step2 = np.sqrt(n[1:-1] * n[2:]) / 2.0  # (x²)_{n−2,n} = −(p²)_{n−2,n}
    level = np.append(n[:-1] + 0.5, n[-1] / 2.0)  # diagonal of x² and of p²
    mx = float(np.dot(step1, (up + down).real))
    mp = float(np.dot(step1, (down - up).imag))
    diag = float(np.dot(level, np.diagonal(mat).real))
    off = float(np.dot(step2, (np.diagonal(mat, 2) + np.diagonal(mat, -2)).real))
    return (mx, mp, math.sqrt(max(diag + off - mx ** 2, 0.5)),
            math.sqrt(max(diag - off - mp ** 2, 0.5)))


def default_axes(rho: DensityOperator, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric uniform x and p axes, each wide enough that the state's
    phase-space tail along it (mean offset + EXTENT_SIGMAS standard deviations
    of that quadrature, padded) is negligible. Both are odd-length and
    origin-symmetric, so ``_wigner_values`` runs its recurrence on one quadrant."""
    def axis(mean, sigma):
        n_half = int(np.ceil(EXTENT_PADDING * (abs(mean) + EXTENT_SIGMAS * sigma + 1.0)
                             / spacing))
        return spacing * np.arange(-n_half, n_half + 1)

    mx, mp, sx, sp = _second_moments(rho)
    return axis(mx, sx), axis(mp, sp)


def wigner_eval(rho: DensityOperator, x_axis: np.ndarray, p_axis: np.ndarray, *,
                norm_tol: float) -> WignerGrid:
    """Evaluate W on a grid from the Fock kernel and check ∫W = Tr ρ to within
    norm_tol. Refuses axes that are not 1-D and finite and, before allocating
    it, a grid of more than MEMORY_GUARD_DIM² points."""
    if rho.n_modes != 1:
        raise ValidationError("wigner_eval expects a single-mode state")
    x_axis = np.asarray(x_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    if not all(axis.ndim == 1 and np.isfinite(axis).all() for axis in (x_axis, p_axis)):
        raise ValidationError("Wigner grid axes must be 1-D arrays of finite numbers")
    if x_axis.size * p_axis.size > MEMORY_GUARD_DIM ** 2:
        raise MemoryGuardError(
            f"Wigner grid of {x_axis.size} x {p_axis.size} points exceeds memory guard "
            f"{MEMORY_GUARD_DIM}^2")
    values = _wigner_values(rho.matrix, x_axis, p_axis)
    grid = WignerGrid(values=values, x_axis=x_axis, p_axis=p_axis)
    total = grid.integrate()
    if not abs(total - rho.trace()) <= norm_tol:  # a NaN integral fails too
        raise GridError(
            f"Wigner normalization check failed: integral {total:.8f} vs trace "
            f"{rho.trace():.8f}; grid extent or spacing insufficient")
    return grid


BAND_FLOOR = 1e-15  # co-diagonals below this magnitude cannot move W above roundoff


def _band_accumulator(coeff, d, babs2):
    """Σ_m coeff[m] G_{m,d}(|β|²) for one co-diagonal, as a function of |β|²
    only (the angular factor phase^d is applied by the caller)."""
    nz = np.nonzero(np.abs(coeff) > BAND_FLOOR)[0]
    if len(nz) == 0:
        return None
    last = int(nz[-1])
    acc = np.zeros(babs2.shape, dtype=complex)
    for c, g in zip(coeff[:last + 1], scaled_laguerre(babs2, d, last + 1)):
        if c != 0:
            acc += c * g
    return acc


def _wigner_values(mat: np.ndarray, x_axis: np.ndarray, p_axis: np.ndarray) -> np.ndarray:
    """Displaced-parity kernel, accumulated per co-diagonal of ρ with a scaled
    Laguerre recurrence (the Gaussian envelope is kept inside the recurrence).

    The radial factor G_{m,d} depends on |β|² only, and reflecting x or p maps
    β to −β̄ or β̄, so the recurrence runs once on the distinct |x| × |p| values
    with one accumulator per sign pattern, and each grid point reads its own.
    """
    dim = mat.shape[0]
    (xa, xi), (pa, pj) = (np.unique(np.abs(axis), return_inverse=True)
                          for axis in (x_axis, p_axis))
    beta = np.sqrt(2.0) * (xa[:, None] + 1j * pa[None, :])  # D(2α), α = (x+ip)/√2
    babs2 = np.abs(beta) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = np.where(babs2 > 0, beta / np.sqrt(babs2), 0.0)
    signs = (-1.0) ** np.arange(dim)
    q = np.zeros((2, 2) + babs2.shape)  # q[x < 0, p < 0]
    ph_pow = np.ones_like(phase)
    for d in range(dim):
        if d > 0:
            ph_pow = ph_pow * phase
        band = np.diagonal(mat, offset=d)  # ρ_{m, m+d}
        acc = _band_accumulator(band * signs[:dim - d], d, babs2)
        if acc is None:
            continue
        if d == 0:
            q += acc.real
            continue
        # t(x,p) = 2 Re(acc · phase^d); reflecting p conjugates phase^d and
        # reflecting x additionally multiplies it by (-1)^d
        u = 2.0 * (acc.real * ph_pow.real)
        v = 2.0 * (acc.imag * ph_pow.imag)
        q[0, 0] += u - v
        q[0, 1] += u + v
        q[1, 0] += signs[d] * (u + v)
        q[1, 1] += signs[d] * (u - v)
    q /= np.pi
    sx, sp = (np.signbit(axis).astype(int) for axis in (x_axis, p_axis))
    return q[sx[:, None], sp[None, :], xi[:, None], pj[None, :]]


def wigner_origin(rho: DensityOperator) -> float:
    """W(0,0) = Tr(ρ (-1)^n̂)/π, evaluated analytically (parity identity)."""
    signs = (-1.0) ** np.arange(rho.dim)
    return math.fsum(signs * np.real(np.diag(rho.matrix))) / np.pi


def quadrature_spacing(dim: int) -> float:
    """Trapezoid spacing for products of Wigner functions of operators on
    ``dim`` Fock levels: Gaussians times polynomials of degree growing with dim,
    on which the rule is spectrally exact once h·√(2·dim + 1) is small enough
    (at 1.2 the gradient route is off by 7e-7; a fixed h = 0.2, by 4.4)."""
    return 0.8 / math.sqrt(2 * dim + 1)


def overlap_wigner(rho_a: DensityOperator, rho_b: DensityOperator) -> float:
    """Tr(ρ_a ρ_b) as 2π ∫ W_a W_b on a shared grid covering both states: per
    direction, the wider of their default axes."""
    spacing = quadrature_spacing(max(rho_a.dim, rho_b.dim))
    x_axis, p_axis = (max(pair, key=len) for pair in
                      zip(default_axes(rho_a, spacing), default_axes(rho_b, spacing)))
    ga = wigner_eval(rho_a, x_axis, p_axis, norm_tol=1e-5)
    gb = wigner_eval(rho_b, x_axis, p_axis, norm_tol=1e-5)
    return 2.0 * np.pi * ga.integrate(ga.values * gb.values)


def qcs_wigner_gradient(rho: DensityOperator) -> QcsEstimate:
    """Gradient-norm route C² = ‖∇W‖² / (2‖W‖²) from exact derivatives: the
    Moyal bracket of a linear operator is exact, so ∂ₓW_ρ = W_{i[p̂,ρ]} and
    ∂ₚW_ρ = W_{−i[x̂,ρ]}, with the (traceless) commutators formed one Fock
    level above the cutoff from C = [ρ, a]: i[x̂,ρ] = −i(C − C†)/√2 and
    i[p̂,ρ] = −(C + C†)/√2. Numerator and denominator match the direct route."""
    padded = pad_fock_level(rho)
    x_axis, p_axis = default_axes(padded, quadrature_spacing(padded.dim))
    grid = wigner_eval(padded, x_axis, p_axis, norm_tol=1e-5)  # refuses a multimode ρ
    (c,) = lowering_commutators(rho)
    grad_sq = 0.0
    for comm in (-1j * (c - c.conj().T), -(c + c.conj().T)):  # −∂ₚW and ∂ₓW
        deriv = wigner_eval(DensityOperator(comm / np.sqrt(2.0), padded.dims),
                            x_axis, p_axis, norm_tol=1e-5)
        grad_sq += deriv.integrate(deriv.values ** 2)
    numerator = np.pi * grad_sq
    denominator = 2.0 * np.pi * grid.integrate(grid.values ** 2)
    return QcsEstimate(c_squared=numerator / denominator, method="wigner_gradient",
                       numerator=numerator, denominator=denominator)
