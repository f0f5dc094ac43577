"""Wigner-function evaluation on grids: the gradient QCS route and overlaps.

The Wigner function is evaluated from the Fock-basis displaced-parity kernel
W(α) = (1/π) Tr[ρ D(2α) (-1)^n̂] with the exact displacement matrix elements
of ``fock.scaled_laguerre`` (the one recurrence that also builds D(β) for
``states.displace``), never by numerical Fourier transform. The origin value
is computed analytically from the parity trace, the gradient as the Wigner
function of the commutators with the quadratures, integrated at a trapezoid
spacing derived from the cutoff (``quadrature_spacing``). The origin-Laplacian route needs only the
difference-mode p_n, so it lives with the two-copy route in ``estimators``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, MemoryGuardError, ValidationError
from .estimators import QcsEstimate
from .fock import DensityOperator, pad_fock_level, quadratures, scaled_laguerre
from .interferometer import MEMORY_GUARD_DIM

DEFAULT_SPACING = 0.04
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

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,p,W\n")
            for i, x in enumerate(self.x_axis):
                for j, p in enumerate(self.p_axis):
                    fh.write(f"{float(x)!r},{float(p)!r},{float(self.values[i, j])!r}\n")


def _second_moments(rho: DensityOperator) -> tuple[float, float, float, float]:
    """Means and standard deviations of x and p for grid sizing."""
    x, p = quadratures(rho.dim)
    mx = float(np.trace(rho.matrix @ x).real)
    mp = float(np.trace(rho.matrix @ p).real)
    vx = float(np.trace(rho.matrix @ x @ x).real) - mx ** 2
    vp = float(np.trace(rho.matrix @ p @ p).real) - mp ** 2
    return mx, mp, math.sqrt(max(vx, 0.5)), math.sqrt(max(vp, 0.5))


def default_axes(rho: DensityOperator,
                 spacing: float = DEFAULT_SPACING) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric uniform axes wide enough that the state's phase-space tail
    (mean offset + EXTENT_SIGMAS standard deviations, padded) is negligible."""
    mx, mp, sx, sp = _second_moments(rho)
    half = EXTENT_PADDING * (max(abs(mx), abs(mp)) + EXTENT_SIGMAS * max(sx, sp) + 1.0)
    n_half = int(np.ceil(half / spacing))
    axis = spacing * np.arange(-n_half, n_half + 1)
    return axis, axis.copy()


def wigner_eval(rho: DensityOperator, x_axis: np.ndarray | None = None,
                p_axis: np.ndarray | None = None, *,
                spacing: float = DEFAULT_SPACING,
                norm_tol: float | None = 1e-6) -> WignerGrid:
    """Evaluate W on a grid from the Fock kernel; checks ∫W = Tr ρ unless
    norm_tol is None. Refuses, before allocating it, a grid of more than
    MEMORY_GUARD_DIM² points."""
    if rho.n_modes != 1:
        raise ValidationError("wigner_eval expects a single-mode state")
    if x_axis is None or p_axis is None:
        x_axis, p_axis = default_axes(rho, spacing)
    x_axis = np.asarray(x_axis, dtype=float)
    p_axis = np.asarray(p_axis, dtype=float)
    if x_axis.size * p_axis.size > MEMORY_GUARD_DIM ** 2:
        raise MemoryGuardError(
            f"Wigner grid of {x_axis.size} x {p_axis.size} points exceeds memory guard "
            f"{MEMORY_GUARD_DIM}^2")
    values = _wigner_values(rho.matrix, x_axis, p_axis)
    grid = WignerGrid(values=values, x_axis=x_axis, p_axis=p_axis)
    if norm_tol is not None:
        total = grid.integrate()
        if abs(total - rho.trace()) > norm_tol:
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


def _axis_symmetric(axis):
    return len(axis) % 2 == 1 and np.allclose(axis, -axis[::-1], atol=1e-12)


def _wigner_values(mat: np.ndarray, x_axis: np.ndarray, p_axis: np.ndarray) -> np.ndarray:
    """Displaced-parity kernel, accumulated per co-diagonal of ρ with a scaled
    Laguerre recurrence (the Gaussian envelope is kept inside the recurrence).

    The radial factor G_{m,d} depends on |β|² only, so on origin-symmetric
    axes the recurrence runs on one quadrant and the full grid is assembled
    from its real/imaginary parts (β maps to ±β, ±β̄ under axis reflections).
    """
    dim = mat.shape[0]
    symmetric = _axis_symmetric(x_axis) and _axis_symmetric(p_axis)
    if symmetric:
        xq = x_axis[len(x_axis) // 2:][:, None]
        pq = p_axis[len(p_axis) // 2:][None, :]
    else:
        xq = x_axis[:, None]
        pq = p_axis[None, :]
    beta = np.sqrt(2.0) * (xq + 1j * pq)  # D(2α) argument with α = (x+ip)/√2
    babs2 = np.abs(beta) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        phase = np.where(babs2 > 0, beta / np.sqrt(babs2), 0.0)
    signs = (-1.0) ** np.arange(dim)
    # per-quadrant accumulators over (sign of x, sign of p); without symmetry
    # q_pp covers the whole grid and the others stay unused
    q_pp = np.zeros(babs2.shape)
    q_pm = np.zeros(babs2.shape)
    q_mp = np.zeros(babs2.shape)
    q_mm = np.zeros(babs2.shape)
    ph_pow = np.ones_like(phase)
    for d in range(dim):
        if d > 0:
            ph_pow = ph_pow * phase
        band = np.diagonal(mat, offset=d)  # ρ_{m, m+d}
        acc = _band_accumulator(band * signs[:dim - d], d, babs2)
        if acc is None:
            continue
        if d == 0:
            q_pp += acc.real
            if symmetric:
                q_pm += acc.real
                q_mp += acc.real
                q_mm += acc.real
            continue
        # t(x,p) = 2 Re(acc · phase^d); reflecting p conjugates phase^d and
        # reflecting x additionally multiplies it by (-1)^d
        u = 2.0 * (acc.real * ph_pow.real)
        v = 2.0 * (acc.imag * ph_pow.imag)
        q_pp += u - v
        if symmetric:
            s = signs[d]
            q_pm += u + v
            q_mp += s * (u + v)
            q_mm += s * (u - v)
    if not symmetric:
        return q_pp / np.pi
    ix = np.abs(np.arange(len(x_axis)) - len(x_axis) // 2)
    jp = np.abs(np.arange(len(p_axis)) - len(p_axis) // 2)
    neg_x = np.arange(len(x_axis)) < len(x_axis) // 2
    neg_p = np.arange(len(p_axis)) < len(p_axis) // 2
    w = np.empty((len(x_axis), len(p_axis)))
    w[np.ix_(~neg_x, ~neg_p)] = q_pp[np.ix_(ix[~neg_x], jp[~neg_p])]
    w[np.ix_(~neg_x, neg_p)] = q_pm[np.ix_(ix[~neg_x], jp[neg_p])]
    w[np.ix_(neg_x, ~neg_p)] = q_mp[np.ix_(ix[neg_x], jp[~neg_p])]
    w[np.ix_(neg_x, neg_p)] = q_mm[np.ix_(ix[neg_x], jp[neg_p])]
    return w / np.pi


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
    """Tr(ρ_a ρ_b) as 2π ∫ W_a W_b on a shared grid covering both states."""
    spacing = quadrature_spacing(max(rho_a.dim, rho_b.dim))
    ax_a, _ = default_axes(rho_a, spacing)
    ax_b, _ = default_axes(rho_b, spacing)
    axis = ax_a if len(ax_a) >= len(ax_b) else ax_b
    ga = wigner_eval(rho_a, axis, axis, norm_tol=1e-5)
    gb = wigner_eval(rho_b, axis, axis, norm_tol=1e-5)
    return 2.0 * np.pi * ga.integrate(ga.values * gb.values)


def qcs_wigner_gradient(rho: DensityOperator) -> QcsEstimate:
    """Gradient-norm route C² = ‖∇W‖² / (2‖W‖²) from exact derivatives: the
    Moyal bracket of a linear operator is exact, so ∂ₓW_ρ = W_{i[p̂,ρ]} and
    ∂ₚW_ρ = W_{−i[x̂,ρ]}, with the (traceless) commutators formed one Fock
    level above the cutoff. Numerator and denominator match the direct route."""
    rho = pad_fock_level(rho)
    axis, _ = default_axes(rho, quadrature_spacing(rho.dim))
    grid = wigner_eval(rho, axis, axis, norm_tol=1e-5)
    grad_sq = 0.0
    for r in quadratures(rho.dim):  # i[x̂,ρ] gives −∂ₚW, the same square
        comm = DensityOperator(1j * (r @ rho.matrix - rho.matrix @ r), rho.dims)
        deriv = wigner_eval(comm, axis, axis, norm_tol=1e-5)
        grad_sq += deriv.integrate(deriv.values ** 2)
    numerator = np.pi * grad_sq
    denominator = 2.0 * np.pi * grid.integrate(grid.values ** 2)
    return QcsEstimate(c_squared=numerator / denominator, method="wigner_gradient",
                       numerator=numerator, denominator=denominator)
