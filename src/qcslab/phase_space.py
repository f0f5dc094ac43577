"""Wigner-function evaluation on grids, overlaps, and the gradient QCS route.

The Wigner function is evaluated from the Fock-basis displaced-parity kernel
W(α) = (1/π) Tr[ρ D(2α) (-1)^n̂] with the exact displacement matrix elements
of ``fock.scaled_laguerre`` (the one recurrence that also builds D(β) for
``states.displace``) on any finite x and p axes, never by numerical Fourier
transform. The origin value is computed analytically from the parity trace.
The gradient route needs no Wigner grid: by the Plancherel relation it is a
trapezoid sum over the position kernel ⟨u|ρ|v⟩, built from Hermite functions
(``hermite_functions``), and it shares no code with the direct route's
commutators. The origin-Laplacian route needs only the difference-mode p_n, so
it lives with the two-copy route in ``estimators``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError, MemoryGuardError, ValidationError
from .estimators import QcsEstimate
from .fock import DensityOperator, purity_direct, scaled_laguerre
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
    on which the rule is spectrally exact once h·√(2·dim + 1) is small enough."""
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


def hermite_functions(u: np.ndarray, count: int) -> np.ndarray:
    """Rows φ_0 … φ_{count−1} of the Hermite functions
    φ_n(u) = H_n(u) e^{−u²/2} / √(2ⁿ n! √π) at the points u, by the three-term
    recurrence. φ_0 underflows past |u| ≈ 37.6 where later φ_n are O(1), so the
    recurrence runs on mantissas with a binary exponent per point, rescaled at
    every step; the recurrence is linear, so the rescaling is exact."""
    u = np.asarray(u, dtype=float)
    log2_phi0 = (-0.5 * u ** 2 - 0.25 * math.log(math.pi)) / math.log(2.0)
    exponent = np.floor(log2_phi0).astype(int)
    cur, prev = np.exp2(log2_phi0 - exponent), np.zeros_like(u)
    out = np.empty((count, u.size))
    out[0] = np.ldexp(cur, exponent)
    for n in range(count - 1):
        prev, cur = cur, math.sqrt(2.0 / (n + 1)) * u * cur - math.sqrt(n / (n + 1)) * prev
        shift = np.maximum(np.frexp(cur)[1], np.frexp(prev)[1])
        cur, prev = np.ldexp(cur, -shift), np.ldexp(prev, -shift)
        exponent += shift
        out[n + 1] = np.ldexp(cur, exponent)
    return out


KERNEL_SPACING_CAP = 0.3  # 0.4π/√(2·dim + 1) costs digits below 9 levels
KERNEL_TOL = 1e-9  # relative miss of Tr ρ or Tr ρ² that flags a grid too narrow or coarse
BLOCK_ENTRIES = 2 ** 17  # kernel entries per row block


def qcs_wigner_gradient(rho: DensityOperator) -> QcsEstimate:
    """Gradient-norm route C² = ∫|∇W|² / (2∫W²) as a position-kernel quadrature.
    By the Plancherel relation ∫∫W_A W_B = Tr(AB†)/2π it is a ratio of
    Hilbert–Schmidt norms. (u−v)K and −i(∂ᵤ+∂ᵥ)K are the kernels of [x̂, ρ] and
    [p̂, ρ] for K(u, v) = ⟨u|ρ|v⟩, so C² = ∫∫[(u−v)²|K|² + |(∂ᵤ+∂ᵥ)K|²] / (2∫∫|K|²),
    with K = ΦρΦᵀ and (∂ᵤ+∂ᵥ)K = Φ′ρΦᵀ + ΦρΦ′ᵀ on a uniform grid, where
    φ_n′ = √(n/2)φ_{n−1} − √((n+1)/2)φ_{n+1} reads one level above the cutoff.
    Numerator and denominator are C²·Tr ρ² and Tr ρ², as in the direct route."""
    if rho.n_modes != 1:
        raise ValidationError("the gradient route expects a single-mode state")
    dim = rho.dim
    h = min(KERNEL_SPACING_CAP, 0.4 * math.pi / math.sqrt(2 * dim + 1))
    u = default_axes(rho, h)[0]
    size = u.size
    if size > MEMORY_GUARD_DIM:
        raise MemoryGuardError(
            f"position kernel of {size} x {size} points exceeds memory guard "
            f"{MEMORY_GUARD_DIM}^2")
    phi = hermite_functions(u, dim + 1)
    n = np.arange(dim)[:, None]
    dphi = -np.sqrt((n + 1) / 2.0) * phi[1:]
    dphi[1:] += np.sqrt(n[1:] / 2.0) * phi[:-2]
    # Re ρ and Im ρ on a leading axis keep every product real: rows s:e of K are
    # lk[:, s:e] @ phi, of (∂ᵤ+∂ᵥ)K ld[:, s:e] @ phi + lk[:, s:e] @ dphi
    parts = np.stack([rho.matrix.real, rho.matrix.imag])
    phi = phi[:dim]
    lk, ld = phi.T @ parts, dphi.T @ parts
    trace = h * float(np.sum(lk[0] * phi.T))
    rows = max(1, BLOCK_ENTRIES // size)
    purity = grad_sq = 0.0
    for s in range(0, size, rows):
        e = min(s + rows, size)
        k_sq = np.sum((lk[:, s:e] @ phi[:, s:]) ** 2, axis=0)
        d_sq = np.sum((ld[:, s:e] @ phi[:, s:] + lk[:, s:e] @ dphi[:, s:]) ** 2, axis=0)
        f = (u[s:e, None] - u[None, s:]) ** 2 * k_sq + d_sq
        # the kernels are Hermitian: entries right of the block's own square
        # stand for their mirror images below the diagonal too
        purity += 2.0 * float(np.sum(k_sq)) - float(np.sum(k_sq[:, :e - s]))
        grad_sq += 2.0 * float(np.sum(f)) - float(np.sum(f[:, :e - s]))
    purity, grad_sq = h * h * purity, h * h * grad_sq
    for name, got, want in (("Tr ρ", trace, rho.trace()), ("Tr ρ²", purity, purity_direct(rho))):
        if not abs(got - want) <= KERNEL_TOL * abs(want):  # a NaN sum fails too
            raise GridError(
                f"position-kernel check failed: {name} {got:.12g} vs {want:.12g}; "
                "grid extent or spacing insufficient")
    numerator = 0.5 * grad_sq
    return QcsEstimate(c_squared=numerator / purity, method="wigner_gradient",
                       numerator=numerator, denominator=purity)
