"""Phase-space quantities on the position kernel: the gradient QCS route and
the overlap Tr ρ_aρ_b.

The paper defines C² and overlaps as phase-space integrals of Wigner functions.
By the Plancherel relation ∫∫W_A W_B = Tr(AB†)/2π these are Hilbert–Schmidt
products, so no Wigner grid is evaluated: both the gradient route and
``overlap_kernel`` are trapezoid sums over the position kernel
K(u, v) = ⟨u|ρ|v⟩ = ΦρΦᵀ, built from Hermite functions
(``hermite_functions``) on one grid rule and with one quadrature check
(``_kernel_grid``, ``_check_kernel``). The gradient route shares no code with
the direct route's commutators. The origin-Laplacian route needs only the
difference-mode p_n, so it lives with the two-copy route in ``estimators``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import GridError, MemoryGuardError, ValidationError
from .estimators import QcsEstimate
from .fock import DensityOperator, carried_recurrence, purity_direct
from .interferometer import MEMORY_GUARD_DIM

EXTENT_PADDING = 1.2
# grid half-width covers mean offset plus this many standard deviations,
# keeping the 2-D Gaussian tail mass below ~1e-8
EXTENT_SIGMAS = 6.1


def _position_moments(rho: DensityOperator) -> tuple[float, float]:
    """Mean and standard deviation of x for grid sizing, from ρ's diagonals at
    offsets 0, 1 and 2, the only ones the truncated x and x² reach, with no
    dim × dim product; x² ends in (dim − 1)/2, as x @ x does."""
    n, mat = np.arange(rho.dim), rho.matrix
    step1 = np.sqrt(n[1:] / 2.0)  # x_{n−1,n} = √(n/2)
    step2 = np.sqrt(n[1:-1] * n[2:]) / 2.0  # (x²)_{n−2,n}
    level = np.append(n[:-1] + 0.5, n[-1] / 2.0)  # diagonal of x²
    mx = float(np.dot(step1, (np.diagonal(mat, 1) + np.diagonal(mat, -1)).real))
    diag = float(np.dot(level, np.diagonal(mat).real))
    off = float(np.dot(step2, (np.diagonal(mat, 2) + np.diagonal(mat, -2)).real))
    return mx, math.sqrt(max(diag + off - mx ** 2, 0.5))


def quadrature_axis(mean: float, sigma: float, dim: int, spacing: float) -> np.ndarray:
    """Symmetric uniform axis, odd-length and origin-symmetric, wide enough
    that the phase-space tail of a quadrature with this mean and standard
    deviation (mean offset + EXTENT_SIGMAS standard deviations, padded) is
    negligible. No state on ``dim`` levels reaches far past the turning point
    √(2·(dim − 1) + 1) of its top level, so the half-width is capped there,
    plus a margin of 6 and the same padding: the spread of a Fock-like state
    would otherwise size it wider still."""
    cap = EXTENT_PADDING * (math.sqrt(2 * dim - 1) + 6.0)
    n_half = int(np.ceil(min(EXTENT_PADDING * (abs(mean) + EXTENT_SIGMAS * sigma + 1.0),
                             cap) / spacing))
    return spacing * np.arange(-n_half, n_half + 1)


def hermite_functions(u: np.ndarray, count: int) -> np.ndarray:
    """Rows φ_0 … φ_{count−1} of φ_n(u) = H_n(u) e^{−u²/2} / √(2ⁿ n! √π) at the
    points u, by the three-term recurrence with each point's binary exponent
    carried (``carried_recurrence``): φ_0 underflows past |u| ≈ 37.6."""
    u = np.asarray(u, dtype=float)
    log2_phi0 = (-0.5 * u ** 2 - 0.25 * math.log(math.pi)) / math.log(2.0)
    exponent = np.floor(log2_phi0).astype(np.int32)

    def step(n, cur, prev):
        return math.sqrt(2.0 / (n + 1)) * u * cur - math.sqrt(n / (n + 1)) * prev

    rows = carried_recurrence(np.exp2(log2_phi0 - exponent), exponent, step, count)
    return np.fromiter(rows, np.dtype((float, u.shape)), count)


KERNEL_SPACING_CAP = 0.3  # 0.4π/√(2·dim + 1) costs digits below 9 levels
KERNEL_TOL = 1e-9  # relative miss of Tr ρ or Tr ρ² that flags a grid too narrow or coarse
BLOCK_ENTRIES = 2 ** 17  # kernel entries per row block


def _kernel_grid(*rhos: DensityOperator):
    """The position grid shared by single-mode states, for dim the largest of
    their cutoffs: spacing h = min(KERNEL_SPACING_CAP, 0.4π/√(2·dim + 1)), on
    which the trapezoid rule is spectrally exact; points u, the widest of
    their x axes (``quadrature_axis`` on each state's x mean and spread),
    refused past the memory guard before any kernel is allocated; the Hermite
    functions φ_0 … φ_dim at u, one level above the cutoff; and each state's
    Re ρ and Im ρ on a leading axis, which keep every kernel product real."""
    if any(rho.n_modes != 1 for rho in rhos):
        raise ValidationError("the position kernel expects single-mode states")
    dim = max(rho.dim for rho in rhos)
    h = min(KERNEL_SPACING_CAP, 0.4 * math.pi / math.sqrt(2 * dim + 1))
    u = max((quadrature_axis(*_position_moments(rho), rho.dim, h) for rho in rhos), key=len)
    if u.size > MEMORY_GUARD_DIM:
        raise MemoryGuardError(
            f"position kernel of {u.size} x {u.size} points exceeds memory guard "
            f"{MEMORY_GUARD_DIM}^2")
    parts = [np.stack([rho.matrix.real, rho.matrix.imag]) for rho in rhos]
    return h, u, hermite_functions(u, dim + 1), parts


def _hermitian_sums(size: int, block) -> list[float]:
    """Σ over the size × size grid of real terms symmetric in (u, v), from row
    blocks: block(s, e) gives each term on rows s:e and columns s:, and the
    entries right of the block's own square stand for their mirror images
    below the diagonal too."""
    rows = max(1, BLOCK_ENTRIES // size)
    parts = []
    for s in range(0, size, rows):
        e = min(s + rows, size)
        parts.append([2.0 * float(np.sum(f)) - float(np.sum(f[:, :e - s])) for f in block(s, e)])
    return [sum(column) for column in zip(*parts)]


def _check_kernel(rho: DensityOperator, h: float, lk: np.ndarray, phi: np.ndarray,
                  purity: float) -> None:
    """GridError unless h·Σᵢ K(uᵢ, uᵢ) matches Tr ρ and purity = h²Σ|K|² matches
    Tr ρ² within KERNEL_TOL (relative); the rows of K are lk @ phi."""
    trace = h * float(np.sum(lk[0] * phi.T))
    for name, got, want in (("Tr ρ", trace, rho.trace()), ("Tr ρ²", purity, purity_direct(rho))):
        if not abs(got - want) <= KERNEL_TOL * abs(want):  # a NaN sum fails too
            raise GridError(
                f"position-kernel check failed: {name} {got:.12g} vs {want:.12g}; "
                "grid extent or spacing insufficient")


def overlap_kernel(rho_a: DensityOperator, rho_b: DensityOperator) -> float:
    """Tr(ρ_a ρ_b) = 2π∫∫W_a W_b = ∫∫K_a K_b* du dv, as the trapezoid sum
    h²Σ Re K_a Re K_b + Im K_a Im K_b on the grid both states share. Both
    kernels pass the Tr ρ and Tr ρ² checks of the gradient route."""
    h, u, phi, parts = _kernel_grid(rho_a, rho_b)
    phis = [phi[:rho.dim] for rho in (rho_a, rho_b)]
    lks = [p.T @ part for p, part in zip(phis, parts)]

    def block(s, e):
        ka, kb = (lk[:, s:e] @ p[:, s:] for lk, p in zip(lks, phis))
        return (np.sum(ka * kb, axis=0), np.sum(ka ** 2, axis=0), np.sum(kb ** 2, axis=0))

    overlap, *purities = (h * h * total for total in _hermitian_sums(u.size, block))
    for rho, lk, p, purity in zip((rho_a, rho_b), lks, phis, purities):
        _check_kernel(rho, h, lk, p, purity)
    return overlap


def qcs_wigner_gradient(rho: DensityOperator) -> QcsEstimate:
    """Gradient-norm route C² = ∫|∇W|² / (2∫W²) as a position-kernel quadrature.
    By the Plancherel relation it is a ratio of Hilbert–Schmidt norms.
    (u−v)K and −i(∂ᵤ+∂ᵥ)K are the kernels of [x̂, ρ] and [p̂, ρ] for
    K(u, v) = ⟨u|ρ|v⟩, so C² = ∫∫[(u−v)²|K|² + |(∂ᵤ+∂ᵥ)K|²] / (2∫∫|K|²),
    with K = ΦρΦᵀ and (∂ᵤ+∂ᵥ)K = Φ′ρΦᵀ + ΦρΦ′ᵀ on a uniform grid, where
    φ_n′ = √(n/2)φ_{n−1} − √((n+1)/2)φ_{n+1} reads one level above the cutoff.
    Numerator and denominator are C²·Tr ρ² and Tr ρ², as in the direct route."""
    h, u, phi, (parts,) = _kernel_grid(rho)
    dim = rho.dim
    n = np.arange(dim)[:, None]
    dphi = -np.sqrt((n + 1) / 2.0) * phi[1:]
    dphi[1:] += np.sqrt(n[1:] / 2.0) * phi[:-2]
    # rows s:e of K are lk[:, s:e] @ phi, of (∂ᵤ+∂ᵥ)K ld[:, s:e] @ phi + lk[:, s:e] @ dphi
    phi = phi[:dim]
    lk, ld = phi.T @ parts, dphi.T @ parts

    def block(s, e):
        k_sq = np.sum((lk[:, s:e] @ phi[:, s:]) ** 2, axis=0)
        d_sq = np.sum((ld[:, s:e] @ phi[:, s:] + lk[:, s:e] @ dphi[:, s:]) ** 2, axis=0)
        return k_sq, (u[s:e, None] - u[None, s:]) ** 2 * k_sq + d_sq

    purity, grad_sq = (h * h * total for total in _hermitian_sums(u.size, block))
    _check_kernel(rho, h, lk, phi, purity)
    numerator = 0.5 * grad_sq
    return QcsEstimate(c_squared=numerator / purity, method="wigner_gradient",
                       numerator=numerator, denominator=purity)
