"""Reference implementations for the tests.

The package builds no ladder, quadrature or parity matrix: it shifts rows and
columns of ρ instead. These are the textbook dense forms, kept here only to
check its kernels; scipy's ``expm`` shares no code with the package's
Laguerre recurrence. ``sector_loop_diagonal`` is the two-copy p_n kernel as a
plain loop over the sectors ``_sectors`` walks, the reference for the planned
kernel.
``pure_state_vector`` takes ψ back from a built pure state by ``eigh``, the
reference for the amplitudes a pure kind gives the ``pure`` route.
``uncertainty_violated`` is the covariance check as a complex Hermitian
eigensolve, the reference for the real Cholesky test ``CovarianceMatrix`` makes.

``wigner_eval`` evaluates W on a grid from the displaced-parity kernel with
the package's ``fock.scaled_laguerre`` (the recurrence ``displacement_operator``
also runs), on the x and p axes of ``default_axes``, and ``overlap_wigner`` is
2π∫W_aW_b on such a grid: the phase-space reference for the position-kernel
quadratures of ``phase_space``. ``wigner_origin`` is W(0, 0) as the parity
trace.
``two_copy_output`` is the full difference-mode state ρ_d = Tr_a U(ρ⊗ρ)U†,
the reference whose diagonal the p_n kernel gives. ``random_classical_mixture``
draws seeded coherent mixtures for the tests.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from qcslab.errors import GridError, MemoryGuardError, ValidationError
from qcslab.fock import DensityOperator, scaled_laguerre
from qcslab.interferometer import MEMORY_GUARD_DIM, _blocks, _check_two_copy, _kron
from qcslab.phase_space import _position_moments, quadrature_axis
from qcslab.states import ClassicalMixture


def ladder(dim):
    """Truncated lowering operator a on ``dim`` levels: a[n − 1, n] = √n."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def quadratures(dim):
    """x = (a + a†)/√2 and p = (a − a†)/(i√2) on ``dim`` levels."""
    a = ladder(dim)
    return (a + a.T) / np.sqrt(2.0), (a - a.T) / (1j * np.sqrt(2.0))


def displacement(beta, pad):
    """exp(β a† − β* a) of the generator truncated to ``pad`` levels; its leading
    block holds the exact elements when ``pad`` is well past them."""
    a = ladder(pad)
    return expm(beta * a.T - np.conj(beta) * a)


def wigner_point_oracle(mat, x, p, pad_dim=80):
    """W = Tr[ρ D(2α) (−1)^n̂]/π with the displacement from ``displacement`` in
    a padded space (truncation-safe)."""
    padded = np.zeros((pad_dim, pad_dim), dtype=complex)
    padded[: mat.shape[0], : mat.shape[0]] = mat
    d = displacement(np.sqrt(2.0) * (x + 1j * p), pad_dim)
    parity = (-1.0) ** np.arange(pad_dim)
    return float(np.real(np.trace(padded @ d * parity)) / np.pi)


def dense_second_moments(rho):
    """The dense products the grid sizing avoids: Tr ρx, Tr ρp, Tr ρx², Tr ρp²."""
    x, p = quadratures(rho.dim)
    mx = float(np.trace(rho.matrix @ x).real)
    mp = float(np.trace(rho.matrix @ p).real)
    vx = float(np.trace(rho.matrix @ x @ x).real) - mx ** 2
    vp = float(np.trace(rho.matrix @ p @ p).real) - mp ** 2
    return mx, mp, np.sqrt(max(vx, 0.5)), np.sqrt(max(vp, 0.5))


def dense_lowering_commutators(rho):
    """[ρ, a_k] for each mode k: ρ padded by one level per mode, a_k truncated
    to the padded levels and Kronecker-embedded, and ρa_k − a_kρ."""
    dims = tuple(d + 1 for d in rho.dims)
    t = np.pad(rho.matrix.reshape(rho.dims * 2), [(0, 1)] * (2 * len(dims)))
    size = math.prod(dims)
    mat = t.reshape(size, size)
    out = []
    for k, d in enumerate(dims):
        a = np.kron(np.kron(np.eye(math.prod(dims[:k])), ladder(d)),
                    np.eye(math.prod(dims[k + 1:])))
        out.append(mat @ a - a @ mat)
    return out


def _downto(top: int, bottom: int = 0) -> slice:
    """The levels top, top − 1, …, bottom."""
    return slice(top, bottom - 1 if bottom else None, -1)


def _modes(top_a: int, top_b: int):
    """The windows of ``_blocks`` with T, the slices of the copy-a levels
    lo … hi and of the copy-b levels T − lo … T − hi, and the output levels
    T … 0."""
    for t, u in enumerate(_blocks(top_a, top_b)):
        lo, hi = max(0, t - top_b), min(t, top_a)
        yield t, slice(lo, hi + 1), _downto(t - lo, t - hi), _downto(t), u


def _sectors(tops_a, tops_b):
    """Per-mode-total sectors T⃗ of two copies, first mode slowest, each as the
    tuples (T⃗, copy-a slices, copy-b slices, output slices, windows) over the
    modes. The descriptors of modes 2…N are built once per call and held; the
    first mode's stream with its windows."""
    held = [list(_modes(ta, tb)) for ta, tb in zip(tops_a[1:], tops_b[1:])]
    for first in _modes(tops_a[0], tops_b[0]):
        for rest in itertools.product(*held):
            yield tuple(zip(first, *rest))


def sector_loop_diagonal(rho_a, rho_b):
    """Diagonal of Tr_a U(ρ_a⊗ρ_b)U† one sector T⃗ at a time: slice
    X_T⃗ = Re(ρ_a[k⃗, k⃗′] ρ_b[T⃗ − k⃗, T⃗ − k⃗′]) out of the inputs, skip it when
    it is exactly zero, and add diag(U_T⃗ X_T⃗ U_T⃗ᵀ) to the levels T⃗ − m⃗."""
    tops_a, tops_b, levels = _check_two_copy(rho_a, rho_b)
    a, b = rho_a.matrix.reshape(rho_a.dims * 2), rho_b.matrix.reshape(rho_b.dims * 2)
    diag = np.zeros(levels)
    for _, ka, kb, dest, windows in _sectors(tops_a, tops_b):
        x = (a[ka + ka] * b[kb + kb]).real
        if x.any():
            u = _kron(windows)
            view = diag[dest]
            view += np.einsum("ij,ij->i", u @ x.reshape(u.shape[1], -1), u).reshape(view.shape)
    return diag


def pure_state_vector(rho, tol=1e-9):
    """The state vector of a (numerically) pure density operator, scaled by the
    square root of its trace: the top eigenvector of ``eigh``."""
    evals, evecs = np.linalg.eigh(rho.matrix)
    if evals[:-1].max(initial=0.0) > tol:
        raise ValidationError("state is not pure")
    return evecs[:, -1] * np.sqrt(evals[-1])


def uncertainty_violated(gamma):
    """Whether γ breaks ν_k >= 1/2, by the complex eigensolve: with γ/s = L Lᵀ
    (s the largest |γ_ij|), i L⁻¹ Ω L⁻ᵀ has eigenvalues ±s/ν_k, so some ν_k is
    below 1/(2(1 + tol)) iff their largest modulus over s exceeds 2(1 + tol).
    tol is the package's: 1e-9 plus the rounding of γ's entries times its
    componentwise condition number ‖|γ⁻¹||γ|‖."""
    g = np.asarray(gamma, dtype=float)
    omega = np.kron(np.eye(len(g) // 2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    scale = np.max(np.abs(g))
    inv = np.linalg.inv(np.linalg.cholesky(g / scale))
    skeel = np.linalg.norm(np.abs(inv.T @ inv) @ np.abs(g / scale), np.inf)
    tol = 1e-9 + np.finfo(float).eps * skeel
    return bool(np.max(np.abs(np.linalg.eigvalsh(1j * inv @ omega @ inv.T))) / scale
                > 2 * (1 + tol))


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


def default_axes(rho: DensityOperator, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """x and p axes for a Wigner grid of ρ: the package's x axis, the one the
    position kernel integrates on, and a p axis by the same ``quadrature_axis``
    rule on the p mean and spread of ``dense_second_moments``."""
    _, mp, _, sp = dense_second_moments(rho)
    return (quadrature_axis(*_position_moments(rho), rho.dim, spacing),
            quadrature_axis(mp, sp, rho.dim, spacing))


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


def two_copy_output(rho: DensityOperator) -> DensityOperator:
    """Difference-mode reduced state ρ_d = Tr_a U(ρ⊗ρ)U† of an N-mode state
    through the pairwise 50:50 beam-splitter stack, on 2·top + 1 levels per
    mode. A sector pair T⃗ ≤ T⃗′ adds its copy-a rows m⃗ ≤ min(T⃗, T⃗′), the ones
    the trace keeps, at (T⃗ − m⃗, T⃗′ − m⃗); these make P, and ρ_d = P + P† with
    the diagonal (T⃗ = T⃗′) counted once. For a positive ρ, X_{T,T′} vanishes
    unless both X_{T,T} and X_{T′,T′} carry mass."""
    tops, _, levels = _check_two_copy(rho, rho)
    mat = rho.matrix.reshape(rho.dims * 2)
    live = [(totals, ka, kb, dest, windows)
            for totals, ka, kb, dest, windows in _sectors(tops, tops)
            if (mat[ka + ka] * mat[kb + kb]).any()]
    out = np.zeros(levels * 2, dtype=complex)
    axes = list(range(len(levels)))  # einsum(view, axes * 2, axes): writeable view[m⃗, m⃗]
    for s, (totals, ka, kb, dest, windows) in enumerate(live):
        for totals2, ka2, kb2, dest2, windows2 in live[s:]:
            box = [min(t, t2) + 1 for t, t2 in zip(totals, totals2)]
            u, u2 = (_kron([w[:c] for w, c in zip(ws, box)]) for ws in (windows, windows2))
            x = (mat[ka + ka2] * mat[kb + kb2]).reshape(u.shape[1], u2.shape[1])
            view = out[dest + dest2][tuple(slice(c) for c in box * 2)]
            np.einsum(view, axes * 2, axes)[...] += np.einsum("ij,ij->i", u @ x, u2).reshape(box)
    out = out.reshape((math.prod(levels),) * 2)
    out = out + out.conj().T
    np.fill_diagonal(out, 0.5 * out.diagonal())
    return DensityOperator(out, levels, trace_deficit=1.0 - (1.0 - rho.trace_deficit) ** 2)


def random_classical_mixture(rng: np.random.Generator, max_terms: int = 5,
                             max_abs: float = 2.0) -> ClassicalMixture:
    """Seeded random coherent mixture: amplitudes uniform in the disk, Dirichlet weights."""
    n = int(rng.integers(1, max_terms + 1))
    radii = max_abs * np.sqrt(rng.uniform(0, 1, n))
    phases = rng.uniform(0, 2 * np.pi, n)
    amps = radii * np.exp(1j * phases)
    weights = rng.dirichlet(np.ones(n))
    weights = weights / math.fsum(weights)
    return ClassicalMixture(tuple(weights), tuple(amps))
