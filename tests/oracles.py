"""Reference implementations for the tests.

The package builds no ladder, quadrature or parity matrix: it shifts rows and
columns of ρ instead. These are the textbook dense forms, kept here only to
check its kernels; scipy's ``expm`` shares no code with the package's
Laguerre recurrence. ``sector_loop_diagonal`` is the two-copy p_n kernel as a
plain loop over sectors, the reference for the planned kernel.
``pure_state_vector`` takes ψ back from a built pure state by ``eigh``, the
reference for the amplitudes a pure kind gives the ``pure`` route.
``uncertainty_violated`` is the covariance check as a complex Hermitian
eigensolve, the reference for the real Cholesky test ``CovarianceMatrix`` makes.
"""

import math

import numpy as np
from scipy.linalg import expm

from qcslab.errors import ValidationError
from qcslab.interferometer import _check_two_copy, _kron, _sectors


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
