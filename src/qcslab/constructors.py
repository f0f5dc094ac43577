"""Fock-space constructors of the benchmark state families.

Every constructor returns a valid :class:`~qcslab.fock.DensityOperator` with
its truncation trace deficit recorded. ``displace`` applies the exact elements
of D(β) (``fock.displacement_operator``), so a displaced state has its true
deficit too and no accuracy domain in |β|. Gaussian covariance parametrizations
(vacuum = I/2) are provided for the Gaussian fast path. ``states`` reads these
constructors through its state-kind table.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffError, ValidationError
from .fock import (DEFAULT_DEFICIT_TOL, DensityOperator, displacement_operator, log_factorial,
                   log_power, squared_modulus)


def coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Fock amplitudes e^{-|α|²/2} αⁿ/√n! of the coherent state |α⟩."""
    n = np.arange(dim)
    log_mag = -0.5 * squared_modulus(alpha) + log_power(abs(alpha), n) - 0.5 * log_factorial(n)
    return np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))


def _hermitian_part(mat: np.ndarray) -> np.ndarray:
    """mat ← (mat + mat†)/2 in place, tile by tile, with the elementwise
    arithmetic of ``DensityOperator.from_matrix`` but tile-sized temporaries."""
    tile = 256  # 1 MB of complex128 per tile
    for i in range(0, len(mat), tile):
        for j in range(i, len(mat), tile):
            upper = mat[i:i + tile, j:j + tile].copy()
            lower = mat[j:j + tile, i:i + tile].copy()
            mat[i:i + tile, j:j + tile] = 0.5 * (upper + lower.conj().T)
            mat[j:j + tile, i:i + tile] = 0.5 * (lower + upper.conj().T)
    return mat


def check_tail_mass(vec: np.ndarray, deficit_tol: float = DEFAULT_DEFICIT_TOL) -> None:
    """CutoffError when the amplitudes ``vec`` leave more than deficit_tol of
    the norm, 1 − ‖v‖², past the cutoff. ‖v‖² is summed as the cutoff probe
    sums |v_n|²: a BLAS dot here added about 0.1 MB to a CLI process's peak RSS."""
    deficit = 1.0 - float(np.sum((vec * vec.conj()).real))
    if deficit > deficit_tol:
        raise CutoffError(
            f"state tail mass {deficit:.3e} exceeds deficit tolerance {deficit_tol:.1e}"
        )


def _pure(vec: np.ndarray, *, deficit_tol: float) -> DensityOperator:
    """|v⟩⟨v| without ``DensityOperator.from_matrix``'s dim × dim temporaries.
    The outer product still needs its Hermitian part taken: with fused
    multiply-adds, v_i v̄_j and the conjugate of v_j v̄_i can round apart."""
    check_tail_mass(vec, deficit_tol)
    mat = _hermitian_part(np.outer(vec, vec.conj()))
    return DensityOperator(mat, (len(vec),), max(1.0 - float(np.trace(mat).real), 0.0))


def coherent(alpha: complex, cutoff: int,
             deficit_tol: float = DEFAULT_DEFICIT_TOL) -> DensityOperator:
    """|α⟩⟨α| on the truncated space."""
    return _pure(coherent_amplitudes(alpha, cutoff), deficit_tol=deficit_tol)


def fock_amplitudes(n: int, dim: int) -> np.ndarray:
    """Fock amplitudes of |n⟩; CutoffError when level n does not fit dim."""
    if not 0 <= n < dim:
        raise CutoffError(f"Fock level {n} does not fit cutoff {dim}")
    vec = np.zeros(dim, dtype=complex)
    vec[n] = 1.0
    return vec


def fock(n: int, cutoff: int) -> DensityOperator:
    return _pure(fock_amplitudes(n, cutoff), deficit_tol=0.0)


def fock_pair_pn(n: int) -> np.ndarray:
    """Difference-mode p_n of two copies of |n⟩, the multiphoton Hong–Ou–Mandel
    law p_{2j} = a_j a_{n−j} with a_j = C(2j, j)/4ʲ and every odd level empty,
    on the kernel's max(2, 2n + 1) levels. a_j comes from a_{j+1} = a_j (2j+1)/(2j+2):
    every term is positive, so nothing cancels."""
    a = np.cumprod([1.0] + [(2 * j + 1) / (2 * j + 2) for j in range(n)])
    probs = np.zeros(max(2, 2 * n + 1))
    probs[:2 * n + 1:2] = a * a[::-1]
    return probs


def thermal_parameters(q: float | None = None,
                       mean_n: float | None = None) -> tuple[float, float]:
    """(q, ⟨n̂⟩) of a thermal state given by exactly one of them; the other is
    q = ⟨n̂⟩/(1+⟨n̂⟩) or ⟨n̂⟩ = q/(1-q)."""
    if (q is None) == (mean_n is None):
        raise ValidationError("specify exactly one of q or mean_n")
    if mean_n is not None:
        if not mean_n >= 0:
            raise ValidationError(f"mean photon number must be >= 0, got {mean_n}")
        q = mean_n / (1.0 + mean_n)
    if not 0.0 <= q < 1.0:
        raise ValidationError(f"thermal parameter must satisfy 0 <= q < 1, got {q}")
    return q, (q / (1.0 - q) if mean_n is None else mean_n)


def thermal(q: float | None = None, cutoff: int = 2, *,
            mean_n: float | None = None,
            deficit_tol: float = DEFAULT_DEFICIT_TOL) -> DensityOperator:
    """Thermal state with diagonal (1-q) qⁿ; accepts q or the mean photon number."""
    q, _ = thermal_parameters(q, mean_n)
    diag = (1.0 - q) * q ** np.arange(cutoff)
    deficit = q ** cutoff
    if deficit > deficit_tol:
        raise CutoffError(
            f"thermal tail q^dim = {deficit:.3e} exceeds deficit tolerance {deficit_tol:.1e}"
        )
    return DensityOperator(np.diag(diag).astype(complex), (cutoff,), trace_deficit=deficit)


def squeezed_amplitudes(r: float, dim: int) -> np.ndarray:
    """Fock amplitudes of the squeezed vacuum: (tanh r)^k √((2k)!) / (2^k k! √cosh r)
    at n = 2k, zero at odd n."""
    k = np.arange((dim + 1) // 2)
    log_c = 0.5 * log_factorial(2 * k) - k * np.log(2.0) - log_factorial(k) \
        + log_power(np.tanh(abs(r)), k)  # |tanh r|^k, its sign applied below
    with np.errstate(over="ignore"):  # cosh r past a double: every amplitude rounds to 0
        amps = np.exp(log_c) / np.sqrt(np.cosh(r)) * np.sign(r) ** k
    vec = np.zeros(dim, dtype=complex)
    vec[2 * k] = amps
    return vec


def squeezed_vacuum(r: float, cutoff: int,
                    deficit_tol: float = DEFAULT_DEFICIT_TOL) -> DensityOperator:
    """Squeezed vacuum with ⟨n̂⟩ = sinh²r; x is the anti-squeezed quadrature for r > 0,
    matching the covariance diag(e^{2r}, e^{-2r})/2."""
    return _pure(squeezed_amplitudes(r, cutoff), deficit_tol=deficit_tol)


def rho_2m(m: int, cutoff: int) -> DensityOperator:
    """Uniform mixture of |1⟩ .. |2M⟩."""
    if m < 1:
        raise ValidationError(f"M must be >= 1, got {m}")
    if 2 * m >= cutoff:
        raise CutoffError(f"rho_2M with M={m} needs cutoff > {2 * m}")
    diag = np.zeros(cutoff)
    diag[1:2 * m + 1] = 1.0 / (2 * m)
    return DensityOperator(np.diag(diag).astype(complex), (cutoff,), trace_deficit=0.0)


def rho_even_m(m: int, cutoff: int) -> DensityOperator:
    """Uniform mixture of |2⟩, |4⟩, .., |2M⟩."""
    if m < 1:
        raise ValidationError(f"M must be >= 1, got {m}")
    if 2 * m >= cutoff:
        raise CutoffError(f"rho_even_M with M={m} needs cutoff > {2 * m}")
    diag = np.zeros(cutoff)
    diag[2:2 * m + 1:2] = 1.0 / m
    return DensityOperator(np.diag(diag).astype(complex), (cutoff,), trace_deficit=0.0)


@dataclass(frozen=True)
class ClassicalMixture:
    """Finite mixture of coherent states: Σ w_i |α_i⟩⟨α_i|."""

    weights: tuple[float, ...]
    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.amplitudes) or not self.weights:
            raise ValidationError("weights and amplitudes must have equal nonzero length")
        if not all(map(cmath.isfinite, (*self.weights, *self.amplitudes))):
            raise ValidationError("mixture weights and amplitudes must be finite")
        if any(w < 0 for w in self.weights):
            raise ValidationError("mixture weights must be non-negative")
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise ValidationError("mixture weights must sum to 1 within 1e-12")


def classical_mixture(mix: ClassicalMixture, cutoff: int,
                      deficit_tol: float = DEFAULT_DEFICIT_TOL) -> DensityOperator:
    mat = np.zeros((cutoff, cutoff), dtype=complex)
    for w, alpha in zip(mix.weights, mix.amplitudes):
        vec = coherent_amplitudes(alpha, cutoff)
        mat += w * np.outer(vec, vec.conj())
    return DensityOperator.from_matrix(mat, (cutoff,), deficit_tol=deficit_tol)


def mixture_pair_pn(mix: ClassicalMixture, dim: int) -> np.ndarray:
    """Difference-mode p_n of two copies of Σ w_i |α_i⟩⟨α_i|. Each pair |α_i⟩|α_k⟩
    leaves the difference mode in a coherent state of mean photon number
    λ_ik = |α_i − α_k|²/2, so p_n = Σ_ik w_i w_k e^{−λ_ik} λ_ikⁿ/n! (δ_{n0} where
    λ_ik = 0), on the kernel's max(2, 2·top + 1) levels, top the highest nonzero
    level of a weighted member's amplitudes at cutoff dim: the built state's."""
    weights = np.array(mix.weights)
    top = max(np.flatnonzero(coherent_amplitudes(alpha, dim)).max(initial=0)
              for w, alpha in zip(mix.weights, mix.amplitudes) if w > 0)
    n = np.arange(max(2, 2 * top + 1))
    lam = np.array([[0.5 * squared_modulus(a - b) for b in mix.amplitudes]
                    for a in mix.amplitudes])[..., None]
    poisson = np.exp(-lam + log_power(lam, n) - log_factorial(n))
    return np.einsum("i,k,ikn->n", weights, weights, poisson)


def displace(rho: DensityOperator, beta: complex,
             deficit_tol: float = DEFAULT_DEFICIT_TOL) -> DensityOperator:
    """D(β) ρ D†(β) on ρ's cutoff, from the exact elements of D(β) in the
    columns up to ρ's highest occupied level. The mass moved past the cutoff
    is the result's trace deficit; CutoffError when it exceeds deficit_tol."""
    if rho.n_modes != 1:
        raise ValidationError("displace expects a single-mode state")
    top = max(np.flatnonzero(np.any(rho.matrix != 0, axis=0)), default=0)
    d = displacement_operator(beta, rho.dim, top + 1)
    moved = d @ rho.matrix[:top + 1, :top + 1] @ d.conj().T
    return DensityOperator.from_matrix(moved, rho.dims, deficit_tol=deficit_tol)


def displace_amplitudes(vec: np.ndarray, beta: complex) -> np.ndarray:
    """D(β)ψ on ψ's cutoff, from the exact elements of D(β) in the columns up
    to ψ's highest occupied level: the amplitudes of ``displace`` on |ψ⟩⟨ψ|."""
    top = max(np.flatnonzero(vec), default=0)
    return displacement_operator(beta, len(vec), top + 1) @ vec[:top + 1]


def phase_rotate(rho: DensityOperator, theta: float) -> DensityOperator:
    """e^{iθn̂} ρ e^{-iθn̂}: ρ_mn e^{iθ(m−n)}."""
    if rho.n_modes != 1:
        raise ValidationError("phase_rotate expects a single-mode state")
    n = np.arange(rho.dim)
    return DensityOperator(rho.matrix * np.exp(1j * theta * (n[:, None] - n)), rho.dims,
                           rho.trace_deficit)


# --- Gaussian covariance parametrizations (vacuum = I/2) ---

def _cholesky(mat: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of a positive-definite mat, None for any other."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


@dataclass(frozen=True)
class CovarianceMatrix:
    """Second-moment matrix γ of a Gaussian state, plus its mean-field vector."""

    gamma: np.ndarray
    mean: np.ndarray = field(default=None)

    def __post_init__(self):
        try:
            g = np.asarray(self.gamma, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"covariance matrix must be a real array: {exc}") from exc
        if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] % 2:
            raise ValidationError("covariance matrix must be square with even dimension")
        mean = np.zeros(g.shape[0]) if self.mean is None else np.asarray(self.mean, float)
        if mean.shape != (g.shape[0],):
            raise ValidationError("mean vector length must match covariance dimension")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(mean))):
            raise ValidationError("covariance matrix and mean vector must be finite")
        if np.max(np.abs(g - g.T)) > 1e-10:
            raise ValidationError("covariance matrix must be symmetric")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "mean", mean)
        n = g.shape[0] // 2
        omega = np.kron(np.eye(n), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        # uncertainty relation ν_k >= 1/2 on γ scaled to unit size, so neither a
        # determinant nor an absolute tolerance depends on its scale: with γ/s =
        # L Lᵀ, the real antisymmetric A = L⁻¹ Ω L⁻ᵀ / s has singular values 1/ν_k,
        # so every ν_k >= 1/b, b = 2(1 + tol), iff b² I − AᵀA is positive definite:
        # a real Cholesky factorization decides it, with no complex eigensolve.
        # An entry of A above b puts its largest singular value above b too, so
        # the AᵀA that is formed has entries at most 2n b² and cannot overflow. The
        # tolerance admits the rounding of γ's entries times its componentwise
        # condition number ‖|γ⁻¹||γ|‖
        scale = np.max(np.abs(g)) or 1.0
        low = _cholesky(g / scale)
        if low is None:
            raise ValidationError("covariance matrix must be positive definite")
        inv = np.linalg.inv(low)
        skeel = np.linalg.norm(np.abs(inv.T @ inv) @ np.abs(g / scale), np.inf)
        bound = 2 * (1 + 1e-9 + np.finfo(float).eps * skeel)
        a = inv @ omega @ inv.T / scale
        if np.max(np.abs(a)) > bound or _cholesky(bound ** 2 * np.eye(2 * n) - a.T @ a) is None:
            raise ValidationError("covariance matrix violates the uncertainty relation")

    @property
    def n_modes(self) -> int:
        return self.gamma.shape[0] // 2


def squeezed_covariance(r: float) -> CovarianceMatrix:
    """diag(e^{2r}, e^{−2r})/2; CutoffError where e^{2|r|} overflows a double."""
    with np.errstate(over="ignore"):
        gamma = 0.5 * np.diag([np.exp(2 * r), np.exp(-2 * r)])
    if not np.isfinite(gamma).all():
        raise CutoffError(f"e^(2|r|) overflows a double at r = {r}")
    return CovarianceMatrix(gamma)
