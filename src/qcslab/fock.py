"""Truncated Fock-space linear algebra.

Dense operators on one or more bosonic modes truncated to a finite number of
Fock levels per mode. Conventions used throughout the package:

- quadratures x = (a + a†)/√2 and p = (a - a†)/(i√2), so that [x, p] = i on
  untruncated levels and x² + p² = 1 + 2n̂ (vacuum variance 1/2),
- tensor products put the first factor on the slow (leftmost) index,
- density operators carry their truncation trace deficit explicitly.

One scaled Laguerre recurrence (``scaled_laguerre``) gives the exact matrix
elements of the displacement operator, both for ``displacement_operator`` and
for the Wigner kernel in ``phase_space``. The elements are exact at any
cutoff, so there is no headroom rule: what a displacement moves past the
cutoff shows up as trace deficit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, ValidationError

DEFAULT_DEFICIT_TOL = 1e-6
HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-10
LOG_TINY = math.log(sys.float_info.min)  # ln G_{0,d} below which scaled_laguerre carries exponents


def annihilation(dim: int) -> np.ndarray:
    """Ladder matrix a with a[n-1, n] = sqrt(n)."""
    if dim < 2:
        raise ValidationError(f"Fock cutoff must be >= 2, got {dim}")
    return np.diag(np.sqrt(np.arange(1, dim)), k=1).astype(complex)


def creation(dim: int) -> np.ndarray:
    return annihilation(dim).conj().T


def number_operator(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim)).astype(complex)


def parity_operator(dim: int) -> np.ndarray:
    """(-1)^n̂ as a diagonal matrix."""
    return np.diag((-1.0) ** np.arange(dim)).astype(complex)


def quadratures(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum quadratures, vacuum variance 1/2."""
    a = annihilation(dim)
    ad = a.conj().T
    x = (a + ad) / np.sqrt(2.0)
    p = (a - ad) / (1j * np.sqrt(2.0))
    return x, p


@dataclass(frozen=True)
class DensityOperator:
    """A density operator on a truncated (multi)mode Fock space.

    ``trace_deficit`` records the probability mass lost to truncation; it is
    carried along so downstream operations can refuse inputs that are too
    badly clipped.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    trace_deficit: float = 0.0

    def __post_init__(self):
        d = int(np.prod(self.dims))
        if self.matrix.shape != (d, d):
            raise ValidationError(
                f"matrix shape {self.matrix.shape} incompatible with dims {self.dims}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_modes(self) -> int:
        return len(self.dims)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @classmethod
    def from_matrix(
        cls,
        matrix: np.ndarray,
        dims: tuple[int, ...] | None = None,
        *,
        deficit_tol: float = DEFAULT_DEFICIT_TOL,
        check: bool = True,
    ) -> "DensityOperator":
        matrix = np.asarray(matrix, dtype=complex)
        if dims is None:
            dims = (matrix.shape[0],)
        dims = tuple(int(d) for d in dims)
        drift = np.max(np.abs(matrix - matrix.conj().T))
        if check and drift > 1e-8:
            raise ValidationError(f"matrix is not Hermitian (drift {drift:.3e})")
        matrix = 0.5 * (matrix + matrix.conj().T)
        tr = float(np.trace(matrix).real)
        deficit = 1.0 - tr
        if check:
            if deficit < -1e-9:
                raise ValidationError(f"trace {tr} exceeds 1")
            if deficit > deficit_tol:
                raise CutoffError(
                    f"trace deficit {deficit:.3e} exceeds tolerance {deficit_tol:.1e}; "
                    "increase the Fock cutoff"
                )
        return cls(matrix=matrix, dims=dims, trace_deficit=max(deficit, 0.0))

    def validate(self, *, deficit_tol: float = DEFAULT_DEFICIT_TOL) -> None:
        """Full validity check: Hermitian, PSD, trace within the deficit tolerance."""
        drift = np.max(np.abs(self.matrix - self.matrix.conj().T))
        if drift > HERMITICITY_TOL:
            raise ValidationError(f"Hermiticity drift {drift:.3e}")
        evals = np.linalg.eigvalsh(self.matrix)
        if evals.min() < -EIGENVALUE_TOL:
            raise ValidationError(f"negative eigenvalue {evals.min():.3e}")
        tr = self.trace()
        if not (1.0 - deficit_tol - 1e-12 <= tr <= 1.0 + 1e-12):
            raise CutoffError(f"trace {tr} outside [1 - {deficit_tol:.1e}, 1]")

    def number_marginal(self, mode: int = 0) -> np.ndarray:
        """Photon-number distribution of one mode (diagonal of its reduced state)."""
        reduced = partial_trace(self, keep=mode) if self.n_modes > 1 else self
        return np.clip(np.diag(reduced.matrix).real, 0.0, None)

    def effective_support(self, tail_tol: float = 1e-12, mode: int = 0) -> int:
        """Smallest s such that the photon-number tail mass above s is <= tail_tol."""
        probs = self.number_marginal(mode)
        tail = np.cumsum(probs[::-1])[::-1]
        above = np.concatenate([tail[1:], [0.0]])
        ok = np.nonzero(above <= tail_tol)[0]
        return int(ok[0]) if ok.size else len(probs) - 1


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product ρ_a ⊗ ρ_b; the first factor is the slow index."""
    mat = np.kron(a.matrix, b.matrix)
    deficit = 1.0 - a.trace() * b.trace()
    return DensityOperator(matrix=mat, dims=a.dims + b.dims, trace_deficit=max(deficit, 0.0))


def partial_trace(state: DensityOperator, keep) -> DensityOperator:
    """Trace out all modes except ``keep`` (an index or sequence of indices)."""
    if isinstance(keep, (int, np.integer)):
        keep = [int(keep)]
    keep = list(keep)
    n = state.n_modes
    if any(k < 0 or k >= n for k in keep):
        raise ValidationError(f"mode index out of range: keep={keep}, n_modes={n}")
    dims = state.dims
    t = state.matrix.reshape(dims + dims)
    traced = [m for m in range(n) if m not in keep]
    for count, m in enumerate(sorted(traced, reverse=True)):
        nm = n - count  # modes remaining before this trace
        t = np.trace(t, axis1=m, axis2=m + nm)
    sorted_dims = tuple(dims[k] for k in sorted(keep))
    d = int(np.prod(sorted_dims))
    # after tracing, the layout follows sorted mode order; restore keep order
    order = list(np.argsort(np.argsort(keep)))
    if order != list(range(len(keep))):
        t = t.reshape(sorted_dims + sorted_dims)
        t = t.transpose(order + [len(keep) + o for o in order])
    mat = t.reshape(d, d)
    mat = 0.5 * (mat + mat.conj().T)
    kept_dims = tuple(dims[k] for k in keep)
    return DensityOperator(matrix=mat, dims=kept_dims, trace_deficit=state.trace_deficit)


def pad_fock_level(state: DensityOperator) -> DensityOperator:
    """``state`` with one more empty Fock level per mode, on which commutators
    with the truncated quadratures are exact."""
    dims = tuple(d + 1 for d in state.dims)
    t = np.zeros(dims * 2, dtype=complex)
    t[tuple(slice(d) for d in state.dims * 2)] = state.matrix.reshape(state.dims * 2)
    d = int(np.prod(dims))
    return DensityOperator(t.reshape(d, d), dims, state.trace_deficit)


def purity_direct(rho: DensityOperator) -> float:
    """Tr ρ², evaluated as the squared Frobenius norm (ρ Hermitian)."""
    return float(np.sum(np.abs(rho.matrix) ** 2))


def log_factorial(n) -> np.ndarray:
    """ln n! elementwise, by ``math.lgamma``."""
    n = np.asarray(n)
    return np.array([math.lgamma(k + 1.0) for k in n.ravel().tolist()]).reshape(n.shape)


def _laguerre_step(g, g_prev, m: int, d, x):
    """G_{m+1,d}(x) from G_{m,d} and G_{m−1,d}."""
    return ((2 * m + d + 1 - x) * g
            - np.sqrt(m * (m + d)) * g_prev) / np.sqrt((m + 1) * (m + 1 + d))


def scaled_laguerre(x, d, count: int):
    """Yield G_{m,d}(x) = √(m!/(m+d)!) x^{d/2} e^{−x/2} L_m^{(d)}(x) for
    m = 0 … count − 1, broadcast over x and the band d (integers >= 0).

    With x = |β|², G_{m,d} is the modulus of the displacement matrix element
    ⟨m+d|D(β)|m⟩ (Cahill & Glauber 1969). The recurrence is Laguerre's three-term
    one, rescaled so that the Gaussian envelope and the 1/√((m+d)!) factor are in
    G_{0,d} from the start (kept in the log domain, so high bands neither
    overflow nor lose their scale) and every step stays O(1). Where G_{0,d}
    underflows (e^{−x/2} alone does once x ≳ 1,417), the same recurrence also
    runs on mantissas near 1 with their binary exponents carried apart, and
    those entries of G are the mantissas scaled back; the recurrence is linear,
    so scaling by powers of two is exact.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_power = np.where(d > 0, d * np.log(x), 0.0)  # ln x^d, with 0^0 = 1
    log_g = 0.5 * (log_power - log_factorial(d)) - 0.5 * x
    g = np.exp(log_g)
    g_prev = np.zeros_like(g)
    low = np.flatnonzero(np.isfinite(log_g) & (log_g < LOG_TINY))
    if low.size:
        xs, ds = (v if v.ndim == 0 else np.broadcast_to(v, g.shape).flat[low] for v in (x, d))
        exponent = np.floor(log_g.flat[low] / math.log(2.0)).astype(int)
        gs, gs_prev = np.exp(log_g.flat[low] - exponent * math.log(2.0)), np.zeros(low.size)
    for m in range(count):
        if low.size:
            g = np.asarray(g)
            g.flat[low] = np.ldexp(gs, exponent)
        yield g
        if m + 1 < count:
            g_prev, g = g, _laguerre_step(g, g_prev, m, d, x)
            if low.size:
                gs_prev, gs = gs, _laguerre_step(gs, gs_prev, m, ds, xs)
                shift = np.maximum(np.frexp(gs)[1], np.frexp(gs_prev)[1])
                gs, gs_prev = np.ldexp(gs, -shift), np.ldexp(gs_prev, -shift)
                exponent = exponent + shift


def displacement_operator(beta: complex, rows: int, cols: int) -> np.ndarray:
    """The exact elements ⟨m|D(β)|n⟩ of D(β) = exp(β a† − β* a) for m < rows and
    n < cols: G_{n,m−n}(|β|²) e^{i(m−n)φ} on and below the diagonal and
    G_{m,n−m}(|β|²) (−e^{−iφ})^{n−m} above it, with φ = arg β."""
    size = max(rows, cols)
    bands = np.arange(size)
    g = np.array(list(scaled_laguerre(abs(beta) ** 2, bands, min(rows, cols))))
    phi = np.angle(beta)
    down = np.exp(1j * bands * phi)
    up = (-1.0) ** bands * np.exp(-1j * bands * phi)
    m, n = np.ogrid[:rows, :cols]
    band = np.abs(m - n)
    return g[np.minimum(m, n), band] * np.where(m >= n, down[band], up[band])
