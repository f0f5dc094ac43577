"""Truncated Fock-space linear algebra.

Density operators on one or more bosonic modes truncated to a finite number
of Fock levels per mode. Conventions used throughout the package:

- quadratures x = (a + a†)/√2 and p = (a - a†)/(i√2), so that [x, p] = i on
  untruncated levels and x² + p² = 1 + 2n̂ (vacuum variance 1/2),
- tensor products put the first factor on the slow (leftmost) index,
- density operators carry their truncation trace deficit explicitly.

No ladder or quadrature matrix is built: ``lowering_commutators`` forms the
commutators [ρ, a_k] from shifted rows and columns of ρ.

One recurrence with binary exponents carried apart (``carried_recurrence``)
gives the scaled Laguerre functions and the Hermite functions of ``phase_space``
from log-domain starts (``log_power``). The Laguerre functions are the elements
of D(β) itself (``displacement_operator``), not of the exponential of a
truncated generator, so there is no headroom rule: what a displacement moves
past the cutoff shows up as trace deficit. Their rounding error grows with the
level, to about 1.5e-11 at level 1,023 for small |β| (see ``scaled_laguerre``).
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
# ln of a quarter of the least subnormal: a value below it rounds to 0, with
# room to spare for the rounding of the recurrence that computes it
LOG_ZERO = -1076 * math.log(2.0)


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
    ) -> "DensityOperator":
        matrix = np.asarray(matrix, dtype=complex)
        if dims is None:
            dims = (matrix.shape[0],)
        dims = tuple(int(d) for d in dims)
        with np.errstate(invalid="ignore"):  # a non-finite entry drifts by inf or NaN
            drift = np.max(np.abs(matrix - matrix.conj().T))
        if not drift <= 1e-8:
            raise ValidationError(f"matrix is not finite and Hermitian (drift {drift:.3e})")
        matrix = 0.5 * (matrix + matrix.conj().T)
        tr = float(np.trace(matrix).real)
        deficit = 1.0 - tr
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

    def number_marginal(self) -> np.ndarray:
        """Photon-number distribution of the first mode: the diagonal of ρ
        summed over the other modes."""
        diag = np.diagonal(self.matrix).real.reshape(self.dims[0], -1)
        return np.clip(diag.sum(axis=1), 0.0, None)


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product ρ_a ⊗ ρ_b; the first factor is the slow index."""
    mat = np.kron(a.matrix, b.matrix)
    deficit = 1.0 - a.trace() * b.trace()
    return DensityOperator(matrix=mat, dims=a.dims + b.dims, trace_deficit=max(deficit, 0.0))


def pad_fock_level(state: DensityOperator) -> DensityOperator:
    """``state`` with one more empty Fock level per mode, on which commutators
    with the truncated ladder operators are exact."""
    dims = tuple(d + 1 for d in state.dims)
    t = np.zeros(dims * 2, dtype=complex)
    t[tuple(slice(d) for d in state.dims * 2)] = state.matrix.reshape(state.dims * 2)
    d = int(np.prod(dims))
    return DensityOperator(t.reshape(d, d), dims, state.trace_deficit)


def lowering_commutators(rho: DensityOperator) -> list[np.ndarray]:
    """C_k = [ρ, a_k] for every mode k, on ρ padded by one Fock level per mode
    (``pad_fock_level``), where they are exact. a_k only shifts: ρa_k moves
    column n_k − 1 to column n_k, scaled by √n_k, and a_kρ moves row m_k + 1 to
    row m_k, scaled by √(m_k + 1). [ρ, a_k†] = −C_k†, so the C_k give the
    commutators with both quadratures."""
    padded = pad_fock_level(rho)
    n, size = padded.n_modes, padded.dim
    t = padded.matrix.reshape(padded.dims * 2)
    out = []
    for k, d in enumerate(padded.dims):
        root = np.sqrt(np.arange(1.0, d))
        c = np.zeros_like(t)
        # views with mode k's row and column indices last
        cv, tv = (np.moveaxis(v, (k, n + k), (-2, -1)) for v in (c, t))
        cv[..., 1:] = tv[..., :-1] * root
        cv[..., :-1, :] -= root[:, None] * tv[..., 1:, :]
        out.append(c.reshape(size, size))
    return out


def purity_direct(rho: DensityOperator) -> float:
    """Tr ρ², evaluated as the squared Frobenius norm (ρ Hermitian)."""
    return float(np.sum(np.abs(rho.matrix) ** 2))


def log_factorial(n) -> np.ndarray:
    """ln n! elementwise, by ``math.lgamma``."""
    n = np.asarray(n)
    return np.array([math.lgamma(k + 1.0) for k in n.ravel().tolist()]).reshape(n.shape)


def log_power(x, n) -> np.ndarray:
    """ln xⁿ = n·ln x elementwise, with 0⁰ = 1, for log-domain starts."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n == 0, 0.0, n * np.log(x))


def squared_modulus(z: complex) -> float:
    """|z|², or CutoffError where it overflows: no Fock cutoff holds such a state."""
    try:
        return abs(z) ** 2
    except OverflowError:
        raise CutoffError(f"|z|² overflows a double at |z| = {abs(z):.3g}") from None


def carried_recurrence(g, exponent, step, count: int):
    """Yield v_n = g_n·2^{e_n}, n < count, of the linear recurrence g_{n+1} = step(n, g_n,
    g_{n−1}) from g_0 = g, e_0 = exponent (int32, np.ldexp's fast loop), g_{−1} = 0. Each step
    divides both mantissas by 2 to the larger of their exponents, exactly, and adds it to e."""
    prev = np.zeros_like(g)
    for n in range(count):
        if n:
            prev, g = g, step(n - 1, g, prev)
            shift = np.maximum(np.frexp(g)[1], np.frexp(prev)[1])
            g, prev, exponent = np.ldexp(g, -shift), np.ldexp(prev, -shift), exponent + shift
        yield np.ldexp(g, exponent)


def scaled_laguerre(x, d, count: int):
    """Yield G_{m,d}(x) = √(m!/(m+d)!) x^{d/2} e^{−x/2} L_m^{(d)}(x) for
    m = 0 … count − 1, broadcast over x and the band d (integers >= 0).

    With x = |β|², G_{m,d} is the modulus of the displacement matrix element
    ⟨m+d|D(β)|m⟩ (Cahill & Glauber 1969). The recurrence is Laguerre's three-term
    one, rescaled so that the Gaussian envelope and the 1/√((m+d)!) factor are in
    G_{0,d} from the start (kept in the log domain, so high bands neither
    overflow nor lose their scale) and every step stays O(1). ``carried_recurrence``
    runs it: a G_{0,d} that underflows (e^{−x/2} does past x ≈ 1,417) carries its
    binary exponent, and a normal one starts at exponent 0.

    Rounding errors build up over the steps, fastest at small x, where the
    recurrence is close to one with a double root. Against mpmath, at 1,024
    levels and bands 0, 1 and 5, G_{1023,0}(10⁻⁴) ≈ 0.90 is off by 1.5e-11
    (about 5 digits lost) and no G_{m,d}(13) by more than 1.5e-15.
    """
    x, d = np.asarray(x, dtype=float), np.asarray(d)
    log_g = 0.5 * (log_power(x, d) - log_factorial(d)) - 0.5 * x
    # floored at −2³⁰ to stay in int32: a start below has mantissa 0, as G rounds to 0
    exponent = np.where(log_g < LOG_TINY, np.floor(np.maximum(log_g / math.log(2.0), -2.0 ** 30)),
                        0).astype(np.int32)

    def step(m, g, g_prev):
        return (((2 * m + d + 1 - x) * g - np.sqrt(m * (m + d)) * g_prev)
                / np.sqrt((m + 1) * (m + 1 + d)))

    return carried_recurrence(np.exp(log_g - exponent * math.log(2.0)), exponent, step, count)


def displacement_operator(beta: complex, rows: int, cols: int) -> np.ndarray:
    """The elements ⟨m|D(β)|n⟩ of D(β) = exp(β a† − β* a) for m < rows and
    n < cols, untruncated and accurate to ``scaled_laguerre``'s rounding (about
    1.5e-11 near level 1,000 for small |β|):
    G_{n,m−n}(|β|²) e^{i(m−n)φ} on and below the diagonal and
    G_{m,n−m}(|β|²) (−e^{−iφ})^{n−m} above it, with φ = arg β. Since
    |L_m^{(d)}(x)| <= C(m+d, m) e^{x/2}, |G_{m,d}| <= x^{d/2} √((m+d)!/m!)/d!;
    the bands where that bound stays below e^LOG_ZERO for every m < min(rows, cols)
    round to zero and are not run."""
    size, count = max(rows, cols), min(rows, cols)
    x, phi = squared_modulus(beta), np.angle(beta)
    bands = np.arange(size)
    log_bound = 0.5 * log_power(x, bands) \
        + 0.5 * (log_factorial(count - 1 + bands) - log_factorial(count - 1)) \
        - log_factorial(bands)
    live = 1 + int(np.flatnonzero(log_bound > LOG_ZERO)[-1])
    g = np.array(list(scaled_laguerre(x, bands[:live], count)))  # g[n, d] = G_{n,d}
    down = np.exp(1j * bands[:live] * phi)
    up = (-1.0) ** bands[:live] * down.conj()
    out = np.zeros((rows, cols), dtype=complex)
    for n in range(count):  # column n on and below the diagonal, row n above it
        below, above = min(live, rows - n), min(live, cols - n)
        out[n:n + below, n] = g[n, :below] * down[:below]
        out[n, n + 1:n + above] = g[n, 1:above] * up[1:above]
    return out
