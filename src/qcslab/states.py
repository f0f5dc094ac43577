"""Constructors for the benchmark state families.

Every constructor returns a valid :class:`~qcslab.fock.DensityOperator` with
its truncation trace deficit recorded. ``displace`` applies the exact elements
of D(β) (``fock.displacement_operator``), so a displaced state has its true
deficit too and no accuracy domain in |β|. Gaussian covariance parametrizations
(vacuum = I/2) are provided for the Gaussian fast path.

``KINDS`` is the one place that knows what a state kind is: each row parses
and validates the kind's parameters and gives its Fock-space constructor, ⟨n̂⟩,
covariance, top Fock level, Fock amplitudes when the spec is pure and a
closed-form two-copy p_n. A :class:`StateSpec` is parsed once, when it is
made; everything downstream reads the row.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import CutoffError, ValidationError
from .fock import (DEFAULT_DEFICIT_TOL, DensityOperator, displacement_operator, log_factorial,
                   log_power, purity_direct, squared_modulus)
from .interferometer import (PhotonDistribution, photon_distribution,
                             thermal_photon_distribution)

SCHEMA_VERSION = 1
CUTOFF_TAIL_TOL = 1e-9  # photon-number tail mass the default cutoff leaves out
# Σ n p_n it leaves out: cutting that tail moves a pure state's C² by about
# twice it, so the probe's tail and the mass past the probe stay within
# compare's 1e-6 against the untruncated Gaussian closed form
CUTOFF_N_TAIL_TOL = 2e-7
PROBE_MAX_DIM = 1024  # largest state the default-cutoff probe builds
PURE_TOL = 1e-9  # Tr ρ² this close to (1 − deficit)² marks a pure probe


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
    the norm, 1 − ‖v‖², past the cutoff."""
    deficit = 1.0 - float(np.vdot(vec, vec).real)
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


def fock(n: int, cutoff: int) -> DensityOperator:
    if not 0 <= n < cutoff:
        raise CutoffError(f"Fock level {n} does not fit cutoff {cutoff}")
    vec = np.zeros(cutoff, dtype=complex)
    vec[n] = 1.0
    return _pure(vec, deficit_tol=0.0)


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


# --- parameter parsing: each converter validates one value and names its key ---

def _real(v, key: str) -> float:
    try:
        x = float(v) if isinstance(v, numbers.Real) and not isinstance(v, bool) else math.nan
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValidationError(f"{key!r} must be a finite real number, got {v!r}")
    return x


def _integer(v, key: str, minimum: int = 0) -> int:
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < minimum:
        raise ValidationError(f"{key!r} must be an integer >= {minimum}, got {v!r}")
    return int(v)


def parse_cutoff(v) -> int | None:
    """A pinned Fock cutoff (state file, flag or config value): None or an integer >= 2."""
    return None if v is None else _integer(v, "cutoff", minimum=2)


def _complex(v, key: str) -> complex:
    """A number or an [re, im] pair."""
    try:
        if isinstance(v, (list, tuple)) and len(v) == 2:
            return complex(_real(v[0], key), _real(v[1], key))
        if isinstance(v, numbers.Complex) and not isinstance(v, numbers.Real) \
                and cmath.isfinite(v):
            return complex(v)
        return complex(_real(v, key))
    except ValidationError:
        raise ValidationError(
            f"{key!r} must be a finite number or an [re, im] pair, got {v!r}") from None


def _items(v, key: str, convert) -> list:
    if not isinstance(v, (list, tuple)):
        raise ValidationError(f"{key!r} must be a list, got {v!r}")
    return [convert(x, key) for x in v]


def _base_state(v, key: str) -> "StateSpec":
    """The state a displaced spec displaces: a {kind, params} document."""
    if isinstance(v, dict) and "kind" in v:
        v = StateSpec(v["kind"], v.get("params", {}))
    if not isinstance(v, StateSpec):
        raise ValidationError(f"{key!r} must be a state document with a 'kind', got {v!r}")
    if KINDS[v.kind].build is None:
        raise ValidationError(f"{key!r} must have a Fock-space constructor, not kind {v.kind!r}")
    return v


def _fields(**converters):
    """Parser for a kind whose parameters are all required and independent."""
    return lambda p: {key: convert(p[key], key) for key, convert in converters.items()}


def _parse_thermal(p: dict) -> dict:
    given = {key: _real(p[key], key) for key in ("q", "mean_n") if key in p}
    thermal_parameters(**given)
    return given


def _mixture(p: dict) -> ClassicalMixture:
    return ClassicalMixture(tuple(p["weights"]), tuple(p["amplitudes"]))


def _parse_mixture(p: dict) -> dict:
    parsed = {"weights": _items(p["weights"], "weights", _real),
              "amplitudes": _items(p["amplitudes"], "amplitudes", _complex)}
    _mixture(parsed)
    return parsed


def _parse_gaussian(p: dict) -> dict:
    parsed = {"gamma": _items(p["gamma"], "gamma", partial(_items, convert=_real)),
              "mean": None if p.get("mean") is None else _items(p["mean"], "mean", _real)}
    CovarianceMatrix(**parsed)
    return parsed


def _displaced_amplitudes(p: dict) -> Callable[[int], np.ndarray] | None:
    """D(β)ψ of a displaced spec whose base has amplitudes ψ at the same cutoff."""
    base = spec_amplitudes(p["base"])
    return base and (lambda dim: displace_amplitudes(base(dim), p["beta"]))


# --- the state-kind table ---

@dataclass(frozen=True)
class Kind:
    """What a state kind is: how its parameters parse and what they determine.
    Every function takes the canonical parameters that ``parse`` returned."""

    parse: Callable[[dict], dict]  # validates raw params, returns the canonical ones
    build: Callable[[dict, int, float], DensityOperator] | None  # (params, dim, deficit_tol)
    mean_n: Callable[[dict], float] | None
    covariance: Callable[[dict], CovarianceMatrix] | None = None
    top_level: Callable[[dict], int] | None = None  # highest occupied Fock level
    # for a spec that may be pure: its Fock amplitudes ψ_0 … ψ_{dim−1} as a
    # function of dim, or None when these params give a mixed state
    amplitudes: Callable[[dict], Callable[[int], np.ndarray] | None] | None = None
    mixture: Callable[[dict], ClassicalMixture] | None = None
    # closed-form two-copy difference-mode p_n at cutoff dim, in place of the kernel
    two_copy_pn: Callable[[dict, int], PhotonDistribution] | None = None


KINDS = {
    "coherent": Kind(
        _fields(alpha=_complex),
        lambda p, dim, tol: coherent(p["alpha"], dim, tol),
        lambda p: squared_modulus(p["alpha"]),
        covariance=lambda p: CovarianceMatrix(
            0.5 * np.eye(2), np.sqrt(2.0) * np.array([p["alpha"].real, p["alpha"].imag])),
        amplitudes=lambda p: partial(coherent_amplitudes, p["alpha"])),
    "fock": Kind(
        _fields(n=_integer),
        lambda p, dim, tol: fock(p["n"], dim),
        lambda p: float(p["n"]),
        top_level=lambda p: p["n"], amplitudes=lambda p: lambda dim: np.eye(1, dim, p["n"])[0]),
    "thermal": Kind(
        _parse_thermal,
        lambda p, dim, tol: thermal(**p, cutoff=dim, deficit_tol=tol),
        lambda p: thermal_parameters(**p)[1],
        covariance=lambda p: CovarianceMatrix((0.5 + thermal_parameters(**p)[1]) * np.eye(2)),
        two_copy_pn=lambda p, dim: thermal_photon_distribution(
            thermal_parameters(**p)[0], 2 * dim)),
    "squeezed_vacuum": Kind(
        _fields(r=_real),
        lambda p, dim, tol: squeezed_vacuum(p["r"], dim, tol),
        lambda p: float(np.sinh(p["r"]) ** 2),
        covariance=lambda p: CovarianceMatrix(
            0.5 * np.diag([np.exp(2 * p["r"]), np.exp(-2 * p["r"])])),
        amplitudes=lambda p: partial(squeezed_amplitudes, p["r"])),
    "rho_2M": Kind(
        _fields(M=partial(_integer, minimum=1)),
        lambda p, dim, tol: rho_2m(p["M"], dim),
        lambda p: p["M"] + 0.5,
        top_level=lambda p: 2 * p["M"]),
    "rho_even_M": Kind(
        _fields(M=partial(_integer, minimum=1)),
        lambda p, dim, tol: rho_even_m(p["M"], dim),
        lambda p: p["M"] + 1.0,
        top_level=lambda p: 2 * p["M"]),
    "mixture": Kind(
        _parse_mixture,
        lambda p, dim, tol: classical_mixture(_mixture(p), dim, tol),
        lambda p: float(sum(w * squared_modulus(a) for w, a in zip(p["weights"], p["amplitudes"]))),
        mixture=_mixture),
    "displaced": Kind(
        _fields(base=_base_state, beta=_complex),
        lambda p, dim, tol: displace(build_state(p["base"], cutoff=dim, deficit_tol=tol),
                                     p["beta"], tol),
        lambda p: mean_photon_number(p["base"]) + squared_modulus(p["beta"]),
        amplitudes=_displaced_amplitudes,
        # two copies displaced alike leave the difference mode undisplaced,
        # (μ − μ)/√2 = 0, so the pair's p_n is the base's at the same cutoff
        two_copy_pn=lambda p, dim: two_copy_pn(p["base"], dim)),
    "gaussian": Kind(_parse_gaussian, None, None, covariance=lambda p: CovarianceMatrix(**p)),
}


def _json_value(obj):
    """json.dumps hook for the canonical parameter values."""
    if isinstance(obj, complex):
        return obj.real if obj.imag == 0 else [obj.real, obj.imag]
    if isinstance(obj, StateSpec):
        return {"kind": obj.kind, "params": obj.params}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# --- declarative state specification (the CLI input record) ---

@dataclass(frozen=True)
class StateSpec:
    """Declarative benchmark-state description; serialized as versioned JSON.
    Construction parses ``params`` once: afterwards they hold the canonical
    values of the kind's table row (complex numbers as ``complex``, a displaced
    base as a StateSpec, thermal states by the one of q / mean_n given)."""

    kind: str
    params: dict
    cutoff: int | None = None

    def __post_init__(self):
        row = KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if row is None:
            raise ValidationError(f"unknown state kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise ValidationError(f"kind {self.kind!r}: params must be a JSON object")
        try:
            params = row.parse(self.params)
        except KeyError as exc:
            raise ValidationError(f"kind {self.kind!r}: missing parameter {exc}") from exc
        except ValidationError as exc:
            raise ValidationError(f"kind {self.kind!r}: {exc}") from exc
        unknown = sorted(map(repr, self.params.keys() - params.keys()))
        if unknown:
            raise ValidationError(f"kind {self.kind!r}: unknown parameter {', '.join(unknown)}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "cutoff", parse_cutoff(self.cutoff))

    def to_json(self) -> str:
        return json.dumps(
            {"schema": SCHEMA_VERSION, "kind": self.kind, "params": self.params,
             "cutoff": self.cutoff},
            indent=2, sort_keys=True, default=_json_value)

    @classmethod
    def from_json(cls, text: str) -> "StateSpec":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError("state spec must be a JSON object")
        if doc.get("schema") != SCHEMA_VERSION:
            raise ValidationError(f"unsupported schema version {doc.get('schema')!r}")
        if "kind" not in doc:
            raise ValidationError("state spec missing 'kind'")
        return cls(kind=doc["kind"], params=doc.get("params", {}), cutoff=doc.get("cutoff"))


def mean_photon_number(spec: StateSpec) -> float:
    """Rough ⟨n̂⟩ of a spec, used for default-cutoff selection."""
    mean_n = KINDS[spec.kind].mean_n
    if mean_n is None:
        raise ValidationError(f"no Fock-space mean photon number for kind {spec.kind!r}")
    return mean_n(spec.params)


def gaussian_covariance(spec: StateSpec) -> CovarianceMatrix:
    """Covariance matrix of a Gaussian StateSpec (coherent/thermal/squeezed/gaussian)."""
    covariance = KINDS[spec.kind].covariance
    if covariance is None:
        raise ValidationError(f"no Gaussian covariance for state kind {spec.kind!r}")
    return covariance(spec.params)


def spec_amplitudes(spec: StateSpec) -> Callable[[int], np.ndarray] | None:
    """The Fock amplitudes ψ_0 … ψ_{dim−1} of a pure spec as a function of dim:
    a pure kind's, or D(β)ψ of a displaced pure base. None for any other spec."""
    amplitudes = KINDS[spec.kind].amplitudes
    return amplitudes and amplitudes(spec.params)


def two_copy_pn(spec: StateSpec, dim: int,
                state: DensityOperator | None = None) -> PhotonDistribution:
    """Difference-mode p_n at cutoff dim: the kind's closed form if it has one,
    the block kernel on the state otherwise (``state`` if given, else built)."""
    closed_form = KINDS[spec.kind].two_copy_pn
    if closed_form:
        return closed_form(spec.params, dim)
    rho = build_state(spec, cutoff=dim) if state is None else state
    return photon_distribution(rho, rho)


def _support(weights: np.ndarray, tail_tol: float) -> int:
    """Smallest s with Σ_{n > s} weights_n <= tail_tol."""
    above = np.append(np.cumsum(weights[::-1])[::-1][1:], 0.0)
    return int(np.argmax(above <= tail_tol))


def recommended_cutoff(spec: StateSpec) -> int:
    """Default cutoff, the one-copy rule: 2·top + 4 for a kind with a top level,
    and otherwise max(ceil(4(⟨n̂⟩+3)), s + 2). A probe leaves at most
    CUTOFF_TAIL_TOL of probability and CUTOFF_N_TAIL_TOL of ⟨n̂⟩ above level s
    (slow tails, like thermal and strongly squeezed ones); it doubles, up to
    PROBE_MAX_DIM levels, while the mass its own truncation cuts off exceeds
    either. A pure spec's probe is |ψ_n|² of its amplitudes (``spec_amplitudes``:
    a pure kind or a displaced pure base); any other spec's is the diagonal of
    a state built at the probe's size. A kind with a top
    level has support s <= top, so a probe could not raise its cutoff and none
    is built. The two-copy kernel is exact at any cutoff, so the pair needs no
    more levels than one copy. CutoffError when the largest probe still cuts
    off more than either bound and the cutoff reaches PROBE_MAX_DIM, or the
    probe is pure (a pure spec, or Tr ρ² = (1 − deficit)² within PURE_TOL):
    the probe cannot show where the tail ends."""
    row = KINDS[spec.kind]
    if row.top_level is not None:
        return 2 * row.top_level(spec.params) + 4
    amplitudes = spec_amplitudes(spec)
    with np.errstate(over="ignore"):  # sinh² r past a double reads inf
        mean = mean_photon_number(spec)
    if not math.isfinite(mean):
        raise CutoffError(f"⟨n̂⟩ = {mean} overflows a double: no Fock cutoff holds the state")
    base = math.ceil(4.0 * (mean + 3.0))
    probe_dim = min(max(4 * base, 64), PROBE_MAX_DIM)
    while True:
        if amplitudes:
            amps = amplitudes(probe_dim)
            probs = (amps * amps.conj()).real
            deficit = max(1.0 - float(np.sum(probs)), 0.0)
        else:
            probe = build_state(spec, cutoff=probe_dim, deficit_tol=1.0)
            probs, deficit = probe.number_marginal(), probe.trace_deficit
        # the mass past the probe sits at levels >= probe_dim
        tail_cut = deficit > min(CUTOFF_TAIL_TOL, CUTOFF_N_TAIL_TOL / probe_dim)
        if not tail_cut or probe_dim == PROBE_MAX_DIM:
            break
        probe_dim = min(2 * probe_dim, PROBE_MAX_DIM)
    cutoff = max(base, _support(probs, CUTOFF_TAIL_TOL) + 2,
                 _support(np.arange(probe_dim) * probs, CUTOFF_N_TAIL_TOL) + 2)
    # a pure state's C² reads its own tail, not the tail of ρ², so no cutoff
    # inside a probe that cuts too much is safe for it
    if tail_cut and (cutoff >= PROBE_MAX_DIM or amplitudes
                     or purity_direct(probe) >= (1.0 - deficit) ** 2 - PURE_TOL):
        raise CutoffError(
            f"default cutoff: {deficit:.1e} of the trace lies past the "
            f"{PROBE_MAX_DIM} levels the cutoff probe builds; pass --cutoff")
    return cutoff


def build_state(spec: StateSpec, *, cutoff: int | None = None,
                deficit_tol: float = DEFAULT_DEFICIT_TOL) -> DensityOperator:
    """Construct the density operator described by a StateSpec."""
    build = KINDS[spec.kind].build
    if build is None:
        raise ValidationError(
            f"kind {spec.kind!r} has no Fock-space constructor; use the Gaussian route")
    pinned = parse_cutoff(cutoff if cutoff is not None else spec.cutoff)
    return build(spec.params, recommended_cutoff(spec) if pinned is None else pinned, deficit_tol)
