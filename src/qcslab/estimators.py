"""The computational routes to the QCS and purity.

All routes return a :class:`QcsEstimate` tagging the method, numerator and
denominator, so a benchmark sweep can cross-validate them against each other:

- direct: commutator definition on the density matrix,
- two_copy: the alternating photon-number sums of the interferometric scheme,
- wigner_laplacian: −¼ΔW_d(0)/W_d(0) on the difference-mode Wigner function,
  read from the same p_n (both origin values are parity traces of ρ_d), so
  it is the two-copy formula written as a ratio, not an independent check,
- pure_shortcut: 1 + 2(⟨a†a⟩ - |⟨a⟩|²) for pure states,
- classical_mixture: closed form for finite coherent mixtures,
- gaussian: covariance-matrix fast path,
- multimode: the two-copy formula on the joint p_n of the stacked beam
  splitters, with the total parity and n averaged over the N modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominatorError, ValidationError
from .fock import DensityOperator, lowering_commutators, purity_direct
from .interferometer import PhotonDistribution, _parity_terms, photon_distribution
from .states import ClassicalMixture, CovarianceMatrix

METHODS = ("direct", "two_copy", "pure_shortcut", "wigner_gradient",
           "wigner_laplacian", "gaussian", "classical_mixture", "sampled")

DENOMINATOR_FLOOR = 1e-9


@dataclass(frozen=True)
class QcsEstimate:
    """A QCS² value, the route that produced it, and its ratio decomposition."""

    c_squared: float
    method: str
    numerator: float
    denominator: float

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")

    def to_dict(self) -> dict:
        return {"c_squared": self.c_squared, "method": self.method,
                "numerator": self.numerator, "denominator": self.denominator}


def qcs_direct(rho: DensityOperator) -> QcsEstimate:
    """Commutator form: C² = Σ_k Σ_{r=x,p} Tr([ρ, r_k][r_k, ρ]) / (2N Tr ρ²),
    with the commutators formed one Fock level above the cutoff, where they are
    exact. [ρ, r] is anti-Hermitian, so Tr([ρ,r][r,ρ]) = ‖[ρ,r]‖²_F, and with
    C_k = [ρ, a_k] the x and p terms of mode k sum to 2‖C_k‖²_F."""
    purity = purity_direct(rho)
    if purity < 1e-10:
        raise DegenerateDenominatorError(f"purity {purity:.3e} below resolution")
    commutators = lowering_commutators(rho)
    numerator = sum(float(np.sum(np.abs(c) ** 2)) for c in commutators) / rho.n_modes
    return QcsEstimate(c_squared=numerator / purity, method="direct",
                       numerator=numerator, denominator=purity)


def purity_from_pn(pn: PhotonDistribution) -> float:
    """Purity as the total-parity sum Σ (-1)ⁿ p_n (compensated summation)."""
    _, signs, probs = _parity_terms(pn.probs)
    return math.fsum(signs * probs)


def qcs_two_copy(pn: PhotonDistribution) -> QcsEstimate:
    """Two-copy interferometric formula C² = 1 + 2 Σ n̄(-1)ⁿp_n / Σ (-1)ⁿp_n,
    with n the total count and n̄ = n/N its mean over the N modes."""
    n, signs, probs = _parity_terms(pn.probs)
    den = math.fsum(signs * probs)
    if abs(den) < DENOMINATOR_FLOOR:
        raise DegenerateDenominatorError(
            f"alternating sum {den:.3e} below resolution; purity not resolvable "
            "at this cutoff/statistics")
    mean_alt = math.fsum(n * signs * probs) / pn.probs.ndim
    numerator = math.fsum((1.0 + 2.0 * n / pn.probs.ndim) * signs * probs)
    return QcsEstimate(c_squared=1.0 + 2.0 * mean_alt / den, method="two_copy",
                       numerator=numerator, denominator=den)


def qcs_wigner_laplacian(pn: PhotonDistribution) -> QcsEstimate:
    """Origin-Laplacian route C² = −¼ΔW_d(0)/W_d(0). From the Weyl transforms
    of (−1)^n̂ and (x²+p²)(−1)^n̂, πW_d(0) = Σ(−1)ⁿp_n and −¼πΔW_d(0) =
    Σ(−1)ⁿ(1+2n)p_n: the two-copy denominator and numerator."""
    est = qcs_two_copy(pn)
    return QcsEstimate(c_squared=est.numerator / est.denominator, method="wigner_laplacian",
                       numerator=est.numerator, denominator=est.denominator)


def qcs_pure_shortcut(psi: np.ndarray) -> QcsEstimate:
    """Pure-state shortcut C² = 1 + 2(⟨a†a⟩ - |⟨a⟩|²)."""
    psi = np.asarray(psi, dtype=complex)
    norm = float(np.vdot(psi, psi).real)
    if abs(norm - 1.0) > 1e-6:
        raise ValidationError(f"state vector norm {norm} is not 1")
    n = np.arange(len(psi))
    mean_num = float(np.vdot(psi, n * psi).real)
    mean_a = np.vdot(psi[:-1], np.sqrt(n[1:]) * psi[1:])
    thermal_photons = mean_num - abs(mean_a) ** 2
    c2 = 1.0 + 2.0 * thermal_photons
    return QcsEstimate(c_squared=c2, method="pure_shortcut",
                       numerator=c2, denominator=1.0)


def qcs_classical_mixture(mix: ClassicalMixture) -> QcsEstimate:
    """Closed form for a finite coherent mixture: the difference-mode P function
    has support (α_j - α_i)/√2 with weights w_i w_j; with D_ij = |α_i - α_j|²
    this gives C² = 1 - ⟨D e^{-D}⟩ / ⟨e^{-D}⟩ (coherent-state parity overlaps
    e^{-2|γ|²} with |γ_ij|² = D_ij / 2)."""
    den_terms = []
    extra_terms = []
    for wi, ai in zip(mix.weights, mix.amplitudes):
        for wj, aj in zip(mix.weights, mix.amplitudes):
            try:
                d2 = abs(aj - ai) ** 2
            except OverflowError:  # |α_j − α_i| past a double: no overlap
                d2 = math.inf
            weight = wi * wj * np.exp(-d2)
            den_terms.append(weight)
            extra_terms.append(weight * d2 if weight else 0.0)
    den = math.fsum(den_terms)
    extra = math.fsum(extra_terms)
    return QcsEstimate(c_squared=1.0 - extra / den, method="classical_mixture",
                       numerator=den - extra, denominator=den)


def qcs_multimode(rho: DensityOperator) -> QcsEstimate:
    """Stacked-beam-splitter QCS of an N-mode state, ``qcs_two_copy`` on the joint p_n:
    C² = (1/N) Σ_k Tr(ρ_d (1+2n̂_{d_k}) (-1)^n̂) / Tr(ρ_d (-1)^n̂), n̂ = Σ_j n̂_{d_j}."""
    return qcs_two_copy(photon_distribution(rho, rho))


# --- Gaussian fast path (vacuum covariance = I/2) ---

def _log_det(gamma: np.ndarray, what: str) -> float:
    """ln det γ: det γ itself overflows for valid states far from vacuum scale
    (1e300·I/2 has det 2.5e599)."""
    sign, log_det = np.linalg.slogdet(gamma)
    if sign <= 0:
        raise ValidationError(f"{what} must be positive definite")
    return float(log_det)


def purity_gaussian(gamma: CovarianceMatrix) -> float:
    """P = 1 / (2^N √det γ)."""
    log_det = _log_det(gamma.gamma, "covariance matrix")
    return math.exp(-gamma.n_modes * math.log(2.0) - 0.5 * log_det)


def overlap_gaussian(ga: CovarianceMatrix, gb: CovarianceMatrix) -> float:
    """Tr(ρ_a ρ_b) = exp(-δᵀ(γa+γb)⁻¹δ/2) / √det(γa+γb)."""
    if ga.gamma.shape != gb.gamma.shape:
        raise ValidationError("covariance matrices must have equal dimension")
    total = ga.gamma + gb.gamma
    log_det = _log_det(total, "γa + γb")
    delta = ga.mean - gb.mean
    quad = float(delta @ np.linalg.solve(total, delta))
    return math.exp(-0.5 * quad - 0.5 * log_det)


def qcs_gaussian(gamma: CovarianceMatrix) -> QcsEstimate:
    """C² = Tr(γ⁻¹)/4 (per mode pair, divided by the mode count)."""
    purity = purity_gaussian(gamma)
    trace_inv = float(np.trace(np.linalg.inv(gamma.gamma)))
    c2 = trace_inv / (4.0 * gamma.n_modes)
    return QcsEstimate(c_squared=c2, method="gaussian",
                       numerator=c2 * purity, denominator=purity)
