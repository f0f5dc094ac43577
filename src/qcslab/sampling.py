"""Finite-shot simulation of the photon-counting experiment.

Counts are multinomial draws from p_n (numpy PCG64, seeded); the QCS is the
plug-in estimator on empirical frequencies, with a seeded nonparametric
bootstrap for the statistical error. The record is drawn from
``default_rng(seed)``. The bootstrap draws every resample, in order, from one
PCG64 generator on the first spawn child ``SeedSequence(seed).spawn(1)[0]``, a
stream independent of the record's, so results are reproducible. Resamples
are drawn over the levels up to the highest occupied one, in row blocks that
bound memory at any resample count; blocked draws equal a single call. Each
resample's counts c_n are reduced to the exact integer sums Σ(−1)ⁿc_n and
Σ(−1)ⁿn·c_n, so its C² is one rounding of 1 + 2·N/D and the zero and sign
tests on D are exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominatorError, ValidationError
from .estimators import DENOMINATOR_FLOOR, qcs_two_copy
from .interferometer import PhotonDistribution
from .params import _integer

RNG_ALGORITHM = "numpy.random.PCG64"
SCHEMA_VERSION = 1
DEFAULT_RESAMPLES = 1000
_BLOCK_ROWS = 4096  # resamples drawn per multinomial call


@dataclass(frozen=True)
class ShotRecord:
    """Histogram of photon counts from a finite number of shots: non-negative
    integer counts summing to ``shots`` (>= 1), drawn with ``seed`` (>= 0)."""

    counts: np.ndarray
    shots: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "shots", _integer(self.shots, "shots", minimum=1))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        try:
            counts = np.asarray(self.counts)
        except ValueError as exc:  # a ragged list
            raise ValidationError(f"counts must be a list of integers: {exc}") from exc
        if (counts.ndim != 1 or not np.issubdtype(counts.dtype, np.integer)
                or (counts < 0).any()):
            raise ValidationError("counts must be a list of non-negative integers")
        counts = counts.astype(np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.sum() != self.shots:
            raise ValidationError("counts must sum to shots")

    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots

    def to_json(self) -> str:
        return json.dumps({"schema": SCHEMA_VERSION, "rng": RNG_ALGORITHM,
                           "seed": self.seed, "shots": self.shots,
                           "counts": self.counts.tolist()}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ShotRecord":
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ValidationError(f"invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError("shot record must be a JSON object")
        if doc.get("schema") != SCHEMA_VERSION:
            raise ValidationError(f"unsupported schema version {doc.get('schema')!r}")
        for key in ("counts", "shots", "seed"):
            if key not in doc:
                raise ValidationError(f"shot record missing {key!r}")
        return cls(counts=doc["counts"], shots=doc["shots"], seed=doc["seed"])


@dataclass(frozen=True)
class SampledEstimate:
    """Plug-in QCS² with bootstrap standard error and 95% percentile CI."""

    c_squared: float
    std_error: float
    ci_low: float
    ci_high: float
    shots: int
    resamples: int
    seed: int
    denominator_unstable: bool = False

    def to_dict(self) -> dict:
        return {"c_squared": self.c_squared, "method": "sampled",
                "std_error": self.std_error, "ci_low": self.ci_low,
                "ci_high": self.ci_high, "shots": self.shots,
                "resamples": self.resamples, "seed": self.seed,
                "rng": RNG_ALGORITHM,
                "denominator_unstable": self.denominator_unstable}


def sample_counts(pn: PhotonDistribution, shots: int, seed: int) -> ShotRecord:
    """Multinomial draw from a single-mode p_n (renormalized over its support)."""
    if pn.probs.ndim != 1:
        raise ValidationError(f"sample_counts needs a single-mode p_n, got {pn.probs.ndim} modes")
    shots = _integer(shots, "shots", minimum=1)
    seed = _integer(seed, "seed")
    probs = pn.probs / pn.probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return ShotRecord(counts=counts, shots=shots, seed=seed)


def _percentiles(values: np.ndarray, qs) -> list[float]:
    """``np.percentile(values, qs)`` (its default linear rule, bit for bit) from
    one sort, for at least two values and 0 ≤ q < 100; ``np.percentile`` itself
    imports ``numpy.ma`` through ``np.unique``. Between neighbours a ≤ b at
    v = (n − 1)·q/100 with t = v − ⌊v⌋ the value is a + (b − a)t, or
    b − (b − a)(1 − t) when t ≥ ½, as numpy's ``_lerp`` computes it."""
    ordered = np.sort(values)
    out = []
    for q in qs:
        v = (len(ordered) - 1) * (q / 100)
        i = math.floor(v)
        a, b, t = float(ordered[i]), float(ordered[i + 1]), v - i
        out.append(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))
    return out


def estimate_qcs(rec: ShotRecord, resamples: int = DEFAULT_RESAMPLES) -> SampledEstimate:
    """Plug-in QCS² on the empirical frequencies with a seeded bootstrap CI."""
    if rec.shots < 100:
        raise ValidationError(f"need at least 100 shots, got {rec.shots}")
    resamples = _integer(resamples, "resamples", minimum=2)
    freqs = rec.frequencies()
    top = int(np.flatnonzero(rec.counts)[-1]) + 1  # one past the highest occupied level
    if int(rec.shots) * (top - 1) > np.iinfo(np.int64).max:
        raise ValidationError(f"{rec.shots} shots over {top} levels overflow int64 sums")
    point = qcs_two_copy(PhotonDistribution(probs=freqs))
    if abs(point.denominator) < DENOMINATOR_FLOOR:
        raise DegenerateDenominatorError(
            f"empirical alternating sum {point.denominator:.3e} below resolution")
    n = np.arange(top)
    weights = np.column_stack([(-1) ** n, n * (-1) ** n])
    rng = np.random.default_rng(np.random.SeedSequence(rec.seed).spawn(1)[0])
    sums = np.empty((resamples, 2), dtype=np.int64)
    for start in range(0, resamples, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, resamples - start)
        sums[start:start + rows] = rng.multinomial(rec.shots, freqs[:top], size=rows) @ weights
    den, num = sums.T
    boots = 1.0 + np.divide(2.0 * num, den, out=np.full(resamples, np.nan), where=den != 0)
    unstable = bool(np.any((den * point.denominator <= 0)
                           | (np.abs(den) / rec.shots < DENOMINATOR_FLOOR)))
    finite = boots[np.isfinite(boots)]
    if len(finite) < 2:
        raise DegenerateDenominatorError("bootstrap denominators collapsed to zero")
    ci_low, ci_high = _percentiles(finite, (2.5, 97.5))
    return SampledEstimate(
        c_squared=point.c_squared, std_error=float(finite.std(ddof=1)),
        ci_low=ci_low, ci_high=ci_high, shots=rec.shots,
        resamples=resamples, seed=rec.seed, denominator_unstable=unstable)

