import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qcslab import (
    DegenerateDenominatorError,
    PhotonDistribution,
    SampledEstimate,
    ShotRecord,
    ValidationError,
    estimate_qcs,
    qcs_two_copy,
    sample_counts,
    thermal_photon_distribution,
)
from qcslab.estimators import DENOMINATOR_FLOOR
from qcslab.sampling import _BLOCK_ROWS, _percentiles


def test_sampling_is_deterministic():
    pn = thermal_photon_distribution(0.5, 60)
    a = sample_counts(pn, 10_000, seed=42)
    b = sample_counts(pn, 10_000, seed=42)
    assert np.array_equal(a.counts, b.counts)
    c = sample_counts(pn, 10_000, seed=43)
    assert not np.array_equal(a.counts, c.counts)


def test_counts_sum_to_shots():
    pn = thermal_photon_distribution(0.3, 40)
    rec = sample_counts(pn, 5_000, seed=1)
    assert rec.counts.sum() == 5_000
    with pytest.raises(ValidationError):
        ShotRecord(counts=np.array([1, 2]), shots=5, seed=0)


def test_shot_record_json_roundtrip():
    rec = sample_counts(thermal_photon_distribution(0.5, 30), 1_000, seed=9)
    back = ShotRecord.from_json(rec.to_json())
    assert np.array_equal(back.counts, rec.counts)
    assert back.shots == rec.shots and back.seed == rec.seed
    with pytest.raises(ValidationError):
        ShotRecord.from_json('{"schema": 2, "seed": 0, "shots": 1, "counts": [1]}')


BAD_SHOT_RECORDS = {
    "float-seed": '{"schema": 1, "seed": 2.7, "shots": 1000, "counts": [600, 400]}',
    "negative-seed": '{"schema": 1, "seed": -1, "shots": 1000, "counts": [600, 400]}',
    "zero-shots": '{"schema": 1, "seed": 0, "shots": 0, "counts": [0, 0]}',
    "string-shots": '{"schema": 1, "seed": 0, "shots": "1000", "counts": [600, 400]}',
    "negative-count": '{"schema": 1, "seed": 0, "shots": 1000, "counts": [1100, -100]}',
    "float-count": '{"schema": 1, "seed": 0, "shots": 1000, "counts": [600.0, 400.0]}',
    "nested-counts": '{"schema": 1, "seed": 0, "shots": 1000, "counts": [[600], [400]]}',
    "ragged-counts": '{"schema": 1, "seed": 0, "shots": 1000, "counts": [[600], [300, 100]]}',
    "huge-count": '{"schema": 1, "seed": 0, "shots": 1, "counts": [1180591620717411303424]}',
    "array-document": '[1, 2, 3]',
    "missing-counts": '{"schema": 1, "seed": 0, "shots": 1000}',
    "bad-json": '{"schema": 1, "seed": 0,',
}


@pytest.mark.parametrize("text", BAD_SHOT_RECORDS.values(), ids=BAD_SHOT_RECORDS)
def test_bad_shot_record_raises_validation_error(text):
    with pytest.raises(ValidationError):
        ShotRecord.from_json(text)


def test_estimate_requires_enough_statistics():
    pn = thermal_photon_distribution(0.5, 40)
    with pytest.raises(ValidationError):
        estimate_qcs(sample_counts(pn, 1, seed=0) if False else
                     ShotRecord(counts=np.array([50]), shots=50, seed=0))
    for resamples in (1, 2.5, True):
        with pytest.raises(ValidationError, match="'resamples' must be an integer >= 2"):
            estimate_qcs(sample_counts(pn, 1_000, seed=0), resamples=resamples)
    with pytest.raises(ValidationError):
        sample_counts(pn, 0, seed=0)
    with pytest.raises(ValidationError, match="single-mode"):  # a joint p_n of two modes
        sample_counts(PhotonDistribution(probs=np.full((2, 2), 0.25)), 1_000, seed=0)
    for seed in (-1, 1.5, "7", True):
        with pytest.raises(ValidationError, match="'seed' must be an integer >= 0"):
            sample_counts(pn, 1_000, seed=seed)
    # Σn·c_n must fit the int64 sums of the bootstrap: 2**62 shots on level 2 overflow
    with pytest.raises(ValidationError, match="overflow"):
        estimate_qcs(ShotRecord(counts=np.array([0, 0, 2 ** 62]), shots=2 ** 62, seed=0))
    # the guard reads the highest occupied level, not the record's length: every
    # shot on level 0 sums to 2**62, and empty levels appended change nothing
    est = estimate_qcs(ShotRecord(counts=np.array([2 ** 62, 0, 0]), shots=2 ** 62, seed=0))
    assert est.c_squared == 1.0
    counts = [2 ** 60, 2 ** 59, 2 ** 59]
    short = estimate_qcs(ShotRecord(counts=np.array(counts), shots=2 ** 61, seed=3))
    padded = estimate_qcs(ShotRecord(counts=np.array(counts + [0, 0]), shots=2 ** 61, seed=3))
    assert short == padded and short.c_squared == 2.0


def test_plugin_on_exact_pn_equals_two_copy_bitwise():
    # the sampled point estimate is the two-copy formula on the record's
    # frequencies: bit-identical on a record whose frequencies are an exact p_n
    pn = PhotonDistribution(probs=np.array([0.625, 0.25, 0.125]))
    rec = ShotRecord(counts=np.array([5000, 2000, 1000]), shots=8000, seed=0)
    assert estimate_qcs(rec).c_squared == qcs_two_copy(pn).c_squared
    rec = sample_counts(thermal_photon_distribution(0.5, 80), 100_000, seed=7)
    plugin = qcs_two_copy(PhotonDistribution(probs=rec.frequencies())).c_squared
    assert estimate_qcs(rec, resamples=2).c_squared == plugin


def test_bootstrap_ci_covers_exact_value():
    pn = thermal_photon_distribution(0.5, 60)
    exact = qcs_two_copy(pn).c_squared
    est = estimate_qcs(sample_counts(pn, 100_000, seed=7), resamples=400)
    assert isinstance(est, SampledEstimate)
    assert est.ci_low <= exact <= est.ci_high
    assert abs(est.c_squared - exact) < 4 * est.std_error
    assert not est.denominator_unstable


def test_error_shrinks_with_shots():
    pn = thermal_photon_distribution(0.5, 60)
    exact = qcs_two_copy(pn).c_squared
    errors = []
    for shots in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        est = estimate_qcs(sample_counts(pn, shots, seed=21), resamples=200)
        errors.append(abs(est.c_squared - exact))
        # O(shots^{-1/2}) envelope, generous constant
        assert errors[-1] < 3.0 * 20.0 / np.sqrt(shots)
    assert errors[-1] < errors[0]


def test_bootstrap_is_seeded():
    pn = thermal_photon_distribution(0.5, 60)
    rec = sample_counts(pn, 10_000, seed=3)
    a = estimate_qcs(rec, resamples=100)
    b = estimate_qcs(rec, resamples=100)
    assert a == b


def test_degenerate_empirical_denominator():
    rec = ShotRecord(counts=np.array([500, 500]), shots=1_000, seed=0)
    with pytest.raises(DegenerateDenominatorError):
        estimate_qcs(rec)


def test_unstable_denominator_is_flagged():
    # nearly parity-balanced distribution: bootstrap denominators flip sign
    probs = np.array([0.5005, 0.4995])
    rec = sample_counts(PhotonDistribution(probs=probs), 200, seed=11)
    try:
        est = estimate_qcs(rec, resamples=300)
    except DegenerateDenominatorError:
        return  # the point estimate itself collapsed: also acceptable
    assert est.denominator_unstable


def _float_bootstrap(rec: ShotRecord, resamples: int):
    """Reference bootstrap: the float plug-in on each resample of the documented
    stream, drawn one row at a time from the one default_rng on
    SeedSequence(rec.seed).spawn(1)[0], over the levels up to the highest
    occupied one."""
    top = int(np.flatnonzero(rec.counts)[-1]) + 1
    freqs = rec.frequencies()[:top]
    n = np.arange(top)
    signs = (-1.0) ** n
    point_den = signs @ freqs
    boots, unstable, zero_dens = [], False, 0
    rng = np.random.default_rng(np.random.SeedSequence(rec.seed).spawn(1)[0])
    for _ in range(resamples):
        f = rng.multinomial(rec.shots, freqs) / rec.shots
        den = float(signs @ f)
        zero_dens += den == 0
        boots.append(1.0 + 2.0 * float((n * signs) @ f) / den if den != 0 else np.nan)
        unstable |= den * point_den <= 0 or abs(den) < DENOMINATOR_FLOOR
    finite = np.array(boots)[np.isfinite(boots)]
    ci_low, ci_high = np.percentile(finite, [2.5, 97.5])
    return finite.std(ddof=1), ci_low, ci_high, unstable, zero_dens


@pytest.mark.parametrize("rec, resamples, hits_zero", [
    (sample_counts(thermal_photon_distribution(0.6, 200), 100_000, seed=916), 1000, False),
    (sample_counts(thermal_photon_distribution(0.85, 300), 100_000, seed=42), 1000, False),
    (sample_counts(PhotonDistribution(probs=np.array([0.5005, 0.4995])), 200, seed=11), 300,
     False),
    # two levels, 1000 shots: every resample drawing 500/500 has Σ(−1)ⁿc_n = 0
    (ShotRecord(counts=np.array([520, 480]), shots=1000, seed=5), 1000, True),
    # spans three row blocks: the blocked draws must equal the per-row draws
    (sample_counts(thermal_photon_distribution(0.85, 300), 100_000, seed=43),
     2 * _BLOCK_ROWS + 3, False),
], ids=["thermal-0.6", "thermal-0.85", "parity-balanced", "zero-denominator",
        "thermal-0.85-blocks"])
def test_bootstrap_matches_float_plugin_on_same_streams(rec, resamples, hits_zero):
    est = estimate_qcs(rec, resamples=resamples)
    std_error, ci_low, ci_high, unstable, zero_dens = _float_bootstrap(rec, resamples)
    # each resample is 1 + 2N/D, so rounding is relative to max(1, |value|)
    np.testing.assert_allclose([est.std_error, est.ci_low, est.ci_high],
                               [std_error, ci_low, ci_high], rtol=1e-12, atol=1e-12)
    assert est.denominator_unstable == unstable
    if hits_zero:
        assert zero_dens > 0 and est.denominator_unstable


@st.composite
def shot_records(draw):
    """Shot record of at least 100 shots over 1-40 levels, possibly ending in
    empty levels."""
    counts = draw(st.lists(st.integers(0, 5_000), min_size=1, max_size=40)
                  .filter(lambda c: sum(c) >= 100))
    return ShotRecord(counts=np.array(counts), shots=sum(counts),
                      seed=draw(st.integers(0, 2 ** 32 - 1)))


def _estimate_or_error(rec, resamples):
    try:
        return estimate_qcs(rec, resamples=resamples)
    except DegenerateDenominatorError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(shot_records(), st.integers(1, 50), st.integers(2, 300))
def test_trailing_empty_levels_do_not_change_bootstrap(rec, k, resamples):
    padded = ShotRecord(counts=np.concatenate([rec.counts, np.zeros(k, dtype=np.int64)]),
                        shots=rec.shots, seed=rec.seed)
    assert _estimate_or_error(padded, resamples) == _estimate_or_error(rec, resamples)


def test_bootstrap_memory_is_bounded_by_row_blocks():
    rec = sample_counts(thermal_photon_distribution(0.9, 400), 100_000, seed=8)
    top = int(np.flatnonzero(rec.counts)[-1]) + 1
    assert np.count_nonzero(rec.counts) >= 60
    resamples = 50_000
    tracemalloc.start()
    try:
        estimate_qcs(rec, resamples=resamples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one unblocked draw would hold every resample's counts at once
    assert peak < 0.5 * resamples * top * 8


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(2, 4096),
                  elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)))
def test_percentiles_equal_numpy_bit_for_bit(values):
    ours = np.array(_percentiles(values, (2.5, 97.5)))
    assert np.array_equal(ours.view(np.uint64), np.percentile(values, [2.5, 97.5]).view(np.uint64))
