"""The spectral autocorrelation and the vectorized peak search against the
per-lag reference loops in scalar_reference.py."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from botgate.acf import (
    MAX_BINS, PEAK_HEIGHT_FRAC, SAMPLE_T, Verdict, acf, check_bins, detect_periodicity, encode,
    find_peaks,
)
from botgate.errors import ConfigError, DegenerateSignalError

# Two noise devices of acceptance criterion 9 (K = 90, lags up to 67) whose
# peak sets hinge on comparisons that are ties in exact arithmetic.
# Scenario 6, device 7: R(58) = 7/32 is exactly 0.7 times the tallest peak R(50) = 5/16.
THRESHOLD_TIE = [10, 13, 15, 18, 19, 20, 21, 28, 29, 33, 37, 38, 45, 46, 47, 49, 54,
                 56, 63, 64, 65, 66, 69, 70, 76, 77, 79, 83, 86, 87]
# Scenario 21, device 6: R(49) = R(50) = 2/7, a plateau and so no strict maximum.
PLATEAU_TIE = [1, 2, 4, 13, 14, 21, 37, 38, 43, 46, 50, 52, 53, 63, 69, 71, 75, 78, 84, 87]


def sequence(e):
    return np.asarray(e, dtype=np.int8)


def from_ones(ones, K=90):
    e = np.zeros(K, dtype=np.int8)
    e[ones] = 1
    return e


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=3, max_size=400), st.data())
def test_acf_and_peaks_equal_reference(bits, data):
    seq = sequence(bits)
    max_lag = data.draw(st.integers(0, len(seq) - 1))
    if min(bits) == max(bits):
        with pytest.raises(DegenerateSignalError):
            acf(seq, max_lag)
        return
    r = acf(seq, max_lag)
    expected = ref.acf_exact(bits, max_lag)
    assert r.tobytes() == expected.tobytes()  # bit for bit
    assert find_peaks(r) == ref.find_peaks(expected, max_lag, PEAK_HEIGHT_FRAC)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([-0.5, 0.0, 0.25, 0.35, 0.5, 0.7, 1.0]), min_size=1,
                max_size=30))
def test_find_peaks_with_ties_equals_reference(values):
    r = np.array(values)
    L = len(r) - 1
    assert find_peaks(r) == ref.find_peaks(r, L, PEAK_HEIGHT_FRAC)


def test_exact_threshold_tie_is_a_peak():
    seq = from_ones(THRESHOLD_TIE)
    r = acf(seq, 67)
    assert r[50] == 5 / 16 and r[58] == 7 / 32
    assert r[58] == PEAK_HEIGHT_FRAC * r[50]
    assert find_peaks(r) == [50, 58, 66]
    arrivals, duration = np.flatnonzero(seq) * SAMPLE_T, len(seq) * SAMPLE_T
    res = detect_periodicity(arrivals, duration)
    assert res.verdict is Verdict.PERIOD_DETECTED and res.gap_variance == 0.0
    assert res.n_candidates == len(THRESHOLD_TIE)
    assert encode(arrivals, duration).tobytes() == seq.tobytes()
    # the per-lag float loop puts r[50] and r[58] one ulp low, and r[58] still
    # reaches PEAK_HEIGHT_FRAC of r[50]
    assert ref.find_peaks(ref.acf_float(seq, 67), 67, PEAK_HEIGHT_FRAC) == [50, 58, 66]


def test_plateau_tie_is_no_peak():
    seq = from_ones(PLATEAU_TIE)
    r = acf(seq, 67)
    assert r[49] == r[50] == 2 / 7
    assert find_peaks(r) == [25, 32]
    # the per-lag float loop keeps the tie too: no strict maximum at 49
    assert ref.find_peaks(ref.acf_float(seq, 67), 67, PEAK_HEIGHT_FRAC) == [25, 32]


def test_exact_values_are_correctly_rounded():
    seq = from_ones(THRESHOLD_TIE)
    K, S = len(seq), len(THRESHOLD_TIE)
    e = seq.tolist()
    for l, r in enumerate(acf(seq, 67)):
        C = sum(e[i] * e[i + l] for i in range(K - l))
        num = K * K * C - K * S * (sum(e[:K - l]) + sum(e[l:])) + (K - l) * S * S
        assert r == float(Fraction(num, (K - l) * S * (K - S)))


def test_peak_at_last_lag():
    r = acf(sequence([1, 0, 0, 0] * 3), 8)
    assert r[8] > r[7]
    assert find_peaks(r) == ref.find_peaks(r, 8, PEAK_HEIGHT_FRAC) == [4, 8]


@pytest.mark.parametrize("bit", [0, 1])
def test_constant_sequences_are_degenerate(bit):
    seq = sequence([bit] * 20)
    with pytest.raises(DegenerateSignalError):
        acf(seq, 10)
    res = detect_periodicity(np.flatnonzero(seq) * SAMPLE_T, len(seq) * SAMPLE_T)
    assert res.n_candidates == 20 * bit
    assert res.verdict is Verdict.PERIOD_NOT_DETECTED and "constant" in res.reason


def test_day_length_sequence_matches_float_loop():
    rng = np.random.default_rng(8640)
    e = (rng.random(8640) < 0.05).astype(np.int8)
    max_lag = 6480
    r = acf(e, max_lag)
    assert np.abs(r - ref.acf_float(e, max_lag)).max() <= 1e-12
    assert r.tobytes() == ref.acf_exact(e, max_lag).tobytes()


def test_acf_rejects_non_binary_sequences():
    with pytest.raises(ConfigError):
        acf(sequence([0, 1, 2, 0, 1]), 2)


def test_encode_bounds_the_bin_count():
    longest = MAX_BINS * SAMPLE_T
    assert len(encode([1.0], longest)) == MAX_BINS
    assert check_bins(longest + SAMPLE_T - 1) < MAX_BINS + 1  # floors to MAX_BINS
    for duration in (longest + SAMPLE_T, 1e12, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match=f"sampling interval 10.0 s .*{MAX_BINS} bins"):
            encode([1.0], duration)
