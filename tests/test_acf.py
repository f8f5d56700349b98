"""Beacon-periodicity detection: encoding, autocorrelation, peak logic."""
import numpy as np
import pytest

from botgate.acf import Verdict, acf, detect_periodicity, encode, filter_cnc_candidates, find_peaks
from botgate.errors import ConfigError, DegenerateSignalError
from botgate.synth import gen_cnc_beacon, gen_memoryless_noise
from botgate.trace import ACK, PSH, SYN, PacketRecord, PacketTable, Proto


def brute_acf(e, max_lag):
    """O(K^2) direct evaluation of the unbiased autocorrelation."""
    e = [float(v) for v in e]
    K = len(e)
    mean = sum(e) / K
    denom = sum((v - mean) ** 2 for v in e)
    out = []
    for l in range(max_lag + 1):
        s = sum((e[i] - mean) * (e[i + l] - mean) for i in range(K - l))
        out.append(K / (K - l) * s / denom)
    return out


def test_filter_cnc_candidates():
    packets = PacketTable.from_records([
        PacketRecord(1.0, "192.168.1.10", "9.9.9.9", 1111, 4444, Proto.TCP, PSH | ACK, 44, 4),
        PacketRecord(2.0, "192.168.1.10", "9.9.9.9", 1111, 443, Proto.TCP, PSH | ACK, 540, 500),
        PacketRecord(3.0, "192.168.1.10", "9.9.9.9", 1111, 23, Proto.TCP, SYN, 40, 0),
        PacketRecord(0.5, "192.168.1.10", "9.9.9.9", 1111, 53, Proto.UDP, 0, 32, 4),
        PacketRecord(4.0, "192.168.1.10", "9.9.9.9", 1111, 80, Proto.TCP, ACK, 40, 0),
    ])
    # small PSH+ACK and small UDP survive; app data, lone SYN and bare ACK do not
    assert list(filter_cnc_candidates(packets)) == [0.5, 1.0]


def test_encode_example():
    e = encode([5.0, 25.0, 65.0], duration=90.0)
    assert e.dtype == np.int8
    assert e.tolist() == [1, 0, 1, 0, 0, 0, 1, 0, 0]
    # arrivals past the horizon are dropped
    assert encode([95.0], 90.0).sum() == 0
    with pytest.raises(ConfigError, match="shorter than sampling interval 10.0"):
        encode([1.0], 5.0)


def test_acf_alternating_fixture():
    r = acf(np.array([1, 0, 1, 0, 1, 0, 1, 0]), max_lag=4)
    assert len(r) == 5
    assert r[0] == pytest.approx(1.0, abs=1e-12)
    assert r[2] == pytest.approx(1.0, abs=1e-12)
    assert r[4] == pytest.approx(1.0, abs=1e-12)
    assert r[1] < 0 and r[3] < 0


def test_acf_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(30):
        K = int(rng.integers(16, 128))
        e = (rng.random(K) < 0.3).astype(int)
        if e.min() == e.max():
            e[0] = 1 - e[0]
        max_lag = K // 2
        assert np.allclose(acf(e, max_lag), brute_acf(e, max_lag), atol=1e-12)


def test_acf_errors():
    with pytest.raises(DegenerateSignalError):
        acf(np.ones(10), 4)
    with pytest.raises(ConfigError):
        acf(np.array([1, 0, 1, 0]), 4)


def test_find_peaks_threshold_and_boundary():
    r = np.array([1.0, 0.2, 0.9, 0.1, 0.95, 0.0, 1.1, 0.3, 0.5])
    assert find_peaks(r) == [2, 4, 6]     # 0.7 * 1.1 = 0.77 cutoff
    # lag 8 is a one-sided boundary maximum; it clears the threshold when tall enough
    r[8] = 0.8
    assert find_peaks(r) == [2, 4, 6, 8]
    # a rising boundary lag counts as a (one-sided) maximum
    assert find_peaks(np.array([1.0, -0.2, 0.1, 0.9])) == [3]
    assert find_peaks(np.array([1.0, 0.5, 0.2])) == []


def test_detect_periodicity_beacons():
    for period, lag in ((60.0, 6), (210.0, 21)):
        res = detect_periodicity(gen_cnc_beacon(period, 0.0, 900.0, [1, int(period)]), 900.0)
        assert res.verdict is Verdict.PERIOD_DETECTED
        assert res.gap_variance == 0.0
        assert all(l % lag == 0 for l in res.peak_lags)


def test_detect_periodicity_degenerate_and_noise():
    empty = PacketTable.from_records([])
    res = detect_periodicity(empty, 900.0)
    assert res.verdict is Verdict.PERIOD_NOT_DETECTED
    assert "constant" in res.reason
    assert res.n_candidates == 0
    # too-short capture
    res = detect_periodicity(empty, 5.0)
    assert res.verdict is Verdict.PERIOD_NOT_DETECTED
    assert res.reason
    # a single burst has no repeating structure
    burst = gen_memoryless_noise(2.0, 30.0, 3)
    res = detect_periodicity(burst, 900.0)
    assert res.verdict is Verdict.PERIOD_NOT_DETECTED
