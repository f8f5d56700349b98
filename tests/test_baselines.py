"""Walker's largest sample test against a direct-DFT oracle."""
import cmath
import math

import numpy as np
import pytest

from botgate.baselines import WalkerVerdict, walker_test
from botgate.errors import ConfigError, DataError


def brute_statistic(e):
    """O(K^2) periodogram maximum over ordinates 1..M, scaled by the sample
    variance, straight from the definition."""
    e = [float(v) for v in e]
    K = len(e)
    mean = sum(e) / K
    d = [v - mean for v in e]
    var = sum(v * v for v in d) / K
    M = (K - 1) // 2
    best = 0.0
    for k in range(1, M + 1):
        s = sum(d[i] * cmath.exp(-2j * math.pi * k * i / K) for i in range(K))
        best = max(best, abs(s) ** 2 / K)
    return best / var


def test_statistic_matches_brute_force():
    rng = np.random.default_rng(29)
    for _ in range(15):
        K = int(rng.integers(8, 96))
        e = rng.random(K)
        res = walker_test(e)
        assert res.statistic == pytest.approx(brute_statistic(e), abs=1e-9)


def test_pure_sinusoid_detected():
    k = np.arange(128)
    e = np.sin(2 * np.pi * 8 * k / 128)
    res = walker_test(e, gamma=0.01)
    assert res.verdict is WalkerVerdict.DETECTED
    # all spectral mass in one ordinate: the statistic is exactly K/2
    assert res.statistic == pytest.approx(64.0)
    assert res.statistic > res.threshold


def test_noise_not_detected():
    rng = np.random.default_rng(31)
    res = walker_test(rng.random(128), gamma=0.001)
    assert res.verdict is WalkerVerdict.NOT_DETECTED


def test_threshold_monotone_in_gamma():
    e = np.random.default_rng(5).random(64)
    thresholds = [walker_test(e, gamma=g).threshold for g in (0.01, 0.05, 0.1, 0.5)]
    assert thresholds == sorted(thresholds, reverse=True)


def test_edge_cases():
    res = walker_test(np.ones(16))
    assert res.verdict is WalkerVerdict.NOT_DETECTED
    assert res.statistic is None
    with pytest.raises(DataError):
        walker_test(np.ones(4))
    with pytest.raises(ConfigError):
        walker_test(np.zeros(16), gamma=0.0)
    with pytest.raises(ConfigError):
        walker_test(np.zeros(16), gamma=1.0)
