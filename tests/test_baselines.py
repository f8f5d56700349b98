"""Walker's largest sample test against a direct-DFT oracle."""
import cmath
import math

import numpy as np
import pytest

from botgate.baselines import GAMMA, WalkerVerdict, walker_test
from botgate.errors import DataError


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
    res = walker_test(e)
    assert res.verdict is WalkerVerdict.DETECTED
    # all spectral mass in one ordinate: the statistic is exactly K/2
    assert res.statistic == pytest.approx(64.0)
    assert res.statistic > res.threshold


def test_noise_not_detected():
    rng = np.random.default_rng(31)
    res = walker_test(rng.random(128))
    assert res.verdict is WalkerVerdict.NOT_DETECTED


@pytest.mark.parametrize("K, M", [(64, 31), (65, 32)])
def test_threshold_is_walkers_z_at_gamma(K, M):
    # M = floor((K - 1) / 2) ordinates, for an even and an odd K
    e = np.random.default_rng(5).random(K)
    assert walker_test(e).threshold == -math.log(1 - (1 - GAMMA) ** (1 / M))


def test_edge_cases():
    res = walker_test(np.ones(16))
    assert res.verdict is WalkerVerdict.NOT_DETECTED
    assert res.statistic is None
    with pytest.raises(DataError):
        walker_test(np.ones(4))
