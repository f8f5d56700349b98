"""Confidence scoring: Ljung-Box, chi-square tail, detection probabilities."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.stats  # oracle only; the implementation under test is scipy-free

from botgate.errors import DataError, DegenerateSignalError
from botgate.stats import (
    bdcs, chi2_sf, ljung_box_q, period_detection_prob,
)


def brute_ljung_box(e, h):
    e = [float(v) for v in e]
    K = len(e)
    mean = sum(e) / K
    denom = sum((v - mean) ** 2 for v in e)
    q = 0.0
    for k in range(1, h + 1):
        rho = sum((e[i] - mean) * (e[i + k] - mean) for i in range(K - k)) / denom
        q += rho ** 2 / (K - k)
    return K * (K + 2) * q


def test_ljung_box_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(25):
        K = int(rng.integers(16, 100))
        e = rng.random(K)
        h = int(rng.integers(1, K - 2))
        assert ljung_box_q(e, h) == pytest.approx(brute_ljung_box(e, h), abs=1e-10)


def test_ljung_box_errors():
    with pytest.raises(DataError):
        ljung_box_q(np.zeros(10), 9)
    with pytest.raises(DegenerateSignalError):
        ljung_box_q(np.ones(10), 3)


def test_chi2_sf_df2_closed_form():
    for x in np.linspace(0.0, 50.0, 26):
        assert chi2_sf(float(x), 2) == pytest.approx(math.exp(-x / 2), abs=1e-10)


def test_chi2_sf_against_scipy():
    # past x = 1490 e^(-x/2) underflows, and only the log-space terms keep the tail above 0
    for df in range(1, 31):
        for x in np.concatenate((np.linspace(0.0, 50.0, 21), np.linspace(75.0, 1500.0, 20))):
            expected = scipy.stats.chi2.sf(x, df)
            assert chi2_sf(float(x), df) == pytest.approx(
                expected, rel=1e-12, abs=0.0 if expected > 1e-290 else 1e-290)


def test_chi2_sf_edges():
    assert chi2_sf(0.0, 5) == 1.0
    assert chi2_sf(3.84, 1) == pytest.approx(0.05, abs=1e-3)
    with pytest.raises(DataError):
        chi2_sf(-1.0, 2)
    with pytest.raises(DataError):
        chi2_sf(1.0, 0)
    with pytest.raises(DataError):
        chi2_sf(1.0, 2.5)
    # a p-value is a probability even where its rounded terms sum past 1
    assert max(chi2_sf(float(x), df)
               for df in range(1, 31) for x in np.geomspace(1e-6, 8.0, 40)) <= 1.0


def test_period_detection_prob_branches():
    strong = np.zeros(90)
    strong[::6] = 1
    res = period_detection_prob(strong)
    assert res.prob == 1.0 and res.pvalue < 1e-40

    rng = np.random.default_rng(3)
    noise = (rng.random(90) < 0.3).astype(float)
    res = period_detection_prob(noise)
    assert 0.0 < res.prob < 1.0
    assert res.prob == res.pvalue == pytest.approx(chi2_sf(res.q, 20))

    res = period_detection_prob(np.zeros(90))
    assert res.prob == 0.0 and res.q is None
    assert period_detection_prob(np.array([1.0, 0.0])).prob == 0.0


def test_period_detection_prob_caps_h():
    e = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 0.0])
    assert period_detection_prob(e).q == ljung_box_q(e, 8)  # LAGS = 20, capped at K - 2


def test_bdcs_product():
    assert bdcs([]) == 1.0
    assert bdcs([0.5, 0.5, 1.0]) == pytest.approx(0.25)
    assert bdcs([1.0, 0.0]) == 0.0
    with pytest.raises(DataError):
        bdcs([1.5])
    with pytest.raises(DataError):
        bdcs([-0.1])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False), max_size=8))
def test_bdcs_properties(probs):
    score = bdcs(probs)
    assert 0.0 <= score <= 1.0
    assert score == pytest.approx(math.prod(probs), abs=1e-12)
    if probs:
        assert score <= min(probs) + 1e-12
    # appending a device can never raise the confidence
    assert bdcs(probs + [0.5]) <= score + 1e-12
