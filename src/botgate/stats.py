"""Detection-confidence scoring: Ljung-Box statistic over the biased
autocorrelation, chi-square survival function, per-device periodicity
detection probability and the product confidence score over devices."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateSignalError

_MAX_ITER = 500
_TINY = 1e-300
ALPHA = 0.05  # p-value below which a device scores 1.0
LAGS = 20     # lags in the Q statistic, capped at K-2


def ljung_box_q(sequence: np.ndarray, h: int) -> float:
    """Q = K(K+2) * sum_{k=1}^{h} rho_k^2 / (K-k) with the biased sample
    autocorrelation (denominator K, no unbiasing factor)."""
    e = np.asarray(sequence, dtype=float)
    K = len(e)
    if h > K - 2:
        raise DataError(f"h={h} too large for sequence length {K}")
    d = e - e.mean()
    denom = float(d @ d)
    if denom == 0.0:
        raise DegenerateSignalError("constant sequence")
    q = 0.0
    for k in range(1, h + 1):
        rho = float(d[: K - k] @ d[k:]) / denom
        q += rho * rho / (K - k)
    return K * (K + 2) * q


def _gamma_p_series(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x) by series, for x < a + 1."""
    term = 1.0 / a
    total = term
    n = a
    for _ in range(_MAX_ITER):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) by Lentz's continued
    fraction, for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    f = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return f * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution."""
    if x < 0:
        raise DataError(f"chi-square statistic must be non-negative, got {x}")
    if df < 1:
        raise DataError(f"degrees of freedom must be >= 1, got {df}")
    if x == 0:
        return 1.0
    a = df / 2.0
    half_x = x / 2.0
    if half_x < a + 1.0:
        return 1.0 - _gamma_p_series(a, half_x)
    return _gamma_q_contfrac(a, half_x)


@dataclass
class PeriodProbResult:
    prob: float
    q: float | None = None
    pvalue: float | None = None


def period_detection_prob(sequence: np.ndarray) -> PeriodProbResult:
    """Probability of periodicity detection for one device's encoded sequence.

    A p-value below ALPHA (Q beyond the (1-ALPHA) chi-square quantile, since
    chi2_sf decreases) maps to 1.0; otherwise the observed p-value is
    returned. Too short or constant sequences score 0.0, with no Q."""
    e = np.asarray(sequence, dtype=float)
    h = min(LAGS, len(e) - 2)
    if h < 1:
        return PeriodProbResult(prob=0.0)
    try:
        q = ljung_box_q(e, h)
    except DegenerateSignalError:
        return PeriodProbResult(prob=0.0)
    pvalue = chi2_sf(q, h)
    return PeriodProbResult(prob=1.0 if pvalue < ALPHA else pvalue, q=q, pvalue=pvalue)


def bdcs(per_device_probs: list[float]) -> float:
    """Product of per-device detection probabilities; empty product is 1.0."""
    score = 1.0
    for p in per_device_probs:
        if not 0.0 <= p <= 1.0:
            raise DataError(f"probability out of range: {p}")
        score *= p
    return score
