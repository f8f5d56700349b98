"""Detection-confidence scoring: Ljung-Box statistic over the biased
autocorrelation, chi-square survival function, per-device periodicity
detection probability and the product confidence score over devices."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateSignalError

ALPHA = 0.05  # p-value below which a device scores 1.0
LAGS = 20     # lags in the Q statistic, capped at K-2


def ljung_box_q(sequence: np.ndarray, h: int) -> float:
    """Q = K(K+2) * sum_{k=1}^{h} rho_k^2 / (K-k) with the biased sample
    autocorrelation (denominator K, no unbiasing factor), from raw sums: with
    S = sum e, lag products C_k and sums A_k, B_k of e over [0, K-k) and [k, K),
    rho_k = (K^2 C_k - K S (A_k + B_k) + (K-k) S^2) / (K (K sum e^2 - S^2)).
    On a 0/1 sequence every sum is an integer below 2^53, exact in any order."""
    e = np.asarray(sequence, dtype=float)
    K = len(e)
    if h > K - 2:
        raise DataError(f"h={h} too large for sequence length {K}")
    S = float(e.sum())
    denom = K * (K * float(e @ e) - S * S)
    if not denom > 0.0:
        raise DegenerateSignalError("constant sequence")
    q, A_plus_B = 0.0, 2 * S
    for k, ends in enumerate((e[:h] + e[: -h - 1 : -1]).tolist(), 1):
        A_plus_B -= ends  # e_{k-1} leaves [k, K), e_{K-k} leaves [0, K-k)
        rho = (K * K * float(e[: K - k] @ e[k:]) - K * S * A_plus_B + (K - k) * S * S) / denom
        q += rho * rho / (K - k)
    return K * (K + 2) * q


def chi2_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution with integer df,
    in closed form: with y = x/2 and a = 0 for even df, 1/2 for odd df,
    erfc(sqrt(y)) (odd df only) + sum_{i < df//2} y^(i+a) e^-y / Gamma(i+a+1),
    each term taken in log space so that it stays finite where e^-y underflows."""
    if x < 0:
        raise DataError(f"chi-square statistic must be non-negative, got {x}")
    if not (df >= 1 and df % 1 == 0):
        raise DataError(f"degrees of freedom must be a positive integer, got {df}")
    if x == 0:
        return 1.0
    y, a = x / 2.0, 0.5 * (df % 2)
    log_y = math.log(y)
    tail = math.erfc(math.sqrt(y)) if a else 0.0
    tail += sum(math.exp((i + a) * log_y - y - math.lgamma(i + a + 1))
                for i in range(int(df) // 2))
    return min(tail, 1.0)  # for small x the rounded terms can sum a few ulps past 1


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
