"""Walker's largest sample test: periodogram-maximum significance baseline."""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DataError

GAMMA = 0.1  # significance level: the chance that white noise is DETECTED


class WalkerVerdict(str, Enum):
    DETECTED = "DETECTED"
    NOT_DETECTED = "NOT_DETECTED"


@dataclass
class WalkerResult:
    verdict: WalkerVerdict
    statistic: float | None = None
    threshold: float | None = None


def walker_test(sequence: np.ndarray) -> WalkerResult:
    """Compare the largest mean-subtracted periodogram ordinate (scaled by the
    sample variance) against z = -ln(1 - (1 - GAMMA)^(1/M))."""
    e = np.asarray(sequence, dtype=float)
    K = len(e)
    if K < 8:
        raise DataError(f"need at least 8 samples, got {K}")
    d = e - e.mean()
    var = float(d @ d) / K
    if var == 0.0:
        return WalkerResult(WalkerVerdict.NOT_DETECTED)  # a constant sequence
    M = (K - 1) // 2
    spectrum = np.fft.fft(d)
    periodogram = np.abs(spectrum[1 : M + 1]) ** 2 / K
    g = float(periodogram.max()) / var
    z = -math.log(1.0 - (1.0 - GAMMA) ** (1.0 / M))
    verdict = WalkerVerdict.DETECTED if g > z else WalkerVerdict.NOT_DETECTED
    return WalkerResult(verdict=verdict, statistic=g, threshold=z)
