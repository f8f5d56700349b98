"""Per-device beacon-periodicity detection.

Pipeline: mark candidate command-channel packets (UDP, or TCP PSH+ACK with a
tiny payload), bin a device's candidate arrival times into a 0/1 int8
array, compute the unbiased autocorrelation array, find dominant peaks, and
declare periodicity when at least ``MIN_PEAKS`` peaks sit at (almost) equal
gaps. Each step takes and returns plain arrays, and the design values are
the constants below.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, DegenerateSignalError
from .trace import ACK, PROTO_TCP, PROTO_UDP, PSH, PacketTable

# Longest encoded sequence: up to it, the exact ACF's integers stay below 2^53.
MAX_BINS = 2 ** 17
MIN_PEAKS = 3               # qualifying ACF peaks needed for a periodicity verdict
MAX_LAG_FRAC = 0.75         # the ACF is searched for peaks up to this fraction of K
SAMPLE_T = 10.0             # bin width in seconds (0.1 Hz sampling)
PAYLOAD_CUTOFF = 10         # largest command-channel payload, in bytes
PEAK_HEIGHT_FRAC = 0.7      # of the tallest ACF peak past lag 0
GAP_VARIANCE_THRESH = 0.01  # inter-peak gap variance below it is periodic (lags^2)


class Verdict(str, Enum):
    PERIOD_DETECTED = "PERIOD_DETECTED"
    PERIOD_NOT_DETECTED = "PERIOD_NOT_DETECTED"


@dataclass
class PeriodicityResult:
    verdict: Verdict
    peak_lags: list[int] = field(default_factory=list)
    gap_variance: float | None = None
    n_candidates: int = 0
    reason: str = ""


def cnc_candidates(packets: PacketTable) -> np.ndarray:
    """Boolean mask of the likely command-channel packets: UDP packets and
    TCP packets with both PSH and ACK set, excluding anything whose transport
    payload exceeds PAYLOAD_CUTOFF (application data)."""
    psh_ack = (packets.flags & (PSH | ACK)) == (PSH | ACK)
    return (packets.payload_len <= PAYLOAD_CUTOFF) & (
        (packets.proto == PROTO_UDP) | ((packets.proto == PROTO_TCP) & psh_ack))


def check_bins(duration: float) -> float:
    """duration / SAMPLE_T, the number of bins before flooring; ConfigError
    when there are more than MAX_BINS of them (also for inf and nan)."""
    n_bins = duration / SAMPLE_T
    if not n_bins < MAX_BINS + 1:
        raise ConfigError(f"duration {duration} s at sampling interval {SAMPLE_T} s needs more "
                          f"than {MAX_BINS} bins")
    return n_bins


def encode(arrivals, duration: float) -> np.ndarray:
    """Bin arrival times into the K = floor(duration/SAMPLE_T) half-open bins
    [i*SAMPLE_T, (i+1)*SAMPLE_T): an int8 0/1 sequence."""
    K = int(math.floor(check_bins(duration)))  # checked before any allocation
    if K < 1:
        raise ConfigError(f"duration {duration} shorter than sampling interval {SAMPLE_T}")
    bins = np.asarray(arrivals, dtype=np.float64) // SAMPLE_T
    e = np.zeros(K, dtype=np.int8)
    e[bins[(bins >= 0) & (bins < K)].astype(np.intp)] = 1
    return e


def acf(e, max_lag: int) -> np.ndarray:
    """Unbiased autocorrelation of a 0/1 sequence at lags 0..max_lag:
    R(l) = K/(K-l) * sum_{i}(e_i - mean)(e_{i+l} - mean) / sum_i (e_i - mean)^2

    Exact: with S = sum e, lag products C_l from one zero-padded FFT rounded
    to integers, and sums A_l, B_l of e over [0, K-l) and [l, K),
    R(l) = (K^2 C_l - K S (A_l + B_l) + (K-l) S^2) / ((K-l) S (K-S)), one
    division of integers below 2^53 (for K <= MAX_BINS): correctly rounded.
    """
    e = np.asarray(e)
    K = len(e)
    if max_lag >= K:
        raise ConfigError(f"max_lag {max_lag} must be below sequence length {K}")
    if ((e != 0) & (e != 1)).any():
        raise ConfigError("autocorrelation needs a 0/1 sequence")
    e = e.astype(np.int64)
    S = int(e.sum())
    if S == 0 or S == K:
        raise DegenerateSignalError("constant sequence has no autocorrelation")
    spectrum = np.fft.rfft(e, 2 * K)
    lags = np.arange(max_lag + 1)
    C = np.rint(np.fft.irfft(spectrum.real ** 2 + spectrum.imag ** 2, 2 * K)[: max_lag + 1])
    cum = np.concatenate(([0], np.cumsum(e)))
    A, B = cum[K - lags], S - cum[lags]
    num = K * K * C.astype(np.int64) - K * S * (A + B) + (K - lags) * S * S
    return num / ((K - lags) * S * (K - S))


def find_peaks(r: np.ndarray) -> list[int]:
    """Strict local maxima of ``r`` at lags >= 1 whose height reaches
    PEAK_HEIGHT_FRAC times the tallest local maximum (the last lag tested
    one-sided)."""
    r = np.append(r, -np.inf)  # sentinel below every lag
    maxima = np.flatnonzero((r[1:-1] > r[:-2]) & (r[1:-1] > r[2:])) + 1
    if not maxima.size:
        return []
    heights = r[maxima]
    return maxima[heights >= PEAK_HEIGHT_FRAC * heights.max()].tolist()


def detect_periodicity(arrivals, duration: float) -> PeriodicityResult:
    """Stage 2's one per-device test: encode a device's command-channel
    arrival times over ``duration``, then run the ACF peak and gap-variance
    test. Degenerate sequences yield PERIOD_NOT_DETECTED with a diagnostic
    reason; a duration ``encode`` refuses raises its ConfigError. The result
    keeps no sequence: a caller that scores it encodes it again."""
    e = encode(arrivals, duration)
    result = PeriodicityResult(verdict=Verdict.PERIOD_NOT_DETECTED, n_candidates=len(arrivals))
    max_lag = int(math.floor(len(e) * MAX_LAG_FRAC))
    if max_lag < 2:
        result.reason = "sequence too short for peak analysis"
        return result
    try:
        r = acf(e, max_lag)
    except DegenerateSignalError as exc:
        result.reason = str(exc)
        return result
    peaks = find_peaks(r)
    result.peak_lags = peaks
    if len(peaks) < MIN_PEAKS:
        result.reason = f"only {len(peaks)} qualifying peaks (need {MIN_PEAKS})"
        return result
    gap_var = float(np.var(np.diff(peaks)))  # population variance, lag units
    result.gap_variance = gap_var
    if gap_var < GAP_VARIANCE_THRESH:
        result.verdict = Verdict.PERIOD_DETECTED
    else:
        result.reason = f"inter-peak gap variance {gap_var:.4f} above threshold"
    return result
