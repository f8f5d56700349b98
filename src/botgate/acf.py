"""Per-device beacon-periodicity detection.

Pipeline: filter candidate command-channel packets (UDP, or TCP PSH+ACK with
a tiny payload), bin arrival times into a binary sequence, compute the
unbiased autocorrelation, find dominant peaks, and declare periodicity when
at least ``MIN_PEAKS`` peaks sit at (almost) equal gaps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, DegenerateSignalError
from .sessions import DeviceTrace
from .trace import ACK, PROTO_TCP, PROTO_UDP, PSH

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
class EncodedSequence:
    e: np.ndarray  # K binary values
    T: float
    K: int
    n_arrivals: int = 0  # arrival times given to encode, inside [0, K*T) or not


@dataclass
class AcfSeries:
    r: np.ndarray  # values at lags 0..max_lag
    max_lag: int


@dataclass
class PeriodicityResult:
    verdict: Verdict
    peak_lags: list[int] = field(default_factory=list)
    gap_variance: float | None = None
    n_candidates: int = 0
    reason: str = ""
    sequence: EncodedSequence | None = field(default=None, repr=False, compare=False)


def filter_cnc_candidates(device_trace: DeviceTrace,
                          payload_cutoff: int = PAYLOAD_CUTOFF) -> np.ndarray:
    """Arrival times of likely command-channel packets, sorted ascending.

    Keeps UDP packets and TCP packets with both PSH and ACK set, excluding
    anything whose transport payload exceeds the cutoff (application data)."""
    p = device_trace.packets
    psh_ack = (p.flags & (PSH | ACK)) == (PSH | ACK)
    keep = (p.payload_len <= payload_cutoff) & (
        (p.proto == PROTO_UDP) | ((p.proto == PROTO_TCP) & psh_ack))
    return np.sort(p.ts[keep])


def check_bins(duration: float, T: float) -> float:
    """duration / T, the number of bins before flooring; ConfigError when
    there are more than MAX_BINS of them (also for inf and nan)."""
    n_bins = duration / T
    if not n_bins < MAX_BINS + 1:
        raise ConfigError(f"duration {duration} s at sampling interval {T} s needs more "
                          f"than {MAX_BINS} bins")
    return n_bins


def encode(arrivals, T: float, duration: float) -> EncodedSequence:
    """Bin arrival times into K = floor(duration/T) half-open [iT, (i+1)T) bins."""
    if T <= 0:
        raise ConfigError(f"sampling interval must be positive, got {T}")
    K = int(math.floor(check_bins(duration, T)))  # checked before any allocation
    if K < 1:
        raise ConfigError(f"duration {duration} shorter than sampling interval {T}")
    bins = np.asarray(arrivals, dtype=np.float64) // T
    e = np.zeros(K, dtype=np.int8)
    e[bins[(bins >= 0) & (bins < K)].astype(np.intp)] = 1
    return EncodedSequence(e=e, T=T, K=K, n_arrivals=len(arrivals))


def encode_device(device_trace: DeviceTrace, duration: float) -> EncodedSequence:
    """Stage 2's one per-device encoding, shared by every stage-2 caller: the
    device's command-channel candidates binned at ``SAMPLE_T``."""
    return encode(filter_cnc_candidates(device_trace), SAMPLE_T, duration)


def acf(sequence: EncodedSequence, max_lag: int) -> AcfSeries:
    """Unbiased autocorrelation of a 0/1 sequence at lags 0..max_lag:
    R(l) = K/(K-l) * sum_{i}(e_i - mean)(e_{i+l} - mean) / sum_i (e_i - mean)^2

    Exact: with S = sum e, lag products C_l from one zero-padded FFT rounded
    to integers, and sums A_l, B_l of e over [0, K-l) and [l, K),
    R(l) = (K^2 C_l - K S (A_l + B_l) + (K-l) S^2) / ((K-l) S (K-S)), one
    division of integers below 2^53 (for K <= MAX_BINS): correctly rounded.
    """
    e = np.asarray(sequence.e)
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
    r = num / ((K - lags) * S * (K - S))
    return AcfSeries(r=r, max_lag=max_lag)


def find_peaks(series: AcfSeries, height_frac: float) -> list[int]:
    """Strict local maxima at lags >= 1 whose height reaches ``height_frac``
    times the tallest local maximum (boundary lag tested one-sided)."""
    r = np.append(series.r[: series.max_lag + 1], -np.inf)  # sentinel below every lag
    maxima = np.flatnonzero((r[1:-1] > r[:-2]) & (r[1:-1] > r[2:])) + 1
    if not maxima.size:
        return []
    heights = r[maxima]
    return maxima[heights >= height_frac * heights.max()].tolist()


def analyze_sequence(seq: EncodedSequence) -> PeriodicityResult:
    """The ACF peak and gap-variance test on one device's encoded sequence.
    The result keeps the sequence, for the confidence score."""
    result = PeriodicityResult(verdict=Verdict.PERIOD_NOT_DETECTED,
                               n_candidates=seq.n_arrivals, sequence=seq)
    max_lag = int(math.floor(seq.K * MAX_LAG_FRAC))
    if max_lag < 2:
        result.reason = "sequence too short for peak analysis"
        return result
    try:
        series = acf(seq, max_lag)
    except DegenerateSignalError as exc:
        result.reason = str(exc)
        return result
    peaks = find_peaks(series, PEAK_HEIGHT_FRAC)
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


def detect_periodicity(device_trace: DeviceTrace, duration: float) -> PeriodicityResult:
    """Full per-device check; degenerate traffic yields PERIOD_NOT_DETECTED
    with a diagnostic reason rather than an error."""
    try:
        seq = encode_device(device_trace, duration)
    except ConfigError as exc:
        n = len(filter_cnc_candidates(device_trace))
        return PeriodicityResult(verdict=Verdict.PERIOD_NOT_DETECTED, n_candidates=n,
                                 reason=str(exc))
    return analyze_sequence(seq)
