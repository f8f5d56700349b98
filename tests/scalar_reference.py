"""Per-packet reference implementations of sessionizing, device splitting,
the scanning features, the command-channel filter and encoding, and the
per-lag autocorrelation and peak search of stage 2.

These are the loops that the columnar and spectral code in ``botgate``
replaced, kept as the oracle it is tested against. The packet functions work
on lists of PacketRecord rows.
"""
import ipaddress
import math

import numpy as np

from botgate.trace import ACK, PSH, SYN, Proto


def sessionize(packets, duration_s, span_s):
    """Window i holds the packets with ts // d == i, for i < floor(span/d)."""
    n_sessions = int(math.floor(span_s / duration_s))
    sessions = [[] for _ in range(n_sessions)]
    for pkt in packets:
        i = int(pkt.ts // duration_s)
        if i < n_sessions:
            sessions[i].append(pkt)
    return sessions


def split_by_device(packets, internal_subnet):
    net = ipaddress.IPv4Network(internal_subnet)
    devices = {}
    for pkt in packets:
        for ip in (pkt.src_ip, pkt.dst_ip):
            if ipaddress.IPv4Address(ip) in net:
                devices.setdefault(ip, []).append(pkt)
    return devices


def _is_syn_only(flags):
    return bool(flags & SYN) and not flags & ACK


def count_half_open(packets):
    half_open = {}
    for pkt in packets:
        fwd = (pkt.src_ip, pkt.src_port, pkt.dst_ip, pkt.dst_port)
        if _is_syn_only(pkt.tcp_flags):
            half_open.setdefault(fwd, True)
        elif pkt.tcp_flags & ACK and fwd in half_open:
            half_open[fwd] = False
    return sum(half_open.values())


def extract_features(packets):
    """The eight feature values, in FeatureVector.values() order."""
    packets = [p for p in packets if p.proto is Proto.TCP]
    if not packets:
        return [0, 0, 0, 0.0, 0, 0, 0, 0.0]
    syn_dsts = set()
    per_dst = {}
    lengths = []
    for pkt in packets:
        if _is_syn_only(pkt.tcp_flags):
            syn_dsts.add(pkt.dst_ip)
        per_dst[pkt.dst_ip] = per_dst.get(pkt.dst_ip, 0) + 1
        lengths.append(pkt.ip_len)
    counts = list(per_dst.values())
    return [
        len(syn_dsts), max(counts), min(counts), sum(counts) / len(counts),
        count_half_open(packets), max(lengths), min(lengths), sum(lengths) / len(lengths),
    ]


def filter_cnc_candidates(packets, payload_cutoff):
    times = []
    for pkt in packets:
        if pkt.payload_len > payload_cutoff:
            continue
        if pkt.proto is Proto.UDP or (
            pkt.proto is Proto.TCP and pkt.tcp_flags & PSH and pkt.tcp_flags & ACK
        ):
            times.append(pkt.ts)
    times.sort()
    return times


def encode(arrivals, T, duration):
    K = int(math.floor(duration / T))
    e = np.zeros(K, dtype=np.int8)
    for t in arrivals:
        i = int(t // T)
        if 0 <= i < K:
            e[i] = 1
    return e


def acf_float(e, max_lag):
    """The float per-lag loop: K/(K-l) * sum(d_i d_{i+l}) / sum(d_i^2)."""
    d = np.asarray(e, dtype=float)
    d = d - d.mean()
    K = len(d)
    denom = float(d @ d)
    return np.array([(K / (K - l)) * float(d[: K - l] @ d[l:]) / denom
                     for l in range(max_lag + 1)])


def acf_exact(e, max_lag):
    """The unbiased autocorrelation of a non-constant 0/1 sequence, one lag
    at a time in integers: K^2 times the centered lag sum over
    (K-l) S (K-S), divided once, so each value is correctly rounded."""
    e = np.asarray(e, dtype=np.int64)
    K, S = len(e), int(e.sum())
    r = []
    for l in range(max_lag + 1):
        C = int(e[: K - l] @ e[l:])
        A, B = int(e[: K - l].sum()), int(e[l:].sum())
        num = K * K * C - K * S * (A + B) + (K - l) * S * S
        r.append(num / ((K - l) * S * (K - S)))  # int / int rounds correctly
    return np.array(r)


def find_peaks(r, max_lag, height_frac):
    """Strict local maxima at lags 1..max_lag (the last one tested on its
    left only) at or above height_frac times the tallest of them."""
    maxima = []
    for l in range(1, max_lag + 1):
        left_ok = r[l] > r[l - 1]
        right_ok = r[l] > r[l + 1] if l < max_lag else True
        if left_ok and right_ok:
            maxima.append(l)
    if not maxima:
        return []
    thresh = height_frac * max(r[l] for l in maxima)
    return [l for l in maxima if r[l] >= thresh]


def detect_periodicity(packets, params, duration):
    """(detected, peak lags) of one device by the loops above."""
    K = int(math.floor(duration / params.sample_t))
    max_lag = int(math.floor(K * params.max_lag_frac))
    e = encode(filter_cnc_candidates(packets, params.payload_cutoff_bytes),
               params.sample_t, duration)
    if max_lag < 2 or e.min() == e.max():
        return False, []
    peaks = find_peaks(acf_exact(e, max_lag), max_lag, params.peak_height_frac)
    if len(peaks) < params.min_peaks:
        return False, peaks
    return float(np.var(np.diff(peaks))) < params.gap_variance_thresh, peaks
