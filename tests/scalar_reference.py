"""Per-packet reference implementations of sessionizing, device splitting,
the scanning features and the command-channel filter and encoding.

These are the loops that the columnar code in ``botgate`` replaced, kept as
the oracle it is tested against. They work on lists of PacketRecord rows.
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
