"""Per-session scanning features for stage-1 classification.

Eight features per session: unique SYN destination count, per-destination
packet-count max/min/mean, half-open connection count, and TCP packet length
max/min/mean. Computed from TCP headers only.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import DataError
from .sessions import TrafficSession
from .trace import ACK, PROTO_TCP, SYN, PacketTable

BENIGN = "BENIGN"
MALICIOUS = "MALICIOUS"

FEATURE_NAMES = [
    "n_uniq_syn_dst",
    "pkts_max",
    "pkts_min",
    "pkts_mean",
    "n_half_open",
    "len_max",
    "len_min",
    "len_mean",
]

CSV_HEADER = FEATURE_NAMES + ["label"]


@dataclass(slots=True)
class FeatureVector:
    n_uniq_syn_dst: int
    pkts_per_dst_max: int
    pkts_per_dst_min: int
    pkts_per_dst_mean: float
    n_half_open: int
    tcp_len_max: int
    tcp_len_min: int
    tcp_len_mean: float
    label: Optional[str] = None

    def values(self) -> list[float]:
        return [
            self.n_uniq_syn_dst,
            self.pkts_per_dst_max,
            self.pkts_per_dst_min,
            self.pkts_per_dst_mean,
            self.n_half_open,
            self.tcp_len_max,
            self.tcp_len_min,
            self.tcp_len_mean,
        ]


def _syn_only(flags: np.ndarray) -> np.ndarray:
    return (flags & SYN != 0) & (flags & ACK == 0)


def count_half_open(packets: PacketTable) -> int:
    """Count connections opened by a SYN the initiator never ACKed.

    A connection key is (initiator_ip, initiator_port, responder_ip,
    responder_port), established by the first SYN-only packet on it;
    retransmitted SYNs on the same key count once, and an ACK sent before
    that first SYN does not complete it.
    """
    n = len(packets)
    initiator = np.unique((packets.src.astype(np.uint64) << 16) | packets.sport,
                          return_inverse=True)[1]
    responder = np.unique((packets.dst.astype(np.uint64) << 16) | packets.dport,
                          return_inverse=True)[1]
    key = np.unique(initiator * n + responder, return_inverse=True)[1]
    rows = np.arange(n)
    first_syn = np.full(n, n)
    last_ack = np.full(n, -1)
    syn = _syn_only(packets.flags)
    ack = packets.flags & ACK != 0
    np.minimum.at(first_syn, key[syn], rows[syn])
    np.maximum.at(last_ack, key[ack], rows[ack])
    return int(np.count_nonzero((first_syn < n) & (last_ack < first_syn)))


def extract_features(session: TrafficSession, label: Optional[str] = None) -> FeatureVector:
    """Compute the 8 scanning features; an empty session maps to all zeros."""
    packets = session.packets[session.packets.proto == PROTO_TCP]
    n = len(packets)
    if not n:
        return FeatureVector(0, 0, 0, 0.0, 0, 0, 0, 0.0, label=label)
    per_dst = np.unique(packets.dst, return_counts=True)[1]
    return FeatureVector(
        n_uniq_syn_dst=len(np.unique(packets.dst[_syn_only(packets.flags)])),
        pkts_per_dst_max=int(per_dst.max()),
        pkts_per_dst_min=int(per_dst.min()),
        # means are Python int / int, not np.mean: the CSV bytes depend on it
        pkts_per_dst_mean=n / len(per_dst),
        n_half_open=count_half_open(packets),
        tcp_len_max=int(packets.ip_len.max()),
        tcp_len_min=int(packets.ip_len.min()),
        tcp_len_mean=int(packets.ip_len.sum(dtype=np.int64)) / n,
        label=label,
    )


def write_feature_csv(vectors: Iterable[FeatureVector], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for vec in vectors:
            writer.writerow([*vec.values(), vec.label if vec.label is not None else ""])


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def read_feature_csv(path) -> list[FeatureVector]:
    """The rows ``write_feature_csv`` writes; DataError naming the file, and
    the line, for any other header or row."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != CSV_HEADER:
                raise DataError(f"{path}: unexpected feature CSV header: {header}")
            for row in reader:
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
                if row[8] not in ("", BENIGN, MALICIOUS):
                    raise ValueError(f"bad label {row[8]!r}")
                out.append(
                    FeatureVector(
                        n_uniq_syn_dst=int(float(row[0])),
                        pkts_per_dst_max=int(float(row[1])),
                        pkts_per_dst_min=int(float(row[2])),
                        pkts_per_dst_mean=_finite(row[3]),
                        n_half_open=int(float(row[4])),
                        tcp_len_max=int(float(row[5])),
                        tcp_len_min=int(float(row[6])),
                        tcp_len_mean=_finite(row[7]),
                        label=row[8] or None,
                    )
                )
        except (ValueError, OverflowError, csv.Error) as exc:
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None
    return out
