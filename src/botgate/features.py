"""Per-session scanning features for stage-1 classification.

Eight features per session: unique SYN destination count, per-destination
packet-count max/min/mean, half-open connection count, and TCP packet length
max/min/mean. Computed from TCP headers only.
"""
from __future__ import annotations

import csv
import math
from typing import Iterable

import numpy as np

from .errors import DataError
from .preprocess import Dataset
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


def extract_features(session: TrafficSession) -> list:
    """The 8 scanning features, in FEATURE_NAMES order, as Python ints and
    floats; an empty session maps to all zeros."""
    packets = session.packets[session.packets.proto == PROTO_TCP]
    n = len(packets)
    if not n:
        return [0, 0, 0, 0.0, 0, 0, 0, 0.0]
    per_dst = np.unique(packets.dst, return_counts=True)[1]
    return [
        len(np.unique(packets.dst[_syn_only(packets.flags)])),
        int(per_dst.max()),
        int(per_dst.min()),
        # means are Python int / int, not np.mean: the CSV bytes depend on it
        n / len(per_dst),
        count_half_open(packets),
        int(packets.ip_len.max()),
        int(packets.ip_len.min()),
        int(packets.ip_len.sum(dtype=np.int64)) / n,
    ]


def write_feature_csv(rows: Iterable[list], labels: Iterable[str], path) -> None:
    """One CSV row per feature row, with its BENIGN or MALICIOUS label."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row, label in zip(rows, labels, strict=True):
            writer.writerow([*row, label])


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _whole(text: str, column: str) -> int:
    value = float(text)
    if value != int(value):  # int() refuses infinity and NaN first
        raise ValueError(f"column {column}: count {text!r} is not a whole number")
    return int(value)


def read_feature_csv(path) -> Dataset:
    """The labeled rows ``write_feature_csv`` writes, as X and y (1 for
    MALICIOUS); DataError naming the file, and the line, for any other
    header or row, and for a file with no rows."""
    X, y = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != CSV_HEADER:
                raise DataError(f"{path}: unexpected feature CSV header: {header}")
            for row in reader:
                if len(row) != len(CSV_HEADER):
                    raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
                if row[8] not in (BENIGN, MALICIOUS):
                    raise ValueError(f"bad label {row[8]!r}")
                # columns 3 and 7 are means; the others are counts
                X.append([_finite(v) if j in (3, 7) else _whole(v, CSV_HEADER[j])
                          for j, v in enumerate(row[:8])])
                for name, text, value in zip(CSV_HEADER, row, X[-1]):
                    if value < 0:  # no extracted feature is negative
                        raise ValueError(f"column {name}: negative value {text!r}")
                y.append(int(row[8] == MALICIOUS))
        except (ValueError, OverflowError, csv.Error) as exc:
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None
    if not X:
        raise DataError(f"{path}: no feature rows")
    return Dataset(np.array(X), np.array(y))
