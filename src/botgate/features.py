"""Per-session scanning features for stage-1 classification.

Eight features per session: unique SYN destination count, per-destination
packet-count max/min/mean, half-open connection count, and TCP packet length
max/min/mean. Computed from TCP headers only.
"""
from __future__ import annotations

import csv
import io
import math
from typing import Iterable

import numpy as np

from .errors import DataError, read_text
from .preprocess import Dataset
from .sessions import TrafficSession, group_starts
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
    syn, ack = _syn_only(packets.flags), packets.flags & ACK != 0
    rows = np.flatnonzero(syn | ack)  # no other row opens or completes a connection
    if not len(rows):
        return 0
    # rows grouped by connection in two sorts, by (src, dst), then by (pair number, sport,
    # dport); neither need be stable, as a min or max of row numbers ignores the order of ties
    pairs = (packets.src[rows].astype(np.uint64) << 32) | packets.dst[rows]
    order = np.argsort(pairs)
    rows, pairs = rows[order], pairs[order]
    conns = ((np.cumsum(group_starts(pairs)) << 32)
             | (packets.sport[rows].astype(np.int64) << 16) | packets.dport[rows])
    order = np.argsort(conns)
    rows, starts = rows[order], np.flatnonzero(group_starts(conns[order]))
    first_syn = np.minimum.reduceat(np.where(syn[rows], rows, n), starts)
    last_ack = np.maximum.reduceat(np.where(ack[rows], rows, -1), starts)
    return int(np.count_nonzero((first_syn < n) & (last_ack < first_syn)))


def extract_features(session: TrafficSession) -> list:
    """The 8 scanning features, in FEATURE_NAMES order, as Python ints and
    floats; an empty session maps to all zeros."""
    packets = session.packets
    tcp = packets.proto == PROTO_TCP
    ip_len = packets.ip_len[tcp]
    n = len(ip_len)
    if not n:
        return [0, 0, 0, 0.0, 0, 0, 0, 0.0]
    # one sort of dst << 1 | syn_only groups the rows by destination, and its
    # distinct odd keys are the SYN-only destinations
    keys = np.sort((packets.dst[tcp].astype(np.int64) << 1) | _syn_only(packets.flags[tcp]))
    per_dst = np.diff(np.flatnonzero(group_starts(keys >> 1)), append=n)
    return [
        int(np.count_nonzero(keys[group_starts(keys)] & 1)),
        int(per_dst.max()),
        int(per_dst.min()),
        # means are Python int / int, not np.mean: the CSV bytes depend on it
        n / len(per_dst),
        count_half_open(packets),  # only TCP rows carry flags, so the whole window
        int(ip_len.max()),
        int(ip_len.min()),
        int(ip_len.sum(dtype=np.int64)) / n,
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
    with io.StringIO(read_text(path), newline="") as fh:
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
