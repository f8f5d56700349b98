"""Session windowing and per-device splitting. A session is a
``PacketTable`` cut from the trace's columns; a device's stage-2 input is
the array of its command-channel candidates' arrival times."""
from __future__ import annotations

import ipaddress
import math
from dataclasses import dataclass

import numpy as np

from .acf import cnc_candidates
from .errors import ConfigError
from .trace import PacketTable, Trace, format_ip

# Most windows one trace may be cut into (~1.3 KB each before any feature is
# extracted): about 341 days of 15-minute windows.
MAX_SESSIONS = 2 ** 15
SESSION_SECS = 900.0  # the 15-minute window of the paper's sessions, the only window


@dataclass(slots=True)
class TrafficSession:
    index: int  # window i spans [i*SESSION_SECS, (i+1)*SESSION_SECS)
    packets: PacketTable


def group_starts(ranked: np.ndarray) -> np.ndarray:
    """True at each element of a sorted array that differs from the one before."""
    first = np.ones(len(ranked), bool)
    first[1:] = ranked[1:] != ranked[:-1]
    return first


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct integers of ``values``, sorted, as ``np.unique(values)``
    gives them. numpy 2 finds those by hashing, which on 50,000 distinct
    uint32 values took 8.4 ms against 0.17 ms for this sort and neighbour
    compare (numpy 2.4.6)."""
    values = np.sort(values)
    return values[group_starts(values)]


def window_count(trace: Trace) -> int:
    """The number of whole SESSION_SECS windows, aligned to t=0, up to the
    trace's last packet timestamp; a trailing partial window does not count,
    but a capture shorter than one window is still one window."""
    span = max(trace.span(), SESSION_SECS)
    if not span / SESSION_SECS < MAX_SESSIONS + 1:  # also nan; before any allocation
        raise ConfigError(f"span {span} s in windows of {SESSION_SECS} s is more than "
                          f"MAX_SESSIONS = {MAX_SESSIONS} sessions")
    return int(math.floor(span / SESSION_SECS))


def sessionize(trace: Trace) -> list[TrafficSession]:
    """Split a trace into its ``window_count`` consecutive SESSION_SECS
    windows. Each session's packets are a view of the trace's columns."""
    n_sessions = window_count(trace)
    packets = trace.packets
    # exact in a ts-ordered trace: ts // SESSION_SECS >= i if and only if ts >= i * SESSION_SECS
    bounds = np.searchsorted(packets.ts, np.arange(n_sessions + 1) * SESSION_SECS)
    return [TrafficSession(index=i, packets=packets[bounds[i]:bounds[i + 1]])
            for i in range(n_sessions)]


def split_by_device(trace: Trace) -> dict[str, np.ndarray]:
    """Each internal IP seen in the trace, in numeric order, mapped to the
    arrival times of its command-channel candidates (``cnc_candidates``), in
    trace order; a device with no candidate maps to an empty array.

    A packet between two internal IPs counts for both devices.
    """
    net = ipaddress.IPv4Network(trace.internal_subnet)
    prefix, mask = int(net.network_address), int(net.netmask)
    packets = trace.packets
    # one entry per row endpoint, src before dst in each row
    ends = np.column_stack((packets.src, packets.dst)).ravel()
    internal = (ends & mask) == prefix
    devices = distinct(ends[internal])
    kept = np.flatnonzero(internal & np.repeat(cnc_candidates(packets), 2)).astype(np.uint64)
    # by device, then row, in one sort of device << 32 | position (< 2^32 below 2^31 rows)
    words = np.sort((ends[kept].astype(np.uint64) << 32) | kept)
    times = np.split(packets.ts[(words & 0xFFFFFFFF) // 2],
                     np.searchsorted(words, devices[1:].astype(np.uint64) << 32))
    return dict(zip(map(format_ip, devices.tolist()), times))
