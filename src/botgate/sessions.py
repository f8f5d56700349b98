"""Session windowing and per-device splitting. A session and a device's
traffic are each a ``PacketTable`` cut from the trace's columns."""
from __future__ import annotations

import ipaddress
import math
from dataclasses import dataclass

import numpy as np

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
    # window numbers rise with ts, since a trace is in timestamp order
    bounds = np.searchsorted(packets.ts // SESSION_SECS, np.arange(n_sessions + 1))
    return [TrafficSession(index=i, packets=packets[bounds[i]:bounds[i + 1]])
            for i in range(n_sessions)]


def split_by_device(trace: Trace) -> dict[str, PacketTable]:
    """Each internal IP seen in the trace, in order of first appearance,
    mapped to the table of its packets.

    A packet between two internal IPs shows up in both devices' tables.
    """
    net = ipaddress.IPv4Network(trace.internal_subnet)
    prefix, mask = int(net.network_address), int(net.netmask)
    packets = trace.packets
    # one (device, row) entry per internal endpoint, src before dst in each row
    ends = np.column_stack((packets.src, packets.dst)).ravel()
    internal = np.flatnonzero((ends & mask) == prefix)
    internal = internal[np.argsort(ends[internal], kind="stable")]  # by device, then row
    devices, starts = np.unique(ends[internal], return_index=True)
    rows = np.split(internal // 2, starts[1:])
    names = list(map(format_ip, devices.tolist()))
    first_seen = np.argsort(internal[starts])
    return {names[d]: packets[rows[d]] for d in first_seen.tolist()}
