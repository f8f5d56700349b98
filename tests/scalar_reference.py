"""Per-packet reference implementations of sessionizing, device splitting,
the scanning features, the command-channel filter and encoding, the
per-lag autocorrelation and peak search of stage 2, the token-level trace
parser, the ``%`` trace writer, and the per-packet traffic generators.

These are the loops that the columnar, spectral and byte-level code in
``botgate`` replaced, kept as the oracle it is tested against. The packet
functions work on lists of PacketRecord rows.
"""
import ipaddress
import math
import socket

import numpy as np

from botgate.acf import GAP_VARIANCE_THRESH, PAYLOAD_CUTOFF, PEAK_HEIGHT_FRAC, SAMPLE_T
from botgate.errors import ConfigError, TraceParseError
from botgate.synth import (
    _EXTERNAL_FIRST_OCTETS, APP_PAYLOAD_MAX, APP_PAYLOAD_MIN, BEACON_PAYLOAD, BROWSE_BURST_RATE,
    IP_HEADER_TCP, IP_HEADER_UDP, SCAN_LEN_MAX, SCAN_LEN_MIN, SCAN_PROBES_MAX, SCAN_PROBES_MIN,
)
from botgate.trace import (
    ACK, FIN, HEADER_PREFIX, N_FIELDS, PROTOS, PSH, SYN, PacketRecord, PacketTable, Proto,
    Trace, _invalid_rows, _parse_header, format_ip,
)


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
    """The eight feature values, in FEATURE_NAMES order."""
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
    """The float per-lag loop: K/(K-l) * sum(d_i d_{i+l}) / sum(d_i^2), each
    sum numpy's pairwise sum, whose order no BLAS kernel choice changes."""
    d = np.asarray(e, dtype=float)
    d = d - d.mean()
    K = len(d)
    denom = float(np.sum(d * d))
    return np.array([(K / (K - l)) * float(np.sum(d[: K - l] * d[l:])) / denom
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


def detect_periodicity(packets, duration):
    """(detected, peak lags) of one device by the loops above."""
    K = int(math.floor(duration / SAMPLE_T))
    max_lag = int(math.floor(K * 0.75))
    e = encode(filter_cnc_candidates(packets, PAYLOAD_CUTOFF), SAMPLE_T, duration)
    if max_lag < 2 or e.min() == e.max():
        return False, []
    peaks = find_peaks(acf_exact(e, max_lag), max_lag, PEAK_HEIGHT_FRAC)
    if len(peaks) < 3:
        return False, peaks
    return float(np.var(np.diff(peaks))) < GAP_VARIANCE_THRESH, peaks


# The token-level parser: every field of every row goes through float, int
# or inet_pton, once per distinct token where that saves time. The header
# parser and the row rules (_invalid_rows) are shared with botgate.

_PARSE_BLOCK = 1 << 16


def parse_trace(text: str | bytes) -> Trace:
    """Parse the canonical text format into a Trace.

    Body lines may arrive in any timestamp order; the result is stably
    sorted by ts (ties keep input order). Lines end in LF, CRLF or CR;
    fields are separated by ASCII whitespace; blank lines are skipped."""
    data = text.encode() if isinstance(text, str) else text
    if not data:
        raise TraceParseError("empty input: missing header")
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if not data.isascii():
        pos = int(np.flatnonzero(np.frombuffer(data, np.uint8) > 0x7F)[0])
        lineno = data.count(b"\n", 0, pos) + 1
        raise TraceParseError(f"line {lineno}: non-ASCII byte 0x{data[pos]:02X}")
    header, _, body = data.partition(b"\n")
    subnet, epoch = _parse_header(header.decode())
    tables = []
    start, lineno = 0, 2
    while start < len(body):
        end = body.find(b"\n", start + _PARSE_BLOCK)
        end = len(body) if end < 0 else end + 1
        block = body[start:end]
        tables.append(_parse_block(block, lineno))
        lineno += block.count(b"\n")
        start = end
    return Trace(packets=PacketTable.concat(tables), internal_subnet=subnet, epoch=epoch)


def _fields_per_line(block: bytes) -> np.ndarray:
    """Whitespace-separated field count of each line of ``block``."""
    b = np.frombuffer(block, np.uint8)
    space = (b == 0x20) | ((b - np.uint8(0x09)) < 5)  # what bytes.split() splits on
    starts = np.flatnonzero(space[:-1] > space[1:]) + 1
    if not space[0]:
        starts = np.concatenate(([0], starts))
    line_ends = np.append(np.flatnonzero(b == 0x0A), len(b))
    return np.diff(np.searchsorted(starts, line_ends), prepend=0)


def _parse_block(block: bytes, lineno: int) -> PacketTable:
    """Parse whole body lines; ``lineno`` is the number of the first one.

    Field counts are checked per line before any token is read, so a short
    row cannot borrow fields from its neighbour."""
    counts = _fields_per_line(block)
    rows = np.flatnonzero(counts)
    misfit = np.flatnonzero(counts[rows] != N_FIELDS)
    n = int(misfit[0]) if misfit.size else len(rows)
    # rows before the first misfit are parsed first: an earlier bad value wins
    table = _parse_rows(block.split()[:n * N_FIELDS], lineno + rows[:n])
    if misfit.size:
        row = rows[n]
        raise TraceParseError(
            f"line {lineno + row}: expected {N_FIELDS} fields, got {counts[row]}")
    return table


_REJECTED = (ValueError, OverflowError, LookupError, OSError)


def _convert(tokens: list[bytes], fn, dtype) -> tuple[np.ndarray, np.ndarray]:
    """``fn`` of every token, and a mask of the tokens it rejects."""
    n = len(tokens)
    try:
        return np.fromiter(map(fn, tokens), dtype, n), np.zeros(n, bool)
    except _REJECTED:
        pass
    values, bad = np.zeros(n, dtype), np.zeros(n, bool)
    for i, token in enumerate(tokens):  # malformed input only: mark each bad token
        try:
            values[i] = fn(token)
        except _REJECTED:
            bad[i] = True
    return values, bad


def _distinct(tokens: list) -> tuple[list, np.ndarray]:
    """The distinct tokens, and where each token sits among them."""
    position = {token: i for i, token in enumerate(dict.fromkeys(tokens))}
    return list(position), np.fromiter(map(position.__getitem__, tokens), np.intp, len(tokens))


def _convert_distinct(tokens: list[bytes], fn) -> tuple[np.ndarray, np.ndarray]:
    """As _convert to int64, calling ``fn`` once per distinct token."""
    distinct, index = _distinct(tokens)
    values, bad = _convert(distinct, fn, np.int64)
    return values[index], bad[index]


def _pton(text: str) -> int:
    return int.from_bytes(socket.inet_pton(socket.AF_INET, text), "big")


def _ip_values(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """IPv4 addresses as integers, and a mask of the texts that are not
    canonical dotted quads (four decimal octets up to 255, no leading zeros)."""
    values, bad = _convert(texts, _pton, np.int64)
    octets = (values[:, None] >> np.array([24, 16, 8, 0])) & 0xFF
    canonical_len = 3 + (1 + (octets >= 10) + (octets >= 100)).sum(axis=1)
    bad |= np.fromiter(map(len, texts), np.intp, len(texts)) != canonical_len
    return values, bad


def _ip_column(tokens: list[bytes]) -> tuple[np.ndarray, np.ndarray]:
    distinct, index = _distinct(tokens)
    values, bad = _ip_values(list(map(bytes.decode, distinct)))
    return values[index], bad[index]


def _hex(token: bytes) -> int:
    if not token.startswith(b"0x"):
        raise ValueError("flags must be hex")
    return int(token, 16)


_PROTO_OF_TOKEN = {p.value.encode(): i for i, p in enumerate(PROTOS)}
# what a token rejected in each field is called
_FIELD_ERRORS = ("bad timestamp", "bad IPv4 address", "bad IPv4 address", "bad port",
                 "bad port", "unknown protocol", "flags must be hex, got", "bad length",
                 "bad length")


def _parse_rows(tokens: list[bytes], linenos: np.ndarray) -> PacketTable:
    """Columns from the tokens of ``len(linenos)`` nine-field rows; the first
    bad row raises TraceParseError with its line number."""
    cols = [tokens[k::N_FIELDS] for k in range(N_FIELDS)]
    parsed = [
        _convert(cols[0], float, np.float64),
        _ip_column(cols[1]),
        _ip_column(cols[2]),
        _convert(cols[3], int, np.int64),
        _convert(cols[4], int, np.int64),
        _convert_distinct(cols[5], _PROTO_OF_TOKEN.__getitem__),
        _convert_distinct(cols[6], _hex),
        _convert(cols[7], int, np.int64),
        _convert(cols[8], int, np.int64),
    ]
    values = [v for v, _ in parsed]
    bad_tokens = np.column_stack([b for _, b in parsed])
    bad = bad_tokens.any(axis=1) | _invalid_rows(values[0], *values[3:])
    if bad.any():
        i = int(np.argmax(bad))
        where = f"line {linenos[i]}"
        if bad_tokens[i].any():
            k = int(np.argmax(bad_tokens[i]))
            raise TraceParseError(f"{where}: {_FIELD_ERRORS[k]} {cols[k][i].decode()!r}")
        ts, src, dst, sport, dport, proto, *rest = (v[i].item() for v in values)
        try:
            PacketRecord(ts, format_ip(src), format_ip(dst), sport, dport, PROTOS[proto], *rest)
        except ValueError as exc:
            raise TraceParseError(f"{where}: {exc}") from None
        raise TraceParseError(f"{where}: invalid packet")
    ts, src, dst, sport, dport, proto, flags, ip_len, payload_len = values
    return PacketTable(
        ts=ts, src=src.astype(np.uint32), dst=dst.astype(np.uint32),
        sport=sport.astype(np.uint16), dport=dport.astype(np.uint16),
        proto=proto.astype(np.uint8), flags=flags.astype(np.uint8),
        ip_len=ip_len.astype(np.uint32), payload_len=payload_len.astype(np.uint32),
    )


# The writer: each PacketRecord row formatted with %.

_LINE = "%.3f %s %s %d %d %s 0x%02X %d %d\n"


def write_trace(trace: Trace) -> str:
    rows = (_LINE % (r.ts, r.src_ip, r.dst_ip, r.src_port, r.dst_port, r.proto.value,
                     r.tcp_flags, r.ip_len, r.payload_len) for r in trace.packets)
    return f"{HEADER_PREFIX} subnet={trace.internal_subnet} epoch={trace.epoch}\n" + "".join(rows)


# The per-packet generators: one scalar draw per value and one validated
# PacketRecord per packet. gen_cnc_beacon and gen_memoryless_noise draw in
# the same order as botgate.synth, so their packets must be equal; the scan
# and benign generators draw in another order and are compared by shape.

def quantize_ts(ts):
    return float(f"{ts:.3f}")


def _external_ip(rng):
    a = int(_EXTERNAL_FIRST_OCTETS[int(rng.integers(0, len(_EXTERNAL_FIRST_OCTETS)))])
    b, c, d = (int(x) for x in rng.integers(0, 256, size=3))
    return f"{a}.{b}.{c}.{min(d, 254)}"


def _tcp(ts, src, dst, sport, dport, flags, payload=0):
    return PacketRecord(quantize_ts(ts), src, dst, sport, dport, Proto.TCP, flags,
                        IP_HEADER_TCP + payload, payload)


def _udp(ts, src, dst, sport, dport, payload):
    return PacketRecord(quantize_ts(ts), src, dst, sport, dport, Proto.UDP, 0,
                        IP_HEADER_UDP + payload, payload)


def _app_exchange(t0, dev, srv, sport, payload_up, payload_down):
    return [
        _tcp(t0, dev, srv, sport, 443, SYN),
        _tcp(t0 + 0.02, srv, dev, 443, sport, SYN | ACK),
        _tcp(t0 + 0.04, dev, srv, sport, 443, ACK),
        _tcp(t0 + 0.06, dev, srv, sport, 443, PSH | ACK, payload_up),
        _tcp(t0 + 0.10, srv, dev, 443, sport, PSH | ACK, payload_down),
        _tcp(t0 + 0.12, dev, srv, sport, 443, ACK),
        _tcp(t0 + 0.14, dev, srv, sport, 443, FIN | ACK),
        _tcp(t0 + 0.16, srv, dev, 443, sport, FIN | ACK),
        _tcp(t0 + 0.18, dev, srv, sport, 443, ACK),
    ]


def gen_benign(config, seed):
    rng = np.random.default_rng(seed)
    p = config.benign
    packets = []
    for dev in config.iot_ips():
        srv = _external_ip(rng)
        t = float(rng.uniform(0, p.app_interval_max_s))
        while t < config.duration_s - 1.0:
            sport = int(rng.integers(32768, 61000))
            up = int(rng.integers(APP_PAYLOAD_MIN, APP_PAYLOAD_MAX + 1))
            down = int(rng.integers(APP_PAYLOAD_MIN, APP_PAYLOAD_MAX + 1))
            packets.extend(_app_exchange(t, dev, srv, sport, up, down))
            t += float(rng.uniform(p.app_interval_min_s, p.app_interval_max_s))
    for pc in config.pc_ips():
        n_bursts = int(rng.poisson(BROWSE_BURST_RATE * config.duration_s))
        for t in sorted(rng.uniform(0, config.duration_s - 2.0, size=n_bursts)):
            srv = _external_ip(rng)
            sport = int(rng.integers(32768, 61000))
            packets.extend(_app_exchange(float(t), pc, srv, sport,
                                         int(rng.integers(200, 1200)),
                                         int(rng.integers(500, 1500))))
            for j in range(int(rng.integers(2, 6))):
                packets.append(_tcp(float(t) + 0.2 + 0.02 * j, srv, pc, 443, sport,
                                    ACK, int(rng.integers(500, 1500))))
    return packets


def gen_scanning(config, seed, device_ip):
    rng = np.random.default_rng(seed)
    s = config.scan
    packets = []
    if s.rate_pps <= 0:
        return packets
    mean_count = (SCAN_PROBES_MIN + SCAN_PROBES_MAX) / 2
    event_rate = s.rate_pps / mean_count
    t = float(rng.exponential(1.0 / event_rate))
    while t < config.duration_s:
        target = _external_ip(rng)
        sport = int(rng.integers(32768, 61000))
        count = int(rng.integers(SCAN_PROBES_MIN, SCAN_PROBES_MAX + 1))
        length = int(rng.integers(SCAN_LEN_MIN, SCAN_LEN_MAX + 1))
        for j in range(count):
            tj = t + 0.3 * j
            if tj >= config.duration_s:
                break
            packets.append(PacketRecord(quantize_ts(tj), device_ip, target, sport, 23,
                                        Proto.TCP, SYN, length, 0))
        t += float(rng.exponential(1.0 / event_rate))
    return packets


def gen_cnc_beacon(period_s, jitter_s, duration_s, seed, protocol="TCP",
                   device_ip="192.168.1.10", server_ip="203.0.113.50"):
    if period_s <= 0:
        raise ConfigError("beacon period must be positive")
    rng = np.random.default_rng(seed)
    packets = []
    sport = int(rng.integers(32768, 61000))
    k = 0
    while k * period_s < duration_s:
        t = k * period_s
        if jitter_s > 0:
            t += float(rng.uniform(-jitter_s, jitter_s))
        k += 1
        if t < 0 or t >= duration_s:
            continue
        if protocol == "UDP":
            packets.append(_udp(t, device_ip, server_ip, sport, 5353, BEACON_PAYLOAD))
        else:
            packets.append(_tcp(t, device_ip, server_ip, sport, 4444, PSH | ACK, BEACON_PAYLOAD))
            packets.append(_tcp(t + 0.05, server_ip, device_ip, 4444, sport, ACK))
    return packets


def gen_memoryless_noise(rate_pps, duration_s, seed, device_ip="192.168.1.10",
                         server_ip="198.51.100.7"):
    rng = np.random.default_rng(seed)
    packets = []
    sport = int(rng.integers(32768, 61000))
    t = float(rng.exponential(1.0 / rate_pps))
    while t < duration_s:
        packets.append(_tcp(t, device_ip, server_ip, sport, 80, PSH | ACK, 4))
        t += float(rng.exponential(1.0 / rate_pps))
    return packets
