"""Canonical packet-trace data model and its line-oriented text format.

Format: first line ``#trace v1 subnet=<CIDR> epoch=<unix-seconds>``, then one
packet per line::

    <ts> <src_ip> <dst_ip> <src_port> <dst_port> <proto> <flags-hex> <ip_len> <payload_len>

IPv4 only; timestamps are seconds since the trace epoch with millisecond
resolution.

In memory a trace is a ``PacketTable``: one numpy column per field, rows in
timestamp order. ``PacketRecord`` is the row type that generators and
hand-built tests pass in; a list of records becomes a table once, when the
``Trace`` (or session, or device trace) holding it is constructed.
"""
from __future__ import annotations

import ipaddress
import math
import socket
from dataclasses import dataclass, fields
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

from .errors import ConfigError, TraceParseError

# TCP flag bits (standard assignments)
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20

HEADER_PREFIX = "#trace v1"
N_FIELDS = 9
MAX_LEN = 0xFFFFFFFF  # lengths are stored as uint32

_PARSE_BLOCK = 1 << 16  # bytes of body text per vectorized pass; bounds the token lists
_ROW_BLOCK = 8192       # rows turned into Python objects at a time


class Proto(str, Enum):
    TCP = "TCP"
    UDP = "UDP"
    OTHER = "OTHER"


# the proto column holds an index into PROTOS
PROTOS = (Proto.TCP, Proto.UDP, Proto.OTHER)
PROTO_TCP, PROTO_UDP, PROTO_OTHER = range(3)
_PROTO_CODE = {p: i for i, p in enumerate(PROTOS)}
_PROTO_NAMES = tuple(p.value for p in PROTOS)


def quantize_ts(ts: float) -> float:
    """Snap a timestamp to the millisecond grid the text format can hold."""
    return float(f"{ts:.3f}")


def format_ip(value: int) -> str:
    """Dotted-quad form of an IPv4 address held as an integer."""
    return f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


@dataclass(slots=True)
class PacketRecord:
    ts: float
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    proto: Proto
    tcp_flags: int
    ip_len: int
    payload_len: int

    def __post_init__(self):
        # keep in step with _invalid_rows, the same rules over whole columns
        if not math.isfinite(self.ts):
            raise ValueError(f"non-finite timestamp {self.ts}")
        if self.ts < 0:
            raise ValueError(f"negative timestamp {self.ts}")
        if not (0 <= self.src_port <= 65535 and 0 <= self.dst_port <= 65535):
            raise ValueError(f"port out of range: {self.src_port}/{self.dst_port}")
        if self.payload_len > self.ip_len:
            raise ValueError(f"payload_len {self.payload_len} > ip_len {self.ip_len}")
        if self.payload_len < 0 or self.ip_len < 0:
            raise ValueError("negative length")
        if self.ip_len > MAX_LEN:
            raise ValueError(f"ip_len {self.ip_len} out of range")
        if self.proto is not Proto.TCP and self.tcp_flags != 0:
            raise ValueError("tcp_flags must be 0 for non-TCP packets")
        if self.proto is Proto.OTHER and (self.src_port != 0 or self.dst_port != 0):
            raise ValueError("ports must be 0 for proto OTHER")
        if not (0 <= self.tcp_flags <= 0xFF):
            raise ValueError(f"tcp_flags out of range: {self.tcp_flags:#x}")


def _valid_record(ts, src_ip, dst_ip, src_port, dst_port, proto, tcp_flags, ip_len,
                  payload_len) -> PacketRecord:
    """A PacketRecord of values that a table row holds, so already checked."""
    record = object.__new__(PacketRecord)
    record.ts, record.src_ip, record.dst_ip = ts, src_ip, dst_ip
    record.src_port, record.dst_port, record.proto = src_port, dst_port, proto
    record.tcp_flags, record.ip_len, record.payload_len = tcp_flags, ip_len, payload_len
    return record


def _invalid_rows(ts, sport, dport, proto, flags, ip_len, payload_len) -> np.ndarray:
    """Rows that break a PacketRecord rule, over the parser's wide columns."""
    return (
        ~np.isfinite(ts) | (ts < 0)
        | (sport < 0) | (sport > 0xFFFF) | (dport < 0) | (dport > 0xFFFF)
        | (payload_len > ip_len) | (payload_len < 0) | (ip_len < 0) | (ip_len > MAX_LEN)
        | ((proto != PROTO_TCP) & (flags != 0))
        | ((proto == PROTO_OTHER) & ((sport != 0) | (dport != 0)))
        | (flags < 0) | (flags > 0xFF)
    )


def _ip_names(values: np.ndarray, names: dict[int, str]) -> list[str]:
    """Dotted form of each address; ``names`` caches every distinct one."""
    values = values.tolist()
    new = set(values).difference(names)
    names.update(zip(new, map(format_ip, new)))
    return list(map(names.__getitem__, values))


@dataclass(slots=True, eq=False)
class PacketTable:
    """Packets as columns, one row per packet, in PacketRecord field order.

    Indexing with an integer gives that row as a PacketRecord; a slice, index
    array or mask gives a PacketTable (a slice shares the columns' memory).
    Iteration yields PacketRecord rows."""

    ts: np.ndarray           # float64 seconds since the trace epoch
    src: np.ndarray          # uint32 IPv4 address
    dst: np.ndarray          # uint32 IPv4 address
    sport: np.ndarray        # uint16
    dport: np.ndarray        # uint16
    proto: np.ndarray        # uint8 index into PROTOS
    flags: np.ndarray        # uint8 TCP flag bits
    ip_len: np.ndarray       # uint32
    payload_len: np.ndarray  # uint32

    @classmethod
    def from_records(cls, records: Iterable[PacketRecord]) -> PacketTable:
        records = list(records)
        n = len(records)

        def column(name):
            return map(attrgetter(name), records)

        distinct, index = _distinct([*column("src_ip"), *column("dst_ip")])
        addresses, bad = _ip_values(distinct)
        if bad.any():
            raise ValueError(f"invalid IPv4 address {distinct[np.argmax(bad)]!r}")
        return cls(
            ts=np.fromiter(column("ts"), np.float64, n),
            src=addresses[index[:n]].astype(np.uint32),
            dst=addresses[index[n:]].astype(np.uint32),
            sport=np.fromiter(column("src_port"), np.uint16, n),
            dport=np.fromiter(column("dst_port"), np.uint16, n),
            proto=np.fromiter(map(_PROTO_CODE.__getitem__, column("proto")), np.uint8, n),
            flags=np.fromiter(column("tcp_flags"), np.uint8, n),
            ip_len=np.fromiter(column("ip_len"), np.uint32, n),
            payload_len=np.fromiter(column("payload_len"), np.uint32, n),
        )

    @classmethod
    def concat(cls, tables: list[PacketTable]) -> PacketTable:
        if not tables:
            return cls.from_records(())
        return cls(*(np.concatenate(cols) for cols in zip(*map(PacketTable.columns, tables))))

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in _COLUMNS)

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            return next(iter(self[i:i + 1]))
        return PacketTable(*(col[key] for col in self.columns()))

    def __iter__(self) -> Iterator[PacketRecord]:
        names: dict[int, str] = {}
        for start in range(0, len(self), _ROW_BLOCK):
            yield from map(_valid_record, *self[start:start + _ROW_BLOCK]._lists(names, PROTOS))

    def _lists(self, names: dict[int, str], protos: tuple) -> list[list]:
        """The columns as lists of Python values in PacketRecord order, with
        addresses in dotted form and protocols looked up in ``protos``."""
        return [
            self.ts.tolist(), _ip_names(self.src, names), _ip_names(self.dst, names),
            self.sport.tolist(), self.dport.tolist(),
            list(map(protos.__getitem__, self.proto.tolist())),
            self.flags.tolist(), self.ip_len.tolist(), self.payload_len.tolist(),
        ]

    def __eq__(self, other):
        if not isinstance(other, PacketTable):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.columns(), other.columns()))


_COLUMNS = tuple(f.name for f in fields(PacketTable))


def as_table(packets: PacketTable | Iterable[PacketRecord]) -> PacketTable:
    return packets if isinstance(packets, PacketTable) else PacketTable.from_records(packets)


@dataclass(slots=True)
class Trace:
    """A capture. Its packets are kept in timestamp order; packets with equal
    timestamps keep the order they were given in."""

    packets: PacketTable
    internal_subnet: str
    epoch: int = 0

    def __post_init__(self):
        try:
            ipaddress.IPv4Network(self.internal_subnet)
        except (ValueError, ipaddress.AddressValueError) as exc:
            raise ConfigError(f"invalid internal subnet {self.internal_subnet!r}: {exc}") from exc
        packets = as_table(self.packets)
        if np.any(packets.ts[1:] < packets.ts[:-1]):
            packets = packets[np.argsort(packets.ts, kind="stable")]
        self.packets = packets

    def span(self) -> float:
        """Timestamp of the last packet (0.0 for an empty trace)."""
        return float(self.packets.ts[-1]) if len(self.packets) else 0.0


def _parse_header(line: str) -> tuple[str, int]:
    if not line.startswith(HEADER_PREFIX):
        raise TraceParseError(f"line 1: missing '{HEADER_PREFIX}' header")
    subnet = epoch = None
    for token in line[len(HEADER_PREFIX):].split():
        key, _, value = token.partition("=")
        if key == "subnet":
            subnet = value
        elif key == "epoch":
            epoch = value
        else:
            raise TraceParseError(f"line 1: unknown header key {key!r}")
    if subnet is None or epoch is None:
        raise TraceParseError("line 1: header must carry subnet= and epoch=")
    try:
        epoch_i = int(epoch)
    except ValueError as exc:
        raise TraceParseError(f"line 1: bad epoch {epoch!r}") from exc
    return subnet, epoch_i


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


_LINE = "%.3f %s %s %d %d %s 0x%02X %d %d\n"


def _text_blocks(trace: Trace) -> Iterator[str]:
    """The trace in the text format, a bounded number of rows at a time."""
    yield f"{HEADER_PREFIX} subnet={trace.internal_subnet} epoch={trace.epoch}\n"
    names: dict[int, str] = {}
    packets = trace.packets
    for start in range(0, len(packets), _ROW_BLOCK):
        rows = zip(*packets[start:start + _ROW_BLOCK]._lists(names, _PROTO_NAMES))
        yield "".join(map(_LINE.__mod__, rows))


def write_trace(trace: Trace) -> str:
    return "".join(_text_blocks(trace))


def load_trace(path) -> Trace:
    with open(path, "rb") as fh:
        return parse_trace(fh.read())


def save_trace(trace: Trace, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(_text_blocks(trace))
