"""Canonical packet-trace data model and its line-oriented text format.

Format: first line ``#trace v1 subnet=<CIDR> epoch=<unix-seconds>``, then one
packet per line::

    <ts> <src_ip> <dst_ip> <src_port> <dst_port> <proto> <flags-hex> <ip_len> <payload_len>

IPv4 only; timestamps are seconds since the trace epoch with millisecond
resolution.

In memory a trace is a ``PacketTable``: one numpy column per field, rows in
timestamp order. ``PacketRecord`` is the row type that callers outside the
library pass in; a list of records becomes a table once, when the ``Trace``
holding it is constructed.
"""
from __future__ import annotations

import ipaddress
import os
import socket
from collections import namedtuple
from dataclasses import dataclass, fields
from enum import Enum
from functools import reduce
from operator import attrgetter, or_
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

_PARSE_BLOCK = 96 << 10  # body bytes a block; layout temporaries ~0.55 KB a row
# Bodies of _PARALLEL_MIN bytes or more are read in two parts at once if the process may use two
# CPUs. Seed-1 `day` trace (15.5 MB, 2-vCPU Xeon), two parts against one, medians of 12 rounds:
# 0.94x in 96 KiB blocks, since the threads trade the GIL between short numpy calls.
_PARALLEL_MIN = 1 << 20  # a 0.4 MB capture (7.5 ms) keeps 96 KiB blocks and a 1.15 MB peak
# 1.60x, parse peak 8.5 -> 12.4 MB; 192 KiB: 1.44x, 384 KiB: 1.66x for 2.3 MB more, 512 KiB: 1.55x
_PART_BLOCK = 256 << 10
_LOAD = 8                # bytes the parser reads at once from the start of a field
_ROW_BLOCK = 8192        # rows per pass of the writer and of row iteration: bounds their temporaries


class Proto(str, Enum):
    TCP = "TCP"
    UDP = "UDP"
    OTHER = "OTHER"


# the proto column holds an index into PROTOS
PROTOS = (Proto.TCP, Proto.UDP, Proto.OTHER)
PROTO_TCP, PROTO_UDP, PROTO_OTHER = range(3)
_PROTO_CODE = {p: i for i, p in enumerate(PROTOS)}  # a Proto is its name, so names look up too
_PROTO_NAMES = tuple(p.value for p in PROTOS)


def quantize_ts(ts):
    """Snap timestamps (a float or an array) to the millisecond grid the text
    format can hold. Each becomes k/1000, one correctly rounded division, so
    it is the value its ``%.3f`` text parses back to."""
    return np.rint(np.multiply(ts, 1000)) / 1000


def format_ip(value: int) -> str:
    """Dotted-quad form of an IPv4 address held as an integer."""
    return f"{value >> 24}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


def parse_ip(text: str) -> int:
    """The integer of a canonical dotted-quad IPv4 address (four decimal
    octets up to 255, no leading zeros); ValueError for anything else."""
    try:
        packed = socket.inet_pton(socket.AF_INET, text)
    except (OSError, ValueError):
        packed = None
    if packed is None or socket.inet_ntoa(packed) != text:
        raise ValueError(f"invalid IPv4 address {text!r}")
    return int.from_bytes(packed, "big")


# The packet-row rules in PacketRecord's check order: a test that holds where
# a _Row breaks the rule, and the message, formatted with the row's values. A
# _Row holds scalars or whole wide columns; its proto is an index into PROTOS.
_Row = namedtuple("_Row", "ts sport dport proto flags ip_len payload_len")
_ROW_RULES = (
    (lambda r: ~np.isfinite(r.ts), "non-finite timestamp {ts}"),
    (lambda r: r.ts < 0, "negative timestamp {ts}"),
    (lambda r: (r.sport < 0) | (r.sport > 0xFFFF) | (r.dport < 0) | (r.dport > 0xFFFF),
     "port out of range: {sport}/{dport}"),
    (lambda r: r.payload_len > r.ip_len, "payload_len {payload_len} > ip_len {ip_len}"),
    (lambda r: (r.payload_len < 0) | (r.ip_len < 0), "negative length"),
    (lambda r: r.ip_len > MAX_LEN, "ip_len {ip_len} out of range"),
    (lambda r: (r.proto != PROTO_TCP) & (r.flags != 0),
     "tcp_flags must be 0 for non-TCP packets"),
    (lambda r: (r.proto == PROTO_OTHER) & ((r.sport != 0) | (r.dport != 0)),
     "ports must be 0 for proto OTHER"),
    (lambda r: (r.flags < 0) | (r.flags > 0xFF), "tcp_flags out of range: {flags:#x}"),
)


def _row_error(row: _Row) -> str | None:
    """The message of the first rule that ``row`` (of scalars) breaks, if any."""
    for test, message in _ROW_RULES:
        if test(row):
            return message.format(**row._asdict())


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
        proto = _PROTO_CODE[self.proto] if type(self.proto) is Proto else -1
        row = _Row(self.ts, self.src_port, self.dst_port, proto, self.tcp_flags, self.ip_len,
                   self.payload_len)
        if error := _row_error(row):
            raise ValueError(error)


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
    row = _Row(ts, sport, dport, proto, flags, ip_len, payload_len)
    return reduce(or_, (test(row) for test, _ in _ROW_RULES))


def _record_error(wide: list[np.ndarray], i: int) -> str:
    """The message of the first rule that row ``i`` (in C order) of the wide
    columns breaks; ``_invalid_rows`` has marked it."""
    return _row_error(_Row(wide[0].flat[i].item(), *(v.flat[i].item() for v in wide[3:])))


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

        src, dst = list(column("src_ip")), list(column("dst_ip"))
        addresses = {ip: parse_ip(ip) for ip in dict.fromkeys(src + dst)}
        return cls(
            ts=np.fromiter(column("ts"), np.float64, n),
            src=np.fromiter(map(addresses.__getitem__, src), np.uint32, n),
            dst=np.fromiter(map(addresses.__getitem__, dst), np.uint32, n),
            sport=np.fromiter(column("src_port"), np.uint16, n),
            dport=np.fromiter(column("dst_port"), np.uint16, n),
            proto=np.fromiter(map(_PROTO_CODE.__getitem__, column("proto")), np.uint8, n),
            flags=np.fromiter(column("tcp_flags"), np.uint8, n),
            ip_len=np.fromiter(column("ip_len"), np.uint32, n),
            payload_len=np.fromiter(column("payload_len"), np.uint32, n),
        )

    @classmethod
    def from_columns(cls, ts, src, dst, sport, dport, proto, flags, ip_len,
                     payload_len) -> PacketTable:
        """A table of wide (signed or float) columns, or of arrays and
        scalars that broadcast to one shape, flattened in C order. The rows
        are checked by PacketRecord's rules before the cast to the stored
        types, so a negative length raises ValueError instead of wrapping;
        addresses are taken as the integers they are."""
        wide = np.broadcast_arrays(ts, src, dst, sport, dport, proto, flags, ip_len, payload_len)
        bad = _invalid_rows(wide[0], *wide[3:])
        if bad.any():
            raise ValueError(_record_error(wide, int(np.argmax(bad))))
        # each cast to its stored type: one contiguous copy, also of a broadcast view
        return cls(*(v.astype(dtype).ravel() for v, dtype in zip(wide, _DTYPES)))

    @classmethod
    def concat(cls, tables: list[PacketTable]) -> PacketTable:
        if not tables:
            return cls(*(np.empty(0, dtype) for dtype in _DTYPES))
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
            yield from map(_valid_record, *self[start:start + _ROW_BLOCK]._lists(names))

    def _lists(self, names: dict[int, str]) -> list[list]:
        """The columns as lists of Python values in PacketRecord order, with
        addresses in dotted form and protocols as ``Proto`` members."""
        return [
            self.ts.tolist(), _ip_names(self.src, names), _ip_names(self.dst, names),
            self.sport.tolist(), self.dport.tolist(),
            list(map(PROTOS.__getitem__, self.proto.tolist())),
            self.flags.tolist(), self.ip_len.tolist(), self.payload_len.tolist(),
        ]

    def __eq__(self, other):
        if not isinstance(other, PacketTable):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.columns(), other.columns()))


_COLUMNS = tuple(f.name for f in fields(PacketTable))
_DTYPES = (np.float64, np.uint32, np.uint32, np.uint16, np.uint16, np.uint8, np.uint8,
           np.uint32, np.uint32)


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
        packets = self.packets
        if not isinstance(packets, PacketTable):  # PacketRecord rows from outside the library
            packets = PacketTable.from_records(packets)
        if np.any(packets.ts[1:] < packets.ts[:-1]):
            packets = packets[np.argsort(packets.ts, kind="stable")]
        self.packets = packets

    def span(self) -> float:
        """Timestamp of the last packet (0.0 for an empty trace)."""
        return float(self.packets.ts[-1]) if len(self.packets) else 0.0


def _parse_header(line: str) -> tuple[str, int]:
    rest = line[len(HEADER_PREFIX):]
    if not line.startswith(HEADER_PREFIX) or rest[:1].strip():  # "#trace v10", "v1subnet="
        raise TraceParseError(f"line 1: missing '{HEADER_PREFIX}' header")
    keys = {}
    for token in rest.split():
        key, _, value = token.partition("=")
        if key not in ("subnet", "epoch"):
            raise TraceParseError(f"line 1: unknown header key {key!r}")
        if key in keys:
            raise TraceParseError(f"line 1: repeated header key {key!r}")
        keys[key] = value
    if len(keys) < 2:
        raise TraceParseError("line 1: header must carry subnet= and epoch=")
    try:
        return keys["subnet"], int(keys["epoch"])
    except ValueError as exc:
        raise TraceParseError(f"line 1: bad epoch {keys['epoch']!r}") from exc


def _two_cpus() -> bool:
    """Whether this process may run on at least two CPUs (False where the OS cannot say)."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


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
    body = data.find(b"\n") + 1 or len(data) + 1  # past the header's line end
    subnet, epoch = _parse_header(data[:body - 1].decode())
    cut = data.find(b"\n", (body + len(data)) // 2) + 1 or len(data)  # a line end past the middle
    first_lines = _count_lines(data, body, cut)
    lines = first_lines + _count_lines(data, cut, len(data))
    # a row takes at least 18 bytes: nine 1-byte fields, eight separators and
    # a line end (which the last line may lack), so blank lines cost no rows
    capacity = min(lines + 1, (len(data) + 1 - body) // 18)
    columns = [np.empty(capacity, dtype) for dtype in _DTYPES]
    # two parts only if every line may be a row: blank lines keep the small blocks
    if capacity > lines and len(data) - body >= _PARALLEL_MIN and _two_cpus():
        # imported here: with the logging it pulls in, 5-8 ms that no 15-minute capture pays
        from concurrent.futures import ThreadPoolExecutor
        # the first error in file order wins: leaving the block joins the worker, and result()
        # raises the second part's error only once the first part has read without one
        halt = []  # the first part failed: the worker starts no further block
        with ThreadPoolExecutor(1) as worker:
            second = worker.submit(_parse_part, data, cut, len(data), 2 + first_lines,
                                   [c[first_lines:] for c in columns], _PART_BLOCK, halt)
            try:
                n_rows = _parse_part(data, body, cut, 2, columns, _PART_BLOCK)
            except BaseException:
                halt.append(True)
                raise
            rows = second.result()
        for c in columns:  # close a gap of blank lines in the first part; else numpy copies nothing
            c[n_rows:n_rows + rows] = c[first_lines:first_lines + rows]
        n_rows += rows
    else:
        n_rows = _parse_part(data, body, len(data), 2, columns, _PARSE_BLOCK)
    # a table far smaller than its columns is copied, so the Trace holds no slack
    columns = [c[:n_rows].copy() if 2 * n_rows < capacity else c[:n_rows] for c in columns]
    return Trace(packets=PacketTable(*columns), internal_subnet=subnet, epoch=epoch)


def _count_lines(data: bytes, start: int, stop: int) -> int:
    """``data.count(b"\\n", start, stop)`` in 1 MiB numpy slices: 4.8 against 15.2 ms on the
    15.3 MB seed-1 `day` trace (AVX-512 Xeon), with one slice's mask as the only temporary."""
    view = np.frombuffer(data, np.uint8)[:stop]
    return sum(int(np.count_nonzero(view[i:i + (1 << 20)] == 0x0A))
               for i in range(start, stop, 1 << 20))


def _parse_part(data: bytes, start: int, stop: int, lineno: int, out: list[np.ndarray],
                block: int, halt=()) -> int:
    """Parse ``data[start:stop]``, whole lines from line ``lineno``, in ``block``-byte views
    into the starts of the ``out`` columns, until ``halt`` is non-empty. Returns the number
    of rows written."""
    n_rows = 0
    while start < stop and not halt:
        end = data.find(b"\n", start + block, stop) + 1 or stop
        rows, lines = _parse_block(memoryview(data)[start:end], lineno, [c[n_rows:] for c in out])
        n_rows, lineno, start = n_rows + rows, lineno + lines, end
    return n_rows


def _parse_block(block: memoryview, lineno: int, out: list[np.ndarray]) -> tuple[int, int]:
    """Parse whole body lines into the starts of the ``out`` columns;
    ``lineno`` is the number of the first line. Returns the number of rows
    written and of lines read.

    A block whose every line has the canonical layout is cut into fields at
    its separators. Any other block is read one line at a time."""
    n = len(block)
    b = np.empty(n + 1 + _LOAD, np.uint8)  # the block between two newlines, then spaces:
    b[0] = b[n + 1] = 0x0A                  # every line is bounded and every token has an
    b[n + 2:] = 0x20                        # edge on each side and room for an 8-byte load
    b[1:n + 1] = np.frombuffer(block, np.uint8)
    if not (fields := _layout_fields(b[:n + 1 if block[-1] == 0x0A else n + 2])):
        return _read_lines(bytes(block), lineno, out)
    starts, lengths = fields
    rows = starts.shape[1]
    values, canonical = _canonical_values(b, starts, lengths)
    # the other rows one token at a time, from the first field's start to the end of field 13
    other = np.flatnonzero(~canonical)
    ends = starts[13, other] + lengths[13, other]
    read = [_token_row(b[s:e].tobytes()) for s, e in zip(starts[0, other].tolist(), ends.tolist())]
    _write_rows(values, other, read, lineno + np.arange(rows), out)
    return rows, rows


def _read_lines(block: bytes, lineno: int, out: list[np.ndarray]) -> tuple[int, int]:
    """``_parse_block`` of a block off the layout, one line at a time: blank
    lines are skipped, and a line without nine fields ends the block after
    the rows before it, so that an earlier bad value wins."""
    read, linenos, misfit = [], [], None
    for i, line in enumerate(block.split(b"\n"), lineno):
        if (count := line and len(line.split())) == N_FIELDS:  # b"" makes no list
            read.append(_token_row(line))
            linenos.append(i)
        elif count:
            misfit = f"line {i}: expected {N_FIELDS} fields, got {count}"
            break
    values = [np.empty(len(read), np.int64 if k else np.float64) for k in range(N_FIELDS)]
    _write_rows(values, np.arange(len(read)), read, linenos, out)
    if misfit:
        raise TraceParseError(misfit)
    return len(read), block.count(b"\n")


def _layout_fields(head: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The (field, row) starts and lengths of the 16 fields of each line of
    ``head`` (a newline, then whole lines), if every line has the separators
    of ``_LAYOUT`` around 16 non-empty fields; None otherwise."""
    # the whitespace bytes.split() splits on, and control bytes, which fail the layout
    sep = head <= 0x20
    sep |= head == 0x2E
    sep = np.flatnonzero(sep)  # the leading newline, then 16 a line
    rows = len(sep) // 16
    if len(sep) != 16 * rows + 1 or not (head[sep[1:]].reshape(rows, 16) == _LAYOUT).all():
        return None
    # each field starts after a separator and ends at the next one
    lengths = np.subtract(sep[1:], sep[:-1], dtype=np.int32)
    lengths -= 1
    sep += 1
    starts = sep[:-1].reshape(rows, 16).T[_TEXT_FIELDS]
    lengths = lengths.reshape(rows, 16).T[_TEXT_FIELDS]
    return (starts, lengths) if lengths.all() else None


def _hex(token: str) -> int:
    if not token.startswith("0x"):
        raise ValueError("flags must be hex")
    return int(token, 16)


# each field's converter from a token, and what a token it rejects is called
_CONVERTERS = (float, parse_ip, parse_ip, int, int, _PROTO_CODE.__getitem__, _hex, int, int)
_INT64 = range(-1 << 63, 1 << 63)  # what the wide columns of every field but ts hold
_FIELD_ERRORS = ("bad timestamp", "bad IPv4 address", "bad IPv4 address", "bad port",
                 "bad port", "unknown protocol", "flags must be hex, got", "bad length",
                 "bad length")


def _token_row(line: bytes) -> tuple[list, str | None]:
    """The wide values of a nine-field row read one token at a time, and
    what is wrong with the first token that its field's converter rejects or
    its column cannot hold, if any."""
    values = [0] * N_FIELDS
    for k, token in enumerate(line.split()):  # at ASCII whitespace, not at bytes 0x1C-0x1F
        token = token.decode()
        try:
            value = _CONVERTERS[k](token)
            if k and value not in _INT64:
                raise OverflowError
            values[k] = value
        except (ValueError, OverflowError, LookupError):
            return values, f"{_FIELD_ERRORS[k]} {token!r}"
    return values, None


def _write_rows(values: list[np.ndarray], other: np.ndarray, read: list, linenos,
               out: list[np.ndarray]) -> None:
    """Write into the starts of the ``out`` columns the rows of the wide
    columns ``values``, once the rows at ``other`` hold what ``_token_row``
    ``read`` of them. The first bad row raises TraceParseError with its line
    number (``linenos``: one a row) before anything is written."""
    for k, column in enumerate(values):
        column[other] = [row[k] for row, _ in read]
    token_errors = {i: error for i, (_, error) in zip(other.tolist(), read) if error}
    bad = _invalid_rows(values[0], *values[3:])
    bad[list(token_errors)] = True
    if bad.any():
        i = int(np.argmax(bad))
        raise TraceParseError(
            f"line {linenos[i]}: {token_errors.get(i) or _record_error(values, i)}")
    for column, value in zip(out, values):
        column[:len(value)] = value  # checked, so the cast to the stored type is exact


# The canonical row is what write_trace emits:
#   <int>.<3 digits> <quad> <quad> <int> <int> TCP|UDP|OTHER 0x<2 hex> <int> <int>
# with ints of 1 to 8 digits and quads of octets 0-255 without leading zeros.
# Its 16 fields are read in this order: the 14 decimal ones (ts integer part
# and fraction, the 4 + 4 octets, the two ports and the two lengths), then
# protocol and flags; _TEXT_FIELDS maps them to their order in the text.
# A row's 7 dots cut its nine tokens into the 16 fields.
_TEXT_FIELDS = [*range(12), 14, 15, 12, 13]
_LAYOUT = np.frombuffer(b". ... ... " + b" " * 5 + b"\n", np.uint8)  # a line's separators
_OCTET_SHIFTS = np.array([24, 16, 8, 0])[:, None]
_PROTO_WORDS = [(int.from_bytes(p.encode(), "little"), i) for i, p in enumerate(_PROTO_NAMES)]
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(_LOAD + 1)], np.uint64)
_HEX_PREFIX = int.from_bytes(b"0x", "little")
_HEX_DIGIT = np.full(256, -256)  # value of each hex digit character, negative for the rest
_HEX_DIGIT[list(b"0123456789abcdef")] = _HEX_DIGIT[list(b"0123456789ABCDEF")] = np.arange(16)


def _canonical_values(b: np.ndarray, starts: np.ndarray,
                      lengths: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The wide columns of the rows whose 16 fields start at ``starts`` and
    have ``lengths`` (field, row; offsets into ``b``), and a mask of the rows
    whose fields are canonical. Only the masked rows' values are meaningful."""
    # the 8 bytes at each offset; gather from it by indexing, since take()
    # would first copy the whole unaligned view
    words = np.ndarray((len(b) - _LOAD + 1,), "<u8", b, strides=(1,))
    fields = words[starts]
    # protocol: the token's bytes as one little-endian word; a token holds no NUL (every byte up
    # to 0x20 is a separator), so the word equals a name's only at that name's length
    name = fields[14] & _LOW_BYTES.take(lengths[14].clip(0, _LOAD))
    proto = np.full(name.shape, -1)
    for word, code in _PROTO_WORDS:
        proto[name == word] = code
    # flags: "0x" and two hex digits
    flags_word = fields[15]
    flags = (_HEX_DIGIT.take((flags_word >> 16 & 0xFF).astype(np.intp)) * 16
             + _HEX_DIGIT.take((flags_word >> 24 & 0xFF).astype(np.intp)))
    canonical = ((proto >= 0) & (flags >= 0) & (lengths[15] == 4)
                 & (flags_word & 0xFFFF == _HEX_PREFIX))
    v, ok = _decimals(fields[:14], lengths[:14])
    ok[1] &= lengths[1] == 3
    # an octet is at most 255 and has as many digits as its value needs
    octets = v[2:10]
    ok[2:10] &= (octets <= 255) & (lengths[2:10] - (octets >= 10) - (octets >= 100) == 1)
    v = v.view(np.int64)  # the canonical values are below 10^8
    ts = (v[0] * 1000 + v[1]) / 1000  # one correctly rounded division, as float() rounds
    src = (v[2:6] << _OCTET_SHIFTS).sum(axis=0)
    dst = (v[6:10] << _OCTET_SHIFTS).sum(axis=0)
    canonical &= ok.all(axis=0)
    return [ts, src, dst, v[10], v[11], proto, flags, v[12], v[13]], canonical


def _decimals(words: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values of decimal fields, from ``words`` (the 8 bytes at each field's
    start, little endian) and the fields' ``lengths``, and a mask of the
    fields that are 1 to 8 ASCII digits. SWAR: each byte less '0' is its
    digit, and the digits move to the top of the word over zeros; then three
    multiply-and-shift steps add digit pairs, pairs of pairs and the two
    halves. ``words`` is overwritten."""
    ok = (lengths >= 1) & (lengths <= _LOAD)
    bits = lengths.astype(np.uint8) << 3  # mod 256: wrong only where ok is false
    words ^= 0x3030303030303030
    words <<= np.subtract(64, bits, out=bits)
    del bits
    # every byte is at most 9: adding 0x76 leaves its top bit clear
    high = words + 0x7676767676767676
    high |= words
    high &= 0x8080808080808080
    ok &= high == 0
    del high
    words *= 10 << 8 | 1
    words >>= 8
    words &= 0x00FF00FF00FF00FF
    words *= 100 << 16 | 1
    words >>= 16
    words &= 0x0000FFFF0000FFFF
    words *= 10000 << 32 | 1
    words >>= 32
    return words, ok


# The writer builds each row of 4-byte words from lookup tables; deleting the
# words' NUL padding leaves the row's text. A number is 4-digit groups, most
# significant first: blank, then the leading group, then zero-filled groups.
def _words(texts: list[str]) -> np.ndarray:
    """A row of 4-byte words per text, NUL-padded to the longest text."""
    text = np.array(texts, "S")
    return text.astype(f"S{-(-text.itemsize // 4) * 4}").view(np.uint32).reshape(len(texts), -1)


_GROUP_ZERO_FILLED, _GROUP_BLANK = 10000, 20000  # offsets into _GROUPS
_GROUPS = _words([*map(str, range(10000)), *("%04d" % g for g in range(10000)), ""]).ravel()
_FRACTIONS = _words([".%03d" % f for f in range(1000)]).ravel()
_OCTETS = _words([f"{o}{end}" for end in ". " for o in range(256)]).ravel()  # ".", then " "
_FLAGS = _words(["0x%02X" % f for f in range(256)]).ravel()
_PROTO_TEXT = _words([f"{name} " for name in _PROTO_NAMES])
_SPACE, _NEWLINE = _words([" ", "\n"]).ravel()


def _number_words(values: np.ndarray) -> list[np.ndarray]:
    """The words of non-negative integers, as many as the largest needs."""
    q = values.astype(np.int64)
    words = []
    for k in range((len(str(int(q.max()))) + 3) // 4):
        above = q // 10000
        group = q - above * 10000 + (above > 0) * _GROUP_ZERO_FILLED
        if k:
            group[q == 0] = _GROUP_BLANK
        words.append(_GROUPS[group])
        q = above
    return words[::-1]


def _ts_words(ts: np.ndarray) -> list[np.ndarray]:
    """The words of ``%.3f`` of each timestamp. On the millisecond grid below
    2**32 s, ``%.3f`` prints the digits of the millisecond count, so they are
    built from it; a block with any other timestamp is formatted by ``%``."""
    ms = np.rint(np.minimum(ts, 2**32) * 1000)  # bounded, so that it cannot overflow
    if np.all((ms / 1000 == ts) & (ts < 2**32) & ~np.signbit(ts)):
        ms = ms.astype(np.int64)
        seconds = ms // 1000
        return [*_number_words(seconds), _FRACTIONS[ms - seconds * 1000]]
    return [*_words(["%.3f" % t for t in ts.tolist()]).T]


def _block_words(packets: PacketTable) -> np.ndarray:
    """The (rows, words) matrix of a non-empty block of rows: its bytes are
    the block's text with NUL padding."""
    words = [*_ts_words(packets.ts), _SPACE]
    for address in packets.src, packets.dst:
        words += [_OCTETS[address >> 24], _OCTETS[address >> 16 & 255],
                  _OCTETS[address >> 8 & 255], _OCTETS[(address & 255) + 256]]
    for port in packets.sport, packets.dport:
        words += [*_number_words(port), _SPACE]
    words += [*_PROTO_TEXT[packets.proto].T, _FLAGS[packets.flags], _SPACE,
              *_number_words(packets.ip_len), _SPACE, *_number_words(packets.payload_len),
              _NEWLINE]
    rows = np.empty((len(packets), len(words)), np.uint32)
    for j, column in enumerate(words):
        rows[:, j] = column
    return rows


def _text_blocks(trace: Trace) -> Iterator[bytes]:
    """The trace in the text format, a bounded number of rows at a time."""
    yield f"{HEADER_PREFIX} subnet={trace.internal_subnet} epoch={trace.epoch}\n".encode("ascii")
    packets = trace.packets
    for start in range(0, len(packets), _ROW_BLOCK):
        # the matrix is freed before the NULs are deleted from its copy
        yield _block_words(packets[start:start + _ROW_BLOCK]).tobytes().translate(None, b"\0")


def write_trace(trace: Trace) -> str:
    return b"".join(_text_blocks(trace)).decode("ascii")


def load_trace(path) -> Trace:
    """The trace in the file at ``path``; every error it raises names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse_trace(data)
    except (TraceParseError, ConfigError) as exc:
        where = "" if str(exc).startswith("line ") else ":"
        raise type(exc)(f"{path}{where} {exc}") from None


def save_trace(trace: Trace, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_text_blocks(trace))
