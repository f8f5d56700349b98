"""The byte-level trace parser against the token-level parser it replaced
(scalar_reference.parse_trace): the same table, or the same error message."""
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from botgate import trace as trace_module
from botgate.errors import TraceParseError
from botgate.synth import SynthConfig, gen_dataset
from botgate.trace import (
    PROTO_OTHER, PROTO_TCP, PacketRecord, PacketTable, Proto, Trace, format_ip, parse_trace,
    write_trace,
)

HEADER = "#trace v1 subnet=192.168.1.0/24 epoch=7"
ROW = "1.000 192.168.1.10 8.8.8.8 40000 80 TCP 0x02 40 0"
# outside the canonical shape but with its separators: a sign and a one-digit hex flag
FALLBACK_ROW = "0.500 192.168.1.10 8.8.8.8 +5 80 TCP 0x2 40 0"


def outcome(parse, text):
    try:
        trace = parse(text)
    except TraceParseError as exc:
        return str(exc)
    return trace.internal_subnet, trace.epoch, trace.packets


def assert_same_as_reference(text):
    expected = outcome(ref.parse_trace, text)
    assert outcome(parse_trace, text) == expected
    return expected


@pytest.fixture
def token_path_rows(monkeypatch):
    """Counts the rows that go through the token converters."""
    rows = []
    convert = trace_module._token_row

    def counting(line):
        rows.append(bytes(line))
        return convert(line)

    monkeypatch.setattr(trace_module, "_token_row", counting)
    return rows


@st.composite
def records(draw):
    proto = draw(st.sampled_from(list(Proto)))
    ip_len = draw(st.integers(0, 2**32 - 1) | st.integers(0, 1500))
    kwargs = dict(
        # up to 10 integer digits: past 8 the row leaves the canonical shape
        ts=draw(st.integers(0, 10**13)) / 1000,
        src_ip=format_ip(draw(st.integers(0, 2**32 - 1))),
        dst_ip=format_ip(draw(st.sampled_from([0, 2**32 - 1]) | st.integers(0, 2**32 - 1))),
        proto=proto, ip_len=ip_len, payload_len=draw(st.integers(0, ip_len)),
        src_port=0, dst_port=0, tcp_flags=0,
    )
    if proto is not Proto.OTHER:
        kwargs.update(src_port=draw(st.integers(0, 65535)), dst_port=draw(st.integers(0, 65535)))
    if proto is Proto.TCP:
        kwargs.update(tcp_flags=draw(st.integers(0, 255)))
    return PacketRecord(**kwargs)


def positions(line, accept):
    return [i for i, c in enumerate(line) if accept(i, c)]


def starts_field(line, i):
    return i == 0 or line[i - 1] in " ."


# each mutation: the positions it may act at, and what it does there
MUTATIONS = {
    "digit to letter": (lambda l, i, c: c.isdigit(), lambda l, i, x: l[:i] + x + l[i + 1:]),
    "drop a dot": (lambda l, i, c: c == ".", lambda l, i, x: l[:i] + l[i + 1:]),
    "double a dot": (lambda l, i, c: c == ".", lambda l, i, x: l[:i] + "." + l[i:]),
    "leading zero": (lambda l, i, c: starts_field(l, i), lambda l, i, x: l[:i] + "0" + l[i:]),
    "insert a sign or separator": (lambda l, i, c: True, lambda l, i, x: l[:i] + x + l[i:]),
    "space to tab": (lambda l, i, c: c == " ", lambda l, i, x: l[:i] + "\t" + l[i + 1:]),
    "extra field": (lambda l, i, c: i == 0, lambda l, i, x: l + " 7"),
}


@settings(max_examples=300, deadline=None)
@given(st.lists(records(), min_size=1, max_size=12), st.sampled_from(sorted(MUTATIONS)),
       st.data())
def test_parse_matches_reference_on_mutated_rows(pkts, mutation, data):
    text = write_trace(Trace(packets=pkts, internal_subnet="192.168.1.0/24", epoch=7))
    lines = text.split("\n")
    assert_same_as_reference(text)
    where, change = MUTATIONS[mutation]
    row = data.draw(st.integers(1, len(pkts)))
    at = positions(lines[row], lambda i, c: where(lines[row], i, c))
    if not at:
        return
    i = data.draw(st.sampled_from(at))
    # ':' and '/' sit just above and below the digits; NUL is not whitespace
    insert = data.draw(st.sampled_from(["+", "-", "e", "_", "x", "a", "E", ":", "/", "\x00"]))
    lines[row] = change(lines[row], i, insert)
    assert_same_as_reference("\n".join(lines))


BLANK_LINES = st.lists(st.sampled_from(["", " ", "\t", "  \t ", "\v\f"]), max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.lists(records(), min_size=1, max_size=40), st.sampled_from([24, 64, 200]),
       st.sampled_from(["\n", "\r\n"]), st.data())
def test_parse_matches_reference_across_small_blocks(pkts, block, newline, data):
    """Rows out of timestamp order, between blank and whitespace-only lines,
    and maybe a bad row after a run of blank lines long enough to reach a
    later block: line numbers must carry across every block boundary."""
    header, *rows = write_trace(Trace(packets=pkts, internal_subnet="192.168.1.0/24")).splitlines()
    lines = [header]
    for row in data.draw(st.permutations(rows)):
        lines += data.draw(BLANK_LINES) + [row]
    lines += [""] * data.draw(st.integers(0, 250))
    lines += data.draw(st.sampled_from([[], [BAD_CANONICAL], [BAD_TOKEN], [SHORT_ROW]]))
    text = newline.join(lines) + newline
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_module, "_PARSE_BLOCK", block)
        assert_same_as_reference(text)


@pytest.mark.parametrize("body", [
    f"{ROW}\n{FALLBACK_ROW}\n",
    f"{FALLBACK_ROW}\n{ROW}\n",
], ids=["canonical-first", "fallback-first"])
def test_canonical_and_fallback_rows_in_one_block(body, token_path_rows):
    _, _, packets = assert_same_as_reference(f"{HEADER}\n{body}")
    assert token_path_rows == [FALLBACK_ROW.encode()]
    assert [(p.ts, p.src_port, p.tcp_flags) for p in packets] == [(0.5, 5, 2), (1.0, 40000, 2)]


BAD_CANONICAL = "2.000 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 41"
BAD_FALLBACK = "2.0 192.168.1.10 8.8.8.8 +70000 2 TCP 0x02 40 0"
BAD_TOKEN = "x2.0 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 0"
SHORT_ROW = "2.000 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40"
# eight fields, with the 16 separators of a canonical line: one field is empty
EMPTY_FIELD_ROW = "2.000 192.168.1.10 8.8.8.8  2 TCP 0x02 40 0"


@pytest.mark.parametrize("first, second, message", [
    (BAD_FALLBACK, BAD_CANONICAL, "line 3: port out of range: 70000/2"),
    (BAD_CANONICAL, BAD_FALLBACK, "line 3: payload_len 41 > ip_len 40"),
    (BAD_TOKEN, BAD_CANONICAL, "line 3: bad timestamp 'x2.0'"),
    (BAD_CANONICAL, BAD_TOKEN, "line 3: payload_len 41 > ip_len 40"),
])
def test_first_bad_line_wins_across_paths(first, second, message):
    text = f"{HEADER}\n{ROW}\n{first}\n{second}\n"
    assert assert_same_as_reference(text) == message


@pytest.mark.parametrize("bad, message", [
    (BAD_CANONICAL, "line 9: payload_len 41 > ip_len 40"),
    (BAD_TOKEN, "line 9: bad timestamp 'x2.0'"),
    (SHORT_ROW, "line 9: expected 9 fields, got 8"),
    (EMPTY_FIELD_ROW, "line 9: expected 9 fields, got 8"),
])
def test_bad_row_in_a_later_block(bad, message, monkeypatch):
    monkeypatch.setattr(trace_module, "_PARSE_BLOCK", 100)  # two rows a block
    text = f"{HEADER}\n" + f"{ROW}\n" * 7 + f"{bad}\n" + f"{ROW}\n" * 3
    assert assert_same_as_reference(text) == message


def test_timestamp_integer_digits(token_path_rows):
    eight = "12345678.901 192.168.1.10 8.8.8.8 1 2 UDP 0x00 40 0"
    nine = "123456789.012 192.168.1.10 8.8.8.8 1 2 UDP 0x00 40 0"
    _, _, packets = assert_same_as_reference(f"{HEADER}\n{eight}\n{nine}\n")
    assert [p.ts for p in packets] == [float("12345678.901"), float("123456789.012")]
    assert token_path_rows == [nine.encode()]  # past 8 digits: the token path


@pytest.mark.parametrize("address, expected", [
    ("0.0.0.0", None), ("255.255.255.255", None),
    ("256.1.1.1", "line 2: bad IPv4 address '256.1.1.1'"),
    ("10.010.1.1", "line 2: bad IPv4 address '10.010.1.1'"),
])
def test_address_octet_edges(address, expected, token_path_rows):
    result = assert_same_as_reference(f"{HEADER}\n1.000 192.168.1.10 {address} 1 2 TCP 0x02 40 0\n")
    if expected is None:
        assert result[2][0].dst_ip == address
        assert token_path_rows == []
    else:
        assert result == expected


@pytest.mark.parametrize("flags, value", [
    ("0x0", 0), ("0xff", 255), ("0xFF", 255), ("0x00", 0), ("0x02a", 42),
    ("0x0200", "line 2: tcp_flags out of range: 0x200"),
])
def test_flag_edges(flags, value):
    result = assert_same_as_reference(
        f"{HEADER}\n1.000 192.168.1.10 8.8.8.8 1 2 TCP {flags} 40 0\n")
    if isinstance(value, str):
        assert result == value
    else:
        assert result[2][0].tcp_flags == value


def test_protocol_name_is_matched_whole():
    text = f"{HEADER}\n1.000 192.168.1.10 8.8.8.8 1 2 TCP\x00 0x02 40 0\n"
    assert assert_same_as_reference(text) == "line 2: unknown protocol 'TCP\\x00'"


def malicious_capture() -> bytes:
    """The largest of two simulated 15-minute captures with a scanning bot."""
    texts = [write_trace(rec.trace).encode() for rec in gen_dataset(SynthConfig(seed=5), 0, 2)]
    return max(texts, key=len)


def test_canonical_rows_skip_the_token_path(token_path_rows):
    text = malicious_capture()
    assert parse_trace(text).packets == ref.parse_trace(text).packets
    assert token_path_rows == []


@pytest.fixture
def blocks_by_path(monkeypatch):
    """Counts the blocks read at their separators ("layout": each one tried
    there first) and those read line by line ("lines")."""
    counts = {"layout": 0, "lines": 0}
    for name, path in ("_layout_fields", "layout"), ("_read_lines", "lines"):
        def counting(*args, path=path, function=getattr(trace_module, name)):
            counts[path] += 1
            return function(*args)
        monkeypatch.setattr(trace_module, name, counting)
    return counts


@pytest.mark.parametrize("block", [None, 4096])
def test_canonical_blocks_are_read_at_their_separators(block, blocks_by_path, monkeypatch):
    text = malicious_capture()
    if block:
        monkeypatch.setattr(trace_module, "_PARSE_BLOCK", block)
        text = text[:-1]  # and a last line without its newline
    assert parse_trace(text).packets == ref.parse_trace(text).packets
    assert blocks_by_path["layout"] > 1
    assert blocks_by_path["lines"] == 0


def all_tabs(lines):
    lines[1:] = [line.replace(" ", "\t") for line in lines[1:]]


@pytest.mark.parametrize("edit", [
    lambda lines: lines.insert(5, ""),
    lambda lines: lines.__setitem__(5, lines[5].replace(" ", "\t", 1)),
    all_tabs,
], ids=["blank-line", "tab", "all-tabs"])
def test_other_blocks_are_read_line_by_line(edit, blocks_by_path, monkeypatch):
    monkeypatch.setattr(trace_module, "_PARSE_BLOCK", 4096)
    canonical = malicious_capture()
    lines = canonical.decode().split("\n")
    edit(lines)
    _, _, packets = assert_same_as_reference("\n".join(lines))
    assert packets == ref.parse_trace(canonical).packets
    # the block that holds the edit, or every block
    assert blocks_by_path["lines"] == (blocks_by_path["layout"] if edit is all_tabs else 1)


def test_parse_peak_memory():
    text = malicious_capture()
    assert len(text) > 300_000
    tracemalloc.start()
    try:
        parse_trace(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_blank_lines_cost_no_rows():
    """The columns are allocated before the parse, sized by the rows the body
    could hold: a body of blank lines must not reserve a row for each line,
    and the table of its one row must not hold the allocation."""
    body = "\n" * 2_000_000 + ROW + "\n"
    text = f"{HEADER}\n{body}".encode()
    tracemalloc.start()
    try:
        packets = parse_trace(text).packets
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * len(body)
    assert len(packets) == 1
    assert all(column.base is None for column in packets.columns())


# A body of 1 MiB or more is read in two parts at once, the second on a worker
# thread, on a machine with two CPUs. These tests run the parse as on one CPU
# or two (os.sched_getaffinity) and count the other threads that ran it.
def parse_on(cpus: int, text):
    """The outcome of parsing ``text`` on ``cpus`` CPUs, and the number of
    threads other than this one that ran Python code during the parse."""
    workers = set()

    def first_call(frame, event, arg):  # in each thread started during the parse
        workers.add(threading.get_ident())
        sys.setprofile(None)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        threading.setprofile(first_call)
        try:
            result = outcome(parse_trace, text)
        finally:
            threading.setprofile(None)
    return result, len(workers)


def random_trace(rows: int) -> str:
    """A canonical trace of ``rows`` random valid rows, ~60 bytes each."""
    rng = np.random.default_rng(rows)
    proto = rng.integers(0, 3, rows)
    ip_len = rng.integers(0, 1 << 16, rows)
    packets = PacketTable.from_columns(
        np.sort(rng.integers(0, 86_400_000, rows)) / 1000,
        rng.integers(0, 1 << 32, rows), rng.integers(0, 1 << 32, rows),
        *rng.integers(0, 1 << 16, (2, rows)) * (proto != PROTO_OTHER), proto,
        rng.integers(0, 256, rows) * (proto == PROTO_TCP), ip_len, rng.integers(0, ip_len + 1))
    return write_trace(Trace(packets=packets, internal_subnet="192.168.1.0/24"))


def large_lines() -> list[str]:
    """The lines of a 1.7 MB trace with 400 blank lines early in its first
    half, so that the first part keeps fewer rows than it has lines."""
    lines = random_trace(25_000).split("\n")
    lines[100:100] = [""] * 400
    return lines


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_large_trace_reads_the_same_in_two_parts(newline):
    text = newline.join(large_lines())
    assert len(text) > 1 << 20
    one, one_workers = parse_on(1, text)
    two, two_workers = parse_on(2, text)
    assert (one_workers, two_workers) == (0, 1)
    assert two == one
    assert len(two[2]) == 25_000


@pytest.mark.parametrize("bad", [{5_000: BAD_CANONICAL}, {20_000: SHORT_ROW},
                                 {5_000: BAD_TOKEN, 20_000: BAD_CANONICAL}],
                         ids=["first-part", "second-part", "both-parts"])
def test_first_bad_row_in_file_order_across_parts(bad):
    lines = large_lines()
    for i, row in bad.items():
        lines[i] = row
    first = min(bad)
    message = {BAD_CANONICAL: "payload_len 41 > ip_len 40", SHORT_ROW: "expected 9 fields, got 8",
               BAD_TOKEN: "bad timestamp 'x2.0'"}[bad[first]]
    text = "\n".join(lines)
    assert parse_on(2, text) == (f"line {first + 1}: {message}", 1)
    assert parse_on(1, text) == (f"line {first + 1}: {message}", 0)


def test_mostly_blank_body_takes_one_part():
    """Lines that could not all be rows keep the small blocks of one part,
    whose temporaries test_blank_lines_cost_no_rows bounds."""
    text = f"{HEADER}\n" + "\n" * 2_000_000 + f"{ROW}\n"
    result, workers = parse_on(2, text)
    assert workers == 0
    assert len(result[2]) == 1


@pytest.mark.parametrize("bad_line, failing", [
    (None, ()), (2, ()), (24_000, ()), (None, (2,)), (None, (1, 2)),
], ids=["good", "first-part", "second-part", "runtime-second-part", "runtime-both-parts"])
def test_no_thread_outlives_the_parse(bad_line, failing, monkeypatch):
    """The worker is joined before the parse returns or raises, also when the
    first part fails long before the second is read. An error that is not a
    parse error (a RuntimeError in each part of ``failing``) crosses from the
    worker as well, and the first part's still wins."""
    lines = large_lines()
    if bad_line:
        lines[bad_line - 1] = BAD_CANONICAL
    parse_block, caller, parts = trace_module._parse_block, threading.get_ident(), set()

    def parse_or_fail(block, lineno, out):
        part = 1 if threading.get_ident() == caller else 2
        parts.add(part)
        if part in failing:
            raise RuntimeError(f"part {part}")
        return parse_block(block, lineno, out)

    monkeypatch.setattr(trace_module, "_parse_block", parse_or_fail)
    before = threading.active_count()
    if failing:
        with pytest.raises(RuntimeError, match=f"^part {failing[0]}$"):
            parse_on(2, "\n".join(lines))
    else:
        result, workers = parse_on(2, "\n".join(lines))
        assert workers == 1
        assert isinstance(result, str) == bool(bad_line)
    assert threading.active_count() == before
    assert parts == {1, 2}


def test_second_part_stops_once_the_first_fails(monkeypatch):
    """Once the first part raises, the worker starts no further block: with
    a bad line 2 it reads fewer than half of its part's blocks, where a good
    body reads them all."""
    lines = random_trace(100_000).split("\n")
    parse_block, caller, blocks = trace_module._parse_block, threading.get_ident(), []

    def counted(block, lineno, out):
        if threading.get_ident() != caller:
            blocks.append(lineno)
        return parse_block(block, lineno, out)

    monkeypatch.setattr(trace_module, "_parse_block", counted)
    text = "\n".join(lines)
    assert len(text) >= 4 << 20
    assert len(parse_on(2, text)[0][2]) == 100_000
    part_blocks, blocks[:] = len(blocks), []
    lines[1] = BAD_CANONICAL
    assert parse_on(2, "\n".join(lines)) == ("line 2: payload_len 41 > ip_len 40", 1)
    assert len(blocks) < part_blocks / 2


def test_thread_pool_is_imported_only_for_two_parts():
    """The executor's module, and the logging it imports, cost every process
    that loads it a few ms: the CLI and a one-part parse must not load it."""
    child = f"""
import os, sys
import botgate.cli
from botgate.trace import parse_trace
row = "\\n{ROW}"
parse_trace("{HEADER}" + row * 1_000)
print("concurrent.futures" in sys.modules)
os.sched_getaffinity = lambda pid: {{0, 1}}
parse_trace("{HEADER}" + row * 25_000)  # 1.2 MB
print("concurrent.futures" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(trace_module.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out.split() == ["False", "True"]


def test_two_part_parse_peak_memory():
    """Both parts' block temporaries are alive at once: beyond the body and
    the table they must stay under 5 MB on a 17 MB trace."""
    text = random_trace(250_000).encode()
    assert len(text) > 15e6
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        tracemalloc.start()
        try:
            packets = parse_trace(text).packets
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    table = sum(column.nbytes for column in packets.columns())
    assert peak - table < 5e6


@settings(max_examples=100, deadline=None)
@given(st.lists(records(), min_size=1, max_size=40), st.sampled_from(["\n", "\r\n"]),
       st.data())
def test_parse_matches_reference_in_two_parts(pkts, newline, data):
    """With the two-part threshold lowered to any body: rows out of order,
    blank lines, and maybe bad rows anywhere, so in either part or both."""
    header, *rows = write_trace(Trace(packets=pkts, internal_subnet="192.168.1.0/24")).splitlines()
    lines = [header]
    for row in data.draw(st.permutations(rows)):
        lines += data.draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=1)) + [row]
    for bad in data.draw(st.lists(st.sampled_from([BAD_CANONICAL, BAD_TOKEN, SHORT_ROW]),
                                  max_size=2)):
        lines.insert(data.draw(st.integers(1, len(lines))), bad)
    text = newline.join(lines) + newline
    body = "\n".join(lines[1:]) + "\n"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_module, "_PARALLEL_MIN", 0)
        expected = outcome(ref.parse_trace, text)
        result, workers = parse_on(2, text)
    assert result == expected
    # every line may be a row (18 bytes at least), else one part
    assert workers == (len(body) + 1 >= 18 * (body.count("\n") + 1))
