"""Trace model and text-format tests."""
import importlib
import ipaddress
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botgate.errors import ConfigError, TraceParseError
from botgate.trace import (
    ACK, PROTOS, PSH, SYN, PacketRecord, PacketTable, Proto, Trace, load_trace, parse_ip,
    parse_trace, quantize_ts, save_trace, write_trace,
)

HEADER = "#trace v1 subnet=192.168.1.0/24 epoch=0"


def tcp(ts, src="192.168.1.10", dst="8.8.8.8", sport=40000, dport=80,
        flags=SYN, ip_len=40, payload=0):
    return PacketRecord(ts, src, dst, sport, dport, Proto.TCP, flags, ip_len, payload)


def test_round_trip_fixed():
    trace = Trace(
        packets=[
            tcp(0.001),
            tcp(1.5, flags=PSH | ACK, ip_len=140, payload=100),
            PacketRecord(2.0, "192.168.1.11", "1.1.1.1", 5000, 53, Proto.UDP, 0, 60, 32),
        ],
        internal_subnet="192.168.1.0/24",
        epoch=1700000000,
    )
    text = write_trace(trace)
    back = parse_trace(text)
    assert back.internal_subnet == trace.internal_subnet
    assert back.epoch == trace.epoch
    assert back.packets == trace.packets
    assert write_trace(back) == text


def test_quantize_ts_millisecond_grid():
    assert quantize_ts(1.23456) == 1.235
    assert quantize_ts(0.0) == 0.0
    # the grid survives formatting
    assert f"{quantize_ts(17.0009):.3f}" == "17.001"


def test_header_errors():
    with pytest.raises(TraceParseError, match="line 1"):
        parse_trace("not a header\n")
    with pytest.raises(TraceParseError, match="subnet"):
        parse_trace("#trace v1 epoch=0\n")
    with pytest.raises(TraceParseError, match="epoch"):
        parse_trace("#trace v1 subnet=10.0.0.0/8 epoch=xyz\n")
    with pytest.raises(TraceParseError):
        parse_trace("")


def test_body_errors_carry_line_numbers():
    with pytest.raises(TraceParseError, match="line 2"):
        parse_trace(HEADER + "\n1.0 too few fields\n")
    with pytest.raises(TraceParseError, match="line 3"):
        parse_trace(HEADER + "\n\n1.0 192.168.1.10 999.999.1.1 1 2 TCP 0x02 40 0\n")
    with pytest.raises(TraceParseError, match="hex"):
        parse_trace(HEADER + "\n1.0 192.168.1.10 8.8.8.8 1 2 TCP 2 40 0\n")
    with pytest.raises(TraceParseError):
        parse_trace(HEADER + "\n1.0 192.168.1.10 8.8.8.8 1 2 SCTP 0x00 40 0\n")


def test_write_trace_golden():
    trace = Trace(
        packets=[
            PacketRecord(0.0005, "192.168.1.10", "255.255.255.255", 40000, 80, Proto.TCP,
                         0xC2, 40, 0),
            PacketRecord(1.5, "0.0.0.0", "192.168.1.11", 5353, 53, Proto.UDP, 0, 60, 32),
            PacketRecord(3600.25, "192.168.1.12", "10.0.0.1", 0, 0, Proto.OTHER, 0, 20, 0),
        ],
        internal_subnet="192.168.1.0/24",
        epoch=1700000000,
    )
    assert write_trace(trace) == (
        "#trace v1 subnet=192.168.1.0/24 epoch=1700000000\n"
        "0.001 192.168.1.10 255.255.255.255 40000 80 TCP 0xC2 40 0\n"
        "1.500 0.0.0.0 192.168.1.11 5353 53 UDP 0x00 60 32\n"
        "3600.250 192.168.1.12 10.0.0.1 0 0 OTHER 0x00 20 0\n"
    )


def test_large_trace_round_trip_and_save(tmp_path):
    # more rows than one write block and more bytes than one parse block
    n = 30000
    pkts = [tcp(i * 0.25, dst=f"10.{i % 7}.{i % 251}.{i % 13}", sport=1024 + i % 50000)
            for i in range(n)]
    trace = Trace(packets=pkts, internal_subnet="192.168.1.0/24")
    text = write_trace(trace)
    save_trace(trace, tmp_path / "big.trace")
    assert (tmp_path / "big.trace").read_text() == text
    back = load_trace(tmp_path / "big.trace")
    assert back.packets == trace.packets
    # a bad row far past the first parse block is named by its own line number
    lines = text.splitlines()
    lines[n - 5] = lines[n - 5].replace(" 40 0", " 40 41")
    with pytest.raises(TraceParseError, match=f"line {n - 4}: payload_len 41 > ip_len 40"):
        parse_trace("\n".join(lines))


@pytest.mark.parametrize("body, message", [
    ("nan 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 0", "line 3: non-finite timestamp nan"),
    ("inf 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 0", "line 3: non-finite timestamp inf"),
    ("-inf 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 0", "line 3: non-finite timestamp -inf"),
    # an 8-field row then a 10-field row: 18 tokens, but not two packets
    ("2.0 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40\n"
     "3.0 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 0 0", "line 3: expected 9 fields, got 8"),
    ("2.0 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 0 0\n"
     "3.0 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40", "line 3: expected 9 fields, got 10"),
    # the first bad line wins, whatever is wrong with it
    ("2.0 192.168.1.10 8.8.8.8 1 99999 TCP 0x02 40 0\n"
     "3.0 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40", "line 3: port out of range"),
    ("2.0 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 0\n"
     "3.0 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40\n"
     "x 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 0", "line 4: expected 9 fields, got 8"),
    ("1.0 192.168.1.010 8.8.8.8 1 2 TCP 0x02 40 0", "line 3: bad IPv4 address"),
    ("1.0 192.168.1.10 8.8.8.8 1 2 TCP 0x2G 40 0", "line 3: flags must be hex"),
    ("1.0 192.168.1.10 8.8.8.8 1 2 TCP 0x02 99999999999999999999 0", "line 3: bad length"),
    # bytes 0x1C-0x1F split words in str.split() but are not trace whitespace
    ("1.0 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 0\x1c0", r"line 3: bad length '0\\x1c0'$"),
    ("1\x1c5 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 0", r"line 3: bad timestamp '1\\x1c5'$"),
    ("1.0 192.168.1.10 8.8.8.8 1 2 TCP\x1e 0x02 40 0", r"line 3: unknown protocol 'TCP\\x1e'$"),
])
def test_body_boundary_errors(body, message):
    text = HEADER + "\n1.0 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 0\n" + body + "\n"
    with pytest.raises(TraceParseError, match=message):
        parse_trace(text)


def test_non_ascii_byte_names_its_line():
    data = (HEADER + "\n1.0 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 0"
            "\n2.0 192.168.1.10 8.8.8.\u00e9 1 2 TCP 0x02 40 0\n")
    for text in (data, data.encode("utf-8"), data.encode("latin-1")):
        with pytest.raises(TraceParseError, match="line 3: non-ASCII"):
            parse_trace(text)


def test_line_endings():
    crlf = (HEADER + "\r\n1.0 192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 0\r\n\r"
            "2.0\t192.168.1.10 8.8.8.8 1 2 TCP 0x02 40 0\n")
    assert [p.ts for p in parse_trace(crlf).packets] == [1.0, 2.0]
    with pytest.raises(TraceParseError, match="line 5"):  # the lone CR ends line 3
        parse_trace(crlf + "x\n")


def test_blank_lines_skipped_and_out_of_order_sorted():
    text = HEADER + (
        "\n5.000 192.168.1.10 8.8.8.8 40000 80 TCP 0x02 40 0"
        "\n\n1.000 192.168.1.10 8.8.8.8 40001 80 TCP 0x02 40 0\n"
    )
    trace = parse_trace(text)
    assert [p.ts for p in trace.packets] == [1.0, 5.0]


def test_packet_validation():
    with pytest.raises(ValueError):
        tcp(-1.0)
    with pytest.raises(ValueError):
        tcp(0.0, sport=70000)
    with pytest.raises(ValueError):
        tcp(0.0, ip_len=40, payload=50)
    with pytest.raises(ValueError):
        PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 2, Proto.UDP, SYN, 28, 0)
    with pytest.raises(ValueError):
        PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 2, Proto.OTHER, 0, 20, 0)
    # only a Proto member is TCP or OTHER to the rules, not a string of its name
    with pytest.raises(ValueError, match="tcp_flags must be 0 for non-TCP packets"):
        PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 2, "TCP", SYN, 40, 0)
    PacketRecord(0.0, "1.1.1.1", "2.2.2.2", 1, 2, "OTHER", 0, 40, 0)


def test_trace_subnet_validation_and_span():
    with pytest.raises(ConfigError):
        Trace(packets=[], internal_subnet="not-a-cidr")
    t = Trace(packets=[], internal_subnet="10.0.0.0/8")
    assert t.span() == 0.0


_ips = st.sampled_from(["192.168.1.10", "192.168.1.100", "8.8.8.8", "203.0.113.9"])
_ports = st.integers(min_value=0, max_value=65535)


@st.composite
def packets(draw):
    proto = draw(st.sampled_from(list(Proto)))
    payload = draw(st.integers(min_value=0, max_value=1400))
    kwargs = dict(
        ts=quantize_ts(draw(st.floats(min_value=0, max_value=3600, allow_nan=False))),
        src_ip=draw(_ips), dst_ip=draw(_ips),
        proto=proto, ip_len=payload + 40, payload_len=payload,
    )
    if proto is Proto.OTHER:
        kwargs.update(src_port=0, dst_port=0, tcp_flags=0)
    else:
        kwargs.update(src_port=draw(_ports), dst_port=draw(_ports),
                      tcp_flags=draw(st.integers(0, 0x3F)) if proto is Proto.TCP else 0)
    return PacketRecord(**kwargs)


@settings(max_examples=60, deadline=None)
@given(st.lists(packets(), max_size=30), st.integers(0, 2**31 - 1))
def test_round_trip_property(pkts, epoch):
    pkts = sorted(pkts, key=lambda p: p.ts)
    trace = Trace(packets=pkts, internal_subnet="192.168.1.0/24", epoch=epoch)
    back = parse_trace(write_trace(trace))
    assert list(back.packets) == pkts
    assert back.epoch == epoch


_wide_ints = st.integers(-2, 2**32 + 2) | st.sampled_from([0, 40, 65535, 65536, 2**32 - 1])


@settings(max_examples=150, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.001]),
       _wide_ints, _wide_ints, st.sampled_from(list(Proto)), st.integers(-1, 0x101),
       _wide_ints, _wide_ints)
def test_parser_rules_match_packet_record(ts, sport, dport, proto, flags, ip_len, payload):
    """A row parses exactly when PacketRecord accepts its values."""
    try:
        PacketRecord(ts, "192.168.1.10", "8.8.8.8", sport, dport, proto, flags, ip_len, payload)
        valid = True
    except ValueError:
        valid = False
    flags_hex = f"0x{flags:02X}" if flags >= 0 else f"-0x{-flags:02X}"
    text = (f"{HEADER}\n{ts!r} 192.168.1.10 8.8.8.8 {sport} {dport} {proto.value} "
            f"{flags_hex} {ip_len} {payload}\n")
    if valid:
        assert len(parse_trace(text).packets) == 1
    else:
        with pytest.raises(TraceParseError, match="line 2"):
            parse_trace(text)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789.+-_x", min_size=1, max_size=17)
       | st.builds("{}.{}.{}.{}".format, *[st.integers(0, 300)] * 4))
def test_address_validation_matches_ipaddress(address):
    try:
        ipaddress.IPv4Address(address)
        valid = True
    except ValueError:
        valid = False
    text = f"{HEADER}\n1.0 {address} 8.8.8.8 1 2 TCP 0x02 40 0\n"
    if valid:
        assert parse_trace(text).packets[0].src_ip == address
    else:
        with pytest.raises(TraceParseError, match="line 2: bad IPv4 address"):
            parse_trace(text)


# one row for each packet-row rule, breaking that rule and no earlier one:
# (ts, sport, dport, proto, flags, ip_len, payload_len), and the message
RULE_ROWS = [
    ((float("nan"), 1, 2, Proto.TCP, 2, 40, 0), "non-finite timestamp nan"),
    ((-1.5, 1, 2, Proto.TCP, 2, 40, 0), "negative timestamp -1.5"),
    ((1.0, 70000, 80, Proto.TCP, 2, 40, 0), "port out of range: 70000/80"),
    ((1.0, 1, 2, Proto.TCP, 2, 40, 41), "payload_len 41 > ip_len 40"),
    ((1.0, 1, 2, Proto.TCP, 2, 40, -1), "negative length"),
    ((1.0, 1, 2, Proto.TCP, 2, 2**32, 0), "ip_len 4294967296 out of range"),
    ((1.0, 1, 2, Proto.UDP, 2, 40, 0), "tcp_flags must be 0 for non-TCP packets"),
    ((1.0, 1, 0, Proto.OTHER, 0, 40, 0), "ports must be 0 for proto OTHER"),
    ((1.0, 1, 2, Proto.TCP, 0x100, 40, 0), "tcp_flags out of range: 0x100"),
]


@pytest.mark.parametrize("row, message", RULE_ROWS, ids=[m for _, m in RULE_ROWS])
def test_row_rules_give_one_message_everywhere(row, message):
    """PacketRecord, PacketTable.from_columns and the parser apply the same
    rules in the same order, with the same message."""
    ts, sport, dport, proto, flags, ip_len, payload = row
    src, dst = "192.168.1.10", "8.8.8.8"
    with pytest.raises(ValueError) as record:
        PacketRecord(ts, src, dst, sport, dport, proto, flags, ip_len, payload)
    with pytest.raises(ValueError) as table:
        PacketTable.from_columns(ts, parse_ip(src), parse_ip(dst), sport, dport,
                                 PROTOS.index(proto), flags, ip_len, payload)
    # in canonical shape where the values allow it, so both parser paths are covered
    text = (f"{HEADER}\n{ts:.3f} {src} {dst} {sport} {dport} {proto.value} 0x{flags:02x} "
            f"{ip_len} {payload}\n")
    with pytest.raises(TraceParseError) as parsed:
        parse_trace(text)
    assert (str(record.value), str(table.value), str(parsed.value)) == \
        (message, message, f"line 2: {message}")


def test_perfbench_row_api(tmp_path, monkeypatch):
    """The benchmark builds its day trace from PacketRecord lists and counts
    addresses by iterating rows; a change to that row API fails here, not
    in a benchmark run. The perfbench modules are imported, not changed."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer")
    path = tmp_path / "day.trace"
    infected = workloads.build_day_trace(path, 1, 8, 2, 600.0)
    trace = load_trace(path)
    assert len(trace.packets) > 0 and len(infected) == workloads.N_INFECTED
    assert tracer._unique_ips(trace) == len(np.union1d(trace.packets.src, trace.packets.dst))
