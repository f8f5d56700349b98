"""The table-driven trace writer against the ``%`` formatter it replaced
(scalar_reference.write_trace): the same text, byte for byte, and a peak
memory that the row block bounds, not the trace."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from botgate.trace import (
    _ROW_BLOCK, MAX_LEN, PROTO_OTHER, PROTO_TCP, PROTO_UDP, SYN, PacketTable, Trace, save_trace,
    write_trace,
)

ADDRESSES = st.integers(0, 0xFFFFFFFF)
# on the millisecond grid below 2**32 s, and off it
TIMESTAMPS = st.one_of(
    st.integers(0, 2**32 * 1000 - 1).map(lambda ms: ms / 1000),
    st.sampled_from([0.0005, 2**32 + 0.5, 1e300, -0.0]),
    st.floats(0, allow_infinity=False),
)


@st.composite
def rows(draw):
    """One valid row: (ts, src, dst, sport, dport, proto, flags, ip_len, payload_len)."""
    proto = draw(st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_OTHER]))
    ports = st.just(0) if proto == PROTO_OTHER else st.integers(0, 0xFFFF)
    ip_len = draw(st.integers(0, MAX_LEN))
    return (draw(TIMESTAMPS), draw(ADDRESSES), draw(ADDRESSES), draw(ports), draw(ports), proto,
            draw(st.integers(0, 0xFF)) if proto == PROTO_TCP else 0, ip_len,
            draw(st.integers(0, ip_len)))


# every flag byte, the largest grid timestamp, and the extreme addresses, ports and lengths
GRID_EXTREMES = [
    (f * 16_501 / 1000, 0, 0xFFFFFFFF, 0, 0xFFFF, PROTO_TCP, f, MAX_LEN, f) for f in range(256)
] + [
    ((2**32 * 1000 - 1) / 1000, 0xFFFFFFFF, 0, 0xFFFF, 0, PROTO_UDP, 0, 0, 0),
    (100_000_000.007, 0, 0, 10_000, 10_001, PROTO_UDP, 0, 100_000_009, 10_000),  # zero groups
    (0.0, 0, 0, 0, 0, PROTO_OTHER, 0, MAX_LEN, MAX_LEN),
]
OFF_GRID = [(ts, 0xFFFFFFFF, 0, 0xFFFF, 0, PROTO_TCP, 0xFF, MAX_LEN, 0)
            for ts in (0.0005, 2**32 + 0.5, 1e300, -0.0, 1.7e308)]


@settings(max_examples=60, deadline=None)
@given(st.lists(rows(), max_size=12), st.booleans())
@example([], False)
@example(GRID_EXTREMES, True)
@example(OFF_GRID[:1] + GRID_EXTREMES, False)
@example(OFF_GRID[1:2] + GRID_EXTREMES, False)
@example(OFF_GRID[2:3] + GRID_EXTREMES, False)
@example(OFF_GRID[3:4] + GRID_EXTREMES, False)
@example(OFF_GRID[4:] + GRID_EXTREMES, False)
def test_write_trace_matches_the_percent_format(table_rows, past_one_block):
    columns = [np.array([row[k] for row in table_rows], np.float64 if k == 0 else np.int64)
               for k in range(9)]
    packets = PacketTable.from_columns(*columns)
    if past_one_block and len(packets):  # the rows repeated, to more than one block
        packets = packets[np.resize(np.arange(len(packets)), _ROW_BLOCK + len(packets))]
    trace = Trace(packets=packets, internal_subnet="192.168.1.0/24", epoch=1700000000)
    with np.errstate(all="raise"):  # no overflow on the way
        lines = write_trace(trace).splitlines(True)
    # compared as lines, so that a failure names the first wrong line quickly
    assert lines == ref.write_trace(trace).splitlines(True)


@pytest.mark.parametrize("n_rows", [30_000, 60_000])
def test_save_trace_peak_memory_is_bounded_by_the_block(tmp_path, n_rows):
    i = np.arange(n_rows)
    packets = PacketTable.from_columns(
        i * 0.25, 0xC0A8010A + i % 20, 0x08080808 + i * 7919, 1024 + i % 50000, 80, PROTO_TCP,
        SYN, 40 + i % 1400, i % 40)
    trace = Trace(packets=packets, internal_subnet="192.168.1.0/24")
    tracemalloc.start()
    try:
        save_trace(trace, tmp_path / "t.trace")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4e6
    assert (tmp_path / "t.trace").read_text() == ref.write_trace(trace)
