"""Scanning-feature extraction against hand-counted fixtures."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from botgate.errors import DataError
from botgate.features import (
    BENIGN, CSV_HEADER, FEATURE_NAMES, MALICIOUS, count_half_open, extract_features,
    read_feature_csv, write_feature_csv,
)
from botgate.sessions import TrafficSession
from botgate.trace import ACK, FIN, PSH, SYN, PacketRecord, PacketTable, Proto


def tcp(ts, src, dst, sport, dport, flags, ip_len=40, payload=0):
    return PacketRecord(ts, src, dst, sport, dport, Proto.TCP, flags, ip_len, payload)


def session(packets):
    return TrafficSession(0, PacketTable.from_records(sorted(packets, key=lambda p: p.ts)))


def named(values):
    return dict(zip(FEATURE_NAMES, values, strict=True))


DEV = "192.168.1.10"


def handshake(t0, src, dst, sport):
    return [
        tcp(t0, src, dst, sport, 443, SYN),
        tcp(t0 + 0.01, dst, src, 443, sport, SYN | ACK),
        tcp(t0 + 0.02, src, dst, sport, 443, ACK),
    ]


def test_hand_counted_scan_fixture():
    # 3 lone SYNs to distinct targets + one completed handshake
    pkts = [
        tcp(1.0, DEV, "5.5.5.1", 40000, 23, SYN, ip_len=44),
        tcp(2.0, DEV, "5.5.5.2", 40001, 23, SYN, ip_len=44),
        tcp(3.0, DEV, "5.5.5.3", 40002, 23, SYN, ip_len=44),
        *handshake(10.0, DEV, "9.9.9.9", 50000),
    ]
    values = extract_features(session(pkts))
    # Python ints for the counts and floats for the means, as the CSV writes them
    assert [type(v) for v in values] == [int, int, int, float, int, int, int, float]
    fv = named(values)
    # SYN-only packets went to 4 distinct destinations (incl. the handshake SYN)
    assert fv["n_uniq_syn_dst"] == 4
    assert fv["n_half_open"] == 3  # the handshake completed
    # per-destination packet counts: 1,1,1 scan targets; 9.9.9.9 saw 2, DEV saw 1
    assert fv["pkts_max"] == 2
    assert fv["pkts_min"] == 1
    assert fv["pkts_mean"] == pytest.approx(6 / 5)
    assert fv["len_max"] == 44
    assert fv["len_min"] == 40
    assert fv["len_mean"] == pytest.approx((3 * 44 + 3 * 40) / 6)


def test_half_open_semantics():
    # retransmitted SYN on one key counts once
    s = session([
        tcp(1.0, DEV, "5.5.5.1", 40000, 23, SYN),
        tcp(1.3, DEV, "5.5.5.1", 40000, 23, SYN),
    ])
    assert count_half_open(s.packets) == 1
    # responder's SYN+ACK alone does not complete the handshake
    s = session([
        tcp(1.0, DEV, "5.5.5.1", 40000, 23, SYN),
        tcp(1.1, "5.5.5.1", DEV, 23, 40000, SYN | ACK),
    ])
    assert count_half_open(s.packets) == 1
    # any later initiator packet with ACK does (even FIN+ACK)
    s = session([
        tcp(1.0, DEV, "5.5.5.1", 40000, 23, SYN),
        tcp(1.2, DEV, "5.5.5.1", 40000, 23, FIN | ACK),
    ])
    assert count_half_open(s.packets) == 0


def test_non_tcp_packets_are_ignored():
    scan = [tcp(1.0, DEV, "5.5.5.1", 40000, 23, SYN), tcp(3.0, DEV, "5.5.5.2", 40001, 23, SYN)]
    s = session([*scan, PacketRecord(2.0, DEV, "8.8.8.8", 5000, 53, Proto.UDP, 0, 60, 10)])
    assert extract_features(s) == extract_features(session(scan))
    assert len(s.packets) == 3  # input untouched


def test_empty_session_is_all_zero():
    assert extract_features(session([])) == [0, 0, 0, 0.0, 0, 0, 0, 0.0]


def test_udp_ignored():
    pkts = [
        tcp(1.0, DEV, "5.5.5.1", 40000, 23, SYN),
        PacketRecord(2.0, DEV, "5.5.5.2", 5000, 53, Proto.UDP, 0, 1200, 1172),
    ]
    fv = named(extract_features(session(pkts)))
    assert fv["n_uniq_syn_dst"] == 1
    assert fv["len_max"] == 40  # the UDP length never enters


def test_csv_round_trip(tmp_path):
    rows = [[3, 2, 1, 1.5, 3, 60, 40, 50.0], [0, 5, 1, 2.0, 0, 1500, 40, 400.25]]
    path = tmp_path / "features.csv"
    write_feature_csv(rows, [MALICIOUS, BENIGN], path)
    assert path.read_text().splitlines() == [
        ",".join(CSV_HEADER), "3,2,1,1.5,3,60,40,50.0,MALICIOUS",
        "0,5,1,2.0,0,1500,40,400.25,BENIGN"]
    data = read_feature_csv(path)
    assert data.X.tolist() == rows
    assert data.y.tolist() == [1, 0]


def test_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(DataError):
        read_feature_csv(path)


@pytest.mark.parametrize("row, message", [
    ("1,2,3", "line 3: expected 9 fields, got 3"),
    ("1,2,1,1.5,0,60,40,x,BENIGN", "line 3: could not convert string to float: 'x'"),
    ("inf,2,1,1.5,0,60,40,50.0,BENIGN", "line 3: cannot convert float infinity"),
    ("3,nan,1,1.5,0,60,40,50.0,BENIGN", "line 3: cannot convert float NaN"),
    # a non-finite mean used to pass and reach the model file's scaler
    ("3,2,1,nan,0,60,40,50.0,BENIGN", "line 3: non-finite value 'nan'"),
    ("3,2,1,1.5,0,60,40,-inf,BENIGN", "line 3: non-finite value '-inf'"),
    ("3,2,1,1.5,0,60,40,50.0,WHATEVER", "line 3: bad label 'WHATEVER'"),
    # an unlabeled row cannot be trained or scored on
    ("3,2,1,1.5,0,60,40,50.0,", "line 3: bad label ''"),
    # a fractional count used to be truncated into the model file's scaler
    ("1.9,2,1,1.5,0,60,40,50.0,BENIGN",
     "line 3: column n_uniq_syn_dst: count '1.9' is not a whole number"),
    # a negative value used to pass and reach the model file's scaler mins
    ("-7,2,1,1.5,0,60,40,50.0,BENIGN", "line 3: column n_uniq_syn_dst: negative value '-7'"),
    ("3,2,1,-2.5,0,60,40,50.0,BENIGN", "line 3: column pkts_mean: negative value '-2.5'"),
    # a byte that is not UTF-8 on line 2, or on line 302, past the first 8 KiB
    (b"\xff", "line 2: 'utf-8' codec can't decode byte 0xff in position 118"),
    (b"\n3,2,1,1.5,0,60,40,50.0,MALICIOUS" * 300 + b"\xff",
     "line 302: 'utf-8' codec can't decode byte 0xff in position 10018"),
], ids=["short", "not-a-number", "infinite-count", "nan-count", "nan-mean", "infinite-mean",
        "unknown-label", "empty-label", "fractional-count", "negative-count", "negative-mean",
        "not-utf8-line-2", "not-utf8-past-8k"])
def test_csv_bad_row_names_file_and_line(tmp_path, row, message):
    """A str ``row`` is line 3, after a good row; bytes go on at the good row's end."""
    path = tmp_path / "bad.csv"
    head = "\n".join([",".join(CSV_HEADER), "3,2,1,1.5,0,60,40,50.0,MALICIOUS"]).encode()
    path.write_bytes(head + (row if isinstance(row, bytes) else f"\n{row}\n".encode()))
    with pytest.raises(DataError, match=f"{path} {message}"):
        read_feature_csv(path)


_flag_sets = st.sampled_from([SYN, SYN | ACK, ACK, PSH | ACK, FIN | ACK])


@st.composite
def tcp_sessions(draw):
    n = draw(st.integers(1, 25))
    pkts = []
    for i in range(n):
        payload = draw(st.integers(0, 500))
        pkts.append(tcp(
            float(i), DEV, draw(st.sampled_from(["5.5.5.1", "5.5.5.2", "9.9.9.9"])),
            draw(st.integers(40000, 40005)), draw(st.sampled_from([23, 80, 443])),
            draw(_flag_sets), ip_len=40 + payload, payload=payload,
        ))
    return session(pkts)


@settings(max_examples=80, deadline=None)
@given(tcp_sessions())
def test_feature_sanity_properties(sess):
    fv = named(extract_features(sess))
    assert all(v >= 0 for v in fv.values())
    assert fv["pkts_min"] <= fv["pkts_mean"] <= fv["pkts_max"]
    assert fv["len_min"] <= fv["len_mean"] <= fv["len_max"]
    assert fv["n_uniq_syn_dst"] <= len({p.dst_ip for p in sess.packets})
