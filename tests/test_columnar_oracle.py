"""The columnar session, device, feature and command-channel code against the
per-packet reference implementations in scalar_reference.py."""
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from botgate.acf import PAYLOAD_CUTOFF, SAMPLE_T, encode, filter_cnc_candidates
from botgate.features import count_half_open, extract_features
from botgate.sessions import SESSION_SECS, sessionize, split_by_device
from botgate.trace import ACK, FIN, PSH, RST, SYN, PacketRecord, Proto, Trace, quantize_ts

SUBNET = "192.168.1.0/24"
INTERNAL = ["192.168.1.10", "192.168.1.11", "192.168.1.200"]
EXTERNAL = ["8.8.8.8", "5.5.5.1", "203.0.113.9"]
# the time scale d of a case: at SESSION_SECS its packets fall on and
# between session-window boundaries; 0.3 s steps have boundaries i*d that
# binary floating point cannot hold exactly; 10 s steps share their
# boundaries with the SAMPLE_T bins
DURATIONS = [SESSION_SECS, 10.0, 7.5, 0.3]
FLAGS = [SYN, SYN | ACK, ACK, PSH | ACK, FIN | ACK, PSH, RST, 0]


@st.composite
def traces(draw):
    """(records in input order, encoded span) with packets between internal
    hosts, timestamps on steps of the time scale and repeated timestamps,
    steps left empty; on one connection key an ACK before the first SYN, a
    retransmitted SYN and the responder's SYN|ACK, and on others a SYN that
    the initiator follows with ACK or SYN|ACK."""
    d = draw(st.sampled_from(DURATIONS))
    n_windows = draw(st.integers(1, 6))
    span = (n_windows + draw(st.integers(0, 2))) * d

    def timestamp():
        i = draw(st.integers(0, n_windows))
        if draw(st.booleans()):
            return i * d
        return quantize_ts(i * d + draw(st.floats(0, d, exclude_max=True)))

    def tcp(ts, src, sport, dst, dport, flags):
        return PacketRecord(ts, src, dst, sport, dport, Proto.TCP, flags, 40, 0)

    dev, target = INTERNAL[0], EXTERNAL[0]
    t0, t1 = timestamp(), timestamp()
    records = [
        tcp(t0, dev, 40000, target, 23, ACK),
        tcp(t0 + d / 4, dev, 40000, target, 23, SYN),
        tcp(t0 + d / 2, dev, 40000, target, 23, SYN),
        tcp(t0 + d / 2, target, 23, dev, 40000, SYN | ACK),
        # handshakes the initiator completes (unless t1 + d/8 is in the next window)
        tcp(t1, dev, 40001, target, 23, SYN),
        tcp(t1 + d / 8, dev, 40001, target, 23, ACK),
        tcp(t1, dev, 40002, target, 23, SYN),
        tcp(t1 + d / 8, dev, 40002, target, 23, SYN | ACK),
    ]
    for _ in range(draw(st.integers(0, 40))):
        ts = records[-1].ts if draw(st.integers(0, 4)) == 0 else timestamp()
        proto = draw(st.sampled_from(list(Proto)))
        payload = draw(st.sampled_from([0, 4, 10, 11, 500]))
        ports = (0, 0) if proto is Proto.OTHER else (
            draw(st.sampled_from([23, 40000, 40001])), draw(st.sampled_from([23, 80, 40000])))
        records.append(PacketRecord(
            ts, draw(st.sampled_from(INTERNAL + EXTERNAL)),
            draw(st.sampled_from(INTERNAL + EXTERNAL)), *ports, proto,
            draw(st.sampled_from(FLAGS)) if proto is Proto.TCP else 0,
            40 + payload, payload,
        ))
    return draw(st.permutations(records)), span


@settings(max_examples=200, deadline=None)
@given(traces())
def test_columnar_matches_scalar_reference(case):
    records, span = case
    trace = Trace(packets=records, internal_subnet=SUBNET)
    rows = sorted(records, key=lambda p: p.ts)  # stable: equal timestamps keep input order
    assert list(trace.packets) == rows

    sessions = sessionize(trace)
    expected = ref.sessionize(rows, SESSION_SECS, max(rows[-1].ts, SESSION_SECS))
    assert [s.index for s in sessions] == list(range(len(expected)))
    for session, want in zip(sessions, expected):
        assert list(session.packets) == want
        assert extract_features(session) == ref.extract_features(want)
        assert count_half_open(session.packets) == ref.count_half_open(want)

    devices = split_by_device(trace)
    expected = ref.split_by_device(rows, SUBNET)
    assert list(devices) == list(expected)
    span = max(span, SAMPLE_T)  # at least one bin
    for ip, want in expected.items():
        assert list(devices[ip]) == want
        arrivals = filter_cnc_candidates(devices[ip])
        want_arrivals = ref.filter_cnc_candidates(want, PAYLOAD_CUTOFF)
        assert list(arrivals) == want_arrivals
        assert encode(arrivals, span).tolist() == \
            ref.encode(want_arrivals, SAMPLE_T, span).tolist()
