"""Session windowing, filtering and device splitting."""
from botgate.sessions import sessionize, split_by_device
from botgate.trace import ACK, PSH, SYN, PacketRecord, Proto, Trace


def tcp(ts, src="192.168.1.10", dst="8.8.8.8", flags=SYN):
    return PacketRecord(ts, src, dst, 40000, 80, Proto.TCP, flags, 40, 0)


def make_trace(packets, subnet="192.168.1.0/24"):
    return Trace(packets=sorted(packets, key=lambda p: p.ts), internal_subnet=subnet)


def test_sessionize_window_assignment():
    trace = make_trace([tcp(0.0), tcp(899.999), tcp(900.0), tcp(2250.0), tcp(2790.0)])
    sessions = sessionize(trace)
    assert [s.index for s in sessions] == [0, 1, 2]
    assert [len(s.packets) for s in sessions] == [2, 1, 1]  # 2790.0 is in a partial window
    assert sessions[1].packets[0].ts == 900.0  # boundary goes to the next window


def test_sessionize_span_defaults_to_last_packet():
    trace = make_trace([tcp(1.0), tcp(2610.0)])
    assert len(sessionize(trace)) == 2  # floor(2610/900); partial window dropped
    # but a capture shorter than one window is still one window
    assert [len(s.packets) for s in sessionize(make_trace([tcp(1.0)]))] == [1]


def test_split_by_device():
    # each device maps to the arrival times of its command-channel candidates
    trace = make_trace([
        tcp(1.0, src="192.168.1.10", dst="8.8.8.8", flags=PSH | ACK),
        tcp(2.0, src="8.8.8.8", dst="192.168.1.9", flags=PSH | ACK),
        tcp(3.0, src="192.168.1.10", dst="192.168.1.9", flags=PSH | ACK),  # internal-to-internal
        tcp(4.0, src="192.168.1.10", dst="8.8.8.8"),  # a SYN is no candidate
        tcp(5.0, src="192.168.1.12", dst="8.8.8.8"),  # a device with no candidate
    ])
    devices = split_by_device(trace)
    assert list(devices) == ["192.168.1.9", "192.168.1.10", "192.168.1.12"]  # numeric order
    assert devices["192.168.1.9"].tolist() == [2.0, 3.0]
    assert devices["192.168.1.10"].tolist() == [1.0, 3.0]
    assert devices["192.168.1.12"].tolist() == []


def test_split_by_device_subnet_mask():
    # the first and last addresses of a /8 are internal, their neighbours are not
    trace = make_trace([
        tcp(1.0, src="10.0.0.0", dst="9.255.255.255"),
        tcp(2.0, src="11.0.0.0", dst="10.255.255.255"),
        tcp(3.0, src="10.1.2.3", dst="11.1.2.3"),
    ], subnet="10.0.0.0/8")
    assert list(split_by_device(trace)) == ["10.0.0.0", "10.1.2.3", "10.255.255.255"]
