"""Synthetic traffic generator: determinism, labels and ingredient shapes."""
import numpy as np
import pytest

from botgate.errors import ConfigError
from botgate.features import BENIGN, MALICIOUS
from botgate.synth import (
    PERIOD_FAST, ScanProfile, SynthConfig, _malicious_plan, gen_benign,
    gen_cnc_beacon, gen_dataset, gen_memoryless_noise, gen_scanning, gen_session,
)
from botgate.trace import ACK, PSH, SYN, Proto, write_trace


def test_benign_trace_deterministic_bytes():
    cfg = SynthConfig(seed=4)
    a = write_trace(gen_benign(cfg, [4, 0]))
    b = write_trace(gen_benign(cfg, [4, 0]))
    assert a == b
    c = write_trace(gen_benign(cfg, [4, 1]))
    assert a != c


def test_benign_handshakes_complete():
    trace = gen_benign(SynthConfig(seed=1, n_pc_devices=0), [1, 0])
    assert list(trace.packets) == sorted(trace.packets, key=lambda p: p.ts)
    syns = [p for p in trace.packets if p.tcp_flags == SYN]
    acks = {(p.src_ip, p.src_port, p.dst_ip, p.dst_port)
            for p in trace.packets if p.tcp_flags & ACK and not p.tcp_flags & SYN}
    for p in syns:
        assert (p.src_ip, p.src_port, p.dst_ip, p.dst_port) in acks


def test_scanning_shape():
    cfg = SynthConfig(seed=2)
    pkts = gen_scanning(cfg, [2, 0], "192.168.1.10")
    assert pkts
    assert all(p.tcp_flags == SYN for p in pkts)
    assert all(p.dst_port == 23 for p in pkts)
    assert all(p.src_ip == "192.168.1.10" for p in pkts)
    assert all(0 <= p.ts < cfg.duration_s for p in pkts)
    # roughly rate_pps * duration probes
    assert 0.5 * 3.0 * 900 < len(pkts) < 2.0 * 3.0 * 900
    # zero rate means no overlay at all
    off = SynthConfig(seed=2, scan=ScanProfile(rate_pps=0.0))
    assert len(gen_scanning(off, [2, 0], "192.168.1.10")) == 0


def test_beacon_counts_and_shape():
    fast = gen_cnc_beacon(60.0, 0.0, 900.0, [0, 1])
    outbound = [p for p in fast if p.src_ip == "192.168.1.10"]
    assert len(outbound) == 15  # k*60 for k = 0..14
    assert [p.ts for p in outbound] == [60.0 * k for k in range(15)]
    assert all(p.tcp_flags == PSH | ACK and p.payload_len == 4 for p in outbound)

    slow = gen_cnc_beacon(210.0, 0.0, 900.0, [0, 2])
    assert len([p for p in slow if p.src_ip == "192.168.1.10"]) == 5

    dgram = gen_cnc_beacon(60.0, 0.0, 900.0, [0, 3], protocol="UDP")
    assert len(dgram) == 15
    assert all(p.proto is Proto.UDP for p in dgram)

    with pytest.raises(ConfigError):
        gen_cnc_beacon(0.0, 0.0, 900.0, [0, 4])


def test_beacon_jitter_validation_and_spread():
    with pytest.raises(ConfigError):
        SynthConfig(jitter_s=PERIOD_FAST / 4)  # a quarter of the shorter period
    with pytest.raises(ConfigError, match="beacon jitter nan"):
        SynthConfig(jitter_s=float("nan"))
    assert SynthConfig(jitter_s=14.9).jitter_s == 14.9
    pkts = gen_cnc_beacon(60.0, 5.0, 900.0, [9, 9])
    outbound = [p for p in pkts if p.src_ip == "192.168.1.10"]
    for k, p in enumerate(outbound):
        assert abs(p.ts - 60.0 * k) <= 5.0


def test_device_counts_fit_the_address_plan():
    # IoT devices take .10 + i and PCs .100 + i, so neither range may spill
    full = SynthConfig(n_iot_devices=90, n_pc_devices=155)
    assert full.iot_ips()[-1] == "192.168.1.99" and full.pc_ips()[-1] == "192.168.1.254"
    assert SynthConfig(n_iot_devices=0, n_pc_devices=0).iot_ips() == []
    for iot, pc in ((91, 5), (10, 156), (-1, 5), (10, -1)):
        with pytest.raises(ConfigError, match=f"{iot} IoT and {pc} PC devices do not fit"):
            SynthConfig(n_iot_devices=iot, n_pc_devices=pc)


def test_malicious_session_needs_an_iot_device():
    config = SynthConfig(n_iot_devices=0)
    assert [rec.label for rec in gen_dataset(config, 2, 0)] == [BENIGN, BENIGN]
    for kind in ("fast", "slow", "both"):
        with pytest.raises(ConfigError, match="a malicious session needs at least one IoT device"):
            gen_session(config, 0, kind)


def test_memoryless_noise_survives_cnc_filter():
    pkts = gen_memoryless_noise(1 / 30, 900.0, 7)
    assert pkts
    assert all(p.tcp_flags == PSH | ACK and p.payload_len == 4 for p in pkts)


def test_malicious_plan_mix():
    assert _malicious_plan(10) == ["fast"] * 4 + ["slow"] * 4 + ["both"] * 2
    assert _malicious_plan(5) == ["fast", "fast", "slow", "slow", "both"]
    assert _malicious_plan(0) == []


def test_gen_session_labels_and_ingredients():
    cfg = SynthConfig(seed=3)
    ben = gen_session(cfg, 0, "benign")
    assert ben.label == BENIGN and ben.ingredients == ["benign"]
    fast = gen_session(cfg, 1, "fast")
    assert fast.label == MALICIOUS
    assert any(i.startswith("beacon:192.168.1.10:60") for i in fast.ingredients)
    both = gen_session(cfg, 2, "both")
    beacons = [i for i in both.ingredients if i.startswith("beacon:")]
    assert len(beacons) == 2
    assert len({i.split(":")[1] for i in beacons}) == 2  # two distinct devices


def test_gen_dataset_stream():
    cfg = SynthConfig(seed=6, duration_s=300.0)
    recs = list(gen_dataset(cfg, 2, 5))
    assert len(recs) == 7
    assert [r.label for r in recs] == [BENIGN] * 2 + [MALICIOUS] * 5
    assert [r.index for r in recs] == list(range(7))
    # the same config reproduces the same corpus
    again = list(gen_dataset(SynthConfig(seed=6, duration_s=300.0), 2, 5))
    assert [write_trace(r.trace) for r in recs] == [write_trace(r.trace) for r in again]
