"""Columnar generators against the per-packet ones in scalar_reference.

The beacon and noise streams must equal the oracle column for column, since
criteria 2, 3 and 9 are measured on them. The scan and benign generators
draw in another order, so they are held to the shape of their traffic."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from botgate.errors import ConfigError
from botgate.synth import (
    _EXTERNAL_FIRST_OCTETS, BenignProfile, ScanProfile, SynthConfig, gen_benign,
    gen_cnc_beacon, gen_memoryless_noise, gen_scanning, gen_session,
)
from botgate.trace import (
    PROTO_TCP, SYN, PacketTable, Trace, parse_trace, quantize_ts, write_trace,
)

SECS = 900.0
seeds = st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3)


def oracle(records):
    return PacketTable.from_records(records)


def criterion_9_calls():
    """The beacon and noise calls of criterion 9's 50 scenarios."""
    rng = np.random.default_rng(91)
    for s in range(50):
        n_dev = int(rng.integers(2, 30))
        infected = set(rng.choice(n_dev, size=int(rng.integers(1, max(2, n_dev // 3 + 1))),
                                  replace=False).tolist())
        for i in range(n_dev):
            ip = f"192.168.1.{10 + i}"
            if i in infected:
                period = float(rng.choice([60, 210]))
                yield "beacon", (period, 0.0, SECS, [91, s, i]), {"device_ip": ip}
            else:
                yield "noise", (1 / 30, SECS, [92, s, i]), {"device_ip": ip}


def test_beacon_and_noise_equal_oracle_on_criteria_seeds():
    calls = [("beacon", (p, 0.0, SECS, [7, i, int(p)]), {}) for p in (60.0, 210.0)
             for i in range(50)]
    calls += [("noise", (1 / 30, SECS, [11, i]), {}) for i in range(100)]
    calls += [("beacon", (210.0, 5.0, SECS, [13, i]), {}) for i in range(25)]
    calls += list(criterion_9_calls())
    generators = {"beacon": (gen_cnc_beacon, ref.gen_cnc_beacon),
                  "noise": (gen_memoryless_noise, ref.gen_memoryless_noise)}
    for kind, args, kwargs in calls:
        new, old = generators[kind]
        assert new(*args, **kwargs) == oracle(old(*args, **kwargs)), (kind, args)


@settings(max_examples=150, deadline=None)
@given(seed=seeds, period=st.sampled_from([60.0, 210.0, 7.5, 1.0]),
       jitter_frac=st.sampled_from([0.0, 0.01, 0.1, 0.249]),
       duration=st.floats(0.0, 3600.0), protocol=st.sampled_from(["TCP", "UDP"]),
       payload=st.integers(0, 1400))
def test_beacon_equals_oracle(seed, period, jitter_frac, duration, protocol, payload):
    args = (period, period * jitter_frac, duration, seed, protocol, payload)
    assert gen_cnc_beacon(*args) == oracle(ref.gen_cnc_beacon(*args))


@settings(max_examples=150, deadline=None)
@given(seed=seeds, rate=st.floats(1e-3, 5.0), duration=st.floats(0.0, 3600.0))
def test_memoryless_noise_equals_oracle(seed, rate, duration):
    assert gen_memoryless_noise(rate, duration, seed) == \
        oracle(ref.gen_memoryless_noise(rate, duration, seed))


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1e6))
def test_quantize_ts_matches_text_rounding_off_ties(ts):
    q = quantize_ts(ts)
    assert float(f"{q:.3f}") == q  # on the grid: the text round trip is exact
    # the one-step quantizer and correctly rounded text agree except within
    # rounding error of a half-millisecond tie
    tie_gap = abs(math.fmod(ts * 1000, 1.0) - 0.5)
    assert q == ref.quantize_ts(ts) or tie_gap < 1e-6


def test_quantize_ts_arrays():
    ts = np.array([0.0, 1.23456, 17.0009, 899.9996])
    assert quantize_ts(ts).tolist() == [0.0, 1.235, 17.001, 900.0]


scan_profiles = st.builds(
    ScanProfile,
    rate_pps=st.sampled_from([0.05, 0.3, 3.0, 20.0]),
    pkts_per_target_min=st.integers(1, 3),
    pkts_per_target_max=st.integers(3, 6),
    pkt_len_min=st.integers(40, 60),
    pkt_len_max=st.integers(60, 80),
)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, profile=scan_profiles, duration=st.sampled_from([30.0, 300.0, 900.0]))
def test_scanning_properties(seed, profile, duration):
    cfg = SynthConfig(duration_s=duration, scan=profile)
    t = gen_scanning(cfg, seed, "192.168.1.10")
    assert (t.flags == SYN).all() and (t.proto == PROTO_TCP).all()
    assert (t.dport == 23).all() and (t.payload_len == 0).all()
    assert (t.src == 0xC0A8010A).all()
    assert ((0 <= t.ts) & (t.ts < duration)).all()
    assert np.isin(t.dst >> 24, _EXTERNAL_FIRST_OCTETS).all()
    assert (t.dst & 0xFF).max(initial=0) <= 254
    assert ((profile.pkt_len_min <= t.ip_len) & (t.ip_len <= profile.pkt_len_max)).all()
    # a target's probes share a source port and a length, 0.3 s apart
    targets = {}
    for i, key in enumerate(zip(t.dst.tolist(), t.sport.tolist())):
        targets.setdefault(key, []).append(i)
    for rows in targets.values():
        assert len(rows) <= profile.pkts_per_target_max
        assert len(set(t.ip_len[rows].tolist())) == 1
        gaps = np.diff(t.ts[rows])
        assert np.allclose(gaps, 0.3, atol=0.0011)
        # fewer probes than the minimum only when the session ended first
        if len(rows) < profile.pkts_per_target_min:
            assert t.ts[rows[-1]] + 0.3 >= duration - 0.0006


def test_scanning_rate_matches_oracle():
    cfg = SynthConfig()
    new = [len(gen_scanning(cfg, [3, i], "192.168.1.10")) for i in range(20)]
    old = [len(ref.gen_scanning(cfg, [3, i], "192.168.1.10")) for i in range(20)]
    assert abs(np.mean(new) / np.mean(old) - 1) < 0.05
    assert abs(np.mean(new) / (3.0 * SECS) - 1) < 0.05


def test_benign_shape_matches_oracle():
    cfg = SynthConfig()
    for i in range(10):
        new = gen_benign(cfg, [4, i]).packets
        old = oracle(ref.gen_benign(cfg, [4, i]))
        assert abs(len(new) / len(old) - 1) < 0.25
        for table in (new, old):
            # IoT devices talk to one server each, PCs to many
            iot = (table.src >> 8 == 0xC0A801) & ((table.src & 0xFF) < 100)
            assert all(len(np.unique(table.dst[iot & (table.src == d)])) == 1
                       for d in np.unique(table.src[iot]))
        assert set(new.flags.tolist()) == set(old.flags.tolist())
        assert set(np.unique(new.ip_len - new.payload_len).tolist()) == {40}
        assert (new.proto == PROTO_TCP).all() and new.payload_len.max() < 1500
        assert ((0 <= new.ts) & (new.ts < cfg.duration_s)).all()


@pytest.mark.parametrize("kind", ["benign", "fast", "slow", "both"])
def test_generated_tables_survive_text_round_trip(kind):
    for cfg in (SynthConfig(seed=8), SynthConfig(seed=9, duration_s=300.0, n_pc_devices=0)):
        trace = gen_session(cfg, 3, kind).trace
        assert parse_trace(write_trace(trace)).packets == trace.packets


@pytest.mark.parametrize("table", [
    gen_cnc_beacon(60.0, 5.0, SECS, [1, 2]),
    gen_cnc_beacon(210.0, 0.0, SECS, [1, 3], protocol="UDP", payload_bytes=0),
    gen_memoryless_noise(2.0, SECS, [1, 4]),
    gen_scanning(SynthConfig(scan=ScanProfile(rate_pps=50.0)), [1, 5], "192.168.1.99"),
], ids=["beacon-jitter", "beacon-udp", "noise", "fast-scan"])
def test_overlay_tables_survive_text_round_trip(table):
    trace = Trace(table, "192.168.1.0/24")
    assert parse_trace(write_trace(trace)).packets == trace.packets


@pytest.mark.parametrize("profile, message", [
    (ScanProfile(pkt_len_min=-5), "payload_len 0 > ip_len -"),
    (ScanProfile(pkts_per_target_min=4), None),
], ids=["negative-length", "empty-count-range"])
def test_invalid_scan_profile_raises(profile, message):
    with pytest.raises(ValueError, match=message):
        gen_scanning(SynthConfig(scan=profile), [0], "192.168.1.10")


def test_invalid_profiles_and_addresses_raise():
    with pytest.raises(ValueError, match="negative length"):
        gen_benign(SynthConfig(benign=BenignProfile(app_payload_min=-50, app_payload_max=-1)),
                   [0])
    with pytest.raises(ValueError, match="negative length"):
        gen_cnc_beacon(60.0, 0.0, SECS, [0], payload_bytes=-41)
    with pytest.raises(ValueError, match="invalid IPv4 address '192.168.1.300'"):
        gen_memoryless_noise(1.0, SECS, [0], device_ip="192.168.1.300")
    for duration in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="session duration"):
            SynthConfig(duration_s=duration)
