"""Seeded synthetic traffic generation: benign device/user traffic, bot
scanning overlays and periodic command-channel beacons.

All numeric defaults are plumbing chosen to match the qualitative shape of
the three ingredients (scanners probe many random addresses with lone short
SYNs; beacons are small periodic PSH+ACK/UDP exchanges; benign devices
complete handshakes and move real payloads). Everything is deterministic
given (config, seed).
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError
from .features import BENIGN, MALICIOUS
from .trace import ACK, FIN, PSH, SYN, PacketRecord, PacketTable, Proto, Trace, quantize_ts

IP_HEADER_TCP = 40  # IPv4 + TCP headers, no options
IP_HEADER_UDP = 28

# first octets for external addresses: public unicast, none of the usual
# reserved/private ranges
_EXTERNAL_FIRST_OCTETS = [
    o for o in range(1, 224)
    if o not in (10, 100, 127, 169, 172, 192, 198, 203)
]


@dataclass
class ScanProfile:
    rate_pps: float = 3.0
    pkts_per_target_min: int = 1
    pkts_per_target_max: int = 3
    pkt_len_min: int = 40
    pkt_len_max: int = 60


@dataclass
class BeaconProfile:
    period_s: float = 60.0
    jitter_s: float = 0.0
    payload_bytes: int = 4
    protocol: str = "TCP"  # "TCP" (PSH+ACK exchange) or "UDP"

    def __post_init__(self):
        if self.period_s <= 0:
            raise ConfigError("beacon period must be positive")
        if self.jitter_s < 0 or self.jitter_s >= self.period_s / 4:
            raise ConfigError("beacon jitter must be in [0, period/4)")


@dataclass
class BenignProfile:
    app_interval_min_s: float = 60.0
    app_interval_max_s: float = 120.0
    app_payload_min: int = 100
    app_payload_max: int = 1000
    browse_burst_rate: float = 0.01  # bursts per second per PC


@dataclass
class SynthConfig:
    seed: int = 0
    n_iot_devices: int = 10
    n_pc_devices: int = 5
    duration_s: float = 900.0
    subnet: str = "192.168.1.0/24"
    scan: ScanProfile = field(default_factory=ScanProfile)
    beacon: BeaconProfile = field(default_factory=BeaconProfile)
    benign: BenignProfile = field(default_factory=BenignProfile)
    infected_devices: list[str] = field(default_factory=list)

    def iot_ips(self) -> list[str]:
        return [f"192.168.1.{10 + i}" for i in range(self.n_iot_devices)]

    def pc_ips(self) -> list[str]:
        return [f"192.168.1.{100 + i}" for i in range(self.n_pc_devices)]


def _external_ip(rng: np.random.Generator) -> str:
    a = _EXTERNAL_FIRST_OCTETS[int(rng.integers(0, len(_EXTERNAL_FIRST_OCTETS)))]
    b, c, d = (int(x) for x in rng.integers(0, 256, size=3))
    return f"{a}.{b}.{c}.{min(d, 254)}"


def _tcp(ts, src, dst, sport, dport, flags, payload=0) -> PacketRecord:
    return PacketRecord(
        ts=quantize_ts(ts), src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
        proto=Proto.TCP, tcp_flags=flags, ip_len=IP_HEADER_TCP + payload,
        payload_len=payload,
    )


def _udp(ts, src, dst, sport, dport, payload) -> PacketRecord:
    return PacketRecord(
        ts=quantize_ts(ts), src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport,
        proto=Proto.UDP, tcp_flags=0, ip_len=IP_HEADER_UDP + payload,
        payload_len=payload,
    )


def _app_exchange(t0, dev, srv, sport, payload_up, payload_down) -> list[PacketRecord]:
    """Complete handshake + request/response + teardown (all ACKed)."""
    return [
        _tcp(t0, dev, srv, sport, 443, SYN),
        _tcp(t0 + 0.02, srv, dev, 443, sport, SYN | ACK),
        _tcp(t0 + 0.04, dev, srv, sport, 443, ACK),
        _tcp(t0 + 0.06, dev, srv, sport, 443, PSH | ACK, payload_up),
        _tcp(t0 + 0.10, srv, dev, 443, sport, PSH | ACK, payload_down),
        _tcp(t0 + 0.12, dev, srv, sport, 443, ACK),
        _tcp(t0 + 0.14, dev, srv, sport, 443, FIN | ACK),
        _tcp(t0 + 0.16, srv, dev, 443, sport, FIN | ACK),
        _tcp(t0 + 0.18, dev, srv, sport, 443, ACK),
    ]


def gen_benign(config: SynthConfig, seed) -> Trace:
    """One session of uninfected-device traffic: periodic per-IoT-device app
    exchanges plus PC browsing bursts; every handshake completes."""
    rng = np.random.default_rng(seed)
    p = config.benign
    packets: list[PacketRecord] = []
    for dev in config.iot_ips():
        srv = _external_ip(rng)
        t = float(rng.uniform(0, p.app_interval_max_s))
        while t < config.duration_s - 1.0:
            sport = int(rng.integers(32768, 61000))
            up = int(rng.integers(p.app_payload_min, p.app_payload_max + 1))
            down = int(rng.integers(p.app_payload_min, p.app_payload_max + 1))
            packets.extend(_app_exchange(t, dev, srv, sport, up, down))
            t += float(rng.uniform(p.app_interval_min_s, p.app_interval_max_s))
    for pc in config.pc_ips():
        n_bursts = int(rng.poisson(p.browse_burst_rate * config.duration_s))
        for t in sorted(rng.uniform(0, config.duration_s - 2.0, size=n_bursts)):
            srv = _external_ip(rng)
            sport = int(rng.integers(32768, 61000))
            packets.extend(_app_exchange(float(t), pc, srv, sport,
                                         int(rng.integers(200, 1200)),
                                         int(rng.integers(500, 1500))))
            # extra response segments typical of page loads
            for j in range(int(rng.integers(2, 6))):
                packets.append(_tcp(float(t) + 0.2 + 0.02 * j, srv, pc, 443, sport,
                                    ACK, int(rng.integers(500, 1500))))
    return Trace(packets=packets, internal_subnet=config.subnet, epoch=0)


def gen_scanning(config: SynthConfig, seed, device_ip: str) -> list[PacketRecord]:
    """SYN-only probes from one infected device to random external targets;
    no handshake ever completes."""
    rng = np.random.default_rng(seed)
    s = config.scan
    packets: list[PacketRecord] = []
    if s.rate_pps <= 0:
        return packets
    mean_count = (s.pkts_per_target_min + s.pkts_per_target_max) / 2
    event_rate = s.rate_pps / mean_count
    t = float(rng.exponential(1.0 / event_rate))
    while t < config.duration_s:
        target = _external_ip(rng)
        sport = int(rng.integers(32768, 61000))
        count = int(rng.integers(s.pkts_per_target_min, s.pkts_per_target_max + 1))
        length = int(rng.integers(s.pkt_len_min, s.pkt_len_max + 1))
        for j in range(count):
            tj = t + 0.3 * j
            if tj >= config.duration_s:
                break
            packets.append(PacketRecord(
                ts=quantize_ts(tj), src_ip=device_ip, dst_ip=target,
                src_port=sport, dst_port=23, proto=Proto.TCP, tcp_flags=SYN,
                ip_len=length, payload_len=0,
            ))
        t += float(rng.exponential(1.0 / event_rate))
    return packets


def gen_cnc_beacon(period_s: float, jitter_s: float, duration_s: float, seed,
                   protocol: str = "TCP", payload_bytes: int = 4,
                   device_ip: str = "192.168.1.10",
                   server_ip: str = "203.0.113.50") -> list[PacketRecord]:
    """Beacon packets at t = k*period + U(-jitter, +jitter); TCP beacons are a
    small PSH+ACK with a bare ACK reply, UDP beacons a single datagram."""
    if period_s <= 0:
        raise ConfigError("beacon period must be positive")
    rng = np.random.default_rng(seed)
    packets: list[PacketRecord] = []
    sport = int(rng.integers(32768, 61000))
    k = 0
    while k * period_s < duration_s:
        t = k * period_s
        if jitter_s > 0:
            t += float(rng.uniform(-jitter_s, jitter_s))
        k += 1
        if t < 0 or t >= duration_s:
            continue
        if protocol == "UDP":
            packets.append(_udp(t, device_ip, server_ip, sport, 5353, payload_bytes))
        else:
            packets.append(_tcp(t, device_ip, server_ip, sport, 4444, PSH | ACK, payload_bytes))
            packets.append(_tcp(t + 0.05, server_ip, device_ip, 4444, sport, ACK))
    return packets


def gen_memoryless_noise(rate_pps: float, duration_s: float, seed,
                         device_ip: str = "192.168.1.10",
                         server_ip: str = "198.51.100.7") -> list[PacketRecord]:
    """Small-payload PSH+ACK packets at exponential inter-arrivals: aperiodic
    traffic that survives the command-channel filter."""
    rng = np.random.default_rng(seed)
    packets = []
    sport = int(rng.integers(32768, 61000))
    t = float(rng.exponential(1.0 / rate_pps))
    while t < duration_s:
        packets.append(_tcp(t, device_ip, server_ip, sport, 80, PSH | ACK, 4))
        t += float(rng.exponential(1.0 / rate_pps))
    return packets


def _overlay(base: Trace, *extra: list[PacketRecord]) -> Trace:
    """``base`` plus the extra packets; the Trace restores timestamp order,
    base packets first among equal timestamps."""
    packets = PacketTable.concat([base.packets, PacketTable.from_records(chain(*extra))])
    return Trace(packets=packets, internal_subnet=base.internal_subnet, epoch=base.epoch)


@dataclass
class SessionRecord:
    index: int
    label: str
    ingredients: list[str]
    trace: Trace


# the two beacon periods observed for the replayed malware families
PERIOD_FAST = 60.0
PERIOD_SLOW = 210.0


def _malicious_plan(n_malicious: int) -> list[str]:
    """40% fast-beacon, 40% slow-beacon, remainder both."""
    n_fast = 2 * n_malicious // 5
    n_slow = 2 * n_malicious // 5
    return (["fast"] * n_fast + ["slow"] * n_slow
            + ["both"] * (n_malicious - n_fast - n_slow))


def gen_session(config: SynthConfig, index: int, kind: str) -> SessionRecord:
    """Build one labeled session; ``kind`` is benign/fast/slow/both."""
    seed = [config.seed, index]
    base = gen_benign(config, seed)
    if kind == "benign":
        return SessionRecord(index, BENIGN, ["benign"], base)
    iot = config.iot_ips()
    infected = config.infected_devices or iot[:2]
    dev_a = infected[0]
    dev_b = infected[1] if len(infected) > 1 else infected[0]
    overlays = []
    ingredients = ["benign"]
    if kind in ("fast", "both"):
        overlays.append(gen_scanning(config, [config.seed, index, 1], dev_a))
        overlays.append(gen_cnc_beacon(
            PERIOD_FAST, config.beacon.jitter_s, config.duration_s,
            [config.seed, index, 2], config.beacon.protocol,
            config.beacon.payload_bytes, device_ip=dev_a))
        ingredients += ["scan:" + dev_a, f"beacon:{dev_a}:{PERIOD_FAST:g}"]
    if kind in ("slow", "both"):
        dev = dev_b if kind == "both" else dev_a
        overlays.append(gen_scanning(config, [config.seed, index, 3], dev))
        overlays.append(gen_cnc_beacon(
            PERIOD_SLOW, config.beacon.jitter_s, config.duration_s,
            [config.seed, index, 4], config.beacon.protocol,
            config.beacon.payload_bytes, device_ip=dev))
        ingredients += ["scan:" + dev, f"beacon:{dev}:{PERIOD_SLOW:g}"]
    return SessionRecord(index, MALICIOUS, ingredients, _overlay(base, *overlays))


def gen_dataset(config: SynthConfig, n_benign: int, n_malicious: int,
                seed: Optional[int] = None) -> Iterator[SessionRecord]:
    """Stream a labeled session corpus: n_benign benign sessions followed by
    the 40/40/20 malicious mix. Sessions are independently seeded from
    (seed, index), so the corpus is reproducible and parallelizable."""
    if seed is not None:
        config = replace(config, seed=seed)
    for i in range(n_benign):
        yield gen_session(config, i, "benign")
    for j, kind in enumerate(_malicious_plan(n_malicious)):
        yield gen_session(config, n_benign + j, kind)
