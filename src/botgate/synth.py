"""Seeded synthetic traffic generation: benign device/user traffic, bot
scanning overlays and periodic command-channel beacons.

The constants are plumbing chosen to match the qualitative shape of the three
ingredients (scanners probe many random addresses with lone short SYNs;
beacons are small periodic PSH+ACK/UDP exchanges; benign devices complete
handshakes and move real payloads). A SynthConfig sets only the seed, the
device counts, the session length, the beacon jitter, the scan rate and the
IoT app interval; every device is in SynthConfig.subnet. Everything is
deterministic given (config, seed). Generators draw per-event values as
arrays and build PacketTable columns from them, with no per-packet loop.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterator

import numpy as np

from .errors import ConfigError
from .features import BENIGN, MALICIOUS
from .sessions import SESSION_SECS
from .trace import (
    ACK, FIN, PROTO_TCP, PROTO_UDP, PSH, SYN, PacketTable, Trace, parse_ip, quantize_ts,
)

IP_HEADER_TCP = 40  # IPv4 + TCP headers, no options
IP_HEADER_UDP = 28

# first octets for external addresses: public unicast, none of the usual
# reserved/private ranges
_EXTERNAL_FIRST_OCTETS = np.array([
    o for o in range(1, 224)
    if o not in (10, 100, 127, 169, 172, 192, 198, 203)
])


@dataclass
class ScanProfile:
    rate_pps: float = 3.0


SCAN_PROBES_MIN, SCAN_PROBES_MAX = 1, 3  # probes per scan target
SCAN_LEN_MIN, SCAN_LEN_MAX = 40, 60      # a probe's IP length

# the two beacon periods observed for the replayed malware families
PERIOD_FAST = 60.0
PERIOD_SLOW = 210.0
BEACON_PAYLOAD = 4  # bytes


@dataclass
class BenignProfile:
    app_interval_min_s: float = 60.0
    app_interval_max_s: float = 120.0


APP_PAYLOAD_MIN, APP_PAYLOAD_MAX = 100, 1000  # an app request's and response's payload
BROWSE_BURST_RATE = 0.01  # browsing bursts per second per PC


@dataclass
class SynthConfig:
    seed: int = 0
    n_iot_devices: int = 10  # at 192.168.1.10 and up, at most 90
    n_pc_devices: int = 5    # at 192.168.1.100 and up, at most 155
    duration_s: float = SESSION_SECS
    jitter_s: float = 0.0    # beacon jitter, below a quarter of the shorter period
    scan: ScanProfile = field(default_factory=ScanProfile)
    benign: BenignProfile = field(default_factory=BenignProfile)
    subnet: ClassVar[str] = "192.168.1.0/24"

    def __post_init__(self):
        if not 0 < self.duration_s < math.inf:
            raise ConfigError(f"session duration must be positive and finite, got {self.duration_s}")
        if not 0 <= self.jitter_s < PERIOD_FAST / 4:
            raise ConfigError(f"beacon jitter {self.jitter_s} must be in [0, period/4)")
        if not (0 <= self.n_iot_devices <= 90 and 0 <= self.n_pc_devices <= 155):
            raise ConfigError(f"{self.n_iot_devices} IoT and {self.n_pc_devices} PC devices do "
                              f"not fit the address plan (at most 90 and 155)")

    def iot_ips(self) -> list[str]:
        return [f"192.168.1.{10 + i}" for i in range(self.n_iot_devices)]

    def pc_ips(self) -> list[str]:
        return [f"192.168.1.{100 + i}" for i in range(self.n_pc_devices)]


def _external_ips(rng: np.random.Generator, n: int) -> np.ndarray:
    """n addresses with a first octet from _EXTERNAL_FIRST_OCTETS and a last
    octet of at most 254."""
    first = _EXTERNAL_FIRST_OCTETS[rng.integers(0, len(_EXTERNAL_FIRST_OCTETS), n)]
    rest = rng.integers(0, 1 << 24, n)
    rest -= (rest & 0xFF) == 0xFF
    return first << 24 | rest


def _arrivals(first: float, draw, limit: float, mean_gap: float) -> np.ndarray:
    """The sums first, first + g1, first + g1 + g2, ... before the first one at
    or past ``limit``, added left to right as a scalar loop adds. The gaps come
    from ``draw(n)``, in batches of the expected count plus a margin."""
    expected = limit / mean_gap if limit > 0 else 0.0
    n = int(expected + 4 * math.sqrt(expected)) + 1
    sums = [np.cumsum(np.append(first, draw(n)))]
    while sums[-1][-1] < limit:
        sums.append(np.cumsum(np.append(sums[-1][-1], draw(n)))[1:])
    t = np.concatenate(sums)
    return t[:np.argmax(t >= limit)]


# one app exchange between a device and port 443 of a server: handshake,
# request, response, ACK and teardown. Per packet: its offset from the
# exchange's start, whether the device sends it, and its flags
_EXCHANGE_DT = np.array([0.0, 0.02, 0.04, 0.06, 0.10, 0.12, 0.14, 0.16, 0.18])
_EXCHANGE_OUT = np.array([1, 0, 1, 1, 0, 1, 1, 0, 1], bool)
_EXCHANGE_FLAGS = np.array([SYN, SYN | ACK, ACK, PSH | ACK, PSH | ACK, ACK, FIN | ACK,
                            FIN | ACK, ACK])


def _app_exchanges(t0, dev, srv, sport, up, down) -> PacketTable:
    """One complete exchange per element of the arguments, the (n, 9) template
    broadcast over them; ``up`` and ``down`` are the request and response payloads."""
    t0, dev, srv, sport = (np.asarray(v)[:, None] for v in (t0, dev, srv, sport))
    payload = np.zeros((len(t0), len(_EXCHANGE_DT)), np.int64)
    payload[:, 3], payload[:, 4] = up, down
    out = _EXCHANGE_OUT
    return PacketTable.from_columns(
        quantize_ts(t0 + _EXCHANGE_DT), np.where(out, dev, srv), np.where(out, srv, dev),
        np.where(out, sport, 443), np.where(out, 443, sport), PROTO_TCP, _EXCHANGE_FLAGS,
        IP_HEADER_TCP + payload, payload)


def gen_benign(config: SynthConfig, seed) -> Trace:
    """One session of uninfected-device traffic: periodic per-IoT-device app
    exchanges plus PC browsing bursts; every handshake completes."""
    rng = np.random.default_rng(seed)
    # each IoT device talks to one server: first at U(0, max), then every U(min, max) s
    iot = [parse_ip(ip) for ip in config.iot_ips()]
    servers = _external_ips(rng, len(iot))
    lo, hi = config.benign.app_interval_min_s, config.benign.app_interval_max_s
    starts = [_arrivals(rng.uniform(0, hi), lambda n: rng.uniform(lo, hi, n),
                        config.duration_s - 1.0, (lo + hi) / 2) for _ in iot]
    counts = list(map(len, starts))
    n = sum(counts)
    apps = _app_exchanges(np.concatenate(starts or [np.empty(0)]), np.repeat(iot, counts),
                          np.repeat(servers, counts), rng.integers(32768, 61000, n),
                          *rng.integers(APP_PAYLOAD_MIN, APP_PAYLOAD_MAX + 1, (2, n)))
    # each PC browses in Poisson bursts: one exchange, then 2-5 more response segments
    pcs = [parse_ip(ip) for ip in config.pc_ips()]
    bursts = rng.poisson(BROWSE_BURST_RATE * config.duration_s, len(pcs))
    n = int(bursts.sum())
    t0 = rng.uniform(0, config.duration_s - 2.0, n)
    pc, srv = np.repeat(pcs, bursts), _external_ips(rng, n)
    sport = rng.integers(32768, 61000, n)
    pages = _app_exchanges(t0, pc, srv, sport, rng.integers(200, 1200, n),
                           rng.integers(500, 1500, n))
    burst, j = np.nonzero(np.arange(5) < rng.integers(2, 6, n)[:, None])
    payload = rng.integers(500, 1500, len(burst))
    segments = PacketTable.from_columns(
        quantize_ts(t0[burst] + 0.2 + 0.02 * j), srv[burst], pc[burst], 443, sport[burst],
        PROTO_TCP, ACK, IP_HEADER_TCP + payload, payload)
    return Trace(packets=PacketTable.concat([apps, pages, segments]),
                 internal_subnet=config.subnet, epoch=0)


def gen_scanning(config: SynthConfig, seed, device_ip: str) -> PacketTable:
    """SYN-only probes from one infected device to random external targets;
    no handshake ever completes. Targets come at exponential inter-arrivals;
    each gets its count of probes 0.3 s apart, of one length, from one port."""
    if config.scan.rate_pps <= 0:
        return PacketTable.concat([])
    rng = np.random.default_rng(seed)
    gap = (SCAN_PROBES_MIN + SCAN_PROBES_MAX) / 2 / config.scan.rate_pps
    starts = _arrivals(rng.exponential(gap), lambda n: rng.exponential(gap, n),
                       config.duration_s, gap)
    n = len(starts)
    dsts = _external_ips(rng, n)
    sports = rng.integers(32768, 61000, n)
    counts = rng.integers(SCAN_PROBES_MIN, SCAN_PROBES_MAX + 1, n)
    lengths = rng.integers(SCAN_LEN_MIN, SCAN_LEN_MAX + 1, n)
    target, j = np.nonzero(np.arange(SCAN_PROBES_MAX) < counts[:, None])
    ts = quantize_ts(starts[target] + 0.3 * j)
    keep = ts < config.duration_s
    target = target[keep]
    return PacketTable.from_columns(ts[keep], parse_ip(device_ip), dsts[target],
                                    sports[target], 23, PROTO_TCP, SYN, lengths[target], 0)


def gen_cnc_beacon(period_s: float, jitter_s: float, duration_s: float, seed,
                   protocol: str = "TCP", device_ip: str = "192.168.1.10") -> PacketTable:
    """Beacon packets at t = k*period + U(-jitter, +jitter); TCP beacons are a
    small PSH+ACK with a bare ACK reply, UDP beacons a single datagram."""
    if period_s <= 0:
        raise ConfigError("beacon period must be positive")
    rng = np.random.default_rng(seed)
    sport = int(rng.integers(32768, 61000))
    t = np.arange(int(duration_s // period_s) + 2 if duration_s > 0 else 0) * period_s
    t = t[t < duration_s]  # k = 0, 1, ... while k*period < duration
    if jitter_s > 0:
        t = t + rng.uniform(-jitter_s, jitter_s, len(t))
    t = t[(t >= 0) & (t < duration_s)]
    dev, srv = parse_ip(device_ip), parse_ip("203.0.113.50")
    if protocol == "UDP":
        return PacketTable.from_columns(quantize_ts(t), dev, srv, sport, 5353, PROTO_UDP, 0,
                                        IP_HEADER_UDP + BEACON_PAYLOAD, BEACON_PAYLOAD)
    # per beacon: the device's PSH+ACK, then the server's ACK 50 ms later
    payload = np.array([BEACON_PAYLOAD, 0])
    return PacketTable.from_columns(
        quantize_ts(t[:, None] + [0.0, 0.05]), [dev, srv], [srv, dev], [sport, 4444],
        [4444, sport], PROTO_TCP, [PSH | ACK, ACK], IP_HEADER_TCP + payload, payload)


def gen_memoryless_noise(rate_pps: float, duration_s: float, seed,
                         device_ip: str = "192.168.1.10") -> PacketTable:
    """Small-payload PSH+ACK packets at exponential inter-arrivals: aperiodic
    traffic that survives the command-channel filter."""
    rng = np.random.default_rng(seed)
    sport = int(rng.integers(32768, 61000))
    gap = 1.0 / rate_pps
    t = _arrivals(rng.exponential(gap), lambda n: rng.exponential(gap, n), duration_s, gap)
    return PacketTable.from_columns(quantize_ts(t), parse_ip(device_ip), parse_ip("198.51.100.7"),
                                    sport, 80, PROTO_TCP, PSH | ACK, IP_HEADER_TCP + 4, 4)


@dataclass
class SessionRecord:
    index: int
    label: str
    ingredients: list[str]
    trace: Trace


def _malicious_plan(n_malicious: int) -> list[str]:
    """40% fast-beacon, 40% slow-beacon, remainder both."""
    n_fast = 2 * n_malicious // 5
    n_slow = 2 * n_malicious // 5
    return (["fast"] * n_fast + ["slow"] * n_slow
            + ["both"] * (n_malicious - n_fast - n_slow))


def gen_session(config: SynthConfig, index: int, kind: str) -> SessionRecord:
    """Build one labeled session; ``kind`` is benign/fast/slow/both."""
    base = gen_benign(config, [config.seed, index])
    if kind == "benign":
        return SessionRecord(index, BENIGN, ["benign"], base)
    infected = config.iot_ips()[:2]
    if not infected:
        raise ConfigError("a malicious session needs at least one IoT device, got 0")
    dev_a, dev_b = infected[0], infected[-1]  # one device plays both with one IoT device
    bots = {"fast": [(PERIOD_FAST, dev_a)], "slow": [(PERIOD_SLOW, dev_a)],
            "both": [(PERIOD_FAST, dev_a), (PERIOD_SLOW, dev_b)]}[kind]
    parts, ingredients = [base.packets], ["benign"]
    for period, dev in bots:
        stream = 1 if period == PERIOD_FAST else 3  # the scan's seed; the beacon's is next
        parts += [
            gen_scanning(config, [config.seed, index, stream], dev),
            gen_cnc_beacon(period, config.jitter_s, config.duration_s,
                           [config.seed, index, stream + 1], device_ip=dev),
        ]
        ingredients += [f"scan:{dev}", f"beacon:{dev}:{period:g}"]
    # the Trace restores timestamp order, base packets first among equal timestamps
    trace = Trace(packets=PacketTable.concat(parts), internal_subnet=base.internal_subnet,
                  epoch=base.epoch)
    return SessionRecord(index, MALICIOUS, ingredients, trace)


def gen_dataset(config: SynthConfig, n_benign: int, n_malicious: int) -> Iterator[SessionRecord]:
    """Stream a labeled session corpus: n_benign benign sessions followed by
    the 40/40/20 malicious mix. Sessions are independently seeded from
    (config.seed, index), so the corpus is reproducible and parallelizable."""
    for i in range(n_benign):
        yield gen_session(config, i, "benign")
    for j, kind in enumerate(_malicious_plan(n_malicious)):
        yield gen_session(config, n_benign + j, kind)
