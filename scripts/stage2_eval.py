#!/usr/bin/env python3
"""Stage-2 detection-rate study: ACF gap-variance test vs the periodogram
baseline across beacon periods and jitter levels, plus the false-positive rate
on memoryless noise.

Usage:
    python3 scripts/stage2_eval.py --n-traces 50 --seed 0
"""
import argparse

from botgate.acf import Verdict, detect_periodicity
from botgate.baselines import WalkerVerdict, walker_test
from botgate.errors import ConfigError
from botgate.synth import gen_cnc_beacon, gen_memoryless_noise


def rates(period, jitter, duration, n, seed, gamma):
    acf_hits = walker_hits = 0
    for i in range(n):
        packets = gen_cnc_beacon(period, jitter, duration, [seed, int(period), int(jitter * 10), i])
        res = detect_periodicity(packets, duration)
        if res.sequence is None:  # the duration could not be encoded
            raise ConfigError(res.reason)
        acf_hits += res.verdict is Verdict.PERIOD_DETECTED
        walker_hits += walker_test(res.sequence, gamma=gamma).verdict is WalkerVerdict.DETECTED
    return acf_hits / n, walker_hits / n


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-traces", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--duration", type=float, default=900.0)
    ap.add_argument("--gamma", type=float, default=0.1)
    args = ap.parse_args()

    print(f"{'period':>7} {'jitter':>7} {'ACF DR':>8} {'ACF MDR':>8} {'baseline DR':>12}")
    for period in (60.0, 210.0):
        for jitter in (0.0, 2.0, 5.0):
            acf_dr, walker_dr = rates(period, jitter, args.duration, args.n_traces,
                                      args.seed, args.gamma)
            print(f"{period:7.0f} {jitter:7.1f} {acf_dr:8.2f} {1 - acf_dr:8.2f} "
                  f"{walker_dr:12.2f}")

    fp = 0
    for i in range(2 * args.n_traces):
        noise = gen_memoryless_noise(1 / 30, args.duration, [args.seed, 999, i])
        res = detect_periodicity(noise, args.duration)
        fp += res.verdict is Verdict.PERIOD_DETECTED
    print(f"\nnoise false-positive rate: {fp / (2 * args.n_traces):.3f} "
          f"({fp}/{2 * args.n_traces} traces)")


if __name__ == "__main__":
    main()
