#!/usr/bin/env python3
"""Stage-2 detection-rate study: ACF gap-variance test vs the periodogram
baseline across beacon periods and jitter levels, plus the false-positive rate
on memoryless noise.

Usage:
    python3 scripts/stage2_eval.py --n-traces 50 --seed 0
"""
import argparse

from botgate.acf import Verdict, cnc_candidates, detect_periodicity, encode
from botgate.baselines import WalkerVerdict, walker_test
from botgate.sessions import SESSION_SECS
from botgate.synth import gen_cnc_beacon, gen_memoryless_noise


def rates(period, jitter, n, seed):
    acf_hits = walker_hits = 0
    for i in range(n):
        packets = gen_cnc_beacon(period, jitter, SESSION_SECS,
                                 [seed, int(period), int(jitter * 10), i])
        arrivals = packets.ts[cnc_candidates(packets)]
        acf_hits += detect_periodicity(arrivals, SESSION_SECS).verdict is Verdict.PERIOD_DETECTED
        walker_hits += walker_test(encode(arrivals, SESSION_SECS)).verdict is WalkerVerdict.DETECTED
    return acf_hits / n, walker_hits / n


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-traces", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.n_traces < 1:
        ap.error(f"--n-traces must be at least 1, got {args.n_traces}")
    if args.seed < 0:
        ap.error(f"--seed must be non-negative, got {args.seed}")

    print(f"{'period':>7} {'jitter':>7} {'ACF DR':>8} {'ACF MDR':>8} {'baseline DR':>12}")
    for period in (60.0, 210.0):
        for jitter in (0.0, 2.0, 5.0):
            acf_dr, walker_dr = rates(period, jitter, args.n_traces, args.seed)
            print(f"{period:7.0f} {jitter:7.1f} {acf_dr:8.2f} {1 - acf_dr:8.2f} "
                  f"{walker_dr:12.2f}")

    fp = 0
    for i in range(2 * args.n_traces):
        noise = gen_memoryless_noise(1 / 30, SESSION_SECS, [args.seed, 999, i])
        res = detect_periodicity(noise.ts[cnc_candidates(noise)], SESSION_SECS)
        fp += res.verdict is Verdict.PERIOD_DETECTED
    print(f"\nnoise false-positive rate: {fp / (2 * args.n_traces):.3f} "
          f"({fp}/{2 * args.n_traces} traces)")


if __name__ == "__main__":
    main()
