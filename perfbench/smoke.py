#!/usr/bin/env python3
"""Smoke run of the benchmark at miniature size, from the repository root:

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json on two seeds, untraced and traced,
and fails unless every op passes its correctness check, every metric that
BENCHMARK.json names is emitted with its unit, and the traced run's details
hold a value for every layer metric; the untraced run must also print its
``op_tail_ms`` and ``error_rate`` lines.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import PER_LAYER
    from tracer import LAYER_METRICS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    if list(expected[1]) != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                where = f"{workload} seed {seed} trace {trace}"
                known = len(problems)
                cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", "1", "--trace", str(trace),
                                          "--size", "mini"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=180)
                if proc.returncode:
                    problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                    continue
                result = json.loads(proc.stdout.splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    problems.append(f"{where}: {result['failed']} of "
                                    f"{result['attempted']} ops failed")
                if not trace:
                    # reported on their own lines, not bounded in BENCHMARK.json
                    problems += [f"{where}: no {name} line" for name in ("op_tail_ms", "error_rate")
                                 if f"# {name} " not in proc.stdout]
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                if emitted != expected[trace]:
                    problems.append(f"{where}: metrics {emitted}, expected {expected[trace]}")
                if trace:
                    details = json.loads((ROOT / ".perfbench_out" /
                                          f"{workload}-seed{seed}-trace1.json").read_text())
                    missing = [name for name, *_ in LAYER_METRICS
                               if details["layers"].get(name) is None]
                    if missing:
                        problems.append(f"{where}: layer metrics absent: {missing}")
                print(f"{where}: {'ok' if len(problems) == known else 'FAIL'}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
