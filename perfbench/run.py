#!/usr/bin/env python3
"""botgate benchmark: one closed-loop client runs a workload through the
real CLI (``botgate.cli.main``) in this process and checks every op.

    python3 perfbench/run.py --workload {session,day,corpus} --seed N \\
        --seconds S --trace {0,1} [--size {full,mini}]

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the end-to-end metrics are printed, and ``op_tail_ms`` and
``error_rate`` on lines of their own; with ``--trace 1`` ops alternate in
pairs between untraced and traced, and the per-layer metrics of the traced
ops are printed. Either way the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (environment, every op time, all layer metrics, spans) go to
``.perfbench_out/``. See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MIN_OPS = {False: 2, True: 4}  # keyed by "traced run"; it needs an untraced and a traced pair
TAIL_BEYOND = 10

# The per_layer metrics of BENCHMARK.json: the layer metrics that every
# workload exercises. The workload-specific ones are in the details file.
PER_LAYER = [
    "trace.parse_ms", "trace.parse_pkts", "features.extract_ms", "features.rows",
    "classifiers.load_ms", "classifiers.predict_ms", "sessions.split_ms",
    "sessions.unique_ips", "acf.sweep_ms", "acf.candidates", "acf.analyzed_frac",
    "cli.self_ms", "bench.trace_overhead_ms",
]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model()}


def tail(ms: list[float]) -> tuple[float | None, str]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    or None when that percentile would not lie above the median."""
    s = sorted(ms)
    n = len(s)
    if n <= 2 * TAIL_BEYOND:
        return None, (f"omitted: no percentile above the median has {TAIL_BEYOND} "
                      f"of {n} ops beyond it")
    return s[n - TAIL_BEYOND - 1], f"p{100 * (n - TAIL_BEYOND) / n:.1f} of {n} ops"


def measure(wl, seconds: float, inst) -> list[dict]:
    """Closed loop, one client: the next op starts when the last one ends."""
    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_OPS[inst is not None] or time.perf_counter() < deadline:
        traced = inst is not None and i // 2 % 2 == 1
        if traced:
            inst.install()
            inst.tracer.op = i
            wl.tracer = inst.tracer
        t0 = time.perf_counter()
        try:
            result = wl.op(i)
        finally:
            ms = 1000 * (time.perf_counter() - t0)
            if traced:
                inst.remove()
                wl.tracer = None
        try:
            problem = wl.check(result)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            print(f"op {i} failed: {problem}", file=sys.stderr)
        records.append({"ms": ms, "traced": traced, "ok": problem is None,
                        "pkts": wl.packets(result)})
        i += 1
    return records


def run(args, work: Path) -> int:
    from tracer import LAYER_METRICS, Instrumentation, Tracer, layer_metrics, span_table
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.size)
    setup_s = []
    for r in range(SETUP_REPEATS):
        d = work / f"setup{r}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        wl.setup(d, args.seed)
        setup_s.append(time.perf_counter() - t0)
        if r:
            shutil.rmtree(work / f"setup{r - 1}")

    inst = Instrumentation(Tracer()) if args.trace else None
    records = measure(wl, args.seconds, inst)
    failed = sum(not r["ok"] for r in records)
    plain = [r for r in records if not r["traced"]]
    plain_ms = [r["ms"] for r in plain]
    tail_ms, tail_label = tail(plain_ms)
    details = {"args": vars(args), "env": environment(), "setup_s": setup_s,
               "ops": records, "op_tail_ms": tail_ms, "op_tail": tail_label}

    if args.trace:
        traced_ms = [r["ms"] for r in records if r["traced"]]
        tracer = inst.tracer
        layers = layer_metrics(tracer, inst.installed, len(traced_ms))
        overhead = statistics.median(traced_ms) - statistics.median(plain_ms)
        layers["bench.trace_overhead_ms"] = overhead
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        units["bench.trace_overhead_ms"] = "ms"
        metrics = {name: (layers[name], units[name])
                   for name in PER_LAYER if layers[name] is not None}
        details.update(layers=layers, spans=span_table(tracer, len(traced_ms)),
                       warnings=tracer.warnings)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "op_p50_ms": (statistics.median(plain_ms), "ms"),
            "pkts_per_s": (1000 * sum(r["pkts"] for r in plain) / sum(plain_ms), "pkt/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    env = details["env"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print(f"# python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"cpu {env['cpu']}")
    print(f"# setup runs (s): {', '.join(f'{s:.3f}' for s in setup_s)}")
    if args.trace:
        print(f"# {len(plain_ms)} untraced ops, p50 {statistics.median(plain_ms):.2f} ms; "
              f"{len(traced_ms)} traced ops, p50 {statistics.median(traced_ms):.2f} ms; "
              f"overhead {overhead:.2f} ms")
        print("# per traced op, all layers:")
        for name, unit, *_ in LAYER_METRICS:
            value = layers[name]
            print(f"  {name:26s} {'absent' if value is None else f'{value:.6g}'} {unit}")
        print("# spans per traced op: calls, total ms, self ms")
        for name, row in details["spans"].items():
            print(f"  {name:50s} {row['calls']:8.2f} {row['total_ms']:10.3f} "
                  f"{row['self_ms']:10.3f}")
    elif tail_ms is None:
        print(f"# op_tail_ms {tail_label}")
    else:
        print(f"# op_tail_ms {tail_ms:.6g} ms, the {tail_label}")
    print(f"# error_rate {failed / len(records):.6g} fraction "
          f"({failed} of {len(records)} ops failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        tracer.dump(out / f"{stem}-spans.jsonl")

    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("session", "day", "corpus"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "mini"), default="full")
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "botgate" / "__init__.py").is_file():
        print(f"error: no botgate package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import SetupError

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(args, work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
