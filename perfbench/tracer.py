"""Span recording for the traced benchmark run.

The tracer wraps, in the benchmark process only, every public botgate
function that ``botgate.cli`` and ``botgate.pipeline`` resolve from their
module namespaces, plus ``TrainedModel.predict_with_confidence``. Each call
records a span (name, start, end, parent, op id) in memory; counters that
need the call's arguments or result are taken after the span closes, inside
a ``bench.count`` child span, so they stay out of the caller's self time.
Nothing under ``src/`` changes.
"""
from __future__ import annotations

import inspect
import json
import sys
import threading
import time
from functools import wraps

SPAN_FIELDS = ("name", "start", "end", "parent", "op", "counts")


def _n_packets(trace) -> int:
    return len(trace.packets)


def _unique_ips(trace) -> int:
    ips = {p.src_ip for p in trace.packets}
    ips.update(p.dst_ip for p in trace.packets)
    return len(ips)


def _sweep_counts(result) -> dict:
    """Command-channel candidates and how many swept devices reached the
    ACF peak test, read from the per-device results that also fill the
    report's ``device_diagnostics``."""
    _, per_device = result
    reached = sum(
        1 for r in per_device.values()
        # find_peaks ran: a gap variance, or a "only N qualifying peaks" reason
        if r.gap_variance is not None or "qualifying peaks" in r.reason
    )
    return {"candidates": sum(r.n_candidates for r in per_device.values()),
            "swept": len(per_device), "reached": reached}


# span name -> counter(args, result) -> {count name: value}
COUNTERS = {
    "trace.load_trace": lambda a, r: {"pkts": _n_packets(r)},
    "trace.save_trace": lambda a, r: {"pkts": _n_packets(a[0])},
    "synth.gen_dataset": lambda a, r: {"pkts": _n_packets(r.trace)},
    "sessions.sessionize": lambda a, r: {"sessions": len(r)},
    "sessions.split_by_device": lambda a, r: {"unique_ips": _unique_ips(a[0]),
                                              "devices": len(r)},
    "features.extract_features": lambda a, r: {"rows": 1, "pkts": _n_packets(a[0])},
    "pipeline.detect_iot_bots": lambda a, r: _sweep_counts(r),
}


class Tracer:
    """In-memory span recorder; safe to call from the stage-2 pool threads."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self.warnings: list[str] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    def begin(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # a pool worker's span belongs to the call that is waiting on it
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else None
            sid = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
            stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        t = time.perf_counter()
        with self._lock:
            self.spans[sid][2] = t
            self._stacks[threading.get_ident()].pop()

    def count(self, sid: int, name: str, args, result) -> None:
        counter = COUNTERS.get(name)
        if counter is None:
            return
        cid = self.begin("bench.count")
        try:
            self.spans[sid][5] = counter(args, result)
        except (AttributeError, TypeError, ValueError) as exc:
            self.warn(f"counter for {name} failed ({exc}); its counts are absent")
        finally:
            self.end(cid)

    def warn(self, msg: str) -> None:
        if msg not in self.warnings:
            self.warnings.append(msg)
            print(f"warning: {msg}", file=sys.stderr)

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            @wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per item drawn, so the consumer's work between
                # items is not charged to the generator
                it = fn(*args, **kwargs)
                while True:
                    sid = self.begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.end(sid)
                    self.count(sid, name, args, item)
                    yield item
            return gen_wrapper

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            self.count(sid, name, args, result)
            return result
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, span))) + "\n")


def _span_name(fn) -> str:
    return f"{fn.__module__.removeprefix('botgate.')}.{fn.__qualname__}"


class Instrumentation:
    """Installs and removes the wrappers; ``installed`` holds the span names
    that exist at this commit, so a layer whose functions a refactor removed
    shows as absent rather than as zero."""

    def __init__(self, tracer: Tracer):
        from botgate import classifiers, cli, pipeline

        self.tracer = tracer
        self._patches = []  # (owner, attribute, original, wrapped)
        for mod in (cli, pipeline):
            for attr, obj in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("botgate.")
                        or obj.__module__ == "botgate.cli"):
                    continue
                self._patches.append((mod, attr, obj, tracer.wrap(obj, _span_name(obj))))
        method = getattr(getattr(classifiers, "TrainedModel", None),
                         "predict_with_confidence", None)
        if method is None:
            tracer.warn("TrainedModel.predict_with_confidence is gone; "
                        "classifiers.predict_ms is absent")
        else:
            self._patches.append((classifiers.TrainedModel, "predict_with_confidence",
                                  method, tracer.wrap(method, _span_name(method))))
        self.installed = {_span_name(orig) for _, _, orig, _ in self._patches}
        self.installed.add("cli.main")

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)


# Per-layer metrics of the traced run: (name, unit, span names, statistic),
# where the statistic is "total" or "self" time in ms per traced op, a count
# key summed per traced op, or "analyzed_frac", a ratio over the whole run.
LAYER_METRICS = [
    ("trace.parse_ms", "ms", ("trace.load_trace",), "total"),
    ("trace.parse_pkts", "count", ("trace.load_trace",), "pkts"),
    ("trace.write_ms", "ms", ("trace.save_trace",), "total"),
    ("trace.write_pkts", "count", ("trace.save_trace",), "pkts"),
    ("synth.generate_ms", "ms", ("synth.gen_dataset",), "total"),
    ("synth.pkts", "count", ("synth.gen_dataset",), "pkts"),
    ("sessions.sessionize_ms", "ms", ("sessions.sessionize",), "total"),
    ("sessions.n_sessions", "count", ("sessions.sessionize",), "sessions"),
    ("sessions.split_ms", "ms", ("sessions.split_by_device",), "total"),
    ("sessions.unique_ips", "count", ("sessions.split_by_device",), "unique_ips"),
    ("features.extract_ms", "ms", ("features.extract_features",), "total"),
    ("features.rows", "count", ("features.extract_features",), "rows"),
    ("features.pkts", "count", ("features.extract_features",), "pkts"),
    ("classifiers.load_ms", "ms", ("classifiers.load_model",), "total"),
    ("classifiers.predict_ms", "ms",
     ("classifiers.TrainedModel.predict_with_confidence",), "total"),
    ("classifiers.fit_ms", "ms",
     ("classifiers.forest_fit", "classifiers.gnb_fit", "classifiers.cross_validate",
      "preprocess.scaler_fit", "preprocess.scaler_transform", "preprocess.chi2_scores",
      "preprocess.select_k_best"), "total"),
    ("acf.sweep_ms", "ms", ("pipeline.detect_iot_bots",), "total"),
    ("acf.candidates", "count", ("pipeline.detect_iot_bots",), "candidates"),
    ("acf.analyzed_frac", "fraction", ("pipeline.detect_iot_bots",), "analyzed_frac"),
    ("stats.confidence_ms", "ms", ("stats.period_detection_prob",), "total"),
    ("pipeline.run_ms", "ms", ("pipeline.run_pipeline",), "total"),
    ("pipeline.self_ms", "ms",
     ("pipeline.run_pipeline", "pipeline.classify_sessions", "pipeline.averaged_verdict"),
     "self"),
    ("policy.apply_ms", "ms", ("policy.apply_policies",), "total"),
    ("cli.self_ms", "ms", ("cli.main",), "self"),
]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children on pool threads may overlap each other)."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, t0, t1, *_rest) in enumerate(spans):
        covered, reach = 0.0, t0
        for c0, c1 in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(t1 - t0 - covered)
    return out


def layer_metrics(tracer: Tracer, installed: set[str], n_ops: int) -> dict:
    """Per-layer values per traced op; None marks a layer whose functions
    no longer exist or whose counter could not be read."""
    spans = tracer.spans
    selfs = self_times(spans)
    out = {}
    for metric, _unit, names, stat in LAYER_METRICS:
        if not installed.intersection(names):
            tracer.warn(f"{metric}: none of {', '.join(names)} exists; layer absent")
            out[metric] = None
            continue
        idx = [i for i, s in enumerate(spans) if s[0] in names]
        if stat in ("total", "self"):
            secs = sum(spans[i][2] - spans[i][1] if stat == "total" else selfs[i]
                       for i in idx)
            out[metric] = 1000.0 * secs / n_ops
            continue
        # a generator's last, empty draw has no counts; a failed counter warned
        counts = [spans[i][5] for i in idx if spans[i][5] is not None]
        if idx and not counts:
            out[metric] = None
        elif stat == "analyzed_frac":
            swept = sum(c["swept"] for c in counts)
            out[metric] = sum(c["reached"] for c in counts) / swept if swept else 0.0
        else:
            out[metric] = sum(c[stat] for c in counts) / n_ops
    return out


def span_table(tracer: Tracer, n_ops: int) -> dict:
    """Calls, total ms and self ms per traced op, by span name."""
    table: dict[str, list[float]] = {}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        row = table.setdefault(span[0], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span[2] - span[1]
        row[2] += own
    return {name: {"calls": calls / n_ops, "total_ms": 1000 * tot / n_ops,
                   "self_ms": 1000 * own / n_ops}
            for name, (calls, tot, own) in sorted(table.items())}
