"""Two-stage detection pipeline: session classification, verdict averaging,
the per-device stage-2 pass and report assembly."""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .acf import PeriodicityResult, Verdict, check_bins, detect_periodicity, encode
from .classifiers import LABEL_MALICIOUS, TrainedModel
from .errors import DataError
from .features import BENIGN, MALICIOUS, extract_features
from .sessions import SESSION_SECS, TrafficSession, sessionize, split_by_device, window_count
from .stats import bdcs, period_detection_prob
from .trace import Trace, _two_cpus

WINDOW = 5  # sessions per verdict-averaging window


@dataclass
class DetectionReport:
    session_verdicts: list[dict]
    averaged_verdict: str
    window: int
    stage2_ran: bool
    infected_devices: list[str]
    device_diagnostics: dict[str, dict]
    bdcs_score: Optional[float]
    stage1_false_positive: bool

    def to_text(self) -> str:
        """Stable, diffable serialization."""
        return json.dumps(self.__dict__, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "DetectionReport":
        """The report ``to_text`` wrote; ValueError for text that is not
        JSON, not an object with exactly the report's fields, or whose
        infected devices are not a list of strings."""
        doc = json.loads(text)
        names = [f.name for f in fields(cls)]
        if not isinstance(doc, dict) or sorted(doc) != sorted(names):
            raise ValueError(f"expected a JSON object with the keys {', '.join(names)}")
        devices = doc["infected_devices"]
        if not (isinstance(devices, list) and all(isinstance(ip, str) for ip in devices)):
            raise ValueError("infected_devices must be a list of strings")
        return cls(**doc)


def classify_sessions(sessions: list[TrafficSession], model: TrainedModel) -> list[tuple[str, float]]:
    """One (verdict, confidence) per session, order-preserving."""
    if not sessions:
        return []
    X = np.array([extract_features(s) for s in sessions])
    labels, conf = model.predict_with_confidence(X)
    return [
        (MALICIOUS if lab == LABEL_MALICIOUS else BENIGN, float(c))
        for lab, c in zip(labels, conf)
    ]


def averaged_verdict(verdict_window: list[str]) -> str:
    """Strict-majority vote over a window of verdicts; ties are benign."""
    if not verdict_window:
        raise DataError("cannot average an empty verdict window")
    n_mal = sum(1 for v in verdict_window if v == MALICIOUS)
    return MALICIOUS if 2 * n_mal > len(verdict_window) else BENIGN


def detect_iot_bots(devices: dict[str, np.ndarray],
                    duration: float) -> tuple[list[str], dict[str, PeriodicityResult]]:
    """Stage 2: one periodicity test per device's candidate arrival times, in
    the order given. No result keeps its sequence, so one is alive at a time."""
    results = {ip: detect_periodicity(arrivals, duration) for ip, arrivals in devices.items()}
    infected = [ip for ip, res in results.items() if res.verdict is Verdict.PERIOD_DETECTED]
    return infected, results


def stage2_input(trace: Trace) -> tuple[dict[str, np.ndarray], float]:
    """Stage 2's input on a whole trace: each device's candidate arrival times
    and the span to encode them over, the trace's whole session windows, the
    windows stage 1 classifies. Too many bins is wrong for every device alike,
    so the span is refused once, before the split."""
    span = window_count(trace) * SESSION_SECS
    check_bins(span)
    return split_by_device(trace), span


def _stage2(trace: Trace) -> tuple[list[str], dict[str, dict]]:
    """The device sweep and each device's confidence score: the infected
    devices and every device's diagnostics."""
    devices, span = stage2_input(trace)
    infected, results = detect_iot_bots(devices, span)
    diagnostics = {}
    for ip, res in results.items():
        prob = period_detection_prob(encode(devices[ip], span))
        diagnostics[ip] = {
            "verdict": res.verdict.value, "peak_lags": res.peak_lags,
            "gap_variance": res.gap_variance, "n_candidates": res.n_candidates,
            "reason": res.reason, "period_prob": prob.prob, "q": prob.q,
            "pvalue": prob.pvalue,
        }
    return infected, diagnostics


def run_pipeline(trace: Trace, model: TrainedModel) -> DetectionReport:
    """Stage 1 on the trace's session windows; stage 2 (device sweep + confidence
    score) only when the averaged stage-1 verdict is malicious. On two CPUs a first
    window that averages malicious starts it on a worker beside stage 1's later windows."""
    sessions = sessionize(trace)
    classified = classify_sessions(sessions[:WINDOW], model)
    early = None
    if (len(sessions) > WINDOW and averaged_verdict([v for v, _ in classified]) == MALICIOUS
            and _two_cpus()):
        # imported here as in trace.parse_trace; leaving the block joins the worker
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(1) as worker:
            early = worker.submit(_stage2, trace)
            classified += classify_sessions(sessions[WINDOW:], model)
    else:
        classified += classify_sessions(sessions[WINDOW:], model)
    verdicts = [v for v, _ in classified]
    # consecutive windows of WINDOW sessions; the trace is flagged when any window
    # averages malicious (the last, possibly shorter window uses what it has)
    stage2 = MALICIOUS in [averaged_verdict(verdicts[i:i + WINDOW])
                           for i in range(0, len(verdicts), WINDOW)]
    infected, diagnostics = (early.result() if early else _stage2(trace)) if stage2 else ([], {})
    return DetectionReport(
        session_verdicts=[{"index": s.index, "verdict": v, "confidence": c}
                          for s, (v, c) in zip(sessions, classified)],
        averaged_verdict=MALICIOUS if stage2 else BENIGN,
        window=WINDOW,
        stage2_ran=stage2,
        infected_devices=infected,
        device_diagnostics=diagnostics,
        # confidence in the detections actually made; empty product stays 1.0
        bdcs_score=bdcs([diagnostics[ip]["period_prob"] for ip in infected]) if stage2 else None,
        stage1_false_positive=stage2 and not infected,
    )
