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
from .trace import Trace

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


def run_pipeline(trace: Trace, model: TrainedModel) -> DetectionReport:
    """Stage 1 on the trace's session windows; stage 2 (device sweep +
    confidence score) only when the averaged stage-1 verdict is malicious."""
    sessions = sessionize(trace)
    classified = classify_sessions(sessions, model)
    verdicts = [v for v, _ in classified]

    # consecutive windows of WINDOW sessions; the trace is flagged when any window
    # averages malicious (the last, possibly shorter window uses what it has)
    window_verdicts = [
        averaged_verdict(verdicts[i:i + WINDOW]) for i in range(0, len(verdicts), WINDOW)
    ] if verdicts else []
    overall = MALICIOUS if MALICIOUS in window_verdicts else BENIGN

    report = DetectionReport(
        session_verdicts=[
            {"index": s.index, "verdict": v, "confidence": c}
            for s, (v, c) in zip(sessions, classified)
        ],
        averaged_verdict=overall,
        window=WINDOW,
        stage2_ran=False,
        infected_devices=[],
        device_diagnostics={},
        bdcs_score=None,
        stage1_false_positive=False,
    )
    if overall != MALICIOUS:
        return report

    report.stage2_ran = True
    devices, span = stage2_input(trace)
    infected, results = detect_iot_bots(devices, span)
    infected_probs = []
    for ip, res in results.items():
        diag = {
            "verdict": res.verdict.value,
            "peak_lags": [int(l) for l in res.peak_lags],
            "gap_variance": res.gap_variance,
            "n_candidates": res.n_candidates,
            "reason": res.reason,
        }
        prob = period_detection_prob(encode(devices[ip], span))
        diag.update(period_prob=prob.prob, q=prob.q, pvalue=prob.pvalue)
        if res.verdict is Verdict.PERIOD_DETECTED:
            infected_probs.append(prob.prob)
        report.device_diagnostics[ip] = diag

    report.infected_devices = infected
    # confidence in the detections actually made; empty product stays 1.0
    report.bdcs_score = bdcs(infected_probs)
    report.stage1_false_positive = not infected
    return report
