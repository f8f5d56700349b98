"""Two-stage detection pipeline: session classification, verdict averaging,
the parallel per-device sweep and report assembly."""
from __future__ import annotations

import ipaddress
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .acf import PeriodicityParams, PeriodicityResult, Verdict, detect_periodicity, \
    encode, filter_cnc_candidates
from .classifiers import LABEL_MALICIOUS, TrainedModel
from .errors import ConfigError, DataError
from .features import BENIGN, MALICIOUS, extract_features
from .sessions import DeviceTrace, TrafficSession, sessionize, split_by_device
from .stats import BdcsParams, bdcs, period_detection_prob
from .trace import Trace


@dataclass
class PipelineConfig:
    session_secs: Optional[float] = None   # default: the model's training duration
    window: int = 5                        # verdict-averaging window
    periodicity: PeriodicityParams = field(default_factory=PeriodicityParams)
    bdcs: BdcsParams = field(default_factory=BdcsParams)
    trace_span_s: Optional[float] = None
    n_parallel_halves: int = 2


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
        return cls(**json.loads(text))


def classify_sessions(sessions: list[TrafficSession], model: TrainedModel) -> list[tuple[str, float]]:
    """One (verdict, confidence) per session, order-preserving."""
    if not sessions:
        return []
    X = np.array([extract_features(s).values() for s in sessions])
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


def _sorted_ips(ips) -> list[str]:
    return sorted(ips, key=lambda ip: int(ipaddress.IPv4Address(ip)))


def detect_iot_bots(device_traces: dict[str, DeviceTrace], params: PeriodicityParams,
                    duration: float, n_halves: int = 2) -> tuple[list[str], dict[str, PeriodicityResult]]:
    """Per-device periodicity sweep over IP-sorted devices.

    The sorted device list is chunked into ``n_halves`` parts processed
    concurrently; devices share no state, so the merged result is identical
    to a sequential sweep."""
    ips = _sorted_ips(device_traces)
    if not ips:
        return [], {}

    def sweep(chunk: list[str]) -> list[tuple[str, PeriodicityResult]]:
        return [(ip, detect_periodicity(device_traces[ip], params, duration)) for ip in chunk]

    n_halves = max(1, min(n_halves, len(ips)))
    bounds = np.linspace(0, len(ips), n_halves + 1).astype(int)
    chunks = [ips[bounds[i]:bounds[i + 1]] for i in range(n_halves)]
    results: dict[str, PeriodicityResult] = {}
    with ThreadPoolExecutor(max_workers=n_halves) as pool:
        for part in pool.map(sweep, chunks):
            results.update(part)
    infected = [ip for ip in ips if results[ip].verdict is Verdict.PERIOD_DETECTED]
    return infected, results


def run_pipeline(trace: Trace, model: TrainedModel,
                 config: Optional[PipelineConfig] = None) -> DetectionReport:
    """Stage 1 on session windows; stage 2 (device sweep + confidence score)
    only when the averaged stage-1 verdict is malicious."""
    config = config or PipelineConfig()
    session_secs = config.session_secs or model.session_secs
    sessions = sessionize(trace, session_secs, span_s=config.trace_span_s)
    classified = classify_sessions(sessions, model)
    verdicts = [v for v, _ in classified]

    # consecutive windows of size W; the trace is flagged when any window
    # averages malicious (the last, possibly shorter window uses what it has)
    w = max(1, config.window)
    window_verdicts = [
        averaged_verdict(verdicts[i:i + w]) for i in range(0, len(verdicts), w)
    ] if verdicts else []
    overall = MALICIOUS if MALICIOUS in window_verdicts else BENIGN

    report = DetectionReport(
        session_verdicts=[
            {"index": s.index, "verdict": v, "confidence": c}
            for s, (v, c) in zip(sessions, classified)
        ],
        averaged_verdict=overall,
        window=w,
        stage2_ran=False,
        infected_devices=[],
        device_diagnostics={},
        bdcs_score=None,
        stage1_false_positive=False,
    )
    if overall != MALICIOUS:
        return report

    report.stage2_ran = True
    analyzed = len(sessions) * session_secs
    devices = split_by_device(trace)
    infected, results = detect_iot_bots(devices, config.periodicity, analyzed,
                                        n_halves=config.n_parallel_halves)
    infected_probs = []
    for ip in _sorted_ips(devices):
        res = results[ip]
        diag = {
            "verdict": res.verdict.value,
            "peak_lags": [int(l) for l in res.peak_lags],
            "gap_variance": res.gap_variance,
            "n_candidates": res.n_candidates,
            "reason": res.reason,
        }
        arrivals = filter_cnc_candidates(devices[ip], config.periodicity.payload_cutoff_bytes)
        try:
            seq = encode(arrivals, config.periodicity.sample_t, analyzed)
            prob = period_detection_prob(seq.e, config.bdcs)
            diag.update(period_prob=prob.prob, q=prob.q, pvalue=prob.pvalue)
            if ip in infected:
                infected_probs.append(prob.prob)
        except (DataError, ConfigError):
            diag.update(period_prob=0.0, q=None, pvalue=None)
            if ip in infected:
                infected_probs.append(0.0)
        report.device_diagnostics[ip] = diag

    report.infected_devices = infected
    # confidence in the detections actually made; empty product stays 1.0
    report.bdcs_score = bdcs(infected_probs)
    report.stage1_false_positive = not infected
    return report
