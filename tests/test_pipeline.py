"""Two-stage pipeline: verdict averaging, the device sweep and reports."""
import importlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import scalar_reference as ref
from botgate.acf import PAYLOAD_CUTOFF, SAMPLE_T, Verdict, encode
from botgate.classifiers import ForestModel, TrainedModel, forest_fit
from botgate.cli import main
from botgate.errors import DataError
from botgate.features import BENIGN, FEATURE_NAMES, MALICIOUS, extract_features
from botgate.pipeline import (
    DetectionReport, averaged_verdict, classify_sessions,
    detect_iot_bots, run_pipeline,
)
from botgate.preprocess import K_BEST, Dataset, MinMaxScaler, chi2_scores, scaler_fit, \
    scaler_transform, select_k_best
from botgate.sessions import TrafficSession, split_by_device
from botgate.synth import (
    SynthConfig, gen_cnc_beacon, gen_dataset, gen_memoryless_noise, gen_scanning,
    gen_session,
)
from botgate.trace import PROTO_UDP, PacketTable, Trace, parse_ip, save_trace

CFG = SynthConfig(seed=5)
N_DEVICES = 1000


@pytest.fixture(scope="module")
def model():
    rows, y = [], []
    for rec in gen_dataset(CFG, 16, 16):
        sess = TrafficSession(0, rec.trace.packets)
        rows.append(extract_features(sess))
        y.append(1 if rec.label == MALICIOUS else 0)
    X, y = np.array(rows), np.array(y)
    scaler = scaler_fit(X)
    Xs = scaler_transform(scaler, X)
    selected = select_k_best(chi2_scores(Xs, y))
    forest = forest_fit(Dataset(Xs[:, selected], y), seed=3)
    return TrainedModel(forest, scaler, selected)


def test_averaged_verdict():
    M, B = MALICIOUS, BENIGN
    assert averaged_verdict([M, M, B, M, B]) == M
    assert averaged_verdict([M, B, B, M, B]) == B
    assert averaged_verdict([M, B]) == B  # tie stays benign
    assert averaged_verdict([M]) == M
    with pytest.raises(DataError):
        averaged_verdict([])


def test_classify_sessions(model):
    mal = gen_session(CFG, 300, "fast").trace
    ben = gen_session(CFG, 301, "benign").trace
    sessions = [
        TrafficSession(0, mal.packets),
        TrafficSession(1, ben.packets),
    ]
    verdicts = classify_sessions(sessions, model)
    assert verdicts[0][0] == MALICIOUS and verdicts[0][1] > 0.5
    assert verdicts[1][0] == BENIGN and verdicts[1][1] <= 0.5
    assert classify_sessions([], model) == []


def test_detect_iot_bots_matches_scalar_reference():
    tables = {}
    for i in range(9):
        ip = f"192.168.1.{5 + i}"
        if i % 3 == 0:
            tables[ip] = gen_cnc_beacon(60.0, 0.0, 900.0, [1, i], device_ip=ip)
        else:
            tables[ip] = gen_memoryless_noise(1 / 30, 900.0, [2, i], device_ip=ip)
    trace = Trace(PacketTable.concat(list(tables.values())), "192.168.1.0/24")
    devices = split_by_device(trace)
    assert list(devices) == list(tables)  # numeric IP order
    infected, results = detect_iot_bots(devices, 900.0)
    assert infected == ["192.168.1.5", "192.168.1.8", "192.168.1.11"]
    assert list(results) == list(tables)
    for ip, packets in tables.items():
        res = results[ip]
        hit, peaks = ref.detect_periodicity(list(packets), 900.0)
        assert (res.verdict is Verdict.PERIOD_DETECTED, res.peak_lags) == (hit, peaks)
        assert "sequence" not in vars(res)  # the confidence score encodes again
        e = encode(devices[ip], 900.0)
        assert e.dtype == np.int8
        assert e.tolist() == ref.encode(
            ref.filter_cnc_candidates(list(packets), PAYLOAD_CUTOFF),
            SAMPLE_T, 900.0).tolist()
    assert detect_iot_bots({}, 900.0) == ([], {})


def test_run_pipeline_malicious(model):
    rec = gen_session(CFG, 400, "fast")
    report = run_pipeline(rec.trace, model)
    assert report.averaged_verdict == MALICIOUS
    assert report.stage2_ran
    assert report.infected_devices == ["192.168.1.10"]
    assert report.bdcs_score == 1.0
    assert not report.stage1_false_positive
    diag = report.device_diagnostics["192.168.1.10"]
    assert diag["verdict"] == "PERIOD_DETECTED"
    assert diag["gap_variance"] == 0.0
    assert diag["period_prob"] == 1.0


def test_run_pipeline_benign(model):
    rec = gen_session(CFG, 401, "benign")
    report = run_pipeline(rec.trace, model)
    assert report.averaged_verdict == BENIGN
    assert not report.stage2_ran
    assert report.infected_devices == []
    assert report.bdcs_score is None


def test_run_pipeline_scan_only_is_stage1_false_positive(model):
    base = gen_session(CFG, 402, "benign").trace
    trace = Trace(PacketTable.concat([base.packets,
                                      gen_scanning(CFG, [5, 402, 9], "192.168.1.10")]),
                  base.internal_subnet)
    report = run_pipeline(trace, model)
    assert report.averaged_verdict == MALICIOUS
    assert report.stage2_ran
    assert report.infected_devices == []
    assert report.stage1_false_positive
    assert report.bdcs_score == 1.0  # vacuous product: no detection was made


def test_report_round_trip(model):
    rec = gen_session(CFG, 403, "fast")
    report = run_pipeline(rec.trace, model)
    back = DetectionReport.from_text(report.to_text())
    assert back == report
    assert back.to_text() == report.to_text()


def test_benchmark_hooks_read_the_stage2_results(monkeypatch):
    """The benchmark's tracer finds a function for every layer it reports,
    and its device-split and sweep counters read what the library returns.
    The perfbench modules are imported, not changed."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    t = tracer.Tracer()
    installed = tracer.Instrumentation(t).installed
    assert [name for name, _unit, spans, _stat in tracer.LAYER_METRICS
            if not installed.intersection(spans)] == []

    trace = gen_session(CFG, 400, "fast").trace
    devices = t.wrap(split_by_device, "sessions.split_by_device")(trace)
    _, results = t.wrap(detect_iot_bots, "pipeline.detect_iot_bots")(devices, 900.0)
    assert t.warnings == []
    counts = {span[0]: span[5] for span in t.spans if span[0] != "bench.count"}
    packets = trace.packets
    expected = ref.split_by_device(list(packets), trace.internal_subnet)
    assert counts["sessions.split_by_device"] == {
        "unique_ips": len(np.union1d(packets.src, packets.dst)), "devices": len(expected)}
    sweep = counts["pipeline.detect_iot_bots"]
    assert sweep["swept"] == len(expected) == len(results)
    assert sweep["candidates"] == sum(len(ref.filter_cnc_candidates(rows, PAYLOAD_CUTOFF))
                                      for rows in expected.values())
    assert 1 <= sweep["reached"] <= sweep["swept"]


def _many_devices() -> Trace:
    """24 h (K = 8640 bins) in which each of N_DEVICES addresses in a /16
    sends two 4-byte UDP packets to one outside host."""
    dev = parse_ip("10.1.0.1") + np.arange(N_DEVICES)
    ts = np.concatenate((np.linspace(0.0, 43000.0, N_DEVICES),
                         np.linspace(43400.0, 86400.0, N_DEVICES)))
    packets = PacketTable.from_columns(ts, np.concatenate((dev, dev)), parse_ip("8.8.8.8"),
                                       40000, 53, PROTO_UDP, 0, 32, 4)
    return Trace(packets, "10.1.0.0/16")


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocated under tracemalloc."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# One K-byte sequence per device would hold N_DEVICES x 8640 bytes (8.6 MB) at
# once; a sequence alive only while its device is tested keeps stage 2 far below.

def test_baseline_memory_does_not_grow_with_devices(tmp_path, capsys):
    path = tmp_path / "many.trace"
    save_trace(_many_devices(), path)
    rc, peak = _traced_peak(main, ["baseline", "--trace", str(path)])
    assert rc == 0 and len(json.loads(capsys.readouterr().out)) == N_DEVICES
    assert peak < 4e6


def test_run_pipeline_memory_does_not_grow_with_devices():
    n_features = len(FEATURE_NAMES)
    flag_every_window = TrainedModel(ForestModel([{"leaf": 1}], K_BEST, 0),
                                     MinMaxScaler(np.zeros(n_features), np.ones(n_features)),
                                     list(range(K_BEST)))
    report, peak = _traced_peak(run_pipeline, _many_devices(), flag_every_window)
    assert report.stage2_ran and len(report.device_diagnostics) == N_DEVICES
    assert peak < 4e6
