"""Two-stage pipeline: verdict averaging, the device sweep and reports."""
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import scalar_reference as ref
from botgate import pipeline
from botgate.acf import MAX_BINS, PAYLOAD_CUTOFF, SAMPLE_T, Verdict, encode
from botgate.classifiers import ForestModel, TrainedModel, forest_fit, save_model
from botgate.cli import main
from botgate.errors import ConfigError, DataError
from botgate.features import BENIGN, FEATURE_NAMES, MALICIOUS, extract_features
from botgate.pipeline import (
    DetectionReport, averaged_verdict, classify_sessions,
    detect_iot_bots, run_pipeline,
)
from botgate.preprocess import K_BEST, Dataset, MinMaxScaler, chi2_scores, scaler_fit, \
    scaler_transform, select_k_best
from botgate.sessions import SESSION_SECS, TrafficSession, split_by_device
from botgate.synth import (
    SynthConfig, gen_cnc_beacon, gen_dataset, gen_memoryless_noise, gen_scanning,
    gen_session,
)
from botgate.trace import PROTO_TCP, PROTO_UDP, SYN, PacketTable, Trace, parse_ip, save_trace

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


def _digest(report: DetectionReport) -> str:
    """The sha256 of the report's bytes, which pins every field and its form."""
    return hashlib.sha256(report.to_text().encode()).hexdigest()


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
    assert _digest(report) == "f8d832ef66e13f99f4301ae40bca09f60d37c27a60afd1e492df1d1b0878d491"


def test_run_pipeline_benign(model):
    rec = gen_session(CFG, 401, "benign")
    report = run_pipeline(rec.trace, model)
    assert report.averaged_verdict == BENIGN
    assert not report.stage2_ran
    assert report.infected_devices == []
    assert report.bdcs_score is None
    assert _digest(report) == "48acd452b337af2607f619fb4f32c3275d1697231f8608916a2ea26214f6483a"


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
    assert _digest(report) == "ed5012c489ed4c370991599616e90cf7059db80bf5b003e46c9279d62724106c"


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


# On two CPUs, a trace of more than WINDOW sessions whose first window averages
# malicious runs stage 2 on a worker thread while stage 1 classifies the later
# windows. These tests run the pipeline as on one CPU and on two
# (os.sched_getaffinity) and count the other threads that ran it.

def _one_tree(tree: dict) -> TrainedModel:
    """A one-tree forest over the raw features (``x[0]`` is n_uniq_syn_dst)."""
    n_features = len(FEATURE_NAMES)
    return TrainedModel(ForestModel([tree], K_BEST, 0),
                        MinMaxScaler(np.zeros(n_features), np.ones(n_features)),
                        list(range(K_BEST)))


FLAG_EVERY_WINDOW = _one_tree({"leaf": 1})
FLAG_NO_WINDOW = _one_tree({"leaf": 0})
FLAG_SYN_WINDOWS = _one_tree({"f": 0, "t": 0.5, "l": {"leaf": 0}, "r": {"leaf": 1}})


def _with_packets(trace: Trace, ts, flags=SYN) -> Trace:
    """``trace`` and one TCP packet from its first device at each of ``ts``."""
    extra = PacketTable.from_columns(np.asarray(ts, float), parse_ip("10.1.0.1"),
                                     parse_ip("8.8.4.4"), 40001, 23, PROTO_TCP, flags, 40, 0)
    return Trace(PacketTable.concat([trace.packets, extra]), trace.internal_subnet)


def run_on(cpus: int, trace: Trace, model: TrainedModel):
    """The report text of ``run_pipeline`` on ``cpus`` CPUs, or the message of
    the ConfigError it raised, and the number of threads other than this one
    that ran Python code during it. No thread outlives the call."""
    workers = set()

    def first_call(frame, event, arg):  # in each thread started during the call
        workers.add(threading.get_ident())
        sys.setprofile(None)

    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        threading.setprofile(first_call)
        try:
            result = run_pipeline(trace, model).to_text()
        except ConfigError as exc:
            result = str(exc)
        finally:
            threading.setprofile(None)
    assert threading.active_count() == before
    return result, len(workers)


# case: (trace, model, whether stage 1 flags the trace, a worker on two CPUs,
# the sha256 of the report, taken before stage 2 could start early)
OVERLAP_CASES = {
    "flagged": (_many_devices, FLAG_EVERY_WINDOW, True, True,
                "63e20b682834bf25011c21898fc1e27bb407316c9cab9fb5039f9c1b2b2376ff"),
    "benign": (_many_devices, FLAG_NO_WINDOW, False, False,
               "cb3f537ec272b24f144447cad62b94abaf3529456de56d301f005872bedff68d"),
    # windows 5-7 of the second averaging window hold a SYN each; the first five none
    "first-window-benign": (lambda: _with_packets(_many_devices(), [4510.0, 5410.0, 6310.0]),
                            FLAG_SYN_WINDOWS, True, False,
                            "0003157821f873ce279856fc2d5b7357bb7dee32472fe8a756d9c4afdda20cff"),
}


@pytest.mark.parametrize("case", OVERLAP_CASES)
def test_stage2_on_a_worker_gives_the_same_report(case):
    make, model, flagged, overlaps, digest = OVERLAP_CASES[case]
    trace = make()
    one, workers_one = run_on(1, trace, model)
    two, workers_two = run_on(2, trace, model)
    assert two == one
    assert hashlib.sha256(one.encode()).hexdigest() == digest
    report = json.loads(one)
    assert report["stage2_ran"] is flagged and len(report["session_verdicts"]) == 96
    assert (workers_one, workers_two) == (0, int(overlaps))


@pytest.mark.parametrize("cpus", [1, 2])
def test_stage2_span_error_is_the_same_on_a_worker(cpus):
    """A span beyond the bin bound is refused with one message, whether stage 2
    ran after stage 1 or on a worker beside it."""
    windows = math.ceil((MAX_BINS + 1) * SAMPLE_T / SESSION_SECS)
    trace = _with_packets(_many_devices(), [windows * SESSION_SECS], flags=0)
    message, workers = run_on(cpus, trace, FLAG_EVERY_WINDOW)
    assert message == (f"duration {windows * SESSION_SECS} s at sampling interval "
                       f"{SAMPLE_T} s needs more than {MAX_BINS} bins")
    assert workers == cpus - 1


def test_stage1_error_waits_for_stage2_on_the_worker(monkeypatch):
    """A stage-1 error on the later windows is raised only after the worker's
    stage 2 has finished, and leaves no thread behind."""
    stage2, classify, finished = pipeline._stage2, pipeline.classify_sessions, []

    def classify_or_fail(sessions, model):
        if sessions[0].index:  # the later windows: stage 2 is on the worker
            raise DataError("stage 1 failed")
        return classify(sessions, model)

    monkeypatch.setattr(pipeline, "_stage2", lambda trace: finished.append(stage2(trace)))
    monkeypatch.setattr(pipeline, "classify_sessions", classify_or_fail)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    before = threading.active_count()
    with pytest.raises(DataError, match="^stage 1 failed$"):
        run_pipeline(_many_devices(), FLAG_EVERY_WINDOW)
    assert len(finished) == 1
    assert threading.active_count() == before


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "1.26.0"  # show_config's mode
                    or "openblas" not in np.show_config(mode="dicts")["Build Dependencies"]
                    ["blas"]["name"], reason="forces OpenBLAS kernels")
def test_report_bytes_do_not_depend_on_the_blas_kernel(tmp_path, capsys):
    """OpenBLAS picks its dot-product kernel by CPU, and each kernel adds in its
    own order. The detect report and baseline output of the many-devices trace
    are the same bytes under each kernel, forced in a child, one child at a time."""
    trace, model = tmp_path / "many.trace", tmp_path / "model.json"
    save_trace(_many_devices(), trace)
    save_model(FLAG_EVERY_WINDOW, model)
    commands = [["detect", "--trace", str(trace), "--model-file", str(model)],
                ["baseline", "--trace", str(trace)]]
    for argv in commands:
        assert main(argv) == 0
    expected = capsys.readouterr().out
    child = "import json, sys\nfrom botgate.cli import main\n" \
            "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))"
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    for kernel in ("Haswell", "Sandybridge", "Nehalem"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": kernel}
        out = subprocess.run([sys.executable, "-c", child, json.dumps(commands)], env=env,
                             capture_output=True, text=True, check=True, timeout=120).stdout
        assert out == expected, kernel
