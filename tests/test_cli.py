"""CLI surface: subcommand chains, exit codes, determinism."""
import builtins
import errno
import hashlib
import json
import shlex
import shutil
from pathlib import Path

import pytest

from botgate.baselines import walker_test
from botgate.cli import _parse_policy_argv, build_parser, main
from botgate.acf import encode
from botgate.pipeline import stage2_input
from botgate.policy import PolicyStore
from botgate.preprocess import K_BEST
from botgate.sessions import SESSION_SECS
from botgate.synth import gen_cnc_beacon
from botgate.trace import PacketTable, Trace, load_trace, parse_ip, save_trace

README = Path(__file__).resolve().parent.parent / "README.md"

N_BENIGN, N_MALICIOUS = 6, 6


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small simulate -> featurize -> train chain shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main(["simulate", "--out", str(corpus), "--seed", "0",
                 "--n-benign", str(N_BENIGN), "--n-malicious", str(N_MALICIOUS)]) == 0
    features = root / "features.csv"
    assert main(["featurize", "--corpus", str(corpus), "--out", str(features)]) == 0
    model = root / "model.json"
    assert main(["train", "--features", str(features), "--model", "forest",
                 "--seed", "0", "--cv-folds", "4", "--out", str(model)]) == 0
    return root


def test_simulate_writes_manifest(workspace):
    manifest = (workspace / "corpus" / "manifest.tsv").read_text().splitlines()
    assert manifest[0] == "index\tlabel\tfile\tingredients"
    assert len(manifest) == 1 + N_BENIGN + N_MALICIOUS
    assert manifest[1].split("\t")[1] == "BENIGN"
    assert manifest[-1].split("\t")[1] == "MALICIOUS"


def test_featurize_output(workspace):
    lines = (workspace / "features.csv").read_text().splitlines()
    assert len(lines) == 1 + N_BENIGN + N_MALICIOUS
    assert lines[0].startswith("n_uniq_syn_dst,") and lines[0].endswith(",label")


def test_evaluate(workspace, capsys):
    assert main(["evaluate", "--features", str(workspace / "features.csv"),
                 "--model-file", str(workspace / "model.json"),
                 "--traces", str(workspace / "corpus")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stage1"]["accuracy"] == 1.0
    assert out["stage2"]["n_malicious_traces"] == N_MALICIOUS
    assert out["stage2"]["DR"] == 1.0
    assert out["stage2"]["MDR"] == 0.0


def test_detect_and_policy_apply(workspace, capsys):
    trace = workspace / "corpus" / f"session_{N_BENIGN:05d}.trace"  # first malicious
    report = workspace / "report.json"
    assert main(["detect", "--trace", str(trace),
                 "--model-file", str(workspace / "model.json"),
                 "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["averaged_verdict"] == "MALICIOUS"
    assert doc["infected_devices"] == ["192.168.1.10"]
    capsys.readouterr()

    store = workspace / "policies.txt"
    assert main(["policy", "--store", str(store), "--create-policy", "quarantine"]) == 0
    assert main(["policy", "--store", str(store), "--add-action", "quarantine",
                 "--dev", "*", "--action", "BLOCK_ALL"]) == 0
    capsys.readouterr()
    assert main(["policy", "--store", str(store), "--apply", str(report)]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan == [{"device": "192.168.1.10", "action": "BLOCK_ALL",
                     "policy": "quarantine", "allowlist": []}]


def test_bdcs_and_baseline_commands(workspace, capsys):
    trace = workspace / "corpus" / f"session_{N_BENIGN:05d}.trace"
    assert main(["baseline", "--trace", str(trace)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["192.168.1.10"]["verdict"] in ("DETECTED", "NOT_DETECTED")
    assert out["192.168.1.10"]["threshold"] > 0


def test_baseline_tests_the_sequence_detect_encodes(workspace, capsys):
    # a 899.949 s capture: its one whole 900 s window is K = 90 bins of 10 s,
    # where the capture's own span would give 89
    trace = workspace / "corpus" / f"session_{N_BENIGN:05d}.trace"
    devices, span = stage2_input(load_trace(trace))
    assert main(["baseline", "--trace", str(trace)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(out) == sorted(devices)
    for ip, arrivals in devices.items():
        e = encode(arrivals, span)
        assert len(e) == 90
        walker = walker_test(e)
        assert (out[ip]["statistic"], out[ip]["verdict"]) == \
            (walker.statistic, walker.verdict.value), ip


def test_usage_exit_codes(capsys):
    assert main([]) == 1
    assert main(["--help"]) == 0
    assert main(["train"]) == 1  # missing required flags
    assert main(["policy", "--store", "/tmp/nonexistent-store.txt",
                 "--frobnicate", "x"]) == 1
    capsys.readouterr()


def test_data_error_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.trace"
    model = tmp_path / "model.json"
    model.write_text("{not json")
    assert main(["detect", "--trace", str(missing), "--model-file", str(model)]) == 2
    good_trace = tmp_path / "t.trace"
    good_trace.write_text("#trace v1 subnet=192.168.1.0/24 epoch=0\n")
    assert main(["detect", "--trace", str(good_trace), "--model-file", str(model)]) == 2
    capsys.readouterr()


GOOD_ROW = "1.000 192.168.1.10 8.8.8.8 40000 80 TCP 0x02 40 0\n"


@pytest.mark.parametrize("body", [
    b"nan 192.168.1.10 8.8.8.8 40000 80 TCP 0x02 40 0\n",
    b"inf 192.168.1.10 8.8.8.8 40000 80 TCP 0x02 40 0\n",
    b"2.000 192.168.1.10 8.8.8.\xe9 40000 80 TCP 0x02 40 0\n",
    b"2.000 192.168.1.10 8.8.8.8 40000 80 TCP 0x02 40\n"
    b"3.000 192.168.1.10 8.8.8.8 40000 80 TCP 0x02 40 0 0\n",
], ids=["nan", "inf", "non-ascii", "misaligned-rows"])
def test_malformed_trace_exits_2(workspace, tmp_path, capsys, body):
    trace = tmp_path / "bad.trace"
    trace.write_bytes(b"#trace v1 subnet=192.168.1.0/24 epoch=0\n" + GOOD_ROW.encode() + body)
    assert main(["detect", "--trace", str(trace),
                 "--model-file", str(workspace / "model.json")]) == 2
    assert f"data error: {trace} line 3:" in capsys.readouterr().err
    # featurize reads every trace of a manifest: the message says which one is bad
    (tmp_path / "manifest.tsv").write_text(
        "index\tlabel\tfile\tingredients\n0\tBENIGN\tbad.trace\t\n")
    assert main(["featurize", "--corpus", str(tmp_path), "--out", str(tmp_path / "f.csv")]) == 2
    assert f"data error: {trace} line 3:" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("#trace v10 subnet=192.168.1.0/24 epoch=0\n", " line 1: missing '#trace v1' header"),
    ("#trace v1subnet=192.168.1.0/24 epoch=0\n", " line 1: missing '#trace v1' header"),
    ("#trace v1 subnet=192.168.1.0/24 subnet=10.0.0.0/8 epoch=0\n",
     " line 1: repeated header key 'subnet'"),
    ("#trace v1 subnet=192.168.1.0/24 epoch=0 epoch=5\n", " line 1: repeated header key 'epoch'"),
    ("", ": empty input: missing header"),
    ("#trace v1 subnet=192.168.1.0/33 epoch=0\n", ": invalid internal subnet '192.168.1.0/33'"),
], ids=["version-10", "no-space", "repeated-subnet", "repeated-epoch", "empty", "bad-subnet"])
def test_bad_trace_header_exits_2_naming_the_file(tmp_path, capsys, text, message):
    trace = tmp_path / "bad.trace"
    trace.write_text(text)
    assert main(["baseline", "--trace", str(trace)]) == 2
    assert f"data error: {trace}{message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["baseline"])
def test_too_many_bins_exits_2(tmp_path, capsys, command):
    # one packet at ts=1e12 would need 1e11 bins of 10 s; baseline cuts the
    # capture into 900 s windows as detect does, so it is refused at the
    # window count before any bins are made
    trace = tmp_path / "far.trace"
    trace.write_text("#trace v1 subnet=192.168.1.0/24 epoch=0\n"
                     "1000000000000.000 192.168.1.10 8.8.8.8 5000 53 UDP 0x00 32 4\n")
    assert main([command, "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert f"span 1000000000000.0 s in windows of {SESSION_SECS} s" in err
    assert "MAX_SESSIONS = 32768" in err


def test_simulate_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["simulate", "--out", str(tmp_path / sub), "--seed", "9",
                     "--n-benign", "2", "--n-malicious", "2"]) == 0
    for name in ["manifest.tsv"] + [f"session_{i:05d}.trace" for i in range(4)]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# The stage-2 design values are constants of acf, stats, pipeline and
# baselines, stage 1 selects preprocess.K_BEST features, and every command
# cuts the one session window, SESSION_SECS; each command's required flags,
# then the flags it does not take.
REMOVED_FLAGS = {
    "evaluate": (["--features", "f.csv", "--model-file", "m.json"],
                 ["--sample-t", "--peak-frac", "--gap-var", "--payload-cutoff",
                  "--session-secs"]),
    "detect": (["--trace", "t.trace", "--model-file", "m.json"],
               ["--sample-t", "--peak-frac", "--gap-var", "--payload-cutoff",
                "--window", "--alpha", "--lags", "--session-secs"]),
    "baseline": (["--trace", "t.trace"], ["--gamma", "--sample-t", "--payload-cutoff"]),
    "simulate": (["--out", "c"], ["--session-secs"]),
    "featurize": (["--corpus", "c", "--out", "f.csv"], ["--session-secs"]),
    "train": (["--features", "f.csv", "--out", "m.json"], ["--session-secs", "--k-best"]),
    "run-pipeline": (["--workdir", "w"], ["--session-secs", "--k-best"]),
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, flags) in REMOVED_FLAGS.items() for flag in flags])
def test_stage2_design_value_flag_exits_1(capsys, command, flag):
    assert main([command, *REMOVED_FLAGS[command][0], flag, "1"]) == 1
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


# A packet at 1399500 s ends the 1555th 900 s window: 1399500 s at 10 s bins
# is 139950 bins, more than 131072
FAR_ROW = "1399500.000 192.168.1.10 8.8.8.8 5000 53 UDP 0x00 32 4\n"
FAR_BINS = "duration 1399500.0 s at sampling interval 10.0 s needs more than 131072 bins"


def test_analyzed_span_beyond_bin_bound_exits_2(workspace, tmp_path, capsys):
    # three malicious windows in the first five make stage 2 run; the far
    # packet's span is refused once, before the sweep
    text = (workspace / "corpus" / f"session_{N_BENIGN:05d}.trace").read_text()
    header, rows = text.split("\n", 1)
    shifted = [f"{float(ts) + k * 900:.3f} {rest}\n" for k in range(3)
               for ts, rest in (row.split(" ", 1) for row in rows.splitlines())]
    trace = tmp_path / "t.trace"
    trace.write_text(header + "\n" + "".join(shifted) + FAR_ROW)
    assert main(["detect", "--trace", str(trace),
                 "--model-file", str(workspace / "model.json")]) == 2
    assert FAR_BINS in capsys.readouterr().err


@pytest.mark.parametrize("ts, message", [
    ("1000000000000.000", "span 1000000000000.0 s in windows of 900.0 s"),
    # 32769 whole windows, one more than MAX_SESSIONS
    ("29492100.000", "span 29492100.0 s in windows of 900.0 s"),
], ids=["far-packet", "one-window-past-bound"])
def test_session_count_bound_exits_2(workspace, tmp_path, capsys, ts, message):
    trace = tmp_path / "t.trace"
    trace.write_text("#trace v1 subnet=192.168.1.0/24 epoch=0\n"
                     "900.000 192.168.1.10 8.8.8.8 5000 53 UDP 0x00 32 4\n"
                     f"{ts} 192.168.1.10 8.8.8.8 5000 53 UDP 0x00 32 4\n")
    assert main(["detect", "--trace", str(trace),
                 "--model-file", str(workspace / "model.json")]) == 2
    err = capsys.readouterr().err
    assert message in err and "MAX_SESSIONS = 32768" in err


@pytest.mark.parametrize("row, message", [
    ("0\tBENIGN\tsession_00000.trace", "line 3: expected 4 tab-separated fields, got 3"),
    ("x\tBENIGN\tsession_00000.trace\t", "line 3: bad index 'x'"),
    ("1\tWHATEVER\tsession_00001.trace\t", "line 3: bad label 'WHATEVER'"),
], ids=["short-row", "bad-index", "unknown-label"])
def test_malformed_manifest_row_exits_2(workspace, tmp_path, capsys, row, message):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    lines = (workspace / "corpus" / "manifest.tsv").read_text().splitlines()
    (corpus / "manifest.tsv").write_text("\n".join(lines[:2] + [row] + lines[3:]) + "\n")
    manifest = corpus / "manifest.tsv"
    assert main(["featurize", "--corpus", str(corpus), "--out", str(tmp_path / "f.csv")]) == 2
    assert f"{manifest} {message}" in capsys.readouterr().err
    assert main(["evaluate", "--features", str(workspace / "features.csv"),
                 "--model-file", str(workspace / "model.json"), "--traces", str(corpus)]) == 2
    assert f"{manifest} {message}" in capsys.readouterr().err


def test_evaluate_stage2_beyond_bin_bound_exits_2(workspace, tmp_path, capsys):
    # the same bound detect refuses, on a malicious corpus trace with a far packet
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    name = f"session_{N_BENIGN:05d}.trace"
    (corpus / name).write_text((workspace / "corpus" / name).read_text() + FAR_ROW)
    manifest = (workspace / "corpus" / "manifest.tsv").read_text().splitlines()
    (corpus / "manifest.tsv").write_text(f"{manifest[0]}\n{manifest[1 + N_BENIGN]}\n")
    assert main(["evaluate", "--features", str(workspace / "features.csv"),
                 "--model-file", str(workspace / "model.json"), "--traces", str(corpus)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert FAR_BINS in captured.err


def test_evaluate_foreign_feature_header_exits_2(workspace, tmp_path, capsys):
    features = tmp_path / "features.csv"
    features.write_text("a,b,c\n1,2,3\n")
    assert main(["evaluate", "--features", str(features),
                 "--model-file", str(workspace / "model.json")]) == 2
    assert f"data error: {features}: unexpected feature CSV header" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("{not json", "Expecting property name"),
    ('{"foo": 1}', "expected a JSON object with the keys"),
    ("[1, 2]", "expected a JSON object with the keys"),
], ids=["not-json", "unknown-keys", "not-an-object"])
def test_policy_apply_bad_report_exits_2(tmp_path, capsys, text, message):
    report = tmp_path / "report.json"
    report.write_text(text)
    assert main(["policy", "--store", str(tmp_path / "store.txt"), "--apply", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"data error: bad detection report {report}: {message}" in err


def test_policy_apply_bad_infected_list_and_name_map_exit_2(workspace, tmp_path, capsys):
    trace = workspace / "corpus" / f"session_{N_BENIGN:05d}.trace"
    report = tmp_path / "report.json"
    assert main(["detect", "--trace", str(trace), "--model-file",
                 str(workspace / "model.json"), "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    store = ["policy", "--store", str(tmp_path / "store.txt")]
    name_map = tmp_path / "names.json"
    for bad in ("not json", '["cam"]', '{"cam": ["192.168.1.10"]}'):
        name_map.write_text(bad)
        assert main(store + ["--apply", str(report), "--name-map", str(name_map)]) == 2
        assert f"bad name map {name_map}" in capsys.readouterr().err
    doc["infected_devices"] = 5
    report.write_text(json.dumps(doc))
    assert main(store + ["--apply", str(report)]) == 2
    assert "infected_devices must be a list of strings" in capsys.readouterr().err


def _first_split(doc):
    """The first tree's deepest split down its left branches."""
    node = doc["params"]["trees"][0]
    while "leaf" not in node["l"]:
        node = node["l"]
    return node


def test_detect_model_with_unknown_feature_exits_2(workspace, tmp_path, capsys):
    doc = json.loads((workspace / "model.json").read_text())
    _first_split(doc)["f"] = 99
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    trace = workspace / "corpus" / f"session_{N_BENIGN:05d}.trace"
    assert main(["detect", "--trace", str(trace), "--model-file", str(model)]) == 2
    assert f"model file {model}: a tree splits on feature 99 of 6" in capsys.readouterr().err


@pytest.fixture(scope="module")
def gnb_model(workspace):
    model = workspace / "gnb.json"
    assert main(["train", "--features", str(workspace / "features.csv"), "--model", "gnb",
                 "--cv-folds", "4", "--out", str(model)]) == 0
    return model


# values save_model cannot write: indices, labels, n_features and the seed are
# JSON integers, the selected features distinct, and every other number an int
# or a float
@pytest.mark.parametrize("kind, edit, message", [
    ("forest", lambda d: d.update(selected="012345"), "selected feature: '0' is not an integer"),
    ("forest", lambda d: d.update(selected=[1.5, 2, 3, 4, 5, 6]),
     "selected feature: 1.5 is not an integer"),
    ("forest", lambda d: d.update(selected=[True, 1, 2, 3, 4, 5]),
     "selected feature: True is not an integer"),
    ("forest", lambda d: d.update(selected=[0] * 6),
     "selected features [0, 0, 0, 0, 0, 0] repeat a feature"),
    ("forest", lambda d: _first_split(d)["l"].update(leaf=True),
     "leaf label: True is not an integer"),
    ("forest", lambda d: _first_split(d)["l"].update(leaf="1"),
     "leaf label: '1' is not an integer"),
    ("forest", lambda d: _first_split(d).update(f=True),
     "a tree split feature: True is not an integer"),
    ("forest", lambda d: _first_split(d).update(t="0.5"),
     "a tree threshold: '0.5' is not a number"),
    ("forest", lambda d: d["params"].update(seed=1e300), "seed: 1e+300 is not an integer"),
    ("forest", lambda d: d["params"].update(n_features=6.0), "n_features: 6.0 is not an integer"),
    ("forest", lambda d: d.update(session_secs="900"), "session_secs: '900' is not a number"),
    ("forest", lambda d: d["scaler"]["mins"].__setitem__(0, "0"),
     "the scaler: '0' is not a number"),
    ("forest", lambda d: d["scaler"]["maxs"].__setitem__(7, True),
     "the scaler: True is not a number"),
    ("forest", lambda d: d["scaler"]["mins"].__setitem__(0, 10 ** 400),
     "int too large to convert to float"),
    ("gnb", lambda d: d["params"]["theta"][1].__setitem__(0, "0.5"),
     "the GNB parameters: '0.5' is not a number"),
    ("gnb", lambda d: d["params"]["priors"].__setitem__(0, False),
     "the GNB parameters: False is not a number"),
    ("gnb", lambda d: d["params"].update(var_smoothing="0.001"),
     "the GNB parameters: '0.001' is not a number"),
], ids=["selected-string", "selected-float", "selected-bool", "selected-repeated",
        "leaf-bool", "leaf-string", "feature-bool", "threshold-string", "seed-float",
        "n-features-float", "session-secs-string", "scaler-string", "scaler-bool",
        "scaler-huge-int", "gnb-string", "gnb-bool", "var-smoothing-string"])
def test_model_value_save_model_cannot_write_exits_2(workspace, gnb_model, tmp_path, capsys,
                                                     kind, edit, message):
    source = gnb_model if kind == "gnb" else workspace / "model.json"
    doc = json.loads(source.read_text())
    edit(doc)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    trace = workspace / "corpus" / f"session_{N_BENIGN:05d}.trace"
    assert main(["detect", "--trace", str(trace), "--model-file", str(model)]) == 2
    err = capsys.readouterr().err
    assert f"model file {model}: " in err and message in err


# A model's selection of its K_BEST features, put out of range by k: feature
# -1 first (numpy would read the last column), no feature at all, or feature 9
# of the 8 last
K_OUT_OF_RANGE = {
    -1: (lambda s: [-1, *s[1:]], "are not all below 8"),
    0: (lambda s: [], "forest has 6 features, 0 selected"),
    9: (lambda s: [*s[:-1], 9], "are not all below 8"),
}


def _with_selection_out_of_range(source, model, k):
    doc = json.loads(source.read_text())
    assert len(doc["selected"]) == K_BEST
    doc["selected"] = K_OUT_OF_RANGE[k][0](doc["selected"])
    model.write_text(json.dumps(doc))


@pytest.mark.parametrize("k", K_OUT_OF_RANGE)
def test_train_k_best_out_of_range_exits_2(workspace, tmp_path, capsys, k):
    model = tmp_path / "model.json"
    _with_selection_out_of_range(workspace / "model.json", model, k)
    assert main(["evaluate", "--features", str(workspace / "features.csv"),
                 "--model-file", str(model)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"model file {model}: " in err and K_OUT_OF_RANGE[k][1] in err


@pytest.fixture(scope="module")
def pipeline_workdir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("pipeline") / "w"
    assert main(["run-pipeline", "--workdir", str(workdir), "--seed", "0",
                 "--n-benign", "2", "--n-malicious", "3"]) == 0
    return workdir


@pytest.mark.parametrize("k", K_OUT_OF_RANGE)
def test_run_pipeline_k_best_out_of_range_exits_2(pipeline_workdir, tmp_path, capsys, k):
    model, report = tmp_path / "model.json", tmp_path / "report.json"
    _with_selection_out_of_range(pipeline_workdir / "model.json", model, k)
    trace = pipeline_workdir / "corpus" / "session_00002.trace"  # the first malicious
    assert main(["detect", "--trace", str(trace), "--model-file", str(model),
                 "--out", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"model file {model}: " in err and K_OUT_OF_RANGE[k][1] in err
    assert not report.exists()


def _run_pipeline_digest(workdir, *flags) -> str:
    """Every file a run-pipeline run writes, byte for byte, hashed as the
    benchmark's corpus op hashes its directory (sorted relative paths and bytes)."""
    assert main(["run-pipeline", "--workdir", str(workdir), *flags]) == 0
    h = hashlib.sha256()
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(workdir)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_run_pipeline_workdir_digest(tmp_path, capsys):
    # criterion 8's run
    assert _run_pipeline_digest(tmp_path / "w", "--seed", "0", "--n-benign", "6",
                                "--n-malicious", "6") == \
        "0e3d97a0105f83fa4ae601f2783a0e8062320ef1c8fa495cf711f8afacc008f5"
    capsys.readouterr()


def test_run_pipeline_gnb_workdir_digest(tmp_path, capsys):
    # the GNB model file carries the kind and var_smoothing bytes
    assert _run_pipeline_digest(tmp_path / "w", "--seed", "2", "--model", "gnb",
                                "--n-benign", "6", "--n-malicious", "6") == \
        "95a23c86e8caff8972b43d1567b35846cd553ba20c7930819b62af69dfe3c8f7"
    capsys.readouterr()


def test_stage2_outputs_digest(workspace, tmp_path, capsys):
    # the detect report, baseline and evaluate --traces bytes of the first
    # malicious capture (15 devices, 14 without a candidate) and of a copy with
    # a UDP beacon from a new device 192.168.1.9 to 192.168.1.104, so that each
    # beacon packet is a candidate of two devices
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace / "corpus", corpus)
    capture = corpus / f"session_{N_BENIGN:05d}.trace"
    trace = load_trace(capture)
    beacon = gen_cnc_beacon(60.0, 0.0, SESSION_SECS, [7], protocol="UDP",
                            device_ip="192.168.1.9")
    beacon.dst[:] = parse_ip("192.168.1.104")
    index = N_BENIGN + N_MALICIOUS
    both = corpus / f"session_{index:05d}.trace"
    save_trace(Trace(PacketTable.concat([trace.packets, beacon]), trace.internal_subnet), both)
    with open(corpus / "manifest.tsv", "a") as fh:
        fh.write(f"{index}\tMALICIOUS\t{both.name}\tcnc\n")
    model = str(workspace / "model.json")
    h = hashlib.sha256()
    for path in (capture, both):
        report = tmp_path / "report.json"
        assert main(["detect", "--trace", str(path), "--model-file", model,
                     "--out", str(report)]) == 0
        capsys.readouterr()
        assert main(["baseline", "--trace", str(path)]) == 0
        h.update(report.read_bytes() + b"\0" + capsys.readouterr().out.encode() + b"\0")
    assert json.loads(report.read_text())["infected_devices"] == [
        "192.168.1.9", "192.168.1.10", "192.168.1.104"]
    assert main(["evaluate", "--features", str(workspace / "features.csv"),
                 "--model-file", model, "--traces", str(corpus)]) == 0
    h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == "67cf812cfb988bf0c16834063c91db1a5f1d4abe3df85fa62f3b802e34adab27"


def test_policy_command_sequence_digest(tmp_path, capsys):
    # every exit code, message, store file and action plan of a fixed sequence
    # of policy commands, byte for byte
    store, report, names = tmp_path / "store.txt", tmp_path / "r.json", tmp_path / "names.json"
    report.write_text(json.dumps({
        "session_verdicts": [], "averaged_verdict": "MALICIOUS", "window": 1,
        "stage2_ran": True, "infected_devices": ["192.168.1.10", "192.168.1.11", "192.168.1.12"],
        "device_diagnostics": {}, "bdcs_score": None, "stage1_false_positive": False}))
    names.write_text('{"cam-2": "192.168.1.11"}')
    apply, mapped = ["--apply", str(report)], ["--apply", str(report), "--name-map", str(names)]
    commands = [
        ["--create-policy", "quarantine"],
        ["--add-action", "quarantine", "--dev", "cam-2", "--action",
         "RESTRICT_TO_SECURE_DOMAINS", "--allow", "vendor.example.com,ntp.org"],
        ["--add-action", "quarantine", "--dev", "*", "--action", "BLOCK_ALL"],
        ["--create-policy", "soft"],
        ["--add-action", "soft", "--dev", "192.168.1.10", "--action", "MONITOR_ONLY"],
        ["--add-action", "soft", "--dev", "192.168.1.12", "--action", "BLOCK_ALL"],
        ["--create-policy", "soft"],
        ["--add-action", "ghost", "--dev", "x", "--action", "BLOCK_ALL"],
        ["--delete-action", "soft", "--dev", "192.168.1.10", "--action", "BLOCK_ALL"],
        apply, mapped,
        ["--delete-action", "soft", "--dev", "192.168.1.12", "--action", "BLOCK_ALL"],
        ["--delete-policy", "quarantine"],
        apply, mapped,
    ]
    h, codes = hashlib.sha256(), []
    for command in commands:
        code, out, err = _run(["policy", "--store", str(store), *command], capsys)
        codes.append(code)
        h.update(f"{code}\0{out}\0{err}\0".encode() + store.read_bytes() + b"\0")
    assert codes == [0] * 6 + [1] * 3 + [0] * 6
    assert h.hexdigest() == "fde0e238ce10bdb4ab4c13d16b1c8c72dd69a871a2dfbf63c2fe9a27e17bda3e"


@pytest.mark.parametrize("flags, message", [
    (["--n-malicious", "0"], "corpus has no malicious sessions to detect on"),
    (["--n-benign", "2", "--n-malicious", "2"], "need at least 5 rows for 5-fold CV"),
    (["--model", "gnb", "--n-benign", "0"], "GNB needs samples from both classes"),
    # both classes, but one CV fold's training part holds only malicious rows
    (["--model", "gnb", "--n-benign", "1", "--n-malicious", "4"],
     "GNB needs samples from both classes"),
], ids=["no-malicious", "four-sessions", "gnb-one-class", "gnb-fold-one-class"])
def test_run_pipeline_refuses_counts_before_writing(tmp_path, capsys, flags, message):
    workdir = tmp_path / "w"
    assert main(["run-pipeline", "--workdir", str(workdir), *flags]) == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert not workdir.exists()


@pytest.mark.parametrize("body, message", [
    ("", ": no feature rows"),
    ("3,2,1,1.5,0,60,40,50.0,\n", " line 2: bad label ''"),
    ("3,2,1,1.5,0.5,60,40,50.0,BENIGN\n",
     " line 2: column n_half_open: count '0.5' is not a whole number"),
], ids=["no-rows", "unlabeled-row", "fractional-count"])
def test_train_and_evaluate_refuse_csv_without_labeled_rows(workspace, tmp_path, capsys,
                                                           body, message):
    features = tmp_path / "features.csv"
    features.write_text((workspace / "features.csv").read_text().splitlines()[0] + "\n" + body)
    model = tmp_path / "model.json"
    assert main(["train", "--features", str(features), "--out", str(model)]) == 2
    assert f"data error: {features}{message}" in capsys.readouterr().err
    assert not model.exists()
    assert main(["evaluate", "--features", str(features),
                 "--model-file", str(workspace / "model.json")]) == 2
    assert f"data error: {features}{message}" in capsys.readouterr().err


def test_simulate_nan_jitter_exits_2(tmp_path, capsys):
    out = tmp_path / "c"
    assert main(["simulate", "--out", str(out), "--n-benign", "1", "--n-malicious", "1",
                 "--jitter", "nan"]) == 2
    assert "beacon jitter nan must be in [0, period/4)" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_jitter_is_bounded_by_the_fast_period(tmp_path, capsys):
    out = tmp_path / "c"
    argv = ["simulate", "--out", str(out), "--n-benign", "1", "--n-malicious", "1"]
    for jitter in ("15", "20"):
        assert main([*argv, "--jitter", jitter]) == 2
        assert f"beacon jitter {float(jitter)} must be in [0, period/4)" in \
            capsys.readouterr().err
        assert not out.exists()
    assert main([*argv, "--jitter", "14.9"]) == 0  # below PERIOD_FAST / 4


@pytest.mark.parametrize("command", [
    ["--create-policy", "my policy"], ["--create-policy", ""],
    ["--add-action", "q", "--dev", "my cam", "--action", "BLOCK_ALL"],
    ["--add-action", "q", "--dev", "cam", "--action", "RESTRICT_TO_SECURE_DOMAINS",
     "--allow", "a.com,,b.com"],
    ["--create-policy", "caf\udce9"],
], ids=["spaced-name", "empty-name", "spaced-device", "empty-allow-entry", "undecodable-name"])
def test_policy_token_the_store_cannot_hold_exits_1(tmp_path, capsys, command):
    store = tmp_path / "store.txt"
    assert main(["policy", "--store", str(store), "--create-policy", "q"]) == 0
    before = store.read_bytes()
    assert main(["policy", "--store", str(store)] + command) == 1
    assert "is empty or contains whitespace or non-UTF-8" in capsys.readouterr().err
    assert store.read_bytes() == before
    assert main(["policy", "--store", str(store), "--create-policy", "other"]) == 0


def test_policy_apply_with_a_command_exits_1(workspace, tmp_path, capsys):
    store, report = tmp_path / "store.txt", tmp_path / "report.json"
    assert main(["policy", "--store", str(store), "--create-policy", "q"]) == 0
    assert main(["detect", "--trace", str(workspace / "corpus" / f"session_{N_BENIGN:05d}.trace"),
                 "--model-file", str(workspace / "model.json"), "--out", str(report)]) == 0
    before = store.read_bytes()
    capsys.readouterr()
    assert main(["policy", "--store", str(store), "--apply", str(report),
                 "--create-policy", "Q"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: --apply takes no policy command, got --create-policy Q" in captured.err
    assert store.read_bytes() == before


def test_policy_name_map_without_apply_exits_1(tmp_path, capsys):
    store = tmp_path / "store.txt"
    store.write_text("not a policy store\n")  # refused before the store is read
    assert main(["policy", "--store", str(store), "--name-map", str(tmp_path / "names.json"),
                 "--create-policy", "q2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error: --name-map needs --apply" in captured.err
    assert store.read_text() == "not a policy store\n"


@pytest.mark.parametrize("flag", ["--store", "--apply", "--name-map"])
def test_policy_repeated_flag_exits_1(tmp_path, capsys, flag):
    paths = [tmp_path / name for name in ("store.txt", "a", "b")]
    argv = ["policy", "--store", str(paths[0]), flag, str(paths[1]), flag, str(paths[2])]
    if flag != "--apply":
        argv += ["--create-policy", "q"]
    assert main(argv) == 1
    assert f"usage error: duplicate flag {flag}" in capsys.readouterr().err
    assert not any(p.exists() for p in paths)


def test_policy_engine_prefix_exits_1(tmp_path, capsys):
    store = tmp_path / "store.txt"
    assert main(["policy", "--store", str(store), "policy-engine", "--create-policy", "q"]) == 1
    assert "usage error: token 1: unknown verb 'policy-engine'" in capsys.readouterr().err
    assert not store.exists()


@pytest.mark.parametrize("command, token", [
    (["--add-action", "P", "--dev", "x", "--action", "NOPE"], 6),
    (["--add-action", "P", "--action", "NOPE", "--dev", "x"], 4),
    (["--delete-action", "P", "--dev", "--action", "--action", "NOPE"], 6),
], ids=["add-action", "action-first", "action-as-device"])
def test_policy_unknown_action_names_its_token(tmp_path, capsys, command, token):
    store = tmp_path / "store.txt"
    assert main(["policy", "--store", str(store), *command]) == 1
    assert f"usage error: token {token}: unknown action 'NOPE'" in capsys.readouterr().err
    assert not store.exists()


@pytest.mark.parametrize("command, out_flag", [
    ("simulate", "--out"), ("run-pipeline", "--workdir"),
], ids=["simulate", "run-pipeline"])
@pytest.mark.parametrize("flag", ["--n-benign", "--n-malicious"])
def test_negative_session_count_exits_1(tmp_path, capsys, command, out_flag, flag):
    out = tmp_path / "out"
    argv = [command, out_flag, str(out), "--n-benign", "2", "--n-malicious", "2", flag, "-3"]
    assert main(argv) == 1
    assert f"argument {flag}: expected a non-negative integer, got '-3'" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, out_flag", [
    ("simulate", "--out"), ("train", "--out"), ("run-pipeline", "--workdir"),
], ids=["simulate", "train", "run-pipeline"])
def test_negative_seed_exits_1(tmp_path, capsys, command, out_flag):
    out = tmp_path / "out"
    argv = [command, out_flag, str(out), "--seed", "-1"]
    if command == "train":
        argv += ["--features", str(tmp_path / "features.csv")]
    assert main(argv) == 1
    assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body, message", [
    (b"policy p\nbind p 192.168.1.\xff BLOCK_ALL\n", "line 3: not UTF-8 text"),
    (b"policy p\nfrobnicate\n", "line 3: unparseable store record 'frobnicate'"),
    (b"policy p\npolicy p\n", "line 3: policy 'p' already exists"),
    (b"policy p\nbind q 192.168.1.10 BLOCK_ALL\n", "line 3: no such policy 'q'"),
    (b"policy p\nbind p 192.168.1.10 BLOCK_ALL a.com\n",
     "line 3: allowlist only valid with RESTRICT_TO_SECURE_DOMAINS"),
    (b"policy p\nbind p 192.168.1.10 EXPLODE\n", "line 3: token 4: unknown action 'EXPLODE'"),
], ids=["non-utf8", "unparseable", "duplicate-policy", "unknown-policy", "bad-binding",
        "unknown-action"])
def test_bad_policy_store_exits_2(tmp_path, capsys, body, message):
    store = tmp_path / "store.txt"
    store.write_bytes(b"#policies v1\n" + body)
    assert main(["policy", "--store", str(store), "--create-policy", "other"]) == 2
    assert f"data error: policy store {store} {message}" in capsys.readouterr().err
    assert store.read_bytes() == b"#policies v1\n" + body


class _FailingWrite:
    """A text file whose write stores half of the text, then fails as a full
    disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:len(text) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("command", ["policy", "train"])
def test_failed_write_keeps_the_old_file(workspace, tmp_path, capsys, monkeypatch, command):
    target = tmp_path / "target"
    argv = {
        "policy": ["policy", "--store", str(target), "--create-policy", "other"],
        "train": ["train", "--features", str(workspace / "features.csv"), "--cv-folds", "4",
                  "--out", str(target)],
    }[command]
    if command == "policy":
        assert main(["policy", "--store", str(target), "--create-policy", "q"]) == 0
    else:
        target.write_bytes((workspace / "model.json").read_bytes())
    before = target.read_bytes()
    real_open = builtins.open

    def open_failing_writes(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FailingWrite(fh) if "w" in mode else fh

    monkeypatch.setattr(builtins, "open", open_failing_writes)
    assert main(argv) == 2
    monkeypatch.undo()
    assert "i/o error: [Errno 28] No space left on device" in capsys.readouterr().err
    assert target.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [target]  # no temporary file is left


def _run(argv, capsys) -> tuple[int, str, str]:
    code = main(argv)
    return (code, *capsys.readouterr())


def test_parser_reuse_in_one_process(workspace, tmp_path, capsys):
    """The gateway loop calls main again and again in one process: each call
    gives what it gives on a freshly built parser, the parser is built once,
    and policy calls never build it."""
    detect = ["detect", "--trace", str(workspace / "corpus" / f"session_{N_BENIGN:05d}.trace"),
              "--model-file", str(workspace / "model.json"), "--out", str(tmp_path / "r.json")]
    calls = [[*detect, "--no-such-flag"], ["--version"], ["detect", "-h"], detect,
             ["policy", "--store", str(tmp_path / "store.txt"), "--apply",
              str(tmp_path / "r.json")], detect]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_run(argv, capsys))
        if argv[0] == "policy":
            assert build_parser.cache_info().currsize == 0
    build_parser.cache_clear()
    assert [_run(argv, capsys) for argv in calls] == fresh
    assert build_parser.cache_info().misses == 1
    assert [code for code, _, _ in fresh] == [1, 0, 0, 0, 0, 0]
    assert fresh[1][1] == "botgate 0.1.0\n" and fresh[2][1].startswith("usage: botgate detect")
    assert "unrecognized arguments: --no-such-flag" in fresh[0][2]


def test_readme_cli_lines_parse():
    """Every ``botgate ...`` line of README's CLI block parses, its policy
    commands apply in turn to a fresh store, and the block shows exactly the
    parser's subcommands."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines()
             if line.startswith("botgate ")]
    store = PolicyStore()
    for argv in lines:
        if argv[0] == "policy":
            args = _parse_policy_argv(argv[1:])
            if not args.apply:
                store.apply_command(args.command)
        else:
            build_parser().parse_args(argv)
    commands = next(a.choices for a in build_parser()._actions if a.dest == "command_name")
    assert {argv[0] for argv in lines} == set(commands)


# Every option of the botgate command and of each subcommand. Each one is a
# value that tests and benchmarks must cover; a new flag edits this table.
CLI_OPTIONS = {
    "botgate": ["--version"],
    "simulate": ["--out", "--seed", "--n-benign", "--n-malicious", "--jitter"],
    "featurize": ["--corpus", "--out"],
    "train": ["--features", "--model", "--seed", "--cv-folds", "--out"],
    "evaluate": ["--features", "--model-file", "--traces"],
    "detect": ["--trace", "--model-file", "--out"],
    "baseline": ["--trace"],
    "policy": ["--store", "--apply", "--name-map"],
    "run-pipeline": ["--workdir", "--seed", "--n-benign", "--n-malicious", "--model"],
}


def test_cli_options_are_pinned():
    def options(parser):
        return [s for a in parser._actions if a.dest != "help" for s in a.option_strings]

    parser = build_parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command_name")
    assert {"botgate": options(parser),
            **{name: options(p) for name, p in commands.items()}} == CLI_OPTIONS
