"""CLI surface: subcommand chains, exit codes, determinism."""
import json

import pytest

from botgate.cli import main

N_BENIGN, N_MALICIOUS = 6, 6
SECS = "900"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small simulate -> featurize -> train chain shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main(["simulate", "--out", str(corpus), "--seed", "0",
                 "--n-benign", str(N_BENIGN), "--n-malicious", str(N_MALICIOUS),
                 "--session-secs", SECS]) == 0
    features = root / "features.csv"
    assert main(["featurize", "--corpus", str(corpus), "--out", str(features),
                 "--session-secs", SECS]) == 0
    model = root / "model.json"
    assert main(["train", "--features", str(features), "--model", "forest",
                 "--seed", "0", "--cv-folds", "4", "--session-secs", SECS,
                 "--out", str(model)]) == 0
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
                 "--traces", str(workspace / "corpus"), "--session-secs", SECS]) == 0
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
    assert main(["bdcs", "--trace", str(trace)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["per_device"]["192.168.1.10"] == 1.0
    assert 0.0 <= out["bdcs"] <= 1.0

    assert main(["baseline", "--trace", str(trace)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["192.168.1.10"]["verdict"] in ("DETECTED", "NOT_DETECTED")
    assert out["192.168.1.10"]["threshold"] > 0


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
    assert "data error: line 3:" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["0", "-3"])
def test_window_below_one_exits_2(workspace, capsys, window):
    trace = workspace / "corpus" / f"session_{N_BENIGN:05d}.trace"
    assert main(["detect", "--trace", str(trace), "--model-file",
                 str(workspace / "model.json"), "--window", window]) == 2
    assert f"verdict window must be at least 1, got {window}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bdcs", "baseline"])
def test_too_many_bins_exits_2(tmp_path, capsys, command):
    # one packet at ts=1e12 would need 1e11 bins of 10 s
    trace = tmp_path / "far.trace"
    trace.write_text("#trace v1 subnet=192.168.1.0/24 epoch=0\n"
                     "1000000000000.000 192.168.1.10 8.8.8.8 5000 53 UDP 0x00 32 4\n")
    assert main([command, "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert "duration 1000000000000.0 s at sampling interval 10.0 s" in err
    assert "131072 bins" in err


def test_simulate_deterministic(tmp_path):
    for sub in ("a", "b"):
        assert main(["simulate", "--out", str(tmp_path / sub), "--seed", "9",
                     "--n-benign", "2", "--n-malicious", "2",
                     "--session-secs", "300"]) == 0
    for name in ["manifest.tsv"] + [f"session_{i:05d}.trace" for i in range(4)]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("flag, value", [
    ("--sample-t", "nan"), ("--sample-t", "inf"), ("--gap-var", "nan"),
])
def test_non_finite_periodicity_flags_exit_2(workspace, capsys, flag, value):
    trace = workspace / "corpus" / f"session_{N_BENIGN:05d}.trace"
    assert main(["detect", "--trace", str(trace), "--model-file",
                 str(workspace / "model.json"), flag, value]) == 2
    assert "must be finite" in capsys.readouterr().err
    if flag == "--sample-t":  # the stage-2 tools reject the same values
        for command in ("bdcs", "baseline"):
            assert main([command, "--trace", str(trace), flag, value]) == 2
        capsys.readouterr()


def test_analyzed_span_beyond_bin_bound_exits_2(workspace, capsys):
    # 900 s at 1 ms bins is 900000 bins: refused once, before the sweep
    trace = workspace / "corpus" / f"session_{N_BENIGN:05d}.trace"
    assert main(["detect", "--trace", str(trace), "--model-file",
                 str(workspace / "model.json"), "--sample-t", "0.001"]) == 2
    assert "duration 900.0 s at sampling interval 0.001 s needs more than 131072 bins" in \
        capsys.readouterr().err


@pytest.mark.parametrize("ts, session_secs, message", [
    ("1000000000000.000", None, "span 1000000000000.0 s in windows of 900.0 s"),
    ("1.000", "0.0001", "span 900.0 s in windows of 0.0001 s"),
], ids=["far-packet", "tiny-window"])
def test_session_count_bound_exits_2(workspace, tmp_path, capsys, ts, session_secs, message):
    trace = tmp_path / "t.trace"
    trace.write_text("#trace v1 subnet=192.168.1.0/24 epoch=0\n"
                     f"{ts} 192.168.1.10 8.8.8.8 5000 53 UDP 0x00 32 4\n"
                     "900.000 192.168.1.10 8.8.8.8 5000 53 UDP 0x00 32 4\n")
    argv = ["detect", "--trace", str(trace), "--model-file", str(workspace / "model.json")]
    if session_secs:
        argv += ["--session-secs", session_secs]
    assert main(argv) == 2
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


def test_evaluate_stage2_beyond_bin_bound_exits_2(workspace, capsys):
    # the same bound detect refuses: 900 s at 1 ms bins
    assert main(["evaluate", "--features", str(workspace / "features.csv"),
                 "--model-file", str(workspace / "model.json"),
                 "--traces", str(workspace / "corpus"), "--sample-t", "0.001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "duration 900.0 s at sampling interval 0.001 s needs more than 131072 bins" in \
        captured.err


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


def test_detect_model_with_unknown_feature_exits_2(workspace, tmp_path, capsys):
    doc = json.loads((workspace / "model.json").read_text())
    node = doc["params"]["trees"][0]
    while "leaf" not in node["l"]:
        node = node["l"]
    node["f"] = 99
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    trace = workspace / "corpus" / f"session_{N_BENIGN:05d}.trace"
    assert main(["detect", "--trace", str(trace), "--model-file", str(model)]) == 2
    assert f"model file {model}: a tree splits on feature 99 of 6" in capsys.readouterr().err


@pytest.mark.parametrize("secs", ["inf", "nan", "0", "-5"])
def test_simulate_bad_session_secs_exits_2(tmp_path, capsys, secs):
    assert main(["simulate", "--out", str(tmp_path / "c"), "--n-benign", "1",
                 "--n-malicious", "1", "--session-secs", secs]) == 2
    assert "session duration must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["-1", "0", "9"])
def test_train_k_best_out_of_range_exits_2(workspace, tmp_path, capsys, k):
    model = tmp_path / "model.json"
    assert main(["train", "--features", str(workspace / "features.csv"), "--k-best", k,
                 "--cv-folds", "4", "--out", str(model)]) == 2
    assert f"k={k} is outside 1..8" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("secs, shown", [
    ("0", "0.0"), ("-900", "-900.0"), ("nan", "nan"), ("inf", "inf"),
])
def test_train_bad_session_secs_exits_2(workspace, tmp_path, capsys, secs, shown):
    model = tmp_path / "model.json"
    assert main(["train", "--features", str(workspace / "features.csv"), "--cv-folds", "4",
                 "--session-secs", secs, "--out", str(model)]) == 2
    assert f"--session-secs {shown} is not positive and finite" in capsys.readouterr().err
    assert not model.exists()


def test_simulate_nan_jitter_exits_2(tmp_path, capsys):
    out = tmp_path / "c"
    assert main(["simulate", "--out", str(out), "--n-benign", "1", "--n-malicious", "1",
                 "--jitter", "nan"]) == 2
    assert "beacon jitter nan must be in [0, period/4)" in capsys.readouterr().err
    assert not out.exists()


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
