"""Smoke runs of the experiment scripts at a tiny size, in process."""
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(capsys, monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_stage1_eval(capsys, monkeypatch):
    out = _run(capsys, monkeypatch, "stage1_eval.py",
               "--n-benign", "10", "--n-malicious", "10", "--cv-folds", "2")
    assert out[0].startswith("corpus: 20 sessions in ")
    assert sum(line.endswith(" *") for line in out) == 6  # K_BEST 6 of 8 features
    header = out.index("model     accuracy  precision   recall       f1  cv mean   cv std")
    rows = [line.split() for line in out[header + 1:]]
    assert [r[0] for r in rows] == ["gnb", "forest"]
    assert all(0.0 <= float(v) <= 1.0 for r in rows for v in r[1:])


def test_stage2_eval(capsys, monkeypatch):
    # the whole table at seed 0: both tests' rates are pinned, not only its layout
    out = _run(capsys, monkeypatch, "stage2_eval.py", "--n-traces", "2")
    assert out == [
        " period  jitter   ACF DR  ACF MDR  baseline DR",
        "     60     0.0     1.00     0.00         1.00",
        "     60     2.0     0.00     1.00         1.00",
        "     60     5.0     0.00     1.00         1.00",
        "    210     0.0     1.00     0.00         0.00",
        "    210     2.0     0.00     1.00         0.00",
        "    210     5.0     0.00     1.00         0.00",
        "",
        "noise false-positive rate: 0.000 (0/4 traces)",
    ]


@pytest.mark.parametrize("flag, value, message", [
    ("--n-traces", "0", "--n-traces must be at least 1, got 0"),
    ("--seed", "-1", "--seed must be non-negative, got -1"),
    # the study bins over SESSION_SECS and the baseline tests at baselines.GAMMA:
    # no gamma, in (0, 1) or not, is a flag
    ("--duration", "900", "unrecognized arguments: --duration 900"),
    ("--gamma", "0", "unrecognized arguments: --gamma 0"),
    ("--gamma", "1.5", "unrecognized arguments: --gamma 1.5"),
], ids=["no-traces", "negative-seed", "duration-removed", "gamma-zero", "gamma-above-one"])
def test_stage2_eval_refuses_bad_flags(capsys, monkeypatch, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        _run(capsys, monkeypatch, "stage2_eval.py", flag, value)
    assert exc.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--k-best", "6", "unrecognized arguments: --k-best 6"),  # preprocess.K_BEST
    ("--cv-folds", "1", "--cv-folds must be at least 2, got 1"),
    ("--n-benign", "-1", "--n-benign must be non-negative, got -1"),
    ("--seed", "-1", "--seed must be non-negative, got -1"),
    ("--n-benign", "0", "the corpus needs both classes: --n-benign and --n-malicious must be "
                        "positive, got 0 and 2"),
    ("--n-malicious", "1", "corpus too small to train and cross-validate: need at least 10 rows "
                           "for 10-fold CV"),
], ids=["k-best-removed", "one-fold", "negative-count", "negative-seed", "one-class",
        "too-few-rows"])
def test_stage1_eval_refuses_bad_flags(capsys, monkeypatch, flag, value, message):
    with pytest.raises(SystemExit) as exc:
        _run(capsys, monkeypatch, "stage1_eval.py", "--n-benign", "2", "--n-malicious", "2",
             flag, value)
    assert exc.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err
