"""Command-line front end.

Subcommands: simulate, featurize, train, evaluate, detect, baseline, policy,
run-pipeline. Exit codes: 0 success, 1 usage, 2 data error, 3 internal error.
Every command cuts traces into the one session window, ``SESSION_SECS``.
Stage 2 (``evaluate --traces``, ``detect``, ``baseline``) reads each trace's
devices through ``pipeline.stage2_input``, over its whole session windows.
"""
from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acf import encode
from .baselines import walker_test
from .classifiers import (
    TrainedModel, cross_validate, cv_folds, forest_fit, gnb_fit, load_model, save_model,
    stage1_metrics,
)
from .errors import BotgateError, DataError, PolicyError, read_text
from .features import (
    BENIGN, FEATURE_NAMES, MALICIOUS, extract_features, read_feature_csv, write_feature_csv,
)
from .pipeline import DetectionReport, detect_iot_bots, run_pipeline, stage2_input
from .policy import PolicyStore, apply_policies, load_store, save_store
from .preprocess import Dataset, chi2_scores, scaler_fit, scaler_transform, select_k_best
from .sessions import sessionize
from .synth import SynthConfig, gen_dataset
from .trace import load_trace, save_trace

MANIFEST_NAME = "manifest.tsv"


def _write_corpus(outdir: Path, config: SynthConfig, n_benign: int, n_malicious: int) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    for rec in gen_dataset(config, n_benign, n_malicious):
        fname = f"session_{rec.index:05d}.trace"
        save_trace(rec.trace, outdir / fname)
        rows.append(f"{rec.index}\t{rec.label}\t{fname}\t{','.join(rec.ingredients)}")
    with open(outdir / MANIFEST_NAME, "w") as fh:
        fh.write("index\tlabel\tfile\tingredients\n")
        fh.write("\n".join(rows) + "\n")


def _read_manifest(corpus_dir: Path) -> list[dict]:
    path = corpus_dir / MANIFEST_NAME
    entries = []
    with io.StringIO(read_text(path), newline=None) as fh:  # lines end at \n, \r\n or \r
        header = fh.readline()
        if not header.startswith("index\t"):
            raise BotgateError(f"bad manifest header in {path}")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                raise DataError(f"{path} line {lineno}: expected 4 tab-separated fields, "
                                f"got {len(fields)}")
            idx, label, fname, ingredients = fields
            try:
                index = int(idx)
            except ValueError:
                raise DataError(f"{path} line {lineno}: bad index {idx!r}") from None
            if label not in (BENIGN, MALICIOUS):
                raise DataError(f"{path} line {lineno}: bad label {label!r}")
            entries.append({
                "index": index, "label": label, "file": corpus_dir / fname,
                "ingredients": ingredients.split(","),
            })
    return entries


def _write_corpus_features(corpus: Path, path) -> int:
    """Write the labeled feature row of every session window of every corpus
    trace; the number of rows."""
    rows, labels = [], []
    for entry in _read_manifest(corpus):
        sessions = sessionize(load_trace(entry["file"]))
        rows.extend(extract_features(s) for s in sessions)
        labels.extend([entry["label"]] * len(sessions))
    write_feature_csv(rows, labels, path)
    return len(rows)


def cmd_simulate(args) -> int:
    config = SynthConfig(seed=args.seed, jitter_s=args.jitter)
    _write_corpus(Path(args.out), config, args.n_benign, args.n_malicious)
    print(f"wrote {args.n_benign + args.n_malicious} sessions to {args.out}")
    return 0


def cmd_featurize(args) -> int:
    n_rows = _write_corpus_features(Path(args.corpus), args.out)
    print(f"wrote {n_rows} feature rows to {args.out}")
    return 0


def cmd_train(args) -> int:
    data = read_feature_csv(args.features)
    scaler = scaler_fit(data.X)
    Xs = scaler_transform(scaler, data.X)
    scores = chi2_scores(Xs, data.y)
    selected = select_k_best(scores)
    train = Dataset(Xs[:, selected], data.y)
    if args.model == "gnb":
        model = gnb_fit(train)
    else:
        model = forest_fit(train, seed=args.seed)
    mean, std = cross_validate(train, args.cv_folds, args.model, seed=args.seed)
    trained = TrainedModel(model=model, scaler=scaler, selected_idx=selected)
    save_model(trained, args.out)
    print(f"chi2 scores: {[round(float(s), 3) for s in scores]}")
    print(f"selected features: {[FEATURE_NAMES[i] for i in selected]}")
    print(f"CV accuracy ({args.cv_folds}-fold): {mean:.4f} (+/- {std:.4f})")
    print(f"model written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    data = read_feature_csv(args.features)
    model = load_model(args.model_file)
    pred, _ = model.predict_with_confidence(data.X)
    out = {"stage1": stage1_metrics(pred, data.y)}

    if args.traces:
        entries = [e for e in _read_manifest(Path(args.traces)) if e["label"] == MALICIOUS]
        detected = 0
        for entry in entries:
            infected, _ = detect_iot_bots(*stage2_input(load_trace(entry["file"])))
            detected += bool(infected)
        dr = detected / len(entries) if entries else 0.0
        out["stage2"] = {"n_malicious_traces": len(entries), "DR": dr, "MDR": 1.0 - dr}

    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_detect(args) -> int:
    model = load_model(args.model_file)
    trace = load_trace(args.trace)
    report = run_pipeline(trace, model)
    text = report.to_text()
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def cmd_baseline(args) -> int:
    """Walker's test, in place of the ACF test, on each device's sequence as
    ``detect`` encodes it."""
    out = {}
    devices, span = stage2_input(load_trace(args.trace))
    for ip, arrivals in devices.items():
        walker = walker_test(encode(arrivals, span))
        out[ip] = {"verdict": walker.verdict.value, "statistic": walker.statistic,
                   "threshold": walker.threshold}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_policy(args) -> int:
    store_path = Path(args.store)
    store = load_store(store_path) if store_path.exists() else PolicyStore()
    if args.apply:
        try:
            report = DetectionReport.from_text(Path(args.apply).read_text())
        except ValueError as exc:
            raise DataError(f"bad detection report {args.apply}: {exc}") from None
        name_map = {}
        if args.name_map:
            try:
                name_map = json.loads(Path(args.name_map).read_text())
            except ValueError:
                name_map = None
            if not (isinstance(name_map, dict)
                    and all(isinstance(ip, str) for ip in name_map.values())):
                raise DataError(f"bad name map {args.name_map}: expected a JSON object "
                                f"of device names to IP strings")
        print(json.dumps(apply_policies(store, report.infected_devices, name_map), indent=2))
        return 0
    store.apply_command(args.command)
    save_store(store, store_path)
    print(f"ok: {' '.join(args.command)}")
    return 0


def cmd_run_pipeline(args) -> int:
    """Convenience chain: simulate -> featurize -> train -> detect."""
    # train's refusals that the session counts decide, before any write;
    # featurize writes one row per simulated session: the benign rows, then the malicious
    labels = np.repeat([0, 1], [args.n_benign, args.n_malicious])
    folds = cv_folds(len(labels), 5, args.seed)
    if args.model == "gnb" and any(np.unique(np.delete(labels, fold)).size < 2 for fold in folds):
        raise DataError("GNB needs samples from both classes")
    if not args.n_malicious:
        raise DataError("corpus has no malicious sessions to detect on")
    workdir = Path(args.workdir)
    corpus = workdir / "corpus"
    _write_corpus(corpus, SynthConfig(seed=args.seed), args.n_benign, args.n_malicious)

    features_csv = workdir / "features.csv"
    _write_corpus_features(corpus, features_csv)

    train_args = argparse.Namespace(
        features=features_csv, model=args.model, seed=args.seed,
        cv_folds=5, out=workdir / "model.json",
    )
    cmd_train(train_args)

    # detect on the first malicious trace of the corpus
    first = next(e for e in _read_manifest(corpus) if e["label"] == MALICIOUS)
    report = run_pipeline(load_trace(first["file"]), load_model(workdir / "model.json"))
    report_path = workdir / "report.json"
    report_path.write_text(report.to_text())
    print(f"report written to {report_path}")
    print(f"infected devices: {report.infected_devices}")
    return 0


def _count(text: str) -> int:
    """An argparse type: a number of sessions, or a seed."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


@functools.cache  # built on the first call that needs it, then shared by the process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="botgate",
        description="Two-stage IoT botnet detection toolkit (scanning classifier + beacon ACF tests)",
    )
    parser.add_argument("--version", action="version", version=f"botgate {__version__}")
    sub = parser.add_subparsers(dest="command_name", required=True)

    p = sub.add_parser("simulate", help="generate a labeled synthetic session corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--n-benign", type=_count, default=1000)
    p.add_argument("--n-malicious", type=_count, default=1000)
    p.add_argument("--jitter", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("featurize", help="extract per-session feature CSV from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="fit scaler + feature selection + classifier")
    p.add_argument("--features", required=True)
    p.add_argument("--model", choices=["gnb", "forest"], default="forest")
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--cv-folds", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="stage-1 metrics on a feature CSV; optional stage-2 DR/MDR")
    p.add_argument("--features", required=True)
    p.add_argument("--model-file", required=True)
    p.add_argument("--traces", help="corpus dir for stage-2 DR/MDR")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("detect", help="run the full two-stage pipeline on one trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--model-file", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("baseline", help="Walker's largest sample test per device")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("policy", help="policy store management and plan generation")
    p.add_argument("--store", required=True)
    p.add_argument("--apply", help="detection report to map to an action plan")
    p.add_argument("--name-map", help="JSON file mapping device names to IPs")
    p.add_argument("command", nargs=argparse.REMAINDER,
                   help="policy-engine command tokens (e.g. --create-policy NAME)")
    p.set_defaults(func=cmd_policy)

    p = sub.add_parser("run-pipeline", help="simulate + train + detect in one go")
    p.add_argument("--workdir", required=True)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--n-benign", type=_count, default=20)
    p.add_argument("--n-malicious", type=_count, default=20)
    p.add_argument("--model", choices=["gnb", "forest"], default="forest")
    p.set_defaults(func=cmd_run_pipeline)

    return parser


def _parse_policy_argv(argv: list[str]) -> argparse.Namespace:
    """Hand-rolled parse for the policy subcommand: its grammar tokens start
    with ``--`` and argparse refuses to route those into a positional."""
    flags = {"store": None, "apply": None, "name_map": None}
    command: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        key = tok[2:].replace("-", "_") if tok.startswith("--") else None
        if key in flags:
            if i + 1 >= len(argv):
                raise PolicyError(f"{tok} needs a value")
            if flags[key] is not None:
                raise PolicyError(f"duplicate flag {tok}")
            flags[key] = argv[i + 1]
            i += 2
        else:
            command.append(tok)
            i += 1
    if flags["store"] is None:
        raise PolicyError("policy requires --store")
    if flags["name_map"] is not None and flags["apply"] is None:
        raise PolicyError("--name-map needs --apply")
    if flags["apply"] is not None and command:
        raise PolicyError(f"--apply takes no policy command, got {' '.join(command)}")
    return argparse.Namespace(func=cmd_policy, command=command, **flags)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] == "policy" and "-h" not in argv and "--help" not in argv:
            args = _parse_policy_argv(argv[1:])
        else:
            args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's: no command raises it
        return 0 if exc.code in (0, None) else 1
    except PolicyError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except BotgateError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
