"""Command-line front end.

Subcommands: simulate, featurize, train, evaluate, detect, bdcs, baseline,
policy, run-pipeline. Exit codes: 0 success, 1 usage, 2 data error,
3 internal error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .acf import PeriodicityParams, check_bins, encode_device
from .baselines import walker_test
from .classifiers import (
    TrainedModel, cross_validate, forest_fit, gnb_fit, load_model, save_model, stage1_metrics,
)
from .errors import BotgateError, DataError, PolicyError
from .features import (
    BENIGN, FEATURE_NAMES, MALICIOUS, FeatureVector, extract_features, read_feature_csv,
    write_feature_csv,
)
from .pipeline import DetectionReport, PipelineConfig, detect_iot_bots, run_pipeline
from .policy import (
    PolicyStore, apply_policies, load_store, parse_policy_command, save_store,
)
from .preprocess import Dataset, chi2_scores, scaler_fit, scaler_transform, select_k_best
from .sessions import sessionize, split_by_device
from .stats import BdcsParams, bdcs, period_detection_prob
from .synth import BeaconProfile, SynthConfig, gen_dataset
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
    with open(path) as fh:
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


def _corpus_features(corpus: Path, session_secs: float) -> list[FeatureVector]:
    """Labeled feature rows for every session window of every corpus trace."""
    vectors = []
    for entry in _read_manifest(corpus):
        sessions = sessionize(load_trace(entry["file"]), session_secs)
        vectors.extend(extract_features(s, label=entry["label"]) for s in sessions)
    return vectors


def cmd_simulate(args) -> int:
    config = SynthConfig(
        seed=args.seed,
        duration_s=args.session_secs,
        beacon=BeaconProfile(jitter_s=args.jitter),
    )
    _write_corpus(Path(args.out), config, args.n_benign, args.n_malicious)
    print(f"wrote {args.n_benign + args.n_malicious} sessions to {args.out}")
    return 0


def cmd_featurize(args) -> int:
    vectors = _corpus_features(Path(args.corpus), args.session_secs)
    write_feature_csv(vectors, args.out)
    print(f"wrote {len(vectors)} feature rows to {args.out}")
    return 0


def _load_dataset(features_csv) -> Dataset:
    vectors = read_feature_csv(features_csv)
    if any(v.label is None for v in vectors):
        raise BotgateError("training requires labeled feature rows")
    X = np.array([v.values() for v in vectors])
    y = np.array([1 if v.label == MALICIOUS else 0 for v in vectors])
    return Dataset(X, y)


def cmd_train(args) -> int:
    if not 0 < args.session_secs < math.inf:
        raise DataError(f"--session-secs {args.session_secs} is not positive and finite")
    data = _load_dataset(args.features)
    scaler = scaler_fit(data.X)
    Xs = scaler_transform(scaler, data.X)
    scores = chi2_scores(Xs, data.y)
    selected = select_k_best(scores, args.k_best)
    train = Dataset(Xs[:, selected], data.y)
    if args.model == "gnb":
        model = gnb_fit(train)
    else:
        model = forest_fit(train, seed=args.seed)
    mean, std = cross_validate(train, args.cv_folds, args.model, seed=args.seed)
    trained = TrainedModel(
        kind=args.model, model=model, scaler=scaler,
        selected_idx=selected, session_secs=args.session_secs,
    )
    save_model(trained, args.out)
    print(f"chi2 scores: {[round(float(s), 3) for s in scores]}")
    print(f"selected features: {[FEATURE_NAMES[i] for i in selected]}")
    print(f"CV accuracy ({args.cv_folds}-fold): {mean:.4f} (+/- {std:.4f})")
    print(f"model written to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    data = _load_dataset(args.features)
    if data.X.shape[0] == 0:
        raise BotgateError("empty corpus")
    model = load_model(args.model_file)
    pred, _ = model.predict_with_confidence(data.X)
    out = {"stage1": stage1_metrics(pred, data.y)}

    if args.traces:
        params = PeriodicityParams(
            sample_t=args.sample_t, peak_height_frac=args.peak_frac,
            gap_variance_thresh=args.gap_var, payload_cutoff_bytes=args.payload_cutoff,
        )
        check_bins(args.session_secs, params.sample_t)  # refused once, as detect does
        entries = [e for e in _read_manifest(Path(args.traces)) if e["label"] == MALICIOUS]
        detected = 0
        for entry in entries:
            trace = load_trace(entry["file"])
            infected, _ = detect_iot_bots(split_by_device(trace), params, args.session_secs)
            detected += bool(infected)
        dr = detected / len(entries) if entries else 0.0
        out["stage2"] = {"n_malicious_traces": len(entries), "DR": dr, "MDR": 1.0 - dr}

    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_detect(args) -> int:
    model = load_model(args.model_file)
    trace = load_trace(args.trace)
    config = PipelineConfig(
        session_secs=args.session_secs,
        window=args.window,
        periodicity=PeriodicityParams(
            sample_t=args.sample_t, peak_height_frac=args.peak_frac,
            gap_variance_thresh=args.gap_var, payload_cutoff_bytes=args.payload_cutoff,
        ),
        bdcs=BdcsParams(alpha=args.alpha, h=args.lags),
    )
    report = run_pipeline(trace, model, config)
    text = report.to_text()
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def _device_sequences(args):
    """(ip, encoded sequence) per device of ``args.trace``, in string order,
    over the whole capture and at least one bin."""
    trace = load_trace(args.trace)
    params = PeriodicityParams(sample_t=args.sample_t, payload_cutoff_bytes=args.payload_cutoff)
    duration = max(trace.span(), args.sample_t)
    for ip, dev in sorted(split_by_device(trace).items()):
        yield ip, encode_device(dev, params, duration)


def cmd_bdcs(args) -> int:
    params = BdcsParams(alpha=args.alpha, h=args.lags)
    probs = {ip: period_detection_prob(seq.e, params).prob
             for ip, seq in _device_sequences(args)}
    out = {"per_device": probs, "bdcs": bdcs(list(probs.values()))}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_baseline(args) -> int:
    out = {}
    for ip, seq in _device_sequences(args):
        res = walker_test(seq.e, gamma=args.gamma)
        out[ip] = {"verdict": res.verdict.value, "statistic": res.statistic,
                   "threshold": res.threshold}
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
        plan = apply_policies(store, report.infected_devices, name_map)
        print(json.dumps(
            [{"device": p.device_ip, "action": p.action.value,
              "policy": p.policy, "allowlist": p.allowlist} for p in plan],
            indent=2))
        return 0
    cmd = parse_policy_command(args.command)
    store.apply_command(cmd)
    save_store(store, store_path)
    print(f"ok: {' '.join(args.command)}")
    return 0


def cmd_run_pipeline(args) -> int:
    """Convenience chain: simulate -> featurize -> train -> detect."""
    workdir = Path(args.workdir)
    corpus = workdir / "corpus"
    config = SynthConfig(seed=args.seed, duration_s=args.session_secs)
    _write_corpus(corpus, config, args.n_benign, args.n_malicious)

    features_csv = workdir / "features.csv"
    write_feature_csv(_corpus_features(corpus, args.session_secs), features_csv)

    train_args = argparse.Namespace(
        features=features_csv, model=args.model, seed=args.seed,
        k_best=args.k_best, cv_folds=5, session_secs=args.session_secs,
        out=workdir / "model.json",
    )
    cmd_train(train_args)

    # detect on the first malicious trace of the corpus
    malicious = [e for e in _read_manifest(corpus) if e["label"] == MALICIOUS]
    if not malicious:
        raise BotgateError("corpus has no malicious sessions to detect on")
    model = load_model(workdir / "model.json")
    report = run_pipeline(load_trace(malicious[0]["file"]), model, PipelineConfig())
    report_path = workdir / "report.json"
    report_path.write_text(report.to_text())
    print(f"report written to {report_path}")
    print(f"infected devices: {report.infected_devices}")
    return 0


def _count(text: str) -> int:
    """An argparse type: a number of sessions."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def _add_periodicity_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sample-t", type=float, default=10.0)
    p.add_argument("--peak-frac", type=float, default=0.7)
    p.add_argument("--gap-var", type=float, default=0.01)
    p.add_argument("--payload-cutoff", type=int, default=10)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="botgate",
        description="Two-stage IoT botnet detection toolkit (scanning classifier + beacon ACF tests)",
    )
    parser.add_argument("--version", action="version", version=f"botgate {__version__}")
    sub = parser.add_subparsers(dest="command_name", required=True)

    p = sub.add_parser("simulate", help="generate a labeled synthetic session corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-benign", type=_count, default=1000)
    p.add_argument("--n-malicious", type=_count, default=1000)
    p.add_argument("--session-secs", type=float, default=900.0)
    p.add_argument("--jitter", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("featurize", help="extract per-session feature CSV from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--session-secs", type=float, default=900.0)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="fit scaler + feature selection + classifier")
    p.add_argument("--features", required=True)
    p.add_argument("--model", choices=["gnb", "forest"], default="forest")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k-best", type=int, default=6)
    p.add_argument("--cv-folds", type=int, default=10)
    p.add_argument("--session-secs", type=float, default=900.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="stage-1 metrics on a feature CSV; optional stage-2 DR/MDR")
    p.add_argument("--features", required=True)
    p.add_argument("--model-file", required=True)
    p.add_argument("--traces", help="corpus dir for stage-2 DR/MDR")
    p.add_argument("--session-secs", type=float, default=900.0)
    _add_periodicity_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("detect", help="run the full two-stage pipeline on one trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--model-file", required=True)
    p.add_argument("--out")
    p.add_argument("--session-secs", type=float, default=None)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--lags", type=int, default=20)
    _add_periodicity_flags(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("bdcs", help="per-device detection probabilities and their product")
    p.add_argument("--trace", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--lags", type=int, default=20)
    p.add_argument("--sample-t", type=float, default=10.0)
    p.add_argument("--payload-cutoff", type=int, default=10)
    p.set_defaults(func=cmd_bdcs)

    p = sub.add_parser("baseline", help="Walker's largest sample test per device")
    p.add_argument("--trace", required=True)
    p.add_argument("--gamma", type=float, default=0.1)
    p.add_argument("--sample-t", type=float, default=10.0)
    p.add_argument("--payload-cutoff", type=int, default=10)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-benign", type=_count, default=20)
    p.add_argument("--n-malicious", type=_count, default=20)
    p.add_argument("--model", choices=["gnb", "forest"], default="forest")
    p.add_argument("--k-best", type=int, default=6)
    p.add_argument("--session-secs", type=float, default=900.0)
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
            flags[key] = argv[i + 1]
            i += 2
        else:
            command.append(tok)
            i += 1
    if flags["store"] is None:
        raise PolicyError("policy requires --store")
    return argparse.Namespace(func=cmd_policy, command=command, **flags)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        if argv and argv[0] == "policy" and "-h" not in argv and "--help" not in argv:
            args = _parse_policy_argv(argv[1:])
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    except PolicyError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
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
