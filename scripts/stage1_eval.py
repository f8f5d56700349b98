#!/usr/bin/env python3
"""Reproduce the stage-1 classifier comparison on a synthetic session corpus.

Generates a labeled corpus, runs min-max scaling + chi-square k-best
selection, then reports held-out metrics and k-fold cross-validation for both
classifiers.

Usage:
    python3 scripts/stage1_eval.py --n-benign 500 --n-malicious 500 --seed 0
"""
import argparse
import time

import numpy as np

from botgate.classifiers import cross_validate, forest_fit, gnb_fit, predict, stage1_metrics
from botgate.features import FEATURE_NAMES, MALICIOUS, extract_features
from botgate.preprocess import (
    Dataset, chi2_scores, scaler_fit, scaler_transform, select_k_best,
    shuffle_split,
)
from botgate.sessions import sessionize
from botgate.synth import SynthConfig, gen_dataset


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-benign", type=int, default=500)
    ap.add_argument("--n-malicious", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--k-best", type=int, default=6)
    ap.add_argument("--cv-folds", type=int, default=10)
    args = ap.parse_args()

    t0 = time.monotonic()
    rows, labels = [], []
    for rec in gen_dataset(SynthConfig(seed=args.seed), args.n_benign, args.n_malicious):
        for sess in sessionize(rec.trace):
            rows.append(extract_features(sess))
            labels.append(1 if rec.label == MALICIOUS else 0)
    print(f"corpus: {len(rows)} sessions in {time.monotonic() - t0:.1f}s")

    data = Dataset(np.array(rows), np.array(labels))
    train, test = shuffle_split(data, 0.8, seed=args.seed)
    scaler = scaler_fit(train.X)
    Xtr = scaler_transform(scaler, train.X)
    Xte = scaler_transform(scaler, test.X)
    scores = chi2_scores(Xtr, train.y)
    selected = select_k_best(scores, args.k_best)
    print("chi2 scores:")
    for name, s in zip(FEATURE_NAMES, scores):
        mark = " *" if FEATURE_NAMES.index(name) in selected else ""
        print(f"  {name:<16} {s:10.4f}{mark}")

    Xtr, Xte = Xtr[:, selected], Xte[:, selected]
    sel_data = Dataset(Xtr, train.y)

    print(f"\n{'model':<8} {'accuracy':>9} {'precision':>10} {'recall':>8} {'f1':>8} "
          f"{'cv mean':>8} {'cv std':>8}")
    for kind, model in (("gnb", gnb_fit(sel_data)),
                        ("forest", forest_fit(sel_data, seed=args.seed))):
        m = stage1_metrics(predict(model, Xte)[0], test.y)
        cv_mean, cv_std = cross_validate(sel_data, args.cv_folds, kind, seed=args.seed)
        print(f"{kind:<8} {m['accuracy']:9.4f} {m['precision']:10.4f} {m['recall']:8.4f} "
              f"{m['f1']:8.4f} {cv_mean:8.4f} {cv_std:8.4f}")


if __name__ == "__main__":
    main()
