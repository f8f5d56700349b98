"""Gaussian naive Bayes and random forest classifiers, built directly so the
tie-breaking, bootstrap and determinism contracts can be pinned down exactly.

Labels are integers: 0 = benign, 1 = malicious. All prediction ties break to
benign (a false positive triggers administrative action; a deterministic
benign tie does not).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ModelFormatError, write_text_atomic
from .preprocess import Dataset, MinMaxScaler, scaler_transform
from .sessions import SESSION_SECS

MODEL_VERSION = "botgate-model-v1"

LABEL_BENIGN = 0
LABEL_MALICIOUS = 1


# ---------------------------------------------------------------------------
# Gaussian naive Bayes

VAR_SMOOTHING = 1e-3  # added to each variance, as a fraction of the largest one


@dataclass
class GNBModel:
    priors: np.ndarray        # (2,)
    theta: np.ndarray         # (2, d) per-class feature means
    var: np.ndarray           # (2, d) smoothed variances


def gnb_fit(train: Dataset) -> GNBModel:
    X, y = train.X, train.y
    classes = np.unique(y)
    if len(classes) < 2:
        raise DataError("GNB needs samples from both classes")
    # smoothing is a fraction of the largest per-feature variance of the full data
    full_var = X.var(axis=0)
    base = full_var.max()
    if base <= 0:
        base = 1.0  # fully constant data; keep variances positive
    eps = VAR_SMOOTHING * base
    priors = np.array([(y == c).mean() for c in (LABEL_BENIGN, LABEL_MALICIOUS)])
    theta = np.stack([X[y == c].mean(axis=0) for c in (LABEL_BENIGN, LABEL_MALICIOUS)])
    var = np.stack([X[y == c].var(axis=0) for c in (LABEL_BENIGN, LABEL_MALICIOUS)]) + eps
    return GNBModel(priors=priors, theta=theta, var=var)


def gnb_posteriors(model: GNBModel, X: np.ndarray) -> np.ndarray:
    """Normalized class posteriors, shape (n, 2)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    log_lik = np.empty((X.shape[0], 2))
    for c in range(2):
        z = (X - model.theta[c]) ** 2 / model.var[c]
        log_lik[:, c] = (
            np.log(model.priors[c])
            - 0.5 * (z + np.log(2 * np.pi * model.var[c])).sum(axis=1)
        )
    log_lik -= log_lik.max(axis=1, keepdims=True)
    post = np.exp(log_lik)
    return post / post.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Random forest

N_TREES = 10


@dataclass
class ForestModel:
    trees: list[dict]  # {"leaf": label} or {"f": feature, "t": threshold, "l": ..., "r": ...}
    n_features: int
    seed: int


def _majority(y: np.ndarray) -> int:
    n_mal = int((y == LABEL_MALICIOUS).sum())
    return LABEL_MALICIOUS if 2 * n_mal > len(y) else LABEL_BENIGN


def _best_split(X: np.ndarray, y: np.ndarray, features: np.ndarray):
    """Lowest weighted-gini split over midpoint thresholds of the given
    features; None if no feature varies."""
    n = len(y)
    best = None  # (impurity, feature, threshold)
    for f in features:
        vals = X[:, f]
        order = np.argsort(vals, kind="stable")
        sv, sy = vals[order], y[order]
        cuts = np.nonzero(sv[:-1] != sv[1:])[0]  # split after position i
        if len(cuts) == 0:
            continue
        cum_mal = np.cumsum(sy == LABEL_MALICIOUS)
        n_left = cuts + 1
        mal_left = cum_mal[cuts]
        n_right = n - n_left
        mal_right = cum_mal[-1] - mal_left
        p_l = mal_left / n_left
        p_r = mal_right / n_right
        gini_l = 2 * p_l * (1 - p_l)
        gini_r = 2 * p_r * (1 - p_r)
        weighted = (n_left * gini_l + n_right * gini_r) / n
        j = int(np.argmin(weighted))
        cand = (float(weighted[j]), int(f), float((sv[cuts[j]] + sv[cuts[j] + 1]) / 2))
        if best is None or cand[0] < best[0]:
            best = cand
    return best


def _grow_tree(X: np.ndarray, y: np.ndarray, max_features: int,
               rng: np.random.Generator) -> dict:
    if len(np.unique(y)) == 1:
        return {"leaf": _majority(y)}
    d = X.shape[1]
    features = rng.choice(d, size=min(max_features, d), replace=False)
    split = _best_split(X, y, features)
    if split is None:
        # fall back to searching all features before declaring a leaf
        split = _best_split(X, y, np.arange(d))
        if split is None:
            return {"leaf": _majority(y)}
    _, f, thresh = split
    mask = X[:, f] <= thresh
    return {"f": f, "t": thresh, "l": _grow_tree(X[mask], y[mask], max_features, rng),
            "r": _grow_tree(X[~mask], y[~mask], max_features, rng)}


def forest_fit(train: Dataset, seed: int) -> ForestModel:
    """Bootstrap forest with gini splits and max_features = floor(sqrt(d)).

    Rows are canonically sorted by (feature tuple, label) before bootstrap
    index draws, so training is invariant to input row permutation.
    """
    X, y = train.X, train.y
    n, d = X.shape
    if n < 2:
        raise DataError("forest needs at least 2 training rows")
    order = np.lexsort((y,) + tuple(X[:, j] for j in reversed(range(d))))
    X, y = X[order], y[order]
    max_features = max(1, int(np.floor(np.sqrt(d))))
    trees = []
    for t in range(N_TREES):
        rng = np.random.default_rng([seed, t])
        idx = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X[idx], y[idx], max_features, rng))
    return ForestModel(trees=trees, n_features=d, seed=seed)


def _tree_predict_one(node: dict, x: np.ndarray) -> int:
    while "leaf" not in node:
        node = node["l"] if x[node["f"]] <= node["t"] else node["r"]
    return node["leaf"]


def forest_vote_fraction(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Fraction of trees voting malicious, per row."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    votes = np.zeros(X.shape[0])
    for tree in model.trees:
        votes += [_tree_predict_one(tree, x) for x in X]
    return votes / len(model.trees)


def predict(model: GNBModel | ForestModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, confidence) per row. Confidence is the malicious posterior
    (GNB) or the malicious vote fraction (forest); a row is malicious when its
    confidence exceeds 0.5, so an exact tie stays benign."""
    if isinstance(model, GNBModel):
        conf = gnb_posteriors(model, X)[:, LABEL_MALICIOUS]
    else:
        conf = forest_vote_fraction(model, X)
    return (conf > 0.5).astype(int), conf


def stage1_metrics(pred: np.ndarray, y: np.ndarray) -> dict:
    """Accuracy, precision, recall and F1 of predicted against true labels;
    a ratio with a zero denominator is 0.0."""
    tp = int(((pred == 1) & (y == 1)).sum())
    n_pred, n_true = int((pred == 1).sum()), int((y == 1).sum())
    acc = float((pred == y).mean()) if len(y) else 0.0
    pr = tp / n_pred if n_pred else 0.0
    rc = tp / n_true if n_true else 0.0
    f1 = 2 * pr * rc / (pr + rc) if pr + rc else 0.0
    return {"accuracy": acc, "precision": pr, "recall": rc, "f1": f1}


# ---------------------------------------------------------------------------
# Cross-validation

def cv_folds(n: int, k: int, seed: int) -> list[np.ndarray]:
    """The row indices of each fold of a seeded k-fold split of n rows."""
    if k < 2:
        raise DataError("k-fold CV needs k >= 2")
    if n < k:
        raise DataError(f"need at least {k} rows for {k}-fold CV")
    return np.array_split(np.random.default_rng(seed).permutation(n), k)


def cross_validate(dataset: Dataset, k: int, model_kind: str, seed: int) -> tuple[float, float]:
    """Seeded k-fold CV over ``cv_folds``; returns (mean accuracy, population std)."""
    n = dataset.X.shape[0]
    scores = []
    for i, fold in enumerate(cv_folds(n, k, seed)):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        train = Dataset(dataset.X[mask], dataset.y[mask])
        if model_kind == "gnb":
            m = gnb_fit(train)
        elif model_kind == "forest":
            m = forest_fit(train, seed=seed * 97 + i + 1)
        else:
            raise DataError(f"unknown model kind {model_kind!r}")
        pred, _ = predict(m, dataset.X[fold])
        scores.append(float((pred == dataset.y[fold]).mean()))
    scores = np.array(scores)
    return float(scores.mean()), float(scores.std())


# ---------------------------------------------------------------------------
# Trained-model container and persistence

@dataclass
class TrainedModel:
    model: GNBModel | ForestModel
    scaler: MinMaxScaler
    selected_idx: list[int]

    def predict_with_confidence(self, raw_X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply scaler + feature selection, then ``predict``."""
        raw_X = np.atleast_2d(np.asarray(raw_X, dtype=float))
        if raw_X.shape[1] != len(self.scaler.mins):
            raise DataError(
                f"expected {len(self.scaler.mins)} raw features, got {raw_X.shape[1]}"
            )
        return predict(self.model, scaler_transform(self.scaler, raw_X)[:, self.selected_idx])


def _typed(value, kind: type, what: str):
    """``value`` as ``kind`` if the model file holds it as save_model writes
    one: a JSON int for an index, label, count or seed, and a JSON int or
    float for any other number. A bool is neither."""
    if type(value) not in (int, kind):
        raise ModelFormatError(f"{what}: {value!r} is not "
                               f"{'an integer' if kind is int else 'a number'}")
    return kind(value)


def _floats(value, what: str) -> np.ndarray:
    """The array of a model file's nested lists of finite JSON numbers."""
    nested = np.array(value, dtype=object)
    floats = np.array([_typed(v, float, what) for v in nested.flat]).reshape(nested.shape)
    if not np.isfinite(floats).all():
        raise ModelFormatError(f"non-finite number in {what}")
    return floats


def _tree_from_dict(d: dict, n_features: int) -> dict:
    """A checked copy of one tree of a model file."""
    if "leaf" in d:
        label = _typed(d["leaf"], int, "leaf label")
        if label not in (LABEL_BENIGN, LABEL_MALICIOUS):
            raise ModelFormatError(f"leaf label {label} is not 0 or 1")
        return {"leaf": label}
    feature = _typed(d["f"], int, "a tree split feature")
    if not 0 <= feature < n_features:
        raise ModelFormatError(f"a tree splits on feature {feature} of {n_features}")
    threshold = _typed(d["t"], float, "a tree threshold")
    if not math.isfinite(threshold):
        raise ModelFormatError(f"a tree threshold is {threshold}")
    return {"f": feature, "t": threshold, "l": _tree_from_dict(d["l"], n_features),
            "r": _tree_from_dict(d["r"], n_features)}


def save_model(trained: TrainedModel, path) -> None:
    m = trained.model
    if isinstance(m, GNBModel):
        kind, params = "gnb", {"priors": m.priors.tolist(), "theta": m.theta.tolist(),
                               "var": m.var.tolist(), "var_smoothing": VAR_SMOOTHING}
    else:
        kind, params = "forest", {"trees": m.trees, "n_features": m.n_features, "seed": m.seed}
    doc = {
        "version": MODEL_VERSION,
        "kind": kind,
        "session_secs": SESSION_SECS,  # the one window, which load_model checks
        "scaler": {"mins": trained.scaler.mins.tolist(), "maxs": trained.scaler.maxs.tolist()},
        "selected": list(map(int, trained.selected_idx)),
        "params": params,
    }
    write_text_atomic(path, json.dumps(doc, sort_keys=True) + "\n")


def load_model(path) -> TrainedModel:
    """The model ``save_model`` wrote; ModelFormatError naming the file for
    anything that could not have come from it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("version") != MODEL_VERSION:
            raise ModelFormatError(f"unsupported model version {doc.get('version')!r}")
        kind = doc["kind"]
        params = doc["params"]
        scaler = MinMaxScaler(mins=_floats(doc["scaler"]["mins"], "the scaler"),
                              maxs=_floats(doc["scaler"]["maxs"], "the scaler"))
        selected = [_typed(i, int, "selected feature") for i in doc["selected"]]
        n_raw = len(scaler.mins)
        if scaler.mins.shape != (n_raw,) or scaler.maxs.shape != (n_raw,):
            raise ModelFormatError("scaler mins and maxs differ in length")
        if not all(0 <= i < n_raw for i in selected):
            raise ModelFormatError(f"selected features {selected} are not all below {n_raw}")
        if len(set(selected)) != len(selected):
            raise ModelFormatError(f"selected features {selected} repeat a feature")
        k = len(selected)
        if kind == "gnb":
            model = GNBModel(
                priors=_floats(params["priors"], "the GNB parameters"),
                theta=_floats(params["theta"], "the GNB parameters"),
                var=_floats(params["var"], "the GNB parameters"),
            )
            _floats(params["var_smoothing"], "the GNB parameters")  # the variances hold it
            if model.priors.shape != (2,) or {model.theta.shape, model.var.shape} != {(2, k)}:
                raise ModelFormatError(f"GNB arrays do not fit 2 classes x {k} features")
        elif kind == "forest":
            n_features = _typed(params["n_features"], int, "n_features")
            if n_features != k:
                raise ModelFormatError(f"forest has {n_features} features, {k} selected")
            model = ForestModel(
                trees=[_tree_from_dict(t, n_features) for t in params["trees"]],
                n_features=n_features,
                seed=_typed(params["seed"], int, "seed"),
            )
            if not model.trees:
                raise ModelFormatError("forest has no trees")
        else:
            raise ModelFormatError(f"unknown model kind {kind!r}")
        session_secs = _typed(doc["session_secs"], float, "session_secs")
        if session_secs != SESSION_SECS:
            raise ModelFormatError(f"session_secs {session_secs} is not the session window "
                                   f"{SESSION_SECS}")
        return TrainedModel(model=model, scaler=scaler, selected_idx=selected)
    except ModelFormatError as exc:
        raise ModelFormatError(f"model file {path}: {exc}") from None
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError,
            OverflowError) as exc:
        raise ModelFormatError(f"corrupt model file {path}: {exc}") from exc
