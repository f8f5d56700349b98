"""Gaussian naive Bayes and random forest classifiers, built directly so the
tie-breaking, bootstrap and determinism contracts can be pinned down exactly.

Labels are integers: 0 = benign, 1 = malicious. All prediction ties break to
benign (a false positive triggers administrative action; a deterministic
benign tie does not).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DataError, ModelFormatError
from .preprocess import Dataset, MinMaxScaler, scaler_transform

MODEL_VERSION = "botgate-model-v1"

LABEL_BENIGN = 0
LABEL_MALICIOUS = 1


# ---------------------------------------------------------------------------
# Gaussian naive Bayes

@dataclass
class GNBModel:
    priors: np.ndarray        # (2,)
    theta: np.ndarray         # (2, d) per-class feature means
    var: np.ndarray           # (2, d) smoothed variances
    var_smoothing: float


def gnb_fit(train: Dataset, var_smoothing: float = 1e-3) -> GNBModel:
    X, y = train.X, train.y
    classes = np.unique(y)
    if len(classes) < 2:
        raise DataError("GNB needs samples from both classes")
    # smoothing is a fraction of the largest per-feature variance of the full data
    full_var = X.var(axis=0)
    base = full_var.max()
    if base <= 0:
        base = 1.0  # fully constant data; keep variances positive
    eps = var_smoothing * base
    priors = np.array([(y == c).mean() for c in (LABEL_BENIGN, LABEL_MALICIOUS)])
    theta = np.stack([X[y == c].mean(axis=0) for c in (LABEL_BENIGN, LABEL_MALICIOUS)])
    var = np.stack([X[y == c].var(axis=0) for c in (LABEL_BENIGN, LABEL_MALICIOUS)]) + eps
    return GNBModel(priors=priors, theta=theta, var=var, var_smoothing=var_smoothing)


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


def gnb_predict(model: GNBModel, X: np.ndarray) -> np.ndarray:
    post = gnb_posteriors(model, X)
    # strict comparison: an exact tie stays benign
    return (post[:, LABEL_MALICIOUS] > post[:, LABEL_BENIGN]).astype(int)


# ---------------------------------------------------------------------------
# Random forest

@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    label: int = LABEL_BENIGN  # leaf payload when feature < 0

    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class ForestModel:
    trees: list[TreeNode]
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
               rng: np.random.Generator, min_samples_split: int = 2) -> TreeNode:
    if len(np.unique(y)) == 1 or len(y) < min_samples_split:
        return TreeNode(label=_majority(y))
    d = X.shape[1]
    features = rng.choice(d, size=min(max_features, d), replace=False)
    split = _best_split(X, y, features)
    if split is None:
        # fall back to searching all features before declaring a leaf
        split = _best_split(X, y, np.arange(d))
        if split is None:
            return TreeNode(label=_majority(y))
    _, f, thresh = split
    mask = X[:, f] <= thresh
    node = TreeNode(feature=f, threshold=thresh)
    node.left = _grow_tree(X[mask], y[mask], max_features, rng, min_samples_split)
    node.right = _grow_tree(X[~mask], y[~mask], max_features, rng, min_samples_split)
    return node


def forest_fit(train: Dataset, seed: int, n_trees: int = 10) -> ForestModel:
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
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        idx = rng.integers(0, n, size=n)
        trees.append(_grow_tree(X[idx], y[idx], max_features, rng))
    return ForestModel(trees=trees, n_features=d, seed=seed)


def _tree_predict_one(node: TreeNode, x: np.ndarray) -> int:
    while not node.is_leaf():
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.label


def forest_vote_fraction(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Fraction of trees voting malicious, per row."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    votes = np.zeros(X.shape[0])
    for tree in model.trees:
        votes += [_tree_predict_one(tree, x) for x in X]
    return votes / len(model.trees)


def forest_predict(model: ForestModel, X: np.ndarray) -> np.ndarray:
    frac = forest_vote_fraction(model, X)
    return (frac > 0.5).astype(int)  # 50/50 tie stays benign


# ---------------------------------------------------------------------------
# Cross-validation

def cross_validate(dataset: Dataset, k: int, model_kind: str, seed: int,
                   var_smoothing: float = 1e-3) -> tuple[float, float]:
    """Seeded k-fold CV; returns (mean accuracy, population std)."""
    n = dataset.X.shape[0]
    if k < 2:
        raise DataError("k-fold CV needs k >= 2")
    if n < k:
        raise DataError(f"need at least {k} rows for {k}-fold CV")
    perm = np.random.default_rng(seed).permutation(n)
    folds = np.array_split(perm, k)
    scores = []
    for i, fold in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[fold] = False
        train = Dataset(dataset.X[mask], dataset.y[mask], dataset.feature_names)
        if model_kind == "gnb":
            m = gnb_fit(train, var_smoothing=var_smoothing)
            pred = gnb_predict(m, dataset.X[fold])
        elif model_kind == "forest":
            m = forest_fit(train, seed=seed * 97 + i + 1)
            pred = forest_predict(m, dataset.X[fold])
        else:
            raise DataError(f"unknown model kind {model_kind!r}")
        scores.append(float((pred == dataset.y[fold]).mean()))
    scores = np.array(scores)
    return float(scores.mean()), float(scores.std())


# ---------------------------------------------------------------------------
# Trained-model container and persistence

@dataclass
class TrainedModel:
    kind: str                      # "gnb" | "forest"
    model: object                  # GNBModel | ForestModel
    scaler: MinMaxScaler
    selected_idx: list[int]
    session_secs: float

    def predict_with_confidence(self, raw_X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply scaler + feature selection, then predict.

        Confidence is the malicious posterior (GNB) or malicious vote
        fraction (forest)."""
        raw_X = np.atleast_2d(np.asarray(raw_X, dtype=float))
        if raw_X.shape[1] != len(self.scaler.mins):
            raise DataError(
                f"expected {len(self.scaler.mins)} raw features, got {raw_X.shape[1]}"
            )
        X = scaler_transform(self.scaler, raw_X)[:, self.selected_idx]
        if self.kind == "gnb":
            conf = gnb_posteriors(self.model, X)[:, LABEL_MALICIOUS]
        else:
            conf = forest_vote_fraction(self.model, X)
        labels = (conf > 0.5).astype(int)
        return labels, conf


def _tree_to_dict(node: TreeNode) -> dict:
    if node.is_leaf():
        return {"leaf": node.label}
    return {
        "f": node.feature,
        "t": node.threshold,
        "l": _tree_to_dict(node.left),
        "r": _tree_to_dict(node.right),
    }


def _tree_from_dict(d: dict, n_features: int) -> TreeNode:
    if "leaf" in d:
        label = int(d["leaf"])
        if label not in (LABEL_BENIGN, LABEL_MALICIOUS):
            raise ModelFormatError(f"leaf label {label} is not 0 or 1")
        return TreeNode(label=label)
    feature = int(d["f"])
    if not 0 <= feature < n_features:
        raise ModelFormatError(f"a tree splits on feature {feature} of {n_features}")
    threshold = float(d["t"])
    if not math.isfinite(threshold):
        raise ModelFormatError(f"a tree threshold is {threshold}")
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_tree_from_dict(d["l"], n_features),
        right=_tree_from_dict(d["r"], n_features),
    )


def save_model(trained: TrainedModel, path) -> None:
    if trained.kind == "gnb":
        m: GNBModel = trained.model
        params = {
            "priors": m.priors.tolist(),
            "theta": m.theta.tolist(),
            "var": m.var.tolist(),
            "var_smoothing": m.var_smoothing,
        }
    elif trained.kind == "forest":
        fm: ForestModel = trained.model
        params = {
            "trees": [_tree_to_dict(t) for t in fm.trees],
            "n_features": fm.n_features,
            "seed": fm.seed,
        }
    else:
        raise DataError(f"unknown model kind {trained.kind!r}")
    doc = {
        "version": MODEL_VERSION,
        "kind": trained.kind,
        "session_secs": trained.session_secs,
        "scaler": {"mins": trained.scaler.mins.tolist(), "maxs": trained.scaler.maxs.tolist()},
        "selected": list(map(int, trained.selected_idx)),
        "params": params,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def _check_finite(what: str, *arrays) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ModelFormatError(f"non-finite number in {what}")


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
        scaler = MinMaxScaler(mins=np.array(doc["scaler"]["mins"], float),
                              maxs=np.array(doc["scaler"]["maxs"], float))
        _check_finite("the scaler", scaler.mins, scaler.maxs)
        selected = [int(i) for i in doc["selected"]]
        n_raw = len(scaler.mins)
        if scaler.mins.shape != (n_raw,) or scaler.maxs.shape != (n_raw,):
            raise ModelFormatError("scaler mins and maxs differ in length")
        if not all(0 <= i < n_raw for i in selected):
            raise ModelFormatError(f"selected features {selected} are not all below {n_raw}")
        k = len(selected)
        if kind == "gnb":
            model = GNBModel(
                priors=np.array(params["priors"], float),
                theta=np.array(params["theta"], float),
                var=np.array(params["var"], float),
                var_smoothing=float(params["var_smoothing"]),
            )
            if model.priors.shape != (2,) or {model.theta.shape, model.var.shape} != {(2, k)}:
                raise ModelFormatError(f"GNB arrays do not fit 2 classes x {k} features")
            _check_finite("the GNB parameters", model.priors, model.theta, model.var,
                          model.var_smoothing)
        elif kind == "forest":
            n_features = int(params["n_features"])
            if n_features != k:
                raise ModelFormatError(f"forest has {n_features} features, {k} selected")
            model = ForestModel(
                trees=[_tree_from_dict(t, n_features) for t in params["trees"]],
                n_features=n_features,
                seed=int(params["seed"]),
            )
            if not model.trees:
                raise ModelFormatError("forest has no trees")
        else:
            raise ModelFormatError(f"unknown model kind {kind!r}")
        session_secs = float(doc["session_secs"])
        if not 0 < session_secs < math.inf:
            raise ModelFormatError(f"session_secs {session_secs} is not positive and finite")
        return TrainedModel(kind=kind, model=model, scaler=scaler, selected_idx=selected,
                            session_secs=session_secs)
    except ModelFormatError as exc:
        raise ModelFormatError(f"model file {path}: {exc}") from None
    except (OSError, ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise ModelFormatError(f"corrupt model file {path}: {exc}") from exc
