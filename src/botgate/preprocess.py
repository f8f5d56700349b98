"""Scaling, shuffling/splitting and chi-square feature selection."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

K_BEST = 6  # features chi-square selection keeps, of the 8 in FEATURE_NAMES
TRAIN_FRACTION = 0.8  # share of a shuffled dataset that shuffle_split trains on


@dataclass
class Dataset:
    X: np.ndarray  # (n, d)
    y: np.ndarray  # (n,) int labels, 0 = benign, 1 = malicious

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y)
        if self.X.ndim != 2 or len(self.y) != self.X.shape[0]:
            raise DataError("X must be 2-D with one label per row")


@dataclass
class MinMaxScaler:
    mins: np.ndarray
    maxs: np.ndarray


def scaler_fit(X: np.ndarray) -> MinMaxScaler:
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        raise DataError("cannot fit scaler on empty data")
    return MinMaxScaler(mins=X.min(axis=0), maxs=X.max(axis=0))


def scaler_transform(scaler: MinMaxScaler, X: np.ndarray) -> np.ndarray:
    """Map to [0, 1]; constant features go to 0, out-of-range values clamp."""
    X = np.asarray(X, dtype=float)
    span = scaler.maxs - scaler.mins
    safe = np.where(span > 0, span, 1.0)
    out = (X - scaler.mins) / safe
    out[:, span == 0] = 0.0
    return np.clip(out, 0.0, 1.0)


def shuffle_split(dataset: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded permutation, then first floor(n * TRAIN_FRACTION) rows train, rest test."""
    n = dataset.X.shape[0]
    if n < 2:
        raise DataError("need at least 2 rows to split")
    perm = np.random.default_rng(seed).permutation(n)
    cut = int(np.floor(n * TRAIN_FRACTION))
    tr, te = perm[:cut], perm[cut:]
    return Dataset(dataset.X[tr], dataset.y[tr]), Dataset(dataset.X[te], dataset.y[te])


def chi2_scores(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Chi-square score per feature from per-class column sums.

    observed_cj = sum of feature j over class-c rows;
    expected_cj = class prior times the total column sum.
    A feature whose column sums to zero scores 0.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if np.any(X < 0):
        raise DataError("chi2 scores require non-negative features")
    n = X.shape[0]
    classes = np.unique(y)
    observed = np.stack([X[y == c].sum(axis=0) for c in classes])  # (c, d)
    totals = X.sum(axis=0)  # (d,)
    priors = np.array([(y == c).sum() / n for c in classes])
    expected = priors[:, None] * totals[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (observed - expected) ** 2 / expected, 0.0)
    return terms.sum(axis=0)


def select_k_best(scores: np.ndarray) -> list[int]:
    """Indices of the K_BEST largest scores, descending; ties break to lower index."""
    scores = np.asarray(scores, dtype=float)
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    return order[:K_BEST]
