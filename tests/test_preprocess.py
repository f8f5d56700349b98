"""Scaling, splitting and chi-square feature selection."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from botgate.errors import DataError
from botgate.preprocess import (
    Dataset, chi2_scores, scaler_fit, scaler_transform, select_k_best,
    shuffle_split,
)


def brute_chi2(X, y):
    """Loop-based reference: per-class observed column sums vs prior-weighted
    expected sums."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    classes = sorted(set(y.tolist()))
    scores = np.zeros(d)
    for j in range(d):
        total = sum(X[i, j] for i in range(n))
        for c in classes:
            rows = [i for i in range(n) if y[i] == c]
            observed = sum(X[i, j] for i in rows)
            expected = len(rows) / n * total
            if expected > 0:
                scores[j] += (observed - expected) ** 2 / expected
    return scores


def test_scaler_maps_to_unit_interval():
    X = np.array([[0.0, 5.0, 7.0], [10.0, 5.0, 9.0]])
    sc = scaler_fit(X)
    out = scaler_transform(sc, X)
    assert out[:, 0].tolist() == [0.0, 1.0]
    assert out[:, 1].tolist() == [0.0, 0.0]  # constant feature collapses to 0
    assert out[:, 2].tolist() == [0.0, 1.0]
    # out-of-range values clamp
    clamped = scaler_transform(sc, np.array([[20.0, 5.0, 6.0]]))
    assert clamped[0].tolist() == [1.0, 0.0, 0.0]


def test_scaler_empty_error():
    with pytest.raises(DataError):
        scaler_fit(np.empty((0, 3)))


def test_shuffle_split_deterministic_and_sized():
    data = Dataset(np.arange(20).reshape(10, 2), np.arange(10) % 2)
    a_train, a_test = shuffle_split(data, seed=42)
    b_train, b_test = shuffle_split(data, seed=42)
    assert np.array_equal(a_train.X, b_train.X)
    assert np.array_equal(a_test.y, b_test.y)
    assert a_train.X.shape[0] == 8 and a_test.X.shape[0] == 2  # TRAIN_FRACTION 0.8
    c_train, _ = shuffle_split(data, seed=43)
    assert not np.array_equal(a_train.X, c_train.X)
    with pytest.raises(DataError):
        shuffle_split(Dataset(np.zeros((1, 2)), [0]), seed=0)


def test_chi2_two_sample_example():
    X = np.array([[1.0], [0.0]])
    y = np.array([1, 0])
    assert chi2_scores(X, y)[0] == pytest.approx(1.0)


def test_chi2_zero_column_scores_zero():
    X = np.array([[0.0, 1.0], [0.0, 2.0]])
    y = np.array([0, 1])
    assert chi2_scores(X, y)[0] == 0.0


def test_chi2_rejects_negative():
    with pytest.raises(DataError):
        chi2_scores(np.array([[-1.0]]), np.array([0]))


def test_chi2_matches_brute_force_seeded():
    rng = np.random.default_rng(5)
    for _ in range(20):
        X = rng.random((12, 8))
        y = rng.integers(0, 2, 12)
        if len(np.unique(y)) < 2:
            continue
        assert np.allclose(chi2_scores(X, y), brute_chi2(X, y), atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, (10, 4), elements=st.floats(0, 100)),
       hnp.arrays(np.int64, 10, elements=st.integers(0, 1)))
def test_chi2_matches_brute_force_property(X, y):
    assert np.allclose(chi2_scores(X, y), brute_chi2(X, y), atol=1e-9)


def test_select_k_best_order_and_ties():
    scores = np.array([3.0, 1.0, 3.0, 5.0, 0.5, 2.0, 1.0, 0.0])
    # K_BEST = 6 of 8; ties break to the lower index
    assert select_k_best(scores) == [3, 0, 2, 5, 1, 6]


def test_select_k6_drops_the_two_length_extremes():
    # score profile shaped like a trained scanning corpus: the packet-length
    # max/min columns carry no signal
    scores = np.array([146.088020, 77.313488, 79.5, 8.317776,
                       165.130937, 0.0, 0.0, 13.700322])
    selected = select_k_best(scores)
    assert set(selected) == {0, 1, 2, 3, 4, 7}
    assert selected == [4, 0, 2, 1, 7, 3]
