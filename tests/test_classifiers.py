"""Classifier contracts: posteriors, tie-breaking, determinism, persistence."""
import json
import math

import numpy as np
import pytest

from botgate.classifiers import (
    LABEL_BENIGN, LABEL_MALICIOUS, VAR_SMOOTHING, TrainedModel, cross_validate, forest_fit,
    forest_vote_fraction, gnb_fit, gnb_posteriors, load_model, predict, save_model,
)
from botgate.errors import DataError, ModelFormatError
from botgate.preprocess import Dataset, MinMaxScaler

# 1-D two-class fixture: class means 0 and 1, equal priors and variances
X_1D = np.array([[-0.5], [0.5], [0.5], [1.5]])
Y_1D = np.array([0, 0, 1, 1])


def test_gnb_hand_posterior():
    model = gnb_fit(Dataset(X_1D, Y_1D))
    # closed form with the fitted per-class variance 0.25, plus the smoothing:
    # VAR_SMOOTHING times the largest feature variance, 0.5
    var = 0.25 + VAR_SMOOTHING * 0.5
    x = 0.1
    pdf0 = math.exp(-x ** 2 / (2 * var))
    pdf1 = math.exp(-(x - 1) ** 2 / (2 * var))
    expected = pdf0 / (pdf0 + pdf1)
    post = gnb_posteriors(model, np.array([[x]]))
    assert post[0, LABEL_BENIGN] == pytest.approx(expected, abs=1e-6)
    assert post.sum(axis=1) == pytest.approx(1.0)
    assert predict(model, np.array([[x]]))[0][0] == LABEL_BENIGN
    assert predict(model, np.array([[0.9]]))[0][0] == LABEL_MALICIOUS


def test_gnb_exact_tie_is_benign():
    model = gnb_fit(Dataset(X_1D, Y_1D))
    # x = 0.5 is equidistant from both class means: posteriors tie exactly
    post = gnb_posteriors(model, np.array([[0.5]]))
    assert post[0, 0] == post[0, 1]
    assert predict(model, np.array([[0.5]]))[0][0] == LABEL_BENIGN


def test_gnb_smoothing_tracks_max_feature_variance():
    model = gnb_fit(Dataset(X_1D, Y_1D))
    full_var = X_1D.var(axis=0).max()
    assert model.var[0, 0] == pytest.approx(0.25 + VAR_SMOOTHING * full_var)


def test_gnb_needs_both_classes():
    with pytest.raises(DataError):
        gnb_fit(Dataset(X_1D, np.zeros(4, dtype=int)))


def test_forest_separable_two_points():
    data = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
    model = forest_fit(data, seed=0)
    assert predict(model, data.X)[0].tolist() == [0, 1]
    frac = forest_vote_fraction(model, data.X)
    assert np.all((frac >= 0) & (frac <= 1))


def test_forest_deterministic_and_permutation_invariant():
    rng = np.random.default_rng(1)
    X = rng.random((40, 5))
    y = (X[:, 0] + X[:, 3] > 1.0).astype(int)
    data = Dataset(X, y)
    a = forest_fit(data, seed=7)
    b = forest_fit(data, seed=7)
    probe = rng.random((25, 5))
    assert np.array_equal(forest_vote_fraction(a, probe), forest_vote_fraction(b, probe))
    # shuffled training rows produce the identical model
    perm = rng.permutation(len(y))
    c = forest_fit(Dataset(X[perm], y[perm]), seed=7)
    assert np.array_equal(forest_vote_fraction(a, probe), forest_vote_fraction(c, probe))
    # a different seed reshuffles the bootstrap
    d = forest_fit(data, seed=8)
    assert not np.array_equal(forest_vote_fraction(a, probe), forest_vote_fraction(d, probe))


def test_forest_needs_two_rows():
    with pytest.raises(DataError):
        forest_fit(Dataset(np.array([[1.0]]), np.array([0])), seed=0)


def test_cross_validate_separable():
    X = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
    y = np.array([0] * 5 + [1] * 5)
    for kind in ("gnb", "forest"):
        mean, std = cross_validate(Dataset(X, y), 2, kind, seed=3)
        assert mean == 1.0 and std == 0.0
    with pytest.raises(DataError):
        cross_validate(Dataset(X, y), 1, "gnb", seed=0)
    with pytest.raises(DataError):
        cross_validate(Dataset(X, y), 2, "svm", seed=0)


def _trained(kind, seed=11):
    rng = np.random.default_rng(seed)
    X = rng.random((30, 8))
    y = (X[:, 2] > 0.5).astype(int)
    data = Dataset(X[:, :4], y)
    model = gnb_fit(data) if kind == "gnb" else forest_fit(data, seed=seed)
    scaler = MinMaxScaler(mins=np.zeros(8), maxs=np.ones(8))
    return TrainedModel(model, scaler, [0, 1, 2, 3]), X


@pytest.mark.parametrize("kind", ["gnb", "forest"])
def test_save_load_round_trip(kind, tmp_path):
    trained, X = _trained(kind)
    path = tmp_path / "model.json"
    save_model(trained, path)
    loaded = load_model(path)
    assert type(loaded.model) is type(trained.model)
    doc = json.loads(path.read_text())
    assert doc["kind"] == kind and doc["session_secs"] == 900.0  # the one window
    assert loaded.selected_idx == [0, 1, 2, 3]
    l1, c1 = trained.predict_with_confidence(X)
    l2, c2 = loaded.predict_with_confidence(X)
    assert np.array_equal(l1, l2)
    assert np.allclose(c1, c2)
    # serialization is byte-stable
    save_model(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_load_rejects_corruption(tmp_path):
    path = tmp_path / "model.json"
    trained, _ = _trained("forest")
    save_model(trained, path)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    with pytest.raises(ModelFormatError):
        load_model(path)
    path.write_text('{"version": "someone-elses-v9"}')
    with pytest.raises(ModelFormatError):
        load_model(path)


def _edited_model(tmp_path, kind, edit):
    """A saved model whose JSON document ``edit`` changed in place."""
    path = tmp_path / "model.json"
    save_model(_trained(kind)[0], path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


def _deepest_split(doc):
    node = doc["params"]["trees"][0]
    while "leaf" not in node["l"]:
        node = node["l"]
    return node


@pytest.mark.parametrize("kind, edit, message", [
    ("forest", lambda d: _deepest_split(d).update(f=99), "splits on feature 99 of 4"),
    ("forest", lambda d: _deepest_split(d).update(f=-1), "splits on feature -1 of 4"),
    ("forest", lambda d: _deepest_split(d)["l"].update(leaf=2), "leaf label 2 is not 0 or 1"),
    ("forest", lambda d: d["params"].update(n_features=5), "forest has 5 features, 4 selected"),
    ("forest", lambda d: d["params"].update(trees=[]), "forest has no trees"),
    ("forest", lambda d: d.update(selected=[0, 1, 2, 8]), "are not all below 8"),
    ("gnb", lambda d: d["scaler"].update(maxs=[1.0] * 7), "mins and maxs differ in length"),
    ("gnb", lambda d: d.update(selected=[0, 1, 2]), "2 classes x 3 features"),
    ("gnb", lambda d: d["params"].update(priors=[1.0]), "2 classes x 4 features"),
    ("gnb", lambda d: d["scaler"]["maxs"].__setitem__(3, math.inf),
     "non-finite number in the scaler"),
    ("forest", lambda d: d["scaler"]["mins"].__setitem__(0, math.nan),
     "non-finite number in the scaler"),
    ("gnb", lambda d: d["params"]["priors"].__setitem__(0, math.nan),
     "non-finite number in the GNB parameters"),
    ("gnb", lambda d: d["params"]["theta"][1].__setitem__(2, -math.inf),
     "non-finite number in the GNB parameters"),
    ("gnb", lambda d: d["params"]["var"][0].__setitem__(0, math.inf),
     "non-finite number in the GNB parameters"),
    ("gnb", lambda d: d["params"].update(var_smoothing=math.nan),
     "non-finite number in the GNB parameters"),
    ("forest", lambda d: _deepest_split(d).update(t=math.inf), "a tree threshold is inf"),
    # every model is trained on the one session window, 900 s
    ("forest", lambda d: d.update(session_secs=0),
     "session_secs 0.0 is not the session window 900.0"),
    ("gnb", lambda d: d.update(session_secs=-900), "session_secs -900.0 is not the session"),
    ("gnb", lambda d: d.update(session_secs=math.inf), "session_secs inf is not the session"),
    ("forest", lambda d: d.update(session_secs=math.nan), "session_secs nan is not the session"),
    ("gnb", lambda d: d.update(session_secs=300.0), "session_secs 300.0 is not the session"),
], ids=["feature-99", "negative-feature", "leaf-2", "n-features", "no-trees",
        "selected-range", "scaler-lengths", "gnb-width", "gnb-priors", "scaler-inf",
        "scaler-nan", "priors-nan", "theta-inf", "var-inf", "var-smoothing-nan",
        "threshold-inf", "session-secs-0", "session-secs-negative", "session-secs-inf",
        "session-secs-nan", "session-secs-300"])
def test_load_rejects_inconsistent_model(tmp_path, kind, edit, message):
    path = _edited_model(tmp_path, kind, edit)
    with pytest.raises(ModelFormatError, match=f"model file {path}: .*{message}"):
        load_model(path)


def test_load_rejects_too_deep_tree(tmp_path):
    path = tmp_path / "model.json"
    save_model(_trained("forest")[0], path)
    deep = '{"l": ' * 5000 + '{"leaf": 0}' + "}" * 5000
    path.write_text(path.read_text().replace('"trees": [', f'"trees": [{deep}, ', 1))
    with pytest.raises(ModelFormatError, match="recursion"):
        load_model(path)


def test_predict_rejects_wrong_width():
    trained, _ = _trained("gnb")
    with pytest.raises(DataError):
        trained.predict_with_confidence(np.zeros((2, 5)))
