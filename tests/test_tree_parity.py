"""Array-native trees reproduce the linked-node trees they replaced.

``golden/tree_parity.json`` was recorded from the previous per-row
implementation (a linked ``_Node`` tree per estimator, walked one row at
a time): the sha256 of ``predict`` output bytes, of every node array in
the old per-tree layout (leaves as ``feature == left == right == -1``,
tree-local child indices, trees concatenated in order), and of boosting's
``staged_train_error``.  The current trees must reproduce all of them bit
for bit: same RNG draws, same split search, same summation order.

The hypothesis tests compare the vectorised traversal against a per-row
reference walker that lives only here.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    RandomForestRegressor,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "tree_parity.json").read_text())


def parity_data():
    rng = np.random.default_rng(20240417)
    x = rng.integers(0, 10, size=(120, 9)).astype(np.float64)
    y = (np.sin(x[:, 0]) + 0.3 * x[:, 1] - 0.1 * x[:, 2] * x[:, 3]
         + 0.2 * rng.normal(size=120))
    # half-integer probes land exactly on many midpoint thresholds
    probe = np.concatenate([x, rng.integers(0, 20, size=(64, 9)) / 2.0])
    return x, y, probe


def parity_models():
    return {
        "tree": DecisionTreeRegressor(max_depth=5, max_features="sqrt",
                                      rng=np.random.default_rng(3)),
        "tree_full": DecisionTreeRegressor(max_depth=4, min_samples_leaf=3),
        "rf": RandomForestRegressor(n_estimators=16, max_depth=5, seed=11),
        "xgb": GradientBoostingRegressor(n_estimators=40, max_depth=4, seed=5),
        "xgb_full": GradientBoostingRegressor(
            n_estimators=10, max_depth=3, learning_rate=0.3, subsample=1.0,
            colsample=None, seed=2),
    }


def sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def linked_layout(nodes: dict) -> dict:
    """The node arrays re-encoded the way the linked-node trees flattened."""
    n = len(nodes["value"])
    roots = nodes.get("tree_offset", np.zeros(1, dtype=np.int64))
    start = np.repeat(roots, np.diff(np.append(roots, n)))  # each node's root
    leaf = nodes["left"] == np.arange(n)
    return {
        "feature": np.where(leaf, -1, nodes["feature"]),
        "threshold": nodes["threshold"],
        "value": nodes["value"],
        "left": np.where(leaf, -1, nodes["left"] - start),
        "right": np.where(leaf, -1, nodes["right"] - start),
    }


@pytest.fixture(scope="module")
def fitted():
    x, y, probe = parity_data()
    return x, y, probe, {name: model.fit(x, y)
                         for name, model in parity_models().items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_predictions_match_golden(fitted, name):
    _, _, probe, models = fitted
    assert sha(models[name].predict(probe)) == GOLDEN[name]["predict"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fitted_trees_match_golden(fitted, name):
    nodes = linked_layout(fitted[3][name].get_state()["nodes"])
    for key, array in nodes.items():
        assert sha(array) == GOLDEN[name][key], key


@pytest.mark.parametrize("name", ["xgb", "xgb_full"])
def test_staged_train_error_matches_golden(fitted, name):
    x, y, _, models = fitted
    assert (sha(models[name].staged_train_error(x, y))
            == GOLDEN[name]["staged_train_error"])


# ---------------------------------------------------------------------- #
# vectorised traversal vs a per-row reference walker
# ---------------------------------------------------------------------- #
def walk(nodes: dict, root: int, row: np.ndarray) -> float:
    """Per-row reference: follow ``<=``-goes-left until a self-loop leaf."""
    i = root
    while nodes["left"][i] != i:
        go_left = row[nodes["feature"][i]] <= nodes["threshold"][i]
        i = nodes["left"][i] if go_left else nodes["right"][i]
    return nodes["value"][i]


def reference_sum(nodes, x, base, scale):
    """Tree-ordered ``out += scale * tree`` loop over the walker."""
    out = np.full(x.shape[0], base)
    for root in nodes["tree_offset"]:
        out += scale * np.array([walk(nodes, root, row) for row in x])
    return out


def integer_data(seed, n, d):
    """Integer features + probes on the half-grid: exact threshold ties."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 6, size=(n, d)).astype(np.float64)
    y = x[:, 0] - 2.0 * (x[:, -1] > 2) + rng.normal(size=n)
    return x, y, rng


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), depth=st.integers(1, 6),
       n_probe=st.sampled_from([0, 1, 7, 200]))
def test_tree_predict_matches_walker(seed, depth, n_probe):
    x, y, rng = integer_data(seed, 40, 3)
    tree = DecisionTreeRegressor(max_depth=depth).fit(x, y)
    probe = rng.integers(0, 11, size=(n_probe, 3)) / 2.0
    expected = np.array([walk(tree.nodes_, 0, row) for row in probe])
    assert np.array_equal(tree.predict(probe), expected)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16), n_probe=st.sampled_from([0, 1, 5, 90]),
       boosted=st.booleans())
def test_ensemble_predict_matches_walker_sum(seed, n_probe, boosted):
    x, y, rng = integer_data(seed, 50, 4)
    probe = rng.integers(0, 11, size=(n_probe, 4)) / 2.0
    if boosted:
        model = GradientBoostingRegressor(n_estimators=12, max_depth=3,
                                          learning_rate=0.3, seed=seed).fit(x, y)
        expected = reference_sum(model.nodes_, probe, model.base_prediction_,
                                 model.learning_rate)
    else:
        model = RandomForestRegressor(n_estimators=9, max_depth=3,
                                      seed=seed).fit(x, y)
        expected = reference_sum(model.nodes_, probe, 0.0, 1.0) / 9
    assert np.array_equal(model.predict(probe), expected)


def test_constant_target_is_one_self_loop_leaf():
    x = np.arange(12.0).reshape(6, 2)
    tree = DecisionTreeRegressor(max_depth=4).fit(x, np.full(6, 2.5))
    assert tree.nodes_["left"].tolist() == [0] == tree.nodes_["right"].tolist()
    assert np.array_equal(tree.predict(x), np.full(6, 2.5))
    assert tree.depth() == 0 and tree.num_leaves() == 1


def test_stump_threshold_tie_goes_left():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    tree = DecisionTreeRegressor(max_depth=1).fit(x, [0.0, 0.0, 10.0, 10.0])
    assert tree.nodes_["threshold"][0] == 1.5
    assert tree.predict([[1.5], [1.5000001]]).tolist() == [0.0, 10.0]
    assert tree.depth() == 1 and tree.num_leaves() == 2


def test_predict_is_blocked_but_identical(monkeypatch):
    """Row blocking changes memory, never the bits."""
    import repro.predictors.tree as tree_module

    x, y, rng = integer_data(1, 60, 3)
    model = GradientBoostingRegressor(n_estimators=30, max_depth=3).fit(x, y)
    probe = rng.integers(0, 11, size=(500, 3)) / 2.0
    whole = model.predict(probe)
    monkeypatch.setattr(tree_module, "_BLOCK_CELLS", 30 * 7)
    assert np.array_equal(model.predict(probe), whole)


@pytest.mark.parametrize("key,bad", [("left", 10**6), ("right", -1),
                                     ("feature", 9), ("tree_offset", -1)])
def test_set_state_rejects_malformed_node_arrays(key, bad):
    """A corrupt stored index must fail the load, not predict silently."""
    x, y, _ = parity_data()
    state = RandomForestRegressor(n_estimators=3).fit(x, y).get_state()
    state["nodes"] = dict(state["nodes"], **{key: state["nodes"][key].copy()})
    state["nodes"][key][-1] = bad
    with pytest.raises(ValueError, match="malformed tree node arrays"):
        RandomForestRegressor().set_state(state)


def test_set_state_adopts_stored_arrays_without_copying():
    x, y, _ = parity_data()
    state = GradientBoostingRegressor(n_estimators=4).fit(x, y).get_state()
    revived = GradientBoostingRegressor().set_state(state)
    for key, array in state["nodes"].items():
        assert revived.nodes_[key] is array, key
