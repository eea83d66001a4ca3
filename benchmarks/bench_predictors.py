"""Tree-ensemble predict and revive — array traversal vs linked-node walks.

Not a paper figure: the paper's strongest predictor is a 500-tree,
depth-5 boosted ensemble (§VI-C), and selection is only cheap at query
time if that ensemble is.  One such ensemble is fitted on a synthetic
40-feature regression problem, then timed against the algorithm its
trees used before they were arrays — one linked node object per tree
node, rebuilt here from the same arrays:

- ``predict`` at 48 rows (one ``/v1/rank`` over a 48-model zoo) and at
  10k rows (a large zoo), against walking those nodes row by row, tree
  by tree.  The two must agree bit for bit.
- revive of one packed artifact (``.npz`` read + ``set_state``), against
  reading the same ensemble in the one-array-set-per-tree layout and
  linking its nodes.

Gates: ≥10x at 48 rows, ≥5x at 10k rows, ≥5x on revive.  A regression
back to per-row Python walks or per-tree artifact members fails them.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

from benchmarks.conftest import print_header
from repro.predictors import GradientBoostingRegressor
from repro.strategies.artifacts import _pack_value, _unpack_value

_FEATURES = 40
_NODE_KEYS = ("feature", "threshold", "value", "left", "right")


def _median_s(fn, rounds: int) -> float:
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _paired(fast, slow, rounds: int, fast_reps: int) -> tuple[float, float]:
    """Median seconds of ``fast`` and ``slow``, timed in alternating rounds.

    Alternating keeps host drift out of the ratio of the two.
    """
    fast_s, slow_s = [], []
    for _ in range(rounds):
        fast_s.append(_median_s(fast, fast_reps))
        slow_s.append(_median_s(slow, 1))
    return float(np.median(fast_s)), float(np.median(slow_s))


class _LinkedNode:
    """One tree node as an object: the representation the walk reads."""

    def __init__(self, nodes: dict, i: int):
        self.value = nodes["value"][i]
        self.feature = nodes["feature"][i]
        self.threshold = nodes["threshold"][i]
        self.left = self.right = None
        if nodes["left"][i] != i:
            self.left = _LinkedNode(nodes, nodes["left"][i])
            self.right = _LinkedNode(nodes, nodes["right"][i])

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _link(nodes: dict, roots) -> list[_LinkedNode]:
    lists = {key: nodes[key].tolist() for key in _NODE_KEYS}
    return [_LinkedNode(lists, root) for root in roots]


def _walk_rows(roots: list[_LinkedNode], base: float, scale: float,
               x: np.ndarray) -> np.ndarray:
    """Per-row, per-tree walk, summed tree by tree like ``predict``."""
    out = np.full(x.shape[0], base)
    for root in roots:
        leaves = np.empty(x.shape[0])
        for r, row in enumerate(x):
            node = root
            while not node.is_leaf:
                node = node.left if row[node.feature] <= node.threshold else node.right
            leaves[r] = node.value
        out += scale * leaves
    return out


def _per_tree_state(state: dict) -> dict:
    """The same ensemble as one node-array set per tree, tree-local indices."""
    state = dict(state)
    nodes = state.pop("nodes")
    bounds = [*nodes["tree_offset"].tolist(), len(nodes["value"])]
    state["trees"] = [
        {key: nodes[key][start:stop] - (start if key in ("left", "right") else 0)
         for key in _NODE_KEYS}
        for start, stop in zip(bounds, bounds[1:])]
    return state


def _write(path, state: dict) -> None:
    arrays: dict[str, np.ndarray] = {}
    meta = _pack_value(state, arrays, "predictor")
    path.mkdir()
    (path / "meta.json").write_text(json.dumps(meta))
    np.savez_compressed(path / "arrays.npz", **arrays)


def _read(path) -> dict:
    meta = json.loads((path / "meta.json").read_text())
    with np.load(path / "arrays.npz") as npz:
        arrays = {key: npz[key] for key in npz.files}
    return _unpack_value(meta, arrays)


def _members(path) -> int:
    with np.load(path / "arrays.npz") as npz:
        return len(npz.files)


def _run(tmp_path) -> dict[str, float]:
    rng = np.random.default_rng(0)
    x = rng.normal(size=(400, _FEATURES))
    y = np.sin(x[:, 0]) + x[:, 1] * x[:, 2] + 0.1 * rng.normal(size=400)
    model = GradientBoostingRegressor(n_estimators=500, max_depth=5).fit(x, y)

    walk = functools.partial(
        _walk_rows, _link(model.nodes_, model.nodes_["tree_offset"].tolist()),
        model.base_prediction_, model.learning_rate)
    rows: dict[str, float] = {}
    for n, rounds, reps in ((48, 7, 15), (10_000, 2, 2)):
        probe = rng.normal(size=(n, _FEATURES))
        assert np.array_equal(model.predict(probe), walk(probe))
        rows[f"predict_{n}"], rows[f"walk_{n}"] = _paired(
            lambda: model.predict(probe), lambda: walk(probe), rounds, reps)

    packed, per_tree = tmp_path / "packed", tmp_path / "per_tree"
    _write(packed, model.get_state())
    _write(per_tree, _per_tree_state(model.get_state()))
    revived = GradientBoostingRegressor().set_state(_read(packed))
    assert np.array_equal(revived.predict(x), model.predict(x))
    rows["revive"] = _median_s(
        lambda: GradientBoostingRegressor().set_state(_read(packed)), 9)
    rows["revive_per_tree"] = _median_s(
        lambda: [_link(tree, [0]) for tree in _read(per_tree)["trees"]], 9)
    rows["members"], rows["members_per_tree"] = _members(packed), _members(per_tree)
    return rows


def test_bench_predictors(benchmark, tmp_path):
    rows = benchmark.pedantic(_run, args=(tmp_path,), rounds=1, iterations=1)
    speedups = {
        "predict, 48 rows": rows["walk_48"] / rows["predict_48"],
        "predict, 10k rows": rows["walk_10000"] / rows["predict_10000"],
        "revive": rows["revive_per_tree"] / rows["revive"],
    }
    print_header("Tree-ensemble predict and revive — 500 trees, depth 5, "
                 f"{_FEATURES} features")
    for n in (48, 10_000):
        print(f"  predict {n:>6} rows     {rows[f'predict_{n}'] * 1e3:10.2f} ms"
              f"   linked-node walk   {rows[f'walk_{n}'] * 1e3:10.2f} ms")
    print(f"  revive (read+set_state) {rows['revive'] * 1e3:10.2f} ms"
          f"   per-tree read+link {rows['revive_per_tree'] * 1e3:10.2f} ms")
    print(f"  npz members             {rows['members']:10d}"
          f"   per-tree           {rows['members_per_tree']:10d}")
    for name, ratio in speedups.items():
        print(f"  speedup, {name:<16} {ratio:8.1f}x")
    assert speedups["predict, 48 rows"] >= 10.0
    assert speedups["predict, 10k rows"] >= 5.0
    assert speedups["revive"] >= 5.0
