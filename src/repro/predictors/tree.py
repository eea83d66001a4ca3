"""CART regression trees — the building block of RF and gradient boosting.

A fitted tree *is* five parallel preorder arrays — ``feature``,
``threshold``, ``value``, ``left``, ``right`` — and those arrays are also
its serialised state.  A leaf is a self-loop (``left[i] == right[i] ==
i``) with a valid ``feature``, so prediction is a fixed number of
mask-free, level-synchronous steps: every (tree, row) cursor advances
``max_depth`` times, and a cursor that reaches a leaf early stays put.
Ensembles concatenate their trees into one set of arrays plus
``tree_offset`` (each tree's root), whatever their tree count.

Split search is vectorised per feature: sort once, then evaluate every
candidate threshold with prefix sums of y and y², choosing the split that
minimises the weighted sum of child variances (equivalently, maximises
variance reduction).
"""

from __future__ import annotations

import numpy as np

from repro.predictors.base import Regressor, validate_xy

__all__ = ["DecisionTreeRegressor", "TreeModel", "leaf_values", "staged_sums",
           "sum_trees", "concat_trees"]

#: the node arrays of a fitted tree, in state order, with their dtypes
NODE_DTYPES = {"feature": np.int64, "threshold": np.float64,
               "value": np.float64, "left": np.int64, "right": np.int64}

#: an ensemble's state arrays: every tree's nodes, then each tree's root
_ENSEMBLE_KEYS = (*NODE_DTYPES, "tree_offset")

#: (tree, row) cursors per traversal block: bounds predict's working set
_BLOCK_CELLS = 1 << 16

_ROOT = np.zeros(1, dtype=np.int64)


def leaf_values(nodes: dict, roots: np.ndarray, x: np.ndarray,
                steps: int) -> np.ndarray:
    """Value of the leaf each row of ``x`` reaches in each tree.

    Returns shape ``(len(roots), len(x))``.  ``x[row, feature] <=
    threshold`` goes left; ``steps`` must be at least the deepest tree's
    depth.
    """
    feature, threshold = nodes["feature"], nodes["threshold"]
    # child[2 * i + goes_left]: one gather per step instead of two + where
    child = np.stack([nodes["right"], nodes["left"]], axis=1).ravel()
    flat = np.ascontiguousarray(x).ravel()
    row_start = np.arange(x.shape[0]) * x.shape[1]
    # step one: all of a tree's cursors sit at its root, so compare columns
    node = child[2 * roots[:, None]
                 + (x[:, feature[roots]].T <= threshold[roots][:, None])]
    for _ in range(steps - 1):
        at = feature[node]
        at += row_start
        goes_left = flat[at] <= threshold[node]
        node *= 2
        node += goes_left
        node = child[node]
    return nodes["value"][node]


def staged_sums(nodes: dict, x: np.ndarray, steps: int, base: float,
                scale: float) -> np.ndarray:
    """Ensemble sums after 0, 1, …, n_trees trees: ``(n_trees + 1, len(x))``.

    Row 0 is ``base``; ``scale * leaf`` is added one tree at a time in
    tree order (``np.add.accumulate``), exactly as a Python loop of
    ``out += scale * tree.predict(x)`` adds — a pairwise ``np.sum``
    would not match it bit for bit.
    """
    leaves = leaf_values(nodes, nodes["tree_offset"], x, steps)
    terms = np.empty((leaves.shape[0] + 1, x.shape[0]))
    terms[0] = base
    np.multiply(leaves, scale, out=terms[1:])
    return np.add.accumulate(terms, axis=0, out=terms)


def sum_trees(nodes: dict, x: np.ndarray, steps: int, base: float,
              scale: float) -> np.ndarray:
    """The last row of :func:`staged_sums`, computed in bounded row blocks."""
    out = np.empty(x.shape[0])
    block = max(1, _BLOCK_CELLS // len(nodes["tree_offset"]))
    for start in range(0, x.shape[0], block):
        rows = slice(start, start + block)
        out[rows] = staged_sums(nodes, x[rows], steps, base, scale)[-1]
    return out


def concat_trees(trees: list["DecisionTreeRegressor"]) -> dict:
    """One set of node arrays for ``trees``, plus each tree's root offset."""
    sizes = [len(tree.nodes_["value"]) for tree in trees]
    offset = np.cumsum([0] + sizes[:-1], dtype=np.int64)
    nodes = {key: np.concatenate([tree.nodes_[key] for tree in trees])
             for key in NODE_DTYPES}
    shift = np.repeat(offset, sizes)
    nodes["left"] += shift
    nodes["right"] += shift
    nodes["tree_offset"] = offset
    return nodes


def _adopt_nodes(nodes: dict, keys, n_features: int) -> dict:
    """Stored node arrays as the live tree: no copy when dtypes match.

    Raises ``ValueError`` on arrays that cannot describe a tree over
    ``n_features`` inputs (ragged lengths, indices out of range), so a
    malformed artifact degrades to a refit instead of a wrong predict.
    """
    out = {key: np.asarray(nodes[key], dtype=NODE_DTYPES.get(key, np.int64))
           for key in keys}
    n = len(out["value"])
    bounds = {"feature": n_features, "left": n, "right": n, "tree_offset": n}
    if (any(out[key].shape != (n,) for key in NODE_DTYPES)
            or any(out[key].size == 0 or (out[key] < 0).any()
                   or (out[key] >= bounds[key]).any()
                   for key in keys if key in bounds)):
        raise ValueError("malformed tree node arrays")
    return out


def _best_split_for_feature(values: np.ndarray, y: np.ndarray,
                            min_leaf: int) -> tuple[float, float]:
    """(score, threshold) of the best split on one feature.

    Score = total squared-error reduction; -inf when no valid split.
    """
    order = np.argsort(values, kind="mergesort")
    v = values[order]
    ys = y[order]
    n = len(ys)

    csum = np.cumsum(ys)
    csq = np.cumsum(ys**2)
    total_sum, total_sq = csum[-1], csq[-1]

    # candidate split after position i (left = [0..i]), need both children
    # to satisfy min_leaf and the threshold to separate distinct values.
    idx = np.arange(min_leaf - 1, n - min_leaf)
    if idx.size == 0:
        return -np.inf, 0.0
    distinct = v[idx] < v[idx + 1]
    idx = idx[distinct]
    if idx.size == 0:
        return -np.inf, 0.0

    left_n = idx + 1.0
    right_n = n - left_n
    left_sum = csum[idx]
    right_sum = total_sum - left_sum
    left_sq = csq[idx]
    right_sq = total_sq - left_sq

    # SSE of a group = sum(y²) - (sum y)²/n ; minimise children total.
    sse = (left_sq - left_sum**2 / left_n) + (right_sq - right_sum**2 / right_n)
    parent_sse = total_sq - total_sum**2 / n
    gains = parent_sse - sse
    best = int(np.argmax(gains))
    threshold = 0.5 * (v[idx[best]] + v[idx[best] + 1])
    return float(gains[best]), threshold


class TreeModel(Regressor):
    """A regressor whose fitted state is its node arrays (``nodes_``).

    The state is the constructor arguments named in ``_params``, the
    input width and the live node arrays; ``set_state`` re-runs the
    constructor, so stored hyperparameters pass the same validation.
    """

    _params: tuple[str, ...] = ()
    _node_keys: tuple[str, ...] = _ENSEMBLE_KEYS
    nodes_: dict | None = None
    _n_features = 0

    def _fitted(self, what: str) -> dict:
        if self.nodes_ is None:
            raise RuntimeError(f"{what} called before fit()")
        return self.nodes_

    def get_state(self) -> dict:
        nodes = self._fitted("get_state()")
        return {**{name: getattr(self, name) for name in self._params},
                "n_features": self._n_features, "nodes": dict(nodes)}

    def set_state(self, state: dict) -> "TreeModel":
        self.__init__(**{name: state[name] for name in self._params})
        self._n_features = int(state["n_features"])
        self.nodes_ = _adopt_nodes(state["nodes"], self._node_keys,
                                  self._n_features)
        return self


class DecisionTreeRegressor(TreeModel):
    """CART regressor with depth / leaf-size / feature-subsample controls."""

    name = "tree"
    _params = ("max_depth", "min_samples_split", "min_samples_leaf",
               "max_features")
    _node_keys = tuple(NODE_DTYPES)

    def __init__(self, max_depth: int = 5, min_samples_split: int = 2,
                 min_samples_leaf: int = 1,
                 max_features: int | str | None = None,
                 rng: np.random.Generator | None = None):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self._rng = rng or np.random.default_rng(0)

    # ------------------------------------------------------------------ #
    def _features_to_consider(self, d: int) -> np.ndarray:
        if self.max_features is None:
            return np.arange(d)
        if self.max_features == "sqrt":
            k = max(1, int(np.sqrt(d)))
        elif isinstance(self.max_features, int):
            k = max(1, min(self.max_features, d))
        else:
            raise ValueError(f"bad max_features: {self.max_features!r}")
        return self._rng.choice(d, size=k, replace=False)

    def _build(self, x: np.ndarray, y: np.ndarray, depth: int,
               nodes: dict[str, list]) -> int:
        """Append the subtree fitted to ``(x, y)`` in preorder; return its index."""
        i = len(nodes["value"])
        for key, init in zip(NODE_DTYPES, (0, 0.0, float(y.mean()), i, i)):
            nodes[key].append(init)
        if (depth >= self.max_depth or len(y) < self.min_samples_split
                or np.all(y == y[0])):
            return i

        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        for feature in self._features_to_consider(x.shape[1]):
            gain, threshold = _best_split_for_feature(
                x[:, feature], y, self.min_samples_leaf)
            if gain > best_gain + 1e-12:
                best_gain, best_feature, best_threshold = gain, int(feature), threshold

        if best_feature < 0:
            return i

        mask = x[:, best_feature] <= best_threshold
        nodes["feature"][i] = best_feature
        nodes["threshold"][i] = best_threshold
        nodes["left"][i] = self._build(x[mask], y[mask], depth + 1, nodes)
        nodes["right"][i] = self._build(x[~mask], y[~mask], depth + 1, nodes)
        return i

    def fit(self, x, y) -> "DecisionTreeRegressor":
        x, y = validate_xy(x, y)
        self._n_features = x.shape[1]
        nodes: dict[str, list] = {key: [] for key in NODE_DTYPES}
        self._build(x, y, 0, nodes)
        self.nodes_ = {key: np.asarray(nodes[key], dtype=dtype)
                       for key, dtype in NODE_DTYPES.items()}
        return self

    def predict(self, x) -> np.ndarray:
        nodes = self._fitted("predict()")
        x = self._check_predict_input(x, self._n_features)
        return leaf_values(nodes, _ROOT, x, self.max_depth)[0]

    def depth(self) -> int:
        """Actual depth of the fitted tree: levels below the root."""
        nodes = self._fitted("depth()")
        left, right = nodes["left"], nodes["right"]
        level, depth = _ROOT, 0
        while (inner := level[left[level] != level]).size:
            level = np.concatenate([left[inner], right[inner]])
            depth += 1
        return depth

    def num_leaves(self) -> int:
        left = self._fitted("num_leaves()")["left"]
        return int(np.count_nonzero(left == np.arange(len(left))))
