"""Random forest regressor (§VI-C: "number of trees 100, max depth 5")."""

from __future__ import annotations

import numpy as np

from repro.predictors.base import validate_xy
from repro.predictors.tree import (DecisionTreeRegressor, TreeModel,
                                   concat_trees, sum_trees)
from repro.utils.rng import derive_seed

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor(TreeModel):
    """Bootstrap-aggregated CART trees with feature subsampling."""

    name = "random_forest"
    _params = ("n_estimators", "max_depth", "min_samples_leaf",
               "max_features", "seed")

    def __init__(self, n_estimators: int = 100, max_depth: int = 5,
                 min_samples_leaf: int = 1, max_features: int | str = "sqrt",
                 seed: int = 0):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed

    def fit(self, x, y) -> "RandomForestRegressor":
        x, y = validate_xy(x, y)
        self._n_features = x.shape[1]
        n = x.shape[0]
        trees = []
        for i in range(self.n_estimators):
            rng = np.random.default_rng(derive_seed(self.seed, "tree", str(i)))
            idx = rng.integers(0, n, size=n)  # bootstrap sample
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=rng,
            )
            trees.append(tree.fit(x[idx], y[idx]))
        self.nodes_ = concat_trees(trees)
        return self

    def predict(self, x) -> np.ndarray:
        nodes = self._fitted("predict()")
        x = self._check_predict_input(x, self._n_features)
        return (sum_trees(nodes, x, self.max_depth, 0.0, 1.0)
                / len(nodes["tree_offset"]))
