"""Gradient-boosted regression trees — the paper's "XGBoost" model.

§VI-C: "XGBoost is an ensemble of decision trees and minimizes the
objective function with gradient descent.  We set the number of trees as
500, and maximum depth as 5."

For squared loss, each boosting round fits a CART tree to the current
residuals and adds a shrunken copy to the ensemble.  Optional row
subsampling gives the stochastic variant; early rounds dominate thanks to
the learning rate, so 500 shallow trees remain well-behaved on small
training sets.
"""

from __future__ import annotations

import numpy as np

from repro.predictors.base import validate_xy
from repro.predictors.tree import (DecisionTreeRegressor, TreeModel,
                                   concat_trees, staged_sums, sum_trees)
from repro.utils.rng import derive_seed

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor(TreeModel):
    """Squared-loss gradient boosting with shrinkage and subsampling."""

    name = "xgboost"
    _params = ("n_estimators", "max_depth", "learning_rate", "subsample",
               "min_samples_leaf", "seed", "colsample")

    def __init__(self, n_estimators: int = 500, max_depth: int = 5,
                 learning_rate: float = 0.05, subsample: float = 0.8,
                 min_samples_leaf: int = 2, seed: int = 0,
                 colsample: int | str | None = "sqrt"):
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not (0.0 < learning_rate <= 1.0):
            raise ValueError("learning_rate must be in (0, 1]")
        if not (0.0 < subsample <= 1.0):
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate
        self.subsample = subsample
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        # per-node feature subsampling (XGBoost's colsample_bylevel);
        # "sqrt" keeps wide embedding blocks tractable.
        self.colsample = colsample
        self.base_prediction_: float = 0.0

    def fit(self, x, y) -> "GradientBoostingRegressor":
        x, y = validate_xy(x, y)
        self._n_features = x.shape[1]
        n = x.shape[0]
        self.base_prediction_ = float(y.mean())
        current = np.full(n, self.base_prediction_)
        trees = []

        for i in range(self.n_estimators):
            residuals = y - current
            rng = np.random.default_rng(derive_seed(self.seed, "boost", str(i)))
            if self.subsample < 1.0:
                size = max(self.min_samples_leaf * 2,
                           int(round(self.subsample * n)))
                idx = rng.choice(n, size=min(size, n), replace=False)
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.colsample,
                rng=rng,
            )
            tree.fit(x[idx], residuals[idx])
            current += self.learning_rate * tree.predict(x)
            trees.append(tree)
        self.nodes_ = concat_trees(trees)
        return self

    def predict(self, x) -> np.ndarray:
        nodes = self._fitted("predict()")
        x = self._check_predict_input(x, self._n_features)
        return sum_trees(nodes, x, self.max_depth, self.base_prediction_,
                         self.learning_rate)

    def get_state(self) -> dict:
        return {**super().get_state(), "base_prediction": self.base_prediction_}

    def set_state(self, state: dict) -> "GradientBoostingRegressor":
        super().set_state(state)
        self.base_prediction_ = float(state["base_prediction"])
        return self

    def staged_train_error(self, x, y) -> np.ndarray:
        """MSE on (x, y) after each boosting round (diagnostics/tests)."""
        nodes = self._fitted("staged_train_error()")
        x, y = validate_xy(x, y)
        staged = staged_sums(nodes, x, self.max_depth,
                             self.base_prediction_, self.learning_rate)
        return ((y - staged[1:]) ** 2).mean(axis=1)
