"""Tests for the prediction models: LR, CART, RF, gradient boosting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predictors import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    LinearRegression,
    PREDICTORS,
    RandomForestRegressor,
    get_predictor,
)
from repro.predictors.tree import leaf_values


def linear_data(n=120, d=5, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = x @ w + 1.5 + noise * rng.normal(size=n)
    return x, y, w


def step_data(n=200, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2, 2, size=(n, 3))
    y = np.where(x[:, 0] > 0.3, 2.0, -1.0) + 0.05 * rng.normal(size=n)
    return x, y


class TestRegistry:
    def test_aliases(self):
        assert set(PREDICTORS) == {"lr", "rf", "xgb", "tree"}

    def test_get_predictor(self):
        assert isinstance(get_predictor("lr"), LinearRegression)
        assert isinstance(get_predictor("rf", n_estimators=5),
                          RandomForestRegressor)

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_predictor("catboost")


class TestLinearRegression:
    def test_recovers_linear_function(self):
        x, y, _ = linear_data(noise=0.0)
        model = LinearRegression(alpha=1e-9)
        preds = model.fit(x, y).predict(x)
        assert np.allclose(preds, y, atol=1e-6)

    def test_intercept_learned(self):
        x = np.zeros((50, 2))
        y = np.full(50, 3.7)
        model = LinearRegression().fit(x, y)
        assert model.predict(np.zeros((1, 2)))[0] == pytest.approx(3.7)

    def test_handles_collinear_features(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=(80, 1))
        x = np.hstack([col, col, col])  # perfectly collinear
        y = col[:, 0] * 2.0
        preds = LinearRegression().fit(x, y).predict(x)
        assert np.corrcoef(preds, y)[0, 1] > 0.999

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            LinearRegression().predict(np.ones((2, 2)))

    def test_feature_count_check(self):
        x, y, _ = linear_data()
        model = LinearRegression().fit(x, y)
        with pytest.raises(ValueError, match="features"):
            model.predict(np.ones((2, 3)))

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            LinearRegression(alpha=-1.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.array([[np.nan]]), np.array([1.0]))


class TestDecisionTree:
    def test_learns_step_function(self):
        x, y = step_data()
        tree = DecisionTreeRegressor(max_depth=3).fit(x, y)
        preds = tree.predict(x)
        assert ((preds > 0.5) == (y > 0.5)).mean() > 0.95

    def test_respects_max_depth(self):
        x, y = step_data()
        tree = DecisionTreeRegressor(max_depth=2).fit(x, y)
        assert tree.depth() <= 2

    def test_depth_one_is_stump(self):
        x, y = step_data()
        tree = DecisionTreeRegressor(max_depth=1).fit(x, y)
        assert tree.num_leaves() <= 2

    def test_constant_target_single_leaf(self):
        x = np.random.default_rng(0).normal(size=(30, 4))
        tree = DecisionTreeRegressor().fit(x, np.ones(30))
        assert tree.num_leaves() == 1
        assert np.allclose(tree.predict(x), 1.0)

    def test_min_samples_leaf(self):
        x, y = step_data(n=40)
        tree = DecisionTreeRegressor(max_depth=8, min_samples_leaf=10).fit(x, y)
        # with a leaf floor of 10 on 40 points, at most 4 leaves
        assert tree.num_leaves() <= 4

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    def test_bad_max_features_type(self):
        x, y = step_data(n=30)
        with pytest.raises(ValueError, match="max_features"):
            DecisionTreeRegressor(max_features="log9").fit(x, y)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_predictions_within_target_range(self, seed):
        """Property: tree predictions are convex combinations of y."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=40) * rng.uniform(0.1, 5)
        tree = DecisionTreeRegressor(max_depth=4).fit(x, y)
        preds = tree.predict(rng.normal(size=(20, 3)))
        assert preds.min() >= y.min() - 1e-9
        assert preds.max() <= y.max() + 1e-9


class TestRandomForest:
    def test_fits_nonlinear_function(self):
        x, y = step_data()
        forest = RandomForestRegressor(n_estimators=30, max_depth=4, seed=0)
        preds = forest.fit(x, y).predict(x)
        assert np.corrcoef(preds, y)[0, 1] > 0.9

    def test_deterministic_given_seed(self):
        x, y = step_data()
        p1 = RandomForestRegressor(n_estimators=10, seed=4).fit(x, y).predict(x)
        p2 = RandomForestRegressor(n_estimators=10, seed=4).fit(x, y).predict(x)
        assert np.allclose(p1, p2)

    def test_seed_changes_predictions(self):
        x, y = step_data()
        p1 = RandomForestRegressor(n_estimators=5, seed=0).fit(x, y).predict(x)
        p2 = RandomForestRegressor(n_estimators=5, seed=1).fit(x, y).predict(x)
        assert not np.allclose(p1, p2)

    def test_averaging_reduces_variance(self):
        """Forest test error should beat the average single-tree error."""
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, size=(150, 4))
        y = np.sin(2 * x[:, 0]) + 0.3 * rng.normal(size=150)
        x_test = rng.uniform(-2, 2, size=(100, 4))
        y_test = np.sin(2 * x_test[:, 0])

        forest = RandomForestRegressor(n_estimators=40, max_depth=6, seed=0)
        forest.fit(x, y)
        forest_mse = ((forest.predict(x_test) - y_test) ** 2).mean()
        per_tree = leaf_values(forest.nodes_, forest.nodes_["tree_offset"],
                               x_test, forest.max_depth)
        tree_mses = ((per_tree - y_test) ** 2).mean(axis=1)
        assert forest_mse < np.mean(tree_mses)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor().predict(np.ones((1, 2)))


class TestGradientBoosting:
    def test_fits_nonlinear_function(self):
        x, y = step_data()
        model = GradientBoostingRegressor(n_estimators=50, max_depth=3, seed=0)
        preds = model.fit(x, y).predict(x)
        assert np.corrcoef(preds, y)[0, 1] > 0.95

    def test_train_error_decreases(self):
        x, y = step_data()
        model = GradientBoostingRegressor(n_estimators=40, max_depth=2,
                                          subsample=1.0, seed=0).fit(x, y)
        errors = model.staged_train_error(x, y)
        assert errors[-1] < errors[0]
        # broadly monotone: tail error below the first-quarter error
        assert errors[-1] <= errors[len(errors) // 4]

    def test_single_tree_equals_shrunk_stump(self):
        x, y = step_data()
        model = GradientBoostingRegressor(n_estimators=1, max_depth=1,
                                          learning_rate=0.5, subsample=1.0,
                                          seed=0).fit(x, y)
        preds = model.predict(x)
        assert len(np.unique(preds.round(9))) <= 2  # stump + base

    def test_deterministic(self):
        x, y = step_data()
        m1 = GradientBoostingRegressor(n_estimators=20, seed=7).fit(x, y)
        m2 = GradientBoostingRegressor(n_estimators=20, seed=7).fit(x, y)
        assert np.allclose(m1.predict(x), m2.predict(x))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=1.5)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)

    def test_predict_before_fit(self):
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(np.ones((1, 2)))


class TestAllPredictorsInterface:
    @pytest.mark.parametrize("name,kwargs", [
        ("lr", {}),
        ("rf", {"n_estimators": 10}),
        ("xgb", {"n_estimators": 20}),
    ])
    def test_fit_predict_roundtrip(self, name, kwargs):
        x, y, _ = linear_data(n=60)
        model = get_predictor(name, **kwargs)
        preds = model.fit(x, y).predict(x)
        assert preds.shape == y.shape
        assert np.isfinite(preds).all()
        # anything reasonable correlates strongly on its own training data
        assert np.corrcoef(preds, y)[0, 1] > 0.5
