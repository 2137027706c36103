"""ML substrate tests: models recover known structure; metrics behave."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.ml import (
    DecisionTreeRegressor,
    GradientBoostingRegressor,
    LinearRegression,
    MLPRegressor,
    QuantileGradientBoosting,
    Ridge,
    StandardScaler,
    TobitRegressor,
    mae,
    mse,
    prediction_accuracy,
    r2_score,
    train_test_split,
    underestimation_rate,
)
from repro.ml.tree import _Node, presort

RNG = lambda s=0: np.random.default_rng(s)


def linear_data(n=400, d=3, noise=0.1, seed=0):
    rng = RNG(seed)
    X = rng.normal(size=(n, d))
    w = np.array([2.0, -1.0, 0.5])[:d]
    y = X @ w + 3.0 + noise * rng.normal(size=n)
    return X, y, w


class TestLinear:
    def test_recovers_coefficients(self):
        X, y, w = linear_data(noise=0.0)
        m = LinearRegression().fit(X, y)
        assert np.allclose(m.coef_, w, atol=1e-8)
        assert m.intercept_ == pytest.approx(3.0)

    def test_no_intercept(self):
        X, y, _ = linear_data(noise=0.0)
        m = LinearRegression(fit_intercept=False).fit(X, y)
        assert m.intercept_ == 0.0

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LinearRegression().predict(np.zeros((2, 2)))

    def test_1d_X_promoted(self):
        m = LinearRegression().fit(np.arange(10.0), 2 * np.arange(10.0))
        assert m.predict(np.array([100.0]))[0] == pytest.approx(200.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.zeros((3, 2)), np.zeros(4))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            LinearRegression().fit(np.array([[np.nan]]), np.array([1.0]))


class TestRidge:
    def test_alpha_zero_matches_ols(self):
        X, y, _ = linear_data()
        ols = LinearRegression().fit(X, y)
        ridge = Ridge(alpha=0.0).fit(X, y)
        assert np.allclose(ridge.coef_, ols.coef_, atol=1e-8)

    def test_shrinkage_monotone(self):
        X, y, _ = linear_data()
        norms = [
            np.linalg.norm(Ridge(alpha=a).fit(X, y).coef_)
            for a in (0.0, 10.0, 1000.0)
        ]
        assert norms[0] > norms[1] > norms[2]

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            Ridge(alpha=-1.0)


class TestTree:
    def test_fits_step_function(self):
        X = np.linspace(0, 1, 200)[:, None]
        y = (X[:, 0] > 0.5).astype(float)
        m = DecisionTreeRegressor(max_depth=2, min_samples_leaf=2).fit(X, y)
        pred = m.predict(np.array([[0.2], [0.8]]))
        assert pred[0] == pytest.approx(0.0, abs=0.05)
        assert pred[1] == pytest.approx(1.0, abs=0.05)

    def test_depth_limit(self):
        X, y, _ = linear_data(n=500)
        m = DecisionTreeRegressor(max_depth=3, min_samples_leaf=1).fit(X, y)
        assert m.depth <= 3

    def test_min_samples_leaf(self):
        X, y, _ = linear_data(n=40)
        m = DecisionTreeRegressor(max_depth=10, min_samples_leaf=20).fit(X, y)
        assert m.n_leaves <= 2

    def test_constant_target_single_leaf(self):
        X = np.arange(20.0)[:, None]
        m = DecisionTreeRegressor().fit(X, np.full(20, 7.0))
        assert m.n_leaves == 1
        assert np.all(m.predict(X) == 7.0)

    def test_beats_linear_on_nonlinear(self):
        rng = RNG(2)
        X = rng.uniform(-2, 2, size=(600, 1))
        y = np.sin(3 * X[:, 0]) + 0.05 * rng.normal(size=600)
        tree = DecisionTreeRegressor(max_depth=6).fit(X, y)
        lin = LinearRegression().fit(X, y)
        assert mse(y, tree.predict(X)) < mse(y, lin.predict(X)) / 2

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)


class TestBoosting:
    def test_improves_with_stages(self):
        rng = RNG(3)
        X = rng.uniform(-2, 2, size=(500, 2))
        y = X[:, 0] ** 2 + np.sin(2 * X[:, 1])
        weak = GradientBoostingRegressor(n_estimators=3).fit(X, y)
        strong = GradientBoostingRegressor(n_estimators=80).fit(X, y)
        assert mse(y, strong.predict(X)) < mse(y, weak.predict(X)) / 3

    def test_early_stopping_reduces_stages(self):
        X, y, _ = linear_data(n=300, noise=2.0)
        m = GradientBoostingRegressor(
            n_estimators=300,
            early_stopping_fraction=0.25,
            early_stopping_rounds=5,
        ).fit(X, y)
        assert m.n_stages < 300

    def test_subsample_still_learns(self):
        X, y, _ = linear_data(n=500)
        m = GradientBoostingRegressor(n_estimators=60, subsample=0.5).fit(X, y)
        assert r2_score(y, m.predict(X)) > 0.8

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=1.5)


# ----------------------------------------------------------------------
# Presorted trees against the readable per-node-argsort reference
# ----------------------------------------------------------------------


def _reference_best_split(X, y, min_leaf):
    """The split search before presorting: every node argsorts every
    feature afresh.  Kept here as the readable specification."""
    n, d = X.shape
    total_sum = y.sum()
    total_sq = float(y @ y)
    base_sse = total_sq - total_sum**2 / n
    best = None
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        xs = X[order, f]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        i = np.arange(min_leaf, n - min_leaf + 1)
        if len(i) == 0:
            continue
        left_sum = csum[i - 1]
        left_sq = csq[i - 1]
        right_sum = total_sum - left_sum
        right_sq = total_sq - left_sq
        sse = left_sq - left_sum**2 / i + right_sq - right_sum**2 / (n - i)
        distinct = xs[i - 1] < xs[np.minimum(i, n - 1)]
        sse = np.where(distinct, sse, np.inf)
        k = int(np.argmin(sse))
        if np.isfinite(sse[k]):
            gain = base_sse - float(sse[k])
            if best is None or gain > best[2]:
                best = (f, float((xs[i[k] - 1] + xs[i[k]]) / 2.0), gain)
    return best


class _ReferenceTree(DecisionTreeRegressor):
    """Grows on the row subset from scratch, ignoring the presort."""

    def _fit_presorted(self, px, y, keep=None):
        rows = np.arange(len(y)) if keep is None else np.flatnonzero(keep)
        self._n_features = len(px.XT)
        self._root = self._grow_reference(px.XT.T[rows], y[rows], 0)
        return self

    def _grow_reference(self, X, y, depth):
        node = _Node(value=float(y.mean()))
        if depth >= self.max_depth or len(y) < 2 * self.min_samples_leaf:
            return node
        split = _reference_best_split(X, y, self.min_samples_leaf)
        if split is None or split[2] <= self.min_gain:
            return node
        f, thr, _gain = split
        mask = X[:, f] <= thr
        node.feature, node.threshold = f, thr
        node.left = self._grow_reference(X[mask], y[mask], depth + 1)
        node.right = self._grow_reference(X[~mask], y[~mask], depth + 1)
        return node


def _nodes(tree):
    """Pre-order ``(feature, threshold, value)`` of every node."""
    out, stack = [], [tree._root]
    while stack:
        node = stack.pop()
        out.append((node.feature, node.threshold, node.value))
        if not node.is_leaf:
            stack += [node.right, node.left]
    return out


#: tie-heavy feature values: a handful of integers, or a few floats
#: whose midpoints are inexact
_TIE_ELEMENTS = st.one_of(
    st.integers(0, 3).map(float),
    st.sampled_from([-2.5, -0.1, 0.0, 1e-9, 0.3, 0.7, 7.0]),
)


@st.composite
def _tie_heavy_data(draw, min_rows=2):
    n = draw(st.integers(min_rows, 80))
    d = draw(st.integers(1, 4))
    integral = draw(st.booleans())
    elements = st.integers(0, 3).map(float) if integral else _TIE_ELEMENTS
    X = draw(hnp.arrays(np.float64, (n, d), elements=elements))
    y = draw(
        hnp.arrays(
            np.float64,
            n,
            elements=st.one_of(
                st.integers(-3, 3).map(float),
                st.floats(-100, 100, allow_nan=False, width=32).map(float),
                # magnitudes whose prefix sums depend on summation order
                st.sampled_from([1e16, -1e16, 0.1, 3.3]),
            ),
        )
    )
    return X, y


class TestPresortedTreeBitIdentity:
    """Presort + stable partition grows exactly the per-node-argsort tree."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=_tie_heavy_data(),
        depth=st.integers(1, 7),
        leaf=st.integers(1, 10),
    )
    def test_tree_nodes_identical(self, data, depth, leaf):
        X, y = data
        kw = dict(max_depth=depth, min_samples_leaf=leaf)
        fast = DecisionTreeRegressor(**kw).fit(X, y)
        ref = _ReferenceTree(**kw).fit(X, y)
        assert _nodes(fast) == _nodes(ref)
        assert np.array_equal(fast.predict(X), ref.predict(X))

    @settings(max_examples=60, deadline=None)
    @given(data=_tie_heavy_data(), draw=st.data())
    def test_partitioned_presort_is_subset_stable_sort(self, data, draw):
        """The invariant the tree relies on: filtering the global stable
        order to any row subset yields that subset's own stable order."""
        X, _ = data
        keep = draw.draw(hnp.arrays(np.bool_, len(X)))
        rows, order = presort(X).subset(keep)
        assert np.array_equal(rows, np.flatnonzero(keep))
        for f in range(X.shape[1]):
            expected = rows[np.argsort(X[rows, f], kind="stable")]
            assert np.array_equal(order[f], expected)

    @settings(max_examples=40, deadline=None)
    @given(
        data=_tie_heavy_data(min_rows=20),
        depth=st.integers(1, 5),
        leaf=st.integers(1, 10),
        variant=st.sampled_from(
            [{}, {"subsample": 0.5}, {"early_stopping_fraction": 0.25}]
        ),
    )
    def test_boosting_predictions_identical(self, data, depth, leaf, variant):
        X, y = data
        kw = dict(n_estimators=8, max_depth=depth, min_samples_leaf=leaf, **variant)
        fast = GradientBoostingRegressor(**kw).fit(X, y)
        with mock.patch("repro.ml.boosting.DecisionTreeRegressor", _ReferenceTree):
            ref = GradientBoostingRegressor(**kw).fit(X, y)
        assert fast.n_stages == ref.n_stages
        assert np.array_equal(fast.predict(X), ref.predict(X))

    @settings(max_examples=30, deadline=None)
    @given(
        data=_tie_heavy_data(), depth=st.integers(1, 5), leaf=st.integers(1, 10)
    )
    def test_quantile_boosting_predictions_identical(self, data, depth, leaf):
        X, y = data
        kw = dict(n_estimators=6, max_depth=depth, min_samples_leaf=leaf)
        fast = QuantileGradientBoosting(**kw).fit(X, y)
        with mock.patch("repro.ml.quantile.DecisionTreeRegressor", _ReferenceTree):
            ref = QuantileGradientBoosting(**kw).fit(X, y)
        assert np.array_equal(fast.predict(X), ref.predict(X))


class TestMLP:
    def test_learns_linear_function(self):
        X, y, _ = linear_data(n=600, noise=0.05)
        m = MLPRegressor(hidden=(32,), epochs=80, random_state=1).fit(X, y)
        assert r2_score(y, m.predict(X)) > 0.95

    def test_learns_nonlinear_function(self):
        rng = RNG(4)
        X = rng.uniform(-1, 1, size=(800, 1))
        y = np.sin(4 * X[:, 0])
        m = MLPRegressor(hidden=(64, 32), epochs=150, random_state=1).fit(X, y)
        assert r2_score(y, m.predict(X)) > 0.8

    def test_deterministic_given_seed(self):
        X, y, _ = linear_data(n=200)
        a = MLPRegressor(epochs=5, random_state=9).fit(X, y).predict(X)
        b = MLPRegressor(epochs=5, random_state=9).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_needs_hidden_layer(self):
        with pytest.raises(ValueError):
            MLPRegressor(hidden=())


class TestTobit:
    def test_uncensored_matches_ols(self):
        X, y, w = linear_data(noise=0.2)
        tob = TobitRegressor().fit(X, y)
        assert np.allclose(tob.coef_, w, atol=0.1)

    def test_censoring_corrects_bias(self):
        # right-censor at the mean: naive OLS is biased low, Tobit is not
        rng = RNG(5)
        X = rng.normal(size=(800, 1))
        y_true = 2.0 * X[:, 0] + 5.0 + 0.5 * rng.normal(size=800)
        cap = 5.0
        censored = y_true > cap
        y_obs = np.minimum(y_true, cap)
        ols = LinearRegression().fit(X, y_obs)
        tob = TobitRegressor().fit(X, y_obs, censored=censored)
        assert abs(tob.coef_[0] - 2.0) < abs(ols.coef_[0] - 2.0)
        assert tob.coef_[0] == pytest.approx(2.0, abs=0.2)

    def test_quantile_prediction_above_mean(self):
        X, y, _ = linear_data(noise=0.3)
        tob = TobitRegressor().fit(X, y)
        assert np.all(tob.predict_quantile(X, 0.9) > tob.predict(X))

    def test_quantile_validation(self):
        X, y, _ = linear_data(n=50)
        tob = TobitRegressor().fit(X, y)
        with pytest.raises(ValueError):
            tob.predict_quantile(X, 1.5)

    def test_censored_mask_length_checked(self):
        X, y, _ = linear_data(n=50)
        with pytest.raises(ValueError):
            TobitRegressor().fit(X, y, censored=np.zeros(3, dtype=bool))


def _censored_data(censor_q, n=500, seed=5):
    """Linear data right-censored above its ``censor_q`` quantile."""
    rng = RNG(seed)
    X = rng.normal(size=(n, 2))
    y_true = X @ np.array([1.5, -0.7]) + 4.0 + 0.5 * rng.normal(size=n)
    cap = np.quantile(y_true, censor_q)
    censored = y_true > cap
    return X, np.minimum(y_true, cap), censored


def _reference_tobit_params(X, y, censored, max_iter=200):
    """Tobit MLE through ``scipy.stats.norm.logpdf``/``logcdf``: the
    objective the direct likelihood must reproduce bit for bit."""
    from scipy.optimize import minimize
    from scipy.stats import norm

    ols = LinearRegression().fit(X, y)
    sigma0 = max(float((y - ols.predict(X)).std()), 1e-6)
    w0 = np.concatenate([ols.coef_, [ols.intercept_, np.log(sigma0)]])
    A = np.hstack([X, np.ones((len(y), 1))])
    unc = ~censored

    def neg_ll(params):
        log_s = np.clip(params[-1], -20.0, 20.0)
        s = np.exp(log_s)
        mu = A @ params[:-1]
        ll = 0.0
        if unc.any():
            z = (y[unc] - mu[unc]) / s
            ll += float(np.sum(norm.logpdf(z) - log_s))
        if censored.any():
            z = (mu[censored] - y[censored]) / s
            ll += float(np.sum(norm.logcdf(z)))
        return -ll

    return minimize(
        neg_ll, w0, method="L-BFGS-B", options={"maxiter": max_iter}
    ).x


class TestTobitDirectLikelihood:
    """The direct log-likelihood is the ``scipy.stats.norm`` one, bitwise."""

    @pytest.mark.parametrize("censor_q", [1.0, 0.7, 0.3])
    def test_fit_bit_equal_to_norm_objective(self, censor_q):
        X, y, censored = _censored_data(censor_q)
        tob = TobitRegressor().fit(X, y, censored=censored)
        params = _reference_tobit_params(X, y, censored)
        assert np.array_equal(tob.coef_, params[:-2])
        assert tob.intercept_ == float(params[-2])
        assert tob.sigma_ == float(np.exp(np.clip(params[-1], -20.0, 20.0)))

    def test_quantile_bit_equal_to_norm_ppf(self):
        from scipy.stats import norm

        X, y, censored = _censored_data(0.7)
        tob = TobitRegressor().fit(X, y, censored=censored)
        for q in (0.1, 0.5, 0.75, 0.99):
            expected = tob.predict(X) + tob.sigma_ * norm.ppf(q)
            assert np.array_equal(tob.predict_quantile(X, q), expected)


class TestImportEdges:
    def test_tobit_fit_and_quantile_do_not_load_scipy_stats(self):
        """Tobit needs ``scipy.optimize`` and ``scipy.special`` only; the
        heavyweight ``scipy.stats`` stays out of the process."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.ml import TobitRegressor\n"
            "rng = np.random.default_rng(0)\n"
            "X = rng.normal(size=(200, 2))\n"
            "y = X @ np.array([1.0, -1.0]) + rng.normal(size=200)\n"
            "m = TobitRegressor().fit(X, np.minimum(y, 1.0), censored=y > 1.0)\n"
            "m.predict_quantile(X, 0.9)\n"
            "print('scipy.optimize' in sys.modules, 'scipy.stats' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == "True False"


class TestTrainingTelemetry:
    """callback=/TrainingLog hooks observe fits without changing them."""

    @staticmethod
    def _censored_problem(n=400, seed=5):
        rng = RNG(seed)
        X = rng.normal(size=(n, 2))
        y_true = 2.0 * X[:, 0] - X[:, 1] + 5.0 + 0.5 * rng.normal(size=n)
        cap = 5.5
        return X, np.minimum(y_true, cap), y_true > cap

    def _check(self, make, fit):
        """Fit with and without a TrainingLog; history must be non-empty and
        monotone-indexed, predictions bit-identical."""
        from repro.obs import TrainingLog

        log = TrainingLog()
        with_log = fit(make(log))
        without = fit(make(None))
        assert len(log) > 0
        assert log.indices == sorted(set(log.indices))
        assert all(np.isfinite(v) for v in log.losses)
        X_probe = RNG(1).normal(size=(50, with_log_dim(with_log)))
        assert np.array_equal(with_log.predict(X_probe), without.predict(X_probe))
        return log

    def test_mlp_per_epoch_loss(self):
        X, y, _ = linear_data(n=300)
        log = self._check(
            lambda cb: MLPRegressor(epochs=12, random_state=2, callback=cb),
            lambda m: m.fit(X, y),
        )
        assert log.indices == list(range(12))
        # on an easy linear problem the loss curve must trend downward
        assert log.losses[-1] < log.losses[0]

    def test_gbm_per_stage_loss(self):
        X, y, _ = linear_data(n=300)
        log = self._check(
            lambda cb: GradientBoostingRegressor(n_estimators=15, callback=cb),
            lambda m: m.fit(X, y),
        )
        assert log.indices == list(range(15))
        assert log.losses[-1] < log.losses[0]
        assert "val_mse" not in log.records[0]

    def test_gbm_early_stopping_reports_val_mse(self):
        from repro.obs import TrainingLog

        X, y, _ = linear_data(n=300, noise=2.0)
        log = TrainingLog()
        m = GradientBoostingRegressor(
            n_estimators=200,
            early_stopping_fraction=0.25,
            early_stopping_rounds=5,
            callback=log,
        ).fit(X, y)
        assert len(log) == m.n_stages
        assert all("val_mse" in r for r in log.records)

    def test_quantile_gbm_per_stage_pinball(self):
        from repro.ml.quantile import QuantileGradientBoosting

        X, y, _ = linear_data(n=300)
        log = self._check(
            lambda cb: QuantileGradientBoosting(n_estimators=10, callback=cb),
            lambda m: m.fit(X, y),
        )
        assert log.indices == list(range(10))
        assert log.losses[-1] < log.losses[0]

    def test_tobit_lbfgs_iteration_trace(self):
        X, y, censored = self._censored_problem()
        log = self._check(
            lambda cb: TobitRegressor(callback=cb),
            lambda m: m.fit(X, y, censored=censored),
        )
        # the trace is the optimizer's own path: negative log-likelihood
        # at each L-BFGS iterate, improving over the warm start
        assert log.losses[-1] <= log.losses[0]

    def test_tobit_coefficients_unchanged_by_callback(self):
        from repro.obs import TrainingLog

        X, y, censored = self._censored_problem()
        a = TobitRegressor(callback=TrainingLog()).fit(X, y, censored=censored)
        b = TobitRegressor().fit(X, y, censored=censored)
        assert np.array_equal(a.coef_, b.coef_)
        assert a.intercept_ == b.intercept_
        assert a.sigma_ == b.sigma_

    def test_training_log_to_dict(self):
        from repro.obs import TrainingLog

        log = TrainingLog()
        log(0, 1.5, val_mse=2.0)
        assert log.to_dict() == {
            "n": 1,
            "records": [{"index": 0, "loss": 1.5, "val_mse": 2.0}],
        }


def with_log_dim(model) -> int:
    """Feature count a fitted model expects (for building probe inputs)."""
    if isinstance(model, MLPRegressor):
        return len(model._x_scaler.mean_)
    if isinstance(model, TobitRegressor):
        return len(model.coef_)
    return 3  # tree ensembles fitted on linear_data's d=3


class TestMLPValidation:
    def test_epochs_zero_raises(self):
        X, y, _ = linear_data(n=50)
        with pytest.raises(ValueError, match="epochs=0"):
            MLPRegressor(epochs=0).fit(X, y)

    def test_batch_size_zero_raises(self):
        X, y, _ = linear_data(n=50)
        with pytest.raises(ValueError, match="batch_size=0"):
            MLPRegressor(batch_size=0).fit(X, y)

    def test_empty_training_set_raises(self):
        with pytest.raises(ValueError, match="empty"):
            MLPRegressor().fit(np.zeros((0, 3)), np.zeros(0))


class TestPreprocess:
    def test_scaler_zero_mean_unit_var(self):
        X = RNG().normal(5.0, 3.0, size=(500, 2))
        Z = StandardScaler().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-10)

    def test_scaler_roundtrip(self):
        X = RNG().normal(size=(100, 3))
        sc = StandardScaler().fit(X)
        assert np.allclose(sc.inverse_transform(sc.transform(X)), X)

    def test_scaler_constant_column(self):
        X = np.ones((10, 1))
        Z = StandardScaler().fit_transform(X)
        assert np.all(Z == 0.0)

    def test_scaler_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((1, 1)))

    def test_split_sizes(self):
        a = np.arange(100)
        tr, te = train_test_split(a, test_fraction=0.2, rng=RNG())
        assert len(tr) == 80 and len(te) == 20
        assert sorted(np.concatenate([tr, te])) == list(range(100))

    def test_split_chronological(self):
        a = np.arange(10)
        tr, te = train_test_split(a, test_fraction=0.3, shuffle=False)
        assert list(tr) == list(range(7))
        assert list(te) == [7, 8, 9]

    def test_split_multiple_arrays_aligned(self):
        a = np.arange(50)
        b = a * 2
        a_tr, a_te, b_tr, b_te = train_test_split(a, b, rng=RNG())
        assert np.all(b_tr == 2 * a_tr) and np.all(b_te == 2 * a_te)

    def test_split_validation(self):
        with pytest.raises(ValueError):
            train_test_split(np.arange(5), np.arange(6))
        with pytest.raises(ValueError):
            train_test_split(np.arange(5), test_fraction=1.5)


class TestMetrics:
    def test_mse_mae(self):
        y = np.array([1.0, 2.0])
        p = np.array([2.0, 0.0])
        assert mse(y, p) == pytest.approx(2.5)
        assert mae(y, p) == pytest.approx(1.5)

    def test_r2_perfect_and_mean(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2_score(y, y) == 1.0
        assert r2_score(y, np.full(3, 2.0)) == 0.0

    def test_prediction_accuracy_symmetric(self):
        y = np.array([100.0])
        assert prediction_accuracy(y, np.array([50.0]))[0] == 0.5
        assert prediction_accuracy(y, np.array([200.0]))[0] == 0.5

    def test_prediction_accuracy_perfect(self):
        y = np.array([42.0])
        assert prediction_accuracy(y, y)[0] == 1.0

    def test_prediction_accuracy_nonpositive_pred(self):
        assert prediction_accuracy(np.array([10.0]), np.array([-5.0]))[0] == 0.0

    def test_underestimation_rate(self):
        y = np.array([10.0, 10.0, 10.0, 10.0])
        p = np.array([5.0, 15.0, 10.0, 9.0])
        assert underestimation_rate(y, p) == 0.5

    @given(
        st.lists(st.floats(1.0, 1e6), min_size=1, max_size=50),
        st.floats(0.5, 2.0),
    )
    @settings(max_examples=30)
    def test_accuracy_bounded(self, values, factor):
        y = np.array(values)
        acc = prediction_accuracy(y, y * factor)
        assert np.all((acc >= 0) & (acc <= 1.0 + 1e-12))
