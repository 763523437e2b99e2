import numpy as np
import pytest

from confjudge.core import Dataset, JudgeSample, LabelScale, ValidationError
from confjudge.estimators import (
    BinClassifier,
    KernelSimilarity,
    QuantileForest,
    RidgePredictor,
    ols,
    pinball_loss,
)

LIKERT = LabelScale(1, 5, 1)


def dataset_from_arrays(Z, y, scale=LIKERT):
    samples = tuple(
        JudgeSample(f"s{i}", tuple(Z[i]), float(np.clip(round(y[i]), 1, 5)), float(y[i]))
        for i in range(len(y))
    )
    return Dataset(samples, scale, Z.shape[1])


class TestQuantileForest:
    def test_constant_labels(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 3))
        y = np.full(50, 3.0)
        qf = QuantileForest(0.5, n_trees=20, depth=2, min_leaf=5).fit(X, y)
        np.testing.assert_allclose(qf.predict(rng.normal(size=(10, 3))), 3.0)

    def test_zero_trees_is_empirical_quantile(self):
        X = np.zeros((5, 2))
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        qf = QuantileForest(0.5, n_trees=0).fit(X, y)
        np.testing.assert_allclose(qf.predict(np.zeros((3, 2))), 3.0)

    def test_beats_constant_model_on_heteroscedastic_signal(self):
        # oracle: the constant empirical-quantile model, refit per run
        wins = 0
        runs = 50
        for seed in range(runs):
            rng = np.random.default_rng(seed)
            X = rng.uniform(0, 4, size=(300, 2))
            y = X[:, 0] + rng.normal(0, 0.3, size=300)
            Xt = rng.uniform(0, 4, size=(200, 2))
            yt = Xt[:, 0] + rng.normal(0, 0.3, size=200)
            qf = QuantileForest(0.9, n_trees=60, depth=2, lr=0.1, min_leaf=10).fit(X, y)
            fitted = pinball_loss(yt, qf.predict(Xt), 0.9)
            constant = pinball_loss(yt, np.full(200, np.quantile(y, 0.9)), 0.9)
            wins += fitted < constant
        assert wins >= 48

    def test_unconditional_coverage_near_tau(self):
        rng = np.random.default_rng(3)
        for tau in (0.1, 0.5, 0.9):
            X = rng.uniform(0, 4, size=(2000, 2))
            y = X[:, 0] + rng.normal(0, 0.5, size=2000)
            qf = QuantileForest(tau, n_trees=80, depth=2, lr=0.1, min_leaf=20).fit(X, y)
            Xt = rng.uniform(0, 4, size=(2000, 2))
            yt = Xt[:, 0] + rng.normal(0, 0.5, size=2000)
            cover = np.mean(yt <= qf.predict(Xt))
            assert abs(cover - tau) < 0.05

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(100, 4))
        y = rng.normal(size=100)
        a = QuantileForest(0.7, n_trees=15, depth=3).fit(X, y).predict(X)
        b = QuantileForest(0.7, n_trees=15, depth=3).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 3))
        y = rng.normal(size=80)
        qf = QuantileForest(0.5, n_trees=10).fit(X, y)
        back = QuantileForest.from_dict(qf.to_dict())
        np.testing.assert_array_equal(qf.predict(X), back.predict(X))
        # v1 documents also carried an unused "seed" entry
        legacy = QuantileForest.from_dict({**qf.to_dict(), "seed": 0})
        np.testing.assert_array_equal(qf.predict(X), legacy.predict(X))

    def test_fit_from_dataset(self):
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(60, 5))
        y = rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], size=60)
        ds = dataset_from_arrays(Z, y)
        qf = QuantileForest(0.5, n_trees=5).fit(ds.logits, ds.labels)
        assert np.all(np.isfinite(qf.predict(Z)))


class TestBinClassifier:
    def test_zero_epochs_uniform(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 4))
        y = rng.choice([1.0, 2.0, 3.0], size=30)
        clf = BinClassifier([1.0, 2.0, 3.0], epochs=0).fit(X, y)
        np.testing.assert_allclose(clf.predict_proba(X), 1 / 3, atol=1e-12)

    def test_simplex_output(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 5))
        y = rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], size=60)
        clf = BinClassifier(LIKERT.labels(), epochs=100).fit(X, y)
        probs = clf.predict_proba(rng.normal(size=(40, 5)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0)

    def test_linearly_separable_perfect_accuracy(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(-3, 0.5, size=(60, 2)), rng.normal(3, 0.5, size=(60, 2))])
        y = np.array([1.0] * 60 + [2.0] * 60)
        clf = BinClassifier([1.0, 2.0], epochs=400, lr=0.5).fit(X, y)
        Xt = np.vstack([rng.normal(-3, 0.5, size=(40, 2)), rng.normal(3, 0.5, size=(40, 2))])
        yt = np.array([1.0] * 40 + [2.0] * 40)
        preds = clf.bins[np.argmax(clf.predict_proba(Xt), axis=1)]
        assert np.all(preds == yt)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(12, 3))
        y = rng.choice([1.0, 2.0, 3.0], size=12)
        clf = BinClassifier([1.0, 2.0, 3.0], epochs=0, l2=1e-3).fit(X, y)
        clf.weights = rng.normal(size=clf.weights.shape) * 0.3
        clf.bias = rng.normal(size=clf.bias.shape) * 0.3
        Xs = clf._standardize(X)
        onehot = np.zeros((12, 3))
        onehot[np.arange(12), clf._bin_index(y)] = 1.0
        _, grad_w, grad_b = clf._loss_grad(Xs, onehot)
        h = 1e-6
        for arr, grad in ((clf.weights, grad_w), (clf.bias, grad_b)):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _, _ = clf._loss_grad(Xs, onehot)
                arr[idx] = orig - h
                down, _, _ = clf._loss_grad(Xs, onehot)
                arr[idx] = orig
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(grad[idx]), 1e-8)
                assert abs(numeric - grad[idx]) / denom < 1e-4

    def test_loss_non_increasing(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 5)) * 10
        y = rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], size=80)
        clf = BinClassifier(LIKERT.labels(), epochs=200, lr=1.0).fit(X, y)
        diffs = np.diff(clf.loss_history)
        assert np.all(diffs <= 1e-6)

    def test_label_off_grid_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValidationError, match="off the bin grid"):
            BinClassifier([1.0, 2.0]).fit(X, np.array([1.0, 1.5, 2.0, 2.0]))

    def test_empty_bins_allowed(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 3))
        y = rng.choice([1.0, 2.0], size=30)
        clf = BinClassifier(LIKERT.labels(), epochs=50).fit(X, y)
        assert clf.predict_proba(X).shape == (30, 5)

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 4))
        y = rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], size=40)
        ds = dataset_from_arrays(np.hstack([X, X[:, :1]]), y)
        clf = BinClassifier(ds.scale.labels(), epochs=30).fit(ds.logits, ds.labels)
        back = BinClassifier.from_dict(clf.to_dict())
        Z = np.hstack([X, X[:, :1]])
        np.testing.assert_allclose(clf.predict_proba(Z), back.predict_proba(Z), atol=1e-12)
        # v1 documents also carried an unused "seed" entry
        legacy = BinClassifier.from_dict({**clf.to_dict(), "seed": 0})
        np.testing.assert_allclose(clf.predict_proba(Z), legacy.predict_proba(Z), atol=1e-12)


class TestKernelSimilarity:
    def test_exact_match_takes_all_weight_as_bandwidth_vanishes(self):
        rng = np.random.default_rng(0)
        Xc = rng.normal(size=(20, 3))
        sim = KernelSimilarity(bandwidth=1e-4).fit(Xc)
        w = sim.weights_batch(Xc, Xc[7])[0]
        assert w[7] == pytest.approx(1.0, abs=1e-9)

    def test_two_equidistant_points(self):
        Xc = np.array([[0.0, 1.0], [0.0, -1.0]])
        sim = KernelSimilarity(bandwidth=1.0)
        sim.means = np.zeros(2)
        sim.stds = np.ones(2)
        w = sim.weights_batch(Xc, np.array([0.0, 0.0]))[0]
        np.testing.assert_allclose(w, [0.5, 0.5])

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(1)
        Xc = rng.normal(size=(50, 4))
        sim = KernelSimilarity().fit(Xc)
        sim.bandwidth = sim.median_bandwidth(Xc)
        W = sim.weights_batch(Xc, rng.normal(size=(30, 4)))
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(W >= 0)

    def test_rescaling_invariance_after_standardization(self):
        rng = np.random.default_rng(2)
        Xc = rng.normal(size=(40, 3))
        q = rng.normal(size=3)
        scale_vec = np.array([10.0, 0.1, 3.0])
        a = KernelSimilarity(1.0).fit(Xc).weights_batch(Xc, q)
        b = KernelSimilarity(1.0).fit(Xc * scale_vec).weights_batch(Xc * scale_vec, q * scale_vec)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_degenerate_features_error(self):
        Xc = np.array([[0.0, np.nan], [1.0, 2.0]])
        sim = KernelSimilarity(1.0)
        sim.means = np.zeros(2)
        sim.stds = np.ones(2)
        with pytest.raises(ValidationError, match="degenerate features"):
            sim.weights_batch(Xc, np.zeros(2))

    def test_kernel_weights_on_dataset(self):
        rng = np.random.default_rng(3)
        Z = rng.normal(size=(25, 5))
        y = rng.choice([1.0, 2.0, 3.0], size=25)
        ds = dataset_from_arrays(Z, y)
        sim = KernelSimilarity().fit(Z)
        sim.bandwidth = sim.median_bandwidth(Z)
        w = sim.weights_batch(ds.logits, Z[0])[0]
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestRidge:
    def test_reproducible(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        a = RidgePredictor(1.0).fit(X, y).predict(X)
        b = RidgePredictor(1.0).fit(X, y).predict(X)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_recovers_linear_signal(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 3))
        y = 2.0 * X[:, 0] - X[:, 1] + 0.5
        pred = RidgePredictor(1e-6).fit(X, y).predict(X)
        np.testing.assert_allclose(pred, y, atol=1e-6)

    def test_serialization_roundtrip(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        rp = RidgePredictor(0.5).fit(X, y)
        back = RidgePredictor.from_dict(rp.to_dict())
        np.testing.assert_allclose(rp.predict(X), back.predict(X), atol=1e-12)


class TestOls:
    def test_exact_fit(self):
        x = np.linspace(1, 10, 20)
        fit = ols(x[:, None], 2.0 * x)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-10)

    def test_orthogonal_response(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]])[:, :1]
        y = np.array([1.0, -1.0, 1.0, -1.0])
        fit = ols(X, y)
        assert fit.r_squared == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            X = rng.normal(size=(20, 3))
            y = rng.normal(size=20)
            fit = ols(X, y)
            oracle = np.linalg.solve(X.T @ X, X.T @ y)
            np.testing.assert_allclose(fit.coefficients, oracle, atol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 3))])
        y = rng.normal(size=60)
        fit = ols(X, y)
        bound = 1e-8 * np.linalg.norm(X) * np.linalg.norm(y)
        assert np.max(np.abs(X.T @ fit.residuals)) <= bound

    def test_rank_deficient_uses_pseudo_inverse(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(30, 2))
        X = np.column_stack([base, base[:, 0] + base[:, 1]])
        y = rng.normal(size=30)
        fit = ols(X, y)
        assert np.all(np.isfinite(fit.coefficients))

    def test_empty_errors(self):
        with pytest.raises(ValidationError):
            ols(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValidationError, match="fewer rows"):
            ols(np.zeros((2, 3)), np.zeros(2))
