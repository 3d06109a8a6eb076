"""Unit tests for the Pegasos linear SVM."""

import numpy as np
import pytest

from repro.ml.svm import LinearSVM


class TestLinearSVM:
    def test_separable_accuracy(self, rng):
        X = rng.standard_normal((400, 2))
        y = (X @ np.array([2.0, -1.0]) > 0).astype(int)
        model = LinearSVM(epochs=15, seed=1).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.95

    def test_decision_function_sign_matches_predict(self, rng):
        X = rng.standard_normal((100, 3))
        y = (X[:, 0] > 0).astype(int)
        model = LinearSVM(epochs=5).fit(X, y)
        assert np.array_equal(model.predict(X), (model.decision_function(X) >= 0).astype(int))

    def test_imbalanced_data_balanced_mode(self, rng):
        """With 5% positives, balanced weighting must not collapse to all-negative."""
        n = 1000
        X = rng.standard_normal((n, 2))
        margin = X @ np.array([1.5, 0.5])
        threshold = np.quantile(margin, 0.95)
        y = (margin > threshold).astype(int)
        model = LinearSVM(epochs=20, balanced=True, seed=2).fit(X, y)
        recall = model.predict(X)[y == 1].mean()
        assert recall > 0.5

    def test_unbalanced_mode_runs(self, rng):
        X = rng.standard_normal((60, 2))
        y = (X[:, 0] > 0).astype(int)
        model = LinearSVM(balanced=False, epochs=5).fit(X, y)
        assert model.coef_ is not None

    def test_weight_norm_bounded(self, rng):
        X = rng.standard_normal((200, 4)) * 100
        y = (X[:, 0] > 0).astype(int)
        model = LinearSVM(lam=0.01, epochs=10).fit(X, y)
        assert np.linalg.norm(model.coef_) <= 1.0 / np.sqrt(0.01) + 1e-9

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            LinearSVM().fit(np.ones((3, 1)), np.array([0, 1, 2]))

    def test_use_before_fit(self):
        with pytest.raises(RuntimeError):
            LinearSVM().decision_function(np.ones((1, 1)))

    def test_zero_epochs_rejected(self, rng):
        X = rng.standard_normal((20, 2))
        y = (X[:, 0] > 0).astype(int)
        with pytest.raises(ValueError, match="epochs"):
            LinearSVM(epochs=0).fit(X, y)

    @pytest.mark.parametrize("lam", [-1e-3, 0.0])
    def test_nonpositive_lam_rejected(self, rng, lam):
        X = rng.standard_normal((20, 2))
        y = (X[:, 0] > 0).astype(int)
        with pytest.raises(ValueError, match="lam"):
            LinearSVM(lam=lam, epochs=1).fit(X, y)

    def test_deterministic_given_seed(self, rng):
        X = rng.standard_normal((100, 2))
        y = (X[:, 0] > 0).astype(int)
        a = LinearSVM(seed=7, epochs=3).fit(X, y).coef_
        b = LinearSVM(seed=7, epochs=3).fit(X, y).coef_
        assert np.array_equal(a, b)
