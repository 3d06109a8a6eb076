"""Unit tests for RankSVM."""

import numpy as np
import pytest

from repro.core.ranking.objective import empirical_auc
from repro.core.ranking.ranksvm import RankSVM


def linear_ranking_data(rng, n=500, d=4, noise=0.3):
    X = rng.standard_normal((n, d))
    w = np.array([1.5, -1.0, 0.5, 0.0])[:d]
    score = X @ w + noise * rng.standard_normal(n)
    labels = (score > np.quantile(score, 0.8)).astype(float)
    return X, labels, w


class TestRankSVM:
    def test_high_auc_on_linear_data(self, rng):
        X, y, _ = linear_ranking_data(rng)
        model = RankSVM(n_pairs=20000, epochs=2, seed=1).fit(X, y)
        assert empirical_auc(model.decision_function(X), y) > 0.9

    def test_recovers_weight_direction(self, rng):
        X, y, w = linear_ranking_data(rng, noise=0.1)
        model = RankSVM(n_pairs=30000, epochs=2, seed=2).fit(X, y)
        cos = model.coef_ @ w / (np.linalg.norm(model.coef_) * np.linalg.norm(w))
        assert cos > 0.9

    def test_needs_both_classes(self, rng):
        with pytest.raises(ValueError):
            RankSVM().fit(rng.standard_normal((5, 2)), np.zeros(5))

    def test_use_before_fit(self):
        with pytest.raises(RuntimeError):
            RankSVM().decision_function(np.ones((1, 2)))

    @pytest.mark.parametrize("lam", [-1e-3, 0.0])
    def test_nonpositive_lam_rejected(self, rng, lam):
        X, y, _ = linear_ranking_data(rng, n=50)
        with pytest.raises(ValueError, match="lam"):
            RankSVM(lam=lam, n_pairs=100).fit(X, y)

    def test_zero_epochs_rejected(self, rng):
        X, y, _ = linear_ranking_data(rng, n=50)
        with pytest.raises(ValueError, match="epochs"):
            RankSVM(epochs=0).fit(X, y)

    def test_zero_pairs_rejected(self, rng):
        X, y, _ = linear_ranking_data(rng, n=50)
        with pytest.raises(ValueError, match="n_pairs"):
            RankSVM(n_pairs=0).fit(X, y)

    def test_deterministic(self, rng):
        X, y, _ = linear_ranking_data(rng, n=150)
        a = RankSVM(seed=5, n_pairs=2000).fit(X, y).coef_
        b = RankSVM(seed=5, n_pairs=2000).fit(X, y).coef_
        assert np.array_equal(a, b)

    def test_pairwise_accuracy_equals_auc(self, rng):
        """The share of correctly ordered (pos, neg) pairs is the empirical AUC."""
        X, y, _ = linear_ranking_data(rng, n=200)
        scores = RankSVM(n_pairs=5000, seed=3).fit(X, y).decision_function(X)
        diff = scores[y == 1][:, None] - scores[y == 0][None, :]
        pairwise = np.mean((diff > 0) + 0.5 * (diff == 0))
        assert pairwise == pytest.approx(empirical_auc(scores, y))

    def test_weight_norm_bounded_by_projection(self, rng):
        X, y, _ = linear_ranking_data(rng, n=200)
        model = RankSVM(lam=0.01, n_pairs=5000, seed=6).fit(X, y)
        assert np.linalg.norm(model.coef_) <= 1.0 / np.sqrt(0.01) + 1e-9

    def test_imbalance_robustness(self, rng):
        """With 2% positives, ranking must still beat chance clearly."""
        n = 1000
        X = rng.standard_normal((n, 3))
        score = X @ np.array([1.0, 0.5, -0.5])
        y = (score > np.quantile(score, 0.98)).astype(float)
        model = RankSVM(n_pairs=20000, seed=7).fit(X, y)
        assert empirical_auc(model.decision_function(X), y) > 0.85
