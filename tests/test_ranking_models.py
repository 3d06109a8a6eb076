"""Unit tests for the ranking failure models (the data-mining method)."""

import numpy as np
import pytest

from repro.core.base import ranking_features
from repro.core.ranking.model import (
    AUCRankingModel,
    SVMClassifierModel,
    SVMRankingModel,
    build_snapshots,
)
from repro.core.ranking.objective import empirical_auc


class TestRankingFeatures:
    def test_default_is_paper_feature_set(self, small_model_data):
        """Table 18.2 block + age only — no history columns by default."""
        X = ranking_features(small_model_data)
        assert X.shape == (
            small_model_data.n_pipes,
            small_model_data.X_pipe.shape[1] + 1,
        )

    def test_history_extension_shape(self, small_model_data):
        X = ranking_features(small_model_data, include_history=True)
        assert X.shape == (
            small_model_data.n_pipes,
            small_model_data.X_pipe.shape[1] + 3,
        )

    def test_snapshot_year_hides_future_history(self, small_model_data):
        """History features as-of year y must not change when later years change."""
        md = small_model_data
        early = ranking_features(md, score_year=md.train_years[3], include_history=True)
        mutated = md.pipe_fail_train.copy()
        mutated[:, -1] = 1 - mutated[:, -1]  # flip the final year
        from dataclasses import replace

        md2 = replace(md, pipe_fail_train=mutated)
        early2 = ranking_features(md2, score_year=md.train_years[3], include_history=True)
        assert np.allclose(early, early2)

    def test_test_year_sees_all_training_history(self, small_model_data):
        md = small_model_data
        X = ranking_features(md, include_history=True)  # defaults to test year
        # History column is a standardised log1p of the full train count.
        counts = md.pipe_fail_train.sum(axis=1)
        col = X[:, md.X_pipe.shape[1] + 1]
        order_hist = np.argsort(counts)
        assert np.all(np.diff(col[order_hist]) >= -1e-9)


class TestBuildSnapshots:
    def test_stacks_years(self, small_model_data):
        X, y = build_snapshots(small_model_data, n_snapshots=3)
        assert X.shape[0] == y.shape[0]
        assert X.shape[0] <= 3 * small_model_data.n_pipes
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_rejects_zero_snapshots(self, small_model_data):
        with pytest.raises(ValueError):
            build_snapshots(small_model_data, n_snapshots=0)

    def test_skips_degenerate_years(self, small_model_data):
        from dataclasses import replace

        md = small_model_data
        dead = md.pipe_fail_train.copy()
        dead[:, -1] = 0  # no failures in the last year
        md2 = replace(md, pipe_fail_train=dead)
        X, y = build_snapshots(md2, n_snapshots=2)
        assert y.sum() > 0  # only the second-last year contributed


class TestModels:
    def test_auc_ranking_beats_chance(self, small_model_data):
        md = small_model_data
        model = AUCRankingModel(generations=15, population=24, seed=0)
        scores = model.fit_predict(md)
        assert scores.shape == (md.n_pipes,)
        assert empirical_auc(scores, md.pipe_fail_test) > 0.55

    def test_optimiser_improves_training_objective(self, small_model_data):
        model = AUCRankingModel(generations=15, population=24, seed=0)
        model.fit(small_model_data)
        assert model.result_.best_value >= model.result_.history[0] - 1e-12
        assert model.result_.best_value > 0.6  # training AUC

    def test_svm_ranking_beats_chance(self, small_model_data):
        md = small_model_data
        scores = SVMRankingModel(seed=0).fit_predict(md)
        assert empirical_auc(scores, md.pipe_fail_test) > 0.55

    def test_svm_classifier_runs(self, small_model_data):
        md = small_model_data
        scores = SVMClassifierModel(seed=0).fit_predict(md)
        assert scores.shape == (md.n_pipes,)
        assert np.isfinite(scores).all()

    def test_predict_before_fit(self, small_model_data):
        with pytest.raises(RuntimeError):
            AUCRankingModel().predict_pipe_risk(small_model_data)
        with pytest.raises(RuntimeError):
            SVMRankingModel().predict_pipe_risk(small_model_data)

    def test_deterministic(self, small_model_data):
        a = AUCRankingModel(generations=5, seed=3).fit_predict(small_model_data)
        b = AUCRankingModel(generations=5, seed=3).fit_predict(small_model_data)
        assert np.array_equal(a, b)
