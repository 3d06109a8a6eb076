"""Unit tests for the hierarchical beta process model."""

import numpy as np
import pytest

from repro.core.hbp import HBPBestModel, HBPModel, fit_hbp
from repro.core.ranking.objective import empirical_auc


def two_group_data(rng, n_per=150, years=11, q_low=0.02, q_high=0.25):
    groups = np.concatenate([np.zeros(n_per, int), np.ones(n_per, int)])
    p = np.where(groups == 0, q_low, q_high)
    failures = (rng.random((2 * n_per, years)) < p[:, None]).astype(np.int8)
    return failures, groups


class TestFitHBP:
    def test_recovers_group_rates(self, rng):
        failures, groups = two_group_data(rng)
        post = fit_hbp(failures, groups, n_sweeps=300, burn_in=100, seed=1)
        assert post.q_mean[0] == pytest.approx(0.02, abs=0.015)
        assert post.q_mean[1] == pytest.approx(0.25, abs=0.05)

    def test_pi_shrinks_toward_group_rate(self, rng):
        failures, groups = two_group_data(rng)
        post = fit_hbp(failures, groups, c_group=30.0, n_sweeps=200, burn_in=80)
        # Zero-failure units in the high-rate group still get elevated risk.
        zero_high = (failures.sum(1) == 0) & (groups == 1)
        zero_low = (failures.sum(1) == 0) & (groups == 0)
        if zero_high.any() and zero_low.any():
            assert post.pi_mean[zero_high].mean() > post.pi_mean[zero_low].mean()

    def test_failure_history_raises_pi(self, rng):
        failures, groups = two_group_data(rng)
        post = fit_hbp(failures, groups, n_sweeps=150, burn_in=50)
        many = failures.sum(1) >= 3
        none = failures.sum(1) == 0
        assert post.pi_mean[many].mean() > post.pi_mean[none].mean()

    def test_acceptance_rate_reasonable(self, rng):
        failures, groups = two_group_data(rng)
        post = fit_hbp(failures, groups, n_sweeps=300, burn_in=100)
        assert 0.1 < post.accept_rate < 0.9

    def test_trace_shape(self, rng):
        failures, groups = two_group_data(rng, n_per=40)
        post = fit_hbp(failures, groups, n_sweeps=100, burn_in=40)
        assert post.q_trace.shape == (60, 2)

    def test_validation(self, rng):
        failures, groups = two_group_data(rng, n_per=10)
        with pytest.raises(ValueError):
            fit_hbp(failures[:5], groups, n_sweeps=10, burn_in=2)
        with pytest.raises(ValueError):
            fit_hbp(failures, groups, n_sweeps=10, burn_in=20)
        with pytest.raises(ValueError):
            fit_hbp(failures.ravel(), groups, n_sweeps=10, burn_in=2)


class TestHBPModel:
    @pytest.mark.parametrize("grouping", ["material", "diameter", "laid_year"])
    def test_fit_predict_all_groupings(self, small_model_data, grouping):
        model = HBPModel(grouping=grouping, n_sweeps=80, burn_in=30, seed=0)
        scores = model.fit_predict(small_model_data)
        assert scores.shape == (small_model_data.n_pipes,)
        assert np.all(scores >= 0)

    def test_beats_chance(self, small_model_data):
        model = HBPModel(grouping="material", n_sweeps=120, burn_in=40, seed=0)
        scores = model.fit_predict(small_model_data)
        assert empirical_auc(scores, small_model_data.pipe_fail_test) > 0.55

    def test_covariates_flag_changes_scores(self, small_model_data):
        a = HBPModel(n_sweeps=60, burn_in=20, covariates=True, seed=0).fit_predict(
            small_model_data
        )
        b = HBPModel(n_sweeps=60, burn_in=20, covariates=False, seed=0).fit_predict(
            small_model_data
        )
        assert not np.allclose(a, b)

    def test_predict_before_fit(self, small_model_data):
        with pytest.raises(RuntimeError):
            HBPModel().predict_pipe_risk(small_model_data)


class TestHBPBestModel:
    def test_selects_a_grouping(self, small_model_data):
        model = HBPBestModel(n_sweeps=60, burn_in=20, seed=0)
        model.fit(small_model_data)
        assert model.chosen_grouping_ in ("material", "diameter", "laid_year")
        scores = model.predict_pipe_risk(small_model_data)
        assert scores.shape == (small_model_data.n_pipes,)

    def test_never_reads_test_labels(self, small_model_data):
        """Selection must be identical when test labels are scrambled."""
        from dataclasses import replace

        md = small_model_data
        scrambled = replace(md, pipe_fail_test=1.0 - md.pipe_fail_test)
        a = HBPBestModel(n_sweeps=40, burn_in=15, seed=0)
        b = HBPBestModel(n_sweeps=40, burn_in=15, seed=0)
        a.fit(md)
        b.fit(scrambled)
        assert a.chosen_grouping_ == b.chosen_grouping_
