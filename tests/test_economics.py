"""Unit tests for the inspection-economics module."""

import numpy as np
import pytest

from repro.eval.economics import CostModel, plan_economics


class TestCostModel:
    def test_averted_cost(self):
        costs = CostModel(reactive_failure=100.0, proactive_renewal=40.0, detection_effectiveness=0.5)
        assert costs.averted_cost_per_failure == pytest.approx(30.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(detection_effectiveness=1.5)
        with pytest.raises(ValueError):
            CostModel(inspection_per_km=-1.0)


class TestPlanEconomics:
    def test_budget_respected(self, small_model_data):
        md = small_model_data
        rng = np.random.default_rng(0)
        scores = rng.random(md.n_pipes)
        econ = plan_economics(md, scores, 0.05)
        assert econ.inspected_km * 1000.0 <= 0.05 * md.pipe_lengths.sum() + md.pipe_lengths.max()
        assert econ.n_inspected >= 1

    def test_caught_plus_missed_is_total(self, small_model_data):
        md = small_model_data
        scores = np.arange(md.n_pipes, dtype=float)
        econ = plan_economics(md, scores, 0.1)
        assert econ.failures_caught + econ.failures_missed == int(md.pipe_fail_test.sum())

    def test_oracle_scores_maximise_savings(self, small_model_data):
        md = small_model_data
        rng = np.random.default_rng(1)
        random_scores = rng.random(md.n_pipes)
        oracle_scores = md.pipe_fail_test + 0.001 * rng.random(md.n_pipes)
        e_random = plan_economics(md, random_scores, 0.05)
        e_oracle = plan_economics(md, oracle_scores, 0.05)
        assert e_oracle.failures_caught >= e_random.failures_caught
        assert e_oracle.net_savings >= e_random.net_savings

    def test_net_savings_arithmetic(self, small_model_data):
        md = small_model_data
        scores = np.ones(md.n_pipes)
        econ = plan_economics(md, scores, 0.02)
        assert econ.net_savings == pytest.approx(econ.averted_cost - econ.inspection_cost)

    def test_validation(self, small_model_data):
        md = small_model_data
        with pytest.raises(ValueError):
            plan_economics(md, np.ones(md.n_pipes), 0.0)
        with pytest.raises(ValueError):
            plan_economics(md, np.ones(3), 0.1)


class TestSavingsCurve:
    """How a plan's economics move as the inspection budget grows."""

    def test_benefit_cost_ratio_decreases_with_budget(self, small_model_data):
        """With a good ranking, marginal inspections get less profitable."""
        md = small_model_data
        rng = np.random.default_rng(2)
        oracle = md.pipe_fail_test + 0.001 * rng.random(md.n_pipes)
        small = plan_economics(md, oracle, 0.02)
        full = plan_economics(md, oracle, 1.0)
        assert small.inspection_cost > 0
        assert (full.averted_cost / full.inspection_cost
                <= small.averted_cost / small.inspection_cost)
        # Full inspection catches everything but pays for the whole network.
        assert full.failures_missed == 0
        assert full.inspection_cost > small.inspection_cost
