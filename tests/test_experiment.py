"""Integration tests for the experiment runner."""

import numpy as np
import pytest

from repro.core.survival_models import CoxPHModel, TimeRateModel
from repro.eval import experiment
from repro.eval.experiment import (
    REGION_DRAWS,
    ComparisonResult,
    NoTestFailuresError,
    cell_region_data,
    evaluate_models,
    prepare_region_data,
    run_comparison,
)
from repro.network.pipe import PipeClass
from repro.runs import CellSpec


@pytest.fixture(scope="module")
def small_run():
    data = prepare_region_data("A", scale=0.05, seed=9, pipe_class=None)
    models = [CoxPHModel(), TimeRateModel(kind="exponential")]
    return evaluate_models(data, models, region="A"), data


class TestEvaluateModels:
    def test_all_models_evaluated(self, small_run):
        run, _ = small_run
        assert set(run.evaluations) == {"Cox", "TimeExp"}

    def test_metrics_in_range(self, small_run):
        run, _ = small_run
        for ev in run.evaluations.values():
            assert 0.0 <= ev.auc <= 1.0
            assert ev.auc_budget_permyriad >= 0.0

    def test_scores_aligned_with_pipes(self, small_run):
        run, data = small_run
        for ev in run.evaluations.values():
            assert ev.scores.shape == (data.n_pipes,)

    def test_curve_reaches_one(self, small_run):
        run, _ = small_run
        ev = run.evaluations["Cox"]
        curve = ev.curve(run.labels)
        assert curve.detected[-1] == pytest.approx(1.0)

    def test_no_test_failures_rejected(self, small_run):
        from dataclasses import replace

        _, data = small_run
        dead = replace(data, pipe_fail_test=np.zeros(data.n_pipes))
        # The dedicated subclass, still catchable as ValueError (old contract).
        with pytest.raises(NoTestFailuresError):
            evaluate_models(dead, [CoxPHModel()], region="X")
        assert issubclass(NoTestFailuresError, ValueError)

    def test_ranked_orders_best_first(self, small_run):
        run, _ = small_run
        ranked = run.ranked()
        assert [ev.auc for ev in ranked] == sorted(
            (ev.auc for ev in run.evaluations.values()), reverse=True
        )
        by_budget = run.ranked(metric="budget")
        assert by_budget[0].auc_budget_permyriad >= by_budget[-1].auc_budget_permyriad
        with pytest.raises(ValueError):
            run.ranked(metric="f1")


class TestPrepareRegionData:
    def test_cwm_subset(self):
        all_pipes = prepare_region_data("A", scale=0.05, seed=9, pipe_class=None)
        cwm = prepare_region_data("A", scale=0.05, seed=9, pipe_class=PipeClass.CWM)
        assert cwm.n_pipes < all_pipes.n_pipes


class TestCellRegion:
    def test_region_with_failures_keeps_its_seed(self):
        seed, data = cell_region_data(CellSpec(region="A", repeat=1, seed=9, scale=0.05))
        assert seed == 9
        assert data is prepare_region_data("A", seed=9, scale=0.05)

    def test_empty_region_draws_the_next_seed(self):
        # Seed 679458 at scale 0.05 and its next two seeds on the chain,
        # 729480 and 729481, all have no region-A test-year failure.
        spec = CellSpec(region="A", repeat=1, seed=679458, scale=0.05)
        for seed in (679458, 729480, 729481):
            assert prepare_region_data("A", seed=seed, scale=0.05).pipe_fail_test.sum() == 0
        seed, data = cell_region_data(spec)
        assert seed > 729481 and (seed - 729481) < REGION_DRAWS
        assert data.pipe_fail_test.sum() > 0
        assert cell_region_data(spec)[0] == seed

    def test_gives_up_after_the_cap(self, monkeypatch, small_run):
        from dataclasses import replace

        _, data = small_run
        dead = replace(data, pipe_fail_test=np.zeros(data.n_pipes))
        seeds = []

        def prepare(region, seed=None, **kwargs):
            seeds.append(seed)
            return dead

        monkeypatch.setattr(experiment, "prepare_region_data", prepare)
        with pytest.raises(NoTestFailuresError, match="increase the scale"):
            cell_region_data(CellSpec(region="A", repeat=1, seed=100, scale=0.01))
        assert seeds == [100] + [100 + 50021 + i for i in range(1, REGION_DRAWS)]


class TestRunComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        factory = lambda s: [CoxPHModel(), TimeRateModel(kind="exponential")]
        return run_comparison(
            regions=("A",),
            n_repeats=3,
            scale=0.05,
            models_factory=factory,
        )

    def test_structure(self, comparison):
        assert comparison.regions == ["A"]
        assert len(comparison.runs["A"]) == 3
        assert set(comparison.model_names()) == {"Cox", "TimeExp"}

    def test_samples_shape(self, comparison):
        assert comparison.auc_samples("A", "Cox").shape == (3,)
        assert comparison.budget_samples("A", "TimeExp").shape == (3,)

    def test_means_bounded(self, comparison):
        assert 0.0 <= comparison.mean_auc("A", "Cox") <= 1.0

    def test_t_test_runs(self, comparison):
        result = comparison.t_test("A", "Cox", "TimeExp")
        assert np.isfinite(result.statistic) or result.p_value in (0.0, 1.0)
        result_b = comparison.t_test("A", "Cox", "TimeExp", metric="budget")
        assert 0.0 <= result_b.p_value <= 1.0

    def test_repeats_differ(self, comparison):
        aucs = comparison.auc_samples("A", "Cox")
        assert len(set(np.round(aucs, 6))) > 1  # different seeds, different data

    def test_invalid_repeats(self):
        with pytest.raises(ValueError):
            run_comparison(n_repeats=0)
