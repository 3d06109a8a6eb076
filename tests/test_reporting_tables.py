"""Unit tests for the comparison-result tables (synthetic results)."""

import numpy as np
import pytest

from repro.eval.experiment import ComparisonResult, ModelEvaluation, RegionRun
from repro.eval.reporting import detection_readout, table_18_3, table_18_4


def make_run(region, seed, aucs: dict[str, float], n=40, n_pos=6):
    rng = np.random.default_rng(seed)
    labels = np.zeros(n)
    labels[:n_pos] = 1.0
    run = RegionRun(
        region=region,
        seed=seed,
        labels=labels,
        pipe_lengths=rng.uniform(50, 500, n),
    )
    for name, target in aucs.items():
        # Scores correlated with labels in proportion to the target AUC.
        noise = rng.standard_normal(n)
        strength = max(0.0, 2.0 * (target - 0.5))
        scores = strength * labels + 0.5 * noise
        from repro.eval.metrics import auc_at_budget, empirical_auc, permyriad

        run.evaluations[name] = ModelEvaluation(
            model_name=name,
            scores=scores,
            auc=empirical_auc(scores, labels),
            auc_budget_permyriad=permyriad(auc_at_budget(scores, labels)),
        )
    return run


@pytest.fixture(scope="module")
def fake_comparison():
    aucs = {"DPMHBP": 0.9, "HBP": 0.8, "Cox": 0.6}
    runs = {
        r: [make_run(r, 100 * i + ord(r), aucs) for i in range(4)]
        for r in ("A", "B")
    }
    return ComparisonResult(runs=runs)


class TestComparisonResult:
    def test_model_names(self, fake_comparison):
        assert fake_comparison.model_names() == ["DPMHBP", "HBP", "Cox"]

    def test_auc_samples_shape(self, fake_comparison):
        assert fake_comparison.auc_samples("A", "DPMHBP").shape == (4,)

    def test_strong_model_wins(self, fake_comparison):
        assert fake_comparison.mean_auc("A", "DPMHBP") > fake_comparison.mean_auc("A", "Cox")

    def test_t_test_direction(self, fake_comparison):
        t = fake_comparison.t_test("A", "DPMHBP", "Cox")
        assert t.mean_difference > 0

    def test_budget_metric_selector(self, fake_comparison):
        t = fake_comparison.t_test("A", "DPMHBP", "Cox", metric="budget")
        assert 0.0 <= t.p_value <= 1.0


class TestTables:
    def test_table_18_3_contents(self, fake_comparison):
        out = table_18_3(fake_comparison)
        assert "AUC(100%)" in out and "AUC(1%)" in out
        assert "A:DPMHBP" in out and "B:Cox" in out
        assert "%" in out and "bp" in out

    def test_table_18_3_model_subset(self, fake_comparison):
        out = table_18_3(fake_comparison, models=["DPMHBP"])
        assert "Cox" not in out

    def test_table_18_4_excludes_reference(self, fake_comparison):
        out = table_18_4(fake_comparison, reference="DPMHBP")
        assert "vs HBP" in out and "vs Cox" in out
        assert "vs DPMHBP" not in out

    def test_table_18_4_p_value_stamps(self, fake_comparison):
        out = table_18_4(fake_comparison)
        assert "<0.05" in out or "=" in out

    def test_table_18_4_region_subset(self, fake_comparison):
        out = table_18_4(fake_comparison, regions=["B"])
        assert "AUC(100%) B" in out and "AUC(100%) A" not in out

    def test_detection_readout(self, fake_comparison):
        out = detection_readout(fake_comparison, budgets=(0.1, 0.5))
        assert "@10%" in out and "@50%" in out
        assert "DPMHBP" in out
