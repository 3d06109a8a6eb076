"""Unit and property tests for evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.metrics import (
    auc_at_budget,
    detection_curve,
    empirical_auc,
    permyriad,
)


def random_scored(rng, n=50, rate=0.3):
    scores = rng.standard_normal(n)
    labels = (rng.random(n) < rate).astype(float)
    if labels.sum() == 0:
        labels[0] = 1.0
    if labels.sum() == n:
        labels[-1] = 0.0
    return scores, labels


class TestDetectionCurve:
    def test_monotone_nondecreasing(self, rng):
        scores, labels = random_scored(rng)
        curve = detection_curve(scores, labels)
        assert np.all(np.diff(curve.detected) >= 0)
        assert np.all(np.diff(curve.inspected) > 0)

    def test_endpoints(self, rng):
        scores, labels = random_scored(rng)
        curve = detection_curve(scores, labels)
        assert curve.inspected[-1] == pytest.approx(1.0)
        assert curve.detected[-1] == pytest.approx(1.0)

    def test_perfect_ranking_steep(self):
        scores = np.arange(10.0)[::-1]
        labels = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0], dtype=float)
        curve = detection_curve(scores, labels)
        assert curve.detected_at(0.2) == pytest.approx(1.0)

    def test_length_weighted_axis(self):
        scores = np.array([2.0, 1.0])
        labels = np.array([1.0, 0.0])
        lengths = np.array([900.0, 100.0])
        curve = detection_curve(scores, labels, lengths=lengths)
        # Inspecting the top pipe means inspecting 90% of the length.
        assert curve.inspected[0] == pytest.approx(0.9)

    def test_tie_break_deterministic(self, rng):
        scores = np.zeros(30)
        labels = (rng.random(30) < 0.3).astype(float)
        labels[0] = 1.0
        a = detection_curve(scores, labels)
        b = detection_curve(scores, labels)
        assert np.array_equal(a.detected, b.detected)

    def test_no_failures_rejected(self):
        with pytest.raises(ValueError):
            detection_curve(np.ones(5), np.zeros(5))

    def test_detected_at_interpolates(self):
        scores = np.array([3.0, 2.0, 1.0, 0.0])
        labels = np.array([1.0, 0.0, 0.0, 1.0])
        curve = detection_curve(scores, labels)
        assert curve.detected_at(0.0) == 0.0
        assert 0.0 < curve.detected_at(0.125) <= 0.5

    def test_budget_validation(self, rng):
        scores, labels = random_scored(rng)
        curve = detection_curve(scores, labels)
        with pytest.raises(ValueError):
            curve.detected_at(1.5)
        with pytest.raises(ValueError):
            curve.area(0.0)

    @given(st.integers(5, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_area_bounds(self, n, seed):
        rng = np.random.default_rng(seed)
        scores, labels = random_scored(rng, n=n)
        curve = detection_curve(scores, labels)
        assert 0.0 <= curve.area(1.0) <= 1.0
        assert 0.0 <= curve.area(0.01) <= 0.01 + 1e-12


class TestBudgetAUC:
    def test_full_budget_close_to_roc_auc(self, rng):
        """AUC over [0,1] of the detection curve ≈ ROC AUC for low prevalence."""
        scores, labels = random_scored(rng, n=2000, rate=0.01)
        a = auc_at_budget(scores, labels, budget=1.0)
        b = empirical_auc(scores, labels)
        assert a == pytest.approx(b, abs=0.02)

    def test_better_model_higher_budget_auc(self, rng):
        n = 1000
        latent = rng.standard_normal(n)
        labels = (latent > np.quantile(latent, 0.98)).astype(float)
        good = latent + 0.1 * rng.standard_normal(n)
        bad = rng.standard_normal(n)
        assert auc_at_budget(good, labels) > auc_at_budget(bad, labels)

    def test_permyriad(self):
        assert permyriad(0.000809) == pytest.approx(8.09)
