"""Unit tests for the Weibull NHPP model."""

import numpy as np
import pytest

from repro.core.ranking.objective import empirical_auc
from repro.core.survival_models import _pipe_year_windows
from repro.survival.weibull import WeibullNHPP, _weibull_exposure

from ._reference_samplers import reference_weibull_fit


class TestExposure:
    def test_power_difference(self):
        out = _weibull_exposure(np.array([2.0]), np.array([3.0]), 2.0)
        assert out[0] == pytest.approx(5.0)  # 9 - 4

    def test_floor_positive(self):
        out = _weibull_exposure(np.array([1.0]), np.array([1.0]), 1.5)
        assert out[0] > 0

    def test_negative_ages_clipped(self):
        out = _weibull_exposure(np.array([-5.0]), np.array([1.0]), 2.0)
        assert out[0] == pytest.approx(1.0)


class TestFitting:
    def test_recovers_shape(self, rng):
        n = 3000
        ages = rng.uniform(1.0, 60.0, n)
        true_shape = 2.0
        lam = 0.0008 * ((ages + 1.0) ** true_shape - ages**true_shape)
        counts = rng.poisson(lam)
        model = WeibullNHPP().fit(np.zeros((n, 1)), counts, ages, ages + 1.0)
        assert model.shape_ == pytest.approx(true_shape, abs=0.35)

    def test_recovers_covariate_effect(self, rng):
        n = 3000
        ages = rng.uniform(1.0, 40.0, n)
        x = rng.standard_normal(n)
        lam = 0.01 * ((ages + 1.0) ** 1.5 - ages**1.5) * np.exp(0.7 * x)
        counts = rng.poisson(lam)
        model = WeibullNHPP(l2=1e-6).fit(x[:, None], counts, ages, ages + 1.0)
        assert model.glm_.coef_[1] == pytest.approx(0.7, abs=0.15)

    def test_decreasing_intensity_shape_below_one(self, rng):
        n = 4000
        ages = rng.uniform(1.0, 60.0, n)
        true_shape = 0.5
        lam = 0.05 * ((ages + 1.0) ** true_shape - ages**true_shape)
        counts = rng.poisson(lam)
        model = WeibullNHPP().fit(np.zeros((n, 1)), counts, ages, ages + 1.0)
        assert model.shape_ < 1.0

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            WeibullNHPP().fit(np.ones((3, 1)), np.ones(2), np.ones(3), np.ones(3))


class TestPrediction:
    @pytest.fixture(scope="class")
    def fitted(self):
        rng = np.random.default_rng(5)
        n = 2000
        ages = rng.uniform(1.0, 50.0, n)
        x = rng.standard_normal(n)
        lam = 0.001 * ((ages + 1.0) ** 1.8 - ages**1.8) * np.exp(0.5 * x)
        counts = rng.poisson(lam)
        return WeibullNHPP().fit(x[:, None], counts, ages, ages + 1.0)

    def test_expected_failures_grow_with_age(self, fitted):
        X = np.zeros((2, 1))
        young = fitted.expected_failures(X[:1], np.array([5.0]), np.array([6.0]))
        old = fitted.expected_failures(X[1:], np.array([50.0]), np.array([51.0]))
        assert old[0] > young[0]

    def test_use_before_fit(self):
        with pytest.raises(RuntimeError):
            WeibullNHPP().expected_failures(np.ones((1, 1)), np.ones(1), np.ones(1) + 1)


class TestPerUnitTotals:
    """The per-unit fit against the stacked one-row-per-window fit."""

    def test_matches_stacked_fit(self, small_model_data):
        md = small_model_data
        counts, ages = _pipe_year_windows(md)
        want_shape, want_glm = reference_weibull_fit(md.X_pipe, counts, ages, ages + 1.0, 1e-3)
        got = WeibullNHPP(l2=1e-3).fit(md.X_pipe, counts, ages, ages + 1.0)
        # The golden-section search stops at a 1e-4 bracket.
        assert got.shape_ == pytest.approx(want_shape, abs=1e-4)
        # Same IRLS on the same sums, in another order: rounding only.
        np.testing.assert_allclose(got.glm_.coef_, want_glm.coef_, rtol=1e-6, atol=1e-9)
        test_age = md.pipe_ages(md.test_year)
        want = WeibullNHPP(l2=1e-3)
        want.shape_, want.glm_ = want_shape, want_glm
        assert empirical_auc(
            got.expected_failures(md.X_pipe, test_age, test_age + 1.0), md.pipe_fail_test
        ) == empirical_auc(
            want.expected_failures(md.X_pipe, test_age, test_age + 1.0), md.pipe_fail_test
        )

    def test_rows_are_one_window_each(self, rng):
        ages = rng.uniform(1.0, 40.0, 200)
        x = rng.standard_normal((200, 2))
        counts = rng.poisson(0.05, 200)
        flat = WeibullNHPP().fit(x, counts, ages, ages + 1.0)
        column = WeibullNHPP().fit(x, counts[:, None], ages[:, None], ages[:, None] + 1.0)
        assert flat.shape_ == column.shape_
        assert flat.glm_.coef_.tobytes() == column.glm_.coef_.tobytes()

    def test_window_shapes_must_agree(self):
        with pytest.raises(ValueError):
            WeibullNHPP().fit(np.ones((3, 1)), np.ones((3, 2)), np.ones((3, 2)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            WeibullNHPP().fit(np.ones((3, 1)), np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)))
