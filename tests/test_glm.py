"""Unit tests for Poisson regression (IRLS)."""

import numpy as np
import pytest

from repro.ml.glm import PoissonRegression


class TestPoissonRegression:
    def test_recovers_coefficients(self, rng):
        n = 4000
        X = rng.standard_normal((n, 2))
        true = np.array([0.6, -0.4])
        y = rng.poisson(np.exp(0.2 + X @ true))
        model = PoissonRegression(l2=1e-6).fit(X, y)
        assert model.coef_[0] == pytest.approx(0.2, abs=0.1)
        assert np.allclose(model.coef_[1:], true, atol=0.1)

    def test_exposure_offset(self, rng):
        n = 3000
        exposure = rng.uniform(0.5, 5.0, n)
        y = rng.poisson(exposure * np.exp(0.4))
        model = PoissonRegression(l2=1e-8).fit(np.zeros((n, 1)), y, exposure=exposure)
        # Intercept should absorb the base rate exp(0.4).
        assert model.coef_[0] == pytest.approx(0.4, abs=0.08)

    def test_predict_rate_scales_with_exposure(self, rng):
        X = rng.standard_normal((100, 1))
        y = rng.poisson(np.exp(X[:, 0]))
        model = PoissonRegression().fit(X, y)
        base = model.predict_rate(X)
        doubled = model.predict_rate(X, exposure=np.full(100, 2.0))
        assert np.allclose(doubled, 2.0 * base)

    def test_covariate_factor_excludes_intercept(self, rng):
        X = rng.standard_normal((500, 1))
        y = rng.poisson(np.exp(2.0 + 0.5 * X[:, 0]))  # big intercept
        model = PoissonRegression().fit(X, y)
        factor = model.covariate_factor(X)
        # Geometric mean ~ exp(0.5 * mean(x)) ~ 1, not exp(2).
        assert np.exp(np.mean(np.log(factor))) == pytest.approx(1.0, abs=0.3)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            PoissonRegression().fit(np.ones((2, 1)), np.array([-1.0, 2.0]))

    def test_rejects_non_positive_exposure(self):
        with pytest.raises(ValueError):
            PoissonRegression().fit(np.ones((2, 1)), np.array([0.0, 1.0]), exposure=np.array([0.0, 1.0]))

    def test_all_zero_counts_stable(self):
        model = PoissonRegression().fit(np.ones((50, 1)), np.zeros(50))
        assert np.isfinite(model.coef_).all()

    def test_use_before_fit(self):
        with pytest.raises(RuntimeError):
            PoissonRegression().predict_rate(np.ones((1, 1)))
