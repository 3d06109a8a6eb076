"""Unit tests for Metropolis steps and adaptation."""

import numpy as np
import pytest
from scipy import stats

from repro.inference.metropolis import (
    AdaptiveScale,
    expit,
    logit,
    metropolis_probability_step,
    metropolis_step,
)


class TestLogitExpit:
    def test_round_trip(self):
        for p in [0.01, 0.3, 0.5, 0.99]:
            assert expit(logit(p)) == pytest.approx(p)

    def test_logit_rejects_boundary(self):
        with pytest.raises(ValueError):
            logit(0.0)
        with pytest.raises(ValueError):
            logit(1.0)

    def test_expit_extremes_stable(self):
        assert expit(1000.0) == pytest.approx(1.0)
        assert expit(-1000.0) == pytest.approx(0.0)


class TestAdaptiveScale:
    def test_increases_on_accepts(self):
        s = AdaptiveScale(scale=0.5)
        for _ in range(50):
            s.update(True)
        assert s.scale > 0.5

    def test_decreases_on_rejects(self):
        s = AdaptiveScale(scale=0.5)
        for _ in range(50):
            s.update(False)
        assert s.scale < 0.5

    def test_freeze_stops_adaptation(self):
        s = AdaptiveScale(scale=0.5)
        s.freeze()
        for _ in range(20):
            s.update(True)
        assert s.scale == 0.5

    def test_bounded(self):
        s = AdaptiveScale(scale=1.0)
        for _ in range(10000):
            s.update(True)
        assert s.scale <= 1e4


class TestMetropolisStep:
    def test_targets_standard_normal(self, rng):
        log_target = stats.norm.logpdf
        x, logp = 0.0, log_target(0.0)
        samples = []
        for _ in range(6000):
            x, logp, _ = metropolis_step(x, log_target, 2.4, rng, current_logp=logp)
            samples.append(x)
        samples = np.asarray(samples[1000:])
        assert samples.mean() == pytest.approx(0.0, abs=0.1)
        assert samples.std() == pytest.approx(1.0, abs=0.12)

    def test_always_accepts_uphill_flat(self, rng):
        # Constant target: every proposal accepted.
        accepted = [
            metropolis_step(0.0, lambda _x: 0.0, 1.0, rng)[2] for _ in range(100)
        ]
        assert all(accepted)


class TestMetropolisProbabilityStep:
    def test_targets_beta(self, rng):
        """Logit-walk MH with Jacobian samples the stated Beta density."""
        a, b = 2.0, 5.0

        def log_target(p: float) -> float:
            return float(stats.beta.logpdf(p, a, b))

        p = 0.5
        samples = []
        for _ in range(12000):
            p, _ = metropolis_probability_step(p, log_target, 1.0, rng)
            samples.append(p)
        samples = np.asarray(samples[2000:])
        assert samples.mean() == pytest.approx(a / (a + b), abs=0.02)
        assert samples.var() == pytest.approx(stats.beta.var(a, b), rel=0.2)

    def test_stays_in_unit_interval(self, rng):
        p = 0.001
        for _ in range(200):
            p, _ = metropolis_probability_step(p, lambda _p: 0.0, 3.0, rng)
            assert 0.0 < p < 1.0
