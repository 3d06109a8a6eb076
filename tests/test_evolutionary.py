"""Unit tests for the evolutionary optimiser."""

import numpy as np
import pytest

from repro.core.ranking.evolutionary import EvolutionStrategy


def sphere(w):
    return -float(np.sum((w - 1.5) ** 2))


def step_function(w):
    """Piecewise-constant objective, like the exact AUC."""
    return float(np.sum(np.floor(3.0 * w).clip(-3, 3)))


class TestEvolutionStrategy:
    def test_optimises_sphere(self):
        res = EvolutionStrategy(generations=80, seed=1).maximise(sphere, dim=4)
        assert np.allclose(res.best_params, 1.5, atol=0.2)
        assert res.best_value > -0.1

    def test_handles_piecewise_constant(self):
        res = EvolutionStrategy(generations=40, seed=2).maximise(step_function, dim=3)
        assert res.best_value >= 6.0  # near the plateau maximum 9

    def test_history_monotone(self):
        res = EvolutionStrategy(generations=30, seed=3).maximise(sphere, dim=2)
        assert all(b >= a - 1e-12 for a, b in zip(res.history, res.history[1:]))

    def test_warm_start_used(self):
        x0 = np.full(3, 1.5)
        res = EvolutionStrategy(generations=1, seed=4).maximise(sphere, dim=3, x0=x0)
        assert res.best_value >= sphere(x0) - 1e-12

    def test_bad_population_rejected(self):
        with pytest.raises(ValueError):
            EvolutionStrategy(population=5, parents=5).maximise(sphere, dim=2)

    def test_bad_x0_shape(self):
        with pytest.raises(ValueError):
            EvolutionStrategy().maximise(sphere, dim=3, x0=np.zeros(2))

    def test_deterministic_given_seed(self):
        a = EvolutionStrategy(generations=10, seed=9).maximise(sphere, dim=2)
        b = EvolutionStrategy(generations=10, seed=9).maximise(sphere, dim=2)
        assert np.array_equal(a.best_params, b.best_params)
