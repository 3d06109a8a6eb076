"""Derivative-free optimiser for the exact (non-smooth) AUC objective.

The empirical AUC is piecewise constant in the ranking function's
parameters, so the data-mining formulation optimises it directly with
evolutionary search rather than gradients: :class:`EvolutionStrategy`,
a (μ/μ, λ) ES with global intermediate recombination and cumulative
step-size-free self-adaptation (each offspring mutates its own log-σ),
robust on noisy rank objectives. It maximises ``objective(w)`` over flat
parameter vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Objective = Callable[[np.ndarray], float]


@dataclass
class OptimisationResult:
    """Best point found and its objective value, plus the search history."""

    best_params: np.ndarray
    best_value: float
    history: list[float]


@dataclass
class EvolutionStrategy:
    """(μ/μ, λ) evolution strategy with self-adaptive mutation strength."""

    population: int = 40  # λ
    parents: int = 10  # μ
    generations: int = 60
    init_sigma: float = 0.5
    seed: int = 0

    def maximise(self, objective: Objective, dim: int, x0: np.ndarray | None = None) -> OptimisationResult:
        if self.parents < 1 or self.population <= self.parents:
            raise ValueError("need population > parents >= 1")
        rng = np.random.default_rng(self.seed)
        mean = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float).copy()
        if mean.shape != (dim,):
            raise ValueError(f"x0 must have shape ({dim},)")
        sigma = self.init_sigma
        tau = 1.0 / np.sqrt(2.0 * dim)
        best_params = mean.copy()
        best_value = objective(mean)
        history = [best_value]
        for _ in range(self.generations):
            # Each offspring self-adapts its step size before mutating.
            sigmas = sigma * np.exp(tau * rng.standard_normal(self.population))
            offspring = mean[None, :] + sigmas[:, None] * rng.standard_normal(
                (self.population, dim)
            )
            values = np.asarray([objective(ind) for ind in offspring])
            elite = np.argsort(-values)[: self.parents]
            mean = offspring[elite].mean(axis=0)
            sigma = float(np.exp(np.mean(np.log(sigmas[elite]))))
            sigma = min(max(sigma, 1e-6), 1e3)
            gen_best = int(elite[0])
            if values[gen_best] > best_value:
                best_value = float(values[gen_best])
                best_params = offspring[gen_best].copy()
            history.append(best_value)
        return OptimisationResult(best_params=best_params, best_value=best_value, history=history)
