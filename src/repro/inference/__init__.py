"""From-scratch MCMC substrate: Metropolis steps and convergence diagnostics."""

from .diagnostics import (
    autocorrelation,
    effective_sample_size,
    geweke_zscore,
    split_rhat,
)
from .metropolis import (
    TARGET_ACCEPT_1D,
    AdaptiveScale,
    expit,
    logit,
    metropolis_probability_step,
    metropolis_probability_steps,
    metropolis_step,
)

__all__ = [
    "autocorrelation",
    "effective_sample_size",
    "geweke_zscore",
    "split_rhat",
    "TARGET_ACCEPT_1D",
    "AdaptiveScale",
    "expit",
    "logit",
    "metropolis_probability_step",
    "metropolis_probability_steps",
    "metropolis_step",
]
