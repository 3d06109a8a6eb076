"""From-scratch MCMC substrate: Metropolis and slice steps, traces, diagnostics."""

from .chains import Trace
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
from .slice import slice_probability_step, slice_sample_step

__all__ = [
    "Trace",
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
    "slice_probability_step",
    "slice_sample_step",
]
