"""Bayesian nonparametric primitives: CRP partitions and conjugate distributions."""

from .crp import (
    alpha_for_expected_tables,
    expected_tables,
    gibbs_weights,
    log_eppf,
    relabel,
    sample_partition,
    table_counts,
)
from .distributions import (
    bernoulli_loglik,
    beta_binomial_at,
    beta_binomial_table,
    beta_logpdf,
    beta_mean_concentration,
    clip_unit,
    gaussian_logpdf,
    gaussian_marginal_logpdf_sum,
)

__all__ = [
    "alpha_for_expected_tables",
    "expected_tables",
    "gibbs_weights",
    "log_eppf",
    "relabel",
    "sample_partition",
    "table_counts",
    "bernoulli_loglik",
    "beta_binomial_at",
    "beta_binomial_table",
    "beta_logpdf",
    "beta_mean_concentration",
    "clip_unit",
    "gaussian_logpdf",
    "gaussian_marginal_logpdf_sum",
]
