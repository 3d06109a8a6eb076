"""Distribution helpers used throughout the Bayesian nonparametric stack.

Thin, numerically careful wrappers: log-densities clip their arguments away
from the boundary of the support so samplers never see ``-inf`` from
floating-point round-off. The Beta–Binomial marginal needs no gamma
function at all: a unit's failure count s is an integer in 0..m (m
observation years), so B(a+s, b+m−s)/B(a, b) is the ratio of rising
factorials (a)_s·(b)_{m−s}/(a+b)_m: m factors over m factors, and one
log. No module here imports scipy.
"""

from __future__ import annotations

import math

import numpy as np

#: Smallest probability treated as distinct from 0/1 in log-space.
_EPS = 1e-12


def clip_unit(p: np.ndarray | float) -> np.ndarray | float:
    """Clip probabilities to the open unit interval ``(eps, 1-eps)``."""
    return np.clip(p, _EPS, 1.0 - _EPS)


def beta_logpdf(x: np.ndarray | float, a: float, b: float) -> np.ndarray | float:
    """Log density of ``Beta(a, b)`` at ``x`` (vectorised over ``x``, clipped)."""
    x = clip_unit(np.asarray(x, dtype=float))
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - log_beta


def bernoulli_loglik(successes: np.ndarray | float, trials: np.ndarray | float, p: np.ndarray | float) -> np.ndarray | float:
    """Log likelihood of ``successes`` in ``trials`` i.i.d. Bernoulli(p) draws.

    Binomial coefficient omitted (constant in ``p``), as appropriate for
    inference over ``p``.
    """
    p = clip_unit(np.asarray(p, dtype=float))
    s = np.asarray(successes, dtype=float)
    n = np.asarray(trials, dtype=float)
    return s * np.log(p) + (n - s) * np.log1p(-p)


def _rising(x, n: int):
    """Rising factorial (x)_n = x(x+1)…(x+n−1), multiplied left to right.

    The order is that of :func:`beta_binomial_table`'s cumulative product
    over 1, x + 0, x + 1, …, so the two agree bit for bit. Works
    elementwise on arrays and on plain floats.
    """
    out = 1.0
    for i in range(n):
        out = out * (x + i)
    return out


def beta_binomial_table(a: np.ndarray | float, b: np.ndarray | float, m: int) -> np.ndarray:
    """Beta–Binomial log marginals for every count s = 0..m.

    Entry ``[..., s]`` is ``log B(a+s, b+m−s) − log B(a, b)``, the log
    probability of one particular sequence of m Bernoulli trials with s
    successes once the rate ``p ~ Beta(a, b)`` is integrated out (binomial
    coefficient omitted). It is computed exactly as
    (a)_s·(b)_{m−s}/(a+b)_m from one cumulative product over
    ``x + arange(m)`` for x = a, b and a+b, then one log. ``a`` and ``b``
    share one shape, and the result has that shape + ``(m+1,)``. The
    products stay finite while (a+b)_m does: m up to about 100 years at
    a + b = 300.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    # rising[i, ..., s] = (x_i)_s for x = (a, b, a+b): ones, then the
    # cumulative product of x + 0, x + 1, …, x + m − 1 in place.
    rising = np.empty((3,) + a.shape + (m + 1,))
    rising[..., 0] = 1.0
    starts = np.concatenate((a, b, a + b), axis=None).reshape(rising.shape[:-1])
    np.add.outer(starts, np.arange(float(m)), out=rising[..., 1:])
    np.multiply.accumulate(rising, axis=-1, out=rising)
    return np.log(rising[0] * rising[1, ..., ::-1] / rising[2, ..., -1:])


def beta_binomial_at(a: np.ndarray | float, b: np.ndarray | float, s: int, m: int):
    """The entry ``s`` of :func:`beta_binomial_table`, bit for bit, without the table.

    Every element of ``a`` and ``b`` is scored at the one count ``s``:
    2m products where the table takes 3m and a gather, so a caller whose
    units each have a fixed count groups them by count once and calls this
    per group. Plain floats give a numpy float.
    """
    return np.log(_rising(a, s) * _rising(b, m - s) / _rising(a + b, m))


def beta_mean_concentration(mean: float, concentration: float) -> tuple[float, float]:
    """Convert (mean q, concentration c) to standard Beta shapes ``(cq, c(1-q))``.

    This is the parameterisation the beta process uses everywhere:
    ``Beta(c·q, c·(1-q))`` has mean ``q`` and gets tighter as ``c`` grows.
    """
    if not 0.0 < mean < 1.0:
        raise ValueError(f"mean must lie in (0, 1), got {mean}")
    if concentration <= 0.0:
        raise ValueError(f"concentration must be positive, got {concentration}")
    return concentration * mean, concentration * (1.0 - mean)


def gaussian_logpdf(x: np.ndarray, mean: np.ndarray | float, var: np.ndarray | float) -> np.ndarray:
    """Elementwise log density of ``N(mean, var)`` at ``x``."""
    x = np.asarray(x, dtype=float)
    var = np.asarray(var, dtype=float)
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def gaussian_marginal_logpdf_sum(
    x: np.ndarray, prior_mean: float, prior_var: float, noise_var: float
) -> float:
    """Log marginal of i.i.d. Gaussian data with a conjugate Gaussian mean prior.

    ``x_i ~ N(mu, noise_var)``, ``mu ~ N(prior_mean, prior_var)``; returns
    ``log ∫ Π N(x_i; mu, noise_var) N(mu; prior_mean, prior_var) dmu``
    for a single feature dimension (vector ``x``). With one observation
    and ``prior_mean = 0``, its sum over the d dimensions is DPMHBP's
    new-cluster term (``repro.core.dpmhbp._new_cluster_feature_term``)
    plus the constants that term drops; a test checks that they agree.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n == 0:
        return 0.0
    post_prec = 1.0 / prior_var + n / noise_var
    post_var = 1.0 / post_prec
    xsum = float(x.sum())
    post_mean = post_var * (prior_mean / prior_var + xsum / noise_var)
    ll = -0.5 * n * np.log(2.0 * np.pi * noise_var)
    ll -= 0.5 * float(np.sum(x**2)) / noise_var
    ll -= 0.5 * prior_mean**2 / prior_var
    ll += 0.5 * post_mean**2 * post_prec
    ll += 0.5 * (np.log(post_var) - np.log(prior_var))
    return float(ll)
