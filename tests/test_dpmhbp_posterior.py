"""DPMHBP targets its posterior: the chain's K against exact enumeration.

On five segments every partition can be scored exactly: the CRP prior,
each block's rate integrated out by quadrature and its feature mean
integrated out analytically. The sampler never integrates the existing
clusters' means (Block 3 draws them) and integrates the new cluster's
only in the assignment step, so agreement checks the whole kernel.
A new-cluster feature term scored at variance σ² instead of σ² + τ²
moves the chain's K distribution by a total variation of about 0.17.
"""

import math

import numpy as np
import pytest

from repro.bayes.distributions import beta_binomial_table, gaussian_marginal_logpdf_sum
from repro.core.dpmhbp import DPMHBP, _new_cluster_feature_term


def set_partitions(n: int):
    """Every partition of ``range(n)`` as a list of blocks."""
    if n == 0:
        yield []
        return
    for partition in set_partitions(n - 1):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [n - 1]] + partition[i + 1 :]
        yield partition + [[n - 1]]


def exact_k_distribution(s, m, x, sampler, tau2=1.0, n_grid=20000):
    """P(K = k | data) for k = 0..n, summed over every partition."""
    a0 = sampler.c0 * sampler.q0
    b0 = sampler.c0 * (1.0 - sampler.q0)
    c = sampler.c_group
    sigma2 = 1.0 / sampler.feature_weight
    q = (np.arange(n_grid) + 0.5) / n_grid  # midpoint rule on (0, 1)
    log_prior = (a0 - 1.0) * np.log(q) + (b0 - 1.0) * np.log1p(-q)
    log_prior -= math.lgamma(a0) + math.lgamma(b0) - math.lgamma(a0 + b0)
    bb = beta_binomial_table(c * q, c * (1.0 - q), m)  # (n_grid, m+1)

    def block_log_marginal(block):
        f = log_prior + bb[:, s[block]].sum(axis=1)
        top = f.max()
        rate = top + math.log(np.mean(np.exp(f - top)))
        feature = sum(
            gaussian_marginal_logpdf_sum(x[block, j], 0.0, tau2, sigma2)
            for j in range(x.shape[1])
        )
        return rate + feature

    n = len(s)
    log_p = []
    sizes = []
    for partition in set_partitions(n):
        lp = len(partition) * math.log(sampler.alpha)
        lp += sum(math.lgamma(len(block)) + block_log_marginal(block) for block in partition)
        log_p.append(lp)
        sizes.append(len(partition))
    assert len(log_p) == 52 or n != 5  # Bell(5)
    p = np.exp(np.asarray(log_p) - max(log_p))
    return np.bincount(sizes, weights=p, minlength=n + 1) / p.sum()


class TestExactPosterior:
    def test_k_distribution_matches_enumeration(self):
        m = 6
        s = np.array([0, 0, 1, 3, 5])
        failures = (np.arange(m)[None, :] < s[:, None]).astype(np.int8)
        x = np.array([[-2.0], [-1.7], [0.0], [1.7], [2.1]])
        sampler = DPMHBP(
            alpha=1.0, q0=0.3, c0=4.0, c_group=4.0, feature_weight=3.0,
            n_sweeps=2500, burn_in=100, seed=0,
        )
        want = exact_k_distribution(s, m, x, sampler)
        k = sampler.fit(failures, x).n_clusters_trace[sampler.burn_in :]
        got = np.bincount(k, minlength=s.size + 1) / k.size
        # Correct kernels read 0.005-0.023 here over seeds 0-5; the
        # σ²-for-σ²+τ² mutation reads 0.16-0.17.
        assert 0.5 * np.abs(got - want).sum() < 0.06, (got, want)


class TestNewClusterFeatureTerm:
    @pytest.mark.parametrize("feature_weight", [0.5, 3.0])
    def test_is_the_prior_predictive_without_dropped_constants(self, rng, feature_weight):
        """Adding back −‖x‖²/(2σ²) − (d/2)·log(2πσ²) gives Σ_j of the
        one-observation Gaussian marginal over the d dimensions."""
        feats = rng.standard_normal((4, 6)) * 1.5
        sigma2, tau2 = 1.0 / feature_weight, 1.0
        d = feats.shape[1]
        term = _new_cluster_feature_term(feats, sigma2, tau2)
        for l in range(feats.shape[0]):
            dropped = -float(feats[l] @ feats[l]) / (2.0 * sigma2) - 0.5 * d * math.log(
                2.0 * math.pi * sigma2
            )
            marginal = sum(
                gaussian_marginal_logpdf_sum(feats[l, j : j + 1], 0.0, tau2, sigma2)
                for j in range(d)
            )
            assert term[l] + dropped == pytest.approx(marginal, rel=1e-12, abs=1e-12)
