"""Unit tests for MCMC convergence diagnostics."""

import numpy as np
import pytest

from repro.inference.diagnostics import (
    autocorrelation,
    effective_sample_size,
    geweke_zscore,
    split_rhat,
)


def ar1(n, rho, rng, start=0.0):
    x = np.empty(n)
    x[0] = start
    noise = rng.standard_normal(n)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + noise[i] * np.sqrt(1 - rho**2)
    return x


class TestAutocorrelation:
    def test_lag_zero_is_one(self, rng):
        x = rng.standard_normal(256)
        assert autocorrelation(x)[0] == pytest.approx(1.0)

    def test_iid_has_small_lag1(self, rng):
        x = rng.standard_normal(20000)
        assert abs(autocorrelation(x, max_lag=1)[1]) < 0.03

    def test_ar1_lag1_matches_rho(self, rng):
        x = ar1(40000, 0.7, rng)
        assert autocorrelation(x, max_lag=1)[1] == pytest.approx(0.7, abs=0.03)

    def test_constant_series_safe(self):
        acf = autocorrelation(np.ones(50), max_lag=5)
        assert acf[0] == 1.0 and np.all(acf[1:] == 0.0)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            autocorrelation(np.array([1.0]))


class TestESS:
    def test_iid_ess_near_n(self, rng):
        x = rng.standard_normal(4000)
        assert effective_sample_size(x) > 3000

    def test_correlated_chain_shrinks(self, rng):
        x = ar1(4000, 0.9, rng)
        ess = effective_sample_size(x)
        # Theory: ESS ≈ n(1-ρ)/(1+ρ) ≈ n/19.
        assert ess < 1000

    def test_never_exceeds_n(self, rng):
        x = rng.standard_normal(100)
        assert effective_sample_size(x) <= 100

    def test_tiny_chain(self):
        assert effective_sample_size(np.array([1.0, 2.0])) == 2.0

    def test_constant_chain_is_nan(self):
        # nan means "undiagnosable", never the flattering ESS == n.
        assert np.isnan(effective_sample_size(np.full(100, 3.7)))

    def test_constant_length_3_is_nan(self):
        assert np.isnan(effective_sample_size(np.zeros(3)))

    def test_varying_length_3_is_n(self):
        assert effective_sample_size(np.array([1.0, 2.0, 3.0])) == 3.0


class TestGeweke:
    def test_stationary_chain_small_z(self, rng):
        x = rng.standard_normal(5000)
        assert abs(geweke_zscore(x)) < 3.0

    def test_trending_chain_flagged(self, rng):
        x = np.linspace(0, 5, 2000) + 0.1 * rng.standard_normal(2000)
        assert abs(geweke_zscore(x)) > 5.0

    def test_short_chain_raises(self):
        with pytest.raises(ValueError):
            geweke_zscore(np.ones(10))

    def test_bad_windows_raise(self, rng):
        with pytest.raises(ValueError):
            geweke_zscore(rng.standard_normal(100), first=0.7, last=0.7)

    def test_constant_chain_is_nan_not_zero(self):
        # A constant chain is undiagnosable — not "perfectly converged".
        assert np.isnan(geweke_zscore(np.full(200, 2.5)))

    def test_constant_window_is_nan(self, rng):
        # Early window constant, late window varying: no defined z-score.
        x = np.concatenate([np.zeros(100), rng.standard_normal(900)])
        assert np.isnan(geweke_zscore(x))


class TestSplitRhat:
    def test_well_mixed_near_one(self, rng):
        chains = rng.standard_normal((4, 2000))
        assert split_rhat(chains) == pytest.approx(1.0, abs=0.05)

    def test_disjoint_chains_flagged(self, rng):
        a = rng.standard_normal((1, 1000))
        b = rng.standard_normal((1, 1000)) + 10.0
        assert split_rhat(np.vstack([a, b])) > 2.0

    def test_single_chain_with_trend_flagged(self, rng):
        x = np.linspace(0, 10, 1000) + 0.01 * rng.standard_normal(1000)
        assert split_rhat(x) > 1.5

    def test_constant_chains_are_nan(self):
        # Identical constant chains prove the quantity degenerate, not mixed.
        assert np.isnan(split_rhat(np.ones((2, 100))))

    def test_disjoint_constant_chains_are_nan(self):
        # W == 0 with B > 0: the ratio is undefined, not "infinitely bad".
        chains = np.vstack([np.zeros(50), np.ones(50)])
        assert np.isnan(split_rhat(chains))

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="at least 4 samples"):
            split_rhat(np.ones((2, 3)))

    def test_length_3_single_chain_raises_clearly(self):
        with pytest.raises(ValueError, match="at least 4 samples"):
            split_rhat(np.array([1.0, 2.0, 3.0]))

    def test_three_dim_input_raises(self):
        with pytest.raises(ValueError, match="n_chains"):
            split_rhat(np.zeros((2, 2, 8)))

    def test_odd_length_drops_last_sample(self, rng):
        # Documented: odd n uses the first 2*(n//2) samples, so a wild
        # final sample cannot move the statistic.
        chains = rng.standard_normal((4, 101))
        spiked = chains.copy()
        spiked[:, -1] = 1e9
        assert split_rhat(spiked) == pytest.approx(split_rhat(chains[:, :100]))
