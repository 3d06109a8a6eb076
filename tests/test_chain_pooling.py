"""Unit tests for DPMHBP multi-chain pooling."""

import numpy as np
import pytest

from repro.core.dpmhbp import DPMHBPModel


@pytest.fixture(scope="module")
def two_chain_model(small_model_data):
    model = DPMHBPModel(n_sweeps=12, burn_in=4, n_chains=2, seed=0)
    model.fit(small_model_data)
    return model


class TestChainPooling:
    def test_two_chains_recorded(self, two_chain_model):
        assert len(two_chain_model.chain_posteriors_) == 2

    def test_pooled_mean_is_chain_average(self, two_chain_model):
        chains = two_chain_model.chain_posteriors_
        expected = np.mean([p.rho_mean for p in chains], axis=0)
        assert np.allclose(two_chain_model.posterior_.rho_mean, expected)

    def test_pooled_variance_includes_between_chain(self, two_chain_model):
        chains = two_chain_model.chain_posteriors_
        within = np.mean([p.rho_std**2 for p in chains], axis=0)
        pooled_var = two_chain_model.posterior_.rho_std**2
        assert np.all(pooled_var >= within - 1e-12)

    def test_chains_differ(self, two_chain_model):
        a, b = two_chain_model.chain_posteriors_
        assert not np.allclose(a.rho_mean, b.rho_mean)

    def test_single_chain_matches_raw_sampler(self, small_model_data):
        model = DPMHBPModel(n_sweeps=10, burn_in=3, n_chains=1, seed=5)
        model.fit(small_model_data)
        assert len(model.chain_posteriors_) == 1
        assert np.allclose(
            model.posterior_.rho_mean, model.chain_posteriors_[0].rho_mean
        )

    def test_invalid_chain_count(self, small_model_data):
        with pytest.raises(ValueError):
            DPMHBPModel(n_chains=0).fit(small_model_data)
