"""Unit tests for the DPMHBP sampler and model."""

import numpy as np
import pytest

from repro.core.dpmhbp import DPMHBP, DPMHBPModel
from repro.core.ranking.objective import empirical_auc
from repro.inference.metropolis import metropolis_probability_step, metropolis_probability_steps


def clustered_data(rng, n_per=120, years=11):
    """Two latent cohorts with distinct rates and distinct features."""
    q = np.concatenate([np.full(n_per, 0.02), np.full(n_per, 0.30)])
    failures = (rng.random((2 * n_per, years)) < q[:, None]).astype(np.int8)
    features = np.concatenate(
        [rng.normal(-1.5, 0.4, (n_per, 2)), rng.normal(1.5, 0.4, (n_per, 2))]
    )
    truth = np.concatenate([np.zeros(n_per, int), np.ones(n_per, int)])
    return failures, features, truth


class TestSampler:
    def test_discovers_two_cohorts(self, rng):
        failures, features, truth = clustered_data(rng)
        post = DPMHBP(n_sweeps=40, burn_in=15, seed=1, feature_weight=1.0).fit(
            failures, features
        )
        # Posterior mean rho separates cohorts sharply.
        lo = post.rho_mean[truth == 0].mean()
        hi = post.rho_mean[truth == 1].mean()
        assert hi > 5 * lo

    def test_assignments_respect_features(self, rng):
        failures, features, truth = clustered_data(rng)
        post = DPMHBP(n_sweeps=40, burn_in=15, seed=2, feature_weight=1.0).fit(
            failures, features
        )
        z = post.last_assignments
        # The dominant cluster of each cohort must differ.
        top0 = np.bincount(z[truth == 0]).argmax()
        top1 = np.bincount(z[truth == 1]).argmax()
        assert top0 != top1

    def test_cluster_count_unbounded_but_finite(self, rng):
        failures, features, _ = clustered_data(rng, n_per=60)
        post = DPMHBP(n_sweeps=25, burn_in=10, seed=3, alpha=8.0).fit(failures, features)
        assert 1 <= post.n_clusters_trace[-1] <= 120

    def test_history_only_mode(self, rng):
        failures, _, truth = clustered_data(rng)
        post = DPMHBP(n_sweeps=25, burn_in=10, seed=4, feature_weight=0.0).fit(failures)
        hi = post.rho_mean[truth == 1].mean()
        lo = post.rho_mean[truth == 0].mean()
        assert hi > 3 * lo  # rates alone separate these cohorts

    def test_init_labels_seed_partition(self, rng):
        failures, features, truth = clustered_data(rng, n_per=50)
        post = DPMHBP(n_sweeps=10, burn_in=3, seed=5).fit(
            failures, features, init_labels=truth
        )
        assert post.rho_mean.shape == (100,)

    def test_init_labels_with_gaps_compacted(self, rng):
        """Non-contiguous init labels must be relabelled, not patched by
        mutating a random segment's assignment (the old empty-cluster
        hazard): every cluster in the final state has at least one member."""
        failures, features, truth = clustered_data(rng, n_per=40)
        gappy = np.where(truth == 0, 0, 5)  # labels {0, 5}, clusters 1-4 empty
        post = DPMHBP(n_sweeps=8, burn_in=2, seed=11).fit(
            failures, features, init_labels=gappy
        )
        assert np.array_equal(
            np.unique(post.last_assignments), np.arange(post.last_q.size)
        )

    def test_no_empty_clusters_after_fit(self, rng):
        failures, features, _ = clustered_data(rng, n_per=50)
        for seed in (0, 1, 2, 3):
            post = DPMHBP(n_sweeps=12, burn_in=4, seed=seed).fit(failures, features)
            assert np.array_equal(
                np.unique(post.last_assignments), np.arange(post.last_q.size)
            )

    def test_init_labels_validation(self, rng):
        failures, features, _ = clustered_data(rng, n_per=20)
        with pytest.raises(ValueError):
            DPMHBP(n_sweeps=5, burn_in=1).fit(failures, features, init_labels=np.zeros(3))

    def test_rho_bounded(self, rng):
        failures, features, _ = clustered_data(rng, n_per=40)
        post = DPMHBP(n_sweeps=20, burn_in=5, seed=6).fit(failures, features)
        assert np.all((post.rho_mean >= 0) & (post.rho_mean <= 1))

    def test_input_validation(self, rng):
        with pytest.raises(ValueError):
            DPMHBP(n_sweeps=5, burn_in=10).fit(np.zeros((4, 3), dtype=np.int8))
        with pytest.raises(ValueError):
            DPMHBP(n_sweeps=5, burn_in=1).fit(np.zeros(4, dtype=np.int8))
        with pytest.raises(ValueError):
            DPMHBP(n_sweeps=5, burn_in=1).fit(
                np.zeros((4, 3), dtype=np.int8), np.zeros((5, 2))
            )

    def test_zero_segments_rejected(self):
        with pytest.raises(ValueError, match="segment"):
            DPMHBP(n_sweeps=5, burn_in=1).fit(np.zeros((0, 11), dtype=np.int8))

    @pytest.mark.parametrize("alpha", [0.0, -1.0])
    def test_nonpositive_alpha_rejected(self, rng, alpha):
        failures, features, _ = clustered_data(rng, n_per=10)
        with pytest.raises(ValueError, match="alpha"):
            DPMHBP(n_sweeps=5, burn_in=1, alpha=alpha).fit(failures, features)

    def test_zero_c_group_rejected(self, rng):
        failures, features, _ = clustered_data(rng, n_per=10)
        with pytest.raises(ValueError, match="c_group"):
            DPMHBP(n_sweeps=5, burn_in=1, c_group=0.0).fit(failures, features)

    def test_zero_n_aux_rejected(self, rng):
        failures, features, _ = clustered_data(rng, n_per=10)
        with pytest.raises(ValueError, match="n_aux"):
            DPMHBP(n_sweeps=5, burn_in=1, n_aux=0).fit(failures, features)

    def test_deterministic_given_seed(self, rng):
        failures, features, _ = clustered_data(rng, n_per=30)
        a = DPMHBP(n_sweeps=10, burn_in=3, seed=7).fit(failures, features)
        b = DPMHBP(n_sweeps=10, burn_in=3, seed=7).fit(failures, features)
        for name in (
            "rho_mean",
            "rho_std",
            "n_clusters_trace",
            "last_assignments",
            "last_q",
            "accept_rate_q",
            "log_lik_trace",
            "accept_trace",
        ):
            x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


class TestBatchedRateSteps:
    def test_matches_sequential_steps(self):
        """K batched rate steps equal K sequential calls bit for bit."""
        current = [0.02, 0.3, 1e-13, 0.5, 0.97]
        scales = [0.5, 1.5, 0.2, 3.0, 0.05]
        centres = np.array([0.05, 0.4, 0.01, 0.6, 0.9])

        def batch_target(p):
            k = len(current)
            return [-40.0 * (p[i] - centres[i % k]) ** 2 for i in range(p.size)]

        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        want = [
            metropolis_probability_step(
                q, lambda p, c=c: -40.0 * (p - c) ** 2, scale, rng_a
            )
            for q, scale, c in zip(current, scales, centres)
        ]
        new_p, accepted = metropolis_probability_steps(current, batch_target, scales, rng_b)
        assert new_p == [p for p, _ in want]
        assert accepted == [ok for _, ok in want]
        assert rng_a.random() == rng_b.random()


class TestDPMHBPModel:
    def test_fit_predict_shapes(self, small_model_data):
        model = DPMHBPModel(n_sweeps=15, burn_in=5, seed=0)
        scores = model.fit_predict(small_model_data)
        assert scores.shape == (small_model_data.n_pipes,)
        assert np.all(scores >= 0)

    def test_beats_chance(self, small_model_data):
        model = DPMHBPModel(n_sweeps=25, burn_in=8, seed=0)
        scores = model.fit_predict(small_model_data)
        assert empirical_auc(scores, small_model_data.pipe_fail_test) > 0.55

    def test_segment_risk_exposed(self, small_model_data):
        model = DPMHBPModel(n_sweeps=15, burn_in=5, seed=0).fit(small_model_data)
        rho = model.posterior_.rho_mean
        assert rho.shape == (small_model_data.n_segments,)

    def test_longer_pipes_riskier_all_else_equal(self, small_model_data):
        """The series-system composition: more segments ⇒ higher π."""
        md = small_model_data
        model = DPMHBPModel(n_sweeps=15, burn_in=5, seed=0, covariates=False).fit(md)
        rho = model.posterior_.rho_mean
        pipe_p = md.survival_pipe_probability(rho)
        counts = np.bincount(md.seg_pipe_idx, minlength=md.n_pipes)
        # Across the population, segment count and composed risk correlate.
        corr = np.corrcoef(counts, pipe_p)[0, 1]
        assert corr > 0.2

    def test_predict_before_fit(self, small_model_data):
        with pytest.raises(RuntimeError):
            DPMHBPModel().predict_pipe_risk(small_model_data)
