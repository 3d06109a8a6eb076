"""The batched samplers reproduce the per-step reference loops.

DPMHBP scores its CRP scan a window of steps at a time and draws the
scan's Gumbel noise in blocks; HBP takes its group-rate steps in one
batch scored through count histograms. Both must leave every output
equal, bit for bit, to the loops in ``tests/_reference_samplers.py``,
including the generator state the later Gibbs blocks draw from.

RankSVM differences its sampled pairs in blocks and carries its iterate
scaled by the step count, which reorders the floating-point arithmetic
of each step; its weights match the textbook loop to ``rtol=1e-12``.
That still checks the hinge decisions. Flipping any single one of them
moved some weight by 1.6e-2 relative or more on these fixtures, except
in the first ~100 steps at ``λ = 1e-3``, whose flips the projection onto
the ball erases (the weights agreed to 1e-14).
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core import dpmhbp as dpmhbp_module
from repro.core.dpmhbp import DPMHBP
from repro.core.grouping import GROUPINGS, fixed_grouping
from repro.core.hbp import fit_hbp
from repro.core.ranking import ranksvm as ranksvm_module
from repro.core.ranking.ranksvm import RankSVM
from repro.ml.svm import LinearSVM

from ._reference_samplers import (
    reference_dpmhbp_fit,
    reference_fit_hbp,
    reference_linear_svm,
    reference_ranksvm_coef,
)

POSTERIOR_FIELDS = (
    "rho_mean",
    "rho_std",
    "n_clusters_trace",
    "last_assignments",
    "last_q",
    "accept_rate_q",
    "log_lik_trace",
    "accept_trace",
)


def assert_posteriors_identical(got, want):
    for name in POSTERIOR_FIELDS:
        a = np.asarray(getattr(got, name))
        b = np.asarray(getattr(want, name))
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def seed_partition(md):
    """The material × laid-decade partition ``DPMHBPModel`` seeds chains with."""
    materials = np.asarray(md.pipe_material)[md.seg_pipe_idx]
    decades = (md.seg_laid_year // 10).astype(int)
    _, init = np.unique(
        np.char.add(materials.astype(str), decades.astype(str)), return_inverse=True
    )
    return init


class TestDPMHBPScan:
    def test_seed_partition_default_weight(self, small_model_data):
        md = small_model_data
        sampler = DPMHBP(n_sweeps=6, burn_in=2, seed=1, feature_weight=3.0)
        args = (md.seg_fail_train, md.clustering_features(), seed_partition(md))
        want, _ = reference_dpmhbp_fit(sampler, *args)
        assert_posteriors_identical(sampler.fit(*args), want)

    def test_random_init(self, small_model_data):
        md = small_model_data
        sampler = DPMHBP(n_sweeps=6, burn_in=2, seed=2, feature_weight=3.0)
        args = (md.seg_fail_train, md.clustering_features(), None)
        want, _ = reference_dpmhbp_fit(sampler, *args)
        assert_posteriors_identical(sampler.fit(*args), want)

    @pytest.mark.parametrize("n_aux", [1, 2, 3])
    def test_history_only_births_and_deaths(self, small_model_data, n_aux):
        """With ``feature_weight=0`` K moves: clusters are born and die."""
        md = small_model_data
        sampler = DPMHBP(n_sweeps=6, burn_in=2, seed=3, feature_weight=0.0, n_aux=n_aux)
        args = (md.seg_fail_train, md.clustering_features(), None)
        want, events = reference_dpmhbp_fit(sampler, *args)
        assert events["births"] >= 1
        assert events["deaths"] >= 1
        assert_posteriors_identical(sampler.fit(*args), want)

    @pytest.mark.parametrize("n_aux", [1, 3])
    def test_n_aux_with_features(self, small_model_data, n_aux):
        md = small_model_data
        sampler = DPMHBP(n_sweeps=5, burn_in=1, seed=4, feature_weight=1.0, n_aux=n_aux)
        args = (md.seg_fail_train, md.clustering_features(), seed_partition(md))
        want, _ = reference_dpmhbp_fit(sampler, *args)
        assert_posteriors_identical(sampler.fit(*args), want)

    def test_feature_births(self, rng):
        """A birth draws its mean between two steps' noise, mid-window: the
        stream closes, the generator draws, and a new stream opens."""
        failures = (rng.random((150, 9)) < 0.15).astype(np.int8)
        features = rng.standard_normal((150, 3))
        sampler = DPMHBP(n_sweeps=8, burn_in=2, seed=7, alpha=6.0, feature_weight=1.0)
        want, events = reference_dpmhbp_fit(sampler, failures, features)
        assert events["births"] >= 10 and events["deaths"] >= 10
        assert_posteriors_identical(sampler.fit(failures, features), want)

    @pytest.mark.parametrize("window_bytes", [1, 8 * 7, 1 << 10])
    def test_small_windows(self, rng, monkeypatch, window_bytes):
        """Window boundaries, and noise handed back across draws, change nothing."""
        monkeypatch.setattr(dpmhbp_module, "SCAN_BLOCK_BYTES", window_bytes)
        failures = (rng.random((150, 9)) < 0.15).astype(np.int8)
        features = rng.standard_normal((150, 3))
        for feature_weight in (0.0, 2.0):
            sampler = DPMHBP(
                n_sweeps=8, burn_in=2, seed=5, alpha=6.0, feature_weight=feature_weight
            )
            want, events = reference_dpmhbp_fit(sampler, failures, features)
            assert events["births"] >= 1 and events["deaths"] >= 1
            assert_posteriors_identical(sampler.fit(failures, features), want)

    @pytest.mark.parametrize("n_seg", [1, 2, 3])
    def test_tiny_inputs(self, rng, n_seg):
        """A single segment empties the only cluster every step (K hits 0)."""
        failures = (rng.random((n_seg, 5)) < 0.3).astype(np.int8)
        features = rng.standard_normal((n_seg, 2))
        sampler = DPMHBP(n_sweeps=6, burn_in=1, seed=6, alpha=2.0)
        want, _ = reference_dpmhbp_fit(sampler, failures, features)
        assert_posteriors_identical(sampler.fit(failures, features), want)


class TestScanCertificate:
    """Most scan steps keep the window's speculative draw; the rest are exact.

    ``dpmhbp.scan_exact_steps`` counts the steps whose certificate failed
    and that fell back to the exact row.
    """

    @pytest.fixture()
    def recorder(self):
        rec = telemetry.configure(enabled=True)
        yield rec
        telemetry.disable()

    def test_births_and_deaths_take_both_paths(self, rng, recorder):
        failures = (rng.random((150, 9)) < 0.15).astype(np.int8)
        sampler = DPMHBP(n_sweeps=8, burn_in=2, seed=5, alpha=6.0, feature_weight=0.0)
        want, events = reference_dpmhbp_fit(sampler, failures)
        assert events["births"] >= 1 and events["deaths"] >= 1
        assert_posteriors_identical(sampler.fit(failures), want)
        exact = recorder.snapshot()["counters"]["dpmhbp.scan_exact_steps"]
        assert 0 < exact < 8 * 150

    def test_seed_partition_is_mostly_certified(self, small_model_data, recorder):
        md = small_model_data
        sampler = DPMHBP(n_sweeps=6, burn_in=2, seed=1)
        args = (md.seg_fail_train, md.clustering_features(), seed_partition(md))
        want, _ = reference_dpmhbp_fit(sampler, *args)
        assert_posteriors_identical(sampler.fit(*args), want)
        exact = recorder.snapshot()["counters"]["dpmhbp.scan_exact_steps"]
        assert exact < 0.05 * 6 * md.seg_fail_train.shape[0]


def ranking_data(rng, n=400, d=31):
    """Snapshot-shaped data: as many columns as the grid's ranking features."""
    X = rng.standard_normal((n, d))
    score = X[:, :3] @ np.array([1.5, -1.0, 0.5]) + 0.3 * rng.standard_normal(n)
    return X, (score > np.quantile(score, 0.8)).astype(float)


class TestRankSVM:
    @pytest.mark.parametrize("lam", [1e-3, 0.5])
    def test_blocks_match_per_pair_loop(self, rng, monkeypatch, lam):
        """Many small blocks with a remainder: ``n_pairs`` is not a multiple."""
        X, y = ranking_data(rng)
        monkeypatch.setattr(ranksvm_module, "PAIR_BLOCK_BYTES", 8 * X.shape[1] * 7)
        want, projections = reference_ranksvm_coef(X, y, lam, 3001, 2, seed=3)
        assert projections > 0
        got = RankSVM(lam=lam, n_pairs=3001, epochs=2, seed=3).fit(X, y).coef_
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_default_block_with_remainder(self, rng):
        X, y = ranking_data(rng)
        block = ranksvm_module.PAIR_BLOCK_BYTES // (8 * X.shape[1])
        n_pairs = block + 123
        want, projections = reference_ranksvm_coef(X, y, 0.05, n_pairs, 1, seed=4)
        assert projections > 0
        got = RankSVM(lam=0.05, n_pairs=n_pairs, epochs=1, seed=4).fit(X, y).coef_
        np.testing.assert_allclose(got, want, rtol=1e-12)


    def test_single_pair(self, rng):
        X, y = ranking_data(rng)
        want, _ = reference_ranksvm_coef(X, y, 0.05, 1, 3, seed=5)
        got = RankSVM(lam=0.05, n_pairs=1, epochs=3, seed=5).fit(X, y).coef_
        np.testing.assert_allclose(got, want, rtol=1e-12)


HBP_FIELDS = ("pi_mean", "q_mean", "q_trace", "accept_rate")


def assert_hbp_identical(got, want):
    for name in HBP_FIELDS:
        a = np.asarray(getattr(got, name))
        b = np.asarray(getattr(want, name))
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestHBPRateBatch:
    @pytest.mark.parametrize("grouping", GROUPINGS)
    def test_matches_per_group_loop(self, small_model_data, grouping):
        args = (small_model_data.pipe_fail_train, fixed_grouping(small_model_data, grouping))
        kwargs = dict(c_group=15.0, n_sweeps=60, burn_in=20, seed=4)
        assert_hbp_identical(fit_hbp(*args, **kwargs), reference_fit_hbp(*args, **kwargs))

    def test_group_without_members(self, rng):
        failures = (rng.random((300, 11)) < 0.05).astype(np.int8)
        groups = rng.integers(0, 4, 300)
        groups[groups == 2] = 3  # group 2 is empty
        post = fit_hbp(failures, groups, n_sweeps=80, burn_in=30, seed=2)
        want = reference_fit_hbp(failures, groups, n_sweeps=80, burn_in=30, seed=2)
        assert_hbp_identical(post, want)
        assert post.q_mean.shape == (4,)


class TestLinearSVM:
    @pytest.mark.parametrize("balanced", [True, False])
    @pytest.mark.parametrize("fit_intercept", [True, False])
    def test_matches_reference_loop(self, rng, balanced, fit_intercept):
        X = rng.standard_normal((300, 5)) * 3.0
        y = (X[:, 0] - X[:, 2] > 2.0).astype(int)
        want_coef, want_b = reference_linear_svm(
            X, y, lam=0.05, epochs=3, balanced=balanced, seed=8, fit_intercept=fit_intercept
        )
        model = LinearSVM(
            lam=0.05, epochs=3, balanced=balanced, seed=8, fit_intercept=fit_intercept
        ).fit(X, y)
        assert model.coef_.tobytes() == want_coef.tobytes()
        assert np.float64(model.intercept_).tobytes() == np.float64(want_b).tobytes()
