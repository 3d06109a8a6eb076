"""Unit and property tests for the AUC ranking objective (Eq. 18.10)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ranking.objective import (
    empirical_auc,
    midranks,
)


def brute_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


class TestEmpiricalAUC:
    def test_perfect_ranking(self):
        assert empirical_auc(np.array([3.0, 2.0, 1.0]), np.array([1, 1, 0])) == 1.0

    def test_inverted_ranking(self):
        assert empirical_auc(np.array([1.0, 2.0, 3.0]), np.array([1, 0, 0])) == 0.0

    def test_random_ties_half(self):
        assert empirical_auc(np.zeros(10), np.array([1] * 5 + [0] * 5)) == 0.5

    def test_matches_pairwise_definition(self, rng):
        scores = rng.standard_normal(60)
        labels = (rng.random(60) < 0.3).astype(float)
        if labels.sum() in (0, 60):
            labels[0], labels[1] = 1, 0
        assert empirical_auc(scores, labels) == pytest.approx(brute_auc(scores, labels))

    def test_matches_pairwise_with_ties(self, rng):
        scores = rng.integers(0, 4, 50).astype(float)  # heavy ties
        labels = (rng.random(50) < 0.4).astype(float)
        labels[0], labels[1] = 1, 0
        assert empirical_auc(scores, labels) == pytest.approx(brute_auc(scores, labels))

    def test_degenerate_labels_rejected(self):
        with pytest.raises(ValueError):
            empirical_auc(np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            empirical_auc(np.ones(3), np.zeros(3))

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            empirical_auc(np.ones(3), np.ones(2))

    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, n, seed):
        """AUC depends only on the ranking: invariant to exp()."""
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(n)
        labels = (rng.random(n) < 0.5).astype(float)
        if labels.sum() in (0, n):
            labels[0] = 1.0 - labels[0]
        a = empirical_auc(scores, labels)
        b = empirical_auc(np.exp(scores / 3.0), labels)
        assert a == pytest.approx(b)

    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_label_flip_symmetry(self, n, seed):
        """AUC(scores, y) + AUC(scores, 1-y) = 1 for tie-free scores."""
        rng = np.random.default_rng(seed)
        scores = rng.permutation(n).astype(float)  # distinct
        labels = (rng.random(n) < 0.5).astype(float)
        if labels.sum() in (0, n):
            labels[0] = 1.0 - labels[0]
        assert empirical_auc(scores, labels) + empirical_auc(scores, 1 - labels) == pytest.approx(1.0)

    @given(
        st.lists(st.integers(0, 5), min_size=2, max_size=200),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_full_midrank_sum(self, values, seed):
        """Byte-equal to the rank sum over a full midrank ranking, heavy ties included."""
        rng = np.random.default_rng(seed)
        scores = np.asarray(values, dtype=float) * 0.25
        n = scores.size
        labels = (rng.random(n) < rng.random()).astype(float)
        labels[0], labels[-1] = 1.0, 0.0
        pos = labels == 1.0
        n_pos, n_neg = int(pos.sum()), int(n - pos.sum())
        rank_sum = float(midranks(scores)[pos].sum())
        want = (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        assert np.float64(empirical_auc(scores, labels)).tobytes() == np.float64(want).tobytes()
