"""Unit tests for the significance machinery (validated against scipy)."""

import numpy as np
import pytest
from scipy import stats

from repro.eval.significance import paired_t_test, t_sf


class TestTSF:
    @pytest.mark.parametrize("t", [-3.0, -0.5, 0.0, 0.5, 2.0, 10.0])
    @pytest.mark.parametrize("df", [1, 4, 9, 30])
    def test_matches_scipy(self, t, df):
        assert t_sf(t, df) == pytest.approx(stats.t.sf(t, df), rel=1e-9)

    def test_invalid_df(self):
        with pytest.raises(ValueError):
            t_sf(1.0, 0)


class TestPairedTTest:
    def test_matches_scipy_one_sided(self, rng):
        a = rng.normal(0.7, 0.05, 12)
        b = rng.normal(0.65, 0.05, 12)
        ours = paired_t_test(a, b)
        ref = stats.ttest_rel(a, b, alternative="greater")
        assert ours.statistic == pytest.approx(ref.statistic, rel=1e-9)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_matches_scipy_two_sided(self, rng):
        a = rng.normal(0.0, 1.0, 10)
        b = rng.normal(0.2, 1.0, 10)
        ours = paired_t_test(a, b, alternative="two-sided")
        ref = stats.ttest_rel(a, b)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_clear_difference_significant(self, rng):
        a = rng.normal(0.8, 0.01, 8)
        b = rng.normal(0.6, 0.01, 8)
        result = paired_t_test(a, b)
        assert result.significant()
        assert result.statistic > 5

    def test_no_difference_not_significant(self, rng):
        a = rng.normal(0.7, 0.05, 10)
        result = paired_t_test(a, a + rng.normal(0, 0.05, 10))
        # The difference is pure noise; p should rarely be tiny.
        assert result.p_value > 0.001

    def test_degenerate_identical_pairs(self):
        a = np.array([0.5, 0.5, 0.5])
        result = paired_t_test(a, a)
        assert result.p_value == 1.0

    def test_degenerate_constant_positive_difference(self):
        a = np.array([0.6, 0.7, 0.8])
        result = paired_t_test(a, a - 0.1)
        assert result.p_value == 0.0
        assert result.significant()

    def test_validation(self):
        with pytest.raises(ValueError):
            paired_t_test(np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            paired_t_test(np.ones(1), np.ones(1))
        with pytest.raises(ValueError):
            paired_t_test(np.ones(3), np.zeros(3), alternative="less")

    def test_df_and_mean_difference(self, rng):
        a = rng.normal(0.7, 0.1, 15)
        b = rng.normal(0.6, 0.1, 15)
        result = paired_t_test(a, b)
        assert result.df == 14
        assert result.mean_difference == pytest.approx(float((a - b).mean()))
