"""Unit and property tests for distribution helpers."""

from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import betaln

from repro.bayes.distributions import (
    bernoulli_loglik,
    beta_binomial_at,
    beta_binomial_table,
    beta_logpdf,
    beta_mean_concentration,
    clip_unit,
    gaussian_logpdf,
    gaussian_marginal_logpdf_sum,
)

probs = st.floats(min_value=0.01, max_value=0.99)
shapes = st.floats(min_value=0.1, max_value=50.0)


class TestBetaLogpdf:
    @given(probs, shapes, shapes)
    @settings(max_examples=50)
    def test_matches_scipy(self, x, a, b):
        assert beta_logpdf(x, a, b) == pytest.approx(stats.beta.logpdf(x, a, b), rel=1e-6)

    def test_boundary_clipped_finite(self):
        assert np.isfinite(beta_logpdf(0.0, 2.0, 3.0))
        assert np.isfinite(beta_logpdf(1.0, 2.0, 3.0))

    def test_vectorised(self):
        out = beta_logpdf(np.array([0.2, 0.5]), 2.0, 2.0)
        assert out.shape == (2,)


class TestBernoulliLoglik:
    def test_matches_direct(self):
        # 3 successes of 10 at p=0.2
        expected = 3 * np.log(0.2) + 7 * np.log(0.8)
        assert bernoulli_loglik(3, 10, 0.2) == pytest.approx(expected)

    def test_extreme_p_clipped(self):
        assert np.isfinite(bernoulli_loglik(1, 2, 0.0))
        assert np.isfinite(bernoulli_loglik(1, 2, 1.0))


def _exact_log_term(a: float, b: float, s: int, m: int) -> float:
    """log (a)_s (b)_{m-s} / (a+b)_m in exact rational arithmetic, then a 40-digit log."""
    a, b = Fraction(a), Fraction(b)
    ratio = Fraction(1)
    for i in range(s):
        ratio *= a + i
    for i in range(m - s):
        ratio *= b + i
    for i in range(m):
        ratio /= a + b + i
    with localcontext() as ctx:
        ctx.prec = 40
        return float((Decimal(ratio.numerator) / Decimal(ratio.denominator)).ln())


class TestBetaBinomialMarginal:
    """The Beta–Binomial primitive: its table over s = 0..m and its per-count entry."""

    # Rates from 1e-6 to 1 - 1e-6, log-spaced towards both ends.
    RATES = np.concatenate([np.geomspace(1e-6, 0.5, 60), 1.0 - np.geomspace(1e-6, 0.5, 60)])

    @pytest.mark.parametrize("m", [1, 11, 40])
    @pytest.mark.parametrize("c", [4.0, 15.0, 30.0, 300.0])
    def test_matches_scipy_betaln(self, c, m):
        a, b = c * self.RATES, c * (1.0 - self.RATES)
        s = np.arange(m + 1)
        want = betaln(a[:, None] + s, b[:, None] + (m - s)) - betaln(a, b)[:, None]
        got = beta_binomial_table(a, b, m)
        assert got.shape == (self.RATES.size, m + 1)
        assert np.abs(got - want).max() <= 1e-12

    @pytest.mark.parametrize("m", [1, 11, 40])
    @pytest.mark.parametrize("c", [4.0, 300.0])
    def test_matches_exact_rational(self, c, m):
        # 20x tighter than the scipy check: scipy's difference of two
        # log-beta values loses ~1e-12 to cancellation at c = 300, while
        # the products lose a few ulps.
        rates = self.RATES[::7]
        table = beta_binomial_table(c * rates, c * (1.0 - rates), m)
        for row, q in zip(table, rates):
            a, b = c * q, c * (1.0 - q)
            for s in (0, 1, m // 2, m):
                assert row[s] == pytest.approx(_exact_log_term(a, b, s, m), abs=5e-14)

    def test_closed_form(self):
        s, n, a, b = 2, 10, 1.5, 3.0
        expected = betaln(a + s, b + n - s) - betaln(a, b)
        assert beta_binomial_table(a, b, n)[s] == pytest.approx(expected)
        assert beta_binomial_at(a, b, s, n) == pytest.approx(expected)

    @given(
        st.integers(0, 10),
        st.floats(min_value=1.0, max_value=20.0),
        st.floats(min_value=1.0, max_value=20.0),
    )
    @settings(max_examples=40)
    def test_matches_quadrature(self, s, a, b):
        # Shapes >= 1 keep the integrand bounded so the linear grid is exact
        # enough; smaller shapes are covered by the normalisation tests below.
        n = 10
        grid = np.linspace(1e-9, 1 - 1e-9, 20001)
        integrand = grid**s * (1 - grid) ** (n - s) * stats.beta.pdf(grid, a, b)
        numeric = np.log(np.trapezoid(integrand, grid))
        assert beta_binomial_table(a, b, n)[s] == pytest.approx(numeric, abs=5e-3)

    def test_normalises_over_s(self):
        # Σ_s C(n,s)·exp(logmarginal) = 1.
        n, a, b = 8, 2.0, 5.0
        total = sum(comb(n, s) * np.exp(beta_binomial_at(a, b, s, n)) for s in range(n + 1))
        assert total == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("m", [1, 11, 40])
    @pytest.mark.parametrize("c", [4.0, 15.0, 30.0, 300.0])
    def test_table_normalises_at_every_rate(self, c, m):
        table = beta_binomial_table(c * self.RATES, c * (1.0 - self.RATES), m)
        weights = np.array([comb(m, s) for s in range(m + 1)], dtype=float)
        np.testing.assert_allclose(np.exp(table) @ weights, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("m", [1, 11, 40])
    def test_entry_points_agree_bit_for_bit(self, m):
        # DPMHBP scores existing clusters from the table and auxiliary
        # candidates per count, so the two must be one function.
        rng = np.random.default_rng(m)
        q = rng.beta(0.08, 3.92, size=(50, 2))
        a = 30.0 * q
        b = 30.0 - a
        table = beta_binomial_table(a, b, m)
        for s in range(m + 1):
            assert beta_binomial_at(a, b, s, m).tobytes() == table[..., s].tobytes()
            # Plain floats, as for the recycled singleton's weight.
            for i in range(0, 50, 7):
                one = beta_binomial_at(float(a[i, 0]), float(b[i, 0]), s, m)
                assert np.float64(one).tobytes() == table[i, 0, s].tobytes()


class TestConversionsAndMisc:
    def test_mean_concentration(self):
        a, b = beta_mean_concentration(0.2, 10.0)
        assert (a, b) == (2.0, 8.0)
        assert stats.beta.mean(a, b) == pytest.approx(0.2)

    def test_mean_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            beta_mean_concentration(0.0, 1.0)
        with pytest.raises(ValueError):
            beta_mean_concentration(0.5, -1.0)

    def test_clip_unit(self):
        out = clip_unit(np.array([-1.0, 0.5, 2.0]))
        assert 0 < out[0] < 1 and out[1] == 0.5 and 0 < out[2] < 1

    def test_gaussian_logpdf_matches_scipy(self):
        assert gaussian_logpdf(np.array([1.2]), 0.5, 2.0)[0] == pytest.approx(
            stats.norm.logpdf(1.2, 0.5, np.sqrt(2.0))
        )


class TestGaussianMarginal:
    def test_empty_is_zero(self):
        assert gaussian_marginal_logpdf_sum(np.array([]), 0.0, 1.0, 1.0) == 0.0

    def test_single_point_matches_convolution(self):
        # x ~ N(mu, s2), mu ~ N(m0, t2)  =>  x ~ N(m0, s2 + t2).
        x = np.array([0.7])
        got = gaussian_marginal_logpdf_sum(x, 0.2, 1.5, 0.8)
        want = stats.norm.logpdf(0.7, 0.2, np.sqrt(1.5 + 0.8))
        assert got == pytest.approx(want, rel=1e-9)

    def test_many_points_against_numeric_integral(self):
        rng = np.random.default_rng(3)
        x = rng.normal(1.0, 1.0, size=5)
        prior_mean, prior_var, noise = 0.0, 2.0, 1.3
        grid = np.linspace(-10, 12, 40001)
        like = np.exp(
            np.sum(stats.norm.logpdf(x[:, None], grid[None, :], np.sqrt(noise)), axis=0)
        ) * stats.norm.pdf(grid, prior_mean, np.sqrt(prior_var))
        numeric = np.log(np.trapezoid(like, grid))
        got = gaussian_marginal_logpdf_sum(x, prior_mean, prior_var, noise)
        assert got == pytest.approx(numeric, abs=1e-6)
