"""Special functions behind the gain families, against independent oracles.

NakagamiGain(m=s, w=s).cdf is the regularized lower incomplete gamma P(s, x);
capacity._scaled_exp1 is the overflow-safe e^x E1(x) behind the closed-form
exponential rate; NakagamiGain.quantile returns the double at which scipy's
gamma cdf crosses u.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from gainorder import NakagamiGain
from gainorder.capacity import _scaled_exp1
from gainorder.distributions import _invert_cdf


def gamma_p(s, x):
    return NakagamiGain(m=s, w=s).cdf(x)


class TestLowerIncompleteGamma:
    def test_reduces_to_exponential_cdf_at_s_one(self):
        assert gamma_p(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_zero_argument(self):
        for s in (0.1, 1.0, 7.3, 50.0):
            assert gamma_p(s, 0.0) == 0.0

    def test_half_integer_identity(self):
        # gamma(1/2, x) / Gamma(1/2) = erf(sqrt(x))
        assert gamma_p(0.5, 0.5) == pytest.approx(math.erf(math.sqrt(0.5)), abs=1e-12)

    def test_against_direct_quadrature(self):
        for s, x in [(0.3, 0.2), (2.0, 5.0), (11.0, 9.0)]:
            oracle, _ = quad(lambda t: t ** (s - 1) * math.exp(-t), 0.0, x, limit=200)
            oracle /= math.gamma(s)
            assert gamma_p(s, x) == pytest.approx(oracle, abs=1e-10)

    def test_vector_input(self):
        xs = np.array([0.0, 0.5, 3.0, 40.0])
        out = gamma_p(2.5, xs)
        assert out.shape == xs.shape
        assert np.all(np.diff(out) > 0)

    def test_domain_rejection(self):
        for s in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                gamma_p(s, 1.0)


class TestExpIntegralE1:
    def test_reference_points(self):
        # E1(1) and E1(0.5), frozen from a series/continued-fraction oracle
        assert _scaled_exp1(1.0) * math.exp(-1.0) == pytest.approx(0.21938393439552026, abs=1e-10)
        assert _scaled_exp1(0.5) * math.exp(-0.5) == pytest.approx(0.55977359477616081, abs=1e-10)

    def test_against_scipy_over_domain(self):
        xs = np.geomspace(1e-4, 50.0, 400)
        np.testing.assert_allclose(_scaled_exp1(xs), np.exp(xs) * exp1(xs), rtol=1e-12)

    def test_against_quadrature(self):
        for x in (0.2, 1.7, 9.0):
            oracle, _ = quad(lambda t: math.exp(-t) / t, x, np.inf, limit=200)
            assert _scaled_exp1(x) * math.exp(-x) == pytest.approx(oracle, abs=1e-10)

    def test_standard_tail_bound(self):
        # 1/(x + 1) < e^x E1(x) < 1/x, also where e^x itself overflows
        for x in (5.0, 20.0, 50.0, 800.0, 1e6):
            assert 1.0 / (x + 1.0) < _scaled_exp1(x) < 1.0 / x

    def test_domain_rejection(self):
        for x in (0.0, -2.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                _scaled_exp1(x)


SHAPES = (0.3, 0.75, 1.0, 2.2, 2.5)
QUANTILE_LEVELS = st.one_of(
    st.just(0.0),
    st.floats(-14.0, -8.0).map(lambda e: 10.0**e),
    st.floats(1e-6, 1.0 - 1e-6),
    st.just(1.0 - 1e-9),
    st.just(1.0),
)


class TestNakagamiQuantile:
    @settings(max_examples=150, deadline=None)
    @given(m=st.sampled_from(SHAPES), w=st.floats(0.05, 20.0),
           levels=st.lists(QUANTILE_LEVELS, min_size=1, max_size=6))
    def test_least_inverse_of_the_float_cdf(self, m, w, levels):
        d = NakagamiGain(m, w)
        u = np.array(levels)
        q = d.quantile(u)
        assert q.shape == u.shape
        assert np.all(q[u == 0.0] == 0.0)
        assert np.all(q[u == 1.0] == np.inf)
        inner = (u > 0.0) & (u < 1.0)
        u, q = u[inner], q[inner]
        if not u.size:
            return
        assert np.all(d.cdf(q) >= u)
        assert np.all(d.cdf(np.nextafter(q, 0.0)) < u)
        ref = _invert_cdf(d.cdf, u, hi_guess=w + 10.0 * w / math.sqrt(m), pdf=d.pdf)
        # where the float cdf is flat (u near 1) it cannot place the quantile to
        # 1e-12 and the reference stops anywhere on the flat stretch; there the
        # two answers must agree through the cdf to a few ulps of u instead
        close = np.abs(ref - q) <= 1e-12 * ref
        same_level = np.abs(d.cdf(ref) - d.cdf(q)) <= 4.0 * np.spacing(u)
        assert np.all(close | same_level)

    def test_scalar_in_scalar_out(self):
        q = NakagamiGain(2.5, 3.0).quantile(0.5)
        assert isinstance(q, float)
        assert NakagamiGain(2.5, 3.0).cdf(q) >= 0.5
