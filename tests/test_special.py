"""Special functions behind the gain families, against independent oracles.

NakagamiGain(m=s, w=s).cdf is the regularized lower incomplete gamma P(s, x);
capacity._scaled_exp1 is the overflow-safe e^x E1(x) behind the closed-form
exponential rate; the quantiles of NakagamiGain, RatioExpExp and the maximal
coupling's components return the double at which the float cdf crosses u.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import exp1

from gainorder import Exponential, NakagamiGain, RatioExpExp
from gainorder.capacity import _scaled_exp1
from gainorder.coupling import maximal_coupling_spec


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

    def test_against_mpmath_up_to_1e300(self):
        # both branches of _scaled_exp1, including large arguments where e^x overflows
        xs = np.geomspace(1e-4, 1e300, 600)
        with mpmath.workdps(30):
            oracle = [float(mpmath.exp(x) * mpmath.e1(x)) for x in map(mpmath.mpf, xs)]
        np.testing.assert_allclose(_scaled_exp1(xs), oracle, rtol=4e-15)

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
    st.floats(-300.0, -8.0).map(lambda e: 10.0**e),
    st.floats(1e-6, 1.0 - 1e-6),
    st.just(1.0 - 1e-9),
    st.just(1.0),
)
COUPLED_PAIRS = (
    (Exponential(1.0), Exponential(2.0)),
    (NakagamiGain(2.5, 1.5), Exponential(2.0)),
    (NakagamiGain(0.75, 1.0), NakagamiGain(2.2, 3.0)),
)


@functools.cache
def coupling_spec(i):
    return maximal_coupling_spec(*COUPLED_PAIRS[i])


def coupling_component(i, part):
    """(cdf, quantile, cdf noise floor) of one component of a maximal coupling.

    The component cdfs subtract O(1) marginal cdf values, so they carry an
    absolute rounding noise of a few ulps of 1; a residual whose support
    starts at an interior density crossing reads that noise right above it.
    """
    spec = coupling_spec(i)
    noise = 4.0 * np.spacing(1.0)
    if part == 0:
        return spec.shared_cdf, spec.shared_quantile, noise
    return lambda x: spec.residual_cdf(part, x), lambda u: spec.residual_quantile(part, u), noise


def family(d):
    return d.cdf, d.quantile, 0.0


LAWS = st.one_of(
    st.builds(lambda m, w: family(NakagamiGain(m, w)), st.sampled_from(SHAPES),
              st.floats(0.05, 20.0)),
    st.builds(lambda sn, sd, p: family(RatioExpExp(sn, sd, p)), st.floats(0.05, 20.0),
              st.floats(0.05, 20.0), st.sampled_from((0.0, 1e-3, 1.0, 10.0, 100.0))),
    st.builds(coupling_component, st.sampled_from(range(len(COUPLED_PAIRS))),
              st.sampled_from((0, 1, 2))),
)


def brentq_inverse(cdf, u):
    """Independent reference for the quantile: scipy's brentq on cdf(e^s) = u."""
    hi = 1.0
    while float(cdf(hi)) < u:
        hi *= 2.0
    s = brentq(lambda s: float(cdf(math.exp(s))) - u, -746.0, math.log(hi),
               xtol=1e-300, maxiter=1000)
    return math.exp(s)


class TestNakagamiQuantile:
    @settings(max_examples=150, deadline=None)
    @given(law=LAWS, levels=st.lists(QUANTILE_LEVELS, min_size=1, max_size=6))
    def test_least_inverse_of_the_float_cdf(self, law, levels):
        cdf, quantile, noise = law
        u = np.array(levels)
        q = quantile(u)
        assert q.shape == u.shape
        assert np.all(q[u == 0.0] == 0.0)
        assert np.all(q[u == 1.0] == np.inf)
        inner = (u > 0.0) & (u < 1.0)
        u, q = u[inner], q[inner]
        if not u.size:
            return
        assert np.all(cdf(q) >= u)
        assert np.all(cdf(np.nextafter(q, 0.0)) < u)
        ref = np.array([brentq_inverse(cdf, level) for level in u])
        # brentq in log space places the root to about 1e-12 relative, and to
        # an ulp among subnormals
        close = np.abs(ref - q) <= 1e-12 * ref + 4.0 * np.spacing(q)
        # where the float cdf is flat (u near 1) or below its noise floor, the
        # quantile is not resolved to 1e-12 and the reference stops anywhere on
        # that stretch; there the two answers must agree through the cdf
        same_level = np.abs(cdf(ref) - cdf(q)) <= 4.0 * np.spacing(u) + noise
        assert np.all(close | same_level)

    def test_scalar_in_scalar_out(self):
        q = NakagamiGain(2.5, 3.0).quantile(0.5)
        assert isinstance(q, float)
        assert NakagamiGain(2.5, 3.0).cdf(q) >= 0.5

    def test_tiny_levels_resolve(self):
        # 1 - ccdf rounds to 0 below u ~ 1e-16; the exact generalized inverses
        # are u / 2 and the second-smallest positive double
        q = RatioExpExp(1.0, 1.0, 1.0).quantile(1e-30)
        assert q == pytest.approx(5e-31, rel=1e-12, abs=0.0)
        assert NakagamiGain(0.3, 1.0).quantile(1e-300) == 1e-323
