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

from gainorder import Exponential, NakagamiGain, RatioExpExp, distributions
from gainorder.capacity import _scaled_exp1
from gainorder.coupling import maximal_coupling_samples, maximal_coupling_spec
from gainorder.distributions import law_nodes
from test_coupling import COUPLED_PAIRS, coupling_parts, coupling_spec, true_component


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
def coupling_component(i, part):
    """(cdf, quantile, truth) of one component of a maximal coupling, where
    truth(x) is its true cdf at x and the bound on its float cdf's rounding
    error there that _PiecewiseMinCdf derives.

    The component cdfs subtract O(1) marginal cdf values, so they carry an
    absolute rounding noise of a few ulps of 1; a residual whose support
    starts at an interior density crossing reads that noise right above it.
    """
    spec = coupling_spec(i)
    law = coupling_parts(i)[part]
    return law.cdf, law.quantile, functools.partial(true_component, spec, part)

def family(d):
    return d.cdf, d.quantile, None


@pytest.mark.parametrize("i", range(len(COUPLED_PAIRS)))
def test_component_cdfs_off_the_support_and_at_inf(i):
    # below the support and at NaN a cdf reads 0, as the evaluation contract
    # says; a NaN once sorted past the last segment and read 1.  At inf and
    # far out it reads 1, though the shared part's sum there once rounded an
    # ulp below its mass (the third pair)
    x = np.array([-np.inf, -0.0, np.nan, np.inf, 1e300])
    for law in coupling_parts(i):
        values = law.cdf(x).tolist()
        assert [law.cdf(v) for v in x] == values
        assert values == [0.0, 0.0, 0.0, 1.0, 1.0]


LAWS = st.one_of(
    st.builds(lambda mean: family(Exponential(mean)), st.floats(0.05, 20.0)),
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
        self.check_inverse(law, np.array(levels))

    @pytest.mark.parametrize("m", SHAPES + (7.0,))
    def test_large_batches_from_the_table(self, m):
        # more than _TABLE_FROM levels seed from the quantile table and a
        # Halley step: the levels of QUANTILE_LEVELS, levels above 31/32 and
        # next to the table's ends, and levels outside its span
        rng = np.random.default_rng(int(10 * m))
        ends = distributions._table_levels()[[0, -1]]
        u = np.concatenate([
            rng.random(1500), 1.0 - rng.random(500) / 32.0, 10.0 ** rng.uniform(-300, -8, 200),
            [0.0, 1.0, 1e-12, 1.0 - 1e-12, 1.0 - 1e-9, 1e-15, 1e-16, 1.0 - 2.0**-53],
            np.nextafter(ends, 0.5), ends, np.nextafter(ends, [0.0, 1.0]),
        ])
        assert u.size > distributions._TABLE_FROM
        self.check_inverse(family(NakagamiGain(m, 1.7)), u)

    @staticmethod
    def check_inverse(law, u):
        cdf, quantile, truth = law
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
        # where the float cdf is flat (u near 1) the quantile is not resolved to
        # 1e-12 and the reference stops anywhere on that stretch; there the two
        # answers must agree through the cdf
        if truth is None:
            assert np.all(close | (np.abs(cdf(ref) - cdf(q)) <= 4.0 * np.spacing(u)))
            return
        # a component cdf also wobbles, by up to its stated rounding bound, so
        # there the answer must cross u in the true cdf to within that bound
        for x, v in zip(q[~close], u[~close]):
            at, e_at = truth(x)
            below, e_below = truth(np.nextafter(x, 0.0))
            assert at >= v - e_at
            assert below < v + e_below

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
        # the closed form -mean log1p(-u) gives the next double up, whose
        # predecessor's float cdf already reaches u
        assert Exponential(4.333401440430294).quantile(1e-300) == 4.333401440430294e-300


class TestInversionCost:
    """Cdf evaluations of the exact inversion from each family's seed:
    counts, so they repeat exactly."""

    @staticmethod
    def counted(monkeypatch, family):
        calls = []
        kernel = family._cdf

        def cdf(self, x):
            calls.append(x.size)
            return kernel(self, x)

        monkeypatch.setattr(family, "_cdf", cdf)
        return calls

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.6, 2.2, 4.0])
    def test_nakagami_rule_in_few_cdf_calls(self, monkeypatch, m):
        # the 528 quadrature levels reach 1 - 1e-10, where seeds aimed at u
        # instead of its rounding boundary sat 1e10 ulps off and took 72 calls
        calls = self.counted(monkeypatch, NakagamiGain)
        x, _ = law_nodes(NakagamiGain(m, 1.3))
        assert x.size == 528
        assert len(calls) <= 16

    @staticmethod
    def inverse_seed(d, u):
        """The seed of a batch of at most _TABLE_FROM levels: scipy's inverses,
        gammainccinv aimed at the rounding boundary of u above u = 31/32."""
        from scipy.special import gammainccinv, gammaincinv

        tail = u > 0.96875
        est = gammaincinv(d.m, u)
        est[tail] = gammainccinv(d.m, (1.0 - u[tail]) + 0.5 * np.spacing(u[tail]))
        return est * (d.w / d.m)

    @pytest.mark.parametrize("m", [0.5, 0.75, 1.6, 2.2, 4.0])
    def test_nakagami_batch_seeds_from_the_table(self, monkeypatch, m):
        # scipy's inverses see only the table's 511 levels and the 4 levels
        # outside its span; the cdf and ccdf points per level, the Halley
        # step's included, measured 5.9 at m = 0.5 down to 3.9 at m = 4
        import scipy.special

        inverted = []
        for name in ("gammaincinv", "gammainccinv"):
            def counted(a, x, inverse=getattr(scipy.special, name)):
                inverted.append(np.size(x))
                return inverse(a, x)
            monkeypatch.setattr(scipy.special, name, counted)
        points = self.counted(monkeypatch, NakagamiGain)
        ccdf = NakagamiGain._ccdf

        def counted_ccdf(self, x):
            points.append(x.size)
            return ccdf(self, x)

        monkeypatch.setattr(NakagamiGain, "_ccdf", counted_ccdf)
        u = np.random.default_rng(9).random(30_000)
        u[:4] = [1e-300, 1e-16, 1.0 - 2.0**-53, 0.0]
        NakagamiGain(m, 1.3).quantile(u)
        assert sum(inverted) == distributions._table_levels().size + 4
        assert sum(points) <= 6.0 * u.size

    @pytest.mark.parametrize("m", [0.3, 0.75, 2.2])
    @pytest.mark.parametrize("n", [1, 528, 2048])
    def test_small_batches_keep_the_inverse_seed(self, m, n):
        d = NakagamiGain(m, 1.3)
        u = np.random.default_rng(n).random(n)
        want = distributions._invert_cdf(d._cdf, u, self.inverse_seed(d, u))
        assert np.array_equal(d.quantile(u), want)

    def test_levels_outside_the_table_keep_the_inverse_seed(self):
        d = NakagamiGain(0.75, 1.3)
        out = np.array([1e-300, 1e-20, 1e-16, 1.0 - 2.0**-53, 1.0 - 2.0**-52])
        u = np.concatenate([out, np.random.default_rng(4).random(3000)])
        want = distributions._invert_cdf(d._cdf, out, self.inverse_seed(d, out))
        assert np.array_equal(d.quantile(u)[:out.size], want)

    @staticmethod
    def evaluations(monkeypatch):
        """Calls of _evaluate, the public evaluation's guard around a kernel."""
        calls = []
        evaluate = distributions._evaluate

        def counted(kernel, x, below):
            calls.append(np.size(x))
            return evaluate(kernel, x, below)

        monkeypatch.setattr(distributions, "_evaluate", counted)
        return calls

    def test_exponential_quantile_inverts_the_bare_kernel(self, monkeypatch):
        calls = self.evaluations(monkeypatch)
        Exponential(2.0).quantile(np.random.default_rng(3).random(5000))
        assert calls == []

    @pytest.mark.parametrize("pair", [0, 2])
    def test_maximal_samples_evaluate_a_fixed_number_of_times(self, monkeypatch, pair):
        # the probes and Newton points of every inversion go to the kernels;
        # only the residual tables' densities, once per spec, are guarded
        calls = self.evaluations(monkeypatch)
        counts = []
        for n in (300, 30_000):
            spec = maximal_coupling_spec(*COUPLED_PAIRS[pair])
            rng = np.random.default_rng(n)
            start = len(calls)
            _, _, eq = maximal_coupling_samples(spec, rng.random(n), rng.random(n))
            assert eq.any() and not eq.all()
            counts.append(len(calls) - start)
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("mean", [0.7, 2.0, 3.3])
    def test_exponential_in_few_cdf_points_per_level(self, monkeypatch, mean):
        u = np.random.default_rng(8).random(20000)
        calls = self.counted(monkeypatch, Exponential)
        Exponential(mean).quantile(u)
        assert sum(calls) <= 2.5 * u.size
