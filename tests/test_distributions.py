import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from gainorder import (
    BernoulliGain,
    Empirical,
    EvaluationGrid,
    Exponential,
    NakagamiGain,
    PointMass,
    RatioExpExp,
    RatioLaw,
    build_ratio,
    distribution_from_spec,
)
from gainorder import distributions
from gainorder.coupling import maximal_coupling_spec
from gainorder.distributions import gamma_law
from test_coupling import COUPLED_PAIRS, coupling_parts


def ks_distance(samples: np.ndarray, cdf) -> float:
    xs = np.sort(samples)
    n = xs.size
    f = np.asarray(cdf(xs))
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


def same_doubles(a, b) -> bool:
    """Whether two sequences hold the same doubles, bit for bit."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def random_family(rng):
    kind = rng.integers(0, 4)
    if kind == 0:
        return Exponential(mean_gain=float(rng.uniform(0.05, 10.0)))
    if kind == 1:
        return NakagamiGain(m=float(rng.uniform(0.2, 8.0)), w=float(rng.uniform(0.1, 5.0)))
    if kind == 2:
        return BernoulliGain(q=float(rng.uniform(0.0, 1.0)))
    return RatioExpExp(
        num_mean=float(rng.uniform(0.1, 5.0)),
        den_mean=float(rng.uniform(0.05, 2.0)),
        power=float(rng.uniform(0.0, 20.0)),
    )


class TestCdf:
    def test_exponential_support_boundary(self):
        assert Exponential(1.0).cdf(0.0) == 0.0

    def test_exponential_closed_form(self):
        assert Exponential(2.0).cdf(2.0 * math.log(2.0)) == pytest.approx(0.5, abs=1e-14)

    def test_nakagami_m1_equals_exponential(self):
        nak = NakagamiGain(m=1.0, w=2.0)
        exp = Exponential(2.0)
        xs = np.linspace(0.0, 40.0, 257)
        assert np.max(np.abs(np.asarray(nak.cdf(xs)) - np.asarray(exp.cdf(xs)))) < 1e-10

    def test_cdf_monotone_and_bounded(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = random_family(rng)
            xs = np.linspace(0.0, d.tail_quantile(1e-6), 200)
            f = np.asarray(d.cdf(xs))
            assert np.all(f >= 0.0) and np.all(f <= 1.0)
            assert np.all(np.diff(f) >= -1e-15)

    def test_ccdf_complements_cdf(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = random_family(rng)
            xs = np.linspace(0.0, d.tail_quantile(1e-6), 64)
            assert np.max(np.abs(np.asarray(d.ccdf(xs)) + np.asarray(d.cdf(xs)) - 1.0)) < 1e-12

    def test_below_support_is_zero(self):
        for d in (Exponential(1.0), NakagamiGain(2.0, 1.0), BernoulliGain(0.5), PointMass(2.0)):
            assert d.cdf(-1.0) == 0.0

    @settings(max_examples=150, deadline=None)
    @given(m=st.floats(math.log(0.3), math.log(20.0)).map(math.exp),
           w=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
           t=st.floats(math.log(1e-3), math.log(700.0)).map(math.exp))
    # the upper tail, where 1 - gammainc reads 0
    @example(m=1.0981231664358804, w=0.2362318909377042, t=680.0)
    # x near m, where scipy's gammaincc is least accurate
    @example(m=1.9, w=1.9, t=1.9)
    # m next to 1/2 with x below 1.1, where scipy's own series is 266 ulps off
    @example(m=math.exp(-0.6875), w=1.0, t=1.0)
    def test_nakagami_ccdf_against_mpmath(self, m, w, t):
        # x = t w / m puts the regularized upper gamma function Q(m, t)
        # anywhere from about 1 down to 1e-300; rounding the argument alone
        # costs about t eps relative
        d, x = NakagamiGain(m, w), t * w / m
        with mpmath.workdps(50):
            arg = mpmath.mpf(m) * mpmath.mpf(x) / mpmath.mpf(w)
            exact = mpmath.gammainc(m, arg, mpmath.inf, regularized=True)
            error = float(abs(mpmath.mpf(d.ccdf(x)) / exact - 1))
        assert error <= 64 * np.finfo(float).eps * (1.0 + float(arg))


class TestQuantile:
    def test_exponential_closed_form_inverse(self):
        assert Exponential(1.0).quantile(1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_u_zero_gives_support_infimum(self):
        assert Exponential(1.0).quantile(0.0) == 0.0
        assert PointMass(2.0).quantile(0.0) == 2.0
        assert BernoulliGain(1.0).quantile(0.0) == 1.0

    def test_bernoulli_generalized_inverse_jump(self):
        b = BernoulliGain(0.7)
        assert b.quantile(0.3) == 0.0
        assert b.quantile(0.31) == 1.0

    def test_domain_rejection(self):
        with pytest.raises(ValueError):
            Exponential(1.0).quantile(-0.1)
        with pytest.raises(ValueError):
            Exponential(1.0).quantile(1.5)

    def test_galois_property_random_draws(self):
        # 1000 random (family, u, x) draws: cdf(quantile(u)) >= u and
        # quantile(cdf(x)) <= x at continuity points of the cdf
        rng = np.random.default_rng(11)
        for _ in range(1000):
            d = random_family(rng)
            u = float(rng.uniform(0.0, 1.0))
            q = d.quantile(u)
            assert d.cdf(q) >= u - 1e-12
            x = float(rng.uniform(0.0, 3.0))
            atoms, _ = d.atoms()
            if atoms.size and np.any(np.isclose(atoms, x)):
                continue
            assert d.quantile(d.cdf(x)) <= x + 1e-9 * (1.0 + x)

    def test_left_continuity_in_u(self):
        d = NakagamiGain(1.7, 2.0)
        u = 0.42
        approach = d.quantile(np.array([u - 1e-9, u - 1e-12, u]))
        assert approach[0] <= approach[1] <= approach[2] + 1e-12
        assert abs(approach[0] - approach[2]) < 1e-6


CONTRACT_LAWS = [
    Exponential(2.0),
    NakagamiGain(2.5, 1.0),
    NakagamiGain(1.0, 2.0),
    NakagamiGain(0.6, 1.0),
    BernoulliGain(0.3),
    BernoulliGain(0.0),
    BernoulliGain(1.0),
    PointMass(1.5),
    RatioExpExp(1.0, 0.1, 10.0),
    RatioExpExp(1.7, 0.4, 0.0),
    RatioExpExp(2.0, 0.5, 1.0, num_shape=2.5),
    RatioExpExp(2.0, 0.5, 0.0, num_shape=0.75),
    # conditioned on the denominator's rule, on a discrete numerator, and a step law
    RatioLaw(Exponential(1.0), NakagamiGain(2.0, 1.0), 1.0),
    RatioLaw(BernoulliGain(0.5), Exponential(1.0), 1.0),
    RatioLaw(BernoulliGain(0.5), PointMass(1.0), 1.0),
    Empirical((1.0, 2.0, 2.0, 5.0)),
    # the shared and residual laws of maximal couplings
    *(law for i in range(len(COUPLED_PAIRS)) for law in coupling_parts(i)),
]
# the laws whose quantile is an exact inversion of the cdf, not an atom search
INVERTED_LAWS = [d for d in CONTRACT_LAWS if distributions.step_atoms(d) is None]
BELOW_SUPPORT = [-math.inf, -1e300, -1.0, math.nan]
# the largest double too: a kernel's x / mean or x * rate overflows there
FAR_ABOVE = [1e300, np.finfo(float).max, math.inf]


STEP_LAWS = st.one_of(
    st.builds(BernoulliGain, st.floats(0.0, 1.0)),
    st.builds(PointMass, st.floats(0.0, 10.0)),
    st.lists(st.integers(0, 12), min_size=1, max_size=60).map(
        lambda v: Empirical.from_samples([k / 4.0 for k in v])),
    st.builds(RatioLaw, st.builds(BernoulliGain, st.floats(0.0, 1.0)),
              st.builds(BernoulliGain, st.floats(0.0, 1.0)), st.floats(0.1, 10.0)),
)


@st.composite
def step_law_and_level(draw):
    d = draw(STEP_LAWS)
    xs, _ = d.atoms()
    # a level anywhere, or exactly the float cdf at an atom
    u = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([float(d.cdf(a)) for a in xs])))
    return d, u


class TestEvaluationContract:
    """What GainDistribution gives every family: the support convention, shapes
    and the generalized inverse."""

    @pytest.mark.parametrize("d", CONTRACT_LAWS, ids=repr)
    def test_edge_abscissae(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in BELOW_SUPPORT:
                assert (d.cdf(x), d.ccdf(x), d.ccdf_left(x)) == (0.0, 1.0, 1.0), x
            assert ((d.cdf(-0.0), d.ccdf(-0.0), d.ccdf_left(-0.0))
                    == (d.cdf(0.0), d.ccdf(0.0), d.ccdf_left(0.0)))
            for x in FAR_ABOVE:
                assert (d.cdf(x), d.ccdf(x), d.ccdf_left(x)) == (1.0, 0.0, 0.0), x
            # the smallest subnormal
            tiny = (d.cdf(5e-324), d.ccdf(5e-324), d.ccdf_left(5e-324))
            assert all(0.0 <= v <= 1.0 for v in tiny), tiny
            if d.continuous:
                assert [d.pdf(x) for x in BELOW_SUPPORT + FAR_ABOVE] == [0.0] * 7
                assert d.pdf(-0.0) == d.pdf(0.0)
            else:
                with pytest.raises(ValueError, match="has no density"):
                    d.pdf(1.0)

    @pytest.mark.parametrize("d", CONTRACT_LAWS, ids=repr)
    def test_shapes(self, d):
        x = np.array([[-1.0, 0.0, 0.5], [1.0, 2.0, math.inf]])
        u = np.array([[0.0, 0.1, 0.5], [0.7, 0.99, 1.0]])
        calls = [(d.cdf, x), (d.ccdf, x), (d.ccdf_left, x), (d.quantile, u), (d.sample, u[:, 1:2])]
        if d.continuous:
            calls.append((d.pdf, x))
        for f, arg in calls:
            scalars = [f(v) for v in arg.ravel()]
            assert all(type(v) is float for v in scalars), f
            for shaped in (arg.ravel(), arg):
                out = f(shaped)
                assert isinstance(out, np.ndarray) and out.shape == shaped.shape, f
                assert same_doubles(out.ravel(), scalars), f

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(CONTRACT_LAWS),
           st.lists(st.one_of(st.floats(-1.0, 12.0), st.floats(0.0, 1e6)), min_size=1,
                    max_size=40),
           st.data())
    def test_a_point_has_one_value_in_any_batch(self, d, points, data):
        # a point's value may not depend on the other points of the call
        x = np.array(points)
        order = np.array(data.draw(st.permutations(range(x.size))))
        kernels = [d.cdf, d.ccdf, d.ccdf_left] + ([d.pdf] if d.continuous else [])
        for f in kernels:
            batch = f(x)
            assert same_doubles(batch, [f(v) for v in points]), f
            assert same_doubles(f(x[order]), batch[order]), f

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(CONTRACT_LAWS),
           st.lists(st.one_of(st.floats(0.0, 12.0), st.floats(0.0, np.finfo(float).max),
                              st.just(math.inf)),
                    min_size=1, max_size=40))
    def test_kernels_are_the_public_evaluation_on_the_support(self, d, points):
        # what lets the exact inversion call a family's kernels directly; near
        # the largest double a kernel overflows on its way to its limit there,
        # which the public evaluation lets pass as well
        x = np.array(points)
        pairs = [(d._cdf, d.cdf)] + ([(d._pdf, d.pdf)] if d.continuous else [])
        for kernel, public in pairs:
            with np.errstate(over="ignore"):
                bare = kernel(x)
            assert same_doubles(bare, public(x)), public

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(INVERTED_LAWS),
           st.lists(st.one_of(st.sampled_from([0.0, 1e-300, 0.5, 1.0 - 1e-9, 1.0 - 2.0**-53,
                                                1.0]),
                              st.floats(-300.0, -1.0).map(lambda e: 10.0**e),
                              st.floats(0.0, 1.0)),
                    min_size=1, max_size=40))
    def test_quantile_inverts_the_kernel_as_it_inverted_the_public_cdf(self, d, levels):
        u = np.array(levels)
        ref = distributions._invert_cdf(d.cdf, u, d._quantile_estimate(u))
        assert same_doubles(d.quantile(u), ref)

    @settings(max_examples=300, deadline=None)
    @given(step_law_and_level())
    # a RatioLaw once summed its rule by a matrix product, whose rounding
    # depends on the batch: cdf(0) read 0.15234375 alone but one ulp less
    # among the atoms, and the quantile of that level was the next atom
    @example((RatioLaw(BernoulliGain(0.84765625), BernoulliGain(0.2701264752192836), 1.0),
              0.15234375))
    def test_step_law_quantile_is_the_least_atom_reaching_u(self, law_and_level):
        d, u = law_and_level
        xs, _ = d.atoms()
        reaching = [a for a in xs if d.cdf(a) >= u]
        assert d.quantile(u) == (min(reaching) if reaching else max(xs))

    def test_empirical_quantile_at_its_own_levels(self):
        # cdf(7) is the double 7/25 = 0.28, and ceil(0.28 * 25) = 8
        d = Empirical(tuple(float(k) for k in range(1, 26)))
        assert d.cdf(7.0) == 0.28 and d.quantile(0.28) == 7.0
        for n in range(1, 60):
            d = Empirical(tuple(float(k) for k in range(1, n + 1)))
            levels = np.arange(1, n + 1) / n
            assert np.array_equal(d.quantile(levels), np.arange(1.0, n + 1.0)), n

    def test_step_ratio_law_quantile_one_is_its_largest_atom(self):
        d = RatioLaw(BernoulliGain(0.5), PointMass(1.0), 1.0)
        assert d.quantile(1.0) == 0.5 and d.tail_quantile() == 0.5

    @pytest.mark.parametrize("d", CONTRACT_LAWS, ids=repr)
    def test_tail_outside_the_open_unit_interval_raises(self, d):
        # one contract for every law: a step law no longer ignores the tail,
        # and Exponential(1).tail_quantile(2) no longer reads -ln 2
        for tail in (0.0, 1.0, 2.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^tail must lie strictly inside \(0, 1\), got "):
                d.tail_quantile(tail)

    @pytest.mark.parametrize("d", [NakagamiGain(2.5, 1.0), Empirical((1.0, 2.0, 2.0, 5.0))],
                             ids=repr)
    def test_quadrature_rules_are_read_only(self, d):
        # a rule is memoized on its law (its weights shared by every law), so
        # one caller's w *= ... would corrupt every later rate
        for order in (24, 12):
            rule = distributions.law_nodes(d, order)
            assert distributions.law_nodes(d, order) is rule
            for a in rule:
                with pytest.raises(ValueError, match="read-only"):
                    a *= 2.0

    def test_empirical_nan_is_below_support(self):
        d = Empirical((1.0, 2.0))
        assert (d.cdf(math.nan), d.ccdf(math.nan), d.ccdf_left(math.nan)) == (0.0, 1.0, 1.0)

    @pytest.mark.parametrize("d", [
        RatioLaw(Exponential(1.0), NakagamiGain(2.0, 1.0), 1.0),
        RatioLaw(NakagamiGain(0.6, 2.0), NakagamiGain(2.5, 0.5), 3.0),
        RatioLaw(BernoulliGain(0.3), Exponential(1.0), 2.0),
    ], ids=repr)
    def test_ratio_law_probabilities_stay_in_the_unit_interval(self, d):
        # the rule's weighted sum used to read cdf(0) = -4.4e-16 in this call
        x = np.array([-1.0, 0.0, 0.5, 1.0, 2.0, math.inf])
        cdf, ccdf = d.cdf(x), d.ccdf(x)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all((ccdf >= 0.0) & (ccdf <= 1.0))
        assert (cdf[0], ccdf[0], cdf[-1], ccdf[-1]) == (0.0, 1.0, 1.0, 0.0)

    def test_ratio_law_cdf_at_zero(self):
        d = RatioLaw(Exponential(1.0), NakagamiGain(2.0, 1.0), 1.0)
        assert d.cdf(np.array([-1.0, 0.0, 0.5, 1.0, 2.0, math.inf]))[1] == 0.0


class TestGammaLaw:
    @pytest.mark.parametrize("d, law", [
        (Exponential(2.5), (1.0, 2.5)),
        (NakagamiGain(2.5, 3.0), (2.5, 3.0)),
        (NakagamiGain(1.0, 0.5), (1.0, 0.5)),
        (NakagamiGain(2, 3), (2.0, 3)),
        (BernoulliGain(0.5), None),
        (PointMass(1.0), None),
        (RatioExpExp(1.0, 1.0, 1.0), None),
        (RatioExpExp(1.0, 1.0, 0.0, num_shape=2.0), None),
        (RatioLaw(Exponential(1.0), Exponential(1.0), 1.0), None),
        (Empirical((0.5, 1.0)), None),
    ], ids=repr)
    def test_every_family(self, d, law):
        assert gamma_law(d) == law
        if law is not None:
            assert type(gamma_law(d)[0]) is float


class TestSampling:
    def test_exponential_median(self):
        assert Exponential(1.0).sample(0.5) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_point_mass_any_u(self):
        assert PointMass(2.0).sample(0.123) == 2.0
        assert PointMass(2.0).sample(0.987) == 2.0

    def test_bernoulli_generalized_inverse(self):
        assert BernoulliGain(0.7).sample(0.9) == 1.0

    def test_open_interval_enforced(self):
        with pytest.raises(ValueError):
            Exponential(1.0).sample(0.0)
        with pytest.raises(ValueError):
            Exponential(1.0).sample(1.0)
        with pytest.raises(ValueError, match="sampling variates must lie strictly inside"):
            Exponential(1.0).sample([0.5, math.nan])

    @pytest.mark.parametrize(
        "dist",
        [
            Exponential(1.0),
            Exponential(3.3),
            NakagamiGain(0.5, 1.0),
            NakagamiGain(2.0, 1.0),
            RatioExpExp(1.0, 0.1, 1.0),
        ],
        ids=lambda d: repr(d),
    )
    def test_inverse_transform_ks(self, dist):
        rng = np.random.default_rng(101)
        n = 100_000
        u = rng.random(n)
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        samples = np.asarray(dist.sample(u))
        assert ks_distance(samples, dist.cdf) < 1.36 / math.sqrt(n) * 1.5


class TestRatioExpExp:
    def test_cdf_zero_at_origin(self):
        for power in (0.0, 1.0, 100.0):
            assert build_ratio(1.0, 0.1, power).cdf(0.0) == 0.0
        assert build_ratio(2.5, 0.3, 7.0).cdf(0.0) == 0.0

    def test_corrected_closed_form_value(self):
        # ccdf(1) = e^-1 / 1.1 for num_mean=1, den_mean=0.1, power=1
        r = build_ratio(1.0, 0.1, 1.0)
        assert r.ccdf(1.0) == pytest.approx(math.exp(-1.0) / 1.1, abs=1e-14)

    def test_power_zero_reduces_to_exponential(self):
        r = build_ratio(1.7, 0.4, 0.0)
        e = Exponential(1.7)
        xs = np.linspace(0.0, 30.0, 200)
        assert np.max(np.abs(np.asarray(r.cdf(xs)) - np.asarray(e.cdf(xs)))) < 1e-14

    def test_cdf_matches_brute_force_ratio_sampling(self):
        # independent oracle: simulate H_num / (1 + P * H_den) directly
        num_mean, den_mean, power = 1.0, 0.1, 1.0
        r = build_ratio(num_mean, den_mean, power)
        rng = np.random.default_rng(42)
        n = 1_000_000
        h_num = -num_mean * np.log1p(-rng.random(n))
        h_den = -den_mean * np.log1p(-rng.random(n))
        z = h_num / (1.0 + power * h_den)
        assert ks_distance(z, r.cdf) < 0.003

    def test_pdf_integrates_to_cdf(self):
        from scipy.integrate import quad

        r = build_ratio(1.0, 0.7, 10.0)
        for x in (0.3, 1.0, 4.0):
            val, _ = quad(r.pdf, 0.0, x, limit=200)
            assert val == pytest.approx(float(r.cdf(x)), abs=1e-9)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_ratio(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_ratio(1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            build_ratio(1.0, 1.0, -0.5)


def _ratio_tail_root(s_n, k, tail):
    """s_n t for the root t of e^-t / (1 + k t) = q, q = 1 - fl(1 - tail), by
    40-digit mpmath bisection of t + ln(1 + k t) = -ln q on [0, -ln q]; None
    where q is 0 and the root is infinite, 0 where k is inf."""
    q = 1.0 - (1.0 - tail)  # exact: fl(1 - tail) >= 1/2
    if q == 0.0:
        return None
    if math.isinf(k):
        return mpmath.mpf(0)
    with mpmath.workdps(40):
        k, target = mpmath.mpf(k), -mpmath.log(mpmath.mpf(q))
        lo, hi = mpmath.mpf(0), target
        while hi - lo > hi * mpmath.mpf(10) ** -36:
            mid = (lo + hi) / 2
            if mid + mpmath.log1p(k * mid) < target:
                lo = mid
            else:
                hi = mid
        return mpmath.mpf(s_n) * hi


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


SCALES = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)


# the law of the issue that found the slow m != 1 truncation point, and the
# ratio law of the sampling benchmark's vs-nak-subtol at seed 7
OTHER_SHAPE_LAWS = [RatioExpExp(1.0, 2.0, 1.3, num_shape=2.5),
                    RatioExpExp(4.243192211902917, 0.3068389606944103, 0.8129728104456536,
                                num_shape=2.5)]


def _ratio_root(law, level, upper, near):
    """The z at which a RatioExpExp with m != 1 has ccdf (upper) or cdf
    `level`, by 40-digit bisection in ln z on _ratio_oracle, from a bracket
    grown around `near`."""
    def below(z):
        ccdf, cdf, *_ = _ratio_oracle(law.num_shape, law.num_mean, law.den_mean, law.power, z)
        return ccdf > level if upper else cdf < level

    with mpmath.workdps(40):
        step = 1 + mpmath.mpf(10) ** -6
        lo, hi = mpmath.mpf(near) / step, mpmath.mpf(near) * step
        while below(hi):
            hi, step = hi * step, step**2
        while not below(lo):
            lo, step = lo / step, step**2
        while hi / lo - 1 > mpmath.mpf(10) ** -20:
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if below(mid) else (lo, mid)
        return hi


class TestRatioTailQuantile:
    """At m = 1 the truncation point is the law's own (1 - tail) quantile, in
    closed form up to Newton steps: no inversion of the float cdf."""

    @settings(max_examples=300, deadline=None)
    @given(s_n=SCALES, s_d=SCALES,
           power=st.one_of(st.just(0.0), st.floats(-12.0, 12.0).map(lambda e: 10.0**e)),
           tail=st.one_of(st.sampled_from([1e-9, 1e-12, 0.5, 1e-300]),
                          st.floats(-300.0, math.log10(0.5)).map(lambda e: 10.0**e),
                          st.floats(-17.0, math.log10(0.5)).map(lambda e: 10.0**e)))
    @example(s_n=1.0, s_d=1e-3, power=1e12, tail=0.5)
    @example(s_n=1e3, s_d=1e3, power=1e12, tail=2.0**-53)
    # k t past the largest double at t = -ln q, and k itself inf
    @example(s_n=1.0, s_d=1e154, power=1e154, tail=1e-9)
    @example(s_n=2.0, s_d=1e100, power=1e207, tail=0.5)
    @example(s_n=1.0, s_d=1e200, power=1e200, tail=1e-9)
    def test_matches_the_mpmath_root(self, s_n, s_d, power, tail):
        def no_inversion(*args):
            raise AssertionError("tail_quantile inverted the float cdf")

        law = RatioExpExp(s_n, s_d, power)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(distributions, "_invert_cdf", no_inversion)
            got = _outcome(lambda: law.tail_quantile(tail))
        expected = _ratio_tail_root(s_n, power * s_d, tail)
        if expected is None:
            assert got == "tail quantile is not finite"
        else:
            # the residual's rounding, over a slope of at least 1 - q >= 1/2
            assert abs(mpmath.mpf(got) - expected) <= 8 * math.ulp(float(expected))
        if power == 0.0:
            assert got == _outcome(lambda: Exponential(s_n).tail_quantile(tail))

    @pytest.mark.parametrize("law", OTHER_SHAPE_LAWS)
    @pytest.mark.parametrize("tail", [1e-9, 1e-12, 0.5])
    def test_other_shapes_match_the_mpmath_root(self, law, tail):
        # Newton steps on the ccdf from the numerator's quantile, no inversion
        # of the float cdf, which sat about 4e-9 relative below the root
        def no_inversion(*args):
            raise AssertionError("tail_quantile inverted the float cdf")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(distributions, "_invert_cdf", no_inversion)
            got = law.tail_quantile(tail)
        root = _ratio_root(law, 1.0 - (1.0 - tail), True, got)
        assert abs(mpmath.mpf(got) / root - 1) <= 1e-13


def _exp_exp_reference(s_n, s_d, power, h):
    """ccdf, cdf and pdf of the exponential-over-exponential ratio, written as
    the m = 1 family wrote them before it took a numerator shape."""
    scale = 1.0 + h * power * s_d / s_n
    ccdf = np.where(h >= 0.0, np.exp(-h / s_n) / scale, 1.0)
    t = np.maximum(h, 0.0) / s_n
    ct = power * s_d * t
    cdf = np.where(h >= 0.0, np.where(np.isfinite(ct), (ct - np.expm1(-t)) / (1.0 + ct), 1.0), 0.0)
    a = power * s_d
    denom = s_n + h * a
    pdf = np.where(h >= 0.0, np.exp(-h / s_n) * (1.0 / denom + s_n * a / denom**2), 0.0)
    return ccdf, cdf, pdf


def _ratio_oracle(m, w, b, power, z):
    """(ccdf, cdf, pdf, Q(m, t), t) of Gamma(m, mean w) / (1 + power Exp(mean b))
    at z, from 50-digit mpmath incomplete gamma functions."""
    with mpmath.workdps(50):
        m, w, b, power, z = (mpmath.mpf(v) for v in (m, w, b, power, z))
        a, c = m / w, 1 / (power * b)
        t = a * z
        upper = mpmath.gammainc(m, t, mpmath.inf, regularized=True)
        big = mpmath.exp(c) * (t / (t + c)) ** m * mpmath.gammainc(m, t + c, mpmath.inf,
                                                                 regularized=True)
        g = t ** (m - 1) * mpmath.exp(-t) / mpmath.gamma(m)
        return (upper - big, mpmath.gammainc(m, 0, t, regularized=True) + big,
                a * g * c / (t + c) + a * m * c * big / (t * (t + c)), upper, t)


class TestRatioGammaExp:
    """RatioExpExp with a numerator shape m != 1: a Nakagami-m gain over an
    exponential interferer, in closed form."""

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("m", [0.55, 0.75, 2.5, 7.0])
    @pytest.mark.parametrize("c", [1e-3, 0.1, 1.0, 30.0, 511.0, 513.0, 1000.0, 1e4])
    def test_against_mpmath(self, m, c):
        # c = 1 / (P s_d) on both sides of 512, where the interference term
        # takes its scaled form; the stated bound is 64 (1 + t + m |ln t|) ulps,
        # of Q(m, t) for the ccdf and relative for the cdf and pdf
        w, b = 2.5, 1.0 / c
        law = RatioExpExp(w, b, 1.0, num_shape=m)
        zs = np.geomspace(1e-6, 60.0, 12)
        ccdf, cdf, pdf = law.ccdf(zs), law.cdf(zs), law.pdf(zs)
        for i, z in enumerate(zs):
            r_ccdf, r_cdf, r_pdf, upper, t = _ratio_oracle(m, w, b, 1.0, z)
            bound = 64 * self.EPS * (1 + t + m * abs(mpmath.log(t)))
            assert abs(ccdf[i] - r_ccdf) <= min(1e-13, bound * upper), (z, ccdf[i], r_ccdf)
            assert abs(cdf[i] - r_cdf) <= min(1e-13, bound * r_cdf), (z, cdf[i], r_cdf)
            assert abs(pdf[i] - r_pdf) <= bound * r_pdf, (z, pdf[i], r_pdf)

    @pytest.mark.parametrize("c", [30.0, 400.0, 600.0])
    def test_largest_shape_against_mpmath(self, c):
        # m = 128 next to t + c = 512, where scipy's hyperu is accurate only
        # for arguments well above the shape
        w, m = 2.5, 128.0
        law = RatioExpExp(w, 1.0 / c, 1.0, num_shape=m)
        for z in (0.5 * w, w, 2.0 * w, 4.0 * w):
            r_ccdf, r_cdf, r_pdf, upper, t = _ratio_oracle(m, w, 1.0 / c, 1.0, z)
            bound = 64 * self.EPS * (1 + t + m * abs(mpmath.log(t)))
            assert abs(law.ccdf(z) - r_ccdf) <= min(1e-13, bound * upper)
            assert abs(law.cdf(z) - r_cdf) <= min(1e-13, bound * r_cdf)
            assert abs(law.pdf(z) - r_pdf) <= bound * r_pdf

    def test_strong_interferer_keeps_the_interference_term(self):
        # c = 1000: Q(m, t + c) underflows while e^c Q(m, t + c) does not; a
        # form that drops that term reads Q(2.5, 1) = 0.849145, the law 0.848868
        law = RatioExpExp(2.5, 1e-3, 1.0, num_shape=2.5)
        r_ccdf, r_cdf, *_ = _ratio_oracle(2.5, 2.5, 1e-3, 1.0, 1.0)
        assert abs(law.ccdf(1.0) - r_ccdf) <= 1e-13
        assert abs(law.cdf(1.0) - r_cdf) <= 1e-13
        assert abs(law.ccdf(1.0) - 0.848868) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.3, 20.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
    def test_matches_ratio_law_quadrature(self, m, w, b, power):
        law = RatioExpExp(w, b, power, num_shape=m)
        rule = RatioLaw(NakagamiGain(m, w), Exponential(b), power)
        z = w * np.geomspace(1e-6, 60.0, 64)
        assert np.max(np.abs(law.ccdf(z) - rule.ccdf(z))) <= 1e-13

    @pytest.mark.parametrize("fig_params", [
        [(a, 1.0, 1.0) for a in (0.1, 0.3, 0.5, 0.7)],
        [(0.1, 1.0, p) for p in (1.0, 10.0, 50.0, 100.0)],
    ], ids=["fig3", "fig4"])
    def test_unit_shape_is_bit_for_bit_the_exponential_form(self, fig_params):
        # the figure command's grid and laws: build_ratio(c, a, P) on h in (0, 20]
        h = np.linspace(20.0 / 2000, 20.0, 2000)
        h = np.concatenate([[0.0], h])
        for a, c, power in fig_params:
            law = build_ratio(c, a, power)
            assert law == RatioExpExp(c, a, power, num_shape=1.0)
            for got, want in zip((law.ccdf(h), law.cdf(h), law.pdf(h)),
                                 _exp_exp_reference(c, a, power, h)):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("power", [0.0, 10.0])
    def test_unit_shape_keeps_its_bits_at_the_edges(self, power):
        # a ratio_exp_exp spec may take power 0, where x P is inf * 0 at x = inf
        law = distribution_from_spec({"family": "ratio_exp_exp", "num_mean": 1.0,
                                      "den_mean": 0.1, "power": power})
        h = np.array([0.0, 5e-324, 1e-10, 1.0, 700.0, 1e300])
        with np.errstate(all="ignore"):
            want = _exp_exp_reference(1.0, 0.1, power, h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got, ref in zip((law.ccdf(h), law.cdf(h), law.pdf(h)), want):
                assert np.array_equal(got, ref)
            assert (law.ccdf(math.inf), law.cdf(math.inf), law.pdf(math.inf)) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("m", [1.0, 2.5])
    def test_ratio_law_density_is_the_closed_form(self, m):
        # RatioLaw's density conditions on the denominator's rule like its ccdf
        for w, b, power in [(1.0, 0.1, 10.0), (2.0, 0.5, 1.0), (3.0, 2.0, 0.3), (0.5, 3.0, 7.0)]:
            num = Exponential(w) if m == 1.0 else NakagamiGain(m, w)
            rule, law = RatioLaw(num, Exponential(b), power), RatioExpExp(w, b, power, num_shape=m)
            z = w * np.geomspace(1e-6, 60.0, 200)
            assert np.max(np.abs(rule.pdf(z) / law.pdf(z) - 1.0)) <= 1e-10

    def test_no_interference_is_the_nakagami_gain(self):
        z = np.geomspace(1e-6, 60.0, 50)
        law, nak = RatioExpExp(4.0, 0.3, 0.0, num_shape=2.5), NakagamiGain(2.5, 4.0)
        assert np.array_equal(law.ccdf(z), nak.ccdf(z))
        assert np.max(np.abs(law.pdf(z) - nak.pdf(z))) <= 1e-15

    def test_boundaries(self):
        law = RatioExpExp(4.0, 0.3, 1.0, num_shape=2.5)
        assert law.ccdf(0.0) == 1.0 and law.cdf(0.0) == 0.0 and law.pdf(0.0) == 0.0
        assert law.ccdf(np.inf) == 0.0 and law.cdf(np.inf) == 1.0 and law.pdf(np.inf) == 0.0
        assert law.ccdf(-1.0) == 1.0 and law.cdf(-1.0) == 0.0 and law.pdf(-1.0) == 0.0
        assert RatioExpExp(4.0, 0.3, 1.0, num_shape=0.5).pdf(0.0) == math.inf

    @pytest.mark.parametrize("law", OTHER_SHAPE_LAWS)
    def test_quantile_estimate_against_mpmath(self, law):
        # Newton steps on the cdf below u = 1/2 and on the ccdf above it, at
        # the rounding boundary (1 - u) + ulp(u)/2 there; the inversion then
        # finishes from within a few ulps, not by bisecting all doubles
        u = np.array([1e-300, 1e-30, 1e-12, 0.1, 0.5, 0.7, 0.99, 1.0 - 1e-9])
        est = law._quantile_estimate(u.copy())
        for level, x in zip(u, est):
            upper = level > 0.5
            target = (1.0 - level) + 0.5 * np.spacing(level) if upper else level
            assert abs(mpmath.mpf(x) / _ratio_root(law, target, upper, x) - 1) <= 1e-13

    def test_quantile_is_the_least_crossing_double(self):
        law = RatioExpExp(4.0, 0.3, 1.0, num_shape=2.5)
        u = np.array([1e-12, 0.1, 0.5, 0.9, 1.0 - 1e-9])
        q = law.quantile(u)
        assert np.all(law.cdf(q) >= u)
        assert np.all(law.cdf(np.nextafter(q, 0.0)) < u)

    def test_shape_bounds(self):
        assert RatioExpExp(1.0, 1.0, 1.0, num_shape=128.0).ccdf(1.0) > 0.0
        for bad in (0.0, -1.0, math.nan, 128.5):
            with pytest.raises(ValueError, match="num_shape"):
                RatioExpExp(1.0, 1.0, 1.0, num_shape=bad)


# one law of each structure, with a sampler that draws it from numpy alone:
# (law, draw(rng, n), kind) where kind is "step", "atomless" or "mixed"
RATIO_POWER = 0.5
ATOMLESS = RatioLaw(PointMass(2.0), Exponential(1.0), 1.0)
STRUCTURE_KINDS = {
    "step": (BernoulliGain(0.6), lambda rng, n: (rng.random(n) < 0.6) * 1.0, "step"),
    # 2 / (1 + E) spreads over (0, 2) without atoms, and has no density as implemented
    "atomless": (ATOMLESS, lambda rng, n: 2.0 / (1.0 + rng.exponential(1.0, n)), "atomless"),
    # N / (1 + D) for N on {1, 1, 10} and D the law above lives on (1/3, 1) and
    # (10/3, 10): an atomless law whose quantile jumps at u = 2/3
    "gapped": (RatioLaw(Empirical((1.0, 1.0, 10.0)), ATOMLESS, 1.0),
               lambda rng, n: (np.where(rng.random(n) < 2.0 / 3.0, 1.0, 10.0)
                               / (1.0 + 2.0 / (1.0 + rng.exponential(1.0, n)))), "atomless"),
    # an atom of mass 1/2 at 0 and an atomless rest
    "mixed": (RatioLaw(BernoulliGain(0.5), Exponential(1.0), 1.0),
              lambda rng, n: (rng.random(n) < 0.5) / (1.0 + rng.exponential(1.0, n)), "mixed"),
    "continuous": (Exponential(1.0), lambda rng, n: rng.exponential(1.0, n), "atomless"),
}


def ratio_of_kinds(num: str, den: str):
    """(RatioLaw N / (1 + P D), draw(rng, n), kind of the ratio) for two structure kinds."""
    (n_law, n_draw, n_kind), (d_law, d_draw, _) = STRUCTURE_KINDS[num], STRUCTURE_KINDS[den]

    def draw(rng, n):
        return n_draw(rng, n) / (1.0 + RATIO_POWER * d_draw(rng, n))

    # N / (1 + P D) has atoms only where N has; the step and mixed N have an
    # atom at 0, which stays one whatever D is
    if n_kind == "atomless":
        kind = "atomless"
    else:
        kind = "step" if (n_kind, den) == ("step", "step") else "mixed"
    return RatioLaw(n_law, d_law, RATIO_POWER), draw, kind


def structure_of(law) -> str:
    if distributions.step_atoms(law) is not None:
        return "step"
    return "atomless" if law.atoms()[1].sum() == 0.0 else "mixed"


class TestRatioLawStructure:
    """N and D range over one law of each structure; each ratio's ccdf
    matches a seeded Monte Carlo of N / (1 + P D)."""

    N_DRAWS = 100_000
    # the DKW inequality: sup |F_n - F| exceeds this with probability 1e-6
    KS_BAND = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * N_DRAWS))
    ABSCISSAE = np.concatenate([[0.0], np.geomspace(1e-3, 8.0, 40)])

    @pytest.mark.parametrize("den", list(STRUCTURE_KINDS))
    @pytest.mark.parametrize("num", list(STRUCTURE_KINDS))
    def test_ccdf_against_monte_carlo(self, num, den):
        law, draw, kind = ratio_of_kinds(num, den)
        assert structure_of(law) == kind
        z = draw(np.random.default_rng(2024), self.N_DRAWS)
        empirical = (z[:, None] > self.ABSCISSAE).mean(axis=0)
        assert np.max(np.abs(law.ccdf(self.ABSCISSAE) - empirical)) <= self.KS_BAND

    def test_gapped_support_splits_the_rule(self):
        # the rule is N's atoms over D's rule, so no node falls in the gap
        # (1, 10/3) and the nodes below it carry N's mass 2/3 at 1
        law = STRUCTURE_KINDS["gapped"][0]
        (x, w), (xc, wc) = distributions.law_nodes(law), distributions.law_nodes(law, 12)
        low = x < 1.0
        assert np.all(low | (x > 10.0 / 3.0)) and w[low].sum() == pytest.approx(2.0 / 3.0)
        # E[Z] = E[N] E[1 / (1 + D)] = 4 E[(1 + E) / (3 + E)], the second
        # factor by scipy's adaptive quadrature; a panel across the jump put the
        # mean of a rule in Z's quantile 1e-2 off
        exact = 4.0 * integrate.quad(lambda e: (1.0 + e) / (3.0 + e) * math.exp(-e),
                                     0.0, math.inf, epsabs=1e-14, epsrel=1e-13)[0]
        assert law.mean() == w @ x
        assert abs(w @ x - exact) <= abs(w @ x - wc @ xc) <= 1e-9

    def test_an_atom_breaks_the_rule_at_both_ends_of_its_levels(self):
        # B / (1 + E) holds mass 1/2 at 0: its quantile is 0 on [0, 1/2] and
        # continuous above, so its rule, B's atoms over E's rule, puts half of
        # its nodes and of its mass at 0 and the rest above
        law = STRUCTURE_KINDS["mixed"][0]
        x, w = distributions.law_nodes(law)
        assert x.size == 2 * 22 * 24 and np.all(x[: 22 * 24] == 0.0) and np.all(x[22 * 24:] > 0.0)
        assert w[: 22 * 24].sum() == pytest.approx(0.5, abs=1e-15)

    def test_nested_mixed_laws_read_their_atoms(self):
        # Z = 1 / (1 + P D), D = 1 / (1 + P' B / (1 + E)): D holds mass 1/2 at
        # 1 and spreads the rest below it, so Z holds 1/2 at 1 / (1 + P) and
        # spreads the rest above it.  Conditioning on N's atom alone, with
        # Pr(D < t) = 1 - ccdf_left_D(t), reads the ccdf 1.0 at 58 of these
        # atoms and ccdf_left 1.5, as t = (1 / z - 1) / P rounds to either side
        # of D's atom; a mixed D once raised
        for inner in (0.5, 1.0, 4.0):
            d = RatioLaw(PointMass(1.0), RatioLaw(BernoulliGain(0.5), Exponential(1.0), 1.0), inner)
            assert d.atoms()[0].tolist() == [1.0]
            for power in np.linspace(0.05, 3.0, 60):
                law = RatioLaw(PointMass(1.0), d, float(power))
                (atom,), (mass,) = law.atoms()
                assert mass == 0.5 and atom == 1.0 / (1.0 + power)
                assert law.ccdf(atom) == 0.5 and law.ccdf_left(atom) == 1.0, (inner, power)

    def test_a_step_ratio_reads_its_own_atoms(self):
        # two fair coins put atoms at 0, 1 / (1 + P) and 1; the ccdf compared
        # fl(z (1 + P)) with N's atom at 1, which rounds below it for 46 of
        # these powers, so it read 0.5 at 1 / (1 + P) for the mass 0.25 above
        for power in np.linspace(0.05, 3.0, 300):
            law = RatioLaw(BernoulliGain(0.5), BernoulliGain(0.5), float(power))
            values, masses = law.atoms()
            assert values.size == 3, power
            for v in values:
                assert law.ccdf(v) == masses[values > v].sum(), (power, v)
                assert law.quantile(law.cdf(v)) == v, (power, v)

    def test_nested_ratio_repros(self):
        # a mixed N over an atomless D read 0 at every z: its N had no atom above 0
        law = RatioLaw(STRUCTURE_KINDS["mixed"][0], Exponential(1.0), 1.0)
        assert law.ccdf([0.0, 0.01, 0.1]) == pytest.approx([0.5, 0.5, 0.478], abs=1e-3)
        # a step N over an atomless D without a density was refused as mixed
        law = RatioLaw(PointMass(1.0), STRUCTURE_KINDS["atomless"][0], 1.0)
        assert law.ccdf(0.4) == pytest.approx(0.716, abs=1e-3)


def per_atom_ccdf_left(d, ccdf=None):
    """Pr(X >= x) as GainDistribution once summed it, the reference for its
    one lookup: the ccdf kernel (the law's own unless given) plus one term
    per atom."""
    ccdf = d._ccdf if ccdf is None else ccdf

    def kernel(x):
        out = ccdf(x)
        for v, m in zip(*d.atoms()):
            out = out + np.where(x == v, m, 0.0)
        return out
    return lambda x: distributions._evaluate(kernel, x, 1.0)


def where_cdf(d):
    """The cdf kernel a BernoulliGain or a PointMass once stated by np.where,
    the reference for the atomic cdf they now share."""
    if isinstance(d, BernoulliGain):
        return lambda x: np.where(x >= 1.0, 1.0, 1.0 - d.q)
    return lambda x: np.where(x >= d.value, 1.0, 0.0)


def atoms_and_neighbours(d) -> np.ndarray:
    """The atoms of d, the doubles next to each, and the edge abscissae."""
    values = d.atoms()[0]
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf),
                           [0.0, -0.0, 5e-324, -1.0, math.nan, math.inf]])


# D of mass 1/2 at 0 and a density above: N's atoms over it are Z's atoms
MIXED_DENOMINATOR = RatioLaw(BernoulliGain(0.5), Exponential(1.0), 1.0)
BERNOULLI_EDGES = [0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]
POINT_MASS_EDGES = [0.0, -0.0, 5e-324, 1.5, 1e308]
STEP_ABSCISSAE = st.lists(st.one_of(st.floats(-2.0, 3.0), st.floats(allow_nan=True)), max_size=20)


class TestAtomTable:
    """One memoized table answers every question about a law's atoms; each
    reader gives the doubles of the code it replaced."""

    @pytest.mark.parametrize("d", CONTRACT_LAWS, ids=repr)
    def test_ccdf_left_is_the_per_atom_sum(self, d):
        x = atoms_and_neighbours(d)
        assert same_doubles(d.ccdf_left(x), per_atom_ccdf_left(d)(x))

    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.integers(0, 4000), min_size=1, max_size=1000),
           den=st.sampled_from([BernoulliGain(0.3), MIXED_DENOMINATOR]),
           power=st.floats(0.1, 10.0))
    def test_ratio_law_ccdf_left_is_the_per_atom_sum(self, values, den, power):
        d = RatioLaw(Empirical.from_samples([v / 8.0 for v in values]), den, power)
        x = atoms_and_neighbours(d)
        assert same_doubles(d.ccdf_left(x), per_atom_ccdf_left(d)(x))

    @pytest.mark.parametrize("den", [BernoulliGain(0.5), MIXED_DENOMINATOR], ids=repr)
    def test_ratio_laws_of_2000_atoms(self, den):
        sample = Empirical.from_samples(np.random.default_rng(5).exponential(size=1000))
        d = RatioLaw(sample, den, 2.0)
        assert d.atoms()[0].size == 1000 * den.atoms()[0].size
        assert (distributions.step_atoms(d) is None) == (den is MIXED_DENOMINATOR)
        x = atoms_and_neighbours(d)
        assert same_doubles(d.ccdf_left(x), per_atom_ccdf_left(d)(x))

    @staticmethod
    def assert_reads_the_where_kernel(d, x):
        cdf = where_cdf(d)
        assert same_doubles(d.cdf(x), distributions._evaluate(cdf, x, 0.0))
        assert same_doubles(d.ccdf(x), distributions._evaluate(lambda y: 1.0 - cdf(y), x, 1.0))
        assert same_doubles(d.ccdf_left(x), per_atom_ccdf_left(d, lambda y: 1.0 - cdf(y))(x))

    @pytest.mark.parametrize("q", BERNOULLI_EDGES)
    def test_bernoulli_at_edge_probabilities(self, q):
        d = BernoulliGain(q)
        self.assert_reads_the_where_kernel(d, atoms_and_neighbours(d))

    @pytest.mark.parametrize("value", POINT_MASS_EDGES)
    def test_point_mass_at_edge_values(self, value):
        d = PointMass(value)
        self.assert_reads_the_where_kernel(d, atoms_and_neighbours(d))

    @settings(max_examples=100, deadline=None)
    @given(d=st.one_of(st.builds(BernoulliGain, st.floats(0.0, 1.0) | st.sampled_from(BERNOULLI_EDGES)),
                       st.builds(PointMass, st.floats(0.0, 1e308) | st.sampled_from(POINT_MASS_EDGES))),
           points=STEP_ABSCISSAE)
    def test_step_families_read_the_where_kernels(self, d, points):
        self.assert_reads_the_where_kernel(d, np.concatenate([atoms_and_neighbours(d), points]))

    def test_a_law_reads_its_atoms_once(self, monkeypatch):
        calls = []
        atoms = BernoulliGain.atoms
        monkeypatch.setattr(BernoulliGain, "atoms", lambda d: calls.append(d) or atoms(d))
        d = BernoulliGain(0.25)
        d.cdf([0.0, 1.0]), d.ccdf_left([0.0, 1.0]), d.quantile([0.1, 0.9]), d.tail_quantile()
        RatioLaw(d, d, 1.0).ccdf([0.0, 0.5])
        assert calls == [d]
        table = d._atom_table
        assert not any(column.flags.writeable for column in table)
        assert [column.tolist() for column in table] == [[0.0, 1.0], [0.75, 0.25], [0.0, 0.75, 1.0]]


def looped_gammaincc_series(a, xs):
    """S = sum_{n >= 1} (-x)^n / (n! (a + n)) of _gammaincc, term by term."""
    term, total = np.ones_like(xs), np.zeros_like(xs)
    for n in range(1, 32):
        term *= -xs / n
        total += term / (a + n)
    return total


def looped_gammaincc(a, x):
    """_gammaincc with its series summed by the loop it replaced."""
    from scipy.special import gammaincc

    series = (x > 0.0) & (x <= 1.1) & np.where(x > 0.5, 1.1 * x >= a, x >= math.exp(-0.4 / a))
    out = np.empty_like(x)
    out[~series] = gammaincc(a, x[~series])
    xs = x[series]
    y = a * np.log(xs) - distributions._lgamma1p(a)
    out[series] = -np.expm1(y) - a * np.exp(y) * looped_gammaincc_series(a, xs)
    return out


class TestGammainccSeries:
    """The series rows, a running product and a running sum each, give the
    loop's doubles."""

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(0.05, 1.21),
           x=st.lists(st.floats(0.0, 1.2) | st.floats(0.0, 40.0), min_size=1, max_size=50))
    def test_same_doubles_as_the_loop(self, a, x):
        x = np.array(x)
        assert same_doubles(distributions._gammaincc(a, x), looped_gammaincc(a, x))

    def test_a_batch_past_a_block(self):
        rows = distributions._BLOCK // 32
        x = np.random.default_rng(4).uniform(0.6, 1.1, 2 * rows + 3)
        for a in (0.3, 0.55, 1.0):
            assert same_doubles(distributions._gammaincc(a, x), looped_gammaincc(a, x))


class TestSharedTablesAreReadOnly:
    """A memoized array that laws share refuses writes, so one law cannot
    change another's."""

    def tables(self):
        ratio = RatioLaw(BernoulliGain(0.5), Exponential(1.0), 1.0)
        residuals = maximal_coupling_spec(NakagamiGain(0.75, 1.0), Exponential(2.0)).residuals
        return [distributions._table_levels(), *NakagamiGain(0.75, 1.0)._table,
                ratio._above, *residuals[0]._table, *residuals[1]._table]

    def test_a_write_into_each_raises(self):
        fresh = NakagamiGain(1.3, 1.0)._table[0].copy()
        for table in self.tables():
            with pytest.raises(ValueError, match="read-only"):
                table[table.size // 2] = 0.5
        assert same_doubles(NakagamiGain(1.3, 1.0)._table[0], fresh)


class TestEmpirical:
    def test_a_number_is_a_real(self):
        for values in (("0.5", " 2 "), ("1",), (0.5, "2"), (None,), ({},), (1j,)):
            with pytest.raises(ValueError, match="empirical sample must be a list of numbers"):
                Empirical(values)
        assert Empirical((0, True, np.uint8(3), np.float32(3.5), 10**30)).values == \
            (0.0, 1.0, 3.0, 3.5, 1e30)
        with pytest.raises(ValueError, match="empirical sample must be a list of numbers"):
            Empirical.from_samples(["2", "0.5"])
        assert Empirical.from_samples([3, True, 0.5]).values == (0.5, 1.0, 3.0)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(0.0, 1e308) | st.integers(0, 2**53), min_size=1))
    def test_a_numeric_sample_keeps_its_doubles(self, values):
        values = sorted(values)
        assert same_doubles(Empirical(values)._sorted, np.array(values, dtype=float))

    def test_the_callers_array_stays_writeable(self):
        values = np.array([0.5, 1.0])
        Empirical(values)
        values[0] = 0.25

    def test_step_cdf_and_order_statistic_quantile(self):
        d = Empirical(values=(1.0, 2.0, 2.0, 5.0))
        assert d.cdf(0.5) == 0.0
        assert d.cdf(2.0) == 0.75
        assert d.quantile(0.5) == 2.0
        assert d.quantile(0.76) == 5.0
        assert d.quantile(1.0) == 5.0

    def test_from_samples_sorts(self):
        d = Empirical.from_samples([3.0, 1.0, 2.0])
        assert d.values == (1.0, 2.0, 3.0)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Empirical(values=(2.0, 1.0))

    def test_an_int_past_the_largest_double_is_refused(self):
        # converting it raised OverflowError, not the sample's ValueError
        with pytest.raises(ValueError) as err:
            Empirical(values=(1, 10**400))
        assert str(err.value) == "empirical sample must be finite and nonnegative"


class TestEvaluationGrid:
    def test_log_spacing_strictly_increasing(self):
        g = EvaluationGrid.log_spaced(10.0)
        arr = g.as_array()
        assert arr.size == 4096 and arr[0] == pytest.approx(1e-8)
        assert np.all(np.diff(arr) > 0)
        assert g.x_max == pytest.approx(10.0)

    def test_pair_grid_covers_heavier_tail(self):
        g = EvaluationGrid.for_pair(Exponential(1.0), Exponential(2.0))
        assert g.x_max >= Exponential(2.0).tail_quantile(1e-9) - 1e-9

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            EvaluationGrid(points=(1.0, 0.5, 2.0))
        with pytest.raises(ValueError):
            EvaluationGrid(points=(1.0, 2.0))
        with pytest.raises(ValueError):
            EvaluationGrid(points=(1.0, math.nan, 2.0))
        with pytest.raises(ValueError):
            EvaluationGrid(points=((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)))

    def test_points_are_a_read_only_float_array(self):
        g = EvaluationGrid(points=[0.0, 1, 2.5])
        assert isinstance(g.points, np.ndarray) and g.points.dtype == np.float64
        assert g.as_array() is g.points
        assert type(g.x_max) is float and g.x_max == 2.5
        with pytest.raises(ValueError):
            g.points[0] = 0.5
        arr = np.array([0.1, 0.2, 0.3])
        EvaluationGrid(points=arr)
        arr[0] = 0.0  # the caller's array stays its own and writable
        assert EvaluationGrid.log_spaced(10.0).as_array().flags.writeable is False


_SPEC_POSITIVE = st.floats(1e-3, 1e3) | st.integers(1, 1000) | st.just(True)
_SPEC_NONNEGATIVE = st.floats(0.0, 1e3) | st.integers(0, 1000)
# a strategy of valid laws of each family that has a JSON form
SPEC_LAWS = {
    "exponential": st.builds(Exponential, _SPEC_POSITIVE),
    "nakagami_gain": st.builds(NakagamiGain, _SPEC_POSITIVE, _SPEC_POSITIVE),
    "bernoulli": st.builds(BernoulliGain, st.floats(0.0, 1.0) | st.integers(0, 1)),
    "point_mass": st.builds(PointMass, _SPEC_NONNEGATIVE),
    "ratio_exp_exp": st.builds(RatioExpExp, _SPEC_POSITIVE, _SPEC_POSITIVE, _SPEC_NONNEGATIVE)
    | st.builds(RatioExpExp, _SPEC_POSITIVE, _SPEC_POSITIVE, _SPEC_NONNEGATIVE,
                st.sampled_from([1, 1.0, 2.5]) | st.floats(0.1, 128.0)),
    "empirical": st.builds(Empirical.from_samples,
                           st.lists(st.floats(0.0, 1e3), min_size=1, max_size=20)),
}


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            {"family": "exponential", "mean": 2.0},
            {"family": "nakagami_gain", "m": 0.5, "w": 1.0},
            {"family": "bernoulli", "q": 0.7},
            {"family": "point_mass", "value": 1.0},
            {"family": "ratio_exp_exp", "num_mean": 1.0, "den_mean": 0.1, "power": 1.0},
            {"family": "ratio_exp_exp", "num_mean": 1.0, "den_mean": 0.1, "power": 1.0,
             "num_shape": 2.5},
            {"family": "empirical", "values": [0.5, 1.0, 1.0]},
        ],
        ids=lambda s: s["family"],
    )
    def test_round_trip(self, spec):
        d = distribution_from_spec(spec)
        assert d.to_spec() == spec

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            distribution_from_spec({"family": "cauchy"})

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="mean"):
            distribution_from_spec({"family": "exponential"})

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), family=st.sampled_from(sorted(distributions._FAMILIES)))
    def test_every_family_round_trips_through_json(self, data, family):
        law = data.draw(SPEC_LAWS[family])
        assert type(law) is distributions._FAMILIES[family]
        spec = json.loads(json.dumps(law.to_spec()))
        again = distribution_from_spec(spec)
        assert again == law and again.to_spec() == law.to_spec() == spec

    def test_the_round_trip_draws_every_family(self):
        assert set(SPEC_LAWS) == set(distributions._FAMILIES)

    @pytest.mark.parametrize("shape", [1, 1.0, 2.5, None])
    def test_the_ratio_shape_is_written_only_off_its_default(self, shape):
        law = RatioExpExp(1.0, 0.1, 1.0) if shape is None else RatioExpExp(1.0, 0.1, 1.0, shape)
        spec = law.to_spec()
        assert ("num_shape" in spec) is (shape == 2.5)
        assert distribution_from_spec(json.loads(json.dumps(spec))) == law

    @pytest.mark.parametrize("family", sorted(distributions._FAMILIES))
    def test_every_family_field_has_a_json_key(self, family):
        cls = distributions._FAMILIES[family]
        assert cls.family == family
        assert all(key is not None for _, _, key, _ in distributions._params(cls))

    def test_a_present_null_is_refused_where_absent_takes_the_default(self):
        base = {"family": "ratio_exp_exp", "num_mean": 1.0, "den_mean": 0.1, "power": 1.0}
        assert distribution_from_spec(base).num_shape == 1.0
        with pytest.raises(ValueError) as err:
            distribution_from_spec(dict(base, num_shape=None))
        assert str(err.value) == "num_shape must be a positive finite number, got None"

    @pytest.mark.parametrize("law", [
        RatioLaw(BernoulliGain(0.5), Exponential(1.0), 1.0),
        *maximal_coupling_spec(Exponential(1.0), Exponential(2.0)).residuals,
        maximal_coupling_spec(Exponential(1.0), Exponential(2.0)).shared,
    ], ids=["ratio_law", "residual_1", "residual_2", "shared"])
    def test_a_law_without_a_family_has_no_json_form(self, law):
        assert law.family is None
        with pytest.raises(NotImplementedError, match="has no JSON form"):
            law.to_spec()


class TestNumpyScalarParameters:
    """A parameter taken from a numpy array is accepted and kept as a Python
    number, so that the spec still serializes to JSON."""

    @pytest.mark.parametrize("build, spec", [
        (lambda: Exponential(np.int64(2)), {"family": "exponential", "mean": 2}),
        (lambda: NakagamiGain(np.int64(2), 1.0), {"family": "nakagami_gain", "m": 2, "w": 1.0}),
        (lambda: NakagamiGain(np.float64(0.5), np.float32(0.25)),
         {"family": "nakagami_gain", "m": 0.5, "w": 0.25}),
        (lambda: PointMass(np.uint8(0)), {"family": "point_mass", "value": 0}),
        (lambda: RatioExpExp(np.float32(1.5), np.int32(2), np.int64(0), np.float64(2.0)),
         {"family": "ratio_exp_exp", "num_mean": 1.5, "den_mean": 2, "power": 0,
          "num_shape": 2.0}),
        (lambda: BernoulliGain(np.int64(1)), {"family": "bernoulli", "q": 1}),
        (lambda: BernoulliGain(np.float32(0.5)), {"family": "bernoulli", "q": 0.5}),
        (lambda: BernoulliGain(np.float64(0.5)), {"family": "bernoulli", "q": 0.5}),
    ], ids=["exp-int64", "nak-int64", "nak-floats", "point-uint8", "ratio-mixed",
            "bern-int64", "bern-float32", "bern-float64"])
    def test_stored_as_python_numbers(self, build, spec):
        d = build()
        assert d.to_spec() == spec
        assert all(type(v) in (int, float) for v in d.to_spec().values() if v != spec["family"])
        assert json.loads(json.dumps(d.to_spec())) == spec

    def test_same_law_as_the_python_parameters(self):
        x = np.array([0.0, 0.3, 1.0, 4.0])
        assert np.array_equal(Exponential(np.int64(2)).cdf(x), Exponential(2).cdf(x))
        assert NakagamiGain(np.int64(2), 1.0) == NakagamiGain(2, 1.0)

    @pytest.mark.parametrize("value", [np.int64(0), np.float64(np.nan), np.float32(-1.0),
                                       np.bool_(True)])
    def test_bad_numpy_scalars_keep_the_message(self, value):
        with pytest.raises(ValueError) as err:
            Exponential(value)
        assert str(err.value) == f"mean_gain must be a positive finite number, got {value!r}"

    @pytest.mark.parametrize("value", [np.int64(2), np.float64(np.nan), np.float32(-0.5),
                                       np.bool_(True), math.inf, "0.5"])
    def test_bad_success_probabilities_keep_the_message(self, value):
        with pytest.raises(ValueError) as err:
            BernoulliGain(value)
        assert str(err.value) == f"success probability must lie in [0, 1], got {value!r}"

    @pytest.mark.parametrize("build, message", [
        (Exponential, "mean_gain must be a positive finite number"),
        (lambda v: NakagamiGain(v, 1.0), "m must be a positive finite number"),
        (BernoulliGain, "success probability must lie in [0, 1]"),
        (PointMass, "value must be a nonnegative finite number"),
        (lambda v: RatioExpExp(1.0, 1.0, v), "power must be a nonnegative finite number"),
        (lambda v: RatioExpExp(1.0, 1.0, 1.0, v), "num_shape must be a positive finite number"),
        (lambda v: RatioLaw(BernoulliGain(0.5), Exponential(1.0), v),
         "power must be a positive finite number"),
    ], ids=["exp", "nakagami", "bernoulli", "point", "ratio-power", "ratio-shape", "ratio-law"])
    def test_an_int_past_the_largest_double_is_refused(self, build, message):
        # math.isfinite raised OverflowError on it, not the check's ValueError
        with pytest.raises(ValueError) as err:
            build(10**400)
        assert str(err.value) == f"{message}, got {10**400!r}"

    def test_bool_is_kept_as_it_is(self):
        assert Exponential(True).mean_gain is True
        with pytest.raises(ValueError, match="got False"):
            Exponential(False)
