import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gainorder import (
    BernoulliGain,
    Empirical,
    EvaluationGrid,
    Exponential,
    NakagamiGain,
    PointMass,
    RatioExpExp,
    build_ratio,
    distribution_from_spec,
)


def ks_distance(samples: np.ndarray, cdf) -> float:
    xs = np.sort(samples)
    n = xs.size
    f = np.asarray(cdf(xs))
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


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


class TestEmpirical:
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


class TestEvaluationGrid:
    def test_log_spacing_strictly_increasing(self):
        g = EvaluationGrid.log_spaced(10.0, n=128)
        arr = g.as_array()
        assert arr.size == 128
        assert np.all(np.diff(arr) > 0)
        assert g.x_max == pytest.approx(10.0)

    def test_pair_grid_covers_heavier_tail(self):
        g = EvaluationGrid.for_pair(Exponential(1.0), Exponential(2.0), n=64)
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
        assert EvaluationGrid.log_spaced(10.0, n=64).as_array().flags.writeable is False


class TestSpecRoundTrip:
    @pytest.mark.parametrize(
        "spec",
        [
            {"family": "exponential", "mean": 2.0},
            {"family": "nakagami_gain", "m": 0.5, "w": 1.0},
            {"family": "bernoulli", "q": 0.7},
            {"family": "point_mass", "value": 1.0},
            {"family": "ratio_exp_exp", "num_mean": 1.0, "den_mean": 0.1, "power": 1.0},
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
