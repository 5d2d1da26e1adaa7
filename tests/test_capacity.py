import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import gainorder.capacity
from gainorder import BernoulliGain, Exponential, NakagamiGain, PointMass
from gainorder.capacity import (
    RateRegion,
    RateValue,
    UnclassifiedScenarioError,
    c_of,
    ergodic_rate,
    exponential_rate_closed_form,
    pair_sum_rate,
    region_from_constraints,
    strong_ic_region,
    very_strong_ic_region,
    wtc_secrecy_capacity,
)
from gainorder.classifier import ICScenario, WTCScenario
from gainorder.stochastic_order import check_usual_order
from gainorder.verify import mc_ergodic_rate


class TestCOf:
    def test_anchor_points(self):
        assert c_of(0.0) == 0.0
        assert c_of(3.0) == pytest.approx(1.0, abs=1e-15)
        assert c_of(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            c_of(-0.1)


class TestErgodicRate:
    def test_exponential_closed_form_value(self):
        # e * E1(1) / (2 ln 2), frozen from the exponential-integral oracle
        assert exponential_rate_closed_form(1.0, 1.0) == pytest.approx(0.430173691135443, abs=1e-12)

    def test_routes_agree_for_exponential(self):
        quad_rate = ergodic_rate(Exponential(1.0), 1.0)
        closed = exponential_rate_closed_form(1.0, 1.0)
        mc = mc_ergodic_rate(Exponential(1.0), 1.0, n=10**6, seed=5)
        assert quad_rate.bits == pytest.approx(closed, abs=1e-12)
        assert abs(mc.bits - closed) <= max(1e-3, 3.0 * mc.error_estimate)

    def test_point_mass_degenerate_expectation(self):
        r = ergodic_rate(PointMass(3.0), 1.0)
        assert r.bits == 1.0
        assert r.error_estimate == 0.0

    def test_zero_power_is_zero(self):
        for d in (Exponential(1.0), PointMass(3.0), NakagamiGain(0.5, 1.0)):
            assert ergodic_rate(d, 0.0).bits == 0.0

    def test_bernoulli_exact_sum(self):
        assert ergodic_rate(BernoulliGain(0.5), 1.0).bits == pytest.approx(0.25, abs=1e-15)

    def test_quadrature_against_direct_integral(self):
        d = NakagamiGain(2.0, 1.5)
        oracle, _ = quad(lambda x: 0.5 * math.log2(1 + 2.0 * x) * float(d.pdf(x)), 0, np.inf,
                         limit=300)
        assert ergodic_rate(d, 2.0).bits == pytest.approx(oracle, abs=1e-6)

    def test_monotone_in_power(self):
        d = NakagamiGain(0.5, 1.0)
        ladder = [ergodic_rate(d, p).bits for p in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(a <= b + 1e-12 for a, b in zip(ladder, ladder[1:]))

    def test_stochastic_order_monotonicity(self):
        pairs = [
            (Exponential(1.0), Exponential(2.0)),
            (NakagamiGain(2.0, 1.0), NakagamiGain(2.0, 3.0)),
            (BernoulliGain(0.3), BernoulliGain(0.7)),
        ]
        for d1, d2 in pairs:
            assert check_usual_order(d1, d2).first_leq
            assert ergodic_rate(d1, 1.7).bits <= ergodic_rate(d2, 1.7).bits + 1e-9

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ergodic_rate(Exponential(1.0), -1.0)


class TestPairSumRate:
    def test_exponential_pair_against_nested_quadrature(self):
        def oracle(m1, p1, m2, p2):
            def inner(x):
                v, _ = quad(
                    lambda y: 0.5 * math.log2(1 + p1 * x + p2 * y) * math.exp(-y / m2) / m2,
                    0, np.inf, limit=200,
                )
                return v * math.exp(-x / m1) / m1

            v, _ = quad(inner, 0, np.inf, limit=200)
            return v

        got = pair_sum_rate(Exponential(1.0), 1.0, Exponential(2.0), 1.0)
        gap = abs(got.bits - oracle(1.0, 1.0, 2.0, 1.0))
        assert gap <= got.error_estimate
        assert gap <= 1e-12

    def test_point_mass_pair_exact(self):
        got = pair_sum_rate(PointMass(1.0), 1.0, PointMass(2.0), 1.0)
        assert got.bits == pytest.approx(1.0, abs=1e-15)

    def test_discrete_continuous_mixture_against_monte_carlo(self):
        got = pair_sum_rate(BernoulliGain(0.5), 1.0, Exponential(1.0), 1.0)
        rng = np.random.default_rng(3)
        n = 10**6
        b = (rng.random(n) < 0.5).astype(float)
        e = -np.log1p(-rng.random(n))
        mc = np.mean(0.5 * np.log2(1 + b + e))
        assert abs(got.bits - mc) < 1e-3

    def test_zero_power_collapses_to_single_link(self):
        got = pair_sum_rate(Exponential(1.0), 0.0, Exponential(2.0), 1.0)
        assert got.bits == pytest.approx(ergodic_rate(Exponential(2.0), 1.0).bits, abs=1e-12)


def laplace_transform(d):
    """s -> E[exp(-s H)] for the gain H of d, in mpmath."""
    if isinstance(d, NakagamiGain):
        return lambda s: (1 + mpmath.mpf(d.w) / d.m * s) ** -mpmath.mpf(d.m)
    if isinstance(d, Exponential):
        return lambda s: 1 / (1 + mpmath.mpf(d.mean_gain) * s)
    values, masses = d.atoms()
    return lambda s: mpmath.fsum(mpmath.mpf(m) * mpmath.exp(-mpmath.mpf(v) * s)
                                 for v, m in zip(values, masses))


def rate_oracle(*terms):
    """E[C(P1 H1 + ... )] for independent gains, independent of any quantile:
    ln(1 + x) = int_0^inf e^-t (1 - e^(-t x)) / t dt turns it into one
    integral over the gains' Laplace transforms, which mpmath.quad evaluates."""
    with mpmath.workdps(30):
        transforms = [(laplace_transform(d), mpmath.mpf(p)) for d, p in terms]

        def integrand(t):
            joint = mpmath.fprod(lt(p * t) for lt, p in transforms)
            return mpmath.exp(-t) * (1 - joint) / t

        breaks = [0] + [mpmath.mpf(10) ** k for k in range(-8, 3)] + [mpmath.inf]
        return float(mpmath.quad(integrand, breaks) / (2 * mpmath.log(2)))


def decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


NAKAGAMI = st.builds(NakagamiGain, st.floats(math.log(0.3), math.log(20.0)).map(math.exp),
                     decades(-2.0, 2.0))
POWERS = decades(-2.0, 2.0)
SECOND_GAINS = st.one_of(
    NAKAGAMI,
    st.builds(Exponential, decades(-2.0, 2.0)),
    st.builds(BernoulliGain, st.floats(0.0, 1.0)),
    st.builds(PointMass, decades(-2.0, 2.0)),
)


class TestRuleAgainstOracle:
    """Every rate lies within its error estimate, and within 1e-12, of the oracle."""

    @settings(max_examples=40, deadline=None)
    @given(NAKAGAMI, POWERS)
    def test_ergodic_rate(self, d, power):
        got = ergodic_rate(d, power)
        gap = abs(got.bits - rate_oracle((d, power)))
        assert gap <= got.error_estimate
        assert gap <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(NAKAGAMI, POWERS, SECOND_GAINS, POWERS)
    def test_pair_sum_rate(self, d_a, power_a, d_b, power_b):
        got = pair_sum_rate(d_a, power_a, d_b, power_b)
        gap = abs(got.bits - rate_oracle((d_a, power_a), (d_b, power_b)))
        assert gap <= got.error_estimate
        assert gap <= 1e-12


class TestRegionGeometry:
    def test_vertices_satisfy_all_constraints(self):
        region = region_from_constraints([(1, 0, 0.7), (0, 1, 0.9), (1, 1, 1.2)])
        for r1, r2 in region.vertices:
            assert region.contains(r1, r2)
            for a1, a2, b in region.constraints:
                assert a1 * r1 + a2 * r2 <= b + 1e-9

    def test_counterclockwise_from_origin(self):
        region = region_from_constraints([(1, 0, 1.0), (0, 1, 1.0)])
        assert region.vertices[0] == (0.0, 0.0)
        angles = [math.atan2(y - 0.5, x - 0.5) for x, y in region.vertices]
        rotated = angles[1:] + angles[:1]
        wraps = sum(1 for a, b in zip(angles, rotated) if b < a)
        assert wraps <= 1  # single wrap means consistently counterclockwise

    def test_degenerate_all_zero(self):
        region = region_from_constraints([(1, 0, 0.0), (0, 1, 0.0)])
        assert region.vertices == ((0.0, 0.0),)

    def test_json_shape(self):
        region = region_from_constraints([(1, 0, 1.0), (0, 1, 2.0)])
        payload = region.to_json()
        assert payload["constraints"][0] == {"a1": 1.0, "a2": 0.0, "b": 1.0}
        assert [0.0, 0.0] in payload["vertices"]


class TestStrongICRegion:
    def make_point_mass_scenario(self):
        return ICScenario(PointMass(1.0), PointMass(2.0), PointMass(2.0), PointMass(1.0), 1.0, 1.0)

    def test_point_mass_square(self):
        region = strong_ic_region(self.make_point_mass_scenario())
        assert region.vertices == ((0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5))

    def test_zero_power_single_vertex(self):
        s = ICScenario(PointMass(1.0), PointMass(2.0), PointMass(2.0), PointMass(1.0), 0.0, 0.0)
        region = strong_ic_region(s)
        assert region.vertices == ((0.0, 0.0),)

    def test_bernoulli_direct_rate_constraint(self):
        s = ICScenario(
            BernoulliGain(0.5), BernoulliGain(1.0), BernoulliGain(1.0), BernoulliGain(0.5),
            1.0, 1.0,
        )
        region = strong_ic_region(s)
        r1_bounds = [b for a1, a2, b in region.constraints if (a1, a2) == (1.0, 0.0)]
        assert min(r1_bounds) == pytest.approx(0.25, abs=1e-12)

    def test_contained_in_each_mac_region(self):
        s = ICScenario(Exponential(1.0), Exponential(2.0), Exponential(2.0), Exponential(1.0),
                       1.0, 1.0)
        region = strong_ic_region(s)
        per_receiver = [region.constraints[:3], region.constraints[3:]]
        for mac in per_receiver:
            for r1, r2 in region.vertices:
                assert all(a1 * r1 + a2 * r2 <= b + 1e-9 for a1, a2, b in mac)

    def test_unclassified_rejected_and_forceable(self):
        bad = ICScenario(Exponential(2.0), Exponential(1.0), Exponential(1.0), Exponential(2.0),
                         1.0, 1.0)
        with pytest.raises(UnclassifiedScenarioError):
            strong_ic_region(bad)
        region = strong_ic_region(bad, force=True)
        assert isinstance(region, RateRegion)


class TestVeryStrongICRegion:
    def test_point_mass_square_corner(self):
        s = ICScenario(PointMass(1.0), PointMass(2.0), PointMass(2.0), PointMass(1.0), 1.0, 1.0)
        region = very_strong_ic_region(s)
        assert (0.5, 0.5) in region.vertices

    def test_exponential_rectangle_corner(self):
        s = ICScenario(Exponential(0.1), Exponential(1.0), Exponential(1.0), Exponential(0.1),
                       1.0, 1.0)
        region = very_strong_ic_region(s)
        corner = exponential_rate_closed_form(0.1, 1.0)
        assert max(r1 for r1, _ in region.vertices) == pytest.approx(corner, abs=1e-6)
        assert max(r2 for _, r2 in region.vertices) == pytest.approx(corner, abs=1e-6)

    def test_zero_p1_collapses_r1(self):
        s = ICScenario(PointMass(1.0), PointMass(2.0), PointMass(2.0), PointMass(1.0), 0.0, 1.0)
        region = very_strong_ic_region(s)
        assert max(r1 for r1, _ in region.vertices) == 0.0


class TestWtcSecrecyCapacity:
    def test_exponential_pair_value(self):
        # (e^0.5 E1(0.5) - e E1(1)) / (2 ln 2), frozen from the closed-form oracle
        s = WTCScenario(Exponential(2.0), Exponential(1.0), 1.0)
        got = wtc_secrecy_capacity(s)
        oracle = exponential_rate_closed_form(2.0, 1.0) - exponential_rate_closed_form(1.0, 1.0)
        assert got.bits == pytest.approx(0.2355656051985441, abs=1e-3)
        assert got.bits == pytest.approx(oracle, abs=1e-9)

    def test_equal_gains_zero_secrecy(self):
        s = WTCScenario(Exponential(1.0), Exponential(1.0), 1.0)
        assert wtc_secrecy_capacity(s).bits == pytest.approx(0.0, abs=1e-9)

    def test_point_mass_scalar_values(self):
        s = WTCScenario(PointMass(3.0), PointMass(1.0), 1.0)
        assert wtc_secrecy_capacity(s).bits == pytest.approx(0.5, abs=1e-12)

    def test_not_degraded_rejected(self):
        s = WTCScenario(Exponential(1.0), Exponential(2.0), 1.0)
        with pytest.raises(UnclassifiedScenarioError):
            wtc_secrecy_capacity(s)
        forced = wtc_secrecy_capacity(s, force=True)
        assert forced.bits < 0.0  # reversed order yields the negated value

    def test_nonnegative_whenever_degraded(self):
        pairs = [
            (Exponential(2.0), Exponential(1.0)),
            (NakagamiGain(2.0, 3.0), NakagamiGain(2.0, 1.0)),
            (PointMass(3.0), PointMass(1.0)),
        ]
        for leg, eav in pairs:
            s = WTCScenario(leg, eav, 2.0)
            assert wtc_secrecy_capacity(s).bits >= 0.0

    def test_negative_rate_on_degraded_channel_raises(self, monkeypatch):
        # swapped rates under a degraded verdict stand in for a failed quadrature
        rates = {2.0: RateValue(0.1, "quadrature", 0.0), 1.0: RateValue(0.2, "quadrature", 0.0)}
        monkeypatch.setattr(gainorder.capacity, "ergodic_rate", lambda d, p: rates[d.mean_gain])
        with pytest.raises(RuntimeError, match="negative secrecy rate"):
            wtc_secrecy_capacity(WTCScenario(Exponential(2.0), Exponential(1.0), 1.0))
