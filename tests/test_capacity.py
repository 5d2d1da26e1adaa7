import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import gainorder.capacity
from gainorder import (BernoulliGain, Empirical, Exponential, GainDistribution, NakagamiGain,
                       PointMass, RatioExpExp, RatioLaw, distribution_from_spec)
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
from gainorder.classifier import (
    ICScenario,
    WTCScenario,
    classify_ic_strong,
    classify_ic_very_strong,
    classify_wtc,
)
from gainorder.stochastic_order import check_usual_order
from gainorder.verify import mc_ergodic_rate
from test_distributions import RATIO_POWER, STRUCTURE_KINDS, ratio_of_kinds


IC_SQUARE = ICScenario(PointMass(1.0), PointMass(2.0), PointMass(2.0), PointMass(1.0), 1.0, 1.0)


def strong(s, force=False):
    return strong_ic_region(s, classify_ic_strong(s), force=force)


def very_strong(s, force=False):
    return very_strong_ic_region(s, classify_ic_very_strong(s), force=force)


def secrecy(s, force=False):
    return wtc_secrecy_capacity(s, classify_wtc(s), force=force)


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
        assert exponential_rate_closed_form(1.0, 0.0) == 0.0

    @pytest.mark.parametrize("mean, power", [(1.0, 1e-300), (1.0, 1e-310), (1.0, 1e-320),
                                             (1e-160, 1e-160), (1e-200, 1e-200), (1.0, 5e-324)])
    def test_exponential_closed_form_where_the_snr_underflows(self, mean, power):
        # e^x E1(x) = U(1, 1, x), x = 1 / (P s); past the largest double the
        # rate is P s / (2 ln 2), which is subnormal or 0
        with mpmath.workprec(200):
            x = 1 / (mpmath.mpf(mean) * mpmath.mpf(power))
            oracle = float(mpmath.hyperu(1, 1, x) / (2 * mpmath.log(2)))
        rate = exponential_rate_closed_form(mean, power)
        assert abs(rate - oracle) <= 2 * np.spacing(oracle)

    @pytest.mark.parametrize("mean, power, bits", [
        (1.0, 1.0, "0x1.b87f73bc1af77p-2"), (0.1, 1.0, "0x1.0e89611ca0b8cp-4"),
        (2.0, 1.0, "0x1.54dbc7f2d5433p-1"), (1.0, 1e-3, "0x1.79d1002f704adp-11"),
        (1.0, 1e3, "0x1.249887e7225a2p+2"), (1e-300, 1.0, "0x1.eeacdd22425a8p-998"),
        (1.0, 1e300, "0x1.f1df72846a159p+8"), (3.7, 0.25, "0x1.a1af229b71806p-2"),
        (1.0, 1e-308, "0x0.52fe23e2936ccp-1022")])
    def test_exponential_closed_form_keeps_its_bits(self, mean, power, bits):
        assert exponential_rate_closed_form(mean, power) == float.fromhex(bits)

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

    def test_a_finite_rate_of_a_huge_gain(self):
        # the sample mean 1e308 overflows to inf with a warning, and the rate
        # refused the law as having a divergent mean
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ergodic_rate(Empirical((1e308, 1e308)), 1.0)
        assert got == RateValue(0.5 * math.log2(1.0 + 1e308), "closed_form", 0.0)

    @pytest.mark.parametrize("build, calls", [
        (lambda: RatioExpExp(2.0, 0.5, 1.0, num_shape=2.5),
         [("RatioExpExp", 22 * 24), ("RatioExpExp", 22 * 12)]),
        # N's default and companion rules, then D's companion rule: D's
        # default rule is built with the law, which conditions its ccdf on it
        (lambda: RatioLaw(Exponential(1.0), NakagamiGain(2.0, 1.0), 1.0),
         [("Exponential", 22 * 24), ("Exponential", 22 * 12), ("NakagamiGain", 22 * 12)]),
        # gapped over mixed: each ratio's rule is the product of its parts',
        # so only the exponential at the bottom of each side is inverted
        (lambda: RatioLaw(RatioLaw(Empirical((1.0, 1.0, 10.0)),
                                   RatioLaw(PointMass(2.0), Exponential(1.0), 1.0), 1.0),
                          RatioLaw(BernoulliGain(0.5), Exponential(1.0), 1.0), 0.5),
         [("Exponential", 22 * 24), ("Exponential", 22 * 12), ("Exponential", 22 * 12)]),
    ], ids=["ratio-exp-exp", "ratio-law", "gapped-over-mixed"])
    def test_a_rate_builds_each_rule_once(self, build, calls, monkeypatch):
        # the mean, the rate and the companion rule read the law's memoized
        # rules, so on a fresh law one rate inverts each quantile of its
        # default and its companion rule once, and never a RatioLaw's
        d = build()
        seen = []
        quantile = GainDistribution.quantile

        def counted(law, u):
            seen.append((type(law).__name__, np.size(u)))
            return quantile(law, u)

        monkeypatch.setattr(GainDistribution, "quantile", counted)
        rate = ergodic_rate(d, 1.3)
        assert seen == calls
        d.mean()
        assert ergodic_rate(d, 1.3) == rate and seen == calls

    def test_threads_sharing_a_fresh_law_read_one_rate(self):
        # the memo fills idempotently: threads that race to build a law's
        # rules all read the rate one thread alone reads
        expected = ergodic_rate(NakagamiGain(0.8, 1.7), 2.0)
        d = NakagamiGain(0.8, 1.7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(ergodic_rate, d, 2.0) for _ in range(16)]
                rates = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert rates == [expected] * 16


# each law of STRUCTURE_KINDS as its atom combinations: (mass, part), a part
# either a constant or a function of one standard exponential variable
STRUCTURE_PARTS = {
    "step": [(0.4, 0.0), (0.6, 1.0)],
    "atomless": [(1.0, lambda e: 2.0 / (1.0 + e))],
    # n / (1 + 2 / (1 + E)) for n = 1, 1, 10
    "gapped": [(2.0 / 3.0, lambda e: (1.0 + e) / (3.0 + e)),
               (1.0 / 3.0, lambda e: 10.0 * (1.0 + e) / (3.0 + e))],
    "mixed": [(0.5, 0.0), (0.5, lambda e: 1.0 / (1.0 + e))],
    "continuous": [(1.0, lambda e: e)],
}


def over_part(g, part) -> float:
    """E[g(V)] for V a part of STRUCTURE_PARTS, by scipy's adaptive quadrature."""
    if not callable(part):
        return g(part)
    return quad(lambda e: g(part(e)) * math.exp(-e), 0.0, math.inf,
                epsabs=1e-14, epsrel=1e-13, limit=200)[0]


class TestRateByStructure:
    # each structure kind alone (den None), and the ratio of each pair of kinds
    @pytest.mark.parametrize("num, den", [(num, den) for num in STRUCTURE_KINDS
                                          for den in (None, *STRUCTURE_KINDS)])
    def test_rate_against_nested_quadrature(self, num, den):
        # E[C(N / (1 + P D))]: the sum over the atom combinations of N and D
        # of a nested quad over the exponential variables each part reads
        law, _, kind = STRUCTURE_KINDS[num] if den is None else ratio_of_kinds(num, den)
        power = 0.0 if den is None else RATIO_POWER
        got = ergodic_rate(law, 1.0)
        assert got.method == ("closed_form" if kind == "step" else "quadrature")

        def rate(n, t):
            return 0.5 * math.log2(1.0 + n / (1.0 + power * t))

        exact = sum(p * q * over_part(lambda n: over_part(lambda t: rate(n, t), d), n)
                    for p, n in STRUCTURE_PARTS[num]
                    for q, d in ([(1.0, 0.0)] if den is None else STRUCTURE_PARTS[den]))
        assert abs(got.bits - exact) <= got.error_estimate <= 1e-9

    def test_gapped_law_against_adaptive_quadrature(self):
        # Z = N / (1 + D) for N on {1, 1, 10} and D = 2 / (1 + E): conditioned on
        # N = n, C(Z) = C(n (1 + E) / (3 + E)); a panel across the jump of Z's
        # quantile at u = 2/3 put the rate 5e-3 off
        got = ergodic_rate(STRUCTURE_KINDS["gapped"][0], 1.0)
        exact = sum(p * quad(lambda e: 0.5 * math.log2(1.0 + n * (1.0 + e) / (3.0 + e))
                             * math.exp(-e), 0.0, math.inf, epsabs=1e-14, epsrel=1e-13)[0]
                    for n, p in ((1.0, 2.0 / 3.0), (10.0, 1.0 / 3.0)))
        assert abs(got.bits - exact) <= got.error_estimate <= 1e-10

    @pytest.mark.parametrize("q, power", [(0.5, 1.0), (0.1, 0.3), (0.9, 20.0)])
    def test_mixed_law_against_adaptive_quadrature(self, q, power):
        # Z = B / (1 + P E) holds mass 1 - q at 0, where C(0) = 0, and spreads
        # q over (0, 1]; law_nodes had no rule for it, and the rate raised
        law = RatioLaw(BernoulliGain(q), Exponential(1.0), power)
        got = ergodic_rate(law, 1.0)
        exact = q * quad(lambda e: 0.5 * math.log2(1.0 + 1.0 / (1.0 + power * e)) * math.exp(-e),
                         0.0, math.inf, epsabs=1e-14, epsrel=1e-13)[0]
        assert abs(got.bits - exact) <= got.error_estimate <= 1e-9


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

    def test_law_mixing_atoms_and_a_density_against_quadrature(self):
        # Bernoulli over Exponential keeps an atom at 0 of mass 1/2 and spreads
        # the rest; summing the atom alone returned 0.25 bits, 1e6 draws 0.593.
        # With the point mass at 1: E[C(Z + 1)] = C(1) / 2 + E[C(1 + 1 / (1 + E))] / 2
        mixed = RatioLaw(BernoulliGain(0.5), Exponential(1.0), 1.0)
        got = pair_sum_rate(mixed, 1.0, PointMass(1.0), 1.0)
        exact = 0.25 + 0.5 * quad(lambda e: 0.5 * math.log2(2.0 + 1.0 / (1.0 + e)) * math.exp(-e),
                                  0.0, math.inf, epsabs=1e-14, epsrel=1e-13)[0]
        assert abs(got.bits - exact) <= got.error_estimate <= 1e-9

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError) as err:
            pair_sum_rate(Exponential(1.0), -1.0, Exponential(2.0), 1.0)
        assert str(err.value) == "power_a must be a nonnegative finite number, got -1.0"

    @pytest.mark.parametrize("value", [-1.0, math.inf, math.nan, 10**400])
    def test_a_power_that_is_not_nonnegative_and_finite_is_refused(self, value):
        # an int past the largest double raised OverflowError, not ValueError;
        # the closed form refused a negative value by an inner helper's
        # message, and the Monte Carlo rate read NaN at a NaN power
        for name, call in [
            ("power", lambda: ergodic_rate(Exponential(1.0), value)),
            ("power_b", lambda: pair_sum_rate(Exponential(1.0), 1.0, Exponential(2.0), value)),
            ("power", lambda: exponential_rate_closed_form(1.0, value)),
            ("mean_gain", lambda: exponential_rate_closed_form(value, 1.0)),
            ("power", lambda: mc_ergodic_rate(Exponential(1.0), value, n=10**4)),
        ]:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"{name} must be a nonnegative finite number, got {value!r}"

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
    # both rules round to the same double, one ulp off the oracle
    @example(NakagamiGain(math.e**1.75, 10**-1.375), 10**-1.375, PointMass(10**1.75), 10**1.75)
    def test_pair_sum_rate(self, d_a, power_a, d_b, power_b):
        got = pair_sum_rate(d_a, power_a, d_b, power_b)
        gap = abs(got.bits - rate_oracle((d_a, power_a), (d_b, power_b)))
        assert gap <= got.error_estimate
        assert gap <= 1e-12


# one law of each family and one RatioLaw, shared, so that each ratio of two
# of them builds only its own product rule
EVERY_FAMILY = [Exponential(1.5), NakagamiGain(0.7, 2.0), BernoulliGain(0.3), PointMass(2.0),
                RatioExpExp(1.0, 2.0, 0.5, num_shape=2.5), Empirical((0.5, 1.0, 1.0, 4.0)),
                RatioLaw(BernoulliGain(0.5), Exponential(1.0), 1.0)]


class TestRatioRateFallsInItsPower:
    """N / (1 + P2 D) <=st N / (1 + P1 D) for P1 <= P2, so the ratio's rate
    falls in P within the two error estimates (Shaked & Shanthikumar,
    Stochastic Orders, 2007, Thm 1.A.3): a property that needs no oracle."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(EVERY_FAMILY), st.sampled_from(EVERY_FAMILY),
           st.lists(POWERS, min_size=2, max_size=2).map(sorted), POWERS)
    def test_rate_falls_in_the_ratio_power(self, num, den, powers, power):
        low, high = (ergodic_rate(RatioLaw(num, den, p), power) for p in powers)
        assert high.bits <= low.bits + low.error_estimate + high.error_estimate


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

    def test_no_constraint_and_an_empty_region_raise(self):
        with pytest.raises(ValueError, match="at least one rate constraint"):
            region_from_constraints([])
        with pytest.raises(ValueError, match="rate region is empty"):
            region_from_constraints([(1.0, 0.0, -1.0)])

    def test_a_negative_rate_lies_outside(self):
        region = region_from_constraints([(1, 0, 1.0), (0, 1, 1.0)])
        assert not region.contains(-1.0, 0.0) and region.contains(0.0, 0.0)


class TestStrongICRegion:
    def make_point_mass_scenario(self):
        return ICScenario(PointMass(1.0), PointMass(2.0), PointMass(2.0), PointMass(1.0), 1.0, 1.0)

    def test_point_mass_square(self):
        region = strong(self.make_point_mass_scenario())
        assert region.vertices == ((0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5))

    def test_zero_power_single_vertex(self):
        s = ICScenario(PointMass(1.0), PointMass(2.0), PointMass(2.0), PointMass(1.0), 0.0, 0.0)
        region = strong(s)
        assert region.vertices == ((0.0, 0.0),)

    def test_bernoulli_direct_rate_constraint(self):
        s = ICScenario(
            BernoulliGain(0.5), BernoulliGain(1.0), BernoulliGain(1.0), BernoulliGain(0.5),
            1.0, 1.0,
        )
        region = strong(s)
        r1_bounds = [b for a1, a2, b in region.constraints if (a1, a2) == (1.0, 0.0)]
        assert min(r1_bounds) == pytest.approx(0.25, abs=1e-12)

    def test_contained_in_each_mac_region(self):
        s = ICScenario(Exponential(1.0), Exponential(2.0), Exponential(2.0), Exponential(1.0),
                       1.0, 1.0)
        region = strong(s)
        per_receiver = [region.constraints[:3], region.constraints[3:]]
        for mac in per_receiver:
            for r1, r2 in region.vertices:
                assert all(a1 * r1 + a2 * r2 <= b + 1e-9 for a1, a2, b in mac)

    def test_each_rule_computed_once(self, monkeypatch):
        # each gain enters an ergodic rate and a pair-sum rate, each with the
        # default and the companion rule: 16 requests for 8 distinct rules,
        # each inverted once on its (fresh) law, which memoizes it
        s = ICScenario(NakagamiGain(0.7, 1.0), NakagamiGain(2.0, 3.0), NakagamiGain(2.2, 4.0),
                       Exponential(1.0), 1.3, 0.8)
        report = classify_ic_strong(s)
        calls = []
        quantile = GainDistribution.quantile

        def counted(d, u):
            calls.append((d, np.size(u)))
            return quantile(d, u)

        monkeypatch.setattr(GainDistribution, "quantile", counted)
        region = strong_ic_region(s, report, force=True)
        assert sorted(calls, key=repr) == sorted(
            {(d, 22 * order) for d in (s.h11, s.h12, s.h21, s.h22) for order in (24, 12)},
            key=repr)
        # the same rates as on fresh laws, which build their own rules
        fresh = [distribution_from_spec(d.to_spec()) for d in (s.h11, s.h12, s.h21, s.h22)]
        rates = [rate for g1, g2 in (fresh[:2], fresh[2:])
                 for rate in (ergodic_rate(g1, s.p1).bits, ergodic_rate(g2, s.p2).bits,
                              pair_sum_rate(g1, s.p1, g2, s.p2).bits)]
        assert [b for _, _, b in region.constraints] == rates

    def test_unclassified_rejected_and_forceable(self):
        bad = ICScenario(Exponential(2.0), Exponential(1.0), Exponential(1.0), Exponential(2.0),
                         1.0, 1.0)
        with pytest.raises(UnclassifiedScenarioError):
            strong(bad)
        region = strong(bad, force=True)
        assert isinstance(region, RateRegion)


class TestReportGate:
    def test_capacity_never_classifies(self):
        assert not [name for name in dir(gainorder.capacity) if name.startswith("classify_")]

    @pytest.mark.parametrize("expression, s, other", [
        (strong_ic_region, IC_SQUARE, classify_ic_very_strong(IC_SQUARE)),
        (very_strong_ic_region, IC_SQUARE, classify_ic_strong(IC_SQUARE)),
        (wtc_secrecy_capacity, WTCScenario(PointMass(3.0), PointMass(1.0), 1.0),
         classify_ic_strong(IC_SQUARE)),
    ], ids=["strong", "very_strong", "wiretap"])
    def test_report_of_another_condition_rejected(self, expression, s, other):
        assert other.verdict
        for force in (False, True):
            with pytest.raises(ValueError, match="report") as info:
                expression(s, other, force=force)
            assert not isinstance(info.value, UnclassifiedScenarioError)


class TestVeryStrongICRegion:
    def test_point_mass_square_corner(self):
        s = ICScenario(PointMass(1.0), PointMass(2.0), PointMass(2.0), PointMass(1.0), 1.0, 1.0)
        region = very_strong(s)
        assert (0.5, 0.5) in region.vertices

    def test_exponential_rectangle_corner(self):
        s = ICScenario(Exponential(0.1), Exponential(1.0), Exponential(1.0), Exponential(0.1),
                       1.0, 1.0)
        region = very_strong(s)
        corner = exponential_rate_closed_form(0.1, 1.0)
        assert max(r1 for r1, _ in region.vertices) == pytest.approx(corner, abs=1e-6)
        assert max(r2 for _, r2 in region.vertices) == pytest.approx(corner, abs=1e-6)

    def test_zero_p1_collapses_r1(self):
        s = ICScenario(PointMass(1.0), PointMass(2.0), PointMass(2.0), PointMass(1.0), 0.0, 1.0)
        region = very_strong(s)
        assert max(r1 for r1, _ in region.vertices) == 0.0


class TestWtcSecrecyCapacity:
    def test_exponential_pair_value(self):
        # (e^0.5 E1(0.5) - e E1(1)) / (2 ln 2), frozen from the closed-form oracle
        s = WTCScenario(Exponential(2.0), Exponential(1.0), 1.0)
        got = secrecy(s)
        oracle = exponential_rate_closed_form(2.0, 1.0) - exponential_rate_closed_form(1.0, 1.0)
        assert got.bits == pytest.approx(0.2355656051985441, abs=1e-3)
        assert got.bits == pytest.approx(oracle, abs=1e-9)

    def test_equal_gains_zero_secrecy(self):
        s = WTCScenario(Exponential(1.0), Exponential(1.0), 1.0)
        assert secrecy(s).bits == pytest.approx(0.0, abs=1e-9)

    def test_point_mass_scalar_values(self):
        s = WTCScenario(PointMass(3.0), PointMass(1.0), 1.0)
        assert secrecy(s).bits == pytest.approx(0.5, abs=1e-12)

    def test_step_laws_closed_form(self):
        # both rates sum atoms exactly; the difference was labelled "quadrature"
        got = secrecy(WTCScenario(BernoulliGain(0.8), BernoulliGain(0.3), 1.0))
        assert got.method == "closed_form" and got.error_estimate == 0.0
        assert got.bits == pytest.approx(0.25, abs=1e-15)
        got = secrecy(WTCScenario(Exponential(2.0), PointMass(0.1), 1.0), force=True)
        assert got.method == "quadrature" and got.error_estimate > 0.0

    def test_not_degraded_rejected(self):
        s = WTCScenario(Exponential(1.0), Exponential(2.0), 1.0)
        with pytest.raises(UnclassifiedScenarioError):
            secrecy(s)
        forced = secrecy(s, force=True)
        assert forced.bits < 0.0  # reversed order yields the negated value

    def test_nonnegative_whenever_degraded(self):
        pairs = [
            (Exponential(2.0), Exponential(1.0)),
            (NakagamiGain(2.0, 3.0), NakagamiGain(2.0, 1.0)),
            (PointMass(3.0), PointMass(1.0)),
        ]
        for leg, eav in pairs:
            s = WTCScenario(leg, eav, 2.0)
            assert secrecy(s).bits >= 0.0

    def test_negative_rate_on_degraded_channel_raises(self, monkeypatch):
        # swapped rates under a degraded verdict stand in for a failed quadrature
        rates = {2.0: RateValue(0.1, "quadrature", 0.0), 1.0: RateValue(0.2, "quadrature", 0.0)}
        monkeypatch.setattr(gainorder.capacity, "ergodic_rate", lambda d, p: rates[d.mean_gain])
        with pytest.raises(RuntimeError, match="negative secrecy rate"):
            secrecy(WTCScenario(Exponential(2.0), Exponential(1.0), 1.0))
