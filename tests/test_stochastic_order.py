import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import gainorder
from gainorder import (
    BernoulliGain,
    BCScenario,
    Empirical,
    EvaluationGrid,
    Exponential,
    GainDistribution,
    NakagamiGain,
    PointMass,
    RatioExpExp,
    RatioLaw,
    classify_bc,
)
from gainorder import stochastic_order
from gainorder.stochastic_order import (
    OrderVerdict,
    Relation,
    check_usual_order,
    check_usual_order_discrete,
    default_order_tolerance,
    density_segments,
    overlap_mass,
    total_variation,
)


def overlap_quadrature_oracle(d1, d2, upper=80.0):
    """Adaptive quadrature of min(f1, f2); independent of the segment route."""
    val, _ = quad(
        lambda x: min(float(d1.pdf(x)), float(d2.pdf(x))), 0.0, upper, limit=400, epsabs=1e-11
    )
    return val


class TestCheckUsualOrder:
    def test_exponential_pair_first_leq(self):
        v = check_usual_order(Exponential(1.0), Exponential(2.0))
        assert v.relation is Relation.FIRST_LEQ
        assert v.first_leq and not v.second_leq
        assert v.max_violation <= v.tol
        assert v.witnesses_second_gt  # strictly dominated somewhere

    def test_identical_is_equal(self):
        v = check_usual_order(Exponential(1.5), Exponential(1.5))
        assert v.relation is Relation.EQUAL
        assert v.witnesses_first_gt == () and v.witnesses_second_gt == ()

    def test_nakagami_m1_equals_exponential(self):
        # distribution-identical families land exactly on Equal
        v = check_usual_order(NakagamiGain(1.0, 2.0), Exponential(2.0))
        assert v.relation is Relation.EQUAL

    def test_binary_fading_gains_ordered(self):
        v = check_usual_order(BernoulliGain(0.3), BernoulliGain(0.7))
        assert v.relation is Relation.FIRST_LEQ

    def test_crossing_pair_incomparable(self):
        v = check_usual_order(Exponential(1.0), NakagamiGain(2.0, 1.0))
        assert v.relation is Relation.INCOMPARABLE
        assert v.witnesses_first_gt and v.witnesses_second_gt
        assert v.max_violation > v.tol

    def test_antisymmetry_at_zero_tol(self):
        # both directions holding simultaneously forces Equal, not two verdicts
        v = check_usual_order(Exponential(2.0), Exponential(2.0), tol=0.0)
        assert v.relation is Relation.EQUAL

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9, 10**400])
    def test_rejects_a_tolerance_that_is_not_finite_and_nonnegative(self, tol):
        # NaN used to reach the verdict builder, inf certified any pair, and an
        # int past the largest double raised OverflowError
        message = f"tolerance must be a nonnegative finite number, got {tol!r}"
        with pytest.raises(ValueError) as err:
            check_usual_order(Exponential(2.0), Exponential(1.0), tol=tol)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            check_usual_order_discrete([0.5, 0.5], [1.0, 0.0], tol=tol)
        assert str(err.value) == message

    def test_empirical_tolerance_default(self):
        emp = Empirical.from_samples(np.linspace(0.01, 2.0, 400))
        assert default_order_tolerance(emp, Exponential(1.0)) == pytest.approx(
            2.0 * 1.36 / math.sqrt(400)
        )
        # a sample two ratio laws deep, and the smaller of two samples
        nested = RatioLaw(RatioLaw(Exponential(1.0), emp, 1.0), Exponential(1.0), 1.0)
        small = Empirical.from_samples([0.5, 1.5, 2.5, 3.5])
        assert default_order_tolerance(Exponential(1.0), nested) == pytest.approx(
            2.0 * 1.36 / math.sqrt(400))
        assert default_order_tolerance(nested, small) == pytest.approx(1.36)

    def test_point_mass_vs_continuous_left_limit(self):
        from gainorder import PointMass

        # Pr(X >= 0.5) for the point mass is 1, caught only via the left limit
        v = check_usual_order(Exponential(1.0), PointMass(0.5))
        assert v.relation is Relation.INCOMPARABLE


    def test_an_atom_is_one_witness(self):
        # the gap exceeds tol at 1 both from the right and as a left limit
        v = check_usual_order(BernoulliGain(0.3), NakagamiGain(2.0, 1.0))
        assert v.relation is Relation.FIRST_LEQ
        assert v.witnesses_second_gt == (0.0, 1.0)

    def test_max_violation_is_never_negative_zero(self):
        # the gaps of this pair peak at a zero that the subtraction signs negative
        v = check_usual_order(Exponential(2.4994462310760035), Exponential(2.279009313135074))
        assert v.relation is Relation.SECOND_LEQ
        assert v.max_violation == 0.0
        assert math.copysign(1.0, v.max_violation) == 1.0


# an incomparable pair whose first-side gap (6.5e-5 at x = 3.33e-10) lies below
# the first point, 1.26e-6, of the pair's 4096-point log grid
BELOW_GRID_PAIR = (NakagamiGain(0.4431645061593195, 0.05725987585219745),
                   NakagamiGain(0.32350602137911894, 23.04997527605797))


def decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


GAMMA_LAWS = st.one_of(
    st.builds(Exponential, decades(-3.0, 3.0)),
    st.builds(NakagamiGain, st.floats(math.log(0.3), math.log(20.0)).map(math.exp),
              decades(-3.0, 3.0)),
)


def shape_scale(d):
    """(shape, scale) of a gamma law, as exact fractions."""
    if isinstance(d, Exponential):
        return Fraction(1), Fraction(d.mean_gain)
    return Fraction(d.m), Fraction(d.w) / Fraction(d.m)


def gamma_gap_sups(d1, d2):
    """(sup of ccdf1 - ccdf2, sup of ccdf2 - ccdf1) over x >= 0, in mpmath.

    The gap is 0 at 0 and at infinity and its extremes sit where the densities
    cross, the roots of phi(u) = a u + b e^u + c in u = ln x.  phi is monotone
    when a b > 0 and otherwise has one stationary point, so each root is
    bracketed from one of those points and bisected; no Lambert W is used.
    Roots outside |u| <= 690 are skipped: below x = 1e-300 both ccdfs are 1
    to within (r x)^k / k! < 1e-80 for the shapes k >= 0.3 drawn here, and
    above x = 1e300 both are 0.
    """
    with mpmath.workdps(40):
        (k1, s1), (k2, s2) = (tuple(mpmath.mpf(v.numerator) / v.denominator for v in shape_scale(d))
                              for d in (d1, d2))
        a, b = k1 - k2, 1 / s2 - 1 / s1
        c = (mpmath.loggamma(k2) + k2 * mpmath.log(s2)) - (mpmath.loggamma(k1) + k1 * mpmath.log(s1))

        def phi(u):
            return a * u + b * mpmath.exp(u) + c

        def root_toward(u0, end):
            lo, hi = sorted((u0, end))
            if mpmath.sign(phi(lo)) == mpmath.sign(phi(hi)):
                return None
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if mpmath.sign(phi(mid)) == mpmath.sign(phi(lo)) else (lo, mid)
            return lo

        window = (mpmath.mpf(-690), mpmath.mpf(690))
        if a == 0:
            roots = [mpmath.log(-c / b)] if b != 0 and -c / b > 0 else []
        elif b == 0:
            roots = [-c / a] if abs(c / a) <= 690 else []
        elif a * b > 0:
            roots = [root_toward(*window)]
        else:
            top = min(max(mpmath.log(-a / b), window[0]), window[1])
            roots = [root_toward(top, end) for end in window]
        gaps = [mpmath.gammainc(k1, mpmath.exp(u) / s1, mpmath.inf, regularized=True)
                - mpmath.gammainc(k2, mpmath.exp(u) / s2, mpmath.inf, regularized=True)
                for u in roots if u is not None]
        return max([0.0] + [float(g) for g in gaps]), max([0.0] + [float(-g) for g in gaps])


STEP_LAWS = st.one_of(
    st.builds(BernoulliGain, st.floats(0.0, 1.0)),
    st.builds(PointMass, st.floats(0.0, 5.0)),
    st.builds(Empirical.from_samples, st.lists(st.floats(0.0, 5.0), min_size=1, max_size=12)),
)
ATOMLESS_LAWS = st.one_of(
    st.builds(Exponential, st.floats(0.2, 5.0)),
    st.builds(NakagamiGain, st.floats(0.3, 5.0), st.floats(0.2, 5.0)),
    st.builds(RatioExpExp, st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.0, 10.0)),
    st.builds(RatioLaw, st.builds(NakagamiGain, st.floats(0.3, 5.0), st.floats(0.2, 5.0)),
              st.one_of(st.builds(Exponential, st.floats(0.2, 5.0)),
                        st.builds(BernoulliGain, st.floats(0.0, 1.0))),
              st.floats(0.1, 10.0)),
)
# a Bernoulli numerator keeps an atom at 0 beside a density
MIXED_RATIO_LAWS = st.builds(
    RatioLaw, st.builds(BernoulliGain, st.floats(0.01, 0.99)),
    st.one_of(st.builds(Exponential, st.floats(0.2, 5.0)),
              st.builds(NakagamiGain, st.floats(0.3, 5.0), st.floats(0.2, 5.0))),
    st.floats(0.1, 10.0))


class TestExactOrder:
    def test_gap_below_the_grid_floor_is_found(self):
        v = check_usual_order(*BELOW_GRID_PAIR)
        assert v.relation is Relation.INCOMPARABLE
        assert v.max_violation == pytest.approx(6.525e-5, rel=1e-3)
        assert v.witnesses_first_gt == (pytest.approx(3.3323e-10, rel=1e-4),)

    @settings(max_examples=100, deadline=None)
    @given(d1=GAMMA_LAWS, d2=GAMMA_LAWS)
    @example(*BELOW_GRID_PAIR)
    # equal rates: one crossing, at e^(-c/a) = 1
    @example(NakagamiGain(2.0, 2.0), Exponential(1.0))
    # near-equal shapes: the crossing at 2.56 is on the W_{-1} branch at
    # W_{-1}(-e^L) with L = -2297, where e^L underflows
    @example(NakagamiGain(1.0, 10.0), NakagamiGain(1.001, 1.0))
    def test_gamma_pairs_match_the_gamma_order_criterion(self, d1, d2):
        # Gamma(k1, s1) <=_st Gamma(k2, s2) iff k1 <= k2 and s1 <= s2
        # (Shaked & Shanthikumar, Stochastic Orders, 2007)
        v = check_usual_order(d1, d2)
        (k1, s1), (k2, s2) = shape_scale(d1), shape_scale(d2)
        if k1 <= k2 and s1 <= s2:
            assert v.first_leq
        if k2 <= k1 and s2 <= s1:
            assert v.second_leq
        gap1, gap2 = gamma_gap_sups(d1, d2)
        # where the pair is unordered, tol decides on the supremum of each gap
        for gap, holds in ((gap1, v.first_leq), (gap2, v.second_leq)):
            if abs(gap - v.tol) > 1e-12:
                assert holds == (gap <= v.tol)
        expected = {Relation.EQUAL: max(gap1, gap2), Relation.FIRST_LEQ: gap1,
                    Relation.SECOND_LEQ: gap2, Relation.INCOMPARABLE: min(gap1, gap2)}
        assert v.max_violation == pytest.approx(expected[v.relation], abs=1e-12)
        # the largest gap sits at a witness, even where it is not the max_violation
        for gap, sign, witnesses in ((gap1, 1.0, v.witnesses_first_gt),
                                     (gap2, -1.0, v.witnesses_second_gt)):
            if witnesses:
                at = sign * (np.asarray(d1.ccdf(witnesses)) - np.asarray(d2.ccdf(witnesses)))
                assert at.max() == pytest.approx(gap, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(pair=st.one_of(st.tuples(STEP_LAWS, ATOMLESS_LAWS | MIXED_RATIO_LAWS),
                          st.tuples(ATOMLESS_LAWS | MIXED_RATIO_LAWS, STEP_LAWS),
                          st.tuples(STEP_LAWS, STEP_LAWS)))
    @example(pair=(NakagamiGain(1.25, 1.9375), PointMass(2.25)))
    def test_step_law_gaps_dominate_a_dense_grid(self, pair):
        d1, d2 = pair
        points = stochastic_order._extreme_points(d1, d2)
        assert points is not None and points.size == 0
        _, c1, c2 = stochastic_order._ccdf_eval_points(d1, d2, points)
        exact = c1 - c2
        x_hi = max(d1.tail_quantile(), d2.tail_quantile(), 1e-6)
        atoms = np.concatenate([d1.atoms()[0], d2.atoms()[0]])
        xs = np.unique(np.concatenate([
            np.geomspace(x_hi * 1e-12, x_hi, 3000), np.linspace(0.0, x_hi, 3000),
            atoms, np.nextafter(atoms, 0.0), np.nextafter(atoms, np.inf)]))
        dense = np.asarray(d1.ccdf(xs)) - np.asarray(d2.ccdf(xs))
        # 1e-14, not 1e-15: near x = m scipy's gammaincc, like 1 - gammainc, is
        # accurate and monotone only to about 3e-15, so one ulp below
        # PointMass(2.25) the ccdf of NakagamiGain(1.25, 1.9375) reads 1.8e-15
        # below its value at the atom
        assert dense.max() <= exact.max() + 1e-14
        assert dense.min() >= exact.min() - 1e-14

    def test_a_law_of_200000_atoms_is_checked_at_each(self):
        # Z1 = H21 / (1 + P2 H22) of a very strong interference check, for an
        # empirical H21 over a Bernoulli H22: the left limits at its atoms are
        # one lookup, where a sum over the atoms took time quadratic in them
        sample = Empirical.from_samples(np.random.default_rng(0).exponential(size=100_000))
        z1 = RatioLaw(sample, BernoulliGain(0.5), 1.0)
        assert z1.atoms()[0].size == 200_000
        assert check_usual_order(Exponential(1.0), z1).relation is Relation.SECOND_LEQ

    def test_classify_bc_on_gamma_and_step_laws_builds_no_grid(self, monkeypatch):
        calls = []

        def counted(original):
            def wrapper(*args, **kwargs):
                calls.append(original.__qualname__)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(GainDistribution, "tail_quantile",
                            counted(GainDistribution.tail_quantile))
        monkeypatch.setattr(EvaluationGrid, "for_pair",
                            classmethod(counted(EvaluationGrid.for_pair.__func__)))
        # Exp(1) and Nakagami(2, 1) are incomparable, so every pair is checked
        gains = (Exponential(1.0), NakagamiGain(2.0, 1.0), NakagamiGain(0.5, 3.0),
                 BernoulliGain(0.5), PointMass(0.7), Empirical.from_samples([0.2, 0.9, 1.4]))
        report = classify_bc(BCScenario(gains, power=1.0))
        assert not report.verdict
        # a step law against a law mixing an atom at 0 and a density
        mixed = RatioLaw(BernoulliGain(0.5), Exponential(1.0), 1.0)
        v = check_usual_order(BernoulliGain(0.5), mixed)
        assert v.relation is Relation.SECOND_LEQ and v.witnesses_first_gt == (1.0,)
        assert check_usual_order(mixed, BernoulliGain(0.5)) == v.mirrored()
        report = classify_bc(BCScenario((BernoulliGain(0.5), mixed), power=1.0))
        assert report.verdict and report.permutation == (2, 1)
        assert calls == []
        # the counters see a pair that still needs the grid, and a ratio law
        # by quadrature whose truncation point inverts its cdf
        classify_bc(BCScenario((Exponential(1.0), RatioLaw(NakagamiGain(2.0, 1.0),
                                                           Exponential(1.0), 1.0)),
                               power=1.0))
        assert "EvaluationGrid.for_pair" in calls
        assert "GainDistribution.tail_quantile" in calls


WIDE_SCALES = st.floats(-4.0, 4.0).map(lambda e: 10.0**e)
WIDE_GAMMA_LAWS = st.one_of(
    st.builds(Exponential, WIDE_SCALES),
    st.builds(NakagamiGain, st.floats(0.3, 20.0), WIDE_SCALES),
)
MIXED_LAWS = st.one_of(
    st.builds(Exponential, st.floats(0.2, 5.0)),
    st.builds(NakagamiGain, st.floats(0.3, 5.0), st.floats(0.2, 5.0)),
    st.builds(BernoulliGain, st.floats(0.0, 1.0)),
    st.builds(PointMass, st.floats(0.0, 5.0)),
    st.builds(RatioExpExp, st.floats(0.2, 5.0), st.floats(0.2, 5.0), st.floats(0.0, 10.0)),
    st.builds(Empirical.from_samples, st.lists(st.floats(0.0, 5.0), min_size=1, max_size=12)),
)
MIXED_PAIRS = st.one_of(st.tuples(MIXED_LAWS, MIXED_LAWS), MIXED_LAWS.map(lambda d: (d, d)))
VERDICT_FIELDS = ("relation", "witnesses_first_gt", "witnesses_second_gt", "max_violation", "tol")


class TestMirroredVerdict:
    @settings(max_examples=120, deadline=None)
    @given(pair=MIXED_PAIRS)
    def test_reverse_check_is_the_mirrored_verdict(self, pair):
        d1, d2 = pair
        forward = check_usual_order(d1, d2).mirrored()
        backward = check_usual_order(d2, d1)
        # repr shows the sign of a zero, which == would not
        for name in VERDICT_FIELDS:
            assert repr(getattr(forward, name)) == repr(getattr(backward, name)), name
        assert math.copysign(1.0, backward.max_violation) == 1.0

    def test_mirrored_swaps_relation_and_witnesses(self):
        cases = [(Relation.FIRST_LEQ, Relation.SECOND_LEQ, (), (2.0,)),
                 (Relation.SECOND_LEQ, Relation.FIRST_LEQ, (1.0,), ()),
                 (Relation.EQUAL, Relation.EQUAL, (), ()),
                 (Relation.INCOMPARABLE, Relation.INCOMPARABLE, (1.0,), (2.0, 3.0))]
        for relation, mirror, wit1, wit2 in cases:
            v = OrderVerdict(relation, wit1, wit2, 0.25, 1e-9)
            assert v.mirrored() == OrderVerdict(mirror, wit2, wit1, 0.25, 1e-9)
            assert v.mirrored().mirrored() == v


_INVALID_VERDICTS = """
import sys
from gainorder.stochastic_order import OrderVerdict, Relation
assert sys.flags.optimize, "asserts are live"
for relation, wit1, wit2 in ((Relation.EQUAL, (1.0,), ()), (Relation.INCOMPARABLE, (1.0,), ())):
    try:
        OrderVerdict(relation, wit1, wit2, 0.5, 1e-9)
    except ValueError:
        continue
    sys.exit(f"{relation} verdict with witnesses {wit1}, {wit2} was accepted")
print("both rejected")
"""


class TestOrderVerdictInvariants:
    def test_a_verdict_against_its_witnesses_raises(self):
        with pytest.raises(ValueError, match="EQUAL verdict carries no witnesses"):
            OrderVerdict(Relation.EQUAL, (), (2.0,), 0.5, 1e-9)
        with pytest.raises(ValueError, match="INCOMPARABLE verdict needs witnesses"):
            OrderVerdict(Relation.INCOMPARABLE, (1.0,), (), 0.5, 1e-9)

    def test_rejected_under_python_O(self):
        # python -O strips assert statements, so the invariants must raise
        src = str(Path(gainorder.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        run = subprocess.run([sys.executable, "-O", "-c", _INVALID_VERDICTS], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "both rejected"


class TestCheckUsualOrderDiscrete:
    def test_markov_row_example(self):
        v = check_usual_order_discrete([0.5, 0.25, 0.25], [0.25, 0.375, 0.375])
        assert v.relation is Relation.FIRST_LEQ

    def test_equal_vectors(self):
        v = check_usual_order_discrete([0.2, 0.3, 0.5], [0.2, 0.3, 0.5])
        assert v.relation is Relation.EQUAL

    def test_point_masses_at_ordered_states(self):
        v = check_usual_order_discrete([1.0, 0.0], [0.0, 1.0])
        assert v.relation is Relation.FIRST_LEQ

    def test_incomparable_vectors(self):
        v = check_usual_order_discrete([0.5, 0.0, 0.5], [0.0, 1.0, 0.0])
        assert v.relation is Relation.INCOMPARABLE

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            check_usual_order_discrete([0.5, 0.5], [1.0])

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError):
            check_usual_order_discrete([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ValueError):
            check_usual_order_discrete([-0.1, 1.1], [0.5, 0.5])


def gamma_density_mp(d, x):
    """The density of a gamma law at x, in the current mpmath precision."""
    k, r = (1, 1 / mpmath.mpf(d.mean_gain)) if isinstance(d, Exponential) else (
        mpmath.mpf(d.m), mpmath.mpf(d.m) / mpmath.mpf(d.w))
    return r**k * x ** (k - 1) * mpmath.exp(-r * x) / mpmath.gamma(k)


def overlap_mpmath_oracle(d1, d2):
    """50-digit integral of min(f1, f2) over [0, inf), split at the crossings,
    which are bracketed by a scan of the 50-digit log density ratio and
    bisected; independent of the program's crossing solver."""
    with mpmath.workdps(50):
        def log_ratio(x):
            return mpmath.log(gamma_density_mp(d1, x)) - mpmath.log(gamma_density_mp(d2, x))

        grid = [mpmath.mpf(10) ** (e / mpmath.mpf(20)) for e in range(-600, 81)]
        signs = [mpmath.sign(log_ratio(x)) for x in grid]
        crossings = [mpmath.findroot(log_ratio, (lo, hi), solver="bisect")
                     for lo, hi, s_lo, s_hi in zip(grid, grid[1:], signs, signs[1:])
                     if s_lo * s_hi < 0]
        return mpmath.quad(lambda x: min(gamma_density_mp(d1, x), gamma_density_mp(d2, x)),
                           [0, *crossings, mpmath.inf])


class TestOverlapAndTotalVariation:
    def test_exponential_pair_closed_form(self):
        # densities cross at 2 s ln 2; integral of the min is 1/2 + 1/4
        for scale in [10.0**e for e in range(-4, 5)]:
            d1, d2 = Exponential(scale), Exponential(2.0 * scale)
            assert overlap_mass(d1, d2) == 0.75, scale
            assert total_variation(d1, d2) == 0.25, scale

    def test_nakagami_pair_matches_mpmath(self):
        # two density crossings, found in 50 digits by the oracle
        d1, d2 = NakagamiGain(0.75, 1.0), NakagamiGain(2.2, 2.0)
        assert len(density_segments(d1, d2)) == 3
        oracle = overlap_mpmath_oracle(d1, d2)
        assert abs(overlap_mass(d1, d2) - float(oracle)) <= 1e-13
        assert abs(overlap_mass(d2, d1) - float(oracle)) <= 1e-13

    def test_matches_quadrature_oracle(self):
        pairs = [
            (Exponential(1.0), Exponential(2.0)),
            (Exponential(1.0), NakagamiGain(2.0, 1.0)),
            (NakagamiGain(0.5, 1.0), NakagamiGain(2.0, 1.5)),
            # no closed-form crossings: the pdf scan
            (RatioExpExp(1.0, 1.0, 1.0), Exponential(1.0)),
        ]
        for d1, d2 in pairs:
            assert overlap_mass(d1, d2) == pytest.approx(
                overlap_quadrature_oracle(d1, d2), abs=1e-8
            )

    def test_continuous_ratio_law_has_a_density(self):
        # Z = N / (1 + D), N ~ Exp(1), D ~ Gamma(2, rate 2): with s = 2 / (2 + z),
        # f_Z = e^-z s^2 (1 + s) and ccdf_Z = e^-z s^2, so f_Z crosses e^-z once,
        # where s^3 + s^2 = 1, and the overlap is 1 - e^-z + ccdf_Z there
        law, exp = RatioLaw(Exponential(1.0), NakagamiGain(2.0, 1.0), 1.0), Exponential(1.0)
        with mpmath.workdps(40):
            s = mpmath.findroot(lambda s: s**3 + s**2 - 1, 0.75)
            z = 2 / s - 2
            oracle = 1 - mpmath.exp(-z) + mpmath.exp(-z) * s**2
        assert abs(overlap_mass(law, exp) - float(oracle)) <= 1e-12
        assert abs(total_variation(exp, law) - float(1 - oracle)) <= 1e-12

    def test_identical_distributions(self):
        d = Exponential(1.3)
        assert overlap_mass(d, d) == 1.0
        assert total_variation(d, d) == 0.0

    def test_nearly_disjoint_supports(self):
        tv = total_variation(Exponential(1.0), Exponential(1e6))
        assert 0.999 < tv < 1.0

    def test_overlap_plus_tv_is_one(self):
        d1, d2 = Exponential(1.0), NakagamiGain(2.0, 1.0)
        assert overlap_mass(d1, d2) + total_variation(d1, d2) == pytest.approx(1.0, abs=1e-8)

    def test_discrete_inputs_rejected(self):
        with pytest.raises(ValueError, match="density"):
            total_variation(BernoulliGain(0.5), Exponential(1.0))
        with pytest.raises(ValueError, match="density"):
            overlap_mass(Empirical.from_samples([1.0, 2.0]), Exponential(1.0))

    def test_tv_zero_iff_equal_verdict(self):
        d1 = Exponential(2.0)
        d2 = Exponential(2.0)
        assert total_variation(d1, d2) == 0.0
        assert check_usual_order(d1, d2).relation is Relation.EQUAL
        d3 = Exponential(2.0001)
        assert total_variation(d1, d3) > 0.0
        assert check_usual_order(d1, d3).relation is not Relation.EQUAL


class TestDensitySegments:
    def test_exponential_pair_single_crossing(self):
        segs = density_segments(Exponential(1.0), Exponential(2.0))
        assert len(segs) == 2
        assert segs[0].hi == pytest.approx(2.0 * math.log(2.0), abs=1e-9)
        # f2 is the smaller density left of the crossing
        assert segs[0].min_is_first is False
        assert segs[1].min_is_first is True

    def test_crossing_pair_three_segments(self):
        segs = density_segments(Exponential(1.0), NakagamiGain(2.0, 1.0))
        assert len(segs) == 3
        owners = [s.min_is_first for s in segs]
        assert owners == [False, True, False]

    @settings(max_examples=200, deadline=None)
    @given(d1=WIDE_GAMMA_LAWS, d2=WIDE_GAMMA_LAWS)
    # crossings below the old scan's floor of x_max 1e-13 and past its x_max
    @example(d1=NakagamiGain(3.055161827274395, 24.726624467847323),
             d2=NakagamiGain(3.6339989501037153, 0.03818511938434164))
    @example(d1=NakagamiGain(11.758361743430171, 44.718552210246955),
             d2=NakagamiGain(2.180489337177854, 11.578931133867751))
    def test_gamma_pairs_split_at_the_order_checks_crossings(self, d1, d2):
        crossings = stochastic_order._extreme_points(d1, d2)
        for first, second, flip in ((d1, d2, False), (d2, d1, True)):
            segs = density_segments(first, second)
            assert [s.lo for s in segs[1:]] == [s.hi for s in segs[:-1]] == crossings.tolist()
            assert segs[0].lo == 0.0 and segs[-1].hi == math.inf
            for seg in segs:
                hi = seg.hi if seg.hi < math.inf else 2.0 * seg.lo + 1.0
                xs = seg.lo + (hi - seg.lo) * np.array([1e-9, 1e-3, 0.1, 0.5, 0.9, 0.999])
                if seg.hi == math.inf:
                    xs = np.concatenate([xs, seg.lo * np.array([10.0, 1e3]) + 1.0])
                f1, f2 = np.asarray(d1.pdf(xs)), np.asarray(d2.pdf(xs))
                # where both densities are normal doubles and apart beyond rounding
                clear = ((np.minimum(f1, f2) > 1e-300) & np.isfinite(f1 + f2)
                         & (np.abs(f1 - f2) > 1e-6 * np.maximum(f1, f2)))
                assert np.all((f1[clear] <= f2[clear]) == (seg.min_is_first != flip))


class TestConvolutionClosure:
    def test_order_preserved_under_sums(self):
        # X1 <=st Y1 and X2 <=st Y2 independent implies X1+X2 <=st Y1+Y2;
        # checked on empirical CCDFs with a DKW-style band
        rng = np.random.default_rng(2024)
        n = 100_000
        x1 = np.asarray(Exponential(1.0).sample(_open_uniform(rng, n)))
        x2 = np.asarray(NakagamiGain(2.0, 1.0).sample(_open_uniform(rng, n)))
        y1 = np.asarray(Exponential(2.0).sample(_open_uniform(rng, n)))
        y2 = np.asarray(NakagamiGain(2.0, 3.0).sample(_open_uniform(rng, n)))
        sx = np.sort(x1 + x2)
        sy = np.sort(y1 + y2)
        grid = np.linspace(0.01, 30.0, 512)
        ccdf_x = 1.0 - np.searchsorted(sx, grid, side="right") / n
        ccdf_y = 1.0 - np.searchsorted(sy, grid, side="right") / n
        band = 3.0 * math.sqrt(math.log(2.0 / 0.01) / (2.0 * n))
        assert np.all(ccdf_x <= ccdf_y + band)


def _open_uniform(rng, n):
    return np.clip(rng.random(n), 1e-12, 1.0 - 1e-12)


POSITIVE_PARAMETERS = st.one_of(
    st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False), st.integers(1, 1000))


class TestGammaShapeRate:
    @settings(max_examples=300, deadline=None)
    @given(m=POSITIVE_PARAMETERS, w=POSITIVE_PARAMETERS)
    def test_same_doubles_as_the_family_parameters(self, m, w):
        # the rate is shape / mean: 1 / mean_gain and m / w, bit for bit
        assert stochastic_order._gamma_shape_rate(Exponential(w)) == (1.0, 1.0 / w)
        shape, rate = stochastic_order._gamma_shape_rate(NakagamiGain(m, w))
        assert type(shape) is float and shape == m
        assert rate.hex() == (m / w).hex()

    def test_other_laws_have_none(self):
        for d in (PointMass(1.0), BernoulliGain(0.5), RatioExpExp(1.0, 1.0, 1.0),
                  Empirical((1.0,))):
            assert stochastic_order._gamma_shape_rate(d) is None
