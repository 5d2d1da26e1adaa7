import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from gainorder import BernoulliGain, Exponential, NakagamiGain, PointMass, RatioLaw, coupling
from gainorder.capacity import ergodic_rate
from gainorder.coupling import (
    comonotone_samples,
    copula_joint_ccdf,
    copula_joint_cdf,
    maximal_coupling_samples,
    maximal_coupling_spec,
    min_copula,
    product_copula,
    residual_supports_separated,
    verify_copula_axioms,
)
from gainorder.distributions import _invert_cdf, law_nodes
from gainorder.stochastic_order import Relation, check_usual_order, total_variation


def open_uniform(rng, n):
    return np.clip(rng.random(n), 1e-12, 1.0 - 1e-12)


def same_doubles(a, b) -> bool:
    """Whether two arrays hold the same doubles, bit for bit."""
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def ks_distance(samples, cdf):
    xs = np.sort(np.asarray(samples))
    n = xs.size
    f = np.asarray(cdf(xs))
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n)))


class TestMaximalCoupling:
    def test_overlap_mass_closed_form(self):
        spec = maximal_coupling_spec(Exponential(1.0), Exponential(2.0))
        assert spec.p == pytest.approx(0.75, abs=1e-10)
        assert spec.p + total_variation(Exponential(1.0), Exponential(2.0)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_identical_marginals_always_equal(self):
        spec = maximal_coupling_spec(Exponential(1.3), Exponential(1.3))
        assert spec.p == 1.0
        rng = np.random.default_rng(5)
        h1, h2, eq = maximal_coupling_samples(spec, open_uniform(rng, 500), open_uniform(rng, 500))
        assert np.all(eq)
        assert np.all(h1 == h2)

    def test_equal_branch_sets_h1_equals_h2_exactly(self):
        spec = maximal_coupling_spec(Exponential(1.0), Exponential(2.0))
        h1, h2, eq = maximal_coupling_samples(spec, np.array([0.2]), np.array([0.6]))
        assert eq.tolist() == [True]
        assert h1[0] == h2[0]

    def test_equality_fraction_matches_overlap(self):
        spec = maximal_coupling_spec(Exponential(1.0), Exponential(2.0))
        rng = np.random.default_rng(17)
        n = 100_000
        _, _, eq = maximal_coupling_samples(spec, open_uniform(rng, n), open_uniform(rng, n))
        p = spec.p
        assert abs(eq.mean() - p) <= 3.0 * math.sqrt(p * (1 - p) / n)

    def test_residual_branch_strictly_ordered(self):
        # residual supports split at 2 ln 2, so the unequal branch is always h1 < h2
        spec = maximal_coupling_spec(Exponential(1.0), Exponential(2.0))
        rng = np.random.default_rng(23)
        n = 20_000
        u_sel = np.full(n, 0.99)  # force the residual branch (p = 0.75)
        h1, h2, eq = maximal_coupling_samples(spec, u_sel, open_uniform(rng, n))
        assert not np.any(eq)
        assert np.all(h1 < h2)
        crossing = 2.0 * math.log(2.0)
        assert np.all(h1 <= crossing + 1e-9)
        assert np.all(h2 >= crossing - 1e-9)

    def test_marginals_preserved(self):
        d1, d2 = Exponential(1.0), Exponential(2.0)
        spec = maximal_coupling_spec(d1, d2)
        rng = np.random.default_rng(31)
        n = 100_000
        h1, h2, _ = maximal_coupling_samples(spec, open_uniform(rng, n), open_uniform(rng, n))
        crit = 1.628 / math.sqrt(n)  # 1% KS level
        assert ks_distance(h1, d1.cdf) < crit
        assert ks_distance(h2, d2.cdf) < crit

    def test_mixture_reconstructs_marginal_cdf(self):
        # p * shared + (1 - p) * residual_k equals F_k pointwise
        spec = maximal_coupling_spec(Exponential(1.0), Exponential(2.0))
        xs = np.linspace(0.01, 12.0, 200)
        for residual, d in zip(spec.residuals, (spec.d1, spec.d2)):
            mix = spec.p * spec.shared.cdf(xs) + (1 - spec.p) * residual.cdf(xs)
            assert np.max(np.abs(mix - np.asarray(d.cdf(xs)))) < 1e-12

    def test_discrete_inputs_rejected(self):
        with pytest.raises(ValueError, match="continuous"):
            maximal_coupling_spec(BernoulliGain(0.5), Exponential(1.0))

    def test_bad_uniforms_rejected(self):
        spec = maximal_coupling_spec(Exponential(1.0), Exponential(2.0))
        with pytest.raises(ValueError):
            maximal_coupling_samples(spec, np.array([0.0]), np.array([0.5]))
        with pytest.raises(ValueError):
            maximal_coupling_samples(spec, np.array([0.5]), np.array([1.0]))

    @pytest.mark.parametrize("u_select, u_value", [(0.9, math.nan), (math.nan, 0.5),
                                                   (0.2, math.nan), (math.nan, math.nan)])
    def test_nan_uniforms_rejected(self, u_select, u_value):
        # a NaN passes every `<=` and `>=` test, so only a check that it fails
        # can reject it
        spec = maximal_coupling_spec(Exponential(1.0), Exponential(2.0))
        with pytest.raises(ValueError, match="strictly inside"):
            maximal_coupling_samples(spec, np.array([u_select]), np.array([u_value]))
        with pytest.raises(ValueError, match="strictly inside"):
            comonotone_samples(spec.d1, spec.d2, np.array([0.5, u_value * u_select]))

    @pytest.mark.parametrize("u", [math.nan, -0.5, 1.5])
    def test_component_quantiles_reject_levels_outside_the_unit_interval(self, u):
        spec = maximal_coupling_spec(Exponential(1.0), Exponential(2.0))
        for law in (spec.shared, *spec.residuals):
            with pytest.raises(ValueError, match=r"quantile argument must lie in \[0, 1\]"):
                law.quantile(np.array([0.5, u]))


def exp_pair_residual_2(x, u):
    """Residual 2 of Exp(1)/Exp(2) in 50 digits, minus u: it lives above the
    crossing c = 2 ln 2 with mass 1 - p = 1/4, and there its cdf is
    4 ((e^(-c/2) - e^(-x/2)) - (e^(-c) - e^(-x)))."""
    with mpmath.workdps(50):
        x, c = mpmath.mpf(x), 2 * mpmath.log(2)
        mass = (mpmath.exp(-c / 2) - mpmath.exp(-x / 2)) - (mpmath.exp(-c) - mpmath.exp(-x))
        return float(4 * mass - u)


def true_cdf(d, x):
    """The cdf of a gamma law at the double x, in 40 digits."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        if isinstance(d, Exponential):
            return -mpmath.expm1(-x / d.mean_gain)
        return mpmath.gammainc(d.m, 0, d.m * x / d.w, regularized=True)


def true_component(spec, part, x):
    """(true cdf, rounding bound) of a maximal-coupling component at x: part
    0 is the shared law, 1 and 2 the residuals.  The true cdf is the
    component's piecewise sum taken on the marginals' exact cdfs at the same
    segment bounds; the bound is the one _PiecewiseMinCdf derives for its
    float value from the errors of the O(1) marginal cdf values it sums."""
    fm, ulp = spec._fmin, mpmath.mpf(2.0**-53)
    bounds = list(fm.lo) + [math.inf]
    j = int(fm.segment(np.array([x]))[0])
    with mpmath.workdps(40):
        def cdf(k, y):
            return mpmath.mpf(1) if math.isinf(y) else true_cdf(fm.dists[k], y)

        def err(k, y):
            if math.isinf(y) or y == 0.0:  # the float cdfs read 1 and 0 exactly there
                return mpmath.mpf(0)
            return abs(mpmath.mpf(float(fm.dists[k].cdf(y))) - cdf(k, y))

        def term(i, top):
            """(rise over segment i up to top, the errors of its O(1) values,
            its additions)"""
            if part == 0:
                ks, adds = [(0 if fm.first[i] else 1, 1)], 2
            elif fm.live[part - 1, i]:
                ks, adds = [(part - 1, 1), (2 - part, -1)], 4
            else:
                return 0, 0, 0
            rise = sum(sign * (cdf(k, top) - cdf(k, bounds[i])) for k, sign in ks)
            errors = sum(err(k, top) + err(k, bounds[i]) for k, _ in ks)
            return rise, errors, adds

        terms = [term(i, bounds[i + 1]) for i in range(j)] + [term(j, x)]
        value, e_value = sum(t[0] for t in terms), sum(t[1] + t[2] * ulp for t in terms)
        full = [term(i, bounds[i + 1]) for i in range(len(bounds) - 1)]
        mass, e_mass = sum(t[0] for t in full), sum(t[1] + t[2] * ulp for t in full)
        level = value / mass
        return level, e_value / mass + level * e_mass / mass + ulp


GAMMA_LAWS = st.one_of(
    st.builds(Exponential, st.floats(0.2, 5.0)),
    st.builds(NakagamiGain, st.sampled_from((0.3, 0.75, 1.0, 2.2, 4.0)), st.floats(0.2, 5.0)),
)
OPEN_LEVELS = st.one_of(
    st.floats(-300.0, -13.0).map(lambda e: 10.0**e),
    st.floats(1e-12, 1.0 - 1e-12),
)


COUPLED_PAIRS = (
    (Exponential(1.0), Exponential(2.0)),
    (NakagamiGain(2.5, 1.5), Exponential(2.0)),
    (NakagamiGain(0.75, 1.0), NakagamiGain(2.2, 3.0)),
)


@functools.cache
def coupling_spec(i):
    return maximal_coupling_spec(*COUPLED_PAIRS[i])


def coupling_parts(i):
    """The shared law and the two residual laws of a maximal coupling."""
    spec = coupling_spec(i)
    return spec.shared, *spec.residuals


class TestComponentsAreGainLaws:
    # residual 2 of the second pair lives on [0, 0.468] and [2.741, inf): its
    # quantile jumps at the level between, where the rate's quantile rule
    # breaks a panel
    @pytest.mark.parametrize("i, k", [(i, k) for i in range(len(COUPLED_PAIRS)) for k in (0, 1)])
    def test_rates_mix_like_the_marginals(self, i, k):
        # f_k = p shared + (1 - p) residual_k, so the rates mix the same way,
        # within the rates' stated errors
        spec = coupling_spec(i)
        marginal, shared, residual = (ergodic_rate(d, 1.0) for d in (
            COUPLED_PAIRS[i][k], spec.shared, spec.residuals[k]))
        mix = spec.p * shared.bits + (1.0 - spec.p) * residual.bits
        bound = (marginal.error_estimate + spec.p * shared.error_estimate
                 + (1.0 - spec.p) * residual.error_estimate)
        assert abs(mix - marginal.bits) <= bound

    def test_a_gap_in_the_support_is_a_quantile_jump(self):
        # residual 2 of the second pair states the level of its gap, where its
        # quantile jumps from the gap's bottom to its top; no other part does
        spec = coupling_spec(1)
        fm, residual = spec._fmin, spec.residuals[1]
        (gap,) = np.flatnonzero(~fm.live[1])
        assert residual._support().tolist() == [[0.0, fm.lo[gap]], [fm.hi[gap], math.inf]]
        (jump,) = residual._quantile_breaks()
        # (the float cdf wobbles by a few ulps below the gap)
        assert residual.quantile(jump - 1e-12) <= fm.lo[gap]
        assert residual.quantile(jump + 1e-12) >= fm.hi[gap]
        others = [law for i in range(len(COUPLED_PAIRS)) for law in coupling_parts(i)
                  if law is not residual]
        assert all(law._quantile_breaks() == () for law in others + list(COUPLED_PAIRS[1]))

    @pytest.mark.parametrize("power", [1.0, 10.0])
    def test_a_ratio_over_a_gapped_residual_keeps_the_gap(self, power):
        # N / (1 + P * 1) at P = 1 is N / 2, so its rule is N's halved, exactly,
        # and its rate at P is N's at P / 2; over the gapped residual a rule in
        # the ratio's own quantile once integrated across the jump and missed
        # by 3e-3 at P = 1
        residual = coupling_spec(1).residuals[1]
        half = RatioLaw(residual, PointMass(1.0), 1.0)
        (x, w), (xr, wr) = law_nodes(half), law_nodes(residual)
        assert same_doubles(x, xr / 2.0) and same_doubles(w, wr)
        a, b = ergodic_rate(half, power), ergodic_rate(residual, 0.5 * power)
        assert abs(a.bits - b.bits) <= a.error_estimate + b.error_estimate

    @pytest.mark.parametrize("i", range(len(COUPLED_PAIRS)))
    def test_separated_residuals_are_ordered(self, i):
        separated = residual_supports_separated(*COUPLED_PAIRS[i])
        relation = check_usual_order(*coupling_spec(i).residuals).relation
        assert separated == (i != 1)
        assert relation == (Relation.FIRST_LEQ if separated else Relation.INCOMPARABLE)


class TestMaximalCouplingQuantiles:
    def test_tiny_levels_above_an_interior_crossing(self):
        # the residual's cdf is ~ (x - c)^2 / 4 there; a difference of two O(x - c)
        # rises would leave it to rounding noise of a few ulps of 1 below u ~ 1e-15
        spec = maximal_coupling_spec(Exponential(1.0), Exponential(2.0))
        c = 2.0 * math.log(2.0)
        for u in (1e-17, 1e-14):
            ref = brentq(exp_pair_residual_2, c, c + 1.0, args=(u,), xtol=1e-300, rtol=1e-15)
            assert spec.residuals[1].quantile(u) == pytest.approx(ref, rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(d1=GAMMA_LAWS, d2=GAMMA_LAWS,
           levels=st.lists(st.tuples(st.floats(1e-9, 1.0 - 1e-9), OPEN_LEVELS),
                           min_size=1, max_size=12))
    # a residual quantile at a tiny level, just above an interior crossing
    @example(d1=Exponential(1.7984493856015655), d2=NakagamiGain(2.2, 1.4534914670559127),
             levels=[(0.875, 1e-48)])
    # residual 2 near the top of its segment, where it is flat and gammainc's
    # error makes it cross u at doubles 4e-9 apart
    @example(d1=Exponential(4.0), d2=NakagamiGain(0.75, 1.25),
             levels=[(0.75, 0.9999999999989999)])
    def test_every_draw_is_a_crossing_of_its_component_cdf(self, d1, d2, levels):
        spec = maximal_coupling_spec(d1, d2)
        u_sel, u = np.array(levels).T
        h1, h2, eq = maximal_coupling_samples(spec, u_sel, u)
        assert np.all(h1[eq] == h2[eq])
        if spec.p == 1.0:
            # one law: every draw is shared and is that law's own quantile
            assert np.all(h1 == d1.quantile(u))
            return
        parts = [(spec.shared.cdf, eq, h1, 0), (spec.residuals[0].cdf, ~eq, h1, 1),
                 (spec.residuals[1].cdf, ~eq, h2, 2)]
        for cdf, rows, q, part in parts:
            if not np.any(rows):
                continue
            level, q = u[rows], q[rows]
            assert np.all(cdf(q) >= level)
            assert np.all(cdf(np.nextafter(q, 0.0)) < level)
            # the estimate-free search may stop at another crossing where the
            # cdf, a sum of O(1) values over its mass, wobbles; then the two
            # answers are close, or the draw crosses u in the true cdf too, to
            # within the cdf's stated rounding bound
            ref = _invert_cdf(cdf, level)
            close = np.abs(ref - q) <= 1e-12 * ref + 4.0 * np.spacing(q)
            for x, v in zip(q[~close], level[~close]):
                at, e_at = true_component(spec, part, x)
                below, e_below = true_component(spec, part, np.nextafter(x, 0.0))
                assert at >= v - e_at
                assert below < v + e_below


class TestResidualTables:
    @pytest.mark.parametrize("d1, d2", [
        (NakagamiGain(0.75, 1.0), NakagamiGain(2.2, 2.0)),
        (Exponential(1.0), Exponential(3.0)),
        (Exponential(4.0), NakagamiGain(0.75, 1.25)),
    ])
    def test_built_by_one_forward_evaluation(self, monkeypatch, d1, d2):
        residuals = maximal_coupling_spec(d1, d2).residuals
        points = []

        def counted(kernel):
            def cdf(x):
                points.append(np.size(x))
                return kernel(x)
            return cdf

        def refuse(*args):
            raise AssertionError("a table level was inverted")

        for residual in residuals:
            monkeypatch.setattr(residual, "_cdf", counted(residual._cdf))
        monkeypatch.setattr(coupling, "_invert_cdf", refuse)
        tables = [residual._table for residual in residuals]
        # one residual cdf evaluation per abscissa, no inversion
        assert points == [xs.size for _, xs, _ in tables]
        monkeypatch.undo()
        for residual, (levels, xs, _) in zip(residuals, tables):
            assert np.all(np.diff(levels) >= 0.0) and np.all(np.diff(xs) >= 0.0)
            assert xs[-1] == np.inf and np.all(np.isfinite(xs[:-1]))
            assert np.array_equal(levels, np.maximum.accumulate(residual.cdf(xs)))


# The code that the fast paths replaced, kept as references: searchsorted for
# the segment and prefix lookups, the marginals' public cdf and pdf for their
# kernels, and boolean masks for the data-dependent splits.


def searchsorted_segment(fm, x):
    return np.clip(np.searchsorted(fm.lo, x, side="right") - 1, 0, fm.lo.size - 1)


def searchsorted_prefix(fm, level):
    return np.clip(np.searchsorted(fm.prefix, level, side="right") - 1, 0, fm.lo.size - 1)


def masked_unnorm(fm, xs):
    j = searchsorted_segment(fm, xs)
    out = np.empty_like(xs)
    for k, on in ((0, fm.first[j]), (1, ~fm.first[j])):
        out[on] = fm.prefix[j[on]] + fm.dists[k].cdf(xs[on]) - fm.cdf_lo[k, j[on]]
    return np.clip(np.where(xs <= 0.0, 0.0, out), 0.0, fm.total)


def masked_residual(fm, k, xs):
    j = searchsorted_segment(fm, xs)
    out = fm.res_prefix[k, j]
    near = fm.live[k, j] & (xs - fm.lo[j] < fm._near[j])
    on = fm.live[k, j] & ~near

    def rise(i):
        return np.asarray(fm.dists[i].cdf(xs[on]), dtype=float) - fm.cdf_lo[i, j[on]]

    out[on] += rise(k) - rise(1 - k)
    a, b = fm.lo[j[near]], xs[near]
    nodes, weights = coupling._unit_rule()
    t = a[:, None] + (b - a)[:, None] * nodes
    gap = fm.dists[k].pdf(t) - fm.dists[1 - k].pdf(t)
    # x = -inf counted as near the crossing at 0, and its integral read
    # -inf * 0 (with a warning) before the final where discarded it
    with np.errstate(invalid="ignore"):
        out[near] += (b - a) * np.sum(gap * weights, axis=1)
    return np.clip(np.where(xs <= 0.0, 0.0, out), 0.0, fm.res_total[k])


def masked_samples(spec, u_select, u_value):
    equal = u_select <= spec.p
    h1, h2 = np.empty_like(u_value), np.empty_like(u_value)
    if np.any(equal):
        shared = spec.shared.quantile(u_value[equal])
        h1[equal] = shared
        h2[equal] = shared
    if np.any(~equal):
        h1[~equal] = spec.residuals[0].quantile(u_value[~equal])
        h2[~equal] = spec.residuals[1].quantile(u_value[~equal])
    return h1, h2, equal


def masked_shared_quantile(spec, u):
    fm = spec._fmin
    level = u * spec.p
    j = searchsorted_prefix(fm, level)
    est = np.empty_like(u)
    for k, on in ((0, fm.first[j]), (1, ~fm.first[j])):
        d = fm.dists[k]
        t = np.clip(level[on] - fm.prefix[j[on]] + fm.cdf_lo[k, j[on]], 0.0, 1.0)
        e = d._quantile_estimate(t)
        est[on] = d.quantile(t) if e is None else e
    est = np.clip(est, fm.lo[j], fm.hi[j])
    return _invert_cdf(spec.shared.cdf, u, est)


FAST_PATH_PAIRS = [
    (Exponential(1.0), Exponential(2.0)),
    (NakagamiGain(0.75, 1.0), NakagamiGain(2.2, 3.0)),
    (NakagamiGain(2.5, 1.5), Exponential(2.0)),
    (Exponential(0.01), Exponential(100.0)),             # p near 0
    (NakagamiGain(6.0, 0.1), NakagamiGain(6.0, 10.0)),   # p near 0
    (Exponential(1.0), Exponential(1.001)),              # p near 1
    (NakagamiGain(2.0, 1.0), NakagamiGain(2.0, 1.001)),  # p near 1
]


def edges_and_neighbours(edges) -> np.ndarray:
    """0, inf, and each edge with the doubles next to it."""
    edges = np.asarray(edges, dtype=float)
    return np.concatenate([[0.0, np.inf], edges, np.nextafter(edges, -np.inf),
                           np.nextafter(edges, np.inf)])


@functools.cache
def fast_path_spec(i):
    return maximal_coupling_spec(*FAST_PATH_PAIRS[i])


PAIR_INDEX = st.sampled_from(range(len(FAST_PATH_PAIRS)))
ABSCISSAE = st.lists(st.one_of(st.floats(0.0, 20.0), st.floats(0.0, np.finfo(float).max),
                               st.just(math.inf),
                               st.floats(-math.inf, 0.0)), min_size=1, max_size=20)


class TestFastPaths:
    """Each fast path gives the same doubles as the code it replaced."""

    def test_overlap_masses_reach_both_ends(self):
        ps = [fast_path_spec(i).p for i in range(len(FAST_PATH_PAIRS))]
        assert min(ps) < 1e-3 and max(ps) > 0.999

    @pytest.mark.parametrize("i", range(len(FAST_PATH_PAIRS)))
    def test_prefix_lookup_at_every_prefix_and_its_neighbours(self, i):
        spec = fast_path_spec(i)
        fm = spec._fmin
        level = np.concatenate([edges_and_neighbours(fm.prefix), [spec.p]])
        assert np.array_equal(coupling._cell(fm.prefix[1:-1], level),
                              searchsorted_prefix(fm, level))
        u = np.clip(edges_and_neighbours(fm.prefix / spec.p), 0.0, 1.0)
        assert same_doubles(spec.shared.quantile(u), masked_shared_quantile(spec, u))

    @pytest.mark.parametrize("i", range(len(FAST_PATH_PAIRS)))
    def test_component_cdfs_at_every_bound_and_next_to_each_crossing(self, i):
        spec = fast_path_spec(i)
        fm = spec._fmin
        near = fm.lo[1:, None] * (1.0 + np.array([1e-12, 1e-6, 1e-3, 0.05]))
        x = np.concatenate([edges_and_neighbours(fm.lo), [-np.inf, -1e300, -1.0, -0.0],
                            near.ravel()])
        self.assert_component_cdfs_match(spec, x)

    @settings(max_examples=60, deadline=None)
    @given(i=PAIR_INDEX, xs=ABSCISSAE)
    def test_component_cdfs_anywhere(self, i, xs):
        self.assert_component_cdfs_match(fast_path_spec(i), np.array(xs))

    @staticmethod
    def assert_component_cdfs_match(spec, x):
        # the kernels take x in [0, inf]; below it, each part's public cdf
        # reads what the masked references read, normalized by the part's mass
        fm, on = spec._fmin, x >= 0.0
        assert np.array_equal(fm.segment(x), searchsorted_segment(fm, x))
        # near the largest double a marginal's kernel overflows on its way to
        # its limit there, which the public evaluation lets pass too
        with np.errstate(over="ignore"):
            unnorm = fm.unnorm(x[on])
            residuals = [fm.residual(k, x[on]) for k in (0, 1)]
        assert same_doubles(unnorm, masked_unnorm(fm, x[on]))
        for k in (0, 1):
            assert same_doubles(residuals[k], masked_residual(fm, k, x[on]))
        shared = masked_unnorm(fm, x)
        top = fm.unnorm(np.array([np.inf]))[0]
        assert same_doubles(spec.shared.cdf(x), np.where(shared < top, shared / spec.p, 1.0))
        for k, residual in enumerate(spec.residuals):
            mass = fm.res_total[k]
            assert same_doubles(residual.cdf(x), np.minimum(masked_residual(fm, k, x) / mass, 1.0))

    @settings(max_examples=30, deadline=None)
    @given(i=PAIR_INDEX, u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
    def test_shared_quantile_against_the_masked_seeds(self, i, u):
        spec = fast_path_spec(i)
        u = np.array(u)
        assert same_doubles(spec.shared.quantile(u), masked_shared_quantile(spec, u))

    @pytest.mark.parametrize("i", range(len(FAST_PATH_PAIRS)))
    def test_samples_against_the_masked_split(self, i):
        spec = fast_path_spec(i)
        rng = np.random.default_rng(40 + i)
        u_sel, u = open_uniform(rng, 3000), open_uniform(rng, 3000)
        # both branches, also where p sits near 0 or 1
        u_sel[:200] = spec.p * rng.random(200)
        u_sel[200:400] = spec.p + (1.0 - spec.p) * rng.random(200)
        u_sel = np.clip(u_sel, 1e-300, 1.0 - 2.0**-53)
        got, ref = maximal_coupling_samples(spec, u_sel, u), masked_samples(spec, u_sel, u)
        assert all(same_doubles(a, b) for a, b in zip(got[:2], ref[:2]))
        assert np.array_equal(got[2], ref[2]) and got[2].any() and not got[2].all()


class TestComonotoneCoupling:
    def test_identical_inputs_tie(self):
        d = Exponential(1.7)
        draws = comonotone_samples(d, d, np.array([0.42]))
        assert len(draws) == 2  # no shared-component flag
        assert draws[0][0] == draws[1][0]

    def test_exponential_medians(self):
        h1, h2 = comonotone_samples(Exponential(1.0), Exponential(2.0), np.array([0.5]))
        assert h1[0] == pytest.approx(math.log(2.0), rel=1e-12)
        assert h2[0] == pytest.approx(2.0 * math.log(2.0), rel=1e-12)

    def test_bernoulli_generalized_inverses(self):
        h1, h2 = comonotone_samples(BernoulliGain(0.3), BernoulliGain(0.7), np.array([0.5]))
        assert (h1[0], h2[0]) == (0.0, 1.0)

    def test_pathwise_order_for_first_leq_pairs(self):
        pairs = [
            (Exponential(1.0), Exponential(2.0)),
            (BernoulliGain(0.3), BernoulliGain(0.7)),
            (NakagamiGain(2.0, 1.0), NakagamiGain(2.0, 3.0)),
        ]
        rng = np.random.default_rng(99)
        for d1, d2 in pairs:
            assert check_usual_order(d1, d2).first_leq
            h1, h2 = comonotone_samples(d1, d2, open_uniform(rng, 50_000))
            assert np.mean(h1 <= h2) == 1.0

    def test_joint_cdf_matches_min_copula(self):
        # empirical joint CDF of comonotone samples vs min{F1, F2} on a quantile grid
        d1, d2 = Exponential(1.0), Exponential(2.0)
        rng = np.random.default_rng(123)
        n = 100_000
        h1, h2 = comonotone_samples(d1, d2, open_uniform(rng, n))
        levels = np.arange(1, 21) / 21.0
        x_grid = np.asarray(d1.quantile(levels))
        y_grid = np.asarray(d2.quantile(levels))
        worst = 0.0
        for x in x_grid:
            for y in y_grid:
                emp = np.mean((h1 <= x) & (h2 <= y))
                worst = max(worst, abs(emp - float(copula_joint_cdf(d1, d2, x, y))))
        assert worst <= 0.01


class TestCopula:
    def test_margin_as_h1_grows(self):
        d1, d2 = Exponential(1.0), Exponential(2.0)
        assert copula_joint_cdf(d1, d2, 1e9, 1.0) == pytest.approx(float(d2.cdf(1.0)), abs=1e-12)

    def test_zero_boundary(self):
        d1, d2 = Exponential(1.0), Exponential(2.0)
        assert copula_joint_cdf(d1, d2, 1.0, 0.0) == 0.0

    def test_exponential_pair_value(self):
        d1, d2 = Exponential(1.0), Exponential(2.0)
        expected = min(1.0 - math.exp(-1.0), 1.0 - math.exp(-0.5))
        assert copula_joint_cdf(d1, d2, 1.0, 1.0) == pytest.approx(expected, abs=1e-14)

    def test_joint_ccdf_companion(self):
        d1, d2 = Exponential(1.0), Exponential(2.0)
        assert copula_joint_ccdf(d1, d2, 1.0, 1.0) == pytest.approx(
            min(math.exp(-1.0), math.exp(-0.5)), abs=1e-14
        )

    def test_min_copula_passes_axioms(self):
        report = verify_copula_axioms(min_copula)
        assert report.passed

    def test_product_copula_passes_axioms(self):
        report = verify_copula_axioms(product_copula)
        assert report.passed

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError, match="grid must be sorted inside"):
            verify_copula_axioms(min_copula, np.array([0.0, 0.5, 0.25, 1.0]))

    def test_average_fails_boundary(self):
        report = verify_copula_axioms(lambda u, v: (np.asarray(u) + np.asarray(v)) / 2.0)
        assert not report.passed
        assert not report.grounded_ok
        assert report.first_violation is not None

    @pytest.mark.parametrize("candidate, grounded, violation", [
        # C(0, v) = v / 2 is off its 0 most at v = 1
        (lambda u, v: np.where(u == 0, v / 2, np.minimum(u, v)), False, (0.0, 1.0, 0.5)),
        # C(1, v) = v^2 is off its v most at v = 1/2, between 31/63 and 32/63 alike
        (lambda u, v: np.where(u == 1, v**2, np.minimum(u, v)), True,
         (1.0, 31 / 63, (31 / 63) ** 2)),
    ])
    def test_violation_reported_on_the_failing_side(self, candidate, grounded, violation):
        # it was read off C(u, 0) and C(u, 1) alone: (0, 0, 0) and (0, 1, 0)
        report = verify_copula_axioms(candidate)
        assert not report.passed and report.grounded_ok is grounded
        assert report.first_violation == pytest.approx(violation, abs=1e-15)

    def test_oversized_fgm_fails_two_increasing(self):
        def fgm(u, v):
            u = np.asarray(u, dtype=float)
            v = np.asarray(v, dtype=float)
            return u * v * (1.0 + 5.0 * (1.0 - u) * (1.0 - v))

        report = verify_copula_axioms(fgm)
        assert not report.passed
        assert report.grounded_ok and report.margins_ok
        assert not report.two_increasing_ok


class TestResidualSeparation:
    def test_ordered_exponentials_separated(self):
        assert residual_supports_separated(Exponential(1.0), Exponential(2.0)) is True

    def test_identical_vacuously_separated(self):
        d = Exponential(1.0)
        assert residual_supports_separated(d, d) is True
        # one law under two families: p = 1, and neither residual has mass
        assert residual_supports_separated(NakagamiGain(1.0, 2.0), Exponential(2.0)) is True
        with pytest.raises(ValueError, match="has no mass in floating point"):
            maximal_coupling_spec(NakagamiGain(1.0, 2.0), Exponential(2.0)).residuals

    def test_crossing_pair_not_separated(self):
        assert residual_supports_separated(Exponential(1.0), NakagamiGain(2.0, 1.0)) is False

    def test_iff_with_usual_order_on_continuous_pairs(self):
        pairs = [
            (Exponential(1.0), Exponential(2.0)),
            (Exponential(2.0), Exponential(1.0)),
            (Exponential(1.0), NakagamiGain(2.0, 1.0)),
            (NakagamiGain(0.5, 1.0), NakagamiGain(1.0, 2.0)),
            (NakagamiGain(2.0, 1.0), NakagamiGain(2.0, 3.0)),
            (Exponential(1.0), Exponential(1.0)),
            # residual 1 also lives beyond 1204.75, where it has no mass in floats
            (Exponential(1.327521222406658), NakagamiGain(3.766184804426287, 4.905605958262259)),
        ]
        for d1, d2 in pairs:
            verdict = check_usual_order(d1, d2)
            assert residual_supports_separated(d1, d2) == verdict.first_leq, (d1, d2)
