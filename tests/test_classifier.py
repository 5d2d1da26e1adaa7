import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from gainorder import (
    BernoulliGain,
    Empirical,
    Exponential,
    NakagamiGain,
    PointMass,
    RatioExpExp,
    RatioLaw,
)
import gainorder.classifier
from gainorder.classifier import (
    BCScenario,
    ClassificationReport,
    ICScenario,
    WTCScenario,
    classify_bc,
    classify_ic_strong,
    classify_ic_very_strong,
    classify_wtc,
    interference_ratio_distribution,
)
from gainorder.stochastic_order import OrderVerdict, Relation, check_usual_order


def exp_ic(m11, m12, m21, m22, p1=1.0, p2=1.0, dependence="independent"):
    return ICScenario(
        h11=Exponential(m11),
        h12=Exponential(m12),
        h21=Exponential(m21),
        h22=Exponential(m22),
        p1=p1,
        p2=p2,
        dependence=dependence,
    )


class TestClassifyBC:
    def test_ratio_law_gain_is_sorted_by_its_mean(self):
        mixed = RatioLaw(BernoulliGain(0.5), Exponential(1.0), 1.0)
        report = classify_bc(BCScenario((BernoulliGain(0.5), mixed), power=1.0))
        assert report.verdict and report.permutation == (2, 1)

    def test_two_exponentials_degraded(self):
        report = classify_bc(BCScenario((Exponential(1.0), Exponential(2.0)), power=1.0))
        assert report.verdict
        assert report.permutation == (1, 2)

    def test_nakagami_chain_from_magnitude_example(self):
        gains = (NakagamiGain(0.5, 1.0), NakagamiGain(1.0, 2.0), NakagamiGain(1.0, 3.0))
        report = classify_bc(BCScenario(gains, power=1.0))
        assert report.verdict
        assert report.permutation == (1, 2, 3)

    def test_crossing_pair_not_orderable(self):
        report = classify_bc(BCScenario((Exponential(1.0), NakagamiGain(2.0, 1.0)), power=1.0))
        assert not report.verdict
        assert report.witnesses  # incomparable pair exhibited

    def test_verdict_invariant_under_user_permutation(self):
        gains = (Exponential(2.0), Exponential(0.5), Exponential(1.0))
        forward = classify_bc(BCScenario(gains, power=1.0))
        backward = classify_bc(BCScenario(tuple(reversed(gains)), power=1.0))
        assert forward.verdict and backward.verdict
        # both permutations chain the same distributions weakest-first
        assert [gains[i - 1] for i in forward.permutation] == [
            tuple(reversed(gains))[i - 1] for i in backward.permutation
        ]

    def test_permutation_search_checks_each_unordered_pair_once(self, monkeypatch):
        # equal means and different shapes: no pair is ordered, so the search
        # meets all 20 ordered pairs of the 5 users
        gains = tuple(NakagamiGain(m, 1.0) for m in (0.5, 1.0, 2.0, 3.0, 5.0))
        calls = []

        def counting(d1, d2, **kwargs):
            calls.append((d1, d2))
            return check_usual_order(d1, d2, **kwargs)

        monkeypatch.setattr(gainorder.classifier, "check_usual_order", counting)
        report = classify_bc(BCScenario(gains, power=1.0))
        assert not report.verdict
        assert report.order_checks[0][1].relation is Relation.INCOMPARABLE
        assert len(calls) <= 10

    def test_symbolic_region_note_present(self):
        report = classify_bc(BCScenario((Exponential(1.0), Exponential(2.0)), power=1.0))
        assert any("f_VX" in note for note in report.notes)

    def test_confidence_follows_the_tolerance_source(self):
        # two 4-point samples: the order check defaults to the KS tolerance
        low = Empirical.from_samples([0.1, 0.2, 0.3, 0.4])
        high = Empirical.from_samples([1.0, 2.0, 3.0, 4.0])
        report = classify_bc(BCScenario((low, high), power=1.0))
        assert report.order_checks[0][1].tol == pytest.approx(1.36)
        assert report.confidence == "statistical"
        analytic = classify_bc(BCScenario((Exponential(1.0), Exponential(2.0)), power=1.0))
        assert analytic.confidence == "analytic"

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            BCScenario((Exponential(1.0),), power=1.0)
        with pytest.raises(ValueError):
            BCScenario((Exponential(1.0), Exponential(2.0)), power=0.0)

    def test_degraded_chain_orders_comonotone_samples_pathwise(self):
        from gainorder.coupling import comonotone_samples

        gains = (NakagamiGain(0.5, 1.0), NakagamiGain(1.0, 2.0), NakagamiGain(1.0, 3.0))
        report = classify_bc(BCScenario(gains, power=1.0))
        assert report.verdict
        chain = [gains[i - 1] for i in report.permutation]
        rng = np.random.default_rng(55)
        u = np.clip(rng.random(100_000), 1e-12, 1 - 1e-12)
        for weak, strong in zip(chain[:-1], chain[1:]):
            h1, h2 = comonotone_samples(weak, strong, u)
            assert np.mean(h1 <= h2) == 1.0


def reference_classify_bc(s, tol=None):
    """classify_bc with the search it had before its depth-first one: the
    sorted chain, then every permutation in lexicographic order, through the
    same one-check-per-unordered-pair cache."""
    gains, verdicts = list(s.gains), {}
    k = len(gains)

    def check(i, j):
        if (i, j) not in verdicts:
            if (j, i) in verdicts:
                verdicts[i, j] = verdicts[j, i].mirrored()
            else:
                verdicts[i, j] = check_usual_order(gains[i], gains[j], tol=tol)
        return verdicts[i, j]

    def try_chain(order):
        checks = []
        for a, b in zip(order[:-1], order[1:]):
            if not check(a, b).first_leq:
                return None
            checks.append((f"user{a + 1}_leq_user{b + 1}", check(a, b)))
        return checks

    order = sorted(range(k), key=lambda i: gains[i].mean())
    chain = try_chain(order)
    if chain is None and k <= 6:
        for perm in itertools.permutations(range(k)):
            chain = try_chain(list(perm))
            if chain is not None:
                order = list(perm)
                break
    notes = [gainorder.classifier._BC_REGION_NOTE]
    confidence = "statistical" if any(isinstance(g, Empirical) for g in gains) else "analytic"
    if chain is not None:
        return ClassificationReport("bc", "degraded_chain", chain, [], notes, confidence,
                                    tuple(i + 1 for i in order))
    for i, j in itertools.combinations(range(k), 2):
        verdict = check(i, j)
        if verdict.relation is Relation.INCOMPARABLE:
            witnesses = sorted(set(verdict.witnesses_first_gt) | set(verdict.witnesses_second_gt))
            return ClassificationReport("bc", "degraded_chain",
                                        [(f"user{i + 1}_vs_user{j + 1}", verdict)], witnesses,
                                        notes, confidence)
    return ClassificationReport("bc", "degraded_chain", notes=notes, confidence=confidence)


MEANS = st.sampled_from([0.5, 1.0, 2.0])
# every family, on few parameters so that equal laws and equal means recur
BC_GAINS = st.one_of(
    st.builds(Exponential, MEANS),
    st.builds(NakagamiGain, st.sampled_from([0.5, 1.0, 2.0]), MEANS),
    st.builds(BernoulliGain, st.sampled_from([0.0, 0.25, 0.5, 1.0])),
    st.builds(PointMass, st.sampled_from([0.0, 0.5, 1.0, 2.0])),
    st.builds(RatioExpExp, MEANS, MEANS, st.sampled_from([0.0, 1.0]),
              num_shape=st.sampled_from([1.0, 2.0])),
    st.sampled_from([RatioLaw(BernoulliGain(0.5), Exponential(1.0), 1.0)]),
    st.lists(st.integers(0, 8), min_size=1, max_size=6).map(
        lambda v: Empirical.from_samples([x / 4.0 for x in v])),
)


SAMPLE_BELOW_ONE = Empirical((0.9,) * 19 + (100.0,))


class TestChainSearch:
    """The depth-first chain search against every permutation in order."""

    @settings(max_examples=60, deadline=None)
    @given(gains=st.lists(BC_GAINS, min_size=2, max_size=6),
           tol=st.one_of(st.none(), st.sampled_from([0.0, 1e-6, 0.05])))
    def test_same_report_as_the_permutation_loop(self, gains, tol):
        s = BCScenario(tuple(gains), power=1.0)
        report, reference = classify_bc(s, tol=tol), reference_classify_bc(s, tol=tol)
        assert report.to_json() == reference.to_json()
        # the verdict holds exactly when the permutation loop found a chain
        assert report.verdict is (reference.permutation is not None)

    @settings(max_examples=60, deadline=None)
    @given(gains=st.lists(BC_GAINS, min_size=2, max_size=5),
           tol=st.one_of(st.none(), st.sampled_from([0.0, 1e-6, 0.05])))
    def test_the_verdict_is_read_off_the_reported_checks(self, gains, tol):
        out = classify_bc(BCScenario(tuple(gains), power=1.0), tol=tol).to_json()
        relations = [check["relation"] for check in out["order_checks"]]
        assert out["verdict"] is (bool(relations)
                                  and all(r in ("first_leq", "equal") for r in relations))
        if out["verdict"]:  # a chain reports each of its links
            assert len(relations) == len(gains) - 1
        else:  # a failed search its one incomparable pair
            assert relations == ["incomparable"]
        # and a chain exists by the order checks of every ordered pair
        k = len(gains)
        leq = {(i, j): check_usual_order(gains[i], gains[j], tol=tol).first_leq
               for i in range(k) for j in range(k) if i != j}
        assert out["verdict"] is any(all(leq[a, b] for a, b in zip(p, p[1:]))
                                     for p in itertools.permutations(range(k)))

    def test_incomparable_set_prunes_the_orders(self, monkeypatch):
        # a Bernoulli/exponential pair whose CCDFs cross (the exponential's
        # ccdf at 1 is 0.3) in a chain that is ordered otherwise: no order chains
        gains = (Exponential(2.0), BernoulliGain(0.4), PointMass(0.0), Exponential(2.6),
                 Exponential(-1.0 / math.log(0.3)), BernoulliGain(0.2))
        calls, reads = [], []

        def counting(d1, d2, **kwargs):
            calls.append((d1, d2))
            return check_usual_order(d1, d2, **kwargs)

        def first_leq(verdict):
            reads.append(verdict)
            return verdict.relation in (Relation.FIRST_LEQ, Relation.EQUAL)

        monkeypatch.setattr(gainorder.classifier, "check_usual_order", counting)
        monkeypatch.setattr(OrderVerdict, "first_leq", property(first_leq))
        report = classify_bc(BCScenario(gains, power=1.0))
        assert not report.verdict and report.order_checks[0][0] == "user2_vs_user5"
        assert len(calls) == 15  # one per unordered pair
        # the permutation loop read at least one verdict for each of its 721
        # candidate orders (1175 here); the search reads one per edge it tries
        assert len(reads) <= 200

    @pytest.mark.parametrize("tol", [None, 0.1])
    def test_the_search_finds_the_chain_the_mean_order_misses(self, tol):
        # the sample's mean, 5.855, puts the point mass first, but 19 of its 20
        # values lie below 1; within the tolerance it lies below the point mass
        s = BCScenario((PointMass(1.0), SAMPLE_BELOW_ONE), power=1.0)
        report = classify_bc(s, tol=tol)
        assert report.verdict and report.permutation == (2, 1)
        assert [name for name, _ in report.order_checks] == ["user2_leq_user1"]

    @pytest.mark.parametrize("gains,permutation", [
        # the pair above among five larger point masses: the sample goes in front
        ((PointMass(1.0), SAMPLE_BELOW_ONE, *(PointMass(100.0 * i) for i in range(2, 7))),
         (2, 1, 3, 4, 5, 6, 7)),
        # the sample lies above the point masses below 0.9: bisection puts it
        # between the one at 0.75 and the one at 1
        ((PointMass(0.25), PointMass(0.5), PointMass(0.75), PointMass(1.0), SAMPLE_BELOW_ONE,
          PointMass(200.0), PointMass(300.0)), (1, 2, 3, 5, 4, 6, 7)),
    ])
    def test_past_six_users_the_insertion_finds_the_chain_the_mean_order_misses(
            self, gains, permutation):
        # every pair compares and the mean order fails; seven users once took
        # no search, so the report read negative and named no pair
        report = classify_bc(BCScenario(gains, power=1.0))
        assert report.verdict and report.permutation == permutation
        assert [name for name, _ in report.order_checks] == [
            f"user{a}_leq_user{b}" for a, b in zip(permutation, permutation[1:])]

    @settings(max_examples=40, deadline=None)
    @given(gains=st.lists(BC_GAINS, min_size=2, max_size=9),
           tol=st.one_of(st.none(), st.sampled_from([0.0, 1e-6, 0.05])))
    # no pair is incomparable at tolerance 0.05, and within it the Nakagami
    # gain of mean 1 lies below the ratio of mean 0.92, so the mean order
    # fails; seven users once took no search and read negative
    @example(gains=[RatioExpExp(1.0, 1.0, 0.0), RatioExpExp(2.0, 2.0, 1.0),
                    RatioExpExp(2.0, 1.0, 1.0, num_shape=2.0), RatioExpExp(2.0, 1.0, 0.0),
                    NakagamiGain(0.5, 1.0), PointMass(0.0), NakagamiGain(1.0, 1.0)], tol=0.05)
    def test_a_report_is_a_chain_or_names_an_incomparable_pair(self, gains, tol):
        # with no incomparable pair each pair is ordered one way at least, and
        # such a tournament always has a Hamiltonian path, so a chain exists
        report = classify_bc(BCScenario(tuple(gains), power=1.0), tol=tol)
        if report.verdict:
            order = [i - 1 for i in report.permutation]
            assert sorted(order) == list(range(len(gains)))
            assert [name for name, _ in report.order_checks] == [
                f"user{a + 1}_leq_user{b + 1}" for a, b in zip(order, order[1:])]
            assert all(verdict.first_leq for _, verdict in report.order_checks)
        else:
            ((name, verdict),) = report.order_checks
            i, j = (int(user) - 1 for user in name.removeprefix("user").split("_vs_user"))
            assert verdict.relation is Relation.INCOMPARABLE
            assert check_usual_order(gains[i], gains[j], tol=tol) == verdict


class TestClassifyICStrong:
    def test_exponential_means_1221_strong(self):
        report = classify_ic_strong(exp_ic(1.0, 2.0, 2.0, 1.0))
        assert report.verdict

    def test_reversed_means_not_strong(self):
        report = classify_ic_strong(exp_ic(2.0, 1.0, 1.0, 2.0))
        assert not report.verdict
        assert report.witnesses

    def test_point_mass_perfect_csit_reduction(self):
        s = ICScenario(PointMass(1.0), PointMass(2.0), PointMass(2.0), PointMass(1.0), 1.0, 1.0)
        assert classify_ic_strong(s).verdict
        # equals the deterministic scalar comparisons h21 >= h11 and h12 >= h22
        s_bad = ICScenario(PointMass(2.0), PointMass(1.0), PointMass(1.0), PointMass(2.0), 1.0, 1.0)
        assert not classify_ic_strong(s_bad).verdict

    def test_binary_fading_strong(self):
        s = ICScenario(
            BernoulliGain(0.5), BernoulliGain(1.0), BernoulliGain(1.0), BernoulliGain(0.5),
            1.0, 1.0,
        )
        assert classify_ic_strong(s).verdict

    def test_comonotone_mode_rejected(self):
        with pytest.raises(ValueError, match="independent"):
            classify_ic_strong(exp_ic(1.0, 2.0, 2.0, 1.0, dependence="comonotone"))


class TestClassifyICVeryStrong:
    @pytest.mark.parametrize("a", [0.1, 0.3, 0.5])
    def test_symmetric_exponentials_small_direct_gain(self, a):
        report = classify_ic_very_strong(exp_ic(a, 1.0, 1.0, a))
        assert report.verdict
        assert report.confidence == "analytic"

    def test_a_07_fails(self):
        report = classify_ic_very_strong(exp_ic(0.7, 1.0, 1.0, 0.7))
        assert not report.verdict
        # CCDF difference dips to about -0.04 near h = 0.5
        assert any(0.1 < w < 2.0 for w in report.witnesses)

    @pytest.mark.parametrize("power,expected", [(1.0, True), (10.0, True), (50.0, True), (100.0, False)])
    def test_power_sweep_a_01(self, power, expected):
        report = classify_ic_very_strong(exp_ic(0.1, 1.0, 1.0, 0.1, p1=power, p2=power))
        assert report.verdict is expected

    def test_point_mass_reduction(self):
        # z1 = 2 / (1 + 1*1) = 1 >= h11 = 1 and symmetric
        s = ICScenario(PointMass(1.0), PointMass(2.0), PointMass(2.0), PointMass(1.0), 1.0, 1.0)
        assert classify_ic_very_strong(s).verdict

    def test_violation_under_the_old_monte_carlo_tolerance_is_caught(self):
        # Z1 = Nakagami(2.5, 4) / (1 + Exp(0.3)); H11 = Exp(2.25) exceeds it in
        # the usual order by about 1.25e-3, which a 1e6-draw Monte Carlo law
        # (tolerance 4.08e-3) let through
        h11, h21, h22 = Exponential(2.25), NakagamiGain(2.5, 4.0), Exponential(0.3)
        z = np.geomspace(1e-4, 40.0, 200)
        ccdf_z1 = [integrate.quad(lambda d: special.gammaincc(2.5, 2.5 * t * (1.0 + d) / 4.0)
                                  * np.exp(-d / 0.3) / 0.3, 0.0, np.inf, epsabs=1e-14)[0]
                   for t in z]
        assert 1e-4 < np.max(np.exp(-z / 2.25) - ccdf_z1) < 4e-3
        s = ICScenario(h11=h11, h12=Exponential(10.0), h21=h21, h22=h22, p1=1.0, p2=1.0)
        report = classify_ic_very_strong(s)
        check = dict(report.order_checks)["h11_leq_z1"]
        assert check.tol == 1e-9 and not check.first_leq
        assert not report.verdict and report.confidence == "analytic"

    def test_empirical_gain_inside_the_ratio_law_sets_the_tolerance(self):
        # Z1 = H21 / (1 + P2 H22) with a 50-draw sample H21: its KS band carries
        # into check 1; check 2 involves no sample
        h21 = Empirical.from_samples(np.random.default_rng(8).exponential(1.0, 50))
        s = ICScenario(Exponential(0.1), Exponential(1.0), h21, Exponential(0.1), 1.0, 1.0)
        report = classify_ic_very_strong(s)
        checks = dict(report.order_checks)
        assert checks["h11_leq_z1"].tol == pytest.approx(2.0 * 1.36 / np.sqrt(50))
        assert checks["h22_leq_z2"].tol == 1e-9
        assert report.confidence == "statistical"

    def test_ratio_law_over_a_sample_is_statistical(self):
        # the check ran at the sample's KS tolerance while the report read "analytic"
        sample = Empirical.from_samples(np.random.default_rng(5).exponential(1.0, 400))
        s = WTCScenario(RatioLaw(sample, Exponential(1.0), 0.5), Exponential(0.3), 1.0)
        report = classify_wtc(s)
        assert report.order_checks[0][1].tol == pytest.approx(2.0 * 1.36 / 20.0)
        assert report.confidence == "statistical"

    def test_comonotone_mode_records_pinned_joint(self):
        report = classify_ic_very_strong(exp_ic(0.1, 1.0, 1.0, 0.1, dependence="comonotone"))
        assert report.verdict
        assert any("min{F_Z1, F_H22}" in note for note in report.notes)


class TestInterferenceRatio:
    def test_zero_power_returns_numerator(self):
        num = Exponential(1.5)
        dist, exact = interference_ratio_distribution(num, Exponential(1.0), 0.0)
        assert dist is num and exact

    def test_exponential_pair_closed_form(self):
        dist, exact = interference_ratio_distribution(Exponential(1.0), Exponential(0.1), 1.0)
        assert exact
        assert dist.to_spec()["family"] == "ratio_exp_exp"

    def test_point_mass_denominator_scales_exponential(self):
        dist, exact = interference_ratio_distribution(Exponential(2.0), PointMass(1.0), 1.0)
        assert exact
        assert dist == Exponential(1.0)

    def test_nakagami_m1_pair_matches_exponential_closed_form(self):
        # a Nakagami m = 1 denominator is exponential: the pair takes the
        # closed form, which the quadrature law matches
        law, exact = interference_ratio_distribution(NakagamiGain(1.0, 2.0),
                                                     NakagamiGain(1.0, 0.5), 1.5)
        assert exact and law == RatioExpExp(2.0, 0.5, 1.5)
        z = np.concatenate([[0.0], np.geomspace(1e-8, 60.0, 300)])
        rule = RatioLaw(NakagamiGain(1.0, 2.0), NakagamiGain(1.0, 0.5), 1.5)
        assert np.max(np.abs(rule.ccdf(z) - law.ccdf(z))) <= 1e-12

    @pytest.mark.parametrize("num, den, expected", [
        (NakagamiGain(2.5, 4.0), Exponential(0.3), RatioExpExp(4.0, 0.3, 1.0, num_shape=2.5)),
        (NakagamiGain(0.6, 1.5), NakagamiGain(1.0, 2.0), RatioExpExp(1.5, 2.0, 1.0, num_shape=0.6)),
        (Exponential(1.5), NakagamiGain(1.0, 2.0), RatioExpExp(1.5, 2.0, 1.0)),
        (NakagamiGain(128.0, 1.0), Exponential(1.0), RatioExpExp(1.0, 1.0, 1.0, num_shape=128.0)),
    ])
    def test_gamma_over_exponential_takes_the_closed_form(self, num, den, expected):
        law, exact = interference_ratio_distribution(num, den, 1.0)
        assert exact and law == expected

    @pytest.mark.parametrize("num, den", [
        (NakagamiGain(128.5, 1.0), Exponential(1.0)),   # above the family's largest shape
        (NakagamiGain(2.5, 4.0), NakagamiGain(1.7, 1.0)),
        (Exponential(1.0), BernoulliGain(0.5)),
    ])
    def test_other_pairs_keep_the_quadrature_law(self, num, den):
        law, exact = interference_ratio_distribution(num, den, 1.0)
        assert exact and law == RatioLaw(num, den, 1.0)

    def test_very_strong_nakagami_scenario_builds_no_ratio_law(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a RatioLaw was built")

        monkeypatch.setattr(RatioLaw, "__post_init__", refuse)
        s = ICScenario(h11=Exponential(0.5), h12=Exponential(0.4), h21=NakagamiGain(2.5, 4.0),
                       h22=Exponential(0.3), p1=1.0, p2=1.0)
        report = classify_ic_very_strong(s)
        assert [name for name, _ in report.order_checks] == ["h11_leq_z1", "h22_leq_z2"]

    @pytest.mark.parametrize("num, den", [
        (NakagamiGain(2.5, 4.0), Exponential(0.3)),
        (BernoulliGain(0.3), Exponential(2.0)),
    ])
    def test_ratio_law_mean_is_the_product_of_means(self, num, den):
        # E[N / (1 + P D)] = E[N] c e^c E1(c) for D exponential, c = 1 / (P E[D])
        c = 1.0 / (1.5 * den.mean())
        law = RatioLaw(num, den, 1.5)
        assert law.mean() == pytest.approx(num.mean() * c * special.exp1(c) * np.exp(c), rel=1e-13)
        atoms = RatioLaw(num, BernoulliGain(0.25), 1.5)
        assert atoms.mean() == pytest.approx(num.mean() * (0.75 + 0.25 / 2.5), rel=1e-15)

    @pytest.mark.parametrize("den, den_law", [
        (NakagamiGain(1.7, 1.0), stats.gamma(1.7, scale=1.0 / 1.7)),
        (Exponential(0.3), stats.expon(scale=0.3)),
    ])
    def test_matches_adaptive_quadrature(self, den, den_law):
        law, _ = interference_ratio_distribution(NakagamiGain(2.5, 4.0), den, 1.0)
        num_sf = stats.gamma(2.5, scale=4.0 / 2.5).sf
        split = den_law.median()
        for t in [0.0, 1e-6, 0.01, 0.3, 1.0, 2.0, 5.0, 12.0, 30.0]:
            def integrand(d):
                return num_sf(t * (1.0 + d)) * den_law.pdf(d)
            ref = sum(integrate.quad(integrand, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                      for lo, hi in ((0.0, split), (split, np.inf)))
            assert abs(law.ccdf(t) - ref) <= 1e-12

    def test_bernoulli_over_exponential_conditions_on_the_numerator(self):
        q, s, power = 0.3, 2.0, 1.5
        law, _ = interference_ratio_distribution(BernoulliGain(q), Exponential(s), power)
        z = np.array([1e-3, 0.1, 0.5, 0.9, 0.999])
        expected = q * (1.0 - np.exp(-(1.0 / z - 1.0) / (power * s)))
        assert np.max(np.abs(law.ccdf(z) - expected)) <= 1e-15
        assert law.ccdf(0.0) == pytest.approx(q) and law.ccdf(1.0) == 0.0
        values, masses = law.atoms()
        assert values.tolist() == [0.0] and masses.tolist() == pytest.approx([1.0 - q])

    def test_nakagami_over_bernoulli_is_a_two_term_mixture(self):
        q, power, num = 0.4, 2.0, NakagamiGain(1.7, 1.0)
        law, _ = interference_ratio_distribution(num, BernoulliGain(q), power)
        z = np.geomspace(1e-6, 20.0, 100)
        expected = (1.0 - q) * num.ccdf(z) + q * num.ccdf(z * (1.0 + power))
        assert np.max(np.abs(law.ccdf(z) - expected)) <= 1e-15
        assert law.continuous and law.atoms()[0].size == 0

    def test_agrees_with_seeded_monte_carlo_at_the_ks_band(self):
        n, power = 200_000, 1.0
        rng = np.random.default_rng(2024)
        ratios = np.sort(rng.gamma(2.5, 4.0 / 2.5, n) / (1.0 + power * rng.gamma(1.7, 1.0 / 1.7, n)))
        law, _ = interference_ratio_distribution(NakagamiGain(2.5, 4.0),
                                                 NakagamiGain(1.7, 1.0), power)
        k = np.arange(99, n, 100)  # every 100th order statistic
        cdf = law.cdf(ratios[k])
        ks = max(np.max(np.abs(cdf - (k + 1) / n)), np.max(np.abs(cdf - k / n)))
        assert ks <= 1.628 / np.sqrt(n)


class TestClassifyWTC:
    def test_dominating_legitimate_channel(self):
        report = classify_wtc(WTCScenario(Exponential(2.0), Exponential(1.0), 1.0))
        assert report.verdict

    def test_equal_gains_boundary(self):
        report = classify_wtc(WTCScenario(Exponential(1.0), Exponential(1.0), 1.0))
        assert report.verdict

    def test_reversed_not_degraded(self):
        report = classify_wtc(WTCScenario(Exponential(1.0), Exponential(2.0), 1.0))
        assert not report.verdict
        assert report.witnesses

    def test_report_serializes(self):
        report = classify_wtc(WTCScenario(Exponential(2.0), Exponential(1.0), 1.0))
        payload = report.to_json()
        assert payload["topology"] == "wtc"
        assert payload["verdict"] is True
        assert payload["order_checks"][0]["relation"] == "first_leq"


def _point_ic(h11, h12, h21, h22, p1=1.0, p2=1.0):
    return ICScenario(h11=h11, h12=h12, h21=h21, h22=h22, p1=p1, p2=p2)


class TestDominanceWitnesses:
    """The witnesses of an IC or wiretap report are the sorted union of the
    points where a check's first law lies above its second, and nothing else."""

    @pytest.mark.parametrize("scenario, witnesses", [
        # both checks fail
        (_point_ic(PointMass(2.0), PointMass(0.5), PointMass(1.0), PointMass(3.0)),
         [0.5, 1.0, 2.0, 3.0]),
        # one fails; the other holds, and its reverse witnesses stay out
        (_point_ic(PointMass(2.0), PointMass(3.0), PointMass(1.0), PointMass(0.5)), [1.0, 2.0]),
        # one fails, the other is incomparable: only its first-above points count
        (_point_ic(PointMass(2.0), BernoulliGain(0.5), PointMass(1.0), PointMass(0.5)),
         [0.0, 0.5, 1.0, 2.0]),
        # none fails
        (_point_ic(PointMass(1.0), PointMass(3.0), PointMass(2.0), PointMass(0.5)), []),
    ])
    def test_strong_interference(self, scenario, witnesses):
        report = classify_ic_strong(scenario)
        assert report.witnesses == witnesses
        assert report.verdict is (witnesses == [])

    @pytest.mark.parametrize("scenario, witnesses", [
        (_point_ic(PointMass(2.0), PointMass(1.0), PointMass(1.0), PointMass(1.0)),
         [0.3333333333333333, 0.5, 1.0, 2.0]),
        (_point_ic(PointMass(0.1), PointMass(2.0), PointMass(2.0), PointMass(0.1), 0.5, 0.5), []),
    ])
    def test_very_strong_interference(self, scenario, witnesses):
        report = classify_ic_very_strong(scenario)
        assert report.witnesses == witnesses
        assert report.verdict is (witnesses == [])

    @pytest.mark.parametrize("legitimate, eavesdropper, witnesses", [
        (PointMass(1.0), PointMass(2.0), [1.0, 2.0]),
        (BernoulliGain(0.5), PointMass(0.5), [0.0, 0.5]),   # incomparable
        (PointMass(2.0), PointMass(1.0), []),
    ])
    def test_degraded_wiretap(self, legitimate, eavesdropper, witnesses):
        report = classify_wtc(WTCScenario(legitimate, eavesdropper, 1.0))
        assert report.witnesses == witnesses
        assert report.verdict is (witnesses == [])


class TestScenarioParameterChecks:
    @pytest.mark.parametrize("build", [
        lambda p: BCScenario((Exponential(1.0), Exponential(2.0)), power=p),
        lambda p: WTCScenario(Exponential(2.0), Exponential(1.0), p),
    ], ids=["bc", "wtc"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"), float("nan"), "1.0", None,
                                       10**400])
    def test_power_is_positive_and_finite(self, build, value):
        with pytest.raises(ValueError) as err:
            build(value)
        assert str(err.value) == f"power must be a positive finite number, got {value!r}"

    @pytest.mark.parametrize("name", ["p1", "p2"])
    @pytest.mark.parametrize("value", [-1e-300, float("inf"), float("nan"), "0", None, 10**400])
    def test_interference_powers_are_nonnegative_and_finite(self, name, value):
        powers = {"p1": 1.0, "p2": 1.0, name: value}
        with pytest.raises(ValueError) as err:
            exp_ic(1.0, 2.0, 2.0, 1.0, **powers)
        assert str(err.value) == f"{name} must be a nonnegative finite number, got {value!r}"

    def test_zero_interference_power_is_admitted(self):
        assert exp_ic(1.0, 2.0, 2.0, 1.0, p1=0, p2=0.0).p1 == 0


class TestNumpyScalarPowers:
    def test_interference_powers_from_numpy(self):
        scenario = exp_ic(1.0, 2.0, 2.0, 1.0, p1=np.int64(1), p2=np.float32(0.5))
        assert (scenario.p1, scenario.p2) == (1, 0.5)
        assert type(scenario.p1) is int and type(scenario.p2) is float

    @pytest.mark.parametrize("build", [
        lambda p: BCScenario((Exponential(1.0), Exponential(2.0)), power=p),
        lambda p: WTCScenario(Exponential(2.0), Exponential(1.0), p),
    ], ids=["bc", "wtc"])
    def test_power_from_numpy(self, build):
        scenario = build(np.int64(3))
        assert scenario.power == 3 and type(scenario.power) is int
        with pytest.raises(ValueError) as err:
            build(np.float64(-1.0))
        assert str(err.value) == "power must be a positive finite number, got np.float64(-1.0)"
