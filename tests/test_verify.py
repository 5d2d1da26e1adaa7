import math
from pathlib import Path

import numpy as np
import pytest

import gainorder.verify as verify
from gainorder import BernoulliGain, Empirical, Exponential, NakagamiGain, PointMass
from gainorder.classifier import ICScenario
from gainorder.cli import main
from gainorder.coupling import copula_joint_cdf, maximal_coupling_samples
from gainorder.verify import (
    ks_statistic,
    mc_ergodic_rate,
    run_verification_suite,
    verify_copula_equivalence,
    verify_same_marginals,
    verify_strong_ic_independence,
)

DATA = Path(__file__).parent / "data"


def exp_ic():
    return ICScenario(
        h11=Exponential(1.0), h12=Exponential(2.0), h21=Exponential(2.0), h22=Exponential(1.0),
        p1=1.0, p2=1.0,
    )


class TestKsStatistic:
    def test_true_distribution_below_critical_value(self):
        d = Exponential(1.0)
        rng = np.random.default_rng(1)
        failures = 0
        n = 20_000
        for rep in range(20):
            u = np.clip(rng.random(n), 1e-12, 1 - 1e-12)
            stat = ks_statistic(np.asarray(d.sample(u)), d)
            failures += stat >= 1.628 / math.sqrt(n)
        assert failures <= 1  # 1% level, generous flakiness budget

    def test_constant_sample_at_median(self):
        d = Exponential(1.0)
        median = d.quantile(0.5)
        assert ks_statistic(np.full(1000, median), d) >= 0.5

    def test_single_sample_at_median(self):
        d = Exponential(1.0)
        assert ks_statistic([d.quantile(0.5)], d) == pytest.approx(0.5, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ks_statistic([], Exponential(1.0))


class TestSameMarginals:
    def test_comonotone_exponentials_pass(self):
        r1, r2 = verify_same_marginals("comonotone", Exponential(1.0), Exponential(2.0),
                                       n=100_000, seed=4)
        assert r1.passed and r2.passed

    def test_maximal_exponentials_pass(self):
        r1, r2 = verify_same_marginals("maximal", Exponential(1.0), Exponential(2.0),
                                       n=100_000, seed=4)
        assert r1.passed and r2.passed

    def test_corrupted_maximal_sampler_fails(self):
        r1, r2 = verify_same_marginals("maximal", Exponential(1.0), Exponential(2.0),
                                       n=100_000, seed=4, corrupt=True)
        assert not (r1.passed and r2.passed)
        assert r1.kind == "negative_control"

    def test_comonotone_has_no_corrupted_control(self):
        # corrupt swaps maximal-coupling residuals, so a comonotone "control"
        # would corrupt nothing and pass
        with pytest.raises(ValueError, match="comonotone coupling has none"):
            verify_same_marginals("comonotone", Exponential(1.0), Exponential(2.0),
                                  n=10_000, corrupt=True)

    def test_unknown_construction_rejected(self):
        with pytest.raises(ValueError):
            verify_same_marginals("antitone", Exponential(1.0), Exponential(2.0))

    def test_deterministic_given_seed(self):
        a = verify_same_marginals("comonotone", Exponential(1.0), Exponential(2.0),
                                  n=20_000, seed=11)
        b = verify_same_marginals("comonotone", Exponential(1.0), Exponential(2.0),
                                  n=20_000, seed=11)
        assert a == b


class TestStrongIcIndependence:
    def test_independent_uniforms_pass(self):
        assert verify_strong_ic_independence(exp_ic(), n=100_000, seed=2).passed

    def test_shared_uniform_control_fails_with_high_correlation(self):
        report = verify_strong_ic_independence(exp_ic(), n=100_000, seed=2, shared_uniform=True)
        assert not report.passed
        assert report.statistic > 0.9

    def test_point_mass_gains_vacuous_pass(self):
        s = ICScenario(PointMass(1.0), PointMass(2.0), PointMass(2.0), PointMass(1.0), 1.0, 1.0)
        report = verify_strong_ic_independence(s, n=100_000, seed=2)
        assert report.passed
        assert "degenerate" in report.name


class TestMcErgodicRate:
    def test_exponential_against_closed_form(self):
        from gainorder.capacity import exponential_rate_closed_form

        rate = mc_ergodic_rate(Exponential(1.0), 1.0, n=10**6, seed=5)
        assert abs(rate.bits - exponential_rate_closed_form(1.0, 1.0)) <= 3 * rate.error_estimate

    def test_point_mass_exact(self):
        rate = mc_ergodic_rate(PointMass(3.0), 1.0, n=10**4, seed=5)
        assert rate.bits == 1.0
        assert rate.error_estimate == 0.0

    def test_zero_power_exact(self):
        rate = mc_ergodic_rate(Exponential(1.0), 0.0, n=10**4, seed=5)
        assert rate.bits == 0.0

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError):
            mc_ergodic_rate(Exponential(1.0), 1.0, n=100, seed=5)


class TestCopulaEquivalence:
    def test_comonotone_exponentials_pass(self):
        assert verify_copula_equivalence(Exponential(1.0), Exponential(2.0),
                                         n=100_000, seed=3).passed

    def test_identical_marginals_pass(self):
        assert verify_copula_equivalence(Exponential(1.0), Exponential(1.0),
                                         n=50_000, seed=3).passed

    def test_independent_control_fails(self):
        report = verify_copula_equivalence(Exponential(1.0), Exponential(2.0),
                                           n=100_000, seed=3, independent_control=True)
        assert not report.passed
        assert report.statistic > 0.09

    def test_nakagami_pair_passes(self):
        assert verify_copula_equivalence(NakagamiGain(2.0, 1.0), NakagamiGain(2.0, 3.0),
                                         n=50_000, seed=3).passed

    def test_minimum_sample_size(self):
        with pytest.raises(ValueError, match="at least 1e4 samples"):
            verify_copula_equivalence(Exponential(1.0), Exponential(2.0), n=9_999)


def _loop_statistic(d1, d2, n, seed, independent_control):
    """The copula statistic as a 20 x 20 loop over the joint masks."""
    rng = verify._rng(seed, "copula_equivalence")
    u1 = verify._open_uniform(rng, n)
    u2 = verify._open_uniform(rng, n) if independent_control else u1
    h1, h2 = np.asarray(d1.sample(u1)), np.asarray(d2.sample(u2))
    levels = np.arange(1, 21) / 21.0
    worst = 0.0
    for x in np.asarray(d1.quantile(levels)):
        for y in np.asarray(d2.quantile(levels)):
            emp = np.mean((h1 <= x) & (h2 <= y))
            worst = max(worst, abs(emp - float(copula_joint_cdf(d1, d2, x, y))))
    return worst


def _searchsorted_statistic(d1, d2, n, seed, independent_control):
    """The copula statistic with the grid cells found by searchsorted."""
    rng = verify._rng(seed, "copula_equivalence")
    u1 = verify._open_uniform(rng, n)
    u2 = verify._open_uniform(rng, n) if independent_control else u1
    h1, h2 = np.asarray(d1.sample(u1)), np.asarray(d2.sample(u2))
    levels = np.arange(1, 21) / 21.0
    xs, ys = np.asarray(d1.quantile(levels)), np.asarray(d2.quantile(levels))
    i = np.searchsorted(xs, h1, side="left")
    j = np.searchsorted(ys, h2, side="left")
    hist = np.bincount(i * 21 + j, minlength=21 ** 2)
    emp = hist.reshape(21, -1).cumsum(axis=0).cumsum(axis=1)[:20, :20] / n
    joint = copula_joint_cdf(d1, d2, xs[:, None], ys[None, :])
    return max(0.0, float(np.max(np.abs(emp - joint))))


class TestCopulaCount:
    PAIRS = [
        (Exponential(1.0), Exponential(2.0)),
        (NakagamiGain(0.7, 1.0), Exponential(3.0)),
        (BernoulliGain(0.3), BernoulliGain(0.7)),   # tied quantiles and tied draws
        (PointMass(1.0), Exponential(1.0)),
    ]

    @pytest.mark.parametrize("d1, d2", PAIRS)
    @pytest.mark.parametrize("independent", [False, True])
    def test_same_double_as_the_mask_loop(self, d1, d2, independent):
        report = verify_copula_equivalence(d1, d2, n=10_000, seed=4,
                                           independent_control=independent)
        assert report.statistic == _loop_statistic(d1, d2, 10_000, 4, independent)

    @pytest.mark.parametrize("d1, d2", PAIRS + [
        (Empirical((0.5, 1.0, 1.0, 2.0, 2.0, 2.0)), Empirical((1.0, 1.5, 3.0)))])
    @pytest.mark.parametrize("independent", [False, True])
    def test_same_double_as_searchsorted(self, d1, d2, independent):
        # each draw counts the grid points below it, ties not included
        for seed in (4, 5):
            report = verify_copula_equivalence(d1, d2, n=10_000, seed=seed,
                                               independent_control=independent)
            assert report.statistic == _searchsorted_statistic(d1, d2, 10_000, seed, independent)


class TestSuite:
    def test_report_is_byte_identical_to_the_recorded_one(self, tmp_path):
        # recorded before the suite shared its maximal-coupling draws
        out = tmp_path / "verify.json"
        assert main(["verify", "--seed", "11", "-n", "10000", "--include-negative-controls",
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / "verify_seed11_n10000_controls.json").read_bytes()

    def test_maximal_coupling_drawn_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(maximal_coupling_samples(*args))
            return calls[-1]

        monkeypatch.setattr(verify, "maximal_coupling_samples", counted)
        reports = run_verification_suite(seed=3, n=10_000, include_negative_controls=True)
        assert len(calls) == 1
        positive = [r for r in reports if r.name.startswith("same_marginals[maximal].")]
        corrupted = [r for r in reports if r.name.startswith("same_marginals[maximal-corrupted]")]
        assert all(r.passed for r in positive) and not any(r.passed for r in corrupted)
        assert positive == list(verify_same_marginals("maximal", Exponential(1.0),
                                                      Exponential(2.0), n=10_000, seed=3))
        # the corrupted control swapped copies, not the shared draws
        fresh = verify._maximal_draws(verify.maximal_coupling_spec(Exponential(1.0),
                                                                   Exponential(2.0)), 10_000, 3)
        assert all(np.array_equal(a, b) for a, b in zip(calls[0], fresh))

    def test_positive_suite_passes_and_negatives_fail_across_seeds(self):
        # flakiness budget: at most one positive-control failure at the 1% level
        positive_failures = 0
        for seed in range(20):
            reports = run_verification_suite(seed=seed, n=20_000,
                                             include_negative_controls=True)
            for r in reports:
                if r.kind == "positive":
                    positive_failures += not r.passed
                else:
                    assert not r.passed, f"negative control unexpectedly passed: {r.name}"
        assert positive_failures <= 1

    def test_reports_deterministic(self):
        a = run_verification_suite(seed=7, n=20_000)
        b = run_verification_suite(seed=7, n=20_000)
        assert a == b

    def test_bernoulli_marginals_in_suite(self):
        reports = run_verification_suite(seed=1, n=20_000)
        names = [r.name for r in reports]
        assert any("comonotone" in name for name in names)
        assert all(r.seed == 1 for r in reports)
