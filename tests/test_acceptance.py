"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s); tolerances are
pinned here and nowhere else.
"""

import functools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from gainorder import BernoulliGain, Exponential, NakagamiGain, PointMass, build_ratio
from gainorder.capacity import (
    ergodic_rate,
    exponential_rate_closed_form,
    strong_ic_region,
    wtc_secrecy_capacity,
)
from gainorder.classifier import ICScenario, WTCScenario
from gainorder.cli import main
from gainorder.coupling import (
    comonotone_samples,
    maximal_coupling_samples,
    maximal_coupling_spec,
    min_copula,
    product_copula,
    verify_copula_axioms,
)
from gainorder.markov import (
    MarkovChannelSpec,
    ccdf_matrix,
    check_markov_degraded,
    comparable_pairs,
    coupled_paths,
)
from gainorder.stochastic_order import check_usual_order, total_variation
from gainorder.verify import ks_statistic, mc_ergodic_rate, verify_copula_equivalence

KS_CRIT_1PCT = 1.628


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {desc}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {desc}")

        return run

    return wrap


def open_uniform(rng, n):
    return np.clip(rng.random(n), 1e-12, 1.0 - 1e-12)


def load_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), np.array(
        [[float(v) for v in line.split(",")] for line in lines[1:]]
    )


@criterion(1, "figure-3 CCDF differences: a in {0.1,0.3,0.5} nonnegative, a=0.7 dips below -0.03")
def test_criterion_1_figure3(tmp_path):
    out = tmp_path / "fig3.csv"
    start = time.perf_counter()
    assert main(["figure", "--fig", "3", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    header, data = load_csv(out)
    assert header == ["h", "diff_a0.1", "diff_a0.3", "diff_a0.5", "diff_a0.7"]
    h = data[:, 0]
    assert h[0] > 0.0 and h[-1] == pytest.approx(20.0) and h.size == 2000
    for col in (1, 2, 3):
        assert np.min(data[:, col]) >= -1e-12
    assert np.min(data[:, 4]) <= -0.03
    assert elapsed < 5.0


@criterion(2, "figure-4 CCDF differences: P in {1,10,50} nonnegative, P=100 dips below -0.003 at h<0.05")
def test_criterion_2_figure4(tmp_path):
    out = tmp_path / "fig4.csv"
    start = time.perf_counter()
    assert main(["figure", "--fig", "4", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    header, data = load_csv(out)
    assert header == ["h", "diff_P1", "diff_P10", "diff_P50", "diff_P100"]
    for col in (1, 2, 3):
        assert np.min(data[:, col]) >= -1e-12
    small_h = data[data[:, 0] < 0.05]
    assert np.min(small_h[:, 4]) <= -0.003
    assert elapsed < 5.0


@criterion(3, "maximal coupling on (Exp 1, Exp 2): overlap, equality fraction, residual order")
def test_criterion_3_maximal_coupling():
    d1, d2 = Exponential(1.0), Exponential(2.0)
    spec = maximal_coupling_spec(d1, d2)

    oracle, _ = quad(lambda x: min(float(d1.pdf(x)), float(d2.pdf(x))), 0.0, 80.0,
                     limit=400, epsabs=1e-11)
    assert abs(spec.p - 0.75) <= 1e-8
    assert abs(spec.p - oracle) <= 1e-8
    assert abs(spec.p + total_variation(d1, d2) - 1.0) <= 1e-8

    n = 100_000
    rng = np.random.default_rng(2718)
    h1, h2, eq = maximal_coupling_samples(spec, open_uniform(rng, n), open_uniform(rng, n))
    p = spec.p
    assert abs(float(np.mean(eq)) - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)
    assert np.mean(h1[~eq] < h2[~eq]) == 1.0


CORPUS = [
    (Exponential(1.0), Exponential(2.0)),
    (BernoulliGain(0.3), BernoulliGain(0.7)),
    (NakagamiGain(2.0, 1.0), NakagamiGain(2.0, 3.0)),
    (NakagamiGain(0.5, 1.0), NakagamiGain(1.0, 2.0)),
    (Exponential(0.5), NakagamiGain(1.0, 2.0)),
]


@criterion(4, "comonotone coupling: pathwise order exactly 1 and marginal KS at the 1% level")
def test_criterion_4_comonotone():
    n = 100_000
    crit = KS_CRIT_1PCT / math.sqrt(n)
    rng = np.random.default_rng(31415)
    for d1, d2 in CORPUS:
        assert check_usual_order(d1, d2).first_leq
        h1, h2 = comonotone_samples(d1, d2, open_uniform(rng, n))
        assert np.mean(h1 <= h2) == 1.0
        assert ks_statistic(h1, d1) < crit
        assert ks_statistic(h2, d2) < crit


@criterion(5, "copula equivalence on a 20x20 quantile grid plus the axiom checks")
def test_criterion_5_copula():
    n = 100_000
    report = verify_copula_equivalence(Exponential(1.0), Exponential(2.0), n=n, seed=777)
    assert report.threshold == pytest.approx(1.5 * math.sqrt(math.log(200.0) / (2.0 * n)))
    assert report.passed

    grid = np.linspace(0.0, 1.0, 64)
    assert verify_copula_axioms(min_copula, grid).passed
    assert verify_copula_axioms(product_copula, grid).passed
    # negative controls: broken boundary, broken rectangle inequality, broken joint law
    averaged = lambda u, v: (np.asarray(u) + np.asarray(v)) / 2.0
    assert not verify_copula_axioms(averaged, grid).passed
    fgm5 = lambda u, v: np.asarray(u) * np.asarray(v) * (
        1.0 + 5.0 * (1.0 - np.asarray(u)) * (1.0 - np.asarray(v))
    )
    assert not verify_copula_axioms(fgm5, grid).passed
    independent = verify_copula_equivalence(
        Exponential(1.0), Exponential(2.0), n=n, seed=777, independent_control=True
    )
    assert not independent.passed


THREE_STATES = (0.1, 0.5, 1.0)
P3 = (("1/2", "1/4", "1/4"), ("3/4", "1/8", "1/8"), ("5/8", "1/4", "1/8"))
Q3 = (("1/4", "3/8", "3/8"), ("1/8", "2/8", "5/8"), ("1/2", "1/8", "3/8"))
P4 = (("1/2", "1/2", 0, 0), (0, 0, "1/3", "2/3"), ("1/4", "3/4", 0, 0), (0, 0, "1/5", "4/5"))
Q4 = (("1/3", "2/3", 0, 0), (0, 0, "1/4", "3/4"), ("1/5", "4/5", 0, 0), (0, 0, "1/6", "5/6"))


@criterion(6, "Markov golden files, comparable pairs, certificates, and coupled paths")
def test_criterion_6_markov():
    from fractions import Fraction as F

    start = time.perf_counter()
    weak3 = MarkovChannelSpec(states=THREE_STATES, order=1, matrix=P3,
                              initial=("1/2", "1/4", "1/4"))
    strong3 = MarkovChannelSpec(states=THREE_STATES, order=1, matrix=Q3,
                                initial=("1/4", "3/8", "3/8"))
    assert ccdf_matrix(weak3) == (
        (F(1, 2), F(1, 4), F(0)), (F(1, 4), F(1, 8), F(0)), (F(3, 8), F(1, 8), F(0)),
    )
    assert ccdf_matrix(strong3) == (
        (F(3, 4), F(3, 8), F(0)), (F(7, 8), F(5, 8), F(0)), (F(1, 2), F(3, 8), F(0)),
    )

    early_weak = (((0.0,), ("1/2", "1/2")), ((1.0,), ("1/4", "3/4")))
    early_strong = (((0.0,), ("1/3", "2/3")), ((1.0,), ("1/6", "5/6")))
    weak4 = MarkovChannelSpec(states=(0.0, 1.0), order=2, matrix=P4,
                              initial=("1/4", "1/4", "1/8", "3/8"),
                              early_conditionals=early_weak)
    strong4 = MarkovChannelSpec(states=(0.0, 1.0), order=2, matrix=Q4,
                                initial=("1/9", "2/9", "1/9", "5/9"),
                                early_conditionals=early_strong)
    assert ccdf_matrix(weak4) == (
        (F(1, 2), F(0), F(0), F(0)), (F(1), F(1), F(2, 3), F(0)),
        (F(3, 4), F(0), F(0), F(0)), (F(1), F(1), F(4, 5), F(0)),
    )
    assert ccdf_matrix(strong4) == (
        (F(2, 3), F(0), F(0), F(0)), (F(1), F(1), F(3, 4), F(0)),
        (F(4, 5), F(0), F(0), F(0)), (F(1), F(1), F(5, 6), F(0)),
    )

    # the explicitly listed comparable-pair sets: six for k=1, nine for k=2
    assert set(comparable_pairs(1, 3)) == {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)}
    pairs4 = set(comparable_pairs(2, 2))
    assert pairs4 == {(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 4), (3, 3), (3, 4), (4, 4)}

    assert check_markov_degraded(weak3, strong3).verdict
    assert check_markov_degraded(weak4, strong4).verdict

    rng = np.random.default_rng(999)
    n_paths, steps = 10_000, 100
    u = np.clip(rng.random((n_paths, steps)), 1e-12, 1 - 1e-12)
    p1, p2 = coupled_paths(weak3, strong3, steps, u)
    assert np.mean(p1 <= p2) == 1.0
    q1, q2 = coupled_paths(weak4, strong4, steps, u)
    assert np.mean(q1 <= q2) == 1.0
    assert time.perf_counter() - start < 30.0


@criterion(7, "rate oracles: quadrature vs closed form vs Monte Carlo, and the wiretap value")
def test_criterion_7_rate_oracles():
    for mean, power in ((1.0, 1.0), (2.0, 1.0), (0.1, 1.0), (1.0, 10.0)):
        d = Exponential(mean)
        quad_rate = ergodic_rate(d, power)
        closed = exponential_rate_closed_form(mean, power)
        mc = mc_ergodic_rate(d, power, n=10**6, seed=424242)
        tol = max(1e-3, 3.0 * mc.error_estimate)
        assert abs(quad_rate.bits - closed) <= 1e-12
        assert abs(mc.bits - closed) <= tol
        assert abs(mc.bits - quad_rate.bits) <= tol

    secrecy = wtc_secrecy_capacity(WTCScenario(Exponential(2.0), Exponential(1.0), 1.0))
    oracle = exponential_rate_closed_form(2.0, 1.0) - exponential_rate_closed_form(1.0, 1.0)
    assert abs(secrecy.bits - 0.2355656051985441) <= 1e-3
    assert abs(secrecy.bits - oracle) <= 1e-3


@criterion(8, "ratio-distribution CDF within 0.003 sup-norm of brute-force sampling, 5 parameter sets")
def test_criterion_8_ratio_distribution():
    parameter_sets = [
        (1.0, 0.1, 1.0),   # figure-3 family, a = 0.1
        (1.0, 0.3, 1.0),   # a = 0.3
        (1.0, 0.7, 1.0),   # a = 0.7 (the failing curve)
        (1.0, 0.1, 50.0),  # figure-4 family, P = 50
        (1.0, 0.1, 100.0),  # P = 100 (the failing curve)
    ]
    rng = np.random.default_rng(1234)
    n = 1_000_000
    for num_mean, den_mean, power in parameter_sets:
        dist = build_ratio(num_mean, den_mean, power)
        h_num = -num_mean * np.log1p(-rng.random(n))
        h_den = -den_mean * np.log1p(-rng.random(n))
        z = h_num / (1.0 + power * h_den)
        assert ks_statistic(z, dist) < 0.003


@criterion(9, "strong-IC point-mass region vertices are exactly the half-bit square")
def test_criterion_9_strong_ic_vertices():
    s = ICScenario(PointMass(1.0), PointMass(2.0), PointMass(2.0), PointMass(1.0), 1.0, 1.0)
    region = strong_ic_region(s)
    expected = [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5)]
    assert len(region.vertices) == len(expected)
    for got, want in zip(region.vertices, expected):
        assert abs(got[0] - want[0]) <= 1e-9
        assert abs(got[1] - want[1]) <= 1e-9
