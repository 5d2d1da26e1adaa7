"""Monte Carlo verification harness.

Every check is deterministic given (master seed, sample size): each test owns
an isolated RNG stream derived from the master seed and the test name, so the
suite can run concurrently and reruns are bit-identical.  Thresholds are
distribution-free KS/DKW-style bounds.  Negative controls deliberately break
a construction and are expected to fail their thresholds.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .capacity import RateValue, c_of, exponential_rate_closed_form
from .classifier import ICScenario
from .coupling import (
    MaximalCouplingSpec,
    comonotone_samples,
    copula_joint_cdf,
    maximal_coupling_samples,
    maximal_coupling_spec,
)
from .distributions import BernoulliGain, Exponential, GainDistribution, _check_nonnegative

__all__ = [
    "VerificationReport",
    "ks_statistic",
    "verify_same_marginals",
    "verify_strong_ic_independence",
    "mc_ergodic_rate",
    "verify_copula_equivalence",
    "verify_maximal_equality_fraction",
    "run_verification_suite",
]

KS_CRIT_1PCT = 1.628  # sup |F_emp - F| critical coefficient at the 1% level
_COPULA_LEVELS = 20  # quantile levels per axis of the copula check's grid


@dataclass(frozen=True)
class VerificationReport:
    name: str
    sample_size: int
    statistic: float
    threshold: float
    seed: int
    kind: str = "positive"  # "negative_control" entries are expected to fail

    @property
    def passed(self) -> bool:
        return self.statistic <= self.threshold

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _report(name, n, statistic, threshold, seed, kind="positive") -> VerificationReport:
    return VerificationReport(name, int(n), float(statistic), float(threshold), int(seed), kind)


def _rng(seed: int, test_name: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(test_name.encode())]))


def _open_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform variates from rng, clipped into [1e-12, 1 - 1e-12]."""
    return np.clip(rng.random(n), 1e-12, 1.0 - 1e-12)


def _check_size(n: int) -> None:
    """Every public check's sample-size floor: its threshold holds from 1e4 samples."""
    if n < 10**4:
        raise ValueError("need at least 1e4 samples")


def ks_statistic(samples, d: GainDistribution) -> float:
    """sup_x |F_emp(x) - F_d(x)| via the sorted-sample formula.

    The lower excursion compares against the left limit F(x-), which matters
    for distributions with atoms (for an atomless law it equals F(x)).
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise ValueError("empty sample")
    f_right = np.asarray(d.cdf(xs), dtype=float)
    f_left = 1.0 - np.asarray(d.ccdf_left(xs), dtype=float)
    upper = np.max(np.arange(1, n + 1) / n - f_right)
    lower = np.max(f_left - np.arange(0, n) / n)
    return float(max(upper, lower, 0.0))


def verify_same_marginals(
    construction: str,
    d1: GainDistribution,
    d2: GainDistribution,
    n: int = 100_000,
    seed: int = 0,
    corrupt: bool = False,
) -> tuple[VerificationReport, VerificationReport]:
    """KS test of both coupled marginals against their source CDFs at the 1% level.

    corrupt=True swaps the two residual components of the maximal coupling
    (a negative control that must fail); the comonotone coupling has no
    residuals, so it raises ValueError there.
    """
    _check_size(n)
    if construction == "maximal":
        spec = maximal_coupling_spec(d1, d2)
        return _maximal_marginals(spec, _maximal_draws(spec, n, seed), n, seed, corrupt)
    if construction != "comonotone":
        raise ValueError(f"unknown construction {construction!r}")
    if corrupt:
        raise ValueError("corrupt=True swaps maximal-coupling residuals; "
                         "the comonotone coupling has none")
    rng = _rng(seed, f"same_marginals[{construction}]")
    h1, h2 = comonotone_samples(d1, d2, _open_uniform(rng, n))
    return _marginal_reports(construction, d1, d2, h1, h2, n, seed, corrupt)


def _maximal_draws(spec: MaximalCouplingSpec, n: int, seed: int):
    """(h1, h2, equal_flag) of the maximal coupling from the marginal checks' stream."""
    rng = _rng(seed, "same_marginals[maximal]")
    u_sel = _open_uniform(rng, n)
    return maximal_coupling_samples(spec, u_sel, _open_uniform(rng, n))


def _maximal_marginals(spec: MaximalCouplingSpec, draws, n: int, seed: int, corrupt: bool):
    """The marginal checks on the draws (h1, h2, equal_flag) of _maximal_draws."""
    h1, h2, eq = draws
    if corrupt:
        # swap on copies: the suite shares the draws with the positive check
        swapped = np.flatnonzero(~eq)
        h1, h2 = h1.copy(), h2.copy()
        h1[swapped], h2[swapped] = h2[swapped], h1[swapped]
    return _marginal_reports("maximal", spec.d1, spec.d2, h1, h2, n, seed, corrupt)


def _marginal_reports(construction, d1, d2, h1, h2, n, seed, corrupt):
    threshold = KS_CRIT_1PCT / math.sqrt(n)
    kind = "negative_control" if corrupt else "positive"
    name = f"same_marginals[{construction}{'-corrupted' if corrupt else ''}]"
    return (
        _report(name + ".h1", n, ks_statistic(h1, d1), threshold, seed, kind),
        _report(name + ".h2", n, ks_statistic(h2, d2), threshold, seed, kind),
    )


def verify_strong_ic_independence(
    s: ICScenario, n: int = 100_000, seed: int = 0, shared_uniform: bool = False
) -> VerificationReport:
    """Check that the strong-interference coupling keeps H21' independent of H22'.

    The coupling draws H21' and H22' from two independent uniforms, so the
    Pearson correlation of the probability-integral transforms must vanish;
    |rho| <= 3/sqrt(n) passes.  shared_uniform=True is the comonotone negative
    control (rank correlation 1).  Degenerate (zero-variance) transforms pass
    vacuously.
    """
    _check_size(n)
    rng = _rng(seed, "strong_ic_independence")
    u1 = _open_uniform(rng, n)
    u2 = u1 if shared_uniform else _open_uniform(rng, n)
    h21 = np.asarray(s.h21.sample(u1))
    h22 = np.asarray(s.h22.sample(u2))
    pit1 = np.asarray(s.h21.cdf(h21))
    pit2 = np.asarray(s.h22.cdf(h22))
    name = "strong_ic_independence" + ("[shared-uniform]" if shared_uniform else "")
    kind = "negative_control" if shared_uniform else "positive"
    threshold = 3.0 / math.sqrt(n)
    if np.std(pit1) < 1e-12 or np.std(pit2) < 1e-12:
        return _report(name + "[degenerate]", n, 0.0, threshold, seed, kind)
    rho = float(np.corrcoef(pit1, pit2)[0, 1])
    return _report(name, n, abs(rho), threshold, seed, kind)


def mc_ergodic_rate(
    d: GainDistribution, power: float, n: int = 10**6, seed: int = 0
) -> RateValue:
    """Sample-mean estimate of E[C(H * power)] with its standard error."""
    _check_nonnegative("power", power)
    _check_size(n)
    rng = _rng(seed, "mc_ergodic_rate")
    h = np.asarray(d.sample(_open_uniform(rng, n)))
    values = np.asarray(c_of(h * power))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n))
    return RateValue(bits=float(np.mean(values)), method="monte_carlo", error_estimate=stderr)


def verify_copula_equivalence(
    d1: GainDistribution,
    d2: GainDistribution,
    n: int = 100_000,
    seed: int = 0,
    independent_control: bool = False,
) -> VerificationReport:
    """Sup-gap between the empirical comonotone joint CDF and min{F1, F2}.

    Evaluated on a quantile grid of _COPULA_LEVELS levels a side; the DKW-style threshold is
    1.5 * sqrt(ln(2/0.01) / (2n)).  independent_control=True samples the two
    coordinates from independent uniforms instead, which must fail (the joint
    CDF then tracks F1*F2, not the minimum).
    """
    _check_size(n)
    rng = _rng(seed, "copula_equivalence")
    u1 = _open_uniform(rng, n)
    u2 = _open_uniform(rng, n) if independent_control else u1
    h1 = np.asarray(d1.sample(u1))
    h2 = np.asarray(d2.sample(u2))
    levels = np.arange(1, _COPULA_LEVELS + 1) / (_COPULA_LEVELS + 1.0)
    xs = np.asarray(d1.quantile(levels))
    ys = np.asarray(d2.quantile(levels))
    # h1 <= xs[k] iff k >= i, where i, the number of grid points below h1, is
    # the first index with xs[i] >= h1 (the quantiles are nondecreasing), so the
    # joint counts are 2-D cumulative sums of the histogram of (i, j); count / n
    # is the same double as np.mean of the mask.  One comparison per grid point
    # counts i at under half the cost of searchsorted
    i = np.zeros(h1.shape, dtype=np.intp)
    j = np.zeros(h2.shape, dtype=np.intp)
    for x, y in zip(xs, ys):
        i += h1 > x
        j += h2 > y
    hist = np.bincount(i * (_COPULA_LEVELS + 1) + j, minlength=(_COPULA_LEVELS + 1) ** 2)
    counts = hist.reshape(_COPULA_LEVELS + 1, -1).cumsum(axis=0).cumsum(axis=1)
    emp = counts[:_COPULA_LEVELS, :_COPULA_LEVELS] / n
    joint = copula_joint_cdf(d1, d2, xs[:, None], ys[None, :])
    worst = max(0.0, float(np.max(np.abs(emp - joint))))
    threshold = 1.5 * math.sqrt(math.log(2.0 / 0.01) / (2.0 * n))
    name = "copula_equivalence" + ("[independent-uniforms]" if independent_control else "")
    kind = "negative_control" if independent_control else "positive"
    return _report(name, n, worst, threshold, seed, kind)


def verify_maximal_equality_fraction(
    d1: GainDistribution, d2: GainDistribution, n: int = 100_000, seed: int = 0
) -> VerificationReport:
    """Fraction of equal draws must sit within 3 sigma of the overlap mass p."""
    _check_size(n)
    rng = _rng(seed, "maximal_equality_fraction")
    # the draw is equal exactly where its selection uniform is at most p
    # (maximal_coupling_samples), so no component quantile is needed
    p = maximal_coupling_spec(d1, d2).p
    eq = _open_uniform(rng, n) <= p
    threshold = 3.0 * math.sqrt(p * (1.0 - p) / n)
    return _report("maximal_equality_fraction", n, abs(float(np.mean(eq)) - p), threshold, seed)


def run_verification_suite(
    seed: int = 0, n: int = 100_000, include_negative_controls: bool = False
) -> list[VerificationReport]:
    """The full positive-control suite, optionally with the negative controls."""
    _check_size(n)
    d1, d2 = Exponential(1.0), Exponential(2.0)
    ic = ICScenario(
        h11=Exponential(1.0), h12=Exponential(2.0), h21=Exponential(2.0), h22=Exponential(1.0),
        p1=1.0, p2=1.0,
    )
    spec = maximal_coupling_spec(d1, d2)
    draws = _maximal_draws(spec, n, seed)  # shared with the corrupted control
    reports: list[VerificationReport] = []
    reports += _maximal_marginals(spec, draws, n, seed, corrupt=False)
    reports += verify_same_marginals("comonotone", d1, d2, n=n, seed=seed)
    reports += verify_same_marginals("comonotone", BernoulliGain(0.3), BernoulliGain(0.7),
                                     n=n, seed=seed)
    reports.append(verify_maximal_equality_fraction(d1, d2, n=n, seed=seed))
    reports.append(verify_strong_ic_independence(ic, n=n, seed=seed))
    reports.append(verify_copula_equivalence(d1, d2, n=n, seed=seed))

    mc = mc_ergodic_rate(Exponential(1.0), 1.0, n=n, seed=seed)
    closed = exponential_rate_closed_form(1.0, 1.0)
    reports.append(_report("mc_rate_vs_closed_form", n, abs(mc.bits - closed),
                           max(1e-3, 3.0 * mc.error_estimate), seed))

    if include_negative_controls:
        reports += _maximal_marginals(spec, draws, n, seed, corrupt=True)
        reports.append(verify_strong_ic_independence(ic, n=n, seed=seed, shared_uniform=True))
        reports.append(verify_copula_equivalence(d1, d2, n=n, seed=seed, independent_control=True))
    return reports
