"""Ergodic rate expressions attached to each successful classification.

A region or secrecy capacity takes the ClassificationReport its caller holds,
and one gate, _admit, checks it: this module never classifies.  Rates are in
bits per channel use with C(x) = (1/2) log2(1 + x); the 1/2 factor is kept
uniformly, including for the complex-noise interference model, to match the
convention the sufficient conditions were stated under.
Every expectation over the gain laws goes through one rule,
distributions.law_nodes: a step law's atoms are summed exactly, a RatioLaw over
the product of its parts' rules, and any other gain by Gauss-Legendre in
quantile space on fixed panels, with the distance to a coarser companion rule
as the error estimate.  Each law memoizes its rules, so rates that share a law
share its nodes.  The exponential-integral closed form for exponential gains and
the Monte Carlo estimator verify.mc_ergodic_rate are the independent cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .classifier import ClassificationReport, ICScenario, WTCScenario
from .distributions import (_BLOCK, _COMPANION_ORDER, _RULE_ORDER, GainDistribution,
                            _check_nonnegative, law_nodes, step_atoms)

__all__ = [
    "RateValue",
    "RateRegion",
    "UnclassifiedScenarioError",
    "c_of",
    "ergodic_rate",
    "exponential_rate_closed_form",
    "pair_sum_rate",
    "region_from_constraints",
    "strong_ic_region",
    "very_strong_ic_region",
    "wtc_secrecy_capacity",
]

_LN2 = math.log(2.0)
_EPS = float(np.finfo(float).eps)
_VERTEX_TOL = 1e-9
# e^x E1(x) is e^x times scipy's E1 up to here and scipy's U(1, 1, x) beyond,
# where e^x nears overflow; U(1, 1, x) is off by up to 6e-10 relative on [5, 30]
_EXP1_SPLIT = 100.0


class UnclassifiedScenarioError(ValueError):
    """Raised when a rate expression is requested for a scenario whose
    sufficient condition failed and no override was given."""

    def __init__(self, report: ClassificationReport):
        self.report = report
        super().__init__(
            f"scenario does not satisfy the {report.condition} condition; "
            "pass force=True to evaluate the expression anyway"
        )


def c_of(x):
    """Shannon rate C(x) = (1/2) log2(1 + x) in bits per channel use."""
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr < 0.0):
        raise ValueError("rate argument must be nonnegative")
    out = 0.5 * np.log2(1.0 + x_arr)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RateValue:
    """A nonnegative ergodic rate plus how it was computed."""

    bits: float
    method: str  # "quadrature" | "closed_form" | "monte_carlo"
    error_estimate: float

    def to_json(self) -> dict:
        return asdict(self)


def exponential_rate_closed_form(mean_gain: float, power: float) -> float:
    """E[C(H P)] for exponential H: e^(1/(P s)) E1(1/(P s)) / (2 ln 2).

    It is the independent check on ergodic_rate's rule for exponential gains.
    """
    _check_nonnegative("mean_gain", mean_gain)
    _check_nonnegative("power", power)
    if power == 0.0:
        return 0.0
    snr = float(power * mean_gain)
    arg = 1.0 / snr if snr else math.inf
    if arg == math.inf:
        # e^x E1(x) = (1 - 1/x + 2/x^2 - ...) / x is 1/x to the double once
        # x = 1/(P s) passes the largest one: P s is subnormal or underflowed
        return snr / (2.0 * _LN2)
    return _scaled_exp1(arg) / (2.0 * _LN2)


def _scaled_exp1(x):
    """Overflow-safe e^x E1(x) for x > 0.

    Large arguments (low SNR) take the confluent hypergeometric function
    U(1, 1, x), which equals e^x E1(x) and never forms e^x.
    """
    from scipy.special import exp1, hyperu

    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0) or np.any(~np.isfinite(x_arr)):
        raise ValueError("x must be finite and > 0")
    flat = x_arr.ravel()
    out = np.empty_like(flat)
    small = flat <= _EXP1_SPLIT
    out[small] = np.exp(flat[small]) * exp1(flat[small])
    out[~small] = hyperu(1.0, 1.0, flat[~small])
    out = out.reshape(x_arr.shape)
    return out if out.ndim else float(out)


def _rate(expectation, *laws: GainDistribution) -> RateValue:
    """expectation(order) -> (sum, depth) under the rule of law_nodes.

    The error estimate is the distance to the companion rule plus a bound on
    the rounding of the sum: each term w_i f(x_i) is nonnegative and rounded
    at most `depth` times on its way into the sum, so rounding moves the sum
    by at most depth * eps of itself.  The two rules' sums can round to the
    same double, so without the bound a rate one ulp off could claim error 0.
    Sums over the atoms of step laws alone are exact.
    """
    bits, depth = expectation(_RULE_ORDER)
    if all(step_atoms(d) is not None for d in laws):
        return RateValue(bits, "closed_form", 0.0)
    rounding = depth * _EPS * abs(bits)
    return RateValue(bits, "quadrature", abs(bits - expectation(_COMPANION_ORDER)[0]) + rounding)


def ergodic_rate(d: GainDistribution, power: float) -> RateValue:
    """Ergodic rate E[C(H * power)] of a single fading link.

    A step law is summed exactly over its atoms, a RatioLaw over the product
    of its parts' rules, and any other gain by 24-point Gauss-Legendre in
    quantile space on 22 panels of each segment between its quantile's jumps
    (distributions.law_nodes); the error is the 12-point companion's distance.
    """
    _check_nonnegative("power", power)

    def expectation(order) -> tuple[float, int]:
        x, w = law_nodes(d, order)
        return float(w @ c_of(power * x)), x.size

    return _rate(expectation, d)


def pair_sum_rate(
    d_a: GainDistribution, power_a: float, d_b: GainDistribution, power_b: float
) -> RateValue:
    """E[C(Ha * Pa + Hb * Pb)] for independent gains.

    The tensor product of the two laws' rules (distributions.law_nodes):
    exact over a step law's atoms, and the quantile-space Gauss-Legendre rule
    of ergodic_rate along any other gain, with the same companion error
    estimate.
    """
    _check_nonnegative("power_a", power_a)
    _check_nonnegative("power_b", power_b)

    def expectation(order) -> tuple[float, int]:
        (xa, wa), (xb, wb) = law_nodes(d_a, order), law_nodes(d_b, order)
        # the grid of C values in blocks of rows: an Empirical can carry ~1e6 atoms
        step = max(1, _BLOCK // xb.size)
        total = 0.0
        for i in range(0, xa.size, step):
            grid = c_of(np.add.outer(power_a * xa[i:i + step], power_b * xb))
            total += wa[i:i + step] @ grid @ wb
        # each term is rounded along its row, its column and the sum over blocks
        return float(total), xa.size + xb.size + math.ceil(xa.size / step)

    return _rate(expectation, d_a, d_b)


@dataclass(frozen=True)
class RateRegion:
    """Intersection of half-planes a1*R1 + a2*R2 <= b in the nonnegative quadrant.

    Vertices are the extreme points, listed counterclockwise starting from the
    lexicographically smallest (the origin for any nonempty region here).
    """

    constraints: tuple  # of (a1, a2, b)
    vertices: tuple     # of (r1, r2)

    def contains(self, r1: float, r2: float, tol: float = _VERTEX_TOL) -> bool:
        if r1 < -tol or r2 < -tol:
            return False
        return all(a1 * r1 + a2 * r2 <= b + tol for a1, a2, b in self.constraints)

    def to_json(self) -> dict:
        return {
            "constraints": [{"a1": a1, "a2": a2, "b": b} for a1, a2, b in self.constraints],
            "vertices": [[r1, r2] for r1, r2 in self.vertices],
        }


def region_from_constraints(constraints) -> RateRegion:
    """Enumerate vertices of the intersection by pairwise boundary intersection."""
    cons = [(float(a1), float(a2), float(b)) for a1, a2, b in constraints]
    if not cons:
        raise ValueError("need at least one rate constraint")
    if not all(math.isfinite(v) for con in cons for v in con):
        raise ValueError(f"rate constraints must be finite, got {cons}")
    lines = [(a1, a2, b) for a1, a2, b in cons] + [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    # the axis lines stand in for the R1 >= 0 / R2 >= 0 boundaries
    candidates = []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            a1, b1, c1 = lines[i]
            a2, b2, c2 = lines[j]
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-12:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            candidates.append((x, y))
    feasible = []
    for x, y in candidates:
        if x < -_VERTEX_TOL or y < -_VERTEX_TOL:
            continue
        if all(a1 * x + a2 * y <= b + _VERTEX_TOL for a1, a2, b in cons):
            feasible.append((max(x, 0.0) + 0.0, max(y, 0.0) + 0.0))
    if not feasible:
        raise ValueError("rate region is empty")
    unique: list[tuple[float, float]] = []
    for pt in feasible:
        if not any(abs(pt[0] - q[0]) <= _VERTEX_TOL and abs(pt[1] - q[1]) <= _VERTEX_TOL
                   for q in unique):
            unique.append(pt)
    if len(unique) > 2:
        cx = sum(p[0] for p in unique) / len(unique)
        cy = sum(p[1] for p in unique) / len(unique)
        unique.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    start = unique.index(min(unique))
    ordered = unique[start:] + unique[:start]
    return RateRegion(constraints=tuple(cons), vertices=tuple(ordered))


def _admit(report: ClassificationReport, condition: str, force: bool) -> None:
    """The gate of every capacity expression: `report`, the caller's verdict on
    the scenario, must be on `condition` and must hold unless forced."""
    if report.condition != condition:
        raise ValueError(f"expected a {condition} report, got {report.condition}")
    if not report.verdict and not force:
        raise UnclassifiedScenarioError(report)


def strong_ic_region(s: ICScenario, report: ClassificationReport,
                     force: bool = False) -> RateRegion:
    """Capacity region under strong interference: the intersection of the two
    three-constraint multiple-access regions, one per receiver."""
    _admit(report, "strong_interference", force)
    constraints = []
    for gain_1, gain_2 in ((s.h11, s.h12), (s.h21, s.h22)):
        r1 = ergodic_rate(gain_1, s.p1).bits
        r2 = ergodic_rate(gain_2, s.p2).bits
        rsum = pair_sum_rate(gain_1, s.p1, gain_2, s.p2).bits
        constraints += [(1.0, 0.0, r1), (0.0, 1.0, r2), (1.0, 1.0, rsum)]
    return region_from_constraints(constraints)


def very_strong_ic_region(s: ICScenario, report: ClassificationReport,
                          force: bool = False) -> RateRegion:
    """Capacity region under very strong interference: the interference-free
    rectangle R1 <= E[C(H11 P1)], R2 <= E[C(H22 P2)]."""
    _admit(report, "very_strong_interference", force)
    r1 = ergodic_rate(s.h11, s.p1).bits
    r2 = ergodic_rate(s.h22, s.p2).bits
    return region_from_constraints([(1.0, 0.0, r1), (0.0, 1.0, r2)])


def wtc_secrecy_capacity(s: WTCScenario, report: ClassificationReport,
                         force: bool = False) -> RateValue:
    """Ergodic secrecy capacity E[C(H P)] - E[C(G P)] of the degraded wiretap channel.

    Linearity of the expectation makes the coupling irrelevant to the value;
    degradedness guarantees nonnegativity, so a negative value raises rather
    than being clamped.  It is closed-form when both of its rates are.
    """
    _admit(report, "degraded_wiretap", force)
    top = ergodic_rate(s.legitimate, s.power)
    bottom = ergodic_rate(s.eavesdropper, s.power)
    bits = top.bits - bottom.bits
    err = top.error_estimate + bottom.error_estimate
    if report.verdict and bits < -1e-9:
        raise RuntimeError("degraded wiretap channel produced a negative secrecy rate")
    method = "closed_form" if top.method == bottom.method == "closed_form" else "quadrature"
    return RateValue(bits, method, err)
