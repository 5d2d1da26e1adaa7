"""Usual stochastic order between gain distributions, plus overlap/total-variation.

The usual stochastic order X <=_st Y holds iff the CCDF of X lies below the
CCDF of Y everywhere.  "Everywhere" is decided on a finite set of abscissae:
x = 0 and every jump point of either CDF (evaluated from both sides), plus
points that depend on the pair.  Where the extremes of the CCDF gap lie in a
known finite set, the decision is exact:
- two gamma laws (Exponential, NakagamiGain): the gap's derivative is f2 - f1,
  so its extremes sit at the density crossings, found in closed form;
- a step law (its atoms carry all of its mass) against any law: between
  atoms the gap is monotone, so the atoms suffice.
Every other pair (RatioExpExp, of any numerator shape, a RatioLaw that is
not a step law, against each other or a gamma law) adds a 4096-point log
grid, dense enough for the implemented families but blind below its first
point and between points.

The same closed-form crossings split two gamma densities into the segments
behind the maximal coupling, whose p is overlap_mass (and 1 - p
total_variation).  Only a pair with a ratio law falls back to a pdf scan with
bracketed root finding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import (
    Empirical,
    EvaluationGrid,
    GainDistribution,
    RatioLaw,
    _check_nonnegative,
    gamma_law,
    step_atoms,
)

__all__ = [
    "Relation",
    "OrderVerdict",
    "check_usual_order",
    "check_usual_order_discrete",
    "overlap_mass",
    "total_variation",
    "density_segments",
    "DensitySegment",
    "default_order_tolerance",
]

DEFAULT_TOL = 1e-9
_MAX_WITNESSES = 3


class Relation(Enum):
    FIRST_LEQ = "first_leq"
    SECOND_LEQ = "second_leq"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a usual-stochastic-order test between two distributions.

    witnesses_first_gt holds abscissae where ccdf1 exceeds ccdf2 beyond
    tolerance (evidence against first <=_st second); witnesses_second_gt the
    mirror image.  The relation is read off which of the two is empty.
    max_violation is the largest CCDF gap inconsistent with that relation.
    """

    witnesses_first_gt: tuple
    witnesses_second_gt: tuple
    max_violation: float
    tol: float

    @property
    def first_leq(self) -> bool:
        """True when the first distribution is <=_st the second (ties count)."""
        return not self.witnesses_first_gt

    @property
    def second_leq(self) -> bool:
        return not self.witnesses_second_gt

    @property
    def relation(self) -> Relation:
        if self.witnesses_first_gt:
            return Relation.INCOMPARABLE if self.witnesses_second_gt else Relation.SECOND_LEQ
        return Relation.FIRST_LEQ if self.witnesses_second_gt else Relation.EQUAL

    def mirrored(self) -> "OrderVerdict":
        """This verdict with its two distributions swapped: the verdict of the
        reverse check, which decides on the same gaps negated."""
        return OrderVerdict(self.witnesses_second_gt, self.witnesses_first_gt,
                            self.max_violation, self.tol)

    def to_json(self) -> dict:
        return {
            "relation": self.relation.value,
            "witnesses_first_gt": list(self.witnesses_first_gt),
            "witnesses_second_gt": list(self.witnesses_second_gt),
            "max_violation": self.max_violation,
            "tol": self.tol,
        }


def default_order_tolerance(d1: GainDistribution, d2: GainDistribution) -> float:
    """1e-9, or twice the KS bound of the smallest Empirical sample the laws rest on."""
    return max([DEFAULT_TOL] + [2.0 * 1.36 / math.sqrt(g.sample_size)
                                for g in _empirical_parts(d1, d2)])


def _empirical_parts(*laws: GainDistribution):
    """The Empirical samples the laws rest on, through RatioLaw parts at any depth."""
    for d in laws:
        if isinstance(d, RatioLaw):
            yield from _empirical_parts(d.numerator, d.denominator)
        elif isinstance(d, Empirical):
            yield d


def check_usual_order(
    d1: GainDistribution,
    d2: GainDistribution,
    *,
    tol: float | None = None,
) -> OrderVerdict:
    """Decide whether d1 <=_st d2, the reverse, both (equal), or neither.

    The CCDF gap is evaluated at x = 0, at every atom of either law from both
    sides, and at points that depend on the pair:
    - two gamma laws (Exponential, NakagamiGain): their density crossings,
      at most two, where the gap has its extremes; the decision is exact;
    - a step law against any law: no more points, since the gap is
      monotone between atoms; the decision is exact;
    - any other pair: the 4096-point log grid of EvaluationGrid.for_pair, up
      to the heavier law's 1 - 1e-9 quantile.
    """
    if tol is None:
        tol = default_order_tolerance(d1, d2)
    _check_nonnegative("tolerance", tol)
    points = _extreme_points(d1, d2)
    if points is None:
        points = EvaluationGrid.for_pair(d1, d2).as_array()

    xs, c1, c2 = _ccdf_eval_points(d1, d2, points)
    return _verdict_from_gaps(xs, c1 - c2, tol)


def _extreme_points(d1: GainDistribution, d2: GainDistribution) -> np.ndarray | None:
    """The points besides 0 and the atoms at which the CCDF gap of the pair
    attains its extremes, or None when they are not known in closed form."""
    shape_rates = _gamma_shape_rate(d1), _gamma_shape_rate(d2)
    if None not in shape_rates:
        return _gamma_crossings(*shape_rates)
    if step_atoms(d1) is not None or step_atoms(d2) is not None:
        # between consecutive atoms of either law the step law's ccdf is
        # constant and the other's nonincreasing, so the gap is monotone there
        return np.empty(0)
    return None


def _gamma_shape_rate(d: GainDistribution) -> tuple[float, float] | None:
    """(shape, rate) of a gamma law; None for any other law."""
    law = gamma_law(d)
    return None if law is None else (law[0], law[0] / law[1])


def _gamma_crossings(first: tuple[float, float], second: tuple[float, float]) -> np.ndarray:
    """The abscissae x > 0 where the densities of two gamma laws cross.

    With (shape, rate) = (k1, r1) and (k2, r2), ln f1 - ln f2 = a ln x + b x + c
    for a = k1 - k2, b = r2 - r1, so there are at most two crossings: x = -c/b
    when a = 0, and otherwise x = y/q = e^(-c/a - y) with q = b/a and
    y e^y = q e^(-c/a), so y = W_k(q e^(-c/a)) on the branches k = 0 and, when
    q < 0, k = -1 of the Lambert W function (Corless et al., 1996).  The branch
    is decided on L = ln|q| - c/a, so e^(-c/a) is never formed: for q > 0,
    y = omega(L), the Wright omega function; for q < 0 there are crossings only
    when L < -1.
    """
    # from the pair in a fixed order, so the reverse pair gets the same bits
    a, b, c = _log_density_ratio(*sorted((first, second)))
    if a == 0.0:
        xs = [-c / b] if b != 0.0 else []
    else:
        q = b / a
        if q == 0.0:
            ys = [0.0]
        else:
            from scipy.special import lambertw, wrightomega

            log_z = math.log(abs(q)) - c / a
            if q > 0.0:
                ys = [float(wrightomega(log_z))]
            elif log_z < -1.0:
                ys = [lambertw(-math.exp(log_z), 0).real, _lambert_w_lower(log_z)]
            else:
                ys = []
        # y/q keeps the digits where y is large; e^(-c/a - y) where y is small,
        # and may have underflowed
        xs = [y / q if abs(y) > 1.0 else _exp(-c / a - y) for y in ys]
    return np.array(sorted(x for x in xs if 0.0 < x < math.inf))


def _log_density_ratio(first: tuple[float, float],
                       second: tuple[float, float]) -> tuple[float, float, float]:
    """(a, b, c) with ln f1(x) - ln f2(x) = a ln x + b x + c for two gamma laws
    given as (shape, rate); swapping the laws negates all three exactly."""
    (k1, r1), (k2, r2) = first, second
    c = (k1 * math.log(r1) - math.lgamma(k1)) - (k2 * math.log(r2) - math.lgamma(k2))
    return k1 - k2, r2 - r1, c


def _exp(t: float) -> float:
    """e^t, or inf where that overflows."""
    return math.exp(t) if t < 709.0 else math.inf


def _lambert_w_lower(log_z: float) -> float:
    """W_{-1}(-e^L) for L < -1: scipy's lambertw while e^L is a normal double,
    else Newton steps on y + ln(-y) = L from its asymptote L - ln(-L)."""
    if log_z > -700.0:
        from scipy.special import lambertw

        return lambertw(-math.exp(log_z), -1).real
    y = log_z - math.log(-log_z)
    for _ in range(3):
        y -= (y + math.log(-y) - log_z) / (1.0 + 1.0 / y)
    return y


def _verdict_from_gaps(xs: np.ndarray, diff: np.ndarray, tol: float) -> OrderVerdict:
    """Verdict from the tail gaps diff = tail1 - tail2 evaluated at abscissae xs."""
    # evidence against first <=_st second, and against second <=_st first;
    # adding 0.0 turns a -0.0 into 0.0, so the verdict reads the same from either side
    gap1 = float(np.max(diff)) + 0.0
    gap2 = float(np.max(-diff)) + 0.0
    if not (math.isfinite(gap1) and math.isfinite(gap2)):
        # a NaN gap exceeds no tolerance: it would read as evidence of no gap
        raise ValueError(f"the CCDF gaps must be finite, got extremes {gap1!r} and {-gap2!r}")
    wit1 = _top_witnesses(xs, diff, tol)
    wit2 = _top_witnesses(xs, -diff, tol)
    if wit1 and wit2:  # incomparable: the gap against the nearer order
        violation = min(gap1, gap2)
    else:  # the largest gap against an order that holds
        violation = max([0.0] + [gap for gap, wit in ((gap1, wit1), (gap2, wit2)) if not wit])
    return OrderVerdict(wit1, wit2, violation, tol)


def _ccdf_eval_points(d1, d2, points: np.ndarray):
    """The abscissae 0, points and the atoms of either law, with both laws'
    ccdfs there; the left limits at the atoms are appended."""
    first, second = d1._atom_table[0], d2._atom_table[0]
    atoms = np.union1d(first, second) if first.size or second.size else first
    xs = np.unique(np.concatenate([[0.0], points, atoms]))
    c1 = np.asarray(d1.ccdf(xs), dtype=float)
    c2 = np.asarray(d2.ccdf(xs), dtype=float)
    if atoms.size:
        # left limits Pr(X >= a) at every jump point of either cdf
        xs = np.concatenate([xs, atoms])
        c1 = np.concatenate([c1, np.atleast_1d(d1.ccdf_left(atoms))])
        c2 = np.concatenate([c2, np.atleast_1d(d2.ccdf_left(atoms))])
    return xs, c1, c2


def _top_witnesses(xs: np.ndarray, gaps: np.ndarray, tol: float) -> tuple:
    over = np.flatnonzero(gaps > tol)
    if over.size == 0:
        return ()
    ranked = over[np.argsort(gaps[over])[::-1][:_MAX_WITNESSES]]
    # an atom can rank twice, from the right and as a left limit
    return tuple(sorted({float(xs[i]) for i in ranked}))


def check_usual_order_discrete(p, q, tol: float = 1e-12) -> OrderVerdict:
    """Usual stochastic order between two pmfs over a shared increasing state index.

    FirstLeq iff every tail sum of p is below the matching tail sum of q:
    sum_{j>n} p_j <= sum_{j>n} q_j for all n.
    """
    _check_nonnegative("tolerance", tol)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("probability vectors must be one-dimensional and equally long")
    for name, vec in (("p", p), ("q", q)):
        if not np.all(vec >= 0.0):  # NaN is not >= 0 either
            raise ValueError(f"{name} has negative or NaN entries")
        if abs(vec.sum() - 1.0) > 1e-12:
            raise ValueError(f"{name} does not sum to 1 (got {vec.sum()!r})")

    idx = np.arange(1, p.size + 1, dtype=float)  # 1-based state index n
    return _verdict_from_gaps(idx, _tail_sums(p) - _tail_sums(q), tol)


def _tail_sums(vec: np.ndarray) -> np.ndarray:
    """tail_sums(v)[n-1] = sum_{j > n} v_j, n = 1..len(v); last entry is 0."""
    return (vec.sum() - np.cumsum(vec)).clip(min=0.0)


# -- density overlap ----------------------------------------------------------


@dataclass(frozen=True)
class DensitySegment:
    """Interval (lo, hi) on which one density lies pointwise below the other."""

    lo: float
    hi: float  # may be +inf
    min_is_first: bool


def density_segments(d1: GainDistribution, d2: GainDistribution) -> list[DensitySegment]:
    """Partition the union support at the density crossings of two continuous laws.

    For two gamma laws the bounds are the closed-form crossings that
    check_usual_order uses, the same bits for either order of the pair, and
    the lower density on each segment is the sign of ln f1 - ln f2 at an
    inner point, which does not underflow.  A pair with a ratio law
    (RatioExpExp, a continuous RatioLaw) has no closed form: its crossings are
    sign changes of f1 - f2 on a 4096-point log grid up to the heavier law's
    1 - 1e-12 quantile, refined by bracketed bisection to 1e-12.  That scan
    misses a crossing pair inside one cell and crossings outside its range.
    """
    _require_continuous(d1, d2)
    shape_rates = _gamma_shape_rate(d1), _gamma_shape_rate(d2)
    if None in shape_rates:
        crossings, x_max = _scanned_crossings(d1, d2)

        def first_is_lower(x: float) -> bool:
            return float(d1.pdf(x)) <= float(d2.pdf(x))
    else:
        crossings, x_max = _gamma_crossings(*shape_rates).tolist(), 1.0
        a, b, c = _log_density_ratio(*shape_rates)

        def first_is_lower(x: float) -> bool:
            # a first segment below the least subnormal holds no inner double
            return a * math.log(max(x, 5e-324)) + b * x + c <= 0.0

    bounds = [0.0, *crossings, math.inf]
    # each segment is judged at its midpoint; the last at (lo + x_max) / 2 past lo
    return [DensitySegment(lo, hi, first_is_lower(lo + 0.5 * (min(hi, 2.0 * lo + x_max) - lo)))
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _scanned_crossings(d1: GainDistribution, d2: GainDistribution) -> tuple[list, float]:
    """The density crossings of a pair without a closed form, and the upper
    end x_max of the scan that finds them."""
    from scipy.optimize import brentq

    x_max = max(d1.tail_quantile(1e-12), d2.tail_quantile(1e-12))
    pts = np.concatenate([[0.0], np.geomspace(x_max * 1e-15, x_max, 4096)])
    with np.errstate(over="ignore", invalid="ignore"):
        diff = np.asarray(d1.pdf(pts), dtype=float) - np.asarray(d2.pdf(pts), dtype=float)
    diff = np.nan_to_num(diff, nan=0.0, posinf=np.inf, neginf=-np.inf)

    def gap(t: float) -> float:
        return float(d1.pdf(t)) - float(d2.pdf(t))

    crossings: list[float] = []
    sign = np.sign(diff)
    for i in range(len(pts) - 1):
        if sign[i] != 0.0 and sign[i + 1] != 0.0 and sign[i] != sign[i + 1]:
            crossings.append(float(brentq(gap, pts[i], pts[i + 1], xtol=1e-13, rtol=1e-15)))
    # drop degenerate slivers from endpoint artifacts
    return [c for c in crossings if c > 1e-13 * x_max], x_max


def overlap_mass(d1: GainDistribution, d2: GainDistribution) -> float:
    """Integral of min(f1, f2) over the union support: the maximal coupling's p.

    Between consecutive density crossings the minimum is a single density, so
    each piece integrates exactly as a CDF increment of that density; the only
    numerical work is locating the crossings.
    """
    # imported here, as the coupling module imports this one
    from .coupling import MaximalCouplingSpec

    return MaximalCouplingSpec(d1, d2).p


def total_variation(d1: GainDistribution, d2: GainDistribution) -> float:
    """Total variation distance 1 - integral of the pointwise minimum density."""
    return 1.0 - overlap_mass(d1, d2)


def _require_continuous(d1, d2):
    for d in (d1, d2):
        if not d.continuous:
            raise ValueError(
                f"{type(d).__name__} has no density; overlap, total variation and the "
                "maximal coupling are defined for continuous laws only, and the "
                "comonotone and copula constructions handle discrete gains"
            )
