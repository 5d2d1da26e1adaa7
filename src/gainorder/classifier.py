"""Topology-level classification from channel statistics alone.

Each classifier applies a sufficient condition expressed through the usual
stochastic order: a broadcast channel is degraded when the user gains chain
up, an interference channel has strong interference when each cross gain
dominates the matching direct gain, very strong interference when the
interference-to-signal ratios dominate the direct gains, and a wiretap
channel is degraded when the legitimate gain dominates the eavesdropper's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .distributions import (
    MAX_RATIO_SHAPE,
    Exponential,
    GainDistribution,
    PointMass,
    RatioExpExp,
    RatioLaw,
    _check_nonnegative,
    _check_positive,
    _Checked,
    _param,
    gamma_law,
)
from .stochastic_order import OrderVerdict, Relation, _empirical_parts, check_usual_order

__all__ = [
    "BCScenario",
    "ICScenario",
    "WTCScenario",
    "ClassificationReport",
    "classify_bc",
    "classify_ic_strong",
    "classify_ic_very_strong",
    "classify_wtc",
    "interference_ratio_distribution",
]

INDEPENDENT = "independent"
COMONOTONE = "comonotone"


@dataclass(frozen=True)
class BCScenario(_Checked):
    """K-user broadcast channel: one gain distribution per user, total power."""

    gains: tuple
    power: float = _param(_check_positive)

    def __post_init__(self):
        if len(self.gains) < 2:
            raise ValueError("broadcast scenario needs at least 2 users")
        super().__post_init__()


@dataclass(frozen=True)
class ICScenario(_Checked):
    """Two-user interference channel; h_jk is the gain from transmitter k to receiver j.

    Zero powers are allowed as degenerate corners (they collapse the rate
    expressions to zero and make the interference ratios trivial).
    """

    h11: GainDistribution
    h12: GainDistribution
    h21: GainDistribution
    h22: GainDistribution
    p1: float = _param(_check_nonnegative)
    p2: float = _param(_check_nonnegative)
    dependence: str = INDEPENDENT

    def __post_init__(self):
        super().__post_init__()
        if self.dependence not in (INDEPENDENT, COMONOTONE):
            raise ValueError(f"unknown dependence mode {self.dependence!r}")


@dataclass(frozen=True)
class WTCScenario(_Checked):
    """Wiretap channel: legitimate gain, eavesdropper gain, transmit power."""

    legitimate: GainDistribution
    eavesdropper: GainDistribution
    power: float = _param(_check_positive)


@dataclass(frozen=True)
class ClassificationReport:
    """The order checks behind a condition, and the verdict read off them: the
    condition holds when there is a check and each has its first law below
    its second.  A failed degraded-chain search reports its incomparable pair."""

    topology: str
    condition: str
    order_checks: list = field(default_factory=list)  # (name, OrderVerdict) pairs
    witnesses: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    confidence: str = "analytic"  # "statistical" when a gain rests on an Empirical sample
    permutation: tuple | None = None  # degraded BC user order, weakest first (1-based)

    @property
    def verdict(self) -> bool:
        return bool(self.order_checks) and all(v.first_leq for _, v in self.order_checks)

    def to_json(self) -> dict:
        out = {
            "topology": self.topology,
            "verdict": self.verdict,
            "condition": self.condition,
            "order_checks": [
                {"name": name, **verdict.to_json()} for name, verdict in self.order_checks
            ],
            "witnesses": list(self.witnesses),
            "confidence": self.confidence,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        if self.permutation is not None:
            out["permutation"] = list(self.permutation)
        return out


def _confidence(*gains: GainDistribution) -> str:
    """"statistical" when a gain rests on an Empirical sample, whose order
    checks default to a Kolmogorov-Smirnov tolerance; "analytic" otherwise."""
    return "statistical" if any(_empirical_parts(*gains)) else "analytic"


def _report(topology: str, condition: str, checks: list, gains: tuple, *,
            witnesses: list | None = None, notes: list | None = None,
            permutation: tuple | None = None) -> ClassificationReport:
    """The report on (name, OrderVerdict) checks of the gains; the witnesses
    are, unless given, the points where a first law lies above its second."""
    if witnesses is None:
        witnesses = sorted({x for _, verdict in checks for x in verdict.witnesses_first_gt})
    return ClassificationReport(topology, condition, checks, witnesses, notes or [],
                                _confidence(*gains), permutation)


_BC_REGION_NOTE = (
    "degraded BC rate region = union over input splits f_VX with E[X^2] <= P_T of "
    "{R1 <= I(V;Y1|H1), R2 <= I(X;Y2|V,H2)}; the optimizing f_VX is an open problem, "
    "so the region is reported symbolically, not numerically"
)


def classify_bc(s: BCScenario, tol: float | None = None) -> ClassificationReport:
    """Search for a permutation that chains the user gains in the usual stochastic order.

    Sorting by mean is a sound pre-filter (the order implies ordered means).  If
    the sorted chain fails and K <= 6, a depth-first search over the user
    indices, each level in increasing order, extends a path only along pairs
    whose first law is below the second, and returns the lexicographically
    first chain: the first permutation that chains, without visiting the
    orders whose prefix already fails.  Past six users every pair is checked;
    when none is incomparable, each pair is ordered one way at least, so a
    chain exists (every tournament has a Hamiltonian path), and inserting the
    users in mean order into a path finds one.  Each unordered pair is
    checked once.
    """
    gains = list(s.gains)
    k = len(gains)
    verdicts = {}

    def check(i: int, j: int) -> OrderVerdict:
        # the chain search can meet a pair in both orders; one check per
        # unordered pair, the reverse read off it
        if (i, j) not in verdicts:
            if (j, i) in verdicts:
                verdicts[i, j] = verdicts[j, i].mirrored()
            else:
                verdicts[i, j] = check_usual_order(gains[i], gains[j], tol=tol)
        return verdicts[i, j]

    order = sorted(range(k), key=lambda i: gains[i].mean())
    chain = _try_chain(check, order)
    if chain is None and (k <= 6 or _find_incomparable_pair(check, k) is None):
        order = _first_chain(check, k) if k <= 6 else _inserted_chain(check, order)
        if order is not None:
            chain = _try_chain(check, order)
    if chain is not None:
        return _report("bc", "degraded_chain", chain, gains, notes=[_BC_REGION_NOTE],
                       permutation=tuple(i + 1 for i in order))
    # no chain means some pair is incomparable: were each pair ordered one way
    # at least, the search would have found a chain (Redei's theorem)
    i, j, verdict = _find_incomparable_pair(check, k)
    return _report("bc", "degraded_chain", [(f"user{i + 1}_vs_user{j + 1}", verdict)], gains,
                   witnesses=sorted({*verdict.witnesses_first_gt, *verdict.witnesses_second_gt}),
                   notes=[_BC_REGION_NOTE])


def _try_chain(check, order):
    checks = []
    for a, b in zip(order[:-1], order[1:]):
        verdict = check(a, b)
        if not verdict.first_leq:
            return None
        checks.append((f"user{a + 1}_leq_user{b + 1}", verdict))
    return checks


def _first_chain(check, k):
    """The lexicographically first order of the k users in which each law is
    below the next, or None: a depth-first search that extends a path by the
    unused users in increasing order, along check(last, j).first_leq only."""
    path = []

    def extend() -> bool:
        if len(path) == k:
            return True
        for j in range(k):
            if j not in path and (not path or check(path[-1], j).first_leq):
                path.append(j)
                if extend():
                    return True
                path.pop()
        return False

    return path if extend() else None


def _inserted_chain(check, order):
    """A path through the users of `order`, each law below the next, when no
    pair is incomparable: each user in turn goes at the front, at the end, or
    by bisection between a user below it and one above it."""
    path = []
    for j in order:
        # path[lo] lies below j (or lo = -1) and j below path[hi] (or hi is
        # past the end): a pair that is not first_leq is ordered the other way
        lo, hi = -1, len(path)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if check(path[mid], j).first_leq:
                lo = mid
            else:
                hi = mid
        path.insert(hi, j)
    return path


def _find_incomparable_pair(check, k):
    for i, j in itertools.combinations(range(k), 2):
        verdict = check(i, j)
        if verdict.relation is Relation.INCOMPARABLE:
            return i, j, verdict
    return None


def classify_ic_strong(s: ICScenario, tol: float | None = None) -> ClassificationReport:
    """Strong interference: each cross gain stochastically dominates the direct gain
    to the same receiver, with mutually independent gains."""
    if s.dependence != INDEPENDENT:
        raise ValueError("the strong-interference test requires independent channel gains")
    checks = [("h11_leq_h21", check_usual_order(s.h11, s.h21, tol=tol)),
              ("h22_leq_h12", check_usual_order(s.h22, s.h12, tol=tol))]
    return _report("ic", "strong_interference", checks, (s.h11, s.h12, s.h21, s.h22))


def interference_ratio_distribution(
    numerator: GainDistribution, denominator: GainDistribution, power: float
) -> tuple[GainDistribution, bool]:
    """Law of numerator / (1 + power * denominator) for independent gains.

    Returns (law, True): every law is exact.  A gamma numerator (exponential,
    or Nakagami-m up to m = 128) over an exponential denominator (Nakagami
    m = 1 included) and the point-mass combinations have closed forms; any
    other pair gets a RatioLaw.
    """
    if power == 0.0 or (isinstance(denominator, PointMass) and denominator.value == 0.0):
        return numerator, True
    num, den = gamma_law(numerator), gamma_law(denominator)
    if num is not None and num[0] <= MAX_RATIO_SHAPE and den is not None and den[0] == 1.0:
        return RatioExpExp(num[1], den[1], power, num_shape=num[0]), True
    if isinstance(numerator, PointMass) and isinstance(denominator, PointMass):
        return PointMass(numerator.value / (1.0 + power * denominator.value)), True
    if isinstance(numerator, Exponential) and isinstance(denominator, PointMass):
        return Exponential(numerator.mean_gain / (1.0 + power * denominator.value)), True
    return RatioLaw(numerator, denominator, power), True


_COMONOTONE_NOTE = (
    "comonotone mode: the admissible joint CDFs are pinned to "
    "min{F_Z1, F_H22} and min{F_Z2, F_H11} (one shared uniform drives both laws)"
)


def classify_ic_very_strong(s: ICScenario, tol: float | None = None) -> ClassificationReport:
    """Very strong interference: the ratio Z1 = H21/(1 + P2 H22) dominates H11 and
    Z2 = H12/(1 + P1 H11) dominates H22."""
    z1, _ = interference_ratio_distribution(s.h21, s.h22, s.p2)
    z2, _ = interference_ratio_distribution(s.h12, s.h11, s.p1)
    checks = [("h11_leq_z1", check_usual_order(s.h11, z1, tol=tol)),
              ("h22_leq_z2", check_usual_order(s.h22, z2, tol=tol))]
    notes = [_COMONOTONE_NOTE] if s.dependence == COMONOTONE else None
    return _report("ic", "very_strong_interference", checks, (s.h11, s.h12, s.h21, s.h22),
                   notes=notes)


def classify_wtc(s: WTCScenario, tol: float | None = None) -> ClassificationReport:
    """Degraded wiretap channel: the legitimate gain dominates the eavesdropper's."""
    checks = [("eavesdropper_leq_legitimate",
               check_usual_order(s.eavesdropper, s.legitimate, tol=tol))]
    return _report("wtc", "degraded_wiretap", checks, (s.legitimate, s.eavesdropper))
