"""Ergodic rate expressions attached to each successful classification.

Rates are in bits per channel use with C(x) = (1/2) log2(1 + x); the 1/2
factor is kept uniformly, including for the complex-noise interference model,
to match the convention the sufficient conditions were stated under.
Expectations over continuous gains go through adaptive quadrature against the
density; discrete gains are summed exactly; a closed form via the exponential
integral covers exponential gains.  The Monte Carlo cross-check is
verify.mc_ergodic_rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exp1

from .classifier import (
    ClassificationReport,
    ICScenario,
    WTCScenario,
    classify_ic_strong,
    classify_ic_very_strong,
    classify_wtc,
)
from .distributions import Exponential, GainDistribution, _panel_nodes

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
_VERTEX_TOL = 1e-9
_TINY = 1e-300  # Lentz floor for vanishing partial denominators
_LENTZ_EPS = 1e-16
_LENTZ_MAX_ITER = 600


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
        return {"bits": self.bits, "method": self.method, "error_estimate": self.error_estimate}


def exponential_rate_closed_form(mean_gain: float, power: float) -> float:
    """E[C(H P)] for exponential H: e^(1/(P s)) E1(1/(P s)) / (2 ln 2)."""
    if power == 0.0:
        return 0.0
    arg = 1.0 / (power * mean_gain)
    return _scaled_exp1(arg) / (2.0 * _LN2)


def _scaled_exp1(x):
    """Overflow-safe e^x E1(x) for x > 0.

    For x > 1 the modified Lentz evaluation of the continued fraction yields
    it directly, so large arguments (low SNR) never form e^x; for x <= 1 it
    is e^x times scipy's E1.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0) or np.any(~np.isfinite(x_arr)):
        raise ValueError("x must be finite and > 0")
    flat = x_arr.ravel()
    out = np.empty_like(flat)
    small = flat <= 1.0
    out[small] = np.exp(flat[small]) * exp1(flat[small])
    out[~small] = _e1_lentz_fraction(flat[~small])
    out = out.reshape(x_arr.shape)
    return out if out.ndim else float(out)


def _e1_lentz_fraction(x: np.ndarray) -> np.ndarray:
    """The continued fraction 1/(x + 1 - 1/(x + 3 - 4/(x + 5 - ...))), i.e. e^x E1(x)."""
    b = x + 1.0
    c = np.full_like(x, 1.0 / _TINY)
    d = 1.0 / b
    h = d.copy()
    live = np.arange(x.size)
    for i in range(1, _LENTZ_MAX_ITER + 1):
        an = -float(i) * float(i)
        bl = b[live] + 2.0
        b[live] = bl
        dl = an * d[live] + bl
        dl = np.where(np.abs(dl) < _TINY, _TINY, dl)
        cl = bl + an / c[live]
        cl = np.where(np.abs(cl) < _TINY, _TINY, cl)
        dl = 1.0 / dl
        delta = dl * cl
        c[live] = cl
        d[live] = dl
        h[live] *= delta
        live = live[np.abs(delta - 1.0) >= _LENTZ_EPS]
        if live.size == 0:
            break
    return h


def ergodic_rate(d: GainDistribution, power: float, method: str = "auto") -> RateValue:
    """Ergodic rate E[C(H * power)] of a single fading link.

    Discrete gains are summed exactly whatever the method; "auto" takes
    quadrature for continuous gains, and "closed_form" covers exponential ones.
    """
    if method not in ("auto", "closed_form", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if power < 0.0 or not math.isfinite(power):
        raise ValueError("power must be nonnegative and finite")
    if not math.isfinite(d.mean()):
        raise ValueError("distribution has divergent mean")
    if power == 0.0:
        return RateValue(0.0, "quadrature" if method == "quadrature" else "closed_form", 0.0)
    if not d.continuous:
        values, masses = d.atoms()
        bits = float(np.dot(masses, np.asarray(c_of(values * power))))
        return RateValue(bits, "closed_form", 0.0)
    if method == "closed_form":
        if not isinstance(d, Exponential):
            raise ValueError(f"no closed form for {type(d).__name__}")
        return RateValue(exponential_rate_closed_form(d.mean_gain, power), "closed_form", 1e-12)
    bits, err = _expectation_c(d, power)
    return RateValue(bits, "quadrature", err)


def _expectation_c(d: GainDistribution, power: float, offset: float = 0.0) -> tuple[float, float]:
    """E[C(offset + power * H)] for a continuous gain by adaptive quadrature."""

    from scipy.integrate import quad

    def integrand(x: float) -> float:
        return float(c_of(offset + power * x)) * float(d.pdf(x))

    split = d.tail_quantile(1e-12)
    v1, e1 = quad(integrand, 0.0, split, limit=300, epsabs=1e-11, epsrel=1e-11)
    v2, e2 = quad(integrand, split, np.inf, limit=300, epsabs=1e-11)
    return v1 + v2, e1 + e2


_PANEL_BREAKS = np.array(
    [0.0, 0.5, 0.9, 0.99, 0.999, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10]
)
_PANEL_BREAKS[5:] = 1.0 - _PANEL_BREAKS[5:]


def pair_sum_rate(
    d_a: GainDistribution, power_a: float, d_b: GainDistribution, power_b: float
) -> RateValue:
    """E[C(Ha * Pa + Hb * Pb)] for independent gains.

    Continuous pairs integrate on the unit square in quantile space with
    panel-refined tensor-product 64-node Gauss-Legendre rules (panels
    geometrically refined toward u = 1 where the quantiles diverge); mixtures
    with point masses split into one conditional expectation per atom.
    """
    for p in (power_a, power_b):
        if p < 0.0 or not math.isfinite(p):
            raise ValueError("powers must be nonnegative and finite")
    if power_a == 0.0:
        return ergodic_rate(d_b, power_b)
    if power_b == 0.0:
        return ergodic_rate(d_a, power_a)

    if not d_a.continuous and not d_b.continuous:
        va, ma = d_a.atoms()
        vb, mb = d_b.atoms()
        grid = np.asarray(c_of(np.add.outer(va * power_a, vb * power_b)))
        return RateValue(float(ma @ grid @ mb), "closed_form", 0.0)
    if not d_a.continuous:
        va, ma = d_a.atoms()
        total, err = 0.0, 0.0
        for v, m in zip(va, ma):
            val, e = _expectation_c(d_b, power_b, offset=v * power_a)
            total += m * val
            err += m * e
        return RateValue(total, "quadrature", err)
    if not d_b.continuous:
        return pair_sum_rate(d_b, power_b, d_a, power_a)

    nodes, weights = _panel_nodes(_PANEL_BREAKS, 64)
    qa = np.asarray(d_a.quantile(nodes)) * power_a
    qb = np.asarray(d_b.quantile(nodes)) * power_b
    values = np.asarray(c_of(np.add.outer(qa, qb)))
    bits = float(weights @ values @ weights)
    # error indicator: compare against the half-resolution rule
    bits_half = float(weights[::2] @ values[::2, ::2] @ weights[::2] * 4.0)
    return RateValue(bits, "quadrature", abs(bits - bits_half))


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


def strong_ic_region(s: ICScenario, force: bool = False) -> RateRegion:
    """Capacity region under strong interference: the intersection of the two
    three-constraint multiple-access regions, one per receiver."""
    report = classify_ic_strong(s)
    if not report.verdict and not force:
        raise UnclassifiedScenarioError(report)
    constraints = []
    for gain_1, gain_2 in ((s.h11, s.h12), (s.h21, s.h22)):
        r1 = ergodic_rate(gain_1, s.p1).bits
        r2 = ergodic_rate(gain_2, s.p2).bits
        rsum = pair_sum_rate(gain_1, s.p1, gain_2, s.p2).bits
        constraints += [(1.0, 0.0, r1), (0.0, 1.0, r2), (1.0, 1.0, rsum)]
    return region_from_constraints(constraints)


def very_strong_ic_region(s: ICScenario, force: bool = False) -> RateRegion:
    """Capacity region under very strong interference: the interference-free
    rectangle R1 <= E[C(H11 P1)], R2 <= E[C(H22 P2)]."""
    report = classify_ic_very_strong(s)
    if not report.verdict and not force:
        raise UnclassifiedScenarioError(report)
    r1 = ergodic_rate(s.h11, s.p1).bits
    r2 = ergodic_rate(s.h22, s.p2).bits
    return region_from_constraints([(1.0, 0.0, r1), (0.0, 1.0, r2)])


def wtc_secrecy_capacity(s: WTCScenario, force: bool = False) -> RateValue:
    """Ergodic secrecy capacity E[C(H P)] - E[C(G P)] of the degraded wiretap channel.

    Linearity of the expectation makes the coupling irrelevant to the value;
    degradedness guarantees nonnegativity, so a negative value raises rather
    than being clamped.
    """
    report = classify_wtc(s)
    if not report.verdict and not force:
        raise UnclassifiedScenarioError(report)
    top = ergodic_rate(s.legitimate, s.power)
    bottom = ergodic_rate(s.eavesdropper, s.power)
    bits = top.bits - bottom.bits
    err = top.error_estimate + bottom.error_estimate
    if report.verdict and bits < -1e-9:
        raise RuntimeError("degraded wiretap channel produced a negative secrecy rate")
    return RateValue(bits, "quadrature", err)
