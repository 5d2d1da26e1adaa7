"""Equivalent-channel couplings: maximal coupling, comonotone coupling, min-copula.

All three constructions keep the two marginal laws fixed while forcing a
trichotomy order onto the realized pairs.  The maximal coupling splits each
marginal into a shared component (the pointwise-minimum density, normalized)
and a residual; the comonotone coupling feeds one uniform through both
generalized inverses; the copula route fixes the joint CDF to the
Frechet-Hoeffding upper bound min{F1, F2}, which generates the same joint law
as the comonotone coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import GainDistribution, _invert_cdf
from .stochastic_order import DensitySegment, density_segments

__all__ = [
    "CouplingSample",
    "MaximalCouplingSpec",
    "maximal_coupling_spec",
    "maximal_coupling_sample",
    "maximal_coupling_samples",
    "comonotone_sample",
    "comonotone_samples",
    "copula_joint_cdf",
    "copula_joint_ccdf",
    "min_copula",
    "product_copula",
    "CopulaAxiomReport",
    "verify_copula_axioms",
    "residual_supports_separated",
]


@dataclass(frozen=True)
class CouplingSample:
    """One coupled draw (h1, h2); equal_flag is the shared-component indicator
    and is only present for the maximal coupling."""

    h1: float
    h2: float
    equal_flag: bool | None = None


class _PiecewiseMinCdf:
    """Exact unnormalized CDF of min(f1, f2), piecewise between density crossings."""

    def __init__(self, d1: GainDistribution, d2: GainDistribution,
                 segments: list[DensitySegment]):
        self._d1 = d1
        self._d2 = d2
        self.lo = np.array([s.lo for s in segments])
        self.first = np.array([s.min_is_first for s in segments])
        self._cdf1_lo = np.asarray(d1.cdf(self.lo), dtype=float)
        self._cdf2_lo = np.asarray(d2.cdf(self.lo), dtype=float)
        hi_cdf1 = np.append(self._cdf1_lo[1:], 1.0)
        hi_cdf2 = np.append(self._cdf2_lo[1:], 1.0)
        incr = np.where(self.first, hi_cdf1 - self._cdf1_lo, hi_cdf2 - self._cdf2_lo)
        self._prefix = np.concatenate([[0.0], np.cumsum(incr)])
        self.total = float(self._prefix[-1])

    def unnorm(self, x):
        x_arr = np.asarray(x, dtype=float)
        j = np.clip(np.searchsorted(self.lo, x_arr, side="right") - 1, 0, self.lo.size - 1)
        fx = np.where(
            self.first[j],
            np.asarray(self._d1.cdf(x_arr), dtype=float),
            np.asarray(self._d2.cdf(x_arr), dtype=float),
        )
        flo = np.where(self.first[j], self._cdf1_lo[j], self._cdf2_lo[j])
        out = self._prefix[j] + fx - flo
        out = np.where(x_arr <= 0.0, 0.0, out)
        return np.clip(out, 0.0, self.total)


class MaximalCouplingSpec:
    """Precomputed decomposition f_k = p * (f_min / p) + (1 - p) * residual_k.

    p is the overlap mass of the two densities; the shared component and the
    two residual CDFs are evaluated exactly piecewise between the density
    crossings, so the mixture reconstructs each marginal CDF identically.
    """

    def __init__(self, d1: GainDistribution, d2: GainDistribution):
        for d in (d1, d2):
            if not d.continuous:
                raise ValueError(
                    "maximal coupling requires continuous densities; the comonotone "
                    "and copula constructions handle discrete gains"
                )
        self.d1 = d1
        self.d2 = d2
        self.segments = density_segments(d1, d2)
        self._fmin = _PiecewiseMinCdf(d1, d2, self.segments)
        self.p = 1.0 if d1 == d2 else float(min(max(self._fmin.total, 0.0), 1.0))

    # -- exact component CDFs -------------------------------------------------

    def shared_cdf(self, x):
        if self.p <= 0.0:
            raise ValueError("shared component is empty (p = 0)")
        return np.asarray(self._fmin.unnorm(x)) / self.p

    def residual_cdf(self, which: int, x):
        if self.p >= 1.0:
            raise ValueError("residual components are empty (p = 1)")
        d = self.d1 if which == 1 else self.d2
        raw = np.asarray(d.cdf(x), dtype=float) - np.asarray(self._fmin.unnorm(x))
        return np.clip(raw / (1.0 - self.p), 0.0, 1.0)

    def shared_quantile(self, u):
        return _invert_cdf(self.shared_cdf, u)

    def residual_quantile(self, which: int, u):
        return _invert_cdf(lambda x: self.residual_cdf(which, x), u)


def maximal_coupling_spec(d1: GainDistribution, d2: GainDistribution) -> MaximalCouplingSpec:
    return MaximalCouplingSpec(d1, d2)


def maximal_coupling_sample(spec: MaximalCouplingSpec, u_select: float, u_value: float) -> CouplingSample:
    """One maximal-coupling draw from two independent uniforms.

    u_select <= p lands in the shared component (h1 = h2 exactly); otherwise
    both residuals are inverted at the same u_value, which is allowed because
    only the marginals are constrained and keeps the sampler deterministic.
    """
    h1, h2, eq = maximal_coupling_samples(spec, np.array([u_select]), np.array([u_value]))
    return CouplingSample(h1=float(h1[0]), h2=float(h2[0]), equal_flag=bool(eq[0]))


def maximal_coupling_samples(spec: MaximalCouplingSpec, u_select, u_value):
    """Vectorized maximal-coupling draws; returns (h1, h2, equal_flag) arrays."""
    u_select = np.asarray(u_select, dtype=float)
    u_value = np.asarray(u_value, dtype=float)
    if np.any((u_select <= 0) | (u_select >= 1) | (u_value <= 0) | (u_value >= 1)):
        raise ValueError("uniform variates must lie strictly inside (0, 1)")
    equal = u_select <= spec.p
    h1 = np.empty_like(u_value)
    h2 = np.empty_like(u_value)
    if spec.p >= 1.0:
        shared = np.asarray(spec.d1.quantile(u_value))
        return shared, shared.copy(), np.ones_like(u_value, dtype=bool)
    if np.any(equal):
        shared = spec.shared_quantile(u_value[equal])
        h1[equal] = shared
        h2[equal] = shared
    if np.any(~equal):
        h1[~equal] = spec.residual_quantile(1, u_value[~equal])
        h2[~equal] = spec.residual_quantile(2, u_value[~equal])
    return h1, h2, equal


def comonotone_sample(d1: GainDistribution, d2: GainDistribution, u: float) -> CouplingSample:
    """Both coordinates from one shared uniform through the generalized inverses."""
    if not (0.0 < u < 1.0):
        raise ValueError("uniform variate must lie strictly inside (0, 1)")
    return CouplingSample(h1=float(d1.quantile(u)), h2=float(d2.quantile(u)))


def comonotone_samples(d1: GainDistribution, d2: GainDistribution, u):
    u = np.asarray(u, dtype=float)
    if np.any((u <= 0.0) | (u >= 1.0)):
        raise ValueError("uniform variates must lie strictly inside (0, 1)")
    return np.asarray(d1.quantile(u)), np.asarray(d2.quantile(u))


def copula_joint_cdf(d1: GainDistribution, d2: GainDistribution, h1, h2):
    """Joint CDF min{F1(h1), F2(h2)}: the Frechet-Hoeffding upper bound
    evaluated on the two marginals."""
    return np.minimum(np.asarray(d1.cdf(h1)), np.asarray(d2.cdf(h2)))


def copula_joint_ccdf(d1: GainDistribution, d2: GainDistribution, h1, h2):
    """Companion joint CCDF min{ccdf1(h1), ccdf2(h2)} of the same coupling."""
    return np.minimum(np.asarray(d1.ccdf(h1)), np.asarray(d2.ccdf(h2)))


def min_copula(u, v):
    return np.minimum(u, v)


def product_copula(u, v):
    return np.multiply(u, v)


@dataclass(frozen=True)
class CopulaAxiomReport:
    passed: bool
    grounded_ok: bool        # C(u,0) = 0 = C(0,v)
    margins_ok: bool         # C(u,1) = u and C(1,v) = v
    two_increasing_ok: bool
    first_violation: tuple | None = None  # (u1, u2, v1, v2, volume) or boundary point

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "grounded_ok": self.grounded_ok,
            "margins_ok": self.margins_ok,
            "two_increasing_ok": self.two_increasing_ok,
            "first_violation": list(self.first_violation) if self.first_violation else None,
        }


def verify_copula_axioms(candidate: Callable = min_copula, grid_u=None,
                         tol: float = 1e-12) -> CopulaAxiomReport:
    """Check the two-dimensional copula axioms for a candidate C(u, v) on a grid.

    Axioms: groundedness C(u,0) = 0 = C(0,v); uniform margins C(u,1) = u,
    C(1,v) = v; and nonnegative volume on every grid rectangle.  Any rectangle
    decomposes into unit grid cells, so checking all adjacent cells decides
    all rectangles.
    """
    if grid_u is None:
        grid_u = np.linspace(0.0, 1.0, 64)
    g = np.asarray(grid_u, dtype=float)
    if np.any(np.diff(g) <= 0) or g[0] < 0.0 or g[-1] > 1.0:
        raise ValueError("grid must be sorted inside [0, 1]")

    first_violation = None
    grounded = np.max(np.abs(candidate(g, np.zeros_like(g)))) <= tol
    grounded &= np.max(np.abs(candidate(np.zeros_like(g), g))) <= tol
    if not grounded and first_violation is None:
        bad = np.argmax(np.abs(candidate(g, np.zeros_like(g))))
        first_violation = (float(g[bad]), 0.0, float(candidate(g[bad], 0.0)))

    margins = np.max(np.abs(candidate(g, np.ones_like(g)) - g)) <= tol
    margins &= np.max(np.abs(candidate(np.ones_like(g), g) - g)) <= tol
    if not margins and first_violation is None:
        vals = candidate(g, np.ones_like(g))
        bad = np.argmax(np.abs(vals - g))
        first_violation = (float(g[bad]), 1.0, float(np.asarray(vals)[bad]))

    uu, vv = np.meshgrid(g, g, indexing="ij")
    c = np.asarray(candidate(uu, vv), dtype=float)
    volume = c[1:, 1:] - c[1:, :-1] - c[:-1, 1:] + c[:-1, :-1]
    two_increasing = bool(np.all(volume >= -tol))
    if not two_increasing and first_violation is None:
        i, j = np.unravel_index(np.argmin(volume), volume.shape)
        first_violation = (
            float(g[i]), float(g[i + 1]), float(g[j]), float(g[j + 1]), float(volume[i, j])
        )

    return CopulaAxiomReport(
        passed=bool(grounded and margins and two_increasing),
        grounded_ok=bool(grounded),
        margins_ok=bool(margins),
        two_increasing_ok=two_increasing,
        first_violation=first_violation,
    )


def residual_supports_separated(d1: GainDistribution, d2: GainDistribution,
                                resolution: float = 1e-9) -> bool:
    """True iff the residual density of d1 lives entirely below that of d2.

    The residual of d1 is (f1 - f_min)+, supported where f1 > f2; equality of
    the supports' boundary counts as separated.  Identical inputs have empty
    residuals and are vacuously separated.
    """
    if d1 == d2:
        return True
    segments = density_segments(d1, d2)
    sup_res1 = -math.inf
    inf_res2 = math.inf
    for seg in segments:
        if seg.min_is_first:
            # f1 is the minimum here, so the residual of d2 lives on this piece
            inf_res2 = min(inf_res2, seg.lo)
        else:
            sup_res1 = max(sup_res1, seg.hi)
    if math.isinf(sup_res1) and sup_res1 < 0:
        return True  # empty residual for d1
    return sup_res1 <= inf_res2 + resolution
