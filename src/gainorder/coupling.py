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

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (GainDistribution, _hermite_inverse, _invert_cdf, _open_unit,
                            _panel_nodes, _table_levels)
from .stochastic_order import DensitySegment, density_segments

__all__ = [
    "MaximalCouplingSpec",
    "maximal_coupling_spec",
    "maximal_coupling_samples",
    "comonotone_samples",
    "copula_joint_cdf",
    "copula_joint_ccdf",
    "min_copula",
    "product_copula",
    "CopulaAxiomReport",
    "verify_copula_axioms",
    "residual_supports_separated",
]


class _PiecewiseMinCdf:
    """Exact unnormalized CDFs of min(f1, f2) and of the two residuals (f_k - f_min),
    piecewise between density crossings.

    On segment j one density is the minimum, so the shared mass below x is
    prefix[j] + F_min(x) - F_min(lo_j), and residual k grows by
    (F_k(x) - F_k(lo_j)) - (F_o(x) - F_o(lo_j)) where f_k is the larger density
    and stays constant elsewhere.  The residual's difference is taken before
    it is added to the cumulative mass, so it reads exactly 0 at the start of
    its support.  Each point evaluates only the one or two marginal cdfs its
    segment needs.

    Just above an interior crossing both rises are O(x - lo_j) while the
    residual mass is O((x - lo_j)^2), so their difference would carry a few
    ulps of 1 in absolute rounding noise and set the quantiles of levels
    below about 1e-15.  On the first 1/16 of such a segment (at most lo_j/16
    long, far from the singularity of a density at 0) the residual mass is
    instead the 8-node Gauss-Legendre integral of f_k - f_o, which keeps its
    relative precision.

    Rounding.  Each value is a signed sum of O(1) marginal cdf values, each
    entering once: those at x and at the bounds of the segments before x's
    that the component grows on.  Let d(y) be the sum of the absolute errors of
    the float marginal cdfs at y, and let each float addition round by at most
    2^-53 (its results stay below 2).  Residual k at x on a segment it lives on
    is off by at most
        E(x) = d(x) + d(lo_j) + 4 * 2^-53 + sum over the earlier segments it
               lives on of (d(lo_i) + d(hi_i) + 4 * 2^-53),
    four additions at x and four in each prefix term (two rises, their
    difference, the running sum); elsewhere it is its prefix alone.  The
    shared mass subtracts one marginal per segment, with two additions at x
    and two per earlier segment.  A component's mass M is the same sum over
    all of its segments, off by at most E_M, the matching sum of bounds; so
    its normalized cdf reads within E(x) / M + cdf(x) E_M / M + 2^-53 of its
    true value.  Along a segment only d(x) and the additions at x vary, so
    the cdf wobbles by about 2 d(x) / M around its true rise.  An exponential
    marginal adds below 2^-53 to d, scipy's gammainc up to a few dozen times
    that (measured against mpmath: 22 at m = 3/4, 38 at m = 1/2).  The
    integral near a crossing adds only a rounding relative to its own small
    value.
    """

    def __init__(self, d1: GainDistribution, d2: GainDistribution,
                 segments: list[DensitySegment]):
        self.dists = (d1, d2)
        self.lo = np.array([s.lo for s in segments])
        self.first = np.array([s.min_is_first for s in segments])
        self.cdf_lo = np.array([np.asarray(d.cdf(self.lo), dtype=float) for d in self.dists])
        rise = np.append(self.cdf_lo[:, 1:], np.ones((2, 1)), axis=1) - self.cdf_lo
        self.prefix = np.concatenate([[0.0], np.cumsum(np.where(self.first, rise[0], rise[1]))])
        self.total = float(self.prefix[-1])
        # residual k lives where the other density is the minimum
        self.live = np.array([~self.first, self.first])
        self.res_prefix = np.concatenate(
            [np.zeros((2, 1)), np.cumsum(np.where(self.live, rise - rise[::-1], 0.0), axis=1)],
            axis=1,
        )
        self.res_total = self.res_prefix[:, -1]
        self.hi = np.append(self.lo[1:], np.inf)
        # where residual k lives: the rows (lo, hi) of the segments it lives on
        # that carry mass in floats; crossings alternate the lower density, so
        # no two rows touch
        rows = np.column_stack([self.lo, self.hi])
        self.supports = tuple(rows[self.live[k] & (np.diff(self.res_prefix[k]) > 0.0)]
                              for k in (0, 1))
        self._near = np.minimum(self.lo, self.hi - self.lo) / 16.0

    def segment(self, x: np.ndarray) -> np.ndarray:
        """Index of the segment holding each x >= 0 (0 for NaN)."""
        return _cell(self.lo[1:], x)

    # unnorm and residual are kernels on flat x in [0, inf]; the parts'
    # public cdfs guard x < 0 and NaN

    def unnorm(self, xs: np.ndarray) -> np.ndarray:
        j = self.segment(xs)
        out = np.empty_like(xs)
        first = self.first[j]
        for k, at in ((0, np.flatnonzero(first)), (1, np.flatnonzero(~first))):
            j_at = j[at]
            out[at] = self.prefix[j_at] + self.dists[k]._cdf(xs[at]) - self.cdf_lo[k, j_at]
        return np.clip(out, 0.0, self.total)

    def residual(self, k: int, xs: np.ndarray) -> np.ndarray:
        """Unnormalized cdf of residual k (0 for d1, 1 for d2)."""
        j = self.segment(xs)
        out = self.res_prefix[k, j]
        near = self.live[k, j] & (xs - self.lo[j] < self._near[j])
        on = self.live[k, j] & ~near
        xs_on, j_on = xs[on], j[on]
        out[on] += ((self.dists[k]._cdf(xs_on) - self.cdf_lo[k, j_on])
                    - (self.dists[1 - k]._cdf(xs_on) - self.cdf_lo[1 - k, j_on]))
        out[near] += self._integral(k, self.lo[j[near]], xs[near])
        return np.clip(out, 0.0, self.res_total[k])

    def _integral(self, k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Gauss-Legendre integral of f_k - f_o over each [a, b]."""
        nodes, weights = _unit_rule()
        t = (a[:, None] + (b - a)[:, None] * nodes).reshape(-1)
        gap = (self.dists[k]._pdf(t) - self.dists[1 - k]._pdf(t)).reshape(-1, nodes.size)
        # row by row, not a matrix product: BLAS sums a row in an order that
        # depends on how many rows it is given, and a cdf must not
        return (b - a) * np.sum(gap * weights, axis=1)


def _cell(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The number of sorted edges at or below each x, one comparison per edge:
    for the few inner edges of a coupling that is a fraction of what
    searchsorted costs, which branches on every key."""
    n = np.zeros(x.shape, dtype=np.intp)
    for edge in edges:
        n += x >= edge
    return n


# the tables below are built on first use: at import, numpy work would add to
# the memory of every command, most of which never sample a maximal coupling


@functools.cache
def _unit_rule() -> tuple[np.ndarray, np.ndarray]:
    """8-node Gauss-Legendre nodes and weights on [0, 1]."""
    return _panel_nodes(np.array([0.0, 1.0]), 8)


_NEWTON_STEPS = 2


class _Part(GainDistribution):
    """A component of a maximal coupling, a gain law of its own: its cdf is
    an unnormalized cdf of _PiecewiseMinCdf over the component's mass."""

    def __init__(self, name: str, fm: _PiecewiseMinCdf, mass: float):
        if not mass > 0.0:
            raise ValueError(f"the {name} has no mass in floating point")
        self._name, self._fm, self._mass = name, fm, mass

    def __repr__(self) -> str:
        return f"<{self._name} of {self._fm.dists[0]!r} and {self._fm.dists[1]!r}>"


class _SharedPart(_Part):
    """The shared law f_min / p."""

    def __init__(self, fm: _PiecewiseMinCdf, p: float):
        super().__init__("shared part", fm, p)
        # the sum at inf can round below p: the cdf reads 1 wherever the sum
        # reaches its value there, also where the last segment's marginal is 1
        self._top = fm.unnorm(np.array([np.inf]))[0]

    def _cdf(self, x):
        out = self._fm.unnorm(x)
        return np.where(out < self._top, out / self._mass, 1.0)

    def _pdf(self, x):
        return np.minimum(self._fm.dists[0]._pdf(x), self._fm.dists[1]._pdf(x)) / self._mass

    def _quantile_estimate(self, u):
        # on the segment holding level u the shared law is one marginal's law,
        # so the estimate is that marginal's at the shifted level
        fm = self._fm
        level = u * self._mass
        j = _cell(fm.prefix[1:-1], level)
        est = np.empty_like(u)
        first = fm.first[j]
        for k, at in ((0, np.flatnonzero(first)), (1, np.flatnonzero(~first))):
            d, j_at = fm.dists[k], j[at]
            t = np.clip(level[at] - fm.prefix[j_at] + fm.cdf_lo[k, j_at], 0.0, 1.0)
            e = d._quantile_estimate(t)
            est[at] = d.quantile(t) if e is None else e
        return np.clip(est, fm.lo[j], fm.hi[j])


class _ResidualPart(_Part):
    """Residual k of the maximal coupling, (f_k - f_min) / (1 - p): 0 for
    d1, 1 for d2."""

    def __init__(self, fm: _PiecewiseMinCdf, k: int):
        super().__init__(f"residual {k + 1}", fm, fm.res_total[k])
        self._k = k

    def _cdf(self, x):
        return np.minimum(self._fm.residual(self._k, x) / self._mass, 1.0)

    def _pdf(self, x):
        fm, k = self._fm, self._k
        with np.errstate(invalid="ignore"):  # inf - inf where both densities are at 0
            gap = (fm.dists[k]._pdf(x) - fm.dists[1 - k]._pdf(x)) / self._mass
        return np.where(fm.live[k, fm.segment(x)], gap, 0.0)

    def _support(self):
        return self._fm.supports[self._k]

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Levels, abscissae and slopes dx/du: the residual's cdf and inverse
        density at about 500 points packed toward both ends of each row of
        its support, evaluated once, forward, on the first residual draw.

        Near a density crossing the residual's quantile has a square-root
        singularity, so the points pack like the levels of _table_levels.  The
        unbounded last row ends at the quantile of its heavier marginal at
        the largest level below 1, where both marginal cdfs have stopped
        rising in floats, and the cdf at inf closes the table.
        """
        fm, k = self._fm, self._k
        xs = []
        for lo, hi in self._support():
            if math.isinf(hi):
                # residual k lives here, so its law has the heavier tail
                hi = max(lo, fm.dists[k].quantile(1.0 - 2.0**-53))
            xs += [[lo], lo + (hi - lo) * _table_levels(), [hi]]
        xs = np.concatenate(xs + [[np.inf]])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            slopes = self._mass / (np.asarray(fm.dists[k].pdf(xs))
                                   - np.asarray(fm.dists[1 - k].pdf(xs)))
        # a wobbling cdf can read lower at a larger point
        return np.maximum.accumulate(self._cdf(xs)), xs, slopes

    def _quantile_estimate(self, u):
        """Cubic Hermite interpolation of the inverse in _table, then two
        Newton steps on the density (f_k - f_o) / (1 - p), each kept inside
        its table cell: a cell lies inside one segment the residual lives on."""
        dk, do = self._fm.dists[self._k], self._fm.dists[1 - self._k]
        est, a, b = _hermite_inverse(self._table, u)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in range(_NEWTON_STEPS):
                pdf = (dk._pdf(est) - do._pdf(est)) / self._mass
                step = (self._cdf(est) - u) / pdf
                est = np.clip(np.where(np.isfinite(step), est - step, est), a, b)
        return est


class MaximalCouplingSpec:
    """Precomputed decomposition f_k = p * (f_min / p) + (1 - p) * residual_k.

    p is the overlap mass of the two densities, which overlap_mass returns.
    The shared law f_min / p (`shared`, d1 itself at p = 1) and the residual
    laws (`residuals`, a pair) are GainDistributions, built on first use.
    Their cdfs are exact piecewise between the density crossings, so the
    mixture reconstructs each marginal cdf to rounding; but they subtract O(1)
    marginal cdf values, so they can wobble (_PiecewiseMinCdf states by how
    much) and cross u at several neighbouring doubles.  A quantile is the
    crossing nearest its part's _quantile_estimate, which can differ from the
    one an estimate-free search finds by up to a few hundred ulps.
    """

    def __init__(self, d1: GainDistribution, d2: GainDistribution):
        self.d1, self.d2 = d1, d2
        self.segments = density_segments(d1, d2)
        self._fmin = _PiecewiseMinCdf(d1, d2, self.segments)
        self.p = 1.0 if d1 == d2 else float(min(max(self._fmin.total, 0.0), 1.0))

    @functools.cached_property
    def shared(self) -> GainDistribution:
        return self.d1 if self.p >= 1.0 else _SharedPart(self._fmin, self.p)

    @functools.cached_property
    def residuals(self) -> tuple[GainDistribution, GainDistribution]:
        return _ResidualPart(self._fmin, 0), _ResidualPart(self._fmin, 1)


def maximal_coupling_spec(d1: GainDistribution, d2: GainDistribution) -> MaximalCouplingSpec:
    return MaximalCouplingSpec(d1, d2)


def maximal_coupling_samples(spec: MaximalCouplingSpec, u_select, u_value):
    """Maximal-coupling draws from two arrays of independent uniforms; returns
    (h1, h2, equal_flag) arrays.

    u_select <= p lands in the shared component (h1 = h2 exactly); otherwise
    both residuals are inverted at the same u_value, which is allowed because
    only the marginals are constrained and keeps the sampler deterministic.
    """
    u_select, u_value = _open_unit(u_select), _open_unit(u_value)
    equal = u_select <= spec.p
    h1, h2 = np.empty_like(u_value), np.empty_like(u_value)
    # flat views, split by index arrays: a random mask gathers at several
    # times the cost of its indices
    u_flat, h1_flat, h2_flat = u_value.reshape(-1), h1.reshape(-1), h2.reshape(-1)
    same, apart = np.flatnonzero(equal), np.flatnonzero(~equal)
    if same.size:
        h1_flat[same] = h2_flat[same] = _draw(spec.shared, u_flat[same])
    if apart.size:
        u_apart = u_flat[apart]
        h1_flat[apart], h2_flat[apart] = (_draw(law, u_apart) for law in spec.residuals)
    return h1, h2, equal


def _draw(law: GainDistribution, u: np.ndarray) -> np.ndarray:
    """law.quantile(u) for flat levels already checked to lie in (0, 1)."""
    return _invert_cdf(law._cdf, u, law._quantile_estimate(u))


def comonotone_samples(d1: GainDistribution, d2: GainDistribution, u):
    """Both coordinates from one shared uniform per draw through the generalized
    inverses; returns (h1, h2) arrays."""
    u = _open_unit(u)
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

    n, zeros, ones = g.size, np.zeros_like(g), np.ones_like(g)
    # the four sides once each: C(u, 0) = 0 = C(0, v), then C(u, 1) = u and C(1, v) = v
    u, v = np.concatenate([g, zeros, g, ones]), np.concatenate([zeros, g, ones, g])
    c = np.asarray(candidate(u, v), dtype=float)
    gap = np.abs(c - np.concatenate([zeros, zeros, g, g]))
    grounded, margins = bool(np.all(gap[:2 * n] <= tol)), bool(np.all(gap[2 * n:] <= tol))
    first_violation = None
    if not (grounded and margins):
        # the worst point on the failing sides, grounded first; argmax takes a NaN first
        side = 0 if not grounded else 2 * n
        i = side + int(np.argmax(gap[side:side + 2 * n]))
        first_violation = (float(u[i]), float(v[i]), float(c[i]))

    uu, vv = np.meshgrid(g, g, indexing="ij")
    c = np.asarray(candidate(uu, vv), dtype=float)
    volume = c[1:, 1:] - c[1:, :-1] - c[:-1, 1:] + c[:-1, :-1]
    two_increasing = bool(np.all(volume >= -tol))
    if not two_increasing and first_violation is None:
        i, j = np.unravel_index(np.argmin(volume), volume.shape)
        first_violation = (float(g[i]), float(g[i + 1]), float(g[j]), float(g[j + 1]),
                           float(volume[i, j]))

    return CopulaAxiomReport(
        passed=bool(grounded and margins and two_increasing),
        grounded_ok=grounded,
        margins_ok=margins,
        two_increasing_ok=two_increasing,
        first_violation=first_violation,
    )


def residual_supports_separated(d1: GainDistribution, d2: GainDistribution) -> bool:
    """True iff the residual density of d1 lives entirely below that of d2.

    The residual of d1 is (f1 - f_min)+, supported where f1 > f2: the rows
    of the maximal coupling's support of it, each a segment between density
    crossings that carries mass in floats.  Equality of the supports'
    boundary, to 1e-9, counts as separated.  Identical inputs, p = 1 and a
    residual without mass are vacuously separated.
    """
    if d1 == d2:
        return True
    spec = MaximalCouplingSpec(d1, d2)
    first, second = spec._fmin.supports
    if spec.p >= 1.0 or not (first.size and second.size):
        return True
    return bool(first[-1, 1] <= second[0, 0] + 1e-9)
