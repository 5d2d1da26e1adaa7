"""Channel-gain distribution families.

Every family models the *gain* (squared channel magnitude), a nonnegative
scalar random variable, and exposes exact cdf/ccdf evaluation, the
generalized-inverse quantile inf{x : F(x) >= u}, and inverse-transform
sampling.  Values are immutable after construction and every method is a pure
function, so instances can be shared freely across threads; RNG state always
lives with the caller, who passes uniform variates in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammainc, gammaincinv, wrightomega

__all__ = [
    "GainDistribution",
    "Exponential",
    "NakagamiGain",
    "BernoulliGain",
    "PointMass",
    "RatioExpExp",
    "RatioLaw",
    "Empirical",
    "EvaluationGrid",
    "build_ratio",
    "distribution_from_spec",
]

_TAIL_EPS = 1e-9  # default truncation mass for grids and order checks


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr


def _scalar_or_array(out: np.ndarray):
    return out if out.ndim else float(out)


class GainDistribution:
    """Base class for nonnegative-support scalar gain distributions."""

    #: families with a density set this to True
    continuous: bool = True

    # -- evaluation ---------------------------------------------------------

    def pdf(self, x):
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def ccdf(self, x):
        """Complementary CDF Pr(X > x), right-continuous."""
        out = 1.0 - _as_float_array(self.cdf(x))
        return _scalar_or_array(np.asarray(out))

    def ccdf_left(self, x):
        """Left limit Pr(X >= x) = ccdf(x) + Pr(X = x)."""
        if self.continuous:
            return self.ccdf(x)
        x_arr = _as_float_array(x)
        values, masses = self.atoms()
        point = np.zeros_like(x_arr)
        for v, m in zip(values, masses):
            point = point + np.where(x_arr == v, m, 0.0)
        out = _as_float_array(self.ccdf(x_arr)) + point
        return _scalar_or_array(np.asarray(out))

    def quantile(self, u):
        """Generalized inverse inf{x : cdf(x) >= u} for u in [0, 1]."""
        raise NotImplementedError

    def sample(self, u):
        """Inverse-transform sample from a uniform variate in (0, 1)."""
        u_arr = _as_float_array(u)
        if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
            raise ValueError("sampling variates must lie strictly inside (0, 1)")
        return self.quantile(u)

    # -- structure ----------------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        raise NotImplementedError

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, masses) of the point masses; both empty for continuous families."""
        return np.empty(0), np.empty(0)

    def mean(self) -> float:
        raise NotImplementedError

    def tail_quantile(self, tail: float = _TAIL_EPS) -> float:
        """Upper truncation point carrying all but `tail` of the mass."""
        q = self.quantile(1.0 - tail)
        if not math.isfinite(q):
            raise ValueError("tail quantile is not finite")
        return q

    def to_spec(self) -> dict:
        raise NotImplementedError


def _check_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


def _check_nonnegative(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a nonnegative finite number, got {value!r}")


@dataclass(frozen=True)
class Exponential(GainDistribution):
    """Exponential gain with mean sigma^2 (Rayleigh-fading magnitude squared)."""

    mean_gain: float

    def __post_init__(self):
        _check_positive("mean_gain", self.mean_gain)

    def pdf(self, x):
        x_arr = _as_float_array(x)
        out = np.where(x_arr >= 0.0, np.exp(-x_arr / self.mean_gain) / self.mean_gain, 0.0)
        return _scalar_or_array(out)

    def cdf(self, x):
        x_arr = _as_float_array(x)
        out = np.where(x_arr >= 0.0, -np.expm1(-x_arr / self.mean_gain), 0.0)
        return _scalar_or_array(out)

    def ccdf(self, x):
        x_arr = _as_float_array(x)
        out = np.where(x_arr >= 0.0, np.exp(-x_arr / self.mean_gain), 1.0)
        return _scalar_or_array(out)

    def quantile(self, u):
        u_arr = _as_float_array(u)
        _check_u(u_arr)
        with np.errstate(divide="ignore"):
            out = -self.mean_gain * np.log1p(-u_arr)
        return _scalar_or_array(out)

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def mean(self) -> float:
        return self.mean_gain

    def to_spec(self) -> dict:
        return {"family": "exponential", "mean": self.mean_gain}


@dataclass(frozen=True)
class NakagamiGain(GainDistribution):
    """Gain of a Nakagami-m fading magnitude: gamma with shape m and scale w/m.

    The spread parameter w is the mean of the gain, so the cdf is the
    regularized lower incomplete gamma at (m, m*x/w).  Setting m = 1 recovers
    the exponential gain with mean w.
    """

    m: float
    w: float

    def __post_init__(self):
        _check_positive("m", self.m)
        _check_positive("w", self.w)

    def pdf(self, x):
        x_arr = _as_float_array(x)
        rate = self.m / self.w
        with np.errstate(divide="ignore", invalid="ignore"):
            logpdf = (
                self.m * math.log(rate)
                - math.lgamma(self.m)
                + (self.m - 1.0) * np.log(x_arr)
                - rate * x_arr
            )
            out = np.where(x_arr > 0.0, np.exp(logpdf), 0.0)
        # boundary limit: x^(m-1) diverges for m < 1, hits the rate for m = 1
        if self.m == 1.0:
            out = np.where(x_arr == 0.0, rate, out)
        elif self.m < 1.0:
            out = np.where(x_arr == 0.0, np.inf, out)
        return _scalar_or_array(out)

    def cdf(self, x):
        x_arr = _as_float_array(x)
        clipped = np.maximum(x_arr, 0.0)
        out = np.where(x_arr >= 0.0, gammainc(self.m, self.m * clipped / self.w), 0.0)
        return _scalar_or_array(out)

    def quantile(self, u):
        u_arr = _as_float_array(u)
        _check_u(u_arr)
        u_flat = np.atleast_1d(u_arr)
        # gammaincinv can sit a few ulps off the double where the float cdf
        # crosses u, so it only seeds the exact inversion
        out = gammaincinv(self.m, u_flat) * (self.w / self.m)
        return _scalar_or_array(_invert_cdf(self.cdf, u_flat, out).reshape(u_arr.shape))

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def mean(self) -> float:
        return self.w

    def to_spec(self) -> dict:
        return {"family": "nakagami_gain", "m": self.m, "w": self.w}


@dataclass(frozen=True)
class BernoulliGain(GainDistribution):
    """On/off gain taking value 1 with probability q and 0 otherwise."""

    q: float
    continuous = False

    def __post_init__(self):
        if not (isinstance(self.q, (int, float)) and 0.0 <= self.q <= 1.0):
            raise ValueError(f"success probability must lie in [0, 1], got {self.q!r}")

    def pdf(self, x):
        raise ValueError("BernoulliGain has no density")

    def cdf(self, x):
        x_arr = _as_float_array(x)
        out = np.where(x_arr >= 1.0, 1.0, np.where(x_arr >= 0.0, 1.0 - self.q, 0.0))
        return _scalar_or_array(out)

    def quantile(self, u):
        u_arr = _as_float_array(u)
        _check_u(u_arr)
        lo, _ = self.support
        out = np.where(u_arr <= 1.0 - self.q, 0.0, 1.0)
        out = np.where(u_arr == 0.0, lo, out)
        if self.q == 0.0:
            out = np.zeros_like(u_arr)
        return _scalar_or_array(out)

    @property
    def support(self) -> tuple[float, float]:
        lo = 1.0 if self.q == 1.0 else 0.0
        hi = 0.0 if self.q == 0.0 else 1.0
        return (lo, hi)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        if self.q == 0.0:
            return np.array([0.0]), np.array([1.0])
        if self.q == 1.0:
            return np.array([1.0]), np.array([1.0])
        return np.array([0.0, 1.0]), np.array([1.0 - self.q, self.q])

    def mean(self) -> float:
        return self.q

    def tail_quantile(self, tail: float = _TAIL_EPS) -> float:
        return self.support[1]

    def to_spec(self) -> dict:
        return {"family": "bernoulli", "q": self.q}


@dataclass(frozen=True)
class PointMass(GainDistribution):
    """Deterministic gain; models perfect CSIT as a degenerate distribution."""

    value: float
    continuous = False

    def __post_init__(self):
        _check_nonnegative("value", self.value)

    def pdf(self, x):
        raise ValueError("PointMass has no density")

    def cdf(self, x):
        x_arr = _as_float_array(x)
        out = np.where(x_arr >= self.value, 1.0, 0.0)
        return _scalar_or_array(out)

    def quantile(self, u):
        u_arr = _as_float_array(u)
        _check_u(u_arr)
        return _scalar_or_array(np.full_like(u_arr, self.value))

    @property
    def support(self) -> tuple[float, float]:
        return (self.value, self.value)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.value]), np.array([1.0])

    def mean(self) -> float:
        return self.value

    def tail_quantile(self, tail: float = _TAIL_EPS) -> float:
        return self.value

    def to_spec(self) -> dict:
        return {"family": "point_mass", "value": self.value}


@dataclass(frozen=True)
class RatioExpExp(GainDistribution):
    """Distribution of H_num / (1 + P * H_den) for independent exponential gains.

    With num_mean = s_n and den_mean = s_d the cdf for h >= 0 is

        F(h) = 1 - s_n * exp(-h / s_n) / (s_n + h * P * s_d),

    the eigenvalue-derived closed form.  The printed intermediate step it is
    usually quoted from drops the s_n numerator factor (and then fails
    F(0) = 0 whenever s_n != 1); the form above is the one that matches both
    direct integration against the exponential density and Monte Carlo
    simulation of the defining ratio, which the test suite checks.
    """

    num_mean: float
    den_mean: float
    power: float

    def __post_init__(self):
        _check_positive("num_mean", self.num_mean)
        _check_positive("den_mean", self.den_mean)
        _check_nonnegative("power", self.power)

    def ccdf(self, x):
        x_arr = _as_float_array(x)
        scale = 1.0 + x_arr * self.power * self.den_mean / self.num_mean
        out = np.where(x_arr >= 0.0, np.exp(-x_arr / self.num_mean) / scale, 1.0)
        return _scalar_or_array(out)

    def cdf(self, x):
        # (c t - expm1(-t)) / (1 + c t) keeps full relative precision for small
        # t, where 1 - ccdf would round to 0 below u ~ 1e-16
        x_arr = _as_float_array(x)
        t = np.maximum(x_arr, 0.0) / self.num_mean
        with np.errstate(over="ignore", invalid="ignore"):
            ct = self.power * self.den_mean * t
            out = (ct - np.expm1(-t)) / (1.0 + ct)
        # c t is inf (or 0 * inf) only where the cdf is 1
        out = np.where(x_arr >= 0.0, np.where(np.isfinite(ct), out, 1.0), 0.0)
        return _scalar_or_array(out)

    def pdf(self, x):
        x_arr = _as_float_array(x)
        a = self.power * self.den_mean
        denom = self.num_mean + x_arr * a
        out = np.exp(-x_arr / self.num_mean) * (1.0 / denom + self.num_mean * a / denom**2)
        out = np.where(x_arr >= 0.0, out, 0.0)
        return _scalar_or_array(out)

    def quantile(self, u):
        u_arr = _as_float_array(u)
        _check_u(u_arr)
        # closed form t = omega(1/c - ln c - ln(1 - u)) - 1/c through the Wright
        # omega function, h = s_n t; it loses digits to cancellation, so it
        # only seeds the exact inversion
        u_flat = np.atleast_1d(u_arr)
        c = self.power * self.den_mean
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -np.log1p(-u_flat)
            if c > 0.0:
                t = wrightomega(1.0 / c - math.log(c) + t) - 1.0 / c
        out = self.num_mean * t
        return _scalar_or_array(_invert_cdf(self.cdf, u_flat, out).reshape(u_arr.shape))

    @property
    def support(self) -> tuple[float, float]:
        return (0.0, math.inf)

    def mean(self) -> float:
        x, w = law_nodes(self)
        return float(w @ x)

    def to_spec(self) -> dict:
        return {
            "family": "ratio_exp_exp",
            "num_mean": self.num_mean,
            "den_mean": self.den_mean,
            "power": self.power,
        }


def _panel_nodes(breaks: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of an `order`-point Gauss-Legendre rule on each panel
    between consecutive breaks."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(breaks)[:, None]
    return (breaks[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


# a quantile is singular at u = 0 (like u^(1/m) for Nakagami-m) and at u = 1,
# so the panels shrink geometrically toward both ends of [0, 1]
_EDGES = 10.0 ** -np.arange(10.0, 0.0, -1.0)
_PANELS = np.concatenate([[0.0], _EDGES, [0.5], 1.0 - _EDGES[::-1], [1.0]])
_RULE = _panel_nodes(_PANELS, 24)
_COMPANION = _panel_nodes(_PANELS, 12)  # its distance to _RULE estimates the error


def law_nodes(d: GainDistribution, rule=_RULE) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with E[f(H)] = w @ f(x) for H drawn from d.

    A step law gives its atoms and masses, so the sum is exact.  A continuous
    law gives its quantiles at a fixed Gauss-Legendre rule in u-space: 24
    nodes on each of 22 panels by default, or the 12-node companion rule on
    the same panels.
    """
    if not d.continuous:
        return d.atoms()
    u, w = rule
    return np.asarray(d.quantile(u)), w


_BLOCK = 1 << 17  # kernel evaluations per block: 1 MB of doubles


@dataclass(frozen=True)
class RatioLaw(GainDistribution):
    """Law of Z = N / (1 + P D) for independent gains N (numerator) and D, P > 0.

    It conditions on D, Pr(Z > z) = E_D[Pr(N > z (1 + P D))]: exactly over
    D's atoms when D is discrete, else by the quantile-space rule of
    law_nodes (24 nodes on each of 22 panels), which agrees with adaptive
    quadrature to about 1e-14.  A discrete N over a continuous D conditions on
    N instead, Pr(Z > z) = sum_i Pr(N = n_i) cdf_D((n_i / z - 1) / P), exact
    where the rule would integrate a step.
    """

    numerator: GainDistribution
    denominator: GainDistribution
    power: float

    def __post_init__(self):
        _check_positive("power", self.power)
        num, den = self.numerator, self.denominator
        on_numerator = den.continuous and not num.continuous
        if on_numerator:
            values, weights = num.atoms()
            nodes, weights = values[values > 0.0], weights[values > 0.0]
        else:
            values, weights = law_nodes(den)
            nodes = 1.0 + self.power * values
        object.__setattr__(self, "_rule", (on_numerator, nodes, weights))

    @property
    def continuous(self) -> bool:
        return self.numerator.continuous

    def ccdf(self, x):
        x_arr = _as_float_array(x)
        z = np.maximum(x_arr, 0.0).reshape(-1, 1)
        on_numerator, nodes, weights = self._rule
        out = np.empty(z.shape[0])
        step = max(1, _BLOCK // max(nodes.size, 1))
        for i in range(0, out.size, step):
            zb = z[i:i + step]
            if on_numerator:
                with np.errstate(divide="ignore"):
                    kernel = self.denominator.cdf((nodes / zb - 1.0) / self.power)
            else:
                kernel = self.numerator.ccdf(zb * nodes)
            out[i:i + step] = np.asarray(kernel) @ weights
        out = np.where(x_arr >= 0.0, out.reshape(x_arr.shape), 1.0)
        return _scalar_or_array(out)

    def cdf(self, x):
        return _scalar_or_array(1.0 - _as_float_array(self.ccdf(x)))

    def quantile(self, u):
        u_arr = _as_float_array(u)
        _check_u(u_arr)
        return _scalar_or_array(_invert_cdf(self.cdf, np.atleast_1d(u_arr)).reshape(u_arr.shape))

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        values, masses = self.numerator.atoms()
        if self.denominator.continuous:
            # only N = 0 keeps Z on an atom
            return values[values == 0.0], masses[values == 0.0]
        den_values, den_masses = self.denominator.atoms()
        ratios = np.divide.outer(values, 1.0 + self.power * den_values).ravel()
        z, idx = np.unique(ratios, return_inverse=True)
        return z, np.bincount(idx.ravel(), np.outer(masses, den_masses).ravel(), z.size)


@dataclass(frozen=True)
class Empirical(GainDistribution):
    """Right-continuous step CDF of a sorted sample."""

    values: tuple
    continuous = False

    def __post_init__(self):
        try:
            arr = np.asarray(self.values, dtype=float)
        except TypeError as exc:
            raise ValueError(f"empirical sample must be a list of numbers: {exc}") from exc
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("empirical sample must be a nonempty flat list of values")
        if np.any(~np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("empirical sample must be finite and nonnegative")
        if np.any(np.diff(arr) < 0.0):
            raise ValueError("empirical sample must be sorted ascending")
        object.__setattr__(self, "values", tuple(float(v) for v in arr))

    @classmethod
    def from_samples(cls, samples) -> "Empirical":
        return cls(values=tuple(np.sort(np.asarray(samples, dtype=float))))

    def _arr(self) -> np.ndarray:
        return np.asarray(self.values)

    def pdf(self, x):
        raise ValueError("Empirical has no density")

    def cdf(self, x):
        x_arr = _as_float_array(x)
        vals = self._arr()
        out = np.searchsorted(vals, x_arr, side="right") / vals.size
        return _scalar_or_array(np.asarray(out, dtype=float))

    def ccdf_left(self, x):
        x_arr = _as_float_array(x)
        vals = self._arr()
        out = 1.0 - np.searchsorted(vals, x_arr, side="left") / vals.size
        return _scalar_or_array(np.asarray(out, dtype=float))

    def quantile(self, u):
        u_arr = _as_float_array(u)
        _check_u(u_arr)
        vals = self._arr()
        n = vals.size
        idx = np.maximum(np.ceil(u_arr * n).astype(int), 1) - 1
        out = vals[np.minimum(idx, n - 1)]
        return _scalar_or_array(np.asarray(out, dtype=float))

    @property
    def support(self) -> tuple[float, float]:
        return (self.values[0], self.values[-1])

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        vals, counts = np.unique(self._arr(), return_counts=True)
        return vals, counts / self._arr().size

    def mean(self) -> float:
        return float(np.mean(self._arr()))

    def tail_quantile(self, tail: float = _TAIL_EPS) -> float:
        return self.values[-1]

    def to_spec(self) -> dict:
        return {"family": "empirical", "values": list(self.values)}

    @property
    def sample_size(self) -> int:
        return len(self.values)


def build_ratio(numerator_mean: float, denominator_mean: float, interferer_power: float) -> RatioExpExp:
    """Distribution of an exponential gain divided by (1 + power * interferer gain)."""
    return RatioExpExp(num_mean=numerator_mean, den_mean=denominator_mean, power=interferer_power)


@dataclass(frozen=True)
class EvaluationGrid:
    """Strictly increasing abscissae covering (0, x_max] for "for all x" checks."""

    points: tuple

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=float)
        if arr.size < 3:
            raise ValueError("grid needs at least 3 points")
        if np.any(arr < 0.0) or np.any(np.diff(arr) <= 0.0):
            raise ValueError("grid must be strictly increasing and nonnegative")
        object.__setattr__(self, "points", tuple(float(v) for v in arr))

    @property
    def x_max(self) -> float:
        return self.points[-1]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points)

    @classmethod
    def log_spaced(cls, x_max: float, n: int = 4096, span: float = 1e9) -> "EvaluationGrid":
        _check_positive("x_max", x_max)
        pts = np.geomspace(x_max / span, x_max, n)
        return cls(points=tuple(pts))

    @classmethod
    def for_pair(cls, d1: GainDistribution, d2: GainDistribution, n: int = 4096,
                 tail: float = _TAIL_EPS) -> "EvaluationGrid":
        """Default grid up to the heavier tail's (1 - tail) quantile."""
        x_max = max(d1.tail_quantile(tail), d2.tail_quantile(tail), 1e-6)
        return cls.log_spaced(x_max, n=n)


_FAMILIES: dict[str, Callable[[dict], GainDistribution]] = {
    "exponential": lambda s: Exponential(mean_gain=_field(s, "mean")),
    "nakagami_gain": lambda s: NakagamiGain(m=_field(s, "m"), w=_field(s, "w")),
    "bernoulli": lambda s: BernoulliGain(q=_field(s, "q")),
    "point_mass": lambda s: PointMass(value=_field(s, "value")),
    "ratio_exp_exp": lambda s: RatioExpExp(
        num_mean=_field(s, "num_mean"), den_mean=_field(s, "den_mean"), power=_field(s, "power")
    ),
    "empirical": lambda s: Empirical(values=_field(s, "values")),
}


def _field(spec: dict, name: str):
    if name not in spec:
        raise ValueError(f"distribution spec missing field '{name}': {spec!r}")
    return spec[name]


def distribution_from_spec(spec: dict) -> GainDistribution:
    """Build a distribution from its JSON descriptor, e.g. {"family": "exponential", "mean": 2.0}."""
    if not isinstance(spec, dict):
        raise ValueError(f"distribution spec must be an object, got {spec!r}")
    family = spec.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown distribution family '{family}'")
    return _FAMILIES[family](spec)


def _check_u(u_arr: np.ndarray) -> None:
    if np.any(u_arr < 0.0) or np.any(u_arr > 1.0) or np.any(~np.isfinite(u_arr)):
        raise ValueError("quantile argument must lie in [0, 1]")


_INF_BITS = int(np.float64(np.inf).view(np.int64))


def _invert_cdf(cdf: Callable, u, x: np.ndarray | None = None) -> np.ndarray:
    """Generalized inverse inf{y >= 0 : cdf(y) >= u} of a cdf on [0, inf], to the double.

    u = 0 maps to 0 and u = 1 to inf.  For interior u the answer is the double
    y with cdf(y) >= u > cdf(previous double): the least one wherever cdf is
    nondecreasing in floating point, and the crossing nearest the estimate
    where it wobbles by a few ulps (scipy's gammainc does).  Nonnegative
    doubles are ordered like their int64 bit patterns, so the search bisects
    bit patterns.  Without estimates it bisects all of [0, inf], 63 cdf
    evaluations; estimates x (overwritten with the answers) first gallop in
    ulps to a bracket cdf(lo) < u <= cdf(hi), so an estimate d ulps off costs
    about 2 log2(d) evaluations.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u) if x is None else x
    inner = (u > 0.0) & (u < 1.0)
    out[u == 0.0] = 0.0
    out[u == 1.0] = np.inf
    uu = u[inner]
    # bracket lo < answer <= hi in bit order, lo = -1 standing below 0
    if x is None:
        lo = np.full(uu.shape, -1, dtype=np.int64)
        hi = np.full(uu.shape, _INF_BITS, dtype=np.int64)
    else:
        k = out[inner].view(np.int64)
        np.clip(k, 0, _INF_BITS, out=k)
        ge = cdf(k.view(np.float64)) >= uu
        # estimates that satisfy cdf >= u gallop down, the others gallop up
        lo = np.where(ge, -1, k)
        hi = np.where(ge, k, _INF_BITS)
        todo = np.arange(k.size)
        step = 1
        while todo.size:
            down = ge[todo]
            probe = np.clip(np.where(down, hi[todo] - step, lo[todo] + step), 0, _INF_BITS)
            ok = cdf(probe.view(np.float64)) >= uu[todo]
            hi[todo] = np.where(ok, probe, hi[todo])
            lo[todo] = np.where(ok, lo[todo], probe)
            todo = todo[(ok == down) & (probe > 0) & (probe < _INF_BITS)]
            step *= 2
    todo = np.flatnonzero(hi - lo > 1)
    while todo.size:
        mid = lo[todo] + (hi[todo] - lo[todo]) // 2
        ok = cdf(mid.view(np.float64)) >= uu[todo]
        hi[todo] = np.where(ok, mid, hi[todo])
        lo[todo] = np.where(ok, lo[todo], mid)
        todo = todo[hi[todo] - lo[todo] > 1]
    out[inner] = hi.view(np.float64)
    return out
