"""Channel-gain distribution families.

Every family models the *gain* (squared channel magnitude), a nonnegative
scalar random variable, and exposes exact cdf/ccdf evaluation, the
generalized-inverse quantile inf{x : F(x) >= u}, and inverse-transform
sampling.  Values are immutable after construction and every method is a pure
function, so instances can be shared freely across threads; RNG state always
lives with the caller, who passes uniform variates in.  A law's caches (its
atom table, rules and quantile tables) fill idempotently on first use, so that holds.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable

import numpy as np

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


def _evaluate(kernel: Callable, x, below: float):
    """kernel on the flat abscissae, clipped to x >= 0, and `below` where x < 0
    or x is NaN; a float for a scalar x, else an array of x's shape."""
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    # near the largest double a kernel's x / mean or x * rate overflows to inf
    # on its way to the law's limit there, which is the value it returns
    with np.errstate(over="ignore"):
        out = np.where(flat >= 0.0, kernel(np.maximum(flat, 0.0)), below)
    return out.reshape(x.shape) if x.ndim else float(out[0])


def _param(check: Callable | None = None, key: str | None = None, **kwargs):
    """A dataclass field stating once its check(name, value), whose value _Checked
    stores in its place, and its JSON key, read by to_spec and distribution_from_spec."""
    return field(metadata={"check": check, "key": key}, **kwargs)


@functools.cache
def _params(cls) -> tuple[tuple, ...]:
    """(name, check, key, default) of each field of a dataclass; MISSING: no default."""
    return tuple((f.name, f.metadata.get("check"), f.metadata.get("key"), f.default)
                 for f in fields(cls))


class _Checked:
    """A frozen dataclass whose fields state their checks through _param:
    each checked field is replaced by its check's value, in field order."""

    def __post_init__(self):
        for name, check, _, _ in _params(type(self)):
            if check is not None:
                object.__setattr__(self, name, check(name, getattr(self, name)))


class GainDistribution(_Checked):
    """Base class for nonnegative-support scalar gain distributions.

    A family states only its formulas, as kernels on a flat float array of
    abscissae x >= 0, +inf included: _cdf (none for a step law: _atomic_cdf),
    _ccdf (1 - _cdf unless given) and, for a law with a density (`continuous`),
    _pdf; and its atoms, read once into _atom_table, which alone decide its
    structure: a step law's carry all of its mass (step_atoms), an atomless
    law's none, a mixed law's some.  This class owns the rest of the contract:
    - any array-like argument, the result in its shape, a float for a scalar;
    - below the support, x < 0 or NaN: cdf 0, ccdf and ccdf_left 1, pdf 0;
    - pdf raises ValueError for a law without a density (continuous False);
    - quantile, the generalized inverse inf{x : cdf(x) >= u} for u in [0, 1]:
      for a step law the least atom whose float cdf reaches u (the largest
      atom if none does), for any other law the exact inversion _invert_cdf
      of its float cdf, seeded by the family's _quantile_estimate where it
      has one;
    - sample, the quantile of uniform variates in (0, 1);
    - tail_quantile for a tail in (0, 1), else ValueError: the largest atom of
      a step law, else the family's finite _tail_point, quantile(1 - tail) by default;
    - mean, by law_nodes' memoized read-only rule unless a family has a closed form;
    - _quantile_breaks: none, unless the law lives on rows with gaps between them;
    - to_spec, the JSON form of a law whose class names its `family`: each
      parameter is a dataclass field that states its check and its JSON key
      once, through _param.
    """

    #: families with a density set this to True
    continuous: bool = True
    #: the family's name in a JSON spec; None for a law with no JSON form
    family: str | None = None

    # -- evaluation ---------------------------------------------------------

    def pdf(self, x):
        """Density f(x); ValueError for a law without one."""
        if not self.continuous:
            raise ValueError(f"{type(self).__name__} has no density")
        return _evaluate(self._pdf, x, 0.0)

    def cdf(self, x):
        """CDF Pr(X <= x)."""
        return _evaluate(self._cdf, x, 0.0)

    def ccdf(self, x):
        """Complementary CDF Pr(X > x), right-continuous."""
        return _evaluate(self._ccdf, x, 1.0)

    def ccdf_left(self, x):
        """Left limit Pr(X >= x) = ccdf(x) + Pr(X = x)."""
        return _evaluate(self._ccdf_left, x, 1.0)

    def _atomic_cdf(self, x):
        """Pr(X <= x, X an atom), 0.0 for an atomless law; _cdf unless a family states one."""
        values, _, below = self._atom_table
        return below[values.searchsorted(x, "right")] if values.size else 0.0

    _cdf = _atomic_cdf

    def _ccdf(self, x):
        return 1.0 - self._cdf(x)

    def _ccdf_left(self, x):
        values, masses, _ = self._atom_table
        if not values.size:
            return self._ccdf(x)
        # the atom at or above x, which is x's own if x is one (NaN sorts last)
        i = np.minimum(values.searchsorted(x), values.size - 1)
        return self._ccdf(x) + np.where(values[i] == x, masses[i], 0.0)

    def quantile(self, u):
        """Generalized inverse inf{x : cdf(x) >= u} for u in [0, 1]."""
        u = _levels(u)
        flat = u.reshape(-1)
        atoms = step_atoms(self)
        if atoms is None:
            out = _invert_cdf(self._cdf, flat, self._quantile_estimate(flat))
        else:
            xs = atoms[0]
            out = xs[np.minimum(np.searchsorted(self.cdf(xs), flat, side="left"), xs.size - 1)]
        return out.reshape(u.shape) if u.ndim else float(out[0])

    def _quantile_estimate(self, u: np.ndarray) -> np.ndarray | None:
        """A cheap approximation of quantile(u) to seed _invert_cdf, or None
        where the family has none."""
        return None

    def _quantile_breaks(self) -> tuple[float, ...]:
        """The sorted levels in (0, 1) where the quantile jumps, which law_nodes
        lays its panels between: none, unless the law lives on rows with gaps
        between them, as a maximal-coupling residual can."""
        return ()

    def sample(self, u):
        """Inverse-transform sample from a uniform variate in (0, 1)."""
        return self.quantile(_open_unit(u))

    # -- structure ----------------------------------------------------------

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, masses) of the point masses; both empty for an atomless law."""
        return np.empty(0), np.empty(0)

    @functools.cached_property
    def _atom_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """atoms() once, read-only: the values as doubles, the masses, and the
        atomic mass at or below each cut between them, [0, cumsum(masses)]."""
        values, masses = self.atoms()
        below = np.concatenate(([0.0], masses)).cumsum()
        return _read_only(np.asarray(values, dtype=float), masses, below)

    def mean(self) -> float:
        x, w = law_nodes(self)
        return float(w @ x)

    def tail_quantile(self, tail: float = _TAIL_EPS) -> float:
        """Upper truncation point carrying all but `tail` of the mass, for a
        tail in (0, 1); the largest atom of a step law."""
        if not 0.0 < tail < 1.0:
            raise ValueError(f"tail must lie strictly inside (0, 1), got {tail!r}")
        atoms = step_atoms(self)
        if atoms is not None:
            return float(atoms[0][-1])
        q = self._tail_point(tail)
        if not math.isfinite(q):
            raise ValueError("tail quantile is not finite")
        return q

    def _tail_point(self, tail: float) -> float:
        """The truncation point of a law that is not a step law."""
        return self.quantile(1.0 - tail)

    def to_spec(self) -> dict:
        """{"family": family} and each field off its default under its key, a tuple as a list."""
        if self.family is None:
            raise NotImplementedError(f"{type(self).__name__} has no JSON form")
        spec = {"family": self.family}
        for name, _, key, default in _params(type(self)):
            value = getattr(self, name)
            if value != default:
                spec[key] = list(value) if isinstance(value, tuple) else value
        return spec


def _open_unit(u) -> np.ndarray:
    """u as a float array, once every sampling variate lies strictly inside (0, 1)."""
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ValueError("sampling variates must lie strictly inside (0, 1)")
    return u


def _levels(u) -> np.ndarray:
    """u as a float array, once every level lies in [0, 1] (NaN does not)."""
    u = np.asarray(u, dtype=float)
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise ValueError("quantile argument must lie in [0, 1]")
    return u


def _checker(accept: Callable, message: str) -> Callable:
    """check(name, value): value as a Python number, once it is a real that accept takes."""
    def check(name: str, value):
        try:
            ok = isinstance(value, numbers.Real) and accept(value)
        except OverflowError:  # an int past the largest double
            ok = False
        if not ok:
            raise ValueError(message.format(name=name, value=value))
        return _python_number(value)
    return check


_check_positive = _checker(lambda v: math.isfinite(v) and v > 0,
                           "{name} must be a positive finite number, got {value!r}")
_check_nonnegative = _checker(lambda v: math.isfinite(v) and v >= 0,
                              "{name} must be a nonnegative finite number, got {value!r}")
_check_probability = _checker(lambda v: 0 <= v <= 1,
                              "success probability must lie in [0, 1], got {value!r}")


def _python_number(value):
    """value as an int or float, which to_spec() can serialize: a numpy
    scalar by .item(), any other real that is neither (bool is an int) by float()."""
    if isinstance(value, np.generic):
        return value.item()
    return value if isinstance(value, (int, float)) else float(value)


@dataclass(frozen=True)
class Exponential(GainDistribution):
    """Exponential gain with mean sigma^2 (Rayleigh-fading magnitude squared)."""

    mean_gain: float = _param(_check_positive, "mean")
    family = "exponential"

    # x / -mean is the double -x / mean, one array pass fewer

    def _pdf(self, x):
        return np.exp(x / -self.mean_gain) / self.mean_gain

    def _cdf(self, x):
        return -np.expm1(x / -self.mean_gain)

    def _ccdf(self, x):
        return np.exp(x / -self.mean_gain)

    def _quantile_estimate(self, u):
        # the closed form aimed at the rounding boundary of u (see _upper_tail)
        # at every level, as it costs the same as at u: -mean ln((1 - u) +
        # ulp(u)/2), with ln(1 - u) from log1p so that it keeps its digits
        # below u = 1/2.  The float cdf rounds on its own, so this still misses
        # the least double whose float cdf reaches u by an ulp or so.
        with np.errstate(divide="ignore", invalid="ignore"):
            return -self.mean_gain * (np.log1p(-u) + np.log1p(0.5 * np.spacing(u) / (1.0 - u)))

    def _tail_point(self, tail):
        # a truncation point wants the law's own (1 - tail) quantile, which the
        # closed form gives; the float cdf is flat near 1, so the least double
        # at which it reaches 1 - tail sits up to a few 1e-9 lower
        with np.errstate(divide="ignore"):
            return float(-self.mean_gain * np.log1p(-np.float64(1.0 - tail)))

    def mean(self) -> float:
        return self.mean_gain


def _upper_tail(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tail, mass): where u > 31/32, and there the upper-tail mass
    (1 - u) + ulp(u)/2 at which a correctly rounded cdf first reaches u.

    A float cdf rounds a true value within half an ulp of u to u, so its
    crossing of u sits where the true cdf is u - ulp(u)/2, not u.  That shift
    moves the answer by about 1/(4 (1 - u) ln(1/(1 - u))) ulps of x for a
    gamma law, which outgrows the few ulps a seed from the lower tail is off
    once 1 - u < 1/32; only the upper tail can aim at it, because 1 - u is
    exact for u >= 1/2 while u - ulp(u)/2 is not a double.  In the bulk the
    lower-tail seeds stay: an upper-tail inverse there is no closer (for
    Nakagami m = 1/2 it is about 100 ulps off for u in [3/4, 7/8)).
    """
    tail = u > 0.96875
    ut = u[tail]
    return tail, (1.0 - ut) + 0.5 * np.spacing(ut)


_TABLE_FROM = 2048  # NakagamiGain batches above this many levels seed from its table


@functools.cache
def _table_levels() -> np.ndarray:
    """Levels of the quantile tables: logistic in t on [-34.5, 34.5], so they
    pack geometrically toward 0 and 1 (1e-15 and 1 - 1e-15), where a
    quantile is singular."""
    low = np.exp(np.linspace(-34.5, 0.0, 256))
    low = low / (1.0 + low)
    return _read_only(np.unique(np.concatenate([low, 1.0 - low])))[0]


def _hermite_inverse(table, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(estimate, a, b): the cubic Hermite interpolant of an inverse cdf at
    each level u, from a table of sorted levels, abscissae and slopes dx/du,
    and the ends of the table cell [a, b] that holds it."""
    levels, xs, slopes = table
    c = np.clip(np.searchsorted(levels, u, side="right") - 1, 0, levels.size - 2)
    a, b = xs[c], xs[c + 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # at an end where the density vanishes (or is infinite) the
        # interpolant's slope is the chord's
        h, chord = levels[c + 1] - levels[c], b - a
        t = (u - levels[c]) / h
        ends = [np.where((s > 0.0) & (s < np.inf), s - chord, 0.0)
                for s in (slopes[c] * h, slopes[c + 1] * h)]
        est = a + t * (chord + (1.0 - t) * ((1.0 - t) * ends[0] - t * ends[1]))
        return np.where(np.isfinite(est), np.clip(est, a, b), a), a, b


@functools.cache
def _lgamma1p_coefficients() -> tuple[float, ...]:
    from scipy.special import zeta

    # ln Gamma(1 + a) = -gamma a + sum_{n >= 2} zeta(n) (-a)^n / n for |a| < 1;
    # at |a| <= 1/2 the terms after n = 61 are below 1e-20
    return tuple(float(zeta(n)) * (-1.0) ** n / n for n in range(2, 62))


def _lgamma1p(a: float) -> float:
    """ln Gamma(1 + a) for 0 < a <= 1.21, the shapes of _gammaincc's series,
    to a few ulps relative, also next to its zeros a = 0, 1."""
    shift = 0.0
    if a > 0.5:  # Gamma(1 + a) = a Gamma(a)
        shift, a = math.log(a), a - 1.0
    acc = 0.0
    for c in reversed(_lgamma1p_coefficients()):
        acc = acc * a + c
    return shift + a * (a * acc - np.euler_gamma)


def _gammaincc(a: float, x: np.ndarray) -> np.ndarray:
    """Regularized upper incomplete gamma Q(a, x) for x >= 0: scipy's gammaincc,
    mended where it takes its small-x series.

    scipy evaluates Q = 1 - x^a / Gamma(1 + a) - (x^a / Gamma(a)) S for
    x <= 1.1 and a <= 1.1 x (or a ln x >= -0.4 below x = 1/2), but its
    ln Gamma(1 + a) there stops a Taylor series after 40 terms: near a = 1/2
    Q comes out up to 300 ulps off.  The same sum with _lgamma1p stays within
    a few ulps on that set, which is empty for a > 1.21.
    """
    from scipy.special import gammaincc

    if a > 1.21:
        return gammaincc(a, x)
    series = (x > 0.0) & (x <= 1.1) & np.where(x > 0.5, 1.1 * x >= a, x >= math.exp(-0.4 / a))
    out = np.empty_like(x)
    out[~series] = gammaincc(a, x[~series])
    xs = x[series]
    # S = sum_{n >= 1} (-x)^n / (n! (a + n)); 1.1^31 / 31! < 1e-31.  Each row's
    # running product and running sum take the terms in order, as a loop over
    # n would; a row holds 31 doubles, so the rows go in blocks
    n, total = np.arange(1, 32), np.empty_like(xs)
    for i in range(0, xs.size, _BLOCK // 32):
        rows = slice(i, i + _BLOCK // 32)
        total[rows] = np.cumsum(np.cumprod(-xs[rows, None] / n, axis=1) / (a + n), axis=1)[:, -1]
    y = a * np.log(xs) - _lgamma1p(a)  # ln(x^a / Gamma(1 + a))
    out[series] = -np.expm1(y) - a * np.exp(y) * total
    return out


@dataclass(frozen=True)
class NakagamiGain(GainDistribution):
    """Gain of a Nakagami-m fading magnitude: gamma with shape m and scale w/m.

    The spread parameter w is the mean of the gain, so the cdf is the
    regularized lower incomplete gamma at (m, m*x/w).  Setting m = 1 recovers
    the exponential gain with mean w.
    """

    m: float = _param(_check_positive, "m")
    w: float = _param(_check_positive, "w")
    family = "nakagami_gain"

    def _pdf(self, x):
        m, rate = self.m, self.m / self.w
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.exp(m * math.log(rate) - math.lgamma(m) + (m - 1.0) * np.log(x) - rate * x)
        # at x = 0 the formula gives the limit itself (0 for m > 1, inf for
        # m < 1) except at m = 1, where it reads 0 * log 0; at x = inf it reads
        # inf - inf for m >= 1
        if m == 1.0:
            out = np.where(x > 0.0, out, rate)
        return np.where(x < math.inf, out, 0.0)

    def _cdf(self, x):
        from scipy.special import gammainc

        return gammainc(self.m, self.m * x / self.w)

    def _ccdf(self, x):
        # the upper tail directly: 1 - gammainc has no relative precision there
        return _gammaincc(self.m, self.m * x / self.w)

    def _quantile_estimate(self, u):
        # a batch larger than _TABLE_FROM seeds from the quantile table: one
        # Halley step from the table's cubic Hermite interpolant lands within
        # a few ulps for about one cdf and one pdf per level, where scipy's
        # inverses take three to four cdfs each.  A smaller batch (the rate
        # nodes, a tail quantile) would not repay the table's 511 inverses,
        # and levels outside its span keep the inverses too
        if u.size <= _TABLE_FROM:
            return self._inverse_seed(u)
        levels, m = self._table[0], self.m
        est, a, b = _hermite_inverse(self._table, u)
        # the same residual as the inversion's target: cdf - u in the bulk,
        # the upper-tail mass minus the ccdf above u = 31/32 (see _upper_tail)
        tail, mass = _upper_tail(u)
        tail, bulk = np.flatnonzero(tail), np.flatnonzero(~tail)
        f = np.empty_like(u)
        f[bulk] = self._cdf(est[bulk]) - u[bulk]
        f[tail] = mass - self._ccdf(est[tail])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Halley's step with the density's exact log-slope f''/f'
            newton = f / self._pdf(est)
            step = newton / (1.0 - 0.5 * newton * ((m - 1.0) / est - m / self.w))
        est = np.clip(np.where(np.isfinite(step), est - step, est), a, b)
        out = np.flatnonzero((u < levels[0]) | (u > levels[-1]))
        est[out] = self._inverse_seed(u[out])
        return est

    def _inverse_seed(self, u):
        from scipy.special import gammaincinv, gammainccinv

        # the inverses can sit a few ulps off the double where the float cdf
        # crosses u, so they only seed the exact inversion
        tail, mass = _upper_tail(u)
        est = np.empty_like(u)
        est[~tail] = gammaincinv(self.m, u[~tail])
        est[tail] = gammainccinv(self.m, mass)
        return est * (self.w / self.m)

    @functools.cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Levels of _table_levels, the family's quantiles there and the
        slopes dx/du = 1/pdf, from the bare kernels on the first large batch."""
        from scipy.special import gammaincinv, gammainccinv

        levels = _table_levels()
        half = levels <= 0.5
        xs = np.concatenate([gammaincinv(self.m, levels[half]),
                             gammainccinv(self.m, 1.0 - levels[~half])]) * (self.w / self.m)
        with np.errstate(divide="ignore"):
            return _read_only(levels, xs, 1.0 / self._pdf(xs))

    def mean(self) -> float:
        return self.w


@dataclass(frozen=True)
class BernoulliGain(GainDistribution):
    """On/off gain taking value 1 with probability q and 0 otherwise."""

    q: float = _param(_check_probability, "q")
    continuous = False
    family = "bernoulli"

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        values, masses = np.array([0.0, 1.0]), np.array([1.0 - self.q, self.q])
        return values[masses > 0.0], masses[masses > 0.0]


@dataclass(frozen=True)
class PointMass(GainDistribution):
    """Deterministic gain; models perfect CSIT as a degenerate distribution."""

    value: float = _param(_check_nonnegative, "value")
    continuous = False
    family = "point_mass"

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.value]), np.array([1.0])


_SCALED_FROM = 512.0  # t + c from which the interference term takes its scaled form
MAX_RATIO_SHAPE = 128.0  # largest numerator shape of RatioExpExp


@dataclass(frozen=True)
class RatioExpExp(GainDistribution):
    """Law of Z = X / (1 + P D) for independent gains X gamma and D exponential.

    X has shape m = num_shape (1, the default, for an exponential gain; a
    Nakagami-m gain otherwise) and mean s_n = num_mean, so its rate is
    a = m / s_n; D has mean s_d = den_mean, and P = power.  With
    c = 1 / (P s_d), t = a z, and Q and 1 - Q the regularized upper and lower
    incomplete gamma functions, Z > z iff D < (X / z - 1) / P, and
    E[e^(-sX); X > x] = (a / (a + s))^m Q(m, (a + s) x) gives

        ccdf(z) = Q(m, t) - T(t),   cdf(z) = (1 - Q(m, t)) + T(t),
        T(t) = e^c (t / (t + c))^m Q(m, t + c),
        pdf(z) = a g(t) c / (t + c) + a m c T(t) / (t (t + c)),

    with g the Gamma(m, 1) density.  The cdf and the pdf add positive terms,
    so they keep their relative precision: within 64 (1 + t + m |ln t|) ulps
    in tests against mpmath.  The ccdf cancels where t >> c: its absolute
    error stays within that many ulps of Q(m, t), while its relative error
    grows like t / c.  Where t + c >= 512 Q(m, t + c) can underflow
    while T does not, so T is taken as t g(t) U(m, t + c), with
    U(m, y) = e^y y^-m Gamma(m, y), scipy's Tricomi function
    hyperu(1, m + 1, y): within 2e-15 relative for y >= 512 and m <= 128,
    the shapes the family takes.

    At m = 1 the cdf for h >= 0 is

        F(h) = 1 - s_n * exp(-h / s_n) / (s_n + h * P * s_d),

    the eigenvalue-derived closed form, which every method keeps as it was.
    The printed intermediate step it is usually quoted from drops the s_n
    numerator factor (and then fails F(0) = 0 whenever s_n != 1); the form
    above is the one that matches both direct integration against the
    exponential density and Monte Carlo simulation of the defining ratio,
    which the test suite checks.
    """

    num_mean: float = _param(_check_positive, "num_mean")
    den_mean: float = _param(_check_positive, "den_mean")
    power: float = _param(_check_nonnegative, "power")
    num_shape: float = _param(_check_positive, "num_shape", default=1.0)
    family = "ratio_exp_exp"

    def __post_init__(self):
        super().__post_init__()
        if self.num_shape > MAX_RATIO_SHAPE:
            raise ValueError(f"num_shape must be at most {MAX_RATIO_SHAPE:g}, "
                             f"got {self.num_shape!r}")

    def _t(self, x: np.ndarray) -> np.ndarray:
        """t = a z."""
        return x * (self.num_shape / self.num_mean)

    @property
    def _c(self) -> float:
        """c = 1 / (P s_d); inf where P s_d is 0 in floating point, so that Z = X."""
        pb = self.power * self.den_mean
        return 1.0 / pb if pb > 0.0 else math.inf

    def _interference(self, t: np.ndarray) -> np.ndarray:
        """T(t) = e^c (t / (t + c))^m Q(m, t + c) for t >= 0, m != 1."""
        from scipy.special import hyperu

        m, c = self.num_shape, self._c
        out = np.zeros_like(t)
        if math.isinf(c):
            return out
        y = t + c
        near = (t > 0.0) & (y < _SCALED_FROM)
        if near.any():  # then c < 512, so e^c is finite
            out[near] = math.exp(c) * _gammaincc(m, y[near]) * (t[near] / y[near]) ** m
        far = (y >= _SCALED_FROM) & (t < math.inf)
        tf = t[far]
        with np.errstate(divide="ignore", under="ignore"):
            out[far] = np.exp(m * np.log(tf) - tf - math.lgamma(m)) * hyperu(1.0, m + 1.0, y[far])
        return out

    def _ccdf(self, x):
        if self.num_shape != 1.0:
            t = self._t(x)
            return _gammaincc(self.num_shape, t) - self._interference(t)
        out = np.exp(-x / self.num_mean)
        if self.power == 0.0:  # Z = X, where x P would be inf * 0 at x = inf
            return out
        with np.errstate(over="ignore"):
            return out / (1.0 + x * self.power * self.den_mean / self.num_mean)

    def _cdf(self, x):
        if self.num_shape != 1.0:
            from scipy.special import gammainc

            t = self._t(x)
            return gammainc(self.num_shape, t) + self._interference(t)
        # (k t - expm1(-t)) / (1 + k t), k = P s_d, keeps full relative
        # precision for small t, where 1 - ccdf would round to 0 below u ~ 1e-16
        t = x / self.num_mean
        with np.errstate(over="ignore", invalid="ignore"):
            ct = self.power * self.den_mean * t
            out = (ct - np.expm1(-t)) / (1.0 + ct)
        # k t is inf (or 0 * inf) only where the cdf is 1
        return np.where(np.isfinite(ct), out, 1.0)

    def _pdf(self, x):
        m, c = self.num_shape, self._c
        if m == 1.0:
            a = self.power * self.den_mean
            out = np.exp(-x / self.num_mean)
            if a == 0.0:  # Z = X, where x a would be inf * 0 at x = inf
                return out * (1.0 / self.num_mean)
            denom = self.num_mean + x * a
            with np.errstate(over="ignore"):  # huge x: denom**2 is inf, its term 0
                return out * (1.0 / denom + self.num_mean * a / denom**2)
        t = self._t(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            share = 1.0 if math.isinf(c) else c / (t + c)
            g = np.exp((m - 1.0) * np.log(t) - t - math.lgamma(m))  # the Gamma(m, 1) density
            out = (m / self.num_mean) * share * (g + m * self._interference(t) / t)
        # the limit at z = 0 is that of g: 0 for m > 1, inf for m < 1
        return np.where(t > 0.0, np.where(t < math.inf, out, 0.0), 0.0 if m > 1.0 else math.inf)

    def _quantile_estimate(self, u):
        if self.num_shape != 1.0:
            # the cdf keeps its relative precision below u = 1/2; above it the
            # ccdf aims at the rounding boundary of u, as _upper_tail does
            est = np.empty_like(u)
            lower, upper = np.flatnonzero(u <= 0.5), np.flatnonzero(u > 0.5)
            uu = u[upper]
            est[lower] = self._newton_quantile(u[lower], False)
            est[upper] = self._newton_quantile((1.0 - uu) + 0.5 * np.spacing(uu), True)
            return est
        # at m = 1 the closed form t = omega(1/k - ln k - ln(1 - u)) - 1/k, k = P s_d,
        # through the Wright omega function, h = s_n t; it loses digits to
        # cancellation, so it only seeds the exact inversion
        k = self.power * self.den_mean
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -np.log1p(-u)
            if k > 0.0:
                from scipy.special import wrightomega

                t = wrightomega(1.0 / k - math.log(k) + t) - 1.0 / k
        return self.num_mean * t

    def _tail_point(self, tail):
        # at m = 1 the law's own quantile at the double level 1 - tail, as
        # Exponential._tail_point takes it: with q = 1 - fl(1 - tail), exact,
        # and k = P s_d, ccdf(s_n t) = e^-t / (1 + k t) = q solves
        # F(t) = t + ln(1 + k t) + ln q = 0.  F is convex and increasing in
        # ln t, so Newton steps in ln t from any t >= root descend onto the
        # root; both terms are nonnegative, so the root is at most -ln q and
        # 1 + k t at most 1/q, and a start at the lesser bound keeps k t below
        # 1/q (k itself may be inf, where the law sits at 0).  F is read as
        # ln(q e^t (1 + k t)), which keeps its absolute error within a few
        # half-ulps of 1 at any k, so t is within a few ulps:
        # dF/d(ln t) >= 1 - q >= 1/2 for tail <= 1/2.  At m != 1 the root of
        # ccdf = q comes from _newton_quantile
        level = np.float64(1.0 - tail)
        q = 1.0 - float(level)
        if self.num_shape != 1.0:
            return float(self._newton_quantile(np.array([q]), True)[0])
        with np.errstate(divide="ignore"):
            t = float(-np.log1p(-level))
        k = self.power * self.den_mean
        if k > 0.0 and 0.0 < t < math.inf:
            t = min(t, (1.0 / q - 1.0) / k)
            while t > 0.0:
                kt = k * t
                f = math.log(q * math.exp(t) * (1.0 + kt))
                if not f > 0.0:
                    break
                below = t * math.exp(-f / (t + kt / (1.0 + kt)))
                if not below < t:
                    break
                t = below
        return self.num_mean * t

    def _newton_quantile(self, g: np.ndarray, upper: bool) -> np.ndarray:
        """The law's quantiles at ccdf g (upper) or at cdf g, for m != 1: Newton
        steps in s = ln z on ln G(z) = ln g, G the ccdf or the cdf, from the
        numerator's quantile at a level that bounds the root.

        ln Z is ln X minus ln(1 + P D), two variables with log-concave
        densities, so it has one too (Prekopa) and ln G is concave in s: the
        steps from a bound move monotonically onto the root.  Z <= X, so the
        numerator's quantile at ccdf g bounds the root from above.  From below,
        x^-m P(m, a x) decreases in x, so cdf(z) = E[P(m, a z (1 + P D))]
        <= M P(m, a z) with M = E[(1 + P D)^m] = c U(1, m + 2, c), and the
        numerator's quantile at cdf g / M bounds it.  Each level steps while
        its step moves toward the root, and stops within the rounding of ln G
        over its slope z pdf / G.
        """
        from scipy.special import gammainccinv, gammaincinv, hyperu

        m, c = self.num_shape, self._c
        if upper:
            x, kernel, sign = gammainccinv(m, g), self._ccdf, 1.0
        else:
            bound = 1.0 if math.isinf(c) else c * float(hyperu(1.0, m + 2.0, c))
            x, kernel, sign = gammaincinv(m, g / bound), self._cdf, -1.0
        x *= self.num_mean / m
        todo = np.arange(x.size)
        while todo.size:
            xt = x[todo]
            gt = kernel(xt)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
                f = np.log(gt / g[todo])  # < 0 on the side of the root the steps leave
                new = xt * np.exp(sign * f * gt / (xt * self._pdf(xt)))
            go = (f < 0.0) & (sign * (xt - new) > 0.0)
            x[todo[go]] = new[go]
            todo = todo[go]
        return x


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, flagged read-only: a cached table or rule is shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _panel_nodes(breaks: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of an `order`-point Gauss-Legendre rule on each panel
    between consecutive breaks, read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * np.diff(breaks)[:, None]
    return _read_only((breaks[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel())


@functools.lru_cache(maxsize=32)  # bounded: each law with breaks has its own
def _quantile_rule(order: int, breaks: tuple[float, ...] = ()) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the `order`-point rule of law_nodes on 22 panels
    of each segment of [0, 1] between consecutive `breaks` (only a gapped
    coupling residual has any); built on first use, so import does no numpy work."""
    # a quantile is singular at u = 0 (like u^(1/m) for Nakagami-m), at u = 1
    # and at a break, so the panels shrink geometrically toward both ends of
    # each segment [a, b], measured from the nearer end
    edges = 10.0 ** -np.arange(10.0, 0.0, -1.0)
    low, high, ends = np.concatenate([[0.0], edges, [0.5]]), edges[::-1], (0.0, *breaks, 1.0)
    panels = [np.concatenate([a + (b - a) * low, b - (b - a) * high])
              for a, b in zip(ends, ends[1:])]
    return _panel_nodes(np.append(np.concatenate(panels), 1.0), order)


_RULE_ORDER = 24
_COMPANION_ORDER = 12  # its rule's distance to the default rule estimates the error


def step_atoms(d: GainDistribution) -> tuple[np.ndarray, np.ndarray] | None:
    """(values, masses) of the atoms of a step law, whose atoms carry all of
    its mass (to 1e-9), so that its cdf is constant between them; None for
    any other law."""
    values, masses, below = d._atom_table
    return (values, masses) if below[-1] >= 1.0 - 1e-9 else None


def gamma_law(d: GainDistribution) -> tuple[float, float] | None:
    """(shape, mean) of a gamma law: an Exponential has shape 1, a Nakagami-m
    gain shape m; None for any other law."""
    if isinstance(d, Exponential):
        return 1.0, d.mean_gain
    if isinstance(d, NakagamiGain):
        return float(d.m), d.w
    return None


def law_nodes(d: GainDistribution, order: int = _RULE_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w with E[f(H)] = w @ f(x) for H drawn from d.

    A step law gives its atoms and masses, so the sum is exact.  A RatioLaw
    N / (1 + P D) that is not one gives the product of its parts' rules of
    the same order, (n, v) and (t, w): nodes n_i / (1 + P t_j), weights v_i w_j.
    Any other law is atomless, as only a RatioLaw mixes atoms with an atomless
    part, and gives its quantiles at a fixed Gauss-Legendre rule in u-space:
    24 nodes on each of 22 panels of every segment between the levels where
    the quantile jumps (_quantile_breaks; only a gapped coupling residual has
    any) by default, or the 12-node companion rule on the same panels, so no
    panel integrates across a jump.  Each (law, order) rule is built once and
    memoized on the law as read-only arrays.
    """
    rules = vars(d).setdefault("_rules", {})
    if order not in rules:
        rule = step_atoms(d)
        if rule is None and isinstance(d, RatioLaw):
            (n, v), (t, w) = law_nodes(d.numerator, order), law_nodes(d.denominator, order)
            rule = np.divide.outer(n, 1.0 + d.power * t).ravel(), np.outer(v, w).ravel()
        elif rule is None:
            u, w = _quantile_rule(order, d._quantile_breaks())
            rule = np.asarray(d.quantile(u)), w
        rules[order] = _read_only(*rule)
    return rules[order]


_BLOCK = 1 << 17  # kernel evaluations per block: 1 MB of doubles


@dataclass(frozen=True)
class RatioLaw(GainDistribution):
    """Law of Z = N / (1 + P D) for independent gains N (numerator) and D, P > 0.

    Z > z iff N > z (1 + P D), so its ccdf sums where Z's mass comes from:
    N's atoms over D's atoms, read off the atoms Z states (N = 0 keeps its
    whole mass at 0); N's atoms n_i > 0 over D's atomless part, exactly,
    sum_i Pr(N = n_i) Pr(D <= t_i, D not an atom), t_i = (n_i / z - 1) / P;
    and N's atomless part over D, E_D[Pr(N > z (1 + P D), N not an atom)]
    by D's rule of law_nodes, which agrees with adaptive quadrature to about
    1e-14.  Z's own rule, read by its rates and its mean, is the product of
    N's and D's rules.  Where D is a RatioLaw of two 528-node parts, D's rule
    has 278,784 nodes: each ccdf point evaluates N's ccdf that often, and Z's
    rule over an atomless N has 528 times as many (2.4 GB with its weights).
    The sum is clipped into [0, 1]; the rule's weights do not sum to exactly
    1, so cdf(0) of an atomless law can still sit a few ulps above 0.
    """

    numerator: GainDistribution
    denominator: GainDistribution
    power: float = _param(_check_positive)

    def __post_init__(self):
        super().__post_init__()
        if step_atoms(self.numerator) is None:
            law_nodes(self.denominator)  # D's rule, which the ccdf conditions on

    @property
    def continuous(self) -> bool:
        return self.numerator.continuous

    def _conditioned(self, kernel: Callable, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """The sum of kernel(z) * weights for each z in x, kernel(z) one value
        per node, in blocks of rows.  Each row is summed on its own: the
        rounding of a matrix product depends on how many rows one call holds,
        and a point's value must not."""
        z = x.reshape(-1, 1)
        out = np.empty(z.shape[0])
        step = max(1, _BLOCK // max(weights.size, 1))
        for i in range(0, out.size, step):
            out[i:i + step] = (np.asarray(kernel(z[i:i + step])) * weights).sum(axis=1)
        return out

    @functools.cached_property
    def _above(self) -> np.ndarray:
        """The mass of Z's atoms above each cut between them, summed from the top."""
        masses = self._atom_table[1]
        return _read_only(np.append(np.minimum(np.cumsum(masses[::-1])[::-1], 1.0), 0.0))[0]

    def _ccdf(self, x):
        # N's atoms over D's atoms from the atoms Z states, fl(n / (1 + P d)):
        # comparing fl(z (1 + P d)) with N's atoms could round past one
        out = self._above[self._atom_table[0].searchsorted(x, "right")]
        num, den = self.numerator, self.denominator
        if step_atoms(den) is None:
            n_values, n_masses, _ = num._atom_table
            nodes, weights = n_values[n_values > 0.0], n_masses[n_values > 0.0]

            def kernel(z):
                # z = 0 and subnormal z send t to +inf, where both cdfs are whole
                with np.errstate(divide="ignore", over="ignore"):
                    t = (nodes / z - 1.0) / self.power
                return den.cdf(t) - den._atomic_cdf(t)
            out = out + self._conditioned(kernel, x, weights)
        if step_atoms(num) is None:
            values, weights = law_nodes(den)
            nodes, mass = 1.0 + self.power * values, num._atomic_cdf(np.inf)

            def kernel(z):
                y = z * nodes
                return num.ccdf(y) - (mass - num._atomic_cdf(y))
            out = out + self._conditioned(kernel, x, weights)
        # the rounding of the weighted sums can step a few ulps past [0, 1]
        return np.clip(out, 0.0, 1.0)

    def _cdf(self, x):
        return 1.0 - self._ccdf(x)

    def _pdf(self, x):
        # f_Z(z) = E_D[(1 + P D) f_N(z (1 + P D))], the derivative of the ccdf's
        # rule; only a law with a density N has one
        values, weights = law_nodes(self.denominator)
        nodes = 1.0 + self.power * values
        return self._conditioned(lambda z: self.numerator.pdf(z * nodes), x, weights * nodes)

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        # N = 0 keeps its whole mass at 0; each other atom of N pairs with each of D
        values, masses, _ = self.numerator._atom_table
        den_values, den_masses, _ = self.denominator._atom_table
        zero = values == 0.0
        ratios = np.append(values[zero], np.divide.outer(values[~zero], 1.0 + self.power * den_values))
        z, idx = np.unique(ratios, return_inverse=True)
        return z, np.bincount(idx, np.append(masses[zero], np.outer(masses[~zero], den_masses)), z.size)


@dataclass(frozen=True)
class Empirical(GainDistribution):
    """Right-continuous step CDF of a sorted sample, kept as the tuple
    `values` and, for evaluation, once as a read-only array."""

    values: tuple = _param(key="values")
    continuous = False
    family = "empirical"

    def __post_init__(self):
        arr = np.array(self.values)  # a copy, flagged read-only below
        if arr.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in arr.flat):
            try:
                arr = arr.astype(float)  # Python ints past 64 bits
            except OverflowError:  # and past the largest double
                raise ValueError("empirical sample must be finite and nonnegative") from None
        if arr.dtype.kind not in "biuf":  # a real, as for a gain parameter: never a string
            import reprlib
            raise ValueError("empirical sample must be a list of numbers, "
                             f"got {reprlib.repr(self.values)}")
        arr = arr.astype(float, copy=False)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("empirical sample must be a nonempty flat list of values")
        if np.any(~np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("empirical sample must be finite and nonnegative")
        if np.any(np.diff(arr) < 0.0):
            raise ValueError("empirical sample must be sorted ascending")
        arr.flags.writeable = False
        object.__setattr__(self, "values", tuple(arr.tolist()))
        object.__setattr__(self, "_sorted", arr)

    @classmethod
    def from_samples(cls, samples) -> "Empirical":
        return cls(values=np.sort(np.asarray(samples)))

    def _cdf(self, x):
        return np.searchsorted(self._sorted, x, side="right") / self._sorted.size

    def _ccdf_left(self, x):
        return 1.0 - np.searchsorted(self._sorted, x, side="left") / self._sorted.size

    def atoms(self) -> tuple[np.ndarray, np.ndarray]:
        # the values are sorted, so each atom is a run of equal values
        vals = self._sorted
        first = np.flatnonzero(np.concatenate([[True], vals[1:] != vals[:-1]]))
        return vals[first], np.diff(np.append(first, vals.size)) / vals.size

    def mean(self) -> float:
        return float(np.mean(self._sorted))

    @property
    def sample_size(self) -> int:
        return len(self.values)


def build_ratio(numerator_mean: float, denominator_mean: float, interferer_power: float) -> RatioExpExp:
    """Distribution of an exponential gain divided by (1 + power * interferer gain)."""
    return RatioExpExp(num_mean=numerator_mean, den_mean=denominator_mean, power=interferer_power)


@dataclass(frozen=True, eq=False)
class EvaluationGrid:
    """Strictly increasing abscissae covering (0, x_max] for "for all x" checks.

    points may be any sequence of numbers; it is held as a read-only float64
    array of its own.
    """

    points: np.ndarray

    def __post_init__(self):
        arr = np.array(self.points, dtype=float)
        if arr.ndim != 1 or arr.size < 3:
            raise ValueError("grid needs at least 3 points in one dimension")
        if not (np.all(arr >= 0.0) and np.all(np.diff(arr) > 0.0)):
            raise ValueError("grid must be strictly increasing and nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)

    @property
    def x_max(self) -> float:
        return float(self.points[-1])

    def as_array(self) -> np.ndarray:
        return self.points

    @classmethod
    def log_spaced(cls, x_max: float) -> "EvaluationGrid":
        """4096 points evenly in log x on [x_max / 1e9, x_max]."""
        _check_positive("x_max", x_max)
        return cls(points=np.geomspace(x_max / 1e9, x_max, 4096))

    @classmethod
    def for_pair(cls, d1: GainDistribution, d2: GainDistribution) -> "EvaluationGrid":
        """Default grid up to the heavier tail's truncation point."""
        return cls.log_spaced(max(d1.tail_quantile(), d2.tail_quantile(), 1e-6))


_SPEC = "distribution spec"
_FAMILIES: dict[str, type[GainDistribution]] = {
    cls.family: cls
    for cls in (Exponential, NakagamiGain, BernoulliGain, PointMass, RatioExpExp, Empirical)
}


def _require(obj, name: str, where: str = "scenario"):
    """obj[name], once obj is a JSON object that holds it: the one reader of a
    required field of a scenario file, gain laws and Markov chains included."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    if name not in obj:
        raise ValueError(f"{where} missing field '{name}'")
    return obj[name]


def _json_list(value, where: str) -> list:
    """value itself, once it is a JSON list: the one reader of a list field."""
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {value!r}")
    return value


def distribution_from_spec(spec: dict) -> GainDistribution:
    """Build a distribution from its JSON descriptor, e.g. {"family": "exponential", "mean": 2.0}."""
    family = _require(spec, "family", _SPEC)
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValueError(f"unknown distribution family {family!r}")
    cls = _FAMILIES[family]
    kwargs = {}
    for name, _, key, default in _params(cls):
        # a field with a default is read only where present, so a present null is refused
        if default is MISSING or key in spec:
            kwargs[name] = _require(spec, key, _SPEC)
    return cls(**kwargs)


_INF_BITS = int(np.float64(np.inf).view(np.int64))


def _invert_cdf(cdf: Callable, u, x: np.ndarray | None = None) -> np.ndarray:
    """Generalized inverse inf{y >= 0 : cdf(y) >= u} of a cdf on [0, inf], to the double.

    cdf is a kernel on flat arrays of doubles in [0, inf]: every probe is one
    (the search clips bit patterns to that range), never a NaN or a negative,
    so a law passes its bare _cdf, without _evaluate's guards and passes.

    u = 0 maps to 0 and u = 1 to inf.  For interior u the answer is a crossing
    of the float cdf: the double y with cdf(y) >= u > cdf(previous double).
    Wherever cdf is nondecreasing in floating point that is the least such
    double, whatever the estimate.  Where it wobbles by a few ulps (scipy's
    gammainc does, and so does any cdf that subtracts O(1) cdf values, like
    the maximal coupling's components) several doubles cross u, and the
    answer is the crossing the search meets first: the one nearest the
    estimate.  Nonnegative doubles are ordered like their int64 bit patterns,
    so the search bisects bit patterns.  Without estimates it bisects all of
    [0, inf], 63 cdf evaluations; estimates x (one per level, overwritten
    with the answers) first gallop in ulps to a bracket cdf(lo) < u <= cdf(hi),
    so an estimate d ulps off costs about 2 log2(d) evaluations, and one at
    the answer or just below it two.  The estimates come from a closed form
    or scipy's inverses (Exponential, and NakagamiGain on batches of at most
    _TABLE_FROM levels, aim at the rounding boundary of u, see _upper_tail;
    RatioExpExp at m = 1; the maximal coupling's shared part), from Newton
    steps (RatioExpExp at m != 1), or from a table, its cubic Hermite
    interpolant and a refining step (NakagamiGain on larger batches, one
    Halley step; the coupling's residuals, two Newton steps); they set the
    cost and, where the cdf wobbles, which crossing is returned.
    """
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u) if x is None else x
    inner = (u > 0.0) & (u < 1.0)
    # a basic slice where every level is interior: views, no boolean gathers
    part = slice(None) if inner.all() else inner
    uu = u[part]
    # bracket lo < answer <= hi in bit order, lo = -1 standing below 0
    if x is None:
        lo = np.full(uu.shape, -1, dtype=np.int64)
        hi = np.full(uu.shape, _INF_BITS, dtype=np.int64)
    else:
        k = out[part].view(np.int64)
        np.clip(k, 0, _INF_BITS, out=k)
        ge = cdf(k.view(np.float64)) >= uu
        # estimates that satisfy cdf >= u gallop down, the others gallop up.
        # The first step, to the neighbour, runs on whole arrays in arithmetic
        # (np.where on a random mask costs more than the cdf): most levels end
        # there, bracketed by the estimate and its neighbour
        probe = np.clip(k + 1 - 2 * ge, 0, _INF_BITS)
        ok = cdf(probe.view(np.float64)) >= uu
        lo, hi = np.minimum(k, probe), np.maximum(k, probe)
        todo = np.flatnonzero(ok == ge)
        down, probe = ge[todo], probe[todo]
        lo[todo] = np.where(down, -1, probe)
        hi[todo] = np.where(down, probe, _INF_BITS)
        todo = todo[(probe > 0) & (probe < _INF_BITS)]
        step = 2
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
    out[part] = hi.view(np.float64)
    out[u == 0.0] = 0.0
    out[u == 1.0] = np.inf
    return out
