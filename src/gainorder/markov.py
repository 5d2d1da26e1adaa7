"""Degradedness certification for two-user finite-state Markov fading BCs.

A k-th order chain over N increasing state values is given by its N^k x N^k
transition matrix over super-states (the k most recent states, enumerated
lexicographically).  Super-state l = (t1..tk) can only move to (t2..tk, n): the
N columns from (l mod N^(k-1))*N on (0-based); all other entries must be zero.
A spec keeps only these blocks, its N^k x N next-state table.

Each condition of the certificate asks, for every pair of elementwise-ordered
histories l <= s of one length m, that the weak chain's next-state law after l
is below the strong chain's after s in the usual stochastic order:
  (i)   m = 0: the law of H(0);
  (ii)  m = 1..k-1: the supplied early-step conditionals, which the matrix
        does not determine;
  (iii) m = k: the next-state table rows, for every ordered pair of
        super-states, whether or not they share a suffix.  Witness
        ("rows", l, s, n): 1-based super-states l <= s and the 1-based state
        n above which the weak chain after l puts more mass than the strong
        chain after s.
A spec's record is its laws as integer numerators over one common
denominator D: int64 where no pmf sum can overflow, Python ints otherwise, so
exactness never depends on size.  Each condition scales both chains to
lcm(Dw, Ds) and compares each weak tail sum after l with the minimum of the
strong ones over all s >= l, a running minimum along each of the m history
axes: O(m N^(m+1)) work.  Only a failing condition lists its pairs.  The
certificate, the path simulation and the float and tail views all read one
table of integer laws per history length.  Each float, a law entry or a cdf
level, is an exact integer sum divided once by Python's correctly rounded int
division; rounding is monotone, so a certified pair stays path-ordered for
every uniform.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .distributions import _json_list, _open_unit, _require

__all__ = [
    "MarkovChannelSpec",
    "MarkovCertificate",
    "super_state",
    "super_state_index",
    "ccdf_matrix",
    "comparable_pairs",
    "check_markov_degraded",
    "check_indecomposable",
    "coupled_paths",
    "stationary_distribution",
    "markov_spec_from_json",
]

_SUM_TOL = 10**12  # a pmf's entries must sum to 1 within 1/_SUM_TOL
_INT64_BOUND = 2**62  # a sum of n int64 entries, each below _INT64_BOUND / n, cannot overflow


def _to_fraction(x) -> Fraction:
    """A finite number or a fraction string like "1/3"; floats keep their exact binary value."""
    try:
        if isinstance(x, (str, float, numbers.Rational)):
            return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"cannot interpret {x!r} as a number")


class _Numbers(dict):
    """Entry -> Fraction, converting each distinct entry once, and the pmfs of
    one spec, checked together and kept as integers once they are all read.

    Entries that compare equal (1, 1.0 and True) share one key; their
    Fractions are equal too.
    """

    def __init__(self):
        super().__init__()
        self.pmfs = {}  # block -> [(entries, name), ...]; blocks in reading order

    def __missing__(self, x):
        self[x] = value = _to_fraction(x)
        return value

    def convert(self, values) -> tuple:
        values = tuple(values)  # a second pass must see every entry again
        try:
            return tuple(map(self.__getitem__, values))
        except TypeError:  # an unhashable entry, never a number: name the first bad one
            return tuple(map(_to_fraction, values))

    def pmf(self, values, size: int, block: str, name: str) -> None:
        """Queue `size` numbers as a row of block; numerators() checks their sum."""
        values = tuple(values)
        if len(self.convert(values)) != size:
            raise _not_a_pmf(name, size)
        self.pmfs.setdefault(block, []).append((values, name))

    def numerators(self) -> tuple:
        """(D, {block: array}): the queued pmfs as integer numerators over their
        common denominator D, one row per pmf, int64 when no row sum can
        overflow and Python ints otherwise, each read-only.  Raises the error
        of the first pmf, in reading order, with a negative entry or a sum off
        1 by more than 1/_SUM_TOL."""
        rows = {block: [values for values, _ in pmfs] for block, pmfs in self.pmfs.items()}
        keys = set(itertools.chain.from_iterable(itertools.chain.from_iterable(rows.values())))
        den = math.lcm(*{self[x].denominator for x in keys})
        scaled = {x: self[x].numerator * (den // self[x].denominator) for x in keys}
        largest = max((den, *map(abs, scaled.values())))
        lo, hi = den - den // _SUM_TOL, den + den // _SUM_TOL  # |sum/D - 1| <= 1/_SUM_TOL
        arrays = {}
        for block, pmfs in self.pmfs.items():
            count, size = len(pmfs), len(pmfs[0][0])
            dtype = np.int64 if largest * size < _INT64_BOUND else object
            flat = map(scaled.__getitem__, itertools.chain.from_iterable(rows[block]))
            table = np.fromiter(flat, dtype=dtype, count=count * size).reshape(count, size)
            total = table.sum(axis=1)
            bad = (table < 0).any(axis=1) | (total < lo) | (total > hi)
            if bad.any():
                raise _not_a_pmf(pmfs[bad.argmax()][1], size)
            table.flags.writeable = False
            arrays[block] = table
        return den, arrays


def _not_a_pmf(name: str, size: int) -> ValueError:
    return ValueError(f"{name} must be a pmf: {size} nonnegative entries that sum to 1")


def super_state(l: int, k: int, N: int) -> tuple:
    """Row index l (1-based) -> k-tuple of 0-based state indices, lexicographic.

    l = 1 maps to (0, ..., 0); the last index varies fastest.
    """
    if not 1 <= l <= N**k:
        raise ValueError(f"row index {l} outside 1..{N ** k}")
    digits = []
    rem = l - 1
    for _ in range(k):
        digits.append(rem % N)
        rem //= N
    return tuple(reversed(digits))


def super_state_index(indices, N: int) -> int:
    """Inverse of super_state: k-tuple of 0-based state indices -> 1-based row."""
    l = 0
    for d in indices:
        if not 0 <= d < N:
            raise ValueError(f"state index {d} outside 0..{N - 1}")
        l = l * N + d
    return l + 1


@dataclass(frozen=True, eq=False, init=False)
class MarkovChannelSpec:
    """One k-th order finite-state Markov fading channel, kept as integer laws.

    Built from states (strictly increasing gain values), order k (a whole
    number >= 1, kept as an int: 2.0 reads as 2, True is refused), matrix (the
    row-stochastic N^k x N^k transition matrix over super-states), initial (the
    joint law of H(0), ..., H(k-1)) and early_conditionals, optional (history,
    pmf) pairs: the next state's law after 1..k-1 state values, which condition
    (ii) needs but the matrix does not determine.  The record holds each law as
    read-only integer numerators over den: the next-state table, the initial
    law and one early row per entry of histories.  Specs compare by identity.
    """

    states: tuple  # of float
    order: int
    den: int
    table_numerators: np.ndarray  # N^k x N: the next-state law after each super-state
    initial_numerators: np.ndarray  # N^k
    early_numerators: np.ndarray  # len(histories) x N
    histories: tuple  # of state-value tuples

    def __init__(self, states, order, matrix, initial, early_conditionals=()):
        parsed = _Numbers()  # one conversion per distinct entry of this spec
        states = tuple(map(float, parsed.convert(states)))
        if not states or any(b <= a for a, b in zip(states, states[1:])):
            raise ValueError("state values must be a nonempty, strictly increasing list")
        whole = isinstance(order, (numbers.Integral, float)) and order % 1 == 0  # not nan, inf
        if isinstance(order, bool) or not whole or order < 1:  # a count: True is not one
            raise ValueError(f"chain order k must be a whole number >= 1, got {order!r}")
        n, k = len(states), int(order)
        if n > 1 and k > len(matrix):  # then n^k > len(matrix): spare the huge power
            raise ValueError(f"transition matrix must have {n}^{k} rows")
        n_super = n**k
        if len(matrix) != n_super or any(len(row) != n_super for row in matrix):
            raise ValueError(f"transition matrix must be {n_super}x{n_super}")
        histories = []
        try:  # a pmf read before a bad entry reports its own error first
            for l, row in enumerate(matrix, start=1):
                start = (l - 1) % (n_super // n) * n
                block = row[start:start + n]
                # every off-block entry spelled as the first one, 0 or "0", is
                # counted; one count per spelling, as a count across spellings
                # pays a slow mixed-type comparison per entry
                zero = row[0] if start else row[-1]  # off the block where k > 1
                try:
                    zeros = zero in (0, "0") and \
                        row.count(zero) - block.count(zero) == n_super - n
                except (AttributeError, TypeError, ValueError):  # a numpy row has no
                    zeros = False  # count(); an entry may fail to compare with zero
                if not zeros:  # look closer, entry by entry
                    for c, x in enumerate(row, start=1):
                        if not start < c <= start + n and x not in (0, "0") and \
                                _to_fraction(x) != 0:
                            raise ValueError(f"entry ({l},{c}) must be zero: column state "
                                             f"{super_state(c, k, n)} does not extend row "
                                             f"state {super_state(l, k, n)}")
                parsed.pmf(block, n, "table", f"row {l}")
            parsed.pmf(initial, n_super, "initial", "initial distribution")
            for history, pmf in early_conditionals:
                hist = tuple(map(float, parsed.convert(history)))
                # a history of length k is a row of the matrix: it conditions nothing
                if not 1 <= len(hist) < k or any(v not in states for v in hist):
                    raise ValueError(f"early conditional history {hist} must be 1..k-1 "
                                     f"state values, k = {k}")
                parsed.pmf(pmf, n, "early", f"conditional pmf for history {hist}")
                histories.append(hist)
        except Exception:
            parsed.numerators()
            raise
        den, laws = parsed.numerators()
        early = laws.get("early", np.empty((0, n), dtype=np.int64))
        early.flags.writeable = False
        for name, value in (("states", states), ("order", k), ("den", den),
                            ("table_numerators", laws["table"]),
                            ("initial_numerators", laws["initial"][0]),
                            ("early_numerators", early), ("histories", tuple(histories))):
            object.__setattr__(self, name, value)

    # -- derived views -------------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_super(self) -> int:
        return self.n_states ** self.order

    def matrix_float(self) -> np.ndarray:
        """The full N^k x N^k transition matrix in floats, each entry rounded once."""
        return _full_matrix(_quotients(self.table_numerators, [self.den] * self.n_super), 0.0)


def markov_spec_from_json(obj: dict) -> MarkovChannelSpec:
    """Build a chain spec from its JSON form:
    {"k": 1, "states": [...], "matrix": [[...]], "initial": [...],
     "early_conditionals": [{"history": [...], "pmf": [...]}, ...]}.
    Probabilities and states may be numbers or fraction strings like "1/3";
    the spec checks every value, k included."""
    where, entry = "markov chain spec", "each early conditional"
    return MarkovChannelSpec(
        states=_json_list(_require(obj, "states", where), "field 'states'"),
        order=_require(obj, "k", where),
        matrix=tuple(_json_list(row, "each matrix row")
                     for row in _json_list(_require(obj, "matrix", where), "field 'matrix'")),
        initial=_json_list(_require(obj, "initial", where), "field 'initial'"),
        early_conditionals=tuple(
            (_json_list(_require(e, "history", entry), "each early history"),
             _json_list(_require(e, "pmf", entry), "each early pmf"))
            for e in _json_list(obj.get("early_conditionals", []), "field 'early_conditionals'")),
    )


def _full_matrix(table: np.ndarray, zero) -> np.ndarray:
    """The N^k x N^k matrix holding table row l in the block that extends l."""
    n_super, n = table.shape
    rows = np.arange(n_super)[:, None]
    full = np.full((n_super, n_super), zero, dtype=table.dtype)
    full[rows, rows % (n_super // n) * n + np.arange(n)] = table
    return full


def _tails(a: np.ndarray) -> np.ndarray:
    """tails[..., n] = sum_{j > n} a[..., j]; exact on integer arrays, object ones included."""
    return np.cumsum(a[..., ::-1], axis=-1)[..., ::-1] - a


def _quotients(numerators: np.ndarray, totals: list) -> np.ndarray:
    """numerators[i, j] / totals[i] as floats, rounded once by Python's int
    division: numpy's division of int64 numerators past 2^53 is not."""
    return np.array([[a / t for a in row] for row, t in zip(numerators.tolist(), totals)])


def ccdf_matrix(spec: MarkovChannelSpec) -> tuple:
    """Row-wise tail sums: entry (l, n) = sum_{j > n} P[l][j], exact rationals."""
    tails = _tails(_full_matrix(spec.table_numerators, 0)).tolist()
    return tuple(tuple(Fraction(t, spec.den) for t in row) for row in tails)


def _digits(m: int, N: int) -> np.ndarray:
    """Row i: the m 0-based states of the i-th length-m history, lexicographically."""
    return np.arange(N**m)[:, None] // N ** np.arange(m - 1, -1, -1) % N


def _next_state_laws(spec: MarkovChannelSpec) -> list:
    """[(laws, totals, stated)] for each history length m = 0..k: row h of laws
    holds the integer numerators of the next state's law after the h-th
    history of length m (lexicographic), totals[h] their sum, and stated is
    whether the spec states each of these laws rather than implying some.

    m = 0: the law of H(0).  1 <= m < k: the first supplied early conditional
    for the history; otherwise the initial law conditioned on the history,
    uniform where it has probability 0.  m = k: the table.  Stated laws are
    over the spec's common denominator, conditioned ones over their total.
    """
    N, k = spec.n_states, spec.order
    # reversed, so that the first entry for a history wins
    first = {hist: i for i, hist in reversed(list(enumerate(spec.histories)))}
    out = []
    for m in range(k):
        laws = spec.initial_numerators.reshape(N**m, N, -1).sum(axis=2)
        found = [first.get(hist) for hist in itertools.product(spec.states, repeat=m)]
        rows = [h for h, i in enumerate(found) if i is not None]
        if rows:
            laws[rows] = spec.early_numerators[[found[h] for h in rows]]
        laws[laws.sum(axis=1) == 0] = 1
        out.append((laws, laws.sum(axis=1), m == 0 or len(rows) == N**m))
    table = spec.table_numerators
    return out + [(table, table.sum(axis=1), True)]


def comparable_pairs(k: int, N: int) -> list:
    """All 1-based row pairs (l, s) whose super-states compare elementwise <=."""
    if k < 1 or N < 1:
        raise ValueError("need k >= 1 and N >= 1")
    digits = _digits(k, N)
    l, s = np.nonzero(np.all(digits[:, None, :] <= digits[None, :, :], axis=-1))
    return list(zip((l + 1).tolist(), (s + 1).tolist()))


def _order_violations(weak: np.ndarray, strong: np.ndarray, dens: tuple, m: int, N: int):
    """Yield, in row-major order, each pair (l, s) of 0-based history indices,
    l <= s elementwise, where some tail sum of weak[l] exceeds that of
    strong[s], with the first such 0-based state n (tail Pr(next > states[n])).

    weak and strong hold one pmf over the N states per history of length m,
    lexicographically, as integer numerators over dens[0] and dens[1]; both
    are scaled to lcm(dens).  Only a history l whose weak tails exceed the
    minimum of the strong tails over s >= l has pairs to list.
    """
    den = math.lcm(*dens)
    dtype = np.int64 if den * N < _INT64_BOUND else object
    tw, ts = (_tails(laws.astype(dtype) * (den // d)) for laws, d in zip((weak, strong), dens))
    floor = ts.reshape((N,) * m + (N,))
    for axis in range(m):  # running minimum from the top state down, along each history axis
        floor = np.flip(np.minimum.accumulate(np.flip(floor, axis), axis=axis), axis)
    exceeds = (tw > floor.reshape(ts.shape)).any(axis=1)
    digits = _digits(m, N)
    for l in np.flatnonzero(exceeds):
        s = np.flatnonzero((digits >= digits[l]).all(axis=1))
        above = tw[l] > ts[s]
        for i in np.flatnonzero(above.any(axis=1)):
            yield int(l), int(s[i]), int(above[i].argmax())


@dataclass
class MarkovCertificate:
    verdict: bool
    conditional: bool  # (i) and (iii) hold but (ii) could not be verified
    initial_ok: bool
    early_status: str  # "passed" | "failed" | "unverified" | "vacuous"
    rows_ok: bool
    witnesses: list = field(default_factory=list)  # (condition, detail...) tuples
    notes: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "topology": "markov_bc",
            "verdict": self.verdict,
            "conditional": self.conditional,
            "conditions": {
                "initial_state_order": self.initial_ok,
                "early_conditionals": self.early_status,
                "transition_ccdf_rows": self.rows_ok,
            },
            "witnesses": [list(w) for w in self.witnesses],
            "notes": list(self.notes),
        }


def check_markov_degraded(weak: MarkovChannelSpec, strong: MarkovChannelSpec) -> MarkovCertificate:
    """Certify that (weak, strong) forms a degraded BC with weak as the degraded user."""
    if weak.states != strong.states:
        raise ValueError("both chains must share the same state values")
    if weak.order != strong.order:
        raise ValueError("both chains must have the same order")

    cert = MarkovCertificate(
        verdict=False, conditional=False, initial_ok=False, early_status="vacuous", rows_ok=False
    )

    N, k = weak.n_states, weak.order
    laws = [_next_state_laws(spec) for spec in (weak, strong)]

    def violations(m):
        return _order_violations(laws[0][m][0], laws[1][m][0], (weak.den, strong.den), m, N)

    cert.initial_ok = next(violations(0), None) is None
    if not cert.initial_ok:
        cert.witnesses.append(("initial", "H1(0) not <=_st H2(0)"))

    if k > 1:  # (ii) only when both specs state every early conditional
        stated = all(given for side in laws for _, _, given in side)
        cert.early_status = "passed" if stated else "unverified"
        for m in range(1, k if stated else 1):
            for l, s, _ in violations(m):
                cert.early_status = "failed"
                cert.witnesses.append(("early", m, super_state(l + 1, m, N),
                                       super_state(s + 1, m, N)))

    row = next(violations(k), None)
    cert.rows_ok = row is None
    if row is not None:
        l, s, n = row
        cert.witnesses.append(("rows", l + 1, s + 1, n + 1))

    fully_checked = cert.early_status in ("passed", "vacuous")
    cert.verdict = cert.initial_ok and cert.rows_ok and fully_checked
    cert.conditional = cert.initial_ok and cert.rows_ok and cert.early_status == "unverified"
    if cert.conditional:
        cert.notes.append(
            "early-step conditionals were not supplied; conditions on steps 1..k-1 "
            "are unverified and the certificate is conditional on them"
        )
    return cert


def check_indecomposable(spec: MarkovChannelSpec) -> bool:
    """True iff some power P^n, n <= R(R-1)+1 with R = N^k, has an all-positive column."""
    reach = spec.matrix_float() > 0.0
    step = reach.copy()
    bound = spec.n_super * (spec.n_super - 1) + 1
    for _ in range(bound):
        if np.any(np.all(step, axis=0)):
            return True
        step = (step.astype(float) @ reach.astype(float)) > 0.0
    return False


def stationary_distribution(spec: MarkovChannelSpec) -> np.ndarray:
    """The super-state chain's unique stationary law by eigenvector extraction, else ValueError."""
    mat = spec.matrix_float()
    reach = (mat > 0.0) | np.eye(len(mat), dtype=bool)  # j in zero or more steps from i
    while not np.array_equal(wider := (reach.astype(float) @ reach) > 0.0, reach):
        reach = wider
    # i's class is closed iff each state i reaches reaches i back; they are that class
    closed = sorted({tuple(np.flatnonzero(r)) for i, r in enumerate(reach) if reach[r, i].all()})
    if len(closed) > 1:
        raise ValueError("the chain has more than one closed class, so no unique stationary law: "
                         f"super-states {', '.join(str([int(j) + 1 for j in c]) for c in closed)}")
    vals, vecs = np.linalg.eig(mat.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, idx])
    pi = np.abs(pi)
    return pi / pi.sum()


def coupled_paths(weak: MarkovChannelSpec, strong: MarkovChannelSpec, length: int,
                  uniforms: np.ndarray, force: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Simulate both chains from one shared uniform stream per step.

    uniforms has shape (n_paths, length); entry (p, m) drives step m of path p
    for both chains through the discrete generalized inverse of each chain's
    current conditional law.  Returns two (n_paths, length) arrays of state
    values.  Refuses unverified pairs unless force=True.
    """
    if not force and not check_markov_degraded(weak, strong).verdict:
        raise ValueError("degradedness is not certified for this pair; "
                         "pass force=True to simulate anyway")
    u = np.atleast_2d(_open_unit(uniforms))
    if u.shape[1] != length:
        raise ValueError(f"uniform stream must have {length} columns, got {u.shape[1]}")

    return tuple(_simulate_chain(spec, length, u) for spec in (weak, strong))


def _simulate_chain(spec: MarkovChannelSpec, length: int, u: np.ndarray) -> np.ndarray:
    k, N = spec.order, spec.n_states
    cdfs = [_quotients(np.cumsum(laws, axis=1), totals.tolist())
            for laws, totals, _ in _next_state_laws(spec)]
    idx_path = np.empty(u.shape, dtype=int)
    hist = np.zeros(u.shape[0], dtype=int)  # flat index of each path's last min(m, k) states
    for m in range(length):  # the least state whose cdf reaches u: the generalized inverse
        idx_path[:, m] = (cdfs[min(m, k)][hist] < u[:, m, None]).sum(axis=1)
        hist = hist % N ** (k - 1) * N + idx_path[:, m]
    return np.asarray(spec.states)[idx_path]
