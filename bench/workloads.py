"""Seeded scenario generator for the two benchmark workloads.

`sampling` joins the IC/WTC scenarios with Nakagami gains (the 1e6-draw Monte
Carlo ratio law, quantile inversion, rates) and the coupling samples with the
verification suite; `exact` joins the broadcast-chain order sweep and the
exact-fraction Markov certificates, with no sampling at all.  Every layer of
the program carries load in at least one of them, and the ratio law, coupling,
verify and markov layers run in one only.  Two workloads rather than four
leave each run long enough to average over the machine's speed drift.

Each workload is a fixed list of structural templates (topology, families,
user count, Markov order and size, verdict kind).  The seed only picks the
numbers inside each template: family parameters, powers, sample seeds and
Markov transition weights.  Every seed therefore yields the same mix of
topologies and verdict kinds, and the same amount of work up to the spread of
the drawn parameters.

An operation is one `gainorder` CLI invocation.  The generator writes each
scenario file and returns the argv that runs it; the oracle reads the same
scenario dicts back through `Op.scenario`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import zlib
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

# workload -> the template groups it runs, in order
WORKLOADS = {
    "sampling": ("ic-nakagami", "coupling-verify"),
    "exact": ("order-sweep", "markov-certify"),
}

# Nakagami shapes of the templates that carry a workload's cost.  The program
# inverts the Nakagami CDF iteratively, and its iteration count changes
# erratically with the shape (integers even take a shortcut), so these stay
# fixed and non-integer; the seed varies the scales.
SHAPE_MC = 2.5               # numerator of the 1e6-draw ratio law
SHAPES_CHAIN = (1.5, 2.4)    # the two Nakagami users of a broadcast chain
SHAPES_COUPLING = (0.75, 2.2)


@dataclass
class Op:
    """One CLI invocation: scenario file, argv and what the oracle needs."""

    name: str
    command: str                 # CLI subcommand
    args: list                   # extra CLI flags after the scenario path
    scenario: dict | None = None
    expect: dict = field(default_factory=dict)  # sizes and seeds the oracle checks against
    suffix: str = ".json"        # output file suffix

    def argv(self, workdir: Path) -> list:
        argv = [self.command]
        if self.scenario is not None:
            argv.append(str(self.scenario_path(workdir)))
        return argv + [str(a) for a in self.args] + ["--out", str(self.out_path(workdir))]

    def scenario_path(self, workdir: Path) -> Path:
        return workdir / "scenarios" / f"{self.name}.json"

    def out_path(self, workdir: Path) -> Path:
        return workdir / "out" / f"{self.name}{self.suffix}"


def write_scenarios(ops: list, workdir: Path) -> None:
    (workdir / "scenarios").mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    for op in ops:
        if op.scenario is not None:
            op.scenario_path(workdir).write_text(json.dumps(op.scenario, indent=1))


def write_manifest(workload: str, seed: int, smoke: bool, workdir: Path) -> None:
    """Scenario files of a run's operations and of its smoke-size warm-up
    operations, and `ops.json`, from which `read_manifest` rebuilds both lists."""
    ops = generate(workload, seed, smoke=smoke)
    warm = generate(workload, seed, smoke=True)
    for op in warm:
        op.name = "warmup-" + op.name
    write_scenarios(ops + warm, workdir)
    manifest = {"ops": [asdict(op) for op in ops], "warmup": [asdict(op) for op in warm]}
    (workdir / "ops.json").write_text(json.dumps(manifest))


def read_manifest(workdir: Path) -> tuple[list, list]:
    manifest = json.loads((workdir / "ops.json").read_text())
    return ([Op(**d) for d in manifest["ops"]], [Op(**d) for d in manifest["warmup"]])


def generate(workload: str, seed: int, smoke: bool = False) -> list:
    """The operations of one pass of `workload` for `seed`, group after group.

    smoke=True keeps every template but shrinks its size (sample counts,
    user counts, Markov state counts); the 1e6-draw ratio law has no size
    flag, so its smoke stand-in is the exact exponential very-strong case.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    builders = {
        "ic-nakagami": _ic_nakagami,
        "order-sweep": _order_sweep,
        "coupling-verify": _coupling_verify,
        "markov-certify": _markov_certify,
    }
    ops = []
    for group in WORKLOADS[workload]:
        rng = np.random.default_rng([seed % 2**63, zlib.crc32(group.encode())])
        ops += builders[group](rng, smoke)
    return ops


# -- family helpers -----------------------------------------------------------


def exp_(mean: float) -> dict:
    return {"family": "exponential", "mean": float(mean)}


def nak(m: float, w: float) -> dict:
    return {"family": "nakagami_gain", "m": float(m), "w": float(w)}


def bern(q: float) -> dict:
    return {"family": "bernoulli", "q": float(q)}


def pm(value: float) -> dict:
    return {"family": "point_mass", "value": float(value)}


def _u(rng, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _ic(h11, h12, h21, h22, p1, p2, condition) -> dict:
    return {
        "topology": "ic",
        "condition": condition,
        "powers": [float(p1), float(p2)],
        "gains": {"h11": h11, "h12": h12, "h21": h21, "h22": h22},
    }


def _classify(name, scenario) -> Op:
    return Op(name, "classify", [], scenario)


# -- ic-nakagami --------------------------------------------------------------


def _subtol_direct_mean(m: float, w: float, den_mean: float, power: float, target: float) -> float:
    """Mean of an exponential H11 whose CCDF exceeds that of
    Z = Nakagami(m, w) / (1 + power * Exp(den_mean)) by exactly `target` at its worst point.

    The gap grows with the exponential mean, so bisection on the mean finds it.
    """
    from oracle import ratio_ccdf_on_grid

    z = np.geomspace(1e-4 * w, 40.0 * w / m, 600)
    ccdf_z = ratio_ccdf_on_grid(nak(m, w), exp_(den_mean), power, z)

    def gap(mean: float) -> float:
        return float(np.max(np.exp(-z / mean) - ccdf_z))

    lo, hi = 1e-3 * w, 10.0 * w
    for _ in range(60):
        mid = math.sqrt(lo * hi)
        if gap(mid) < target:
            lo = mid
        else:
            hi = mid
    return hi


def _ic_nakagami(rng, smoke):
    ops = []
    # very strong IC, Nakagami numerator: the 1e6-draw Monte Carlo ratio law.
    # H11 is tuned so that H11 <=_st Z1 truly fails, by less than the widened
    # Monte Carlo tolerance 3 * 1.36 / sqrt(1e6) = 4.08e-3.
    m21, w21 = SHAPE_MC, _u(rng, 3.0, 5.0)
    b, p1, p2 = _u(rng, 0.2, 0.4), _u(rng, 0.8, 1.2), _u(rng, 0.8, 1.2)
    target = _u(rng, 1.0e-3, 1.8e-3)
    mu11 = _subtol_direct_mean(m21, w21, b, p2, target)
    a = 1.25 * b * (1.0 + p1 * mu11) * _u(rng, 1.0, 1.2)
    subtol = _ic(exp_(mu11), exp_(a), nak(m21, w21), exp_(b), p1, p2, "very_strong")
    if not smoke:
        ops.append(_classify("vs-nak-subtol", subtol))

    # very strong IC, all exponential: the closed-form ratio law.  Exp(x) <=_st
    # Exp(n) / (1 + P Exp(d)) iff x <= n / (1 + P d), so halve that bound.
    b, c = _u(rng, 2.0, 4.0), _u(rng, 0.1, 0.3)
    p1, p2 = _u(rng, 0.8, 1.2), _u(rng, 0.8, 1.2)
    mu11 = 0.5 * b / (1.0 + p2 * c)
    a = 2.0 * c * (1.0 + p1 * mu11) * _u(rng, 1.0, 1.5)
    ops.append(_classify("vs-exp-pos", _ic(exp_(mu11), exp_(a), exp_(b), exp_(c), p1, p2,
                                           "very_strong")))

    # strong IC mixing Nakagami m < 1 and m > 1 with an exponential gain
    m11, w11 = _u(rng, 0.5, 0.8), _u(rng, 0.5, 1.5)
    m21 = _u(rng, 1.5, 2.5)
    w21 = m21 * (w11 / m11) * _u(rng, 1.5, 2.0)   # shape and scale both above h11
    b = _u(rng, 0.5, 1.5)
    m12 = _u(rng, 1.5, 2.5)
    w12 = m12 * b * _u(rng, 1.2, 1.6)              # exponential is gamma with shape 1
    strong = _ic(nak(m11, w11), nak(m12, w12), nak(m21, w21), exp_(b),
                 _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0), "strong")
    ops.append(_classify("strong-nak-pos", strong))
    ops.append(Op("region-strong-nak", "region", [], strong, suffix=".csv"))

    # near CCDF ties: Nakagami m = 1 against the exponential of the same mean
    # (equal laws), and two Nakagami gains whose CCDFs cross by a sliver
    w = _u(rng, 0.5, 2.0)
    m, theta = _u(rng, 1.5, 3.0), _u(rng, 0.5, 1.0)
    eps = _u(rng, 0.01, 0.03)
    m_b, theta_b = m * (1.0 + eps), theta * (1.0 - 0.5 * eps)
    tie = _ic(nak(1.0, w), nak(m_b, m_b * theta_b), exp_(w), nak(m, m * theta),
              _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0), "strong")
    ops.append(_classify("strong-nak-tie", tie))

    # wiretap: degraded (Nakagami m > 1 over an exponential) and not degraded
    m_l = _u(rng, 1.5, 3.0)
    w_l = _u(rng, 1.0, 3.0)
    wtc_pos = {"topology": "wtc", "legitimate": nak(m_l, w_l),
               "eavesdropper": exp_(w_l / m_l * _u(rng, 0.5, 0.9)), "power": _u(rng, 0.5, 5.0)}
    ops.append(Op("secrecy-nak-pos", "secrecy", [], wtc_pos))
    m_l = _u(rng, 0.3, 0.7)
    wtc_neg = {"topology": "wtc", "legitimate": nak(m_l, _u(rng, 1.0, 2.0)),
               "eavesdropper": exp_(_u(rng, 0.5, 1.0)), "power": _u(rng, 0.5, 5.0)}
    ops.append(Op("secrecy-nak-neg", "secrecy", [], wtc_neg))
    return ops


# -- order-sweep --------------------------------------------------------------


def _chain(rng, k: int) -> list:
    """k gains in strictly increasing usual stochastic order, mixed families.

    Pattern: point mass at 0 <= Bernoulli <= Bernoulli <= exponential <= Nakagami
    <= Nakagami, truncated from the left so the chain keeps its continuous top.
    """
    q1 = _u(rng, 0.1, 0.3)
    q2 = q1 + _u(rng, 0.1, 0.2)
    mu = -1.0 / math.log(q2) * _u(rng, 1.2, 2.0)    # exp ccdf at 1 above q2
    m5, m6 = SHAPES_CHAIN
    th5 = mu * _u(rng, 1.2, 1.6)
    th6 = th5 * _u(rng, 1.1, 1.4)
    full = [pm(0.0), bern(q1), bern(q2), exp_(mu), nak(m5, m5 * th5), nak(m6, m6 * th6)]
    return full[len(full) - k:]


def _bc(gains, rng) -> dict:
    order = rng.permutation(len(gains))
    return {"topology": "bc", "distributions": [gains[i] for i in order],
            "power": _u(rng, 0.5, 2.0)}


def _incomparable_set(rng, k: int, nakagami: int) -> list:
    """k gains totally ordered except one incomparable pair (a Bernoulli and an
    exponential whose CCDFs cross), so no permutation chains them and the
    classifier tries all k! orders before reporting the pair.  `nakagami` (0 or 2)
    sets how many users are Nakagami, the family whose checks cost most."""
    gains = _chain(rng, 6)
    q1, q2 = gains[1]["q"], gains[2]["q"]
    # an exponential whose CCDF at 1 lies between q1 and q2: above Bernoulli(q1),
    # crossing Bernoulli(q2)
    target = _u(rng, q1 + 0.25 * (q2 - q1), q1 + 0.75 * (q2 - q1))
    if nakagami == 0:  # the chain's exponential and a larger one replace the Nakagami pair
        gains[4], gains[5] = gains[3], exp_(gains[3]["mean"] * _u(rng, 1.2, 1.5))
    gains[3] = exp_(-1.0 / math.log(target))
    return gains[6 - k:]


def _order_sweep(rng, smoke):
    ops = []
    for k in (2, 3, 4, 5, 6):
        ops.append(_classify(f"bc-chain-k{k}", _bc(_chain(rng, k), rng)))
    for k, nakagami in (((4, 2),) if smoke else ((5, 2), (6, 0))):
        ops.append(_classify(f"bc-incomparable-k{k}",
                             _bc(_incomparable_set(rng, k, nakagami), rng)))

    a, b = _u(rng, 0.5, 1.5), _u(rng, 0.5, 1.5)
    strong = _ic(exp_(a), exp_(b * _u(rng, 1.5, 3.0)), exp_(a * _u(rng, 1.5, 3.0)), exp_(b),
                 _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0), "strong")
    ops.append(_classify("ic-strong-exp-pos", strong))
    weak = _ic(exp_(a), exp_(b * _u(rng, 0.3, 0.7)), exp_(a * _u(rng, 1.5, 3.0)), exp_(b),
               _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0), "strong")
    ops.append(_classify("ic-strong-exp-neg", weak))

    b, c = _u(rng, 2.0, 4.0), _u(rng, 0.1, 0.3)
    p1, p2 = _u(rng, 0.5, 2.0), _u(rng, 0.5, 2.0)
    mu11 = 0.5 * b / (1.0 + p2 * c)
    a = 2.0 * c * (1.0 + p1 * mu11) * _u(rng, 1.0, 1.5)
    ops.append(_classify("ic-vs-exp-pos", _ic(exp_(mu11), exp_(a), exp_(b), exp_(c), p1, p2,
                                              "very_strong")))
    ops.append(_classify("ic-vs-exp-neg", _ic(exp_(2.0 * b), exp_(a), exp_(b), exp_(c), p1, p2,
                                              "very_strong")))

    q = _u(rng, 0.2, 0.6)
    ops.append(_classify("wtc-bern-exp", {"topology": "wtc", "legitimate": exp_(
        -1.0 / math.log(q) * _u(rng, 1.2, 2.0)), "eavesdropper": bern(q), "power": 1.0}))

    points = 200 if smoke else 2000
    for fig in (3, 4):
        hmax = round(_u(rng, 15.0, 25.0), 3)
        ops.append(Op(f"figure-{fig}", "figure", ["--fig", fig, "--hmax", hmax, "--points", points],
                      None, {"fig": fig, "hmax": hmax, "points": points}, suffix=".csv"))
    return ops


# -- coupling-verify ----------------------------------------------------------


def _coupling_verify(rng, smoke):
    scale = 50 if smoke else 1
    ops = []

    def sample(name, construction, d1, d2, n):
        n //= scale
        scen = {"distributions": [d1, d2]}
        sample_seed = int(rng.integers(0, 2**31))
        ops.append(Op(name, "coupling-sample",
                      ["--construction", construction, "-n", n, "--seed", sample_seed],
                      scen, {"construction": construction, "n": n}, suffix=".csv"))

    m1, m2 = SHAPES_COUPLING
    sample("maximal-nak", "maximal", nak(m1, _u(rng, 0.8, 1.2)), nak(m2, _u(rng, 1.5, 2.5)), 15_000)
    sample("maximal-exp", "maximal", exp_(_u(rng, 0.5, 1.5)), exp_(_u(rng, 2.0, 4.0)), 80_000)
    sample("comonotone-nak", "comonotone", nak(m1, _u(rng, 0.5, 1.5)), nak(m2, _u(rng, 1.5, 3.0)),
           30_000)
    sample("comonotone-exp", "comonotone", exp_(_u(rng, 0.5, 1.5)), exp_(_u(rng, 2.0, 4.0)),
           150_000)
    verify_seed = int(rng.integers(0, 2**31))
    n = 10_000 if smoke else 60_000  # the suite needs at least 1e4 draws
    ops.append(Op("verify-suite", "verify",
                  ["--seed", verify_seed, "-n", n, "--include-negative-controls"],
                  None, {"seed": verify_seed, "n": n}))
    return ops


# -- markov-certify -----------------------------------------------------------


def _window_pmf(weights: list, shift: int, n_states: int) -> list:
    """`weights` placed from state index `shift`, mass past the top folded onto it."""
    pmf = [Fraction(0)] * n_states
    for j, wgt in enumerate(weights):
        pmf[min(shift + j, n_states - 1)] += wgt
    return pmf


def _shift_table(rng, levels: int, n_states: int, width: int) -> list:
    """Nondecreasing window starts, one per level."""
    steps = rng.integers(0, 2, size=levels)
    starts = np.minimum(np.cumsum(steps) - steps[0], n_states - width)
    return [int(s) for s in starts]


def _fraction_weights(rng, width: int) -> list:
    raw = [int(x) for x in rng.integers(1, 6, size=width)]
    total = sum(raw)
    return [Fraction(x, total) for x in raw]


def _chain_spec(n_states, k, weights, starts, lag, states, early: bool, early_lag=0) -> dict:
    """k-th order chain: the next state law of super-state (t1..tk) is the window
    pmf shifted by starts[t1 + ... + tk] - lag, so rows rise with every coordinate."""

    def shift_for(level, extra):
        return max(0, starts[level] - extra)

    rows = []
    for tup in itertools.product(range(n_states), repeat=k):
        pmf = _window_pmf(weights, shift_for(sum(tup), lag), n_states)
        row = [0] * (n_states ** k)
        base = 0
        for t in tup[1:]:
            base = base * n_states + t
        base *= n_states
        for j, p in enumerate(pmf):
            row[base + j] = p
        rows.append(row)
    first = _window_pmf(weights, shift_for(0, lag), n_states)
    # initial super-state law: H(0) from `first`, then the row law repeatedly
    initial = {(): Fraction(1)}
    for step in range(k):
        nxt = {}
        for hist, p in initial.items():
            law = first if step == 0 else _window_pmf(
                weights, shift_for(sum(hist), lag + early_lag), n_states)
            for j, q in enumerate(law):
                if q:
                    nxt[hist + (j,)] = p * q
        initial = nxt
    init_vec = [initial.get(tup, Fraction(0))
                for tup in itertools.product(range(n_states), repeat=k)]
    spec = {"k": k, "states": states, "matrix": [[str(x) for x in row] for row in rows],
            "initial": [str(x) for x in init_vec]}
    if early and k >= 2:
        entries = []
        for m in range(1, k):
            for hist in itertools.product(range(n_states), repeat=m):
                law = _window_pmf(weights, shift_for(sum(hist), lag + early_lag), n_states)
                entries.append({"history": [states[i] for i in hist],
                                "pmf": [str(x) for x in law]})
        spec["early_conditionals"] = entries
    return spec


def _markov_pair(rng, n_states, k, *, early=True, break_rows=False, break_early=False) -> dict:
    width = min(4, n_states)
    levels = k * (n_states - 1) + 1
    starts = _shift_table(rng, levels, n_states, width)
    weights = _fraction_weights(rng, width)
    gaps = sorted(float(x) for x in rng.uniform(0.05, 1.0, size=n_states))
    states = [round(sum(gaps[: i + 1]), 6) for i in range(n_states)]
    weak = _chain_spec(n_states, k, weights, starts, 1, states, early,
                       early_lag=-2 if break_early else 0)
    strong = _chain_spec(n_states, k, weights, starts, 0, states, early)
    if break_rows:
        # the strong chain's top super-state jumps to the lowest state, so every
        # weak row compared with it violates (iii)
        top = len(strong["matrix"]) - 1
        row = ["0"] * len(strong["matrix"][top])
        row[(top % (n_states ** (k - 1))) * n_states] = "1"
        strong["matrix"][top] = row
    return {"topology": "markov_bc", "weak": weak, "strong": strong}


def _markov_certify(rng, smoke):
    n1, n2, n3 = (8, 4, 3) if smoke else (60, 10, 6)
    return [
        Op("markov-k1-pos", "markov-check", [], _markov_pair(rng, n1, 1)),
        _classify("markov-k1-neg", _markov_pair(rng, max(n1 * 2 // 3, 4), 1, break_rows=True)),
        Op("markov-k2-pos", "markov-check", [], _markov_pair(rng, n2, 2)),
        Op("markov-k2-conditional", "markov-check", [], _markov_pair(rng, n2, 2, early=False)),
        _classify("markov-k2-early-neg", _markov_pair(rng, max(n2 - 2, 3), 2, break_early=True)),
        Op("markov-k3-pos", "markov-check", [], _markov_pair(rng, n3, 3)),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write one run's scenario files and "
                                     "operation manifest into --workdir.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    write_manifest(args.workload, args.seed, args.smoke, args.workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
