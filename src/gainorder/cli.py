"""Command-line interface.

Commands: classify, region, secrecy, coupling-sample, figure, markov-check,
verify.  Exit codes follow one contract everywhere: 0 for a positive verdict
or success, 1 for a negative verdict, 2 for usage or input errors.  Scenario
files are JSON; numeric tables are CSV so outputs diff cleanly, and identical
(scenario, seed) inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .capacity import (
    UnclassifiedScenarioError,
    strong_ic_region,
    very_strong_ic_region,
    wtc_secrecy_capacity,
)
from .classifier import (
    BCScenario,
    ICScenario,
    WTCScenario,
    classify_bc,
    classify_ic_strong,
    classify_ic_very_strong,
    classify_wtc,
)
from .coupling import comonotone_samples, maximal_coupling_samples, maximal_coupling_spec
from .distributions import Exponential, build_ratio, distribution_from_spec
from .markov import check_markov_degraded, markov_spec_from_json
from .verify import _open_uniform, run_verification_suite

__all__ = ["main"]


class ScenarioError(ValueError):
    """Malformed scenario input; maps to exit code 2."""


def _require(obj: dict, name: str, where: str = "scenario"):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be a JSON object")
    if name not in obj:
        raise ScenarioError(f"{where} missing field '{name}'")
    return obj[name]


def _number(value, where: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where} must be a number, got {value!r}") from exc


def _distributions(obj: dict) -> tuple:
    dists = _require(obj, "distributions")
    if not isinstance(dists, list):
        raise ScenarioError("field 'distributions' must be a list of distribution specs")
    return tuple(_distribution(d, f"distributions[{i}]") for i, d in enumerate(dists))


def _distribution(obj, where: str):
    try:
        return distribution_from_spec(obj)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def load_scenario(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ScenarioError(f"scenario file {path} must hold a JSON object")
    return obj


def parse_bc(obj: dict) -> BCScenario:
    gains = _distributions(obj)
    return BCScenario(gains=gains, power=_number(_require(obj, "power"), "field 'power'"))


def parse_ic(obj: dict) -> tuple[ICScenario, str]:
    gains = _require(obj, "gains")
    powers = _require(obj, "powers")
    if not (isinstance(powers, (list, tuple)) and len(powers) == 2):
        raise ScenarioError("field 'powers' must be a two-element list [P1, P2]")
    condition = _require(obj, "condition")
    if condition not in ("strong", "very_strong"):
        raise ScenarioError(f"field 'condition' must be 'strong' or 'very_strong', got {condition!r}")
    parsed = {}
    for name in ("h11", "h12", "h21", "h22"):
        parsed[name] = _distribution(_require(gains, name, "gains"), f"gains.{name}")
    scenario = ICScenario(
        **parsed,
        p1=_number(powers[0], "powers[0]"),
        p2=_number(powers[1], "powers[1]"),
        dependence=obj.get("dependence", "independent"),
    )
    return scenario, condition


def parse_wtc(obj: dict) -> WTCScenario:
    return WTCScenario(
        legitimate=_distribution(_require(obj, "legitimate"), "legitimate"),
        eavesdropper=_distribution(_require(obj, "eavesdropper"), "eavesdropper"),
        power=_number(_require(obj, "power"), "field 'power'"),
    )


def parse_markov_pair(obj: dict):
    weak = markov_spec_from_json(_require(obj, "weak"))
    return weak, markov_spec_from_json(_require(obj, "strong"))


def parse_pair(obj: dict):
    dists = _distributions(obj)
    if len(dists) != 2:
        raise ScenarioError("coupling scenarios need exactly two distributions")
    return dists


# -- output helpers -----------------------------------------------------------


def _emit_json(payload, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


# rows formatted and written at a time, so that no whole table is held as text
CSV_BLOCK_ROWS = 8192


def _emit_csv(header: list[str], columns: list, out: str | None) -> None:
    """Write equal-length columns as CSV, `CSV_BLOCK_ROWS` rows at a time.

    Each column is a numpy float or bool array, or None for a column of empty
    cells.  A float cell holds the shortest digits that read back as the same
    double, exactly as `repr` writes them; a bool cell reads True or False.
    """
    n_rows = len(next(c for c in columns if c is not None))
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as stream:
        stream.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            cells = [itertools.repeat("") if c is None else _cells(c[block]) for c in columns]
            stream.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _cells(values: np.ndarray) -> list[str]:
    """The cells of one block of a float or bool column."""
    if values.dtype.kind == "b":
        return np.where(values, "True", "False").tolist()
    import orjson

    values = np.ascontiguousarray(values, dtype=np.float64)
    # orjson writes repr's shortest round-trip digits for every finite double;
    # outside 1e-4 <= |x| < 1e16 it differs from repr in layout only.  Its
    # exponents get repr's: e-7 -> e-07 (a 0 after e- when one digit follows)
    # and e16 -> e+16 (a + after an e that a digit follows).  It writes
    # 1e-5 <= |x| < 1e-4 positionally (0.000015 for 1.5e-05) and NaN and +-inf
    # as null, so repr formats those cells alone
    raw = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)
    if b"e" in raw:
        text = np.frombuffer(raw, dtype=np.uint8)
        e = np.flatnonzero(text == ord("e"))
        minus = text[e + 1] == ord("-")
        # the closing ] ends the last cell, so e + 3 stays inside the text
        fix = ~minus | (text[e + 3] < ord("0")) | (text[e + 3] > ord("9"))
        raw = np.insert(text, np.where(minus, e + 2, e + 1)[fix],
                        np.where(minus, ord("0"), ord("+"))[fix]).tobytes()
    cells = raw[1:-1].decode().split(",")
    size = np.abs(values)
    other = np.flatnonzero(((size >= 1e-5) & (size < 1e-4)) | ~np.isfinite(values))
    for i, x in zip(other.tolist(), values[other].tolist()):
        cells[i] = repr(x)
    return cells


# -- commands -----------------------------------------------------------------


def _classified(obj: dict, topology: str, tol: float | None = None) -> tuple:
    """A bc, ic or wtc scenario object's scenario and its one classification;
    an ic object names the condition it is classified under."""
    if topology == "ic":
        scenario, condition = parse_ic(obj)
        classify = classify_ic_strong if condition == "strong" else classify_ic_very_strong
    elif topology == "bc":
        scenario, classify = parse_bc(obj), classify_bc
    elif topology == "wtc":
        scenario, classify = parse_wtc(obj), classify_wtc
    else:
        raise ScenarioError(f"unknown topology {topology!r}")
    return scenario, classify(scenario, tol=tol)


def _classified_file(args, topology: str) -> tuple:
    """_classified on the scenario file of a command that takes `topology` only."""
    obj = load_scenario(args.scenario)
    found = _require(obj, "topology")
    if found != topology:
        raise ScenarioError(f"{args.command} applies to {topology!r} scenarios, not {found!r}")
    return _classified(obj, topology)


def cmd_classify(args) -> int:
    obj = load_scenario(args.scenario)
    topology = _require(obj, "topology")
    if topology == "markov_bc":
        if args.tolerance is not None:
            raise ScenarioError("--tolerance does not apply to a markov_bc scenario: "
                                "its certificate is exact")
        return _certify_markov(obj, args.out)
    _, report = _classified(obj, topology, args.tolerance)
    _emit_json(report.to_json(), args.out)
    return 0 if report.verdict else 1


def cmd_region(args) -> int:
    scenario, report = _classified_file(args, "ic")
    if report.condition == "strong_interference":
        region = strong_ic_region(scenario, report, force=args.force)
    else:
        region = very_strong_ic_region(scenario, report, force=args.force)
    _emit_csv(["R1", "R2"], list(np.array(region.vertices, dtype=float).T), args.out)
    if args.out:
        _emit_json(region.to_json(), str(Path(args.out).with_suffix(".json")))
    return 0


def cmd_secrecy(args) -> int:
    scenario, report = _classified_file(args, "wtc")
    rate = wtc_secrecy_capacity(scenario, report, force=args.force)
    _emit_json({"classification": report.to_json(), "secrecy_capacity": rate.to_json()}, args.out)
    return 0 if report.verdict else 1


def cmd_coupling_sample(args) -> int:
    obj = load_scenario(args.scenario)
    d1, d2 = parse_pair(obj)
    rng = np.random.default_rng(args.seed)
    u = _open_uniform(rng, args.samples)
    if args.construction == "comonotone":
        h1, h2 = comonotone_samples(d1, d2, u)
        flags = None
    else:
        spec = maximal_coupling_spec(d1, d2)
        h1, h2, flags = maximal_coupling_samples(spec, u, _open_uniform(rng, args.samples))
    _emit_csv(["h1", "h2", "equal_flag"], [h1, h2, flags], args.out)
    return 0


def _figure_columns(fig: int) -> tuple[list[str], list[tuple[float, float, float]]]:
    """Column labels and (direct_mean a, cross_mean c, power P) per column."""
    if fig == 3:
        return (
            [f"diff_a{a:g}" for a in (0.1, 0.3, 0.5, 0.7)],
            [(a, 1.0, 1.0) for a in (0.1, 0.3, 0.5, 0.7)],
        )
    if fig == 4:
        return (
            [f"diff_P{p:g}" for p in (1.0, 10.0, 50.0, 100.0)],
            [(0.1, 1.0, p) for p in (1.0, 10.0, 50.0, 100.0)],
        )
    raise ScenarioError(f"unknown figure id {fig}; only 3 and 4 are available")


def cmd_figure(args) -> int:
    labels, params = _figure_columns(args.fig)
    h = np.linspace(args.hmax / args.points, args.hmax, args.points)
    columns = []
    for a, c, power in params:
        z = build_ratio(c, a, power)
        # CCDF difference between the interference ratio and the direct gain
        diff = np.asarray(z.ccdf(h)) - Exponential(a).ccdf(h)
        columns.append(diff)
    _emit_csv(["h"] + labels, [h] + columns, args.out)
    return 0


def cmd_markov_check(args) -> int:
    return _certify_markov(load_scenario(args.scenario), args.out)


def _certify_markov(obj: dict, out: str | None) -> int:
    cert = check_markov_degraded(*parse_markov_pair(obj))
    _emit_json(cert.to_json(), out)
    return 0 if cert.verdict else 1


def cmd_verify(args) -> int:
    reports = run_verification_suite(
        seed=args.seed,
        n=args.samples,
        include_negative_controls=args.include_negative_controls,
    )
    _emit_json([r.to_json() for r in reports], args.out)
    positives_ok = all(r.passed for r in reports if r.kind == "positive")
    return 0 if positives_ok else 1


def _argument_type(expected: str, convert, accept):
    """argparse type: the value convert reads from the text, where accept
    holds for it; else the message "expected <expected>, got <text>"."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


_count = _argument_type("an integer >= 1", int, lambda v: v >= 1)
# the copula and rate checks of the suite need 1e4 samples
_suite_size = _argument_type("an integer >= 10000", int, lambda v: v >= 10**4)
_positive_finite = _argument_type("a finite number > 0", float,
                                  lambda v: math.isfinite(v) and v > 0.0)
_nonnegative_finite = _argument_type("a finite number >= 0", float,
                                     lambda v: math.isfinite(v) and v >= 0.0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="gainorder",
        description="Stochastic-order classification and ergodic capacities for fading "
        "channels known only through their gain statistics.",
    )
    # each subcommand takes only the flags it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=str, default=None, help="output file (default: stdout)")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="master RNG seed")
    force = argparse.ArgumentParser(add_help=False)
    force.add_argument("--force", action="store_true",
                       help="evaluate rate expressions even when the condition fails")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[out],
                       help="classify a scenario file (bc, ic, wtc, markov_bc)")
    p.add_argument("scenario", help="path to the scenario JSON file")
    p.add_argument("--tolerance", type=_nonnegative_finite, default=None,
                   help="override the stochastic-order tolerance")

    p = sub.add_parser("region", parents=[out, force],
                       help="emit the rate-region vertices of a classified IC scenario as CSV")
    p.add_argument("scenario")

    p = sub.add_parser("secrecy", parents=[out, force],
                       help="ergodic secrecy capacity of a wiretap scenario")
    p.add_argument("scenario")

    p = sub.add_parser("coupling-sample", parents=[out, seed],
                       help="draw coupled gain pairs and emit them as CSV")
    p.add_argument("scenario", help="JSON file with a two-entry 'distributions' list")
    p.add_argument("--construction", choices=("maximal", "comonotone"), default="comonotone")
    p.add_argument("-n", "--samples", type=_count, default=1000)

    p = sub.add_parser("figure", parents=[out],
                       help="CCDF-difference tables for the very-strong-interference sweeps")
    p.add_argument("--fig", type=int, required=True, help="3 (vary a) or 4 (vary P)")
    p.add_argument("--hmax", type=_positive_finite, default=20.0)
    p.add_argument("--points", type=_count, default=2000)

    p = sub.add_parser("markov-check", parents=[out],
                       help="certify degradedness of a two-chain Markov fading BC")
    p.add_argument("scenario", help="JSON file with 'weak' and 'strong' chain specs")

    p = sub.add_parser("verify", parents=[out, seed],
                       help="run the Monte Carlo verification suite")
    p.add_argument("-n", "--samples", type=_suite_size, default=100_000)
    p.add_argument("--include-negative-controls", action="store_true")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the handler is looked up at each call, so it is the module's current one
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except UnclassifiedScenarioError as exc:  # the library's message names force=True
        sys.stderr.write(f"scenario does not satisfy the {exc.report.condition} condition; "
                         "pass --force to evaluate the expression anyway\n")
        return 1
    except Exception as exc:
        # exit 1 is the negative verdict, so every other failure, a malformed
        # scenario included, exits 2 with a one-line message
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
