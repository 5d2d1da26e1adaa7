"""Command-line interface.

Commands: classify, region, secrecy, coupling-sample, figure, markov-check,
verify.  Exit codes follow one contract everywhere: 0 for a positive verdict
or success, 1 for a negative verdict, 2 for usage or input errors.  Scenario
files are JSON; numeric tables are CSV so outputs diff cleanly, and identical
(scenario, seed) inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
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
from .distributions import build_ratio, distribution_from_spec
from .markov import check_markov_degraded, markov_spec_from_json
from .verify import run_verification_suite

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


def _emit_csv(header: list[str], rows: list[list], out: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


# -- commands -----------------------------------------------------------------


def cmd_classify(args) -> int:
    obj = load_scenario(args.scenario)
    topology = _require(obj, "topology")
    tol = args.tolerance
    if topology == "bc":
        report = classify_bc(parse_bc(obj), tol=tol)
    elif topology == "ic":
        scenario, condition = parse_ic(obj)
        if condition == "strong":
            report = classify_ic_strong(scenario, tol=tol)
        else:
            report = classify_ic_very_strong(scenario, tol=tol)
    elif topology == "wtc":
        report = classify_wtc(parse_wtc(obj), tol=tol)
    elif topology == "markov_bc":
        return _certify_markov(obj, args.out)
    else:
        raise ScenarioError(f"unknown topology {topology!r}")
    _emit_json(report.to_json(), args.out)
    return 0 if report.verdict else 1


def cmd_region(args) -> int:
    obj = load_scenario(args.scenario)
    topology = _require(obj, "topology")
    if topology != "ic":
        raise ScenarioError(f"region applies to 'ic' scenarios, not {topology!r}")
    scenario, condition = parse_ic(obj)
    try:
        if condition == "strong":
            region = strong_ic_region(scenario, force=args.force)
        else:
            region = very_strong_ic_region(scenario, force=args.force)
    except UnclassifiedScenarioError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    _emit_csv(["R1", "R2"], [[r1, r2] for r1, r2 in region.vertices], args.out)
    if args.out:
        sidecar = Path(args.out).with_suffix(".json")
        sidecar.write_text(json.dumps(region.to_json(), indent=2, sort_keys=True) + "\n")
    return 0


def cmd_secrecy(args) -> int:
    obj = load_scenario(args.scenario)
    topology = _require(obj, "topology")
    if topology != "wtc":
        raise ScenarioError(f"secrecy applies to 'wtc' scenarios, not {topology!r}")
    scenario = parse_wtc(obj)
    report = classify_wtc(scenario)
    try:
        rate = wtc_secrecy_capacity(scenario, force=args.force)
    except UnclassifiedScenarioError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    _emit_json({"classification": report.to_json(), "secrecy_capacity": rate.to_json()}, args.out)
    return 0 if report.verdict else 1


def cmd_coupling_sample(args) -> int:
    obj = load_scenario(args.scenario)
    d1, d2 = parse_pair(obj)
    rng = np.random.default_rng(args.seed)
    u = np.clip(rng.random(args.samples), 1e-12, 1.0 - 1e-12)
    if args.construction == "comonotone":
        h1, h2 = comonotone_samples(d1, d2, u)
        rows = [[float(a), float(b), None] for a, b in zip(h1, h2)]
    else:
        spec = maximal_coupling_spec(d1, d2)
        u_val = np.clip(rng.random(args.samples), 1e-12, 1.0 - 1e-12)
        h1, h2, eq = maximal_coupling_samples(spec, u, u_val)
        rows = [[float(a), float(b), bool(e)] for a, b, e in zip(h1, h2, eq)]
    _emit_csv(["h1", "h2", "equal_flag"], rows, args.out)
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
        diff = np.asarray(z.ccdf(h)) - np.exp(-h / a)
        columns.append(diff)
    rows = [[float(h[i])] + [float(col[i]) for col in columns] for i in range(h.size)]
    _emit_csv(["h"] + labels, rows, args.out)
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


def _count(text: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _positive_finite(text: str) -> float:
    """argparse type: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--tolerance", type=float, default=None,
                   help="override the stochastic-order tolerance")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("region", parents=[out, force],
                       help="emit the rate-region vertices of a classified IC scenario as CSV")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("secrecy", parents=[out, force],
                       help="ergodic secrecy capacity of a wiretap scenario")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_secrecy)

    p = sub.add_parser("coupling-sample", parents=[out, seed],
                       help="draw coupled gain pairs and emit them as CSV")
    p.add_argument("scenario", help="JSON file with a two-entry 'distributions' list")
    p.add_argument("--construction", choices=("maximal", "comonotone"), default="comonotone")
    p.add_argument("-n", "--samples", type=_count, default=1000)
    p.set_defaults(func=cmd_coupling_sample)

    p = sub.add_parser("figure", parents=[out],
                       help="CCDF-difference tables for the very-strong-interference sweeps")
    p.add_argument("--fig", type=int, required=True, help="3 (vary a) or 4 (vary P)")
    p.add_argument("--hmax", type=_positive_finite, default=20.0)
    p.add_argument("--points", type=_count, default=2000)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("markov-check", parents=[out],
                       help="certify degradedness of a two-chain Markov fading BC")
    p.add_argument("scenario", help="JSON file with 'weak' and 'strong' chain specs")
    p.set_defaults(func=cmd_markov_check)

    p = sub.add_parser("verify", parents=[out, seed],
                       help="run the Monte Carlo verification suite")
    p.add_argument("-n", "--samples", type=_count, default=100_000)
    p.add_argument("--include-negative-controls", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UnclassifiedScenarioError as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    except Exception as exc:
        # exit 1 is the negative verdict, so every other failure, a malformed
        # scenario included, exits 2 with a one-line message
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
