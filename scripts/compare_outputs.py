"""Run every operation of the benchmark workloads through `gainorder.cli.main`
of two source trees and compare what each one writes.

    python scripts/compare_outputs.py OLD_TREE NEW_TREE [--seeds 1 7 311]
        [--workloads sampling exact] [--may-move maximal- comonotone- ...]

Each tree is a checkout holding `src/gainorder`; the operations, warm-ups
included, come from NEW_TREE's `bench/workloads.py` and run once per tree in a
fresh interpreter.  For each operation the exit code, stdout, stderr and every
output file are compared.  Where a file differs:
- a CSV reports how many values moved and the largest shift in ulps per column;
- a coupling sample (`coupling-sample`) checks that every moved draw is still a
  crossing of its float cdf in NEW_TREE: the double q with cdf(q) >= u >
  cdf(previous double), for the uniforms the command drew from its seed;
- a JSON report lists each moved number with its relative change, flags a
  `passed` or `verdict` that flips, and for a rate region checks that each
  moved constraint moved by less than the `error_estimate` of its rate;
- a secrecy report checks the same for its `secrecy_capacity`.
The exit code is 1 if an operation outside the `--may-move` name prefixes
changed at all, or if any of the checks above fails; else 0.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

RUNNER = r"""
import contextlib, io, json, sys, traceback
tree, workdir, outdir = sys.argv[1:4]
sys.path.insert(0, tree + "/src")
from gainorder.cli import main
manifest = json.load(open(workdir + "/ops.json"))
results = {}
for op in manifest["warmup"] + manifest["ops"]:
    argv = [op["command"]]
    if op["scenario"] is not None:
        argv.append(f"{workdir}/scenarios/{op['name']}.json")
    argv += [str(a) for a in op["args"]] + ["--out", f"{outdir}/{op['name']}{op['suffix']}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is an outcome to compare, not the end of the run
            rc = "raised"
            err.write(traceback.format_exc(limit=3))
    results[op["name"]] = {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
json.dump(results, open(outdir + "/results.json", "w"))
"""


def ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance in doubles between finite doubles of one sign."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


def run_tree(tree: Path, workdir: Path, outdir: Path) -> dict:
    outdir.mkdir(parents=True)
    subprocess.run([sys.executable, "-c", RUNNER, str(tree), str(workdir), str(outdir)],
                   check=True, timeout=1800)
    return json.loads((outdir / "results.json").read_text())


def read_csv(path: Path) -> tuple[list, np.ndarray]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cell = {"True": 1.0, "False": 0.0, "": np.nan}
    values = [[cell[c] if c in cell else float(c) for c in line.split(",")]
              for line in lines[1:]]
    return header, np.array(values, dtype=float).reshape(len(values), len(header))


def moved(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return ~((a == b) | (np.isnan(a) & np.isnan(b)))


def is_crossing(cdf, q: np.ndarray, u: np.ndarray) -> np.ndarray:
    return (np.asarray(cdf(q)) >= u) & (np.asarray(cdf(np.nextafter(q, 0.0))) < u)


def check_coupling(op: dict, workdir: Path, old: np.ndarray, new: np.ndarray) -> list:
    """Problems with the moved draws of a coupling-sample op in NEW_TREE."""
    from gainorder.cli import load_scenario, parse_pair
    from gainorder.coupling import maximal_coupling_spec
    from gainorder.verify import _open_uniform

    args = [str(a) for a in op["args"]]
    construction = args[args.index("--construction") + 1]
    n, seed = int(args[args.index("-n") + 1]), int(args[args.index("--seed") + 1])
    d1, d2 = parse_pair(load_scenario(str(workdir / "scenarios" / f"{op['name']}.json")))
    rng = np.random.default_rng(seed)
    u = _open_uniform(rng, n)
    problems = []
    every = np.ones(n, dtype=bool)
    if construction == "comonotone":
        parts = [(d1.cdf, 0, u, every), (d2.cdf, 1, u, every)]
    else:
        spec = maximal_coupling_spec(d1, d2)
        u_val = _open_uniform(rng, n)
        eq = new[:, 2] == 1.0
        # at p = 1 the shared law is d1 and every draw is shared
        parts = [(spec.shared.cdf, 0, u_val, eq), (spec.shared.cdf, 1, u_val, eq)]
        if spec.p < 1.0:
            parts += [(law.cdf, col, u_val, ~eq) for col, law in enumerate(spec.residuals)]
    for cdf, col, level, rows in parts:
        rows = rows & moved(old[:, col], new[:, col])
        bad = ~is_crossing(cdf, new[rows, col], level[rows])
        if bad.any():
            problems.append(f"column h{col + 1}: {int(bad.sum())} moved draws are not crossings")
    return problems


def numbers(obj, path=""):
    """(path, value) of every number and boolean in a JSON value."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from numbers(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from numbers(value, f"{path}[{i}]")
    elif isinstance(obj, (int, float)):
        yield path, obj


def region_rates(workdir: Path, op: dict) -> list:
    """The RateValue behind each constraint of a region op, in NEW_TREE."""
    from gainorder.capacity import ergodic_rate, pair_sum_rate
    from gainorder.cli import load_scenario, parse_ic

    s, condition = parse_ic(load_scenario(str(workdir / "scenarios" / f"{op['name']}.json")))
    if condition != "strong":
        return [ergodic_rate(s.h11, s.p1), ergodic_rate(s.h22, s.p2)]
    rates = []
    for g1, g2 in ((s.h11, s.h12), (s.h21, s.h22)):
        rates += [ergodic_rate(g1, s.p1), ergodic_rate(g2, s.p2),
                  pair_sum_rate(g1, s.p1, g2, s.p2)]
    return rates


def compare_json(op: dict, workdir: Path, old_obj, new_obj) -> tuple[list, list]:
    """(report lines, problems) for two JSON outputs."""
    lines, problems = [], []
    old_n, new_n = dict(numbers(old_obj)), dict(numbers(new_obj))
    if old_n.keys() != new_n.keys():
        return lines, ["the JSON structure changed"]
    for path in old_n:
        a, b = old_n[path], new_n[path]
        if a == b:
            continue
        if isinstance(a, bool) or isinstance(b, bool):
            problems.append(f"{path} flipped: {a} -> {b}")
            continue
        rel = abs(b - a) / abs(a) if a else float("inf")
        lines.append(f"{path}: {a!r} -> {b!r} (relative {rel:.3g})")
    if op["command"] == "region" and lines:
        rates = region_rates(workdir, op)
        for i, rate in enumerate(rates):
            a, b = (obj["constraints"][i]["b"] for obj in (old_obj, new_obj))
            if abs(b - a) >= rate.error_estimate and a != b:
                problems.append(f"constraint {i} moved {abs(b - a):.3g}, not below its "
                                f"error estimate {rate.error_estimate:.3g}")
    if op["command"] == "secrecy" and lines:
        a, b = (obj["secrecy_capacity"] for obj in (old_obj, new_obj))
        if abs(b["bits"] - a["bits"]) >= b["error_estimate"]:
            problems.append("secrecy capacity moved by its error estimate or more")
    return lines, problems


def compare_op(op: dict, workdir: Path, old_dir: Path, new_dir: Path, old_res, new_res):
    """(changed, report lines, problems) of one operation."""
    lines, problems = [], []
    changed = False
    for key in ("rc", "stdout", "stderr"):
        if old_res[key] != new_res[key]:
            changed = True
            lines.append(f"{key} differs: {old_res[key]!r:.200} -> {new_res[key]!r:.200}")
    names = sorted({p.name for d in (old_dir, new_dir) for p in d.glob(op["name"] + ".*")})
    for name in names:
        a, b = old_dir / name, new_dir / name
        if not (a.exists() and b.exists()):
            changed = True
            lines.append(f"{name} exists in one tree only")
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        changed = True
        if name.endswith(".csv"):
            (ha, va), (hb, vb) = read_csv(a), read_csv(b)
            if ha != hb or va.shape != vb.shape:
                problems.append(f"{name}: header or shape changed")
                continue
            for col, label in enumerate(ha):
                rows = moved(va[:, col], vb[:, col])
                if rows.any():
                    shift = ulps(va[rows, col], vb[rows, col])
                    lines.append(f"{name} {label}: {int(rows.sum())} of {rows.size} values "
                                 f"moved ({rows.mean():.1%}), max {int(shift.max())} ulps, "
                                 f"median {int(np.median(shift))}")
            if op["command"] == "coupling-sample":
                problems += check_coupling(op, workdir, va, vb)
        else:
            more, bad = compare_json(op, workdir, json.loads(a.read_text()),
                                     json.loads(b.read_text()))
            lines += [f"{name} {line}" for line in more]
            problems += [f"{name}: {p}" for p in bad]
    return changed, lines, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 311])
    parser.add_argument("--workloads", nargs="+", default=["sampling", "exact"])
    parser.add_argument("--may-move", nargs="*", default=[],
                        help="operation name prefixes whose outputs may change")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.new.resolve() / "src"))
    status = 0
    for workload in args.workloads:
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as tmp:
                workdir = Path(tmp)
                subprocess.run([sys.executable, str(args.new / "bench" / "workloads.py"),
                                "--workload", workload, "--seed", str(seed),
                                "--workdir", str(workdir)], check=True, timeout=600)
                manifest = json.loads((workdir / "ops.json").read_text())
                old_res = run_tree(args.old.resolve(), workdir, workdir / "old")
                new_res = run_tree(args.new.resolve(), workdir, workdir / "new")
                same = 0
                for op in manifest["warmup"] + manifest["ops"]:
                    changed, lines, problems = compare_op(
                        op, workdir, workdir / "old", workdir / "new",
                        old_res[op["name"]], new_res[op["name"]])
                    base = op["name"].removeprefix("warmup-")
                    if changed and not base.startswith(tuple(args.may_move)):
                        problems.append("changed, but may not move")
                    same += not changed
                    for line in lines:
                        print(f"{workload} seed {seed} {op['name']}: {line}")
                    for problem in problems:
                        status = 1
                        print(f"{workload} seed {seed} {op['name']}: PROBLEM {problem}")
                total = len(manifest["warmup"]) + len(manifest["ops"])
                print(f"{workload} seed {seed}: {same} of {total} operations identical")
    return status


if __name__ == "__main__":
    sys.exit(main())
