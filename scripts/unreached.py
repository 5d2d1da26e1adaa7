"""Print, per module of src/gainorder, the executable lines that neither the
tier-1 tests nor one seed of both benchmark workloads run, and fail on any
that ALLOWED does not name.

    python scripts/unreached.py [--seed 7] [--workloads sampling exact] [--no-tests]

No coverage package is needed: a sys.settrace line tracer, installed before
anything imports gainorder, records each line of src/ that runs in this
interpreter while pytest runs the tier-1 suite (testpaths of pyproject.toml)
and then cli.main runs every operation, warm-ups included, that
bench/workloads.py writes for the seed.  A line is executable where a code
object compiled from its module starts one; def, class and decorator lines and
docstrings are left out, as they run at import, not when the code they define
does.  Code that runs only in a subprocess a test starts is not seen.  The
suite runs under hypothesis's derandomized ci profile, so each run draws the
same examples.  The tracer about doubles the suite's run time, so CI runs this
as a job of its own, beside the tier-1 tests.  The exit code is 1 if pytest
fails or if an unreached line is not in ALLOWED, else 0.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import subprocess
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gainorder"

# (module, stripped line text) of each line that may stay unreached, and why
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "runs only when the module runs as a script, which the tracer does not see",
    ("stochastic_order.py", "ys = []"):
        "two distinct gamma densities cross, so where their log-density ratio has an "
        "interior extremum it has two roots in exact arithmetic; the branch guards a "
        "tangency that rounding loses",
}


def executable_lines(path: Path) -> set[int]:
    """Lines that start bytecode in the module, less def, class and decorator
    lines and docstrings."""
    source = path.read_text()
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            lines -= set(range(node.lineno, node.body[0].lineno))
            for dec in node.decorator_list:
                lines -= set(range(dec.lineno, dec.end_lineno + 1))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return lines


def run_workloads(workloads: list[str], seed: int) -> None:
    """Every operation of each workload at the seed, through cli.main in this process."""
    from gainorder.cli import main

    for workload in workloads:
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            subprocess.run([sys.executable, str(ROOT / "bench" / "workloads.py"), "--workload",
                            workload, "--seed", str(seed), "--workdir", tmp], check=True)
            manifest = json.loads((work / "ops.json").read_text())
            for op in manifest["warmup"] + manifest["ops"]:
                argv = [op["command"]]
                if op["scenario"] is not None:
                    argv.append(f"{tmp}/scenarios/{op['name']}.json")
                argv += [str(a) for a in op["args"]] + ["--out", f"{tmp}/{op['name']}{op['suffix']}"]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()), \
                        contextlib.suppress(SystemExit):
                    main(argv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workloads", nargs="+", default=["sampling", "exact"])
    parser.add_argument("--no-tests", action="store_true", help="run the workloads alone")
    args = parser.parse_args(argv)

    prefix, seen = str(PACKAGE) + "/", set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    threading.settrace(trace)
    sys.settrace(trace)
    status = 0
    try:
        if not args.no_tests:
            import pytest

            status = int(pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                                      "--hypothesis-profile=ci", str(ROOT / "tests")]))
        run_workloads(args.workloads, args.seed)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unexplained = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = sorted(executable_lines(path) - {n for f, n in seen if f == str(path)})
        text = path.read_text().splitlines()
        print(f"{path.name}: {len(missed)} unreached")
        for n in missed:
            why = ALLOWED.get((path.name, text[n - 1].strip()))
            unexplained += why is None
            print(f"  {n:5d}  {text[n - 1].strip()}" + (f"  [allowed: {why}]" if why else ""))
    if status:
        print(f"pytest exited {status}")
    if unexplained:
        print(f"{unexplained} unreached lines are not in ALLOWED: reach each by a test, "
              "or name it in ALLOWED with its reason")
    return int(bool(status or unexplained))


if __name__ == "__main__":
    sys.exit(main())
