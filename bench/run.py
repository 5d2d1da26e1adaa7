"""gainorder benchmark: one closed-loop client driving `gainorder.cli.main`.

Usage (from the repository root):

    python3 bench/run.py --workload sampling --seed 1 --seconds 30 --trace 0

Workloads: sampling and exact (see workloads.py for what each exercises).
`--workload all` runs each of them in its own process and prints every metric.

A run
  1. times `import gainorder.cli` in fresh interpreters (setup_s);
  2. generates the workload's scenario files from --seed, in a child process,
     so that the oracle the generator uses stays out of this process;
  3. makes a warm-up pass over the same templates at smoke size;
     from here on the process moves round its CPUs (see rotate_cpus);
  4. repeats whole passes, one operation after the other, until --seconds
     have elapsed (at least one pass), timing each operation and each pass,
     and reads the peak RSS, which so far covers the program and the harness's
     few standard-library modules only;
  5. checks every output of the first pass with the independent oracle and
     every later pass for byte-identical outputs.
With --trace 1 it then makes one more pass with every layer wrapped in spans
and reports the per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  BLAS/OpenMP threads are pinned to 1 before numpy loads.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
ALLOWED_EXIT = {"coupling-sample": {0}, "figure": {0}, "verify": {0, 1}}  # others: {0, 1}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MB"}


def _quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


# -- setup --------------------------------------------------------------------

_SETUP_CODE = ("import time; t = time.perf_counter(); import gainorder.cli; "
               "print(repr(time.perf_counter() - t))")


def _fresh_import(importtime: bool) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", _SETUP_CODE]
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)


def measure_setup(runs: int) -> list:
    """Seconds to import gainorder.cli in `runs` fresh interpreters (after one
    discarded import that fills the bytecode cache)."""
    _fresh_import(False)
    return [float(_fresh_import(False).stdout.strip()) for _ in range(runs)]


def measure_import_breakdown(runs: int) -> dict:
    """Median cumulative -X importtime seconds of scipy.integrate and gainorder.cli."""
    seen = {"scipy.integrate": [], "gainorder.cli": []}
    for _ in range(runs):
        stderr = _fresh_import(True).stderr
        found = dict.fromkeys(seen, 0.0)
        for line in stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in seen:
                found[parts[2].strip()] = int(parts[1]) * 1e-6
        for key, value in found.items():
            seen[key].append(value)
    return {key: statistics.median(v) for key, v in seen.items()}


# -- passes -------------------------------------------------------------------


class PassResult:
    def __init__(self):
        self.wall = 0.0
        self.op_seconds = {}
        self.rc = {}
        self.failures = {}     # op name -> reason
        self.digests = {}
        self.bytes_out = 0


def _digest(op, workdir: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in (op.out_path(workdir), op.out_path(workdir).with_suffix(".json")):
        if path.exists() and (path == op.out_path(workdir) or op.command == "region"):
            data = path.read_bytes()
            size += len(data)
            h.update(data)
    return h.hexdigest(), size


def run_pass(ops, workdir: Path, cli_main, tracer=None) -> PassResult:
    """One closed-loop pass: each operation starts when the previous one returns."""
    res = PassResult()
    start = time.perf_counter()
    for op in ops:
        argv = op.argv(workdir)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin_op(op.name)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            res.failures[op.name] = traceback.format_exc(limit=3).strip().splitlines()[-1]
        res.op_seconds[op.name] = time.perf_counter() - t0
        res.rc[op.name] = rc
        allowed = ALLOWED_EXIT.get(op.command, {0, 1})
        if op.name not in res.failures:
            if rc not in allowed:
                res.failures[op.name] = f"exit code {rc!r} not in {sorted(allowed)}: " \
                    f"{err.getvalue().strip()[-200:]}"
            elif "Traceback" in err.getvalue():
                res.failures[op.name] = "traceback on stderr"
    res.wall = time.perf_counter() - start
    for op in ops:
        res.digests[op.name], size = _digest(op, workdir)
        res.bytes_out += size
    return res


@contextlib.contextmanager
def rotate_cpus(period: float = 0.25):
    """Move the calling thread round the CPUs it may use, to the next one every
    `period` seconds, and give it all of them back at the end.

    On a shared host each CPU slows down when another tenant loads it, and the
    CPUs do so independently of each other (on a 2-CPU host the speeds of the
    two, sampled side by side, were uncorrelated).  A single-threaded pass that
    stays on one CPU measures that CPU's luck; one that visits them in turn
    measures their mean speed, which drifts about half as much.
    """
    cpus = sorted(os.sched_getaffinity(0))
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate():
        i = 0
        while True:
            os.sched_setaffinity(tid, {cpus[i % len(cpus)]})
            i += 1
            if stop.wait(period):
                return

    mover = threading.Thread(target=rotate, name="rotate-cpus", daemon=True)
    if len(cpus) > 1:
        mover.start()
    try:
        yield
    finally:
        stop.set()
        if mover.is_alive():
            mover.join()
        os.sched_setaffinity(tid, cpus)


def _clear_outputs(workdir: Path) -> None:
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)


# -- metadata -----------------------------------------------------------------


def metadata() -> dict:
    import numpy
    import scipy

    lines = {p.stem: sum(1 for _ in p.open()) for p in sorted((SRC / "gainorder").glob("*.py"))}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "src_lines": sum(lines.values()), "src_lines_per_module": lines}


# -- main ---------------------------------------------------------------------


def run_workload(args) -> int:
    workdir = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _run_in(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_in(args, workdir: Path) -> int:
    import workloads

    runs = 1 if args.smoke else SETUP_RUNS
    setup = measure_setup(runs)
    breakdown = measure_import_breakdown(min(runs, IMPORTTIME_RUNS)) if args.trace else {}

    subprocess.run([sys.executable, str(BENCH / "workloads.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--workdir", str(workdir)]
                   + (["--smoke"] if args.smoke else []), cwd=ROOT, timeout=600, check=True)
    ops, warm_ops = workloads.read_manifest(workdir)

    sys.path.insert(0, str(SRC))
    import gainorder.cli

    cli_main = gainorder.cli.main
    passes = []
    first = workdir / "first"   # the first pass's outputs, for the oracle
    with rotate_cpus():
        warm = run_pass(warm_ops, workdir, cli_main)
        _clear_outputs(workdir)
        t_start = time.perf_counter()
        while not passes or time.perf_counter() - t_start < args.seconds:
            passes.append(run_pass(ops, workdir, cli_main))
            if len(passes) == 1:
                shutil.copytree(workdir / "out", first)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import oracle   # scipy.stats and quadrature: only after the peak RSS is read

    traced = tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            with rotate_cpus():
                traced = run_pass(ops, workdir, cli_main, tracer)
        finally:
            tracer.uninstall()

    # -- correctness ----------------------------------------------------------
    findings = []
    for op in ops:
        if op.name in passes[0].failures:
            continue
        try:
            findings += oracle.check_op(op, passes[0].rc[op.name],
                                        first / op.out_path(workdir).name)
        except Exception as exc:  # an unreadable output is a wrong answer
            findings.append(oracle.Finding(op.name, "readable_output", False, repr(exc)))
        for i, p in enumerate(passes[1:] + ([traced] if traced else []), start=1):
            if p.digests[op.name] != passes[0].digests[op.name]:
                findings.append(oracle.Finding(op.name, f"identical_output_pass{i}", False,
                                               "output differs from the first pass"))
    wrong = [f for f in findings if not f.ok and not f.known_defect]
    defects = [f for f in findings if f.known_defect]
    labelled = [("warmup", warm)] + [(f"pass{i}", p) for i, p in enumerate(passes)] + (
        [("traced", traced)] if traced else [])
    failures = {f"{label}:{name}": why for label, p in labelled for name, why in p.failures.items()}
    attempted = sum(len(p.rc) for _, p in labelled)

    # -- report ---------------------------------------------------------------
    walls = [p.wall for p in passes]
    # the operation with the largest median time, not each pass's maximum: two
    # operations of similar cost would otherwise trade places with the noise
    op_median = {name: statistics.median(p.op_seconds[name] for p in passes)
                 for name in passes[0].op_seconds}
    slowest_name = max(op_median, key=op_median.get)
    slowest = [p.op_seconds[slowest_name] for p in passes]
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "slowest_op_s": op_median[slowest_name],
        "peak_rss_mb": peak_rss_mb,
    }
    meta = metadata()
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client, "
          f"{len(ops)} operations per pass, {len(passes)} timed passes")
    print(f"metadata {json.dumps(meta)}")
    for name, samples in (("setup_s", setup), ("wall_s", walls), ("slowest_op_s", slowest)):
        q1, med, q3 = _quartiles(samples)
        print(f"  {name:<14} {med:10.4f} s   q1 {q1:.4f}  q3 {q3:.4f}  n={len(samples)}")
    print(f"  {'peak_rss_mb':<14} {peak_rss_mb:10.1f} MB")
    print(f"  {'wrong_answers':<14} {len(wrong):10d}     of {len(findings)} outputs checked")
    print(f"  {'failed_ops':<14} {len(failures):10d}     of {attempted} operations attempted")
    print(f"  {'known_defects':<14} {len(defects):10d}     (counted apart from wrong_answers)")
    print(f"  slowest operation: {slowest_name}")
    for name, secs in op_median.items():
        print(f"    op {name:<24} {secs:9.4f} s  rc={passes[0].rc[name]}  (median of passes)")
    for f in wrong:
        print(f"  WRONG {f.case} {f.item}: {f.detail}")
    for name, why in failures.items():
        print(f"  FAILED {name}: {why}")
    for f in defects:
        print(f"  KNOWN DEFECT {f.case} {f.item}: {f.detail}")

    if args.trace:
        metrics = per_layer_metrics(tracer, traced, e2e["wall_s"], breakdown)
        print("  per-layer (traced pass):")
        for name, (value, unit) in metrics.items():
            print(f"    {name:<38} {value:14.6g} {unit}")
        tracer.write_jsonl(ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.jsonl")
        out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        out_metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": len(failures),
                      "metrics": out_metrics}))
    return 0


def per_layer_metrics(tracer, traced, untraced_wall: float, breakdown: dict) -> dict:
    secs, counts = tracer.totals()
    self_s = tracer.self_times()
    c = tracer.counters
    checks = counts["stochastic_order.check"]
    m = {}
    for layer, value in self_s.items():
        m[f"{layer}.self_s"] = (value, "s")
    m.update({
        "distributions.quantile_s": (secs["distributions.quantile"], "s"),
        "distributions.quantile_points": (counts["distributions.quantile"], "count"),
        "distributions.cdf_s": (secs["distributions.cdf"], "s"),
        "distributions.cdf_points": (counts["distributions.cdf"], "count"),
        "distributions.empirical_build_s": (secs["distributions.empirical_build"], "s"),
        "classifier.ratio_law_s": (secs["classifier.ratio_law"], "s"),
        "classifier.ratio_mc_draws": (counts["classifier.ratio_law"], "count"),
        "stochastic_order.checks": (checks, "count"),
        "stochastic_order.eval_points": (counts["stochastic_order.eval_points"], "count"),
        "stochastic_order.unique_check_ratio": (
            c["stochastic_order.unique_checks"] / checks if checks else 1.0, "ratio"),
        "coupling.spec_s": (secs["coupling.spec"], "s"),
        "coupling.sample_s": (secs["coupling.sample"], "s"),
        "coupling.draws": (counts["coupling.sample"], "count"),
        "capacity.rate_calls": (counts["capacity.rate"], "count"),
        "markov.parse_s": (secs["markov.parse"], "s"),
        "markov.certify_s": (secs["markov.certify"], "s"),
        "markov.pairs_checked": (c["markov.pairs_checked"], "count"),
        "markov.matrix_entries": (counts["markov.parse"], "count"),
        "verify.mc_draws": (counts["verify.check"], "count"),
        "cli.bytes_out": (traced.bytes_out, "bytes"),
        "setup.import_scipy_integrate_s": (breakdown["scipy.integrate"], "s"),
        "setup.import_gainorder_s": (breakdown["gainorder.cli"], "s"),
        "trace.spans": (len(tracer.spans), "count"),
        "trace.wall_s": (traced.wall, "s"),
        "trace.overhead_s": (traced.wall - untraced_wall, "s"),
        "trace.unattributed_s": (traced.wall - tracer.root_seconds(), "s"),
    })
    return m


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, timeout=900)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: for the benchmark's own tests, not for timing")
    args = parser.parse_args(argv)
    if not (SRC / "gainorder" / "cli.py").is_file():
        sys.stderr.write(f"error: {SRC / 'gainorder'} not found; run from a checkout of the "
                         "repository\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
