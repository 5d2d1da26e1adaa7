"""Tests of the benchmark itself: smoke runs, oracle negative controls, tracing.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0",
                "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for line in ("wrong_answers", "failed_ops"):
        assert line in proc.stdout


def test_traced_smoke_run_prints_every_per_layer_metric():
    proc = _run("--workload", "sampling", "--seed", "3", "--seconds", "0", "--trace", "1",
                "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["coupling.draws"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "exact", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_generator_is_seeded_and_keeps_its_templates():
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 5, smoke=True)
        b = workloads.generate(name, 5, smoke=True)
        c = workloads.generate(name, 6, smoke=True)
        assert [(op.name, op.scenario, op.args) for op in a] == \
            [(op.name, op.scenario, op.args) for op in b]
        assert [op.name for op in a] == [op.name for op in c]
        assert [op.scenario for op in a] != [op.scenario for op in c]


# -- oracle negative controls -------------------------------------------------


def _run_op(op, workdir):
    from gainorder.cli import main

    workloads.write_scenarios([op], workdir)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(op.argv(workdir))


def _ops(workload):
    return {op.name: op for op in workloads.generate(workload, 7, smoke=True)}


def _wrong(findings):
    return [f for f in findings if not f.ok and not f.known_defect]


def test_oracle_accepts_then_counts_a_flipped_verdict(tmp_path):
    op = _ops("exact")["bc-chain-k3"]
    rc = _run_op(op, tmp_path)
    path = op.out_path(tmp_path)
    assert _wrong(oracle.check_op(op, rc, path)) == []

    report = json.loads(path.read_text())
    report["verdict"] = not report["verdict"]
    report["order_checks"][0]["relation"] = "incomparable"
    path.write_text(json.dumps(report))
    items = {f.item for f in _wrong(oracle.check_op(op, rc, path))}
    assert "verdict" in items and "exit_code" in items
    assert any(i.endswith(".relation") for i in items)


def test_oracle_counts_a_flipped_markov_certificate(tmp_path):
    op = _ops("exact")["markov-k1-neg"]
    rc = _run_op(op, tmp_path)
    path = op.out_path(tmp_path)
    assert rc == 1 and _wrong(oracle.check_op(op, rc, path)) == []
    cert = json.loads(path.read_text())
    cert["verdict"] = True
    cert["conditions"]["transition_ccdf_rows"] = True
    path.write_text(json.dumps(cert))
    items = {f.item for f in _wrong(oracle.check_op(op, 0, path))}
    assert {"verdict", "transition_ccdf_rows"} <= items


def test_oracle_counts_swapped_coupling_marginals(tmp_path):
    op = _ops("sampling")["comonotone-exp"]
    rc = _run_op(op, tmp_path)
    path = op.out_path(tmp_path)
    assert _wrong(oracle.check_op(op, rc, path)) == []
    lines = path.read_text().splitlines()
    swapped = [lines[0]] + [",".join([b, a, c]) for a, b, c in (ln.split(",") for ln in lines[1:])]
    path.write_text("\n".join(swapped) + "\n")
    items = {f.item for f in _wrong(oracle.check_op(op, rc, path))}
    assert {"ks_h1", "ks_h2"} <= items


def _subtol_findings(tol):
    """Findings for the subtol very-strong case reported as first_leq at `tol`."""
    scenario = workloads.generate("sampling", 7)[0].scenario
    op = workloads.Op("subtol", "classify", [], scenario)
    pairs = oracle._pairs_for(scenario)
    gaps = oracle.order_gaps(*pairs["h11_leq_z1"][:2])
    report = {"verdict": True, "order_checks": [
        {"name": "h11_leq_z1", "relation": "first_leq", "tol": tol, "max_violation": 0.0,
         "witnesses_first_gt": [], "witnesses_second_gt": []}]}
    return gaps, oracle._verdict_findings(op, report, pairs, {})[0]


def test_oracle_flags_the_widened_monte_carlo_tolerance_as_known_defect():
    # a true violation of 1.0e-3 to 1.8e-3 hides under the 4.08e-3 Monte Carlo tolerance
    gaps, findings = _subtol_findings(3.0 * 1.36 / 1000.0)
    assert 1e-3 <= gaps.first <= 1.8e-3 * 1.01
    assert [f.item for f in findings if f.known_defect] == ["h11_leq_z1.exact_relation"]
    assert _wrong(findings) == []


def test_oracle_counts_a_monte_carlo_check_from_fewer_draws():
    # 1e3 draws instead of 1e6: tol 3 * 1.36 / sqrt(1e3) = 0.129
    _, findings = _subtol_findings(3.0 * 1.36 / 1000.0 ** 0.5)
    assert "h11_leq_z1.tol" in {f.item for f in _wrong(findings)}


def test_oracle_counts_an_analytic_check_at_a_looser_tolerance(tmp_path):
    op = _ops("exact")["ic-strong-exp-pos"]
    rc = _run_op(op, tmp_path)
    path = op.out_path(tmp_path)
    assert _wrong(oracle.check_op(op, rc, path)) == []
    report = json.loads(path.read_text())
    report["order_checks"][0]["tol"] = 1e-6
    path.write_text(json.dumps(report))
    items = {f.item for f in _wrong(oracle.check_op(op, rc, path))}
    assert items == {report["order_checks"][0]["name"] + ".tol"}


def test_cpu_rotation_visits_every_cpu_and_gives_them_back():
    import os
    import threading
    import time

    import run

    allowed = os.sched_getaffinity(0)
    seen = set()
    with run.rotate_cpus(period=0.01):
        end = time.perf_counter() + 5.0
        while len(seen) < len(allowed) and time.perf_counter() < end:
            seen.add(frozenset(os.sched_getaffinity(0)))
    assert os.sched_getaffinity(0) == allowed
    assert "rotate-cpus" not in {t.name for t in threading.enumerate()}
    if len(allowed) > 1:
        assert seen == {frozenset({c}) for c in allowed}


# -- tracing ------------------------------------------------------------------


def test_self_times_account_for_the_traced_pass(tmp_path):
    import run
    from gainorder.cli import main

    ops = workloads.generate("exact", 2, smoke=True)[:6]
    workloads.write_scenarios(ops, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(ops, tmp_path, main, tracer)
    finally:
        tracer.uninstall()
    assert not traced.failures
    self_s = tracer.self_times()
    assert all(v >= -1e-9 for v in self_s.values())
    assert sum(self_s.values()) == pytest.approx(tracer.root_seconds(), rel=1e-9)
    assert tracer.root_seconds() <= traced.wall
    assert {op.name for op in ops} == {s[4] for s in tracer.spans}
    secs, counts = tracer.totals()
    assert counts["stochastic_order.check"] > 0 and counts["distributions.cdf"] > 0
    # uninstall restores every original
    import gainorder.classifier as cls
    assert not hasattr(cls.check_usual_order, "__wrapped__")
