"""The benchmark's span tracer, bench/spans.py, wraps package names by their
spelling: each function on its module, each method on its class.  A function
that is gone makes `Tracer.install` raise, which breaks the traced run; a
method that is gone is skipped without a word, so its span drops out of the
per-layer timings.  These tests install the tracer, record every (class,
attribute) it asks for, and fail on a target its class no longer has, unless
STALE names it.
"""

import importlib.util
import sys
from pathlib import Path

import gainorder.cli  # Tracer.install imports it; the state check must see it first
from gainorder import Exponential, WTCScenario

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# (class, attribute) targets already gone from the package, and why they stay
STALE = {
    ("MaximalCouplingSpec", "residual_cdf"):
        "the maximal coupling's parts became gain laws with their own cdf; the "
        "benchmark's files cannot change with the package",
    ("MaximalCouplingSpec", "shared_cdf"): "as residual_cdf",
}


def _tracer():
    spec = importlib.util.spec_from_file_location("span_tracer", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _package_state():
    """Every attribute of every package module, and of the classes they define."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "gainorder"]
    owners = modules + [v for m in modules for v in vars(m).values()
                        if isinstance(v, type) and v.__module__.startswith("gainorder")]
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


def test_every_method_target_exists_and_uninstall_restores_the_package():
    tracer = _tracer()
    targets, method = [], tracer._method

    def observed(klass, attr, *args, **kwargs):
        targets.append((klass, attr))
        return method(klass, attr, *args, **kwargs)

    tracer._method = observed
    before = _package_state()
    tracer.install()
    try:
        # through the module, whose global the tracer rebinds
        report = gainorder.classifier.classify_wtc(
            WTCScenario(Exponential(2.0), Exponential(1.0), 1.0))
    finally:
        tracer.uninstall()
    after = _package_state()
    assert [key for key in before.keys() | after.keys()
            if before.get(key) is not after.get(key)] == []
    assert report.verdict
    assert {"classifier.classify", "stochastic_order.check"} <= {s[0] for s in tracer.spans}
    missing = {(klass.__name__, attr) for klass, attr in targets if not hasattr(klass, attr)}
    assert missing == set(STALE), f"span targets gone from the package: {missing - set(STALE)}"
    assert len(targets) > len(STALE)
