"""Span tracing of the gainorder layers from outside the program.

`Tracer.install()` wraps the public functions of each layer module (and the
few internals that carry the counted work) and rebinds every name through
which a caller looks them up: module globals in every `gainorder.*` module,
and methods on the distribution, coupling and Markov classes.  `uninstall()`
puts the originals back.

A span records (name, start, end, parent span, operation id, count).  The
count is the work unit of the call: points evaluated, draws, matrix entries.
Spans stay in memory; `write_jsonl` writes them out once at the end.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "classifier", "stochastic_order", "distributions", "coupling", "capacity",
          "markov", "verify")

# Inclusive totals leave out a span nested in a span of the name given here, so
# the cdf calls that a quantile inversion makes count under quantile time only.
NESTED_IN = {"distributions.cdf": "distributions.quantile"}


def _arg(fn, name):
    """Counter reading argument `name` of `fn`, defaults applied."""
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return count


def _size_of(index: int):
    """Counter: number of points in positional argument `index` (self is 0 on methods)."""
    return lambda args, kwargs, result: int(np.size(args[index]))


def _one(args, kwargs, result):
    return 1


class _CountingPairs(list):
    """comparable_pairs result that counts the pairs the certificate loop visits."""

    def __init__(self, pairs, tracer):
        super().__init__(pairs)
        self._tracer = tracer

    def __iter__(self):
        for pair in super().__iter__():
            self._tracer.counters["markov.pairs_checked"] += 1
            yield pair


def _dist_key(d):
    # an Empirical holds up to 1e6 values: identify it by object, not by content
    return ("empirical", id(d)) if type(d).__name__ == "Empirical" else d


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent, op, count, counted]
        self._stack = []
        self._depth = defaultdict(int)
        self.op = None
        self.counters = defaultdict(float)
        self._checks_seen = set()
        self._patches = []         # (owner, attribute, original raw attribute)

    # -- recording -----------------------------------------------------------

    def begin_op(self, op_id: str) -> None:
        self.op = op_id
        self._checks_seen = set()

    def wrap(self, name: str, fn, count=None, hook=None):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter
        enclosing = NESTED_IN.get(name, name)

        def traced(*args, **kwargs):
            counted = depth[name] == 0 and depth[enclosing] == 0
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0, counted]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            depth[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                depth[name] -= 1
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, result)
            if hook is not None:
                result = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        import gainorder.capacity as cap
        import gainorder.classifier as cls
        import gainorder.cli as cli
        import gainorder.coupling as cpl
        import gainorder.distributions as dist
        import gainorder.markov as mk
        import gainorder.stochastic_order as so
        import gainorder.verify as ver

        fn = self._function
        meth = self._method

        # distributions: kernels on every family class
        families = [dist.GainDistribution, dist.Exponential, dist.NakagamiGain,
                    dist.BernoulliGain, dist.PointMass, dist.RatioExpExp, dist.Empirical]
        for klass in families:
            for attr in ("cdf", "ccdf", "ccdf_left"):
                meth(klass, attr, "distributions.cdf", _size_of(1))
            meth(klass, "pdf", "distributions.pdf", _size_of(1))
            for attr in ("quantile", "sample"):
                meth(klass, attr, "distributions.quantile", _size_of(1))
            meth(klass, "tail_quantile", "distributions.quantile", lambda a, k, r: 1)
            meth(klass, "atoms", "distributions.atoms")
            meth(klass, "mean", "distributions.mean")
        meth(dist.Empirical, "from_samples", "distributions.empirical_build", _size_of(1))
        meth(dist.EvaluationGrid, "for_pair", "distributions.grid")
        meth(dist.EvaluationGrid, "log_spaced", "distributions.grid")
        fn(dist, "distribution_from_spec", "distributions.parse")
        fn(dist, "build_ratio", "distributions.parse")
        # generic CDF inversion as the coupling components call it
        fn(cpl, "_invert_cdf", "distributions.quantile", _size_of(1), owner_only=True)

        # stochastic_order
        seen = self._checks_seen_hook
        fn(so, "check_usual_order", "stochastic_order.check", _one, hook=seen("continuous"))
        fn(so, "check_usual_order_discrete", "stochastic_order.check", _one,
           hook=seen("discrete"))
        fn(so, "_ccdf_eval_points", "stochastic_order.eval_points",
           lambda a, k, r: int(np.size(r[0])))
        for name in ("density_segments", "overlap_mass", "total_variation"):
            fn(so, name, "stochastic_order.overlap")

        # classifier
        for name in ("classify_bc", "classify_ic_strong", "classify_ic_very_strong",
                     "classify_wtc"):
            fn(cls, name, "classifier.classify")
        mc = _arg(cls.interference_ratio_distribution, "mc_samples")
        fn(cls, "interference_ratio_distribution", "classifier.ratio_law",
           lambda a, k, r: 0 if r[1] else mc(a, k, r))

        # coupling
        fn(cpl, "maximal_coupling_spec", "coupling.spec")
        fn(cpl, "maximal_coupling_samples", "coupling.sample", _size_of(1))
        fn(cpl, "comonotone_samples", "coupling.sample", _size_of(2))
        for attr in ("shared_cdf", "residual_cdf"):
            meth(cpl.MaximalCouplingSpec, attr, "coupling.mixture_cdf")
        meth(cpl._PiecewiseMinCdf, "unnorm", "coupling.mixture_cdf")

        # capacity
        fn(cap, "ergodic_rate", "capacity.rate", _one)
        fn(cap, "pair_sum_rate", "capacity.rate", _one)
        fn(cap, "exponential_rate_closed_form", "capacity.closed_form")
        for name in ("strong_ic_region", "very_strong_ic_region", "wtc_secrecy_capacity"):
            fn(cap, name, "capacity.region")
        fn(cap, "region_from_constraints", "capacity.vertices")

        # markov
        fn(mk, "markov_spec_from_json", "markov.parse",
           lambda a, k, r: r.n_super * r.n_super)
        fn(mk, "check_markov_degraded", "markov.certify")
        fn(mk, "ccdf_matrix", "markov.ccdf_matrix")
        fn(mk, "comparable_pairs", "markov.comparable_pairs",
           hook=lambda a, k, r: _CountingPairs(r, self))

        # verify
        for name in ("verify_same_marginals", "verify_strong_ic_independence", "mc_ergodic_rate",
                     "verify_copula_equivalence", "verify_maximal_equality_fraction"):
            fn(ver, name, "verify.check", _arg(getattr(ver, name), "n"))
        fn(ver, "run_verification_suite", "verify.suite")
        fn(ver, "ks_statistic", "verify.ks")

        # cli
        fn(cli, "main", "cli.main")
        for name in dir(cli):
            if name.startswith("cmd_"):
                fn(cli, name, "cli.command")
            elif name.startswith("parse_") or name == "load_scenario":
                fn(cli, name, "cli.parse")
        fn(cli, "_emit_json", "cli.emit")
        fn(cli, "_emit_csv", "cli.emit")

    def _checks_seen_hook(self, kind):
        def hook(args, kwargs, result):
            if kind == "continuous":
                tol = kwargs.get("tol", args[3] if len(args) > 3 else None)
                key = (_dist_key(args[0]), _dist_key(args[1]), tol)
            else:
                tol = kwargs.get("tol", args[2] if len(args) > 2 else 1e-12)
                key = (tuple(np.asarray(args[0], float)), tuple(np.asarray(args[1], float)), tol)
            if key not in self._checks_seen:   # emptied at each operation
                self._checks_seen.add(key)
                self.counters["stochastic_order.unique_checks"] += 1
            return result
        return hook

    def _function(self, module, attr, name, count=None, hook=None, owner_only=False):
        original = getattr(module, attr)
        traced = self.wrap(name, original, count, hook)
        owners = [module] if owner_only else [
            m for key, m in list(sys.modules.items())
            if key == "gainorder" or key.startswith("gainorder.")]
        for owner in owners:
            if owner.__dict__.get(attr) is original:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, traced)

    def _method(self, klass, attr, name, count=None):
        raw = klass.__dict__.get(attr)
        if raw is None:
            return  # inherited: the defining class is wrapped instead
        self._patches.append((klass, attr, raw))
        if isinstance(raw, classmethod):
            setattr(klass, attr, classmethod(self.wrap(name, raw.__func__, count)))
        else:
            setattr(klass, attr, self.wrap(name, raw, count))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict:
        """Per-layer self time: each span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i, (name, start, end, *_rest) in enumerate(self.spans):
            out[name.split(".")[0]] += (end - start) - child[i]
        return out

    def totals(self) -> tuple[dict, dict]:
        """Inclusive seconds and summed counts per span name, outermost spans only,
        so a kernel that calls itself (ccdf -> cdf, sample -> quantile) counts
        once, and without the spans nested as NESTED_IN says."""
        secs, counts = defaultdict(float), defaultdict(float)
        for name, start, end, parent, op, count, counted in self.spans:
            if counted:
                secs[name] += end - start
                counts[name] += count
        return secs, counts

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, *_ in self.spans if parent < 0)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, count, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "count": count}) + "\n")
