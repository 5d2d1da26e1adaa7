"""Independent oracle for the benchmark's CLI outputs.

Nothing here imports `gainorder`.  Laws come from `scipy.stats` or closed
forms, interference ratios from conditional quadrature, rates from
`scipy.integrate.quad`, Markov certificates from a brute-force `Fraction`
re-check.  `check_op` turns one CLI result into findings: one per output
checked, each right or wrong.  A finding flagged `known_defect` records a
disagreement the program is known to have (the widened Monte Carlo tolerance
of the interference-ratio law); it is reported by name and kept apart from the
wrong answers.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import integrate, optimize, stats

# The accuracy a solution must be stated at: an order check of analytic laws at
# tolerance 1e-9, one against the Monte Carlo ratio law at the widened tolerance
# 3 * 1.36 / sqrt(n) of n = 1e6 draws.  A reported tolerance above these is a
# wrong answer, however fast it came.
DEFAULT_TOL = 1e-9
MC_TOL = 3.0 * 1.36 / math.sqrt(10**6)
KS_ALPHA = 1e-6             # DKW level for the coupling-sample marginals


@dataclass
class Finding:
    case: str
    item: str
    ok: bool
    detail: str = ""
    known_defect: bool = False


# -- laws ---------------------------------------------------------------------


class Law:
    """A gain law: right CCDF sf(x) = Pr(X > x), left CCDF Pr(X >= x), atoms."""

    atoms: tuple = ()    # ((value, mass), ...)
    continuous = True

    def sf(self, x):
        raise NotImplementedError

    def sf_left(self, x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.sf(x), dtype=float)
        for v, mass in self.atoms:
            out = out + np.where(x == v, mass, 0.0)
        return out

    def top(self) -> float:
        """A point beyond which at most 1e-12 of the mass lies."""
        raise NotImplementedError


class ScipyLaw(Law):
    """A continuous law from scipy.stats; `density` is a plain-float pdf for the
    scalar integrands of `quad`, where the frozen distribution's call overhead
    would dominate."""

    def __init__(self, frozen, density):
        self.frozen = frozen
        self.density = density

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 1.0, self.frozen.sf(np.maximum(x, 0.0)))

    def pdf(self, x):
        return self.frozen.pdf(x)

    def top(self) -> float:
        return float(self.frozen.isf(1e-12))

    def mean(self) -> float:
        return float(self.frozen.mean())


class AtomLaw(Law):
    continuous = False

    def __init__(self, atoms):
        self.atoms = tuple((float(v), float(m)) for v, m in atoms if m > 0.0)

    def sf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for v, mass in self.atoms:
            out = out + np.where(x < v, mass, 0.0)
        return out

    def top(self) -> float:
        return max(v for v, _ in self.atoms)

    def mean(self) -> float:
        return sum(v * m for v, m in self.atoms)


class RatioLaw(Law):
    """Z = N / (1 + P D) for independent N, D, by conditioning on D:
    Pr(Z > z) = E_D[Pr(N > z (1 + P D))]."""

    def __init__(self, num: Law, den: Law, power: float):
        self.num, self.den, self.power = num, den, power

    def sf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = _conditional_sf(self.num, self.den, self.power, np.maximum(x, 0.0))
        return np.where(x < 0.0, 1.0, out)

    def top(self) -> float:
        return self.num.top()


def _conditional_sf(num: Law, den: Law, power: float, z: np.ndarray) -> np.ndarray:
    if not den.continuous:
        return sum(m * num.sf(z * (1.0 + power * v)) for v, m in den.atoms)

    val, _ = integrate.quad_vec(lambda d: num.sf(z * (1.0 + power * d)) * den.pdf(d),
                                0.0, np.inf, epsabs=1e-13, epsrel=1e-11)
    return val


def law_from_spec(spec: dict) -> Law:
    family = spec["family"]
    if family == "exponential":
        mean = spec["mean"]
        return ScipyLaw(stats.expon(scale=mean), lambda x: math.exp(-x / mean) / mean)
    if family == "nakagami_gain":
        m, theta = spec["m"], spec["w"] / spec["m"]
        log_norm = math.lgamma(m) + m * math.log(theta)

        def density(x):
            if x <= 0.0:
                return math.inf if m < 1.0 else (1.0 / theta if m == 1.0 else 0.0)
            return math.exp((m - 1.0) * math.log(x) - x / theta - log_norm)
        return ScipyLaw(stats.gamma(a=m, scale=theta), density)
    if family == "bernoulli":
        return AtomLaw([(0.0, 1.0 - spec["q"]), (1.0, spec["q"])])
    if family == "point_mass":
        return AtomLaw([(spec["value"], 1.0)])
    raise ValueError(f"oracle has no law for family {family!r}")


def ratio_ccdf_on_grid(num_spec: dict, den_spec: dict, power: float, z) -> np.ndarray:
    return RatioLaw(law_from_spec(num_spec), law_from_spec(den_spec), power).sf(z)


def _exact_ratio(num_spec: dict, den_spec: dict, power: float) -> bool:
    """Whether the program has a closed form for this ratio (else it samples 1e6 draws)."""
    fn, fd = num_spec["family"], den_spec["family"]
    if power == 0.0 or (fd == "point_mass" and den_spec["value"] == 0.0):
        return True
    return (fn, fd) in {("exponential", "exponential"), ("point_mass", "point_mass"),
                        ("exponential", "point_mass")}


# -- usual stochastic order ---------------------------------------------------


@dataclass
class Gaps:
    first: float     # sup (sf_A - sf_B): evidence against A <=_st B
    second: float    # sup (sf_B - sf_A)

    def relation(self, tol: float) -> str:
        a, b = self.first <= tol, self.second <= tol
        return {(True, True): "equal", (True, False): "first_leq",
                (False, True): "second_leq", (False, False): "incomparable"}[(a, b)]


def order_gaps(a: Law, b: Law) -> Gaps:
    """Suprema of the two CCDF differences over x >= 0, left limits at atoms included."""
    x_hi = max(a.top(), b.top(), 1e-6)
    atoms = sorted({v for v, _ in a.atoms} | {v for v, _ in b.atoms})
    xs = np.unique(np.concatenate([[0.0], np.geomspace(x_hi * 1e-12, x_hi, 4000),
                                   np.linspace(0.0, x_hi, 4000), atoms]))
    diff = a.sf(xs) - b.sf(xs)
    sups = [float(np.max(diff)), float(np.max(-diff))]
    if atoms:
        left = a.sf_left(np.array(atoms)) - b.sf_left(np.array(atoms))
        sups = [max(sups[0], float(np.max(left))), max(sups[1], float(np.max(-left)))]
    # refine the grid maxima on the smooth stretch around them (a ratio law's
    # pointwise quadrature is too slow for that; its grid is dense enough)
    for k, sign in enumerate((1.0, -1.0) if not isinstance(b, RatioLaw) else ()):
        i = int(np.argmax(sign * diff))
        lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
        if hi <= lo or any(lo <= v <= hi for v in atoms):
            continue
        res = optimize.minimize_scalar(lambda t: -sign * float(np.ravel(a.sf(t) - b.sf(t))[0]),
                                       bounds=(lo, hi), method="bounded",
                                       options={"xatol": 1e-12 * max(hi, 1e-300)})
        sups[k] = max(sups[k], -float(res.fun))
    return Gaps(sups[0], sups[1])


def _decisive(gap: float, tol: float, statistical: bool = False) -> bool | None:
    """gap <= tol, or None when gap sits too close to tol to call: within the
    grid resolution of an analytic law (1e-3 of the gap), plus, for a Monte
    Carlo law, the 1% Kolmogorov-Smirnov band 1.628 / sqrt(n) of the n draws
    that the reported tol = 3 * 1.36 / sqrt(n) implies."""
    band = 1e-12 + 1e-3 * abs(gap)
    if statistical:
        band += tol * 1.628 / (3.0 * 1.36)
    if abs(gap - tol) <= band:
        return None
    return gap <= tol


def relation_consistent(relation: str, gaps: Gaps, tol: float, statistical: bool) -> bool:
    first_ok = _decisive(gaps.first, tol, statistical)
    second_ok = _decisive(gaps.second, tol, statistical)
    want_first = relation in ("first_leq", "equal")
    want_second = relation in ("second_leq", "equal")
    return (first_ok is None or first_ok == want_first) and (
        second_ok is None or second_ok == want_second)


# -- rates --------------------------------------------------------------------


def _c(x: float) -> float:
    return 0.5 * math.log2(1.0 + x)


def ergodic_rate(law: Law, power: float) -> tuple[float, float]:
    """E[C(P H)] and the quadrature's error estimate."""
    if not law.continuous:
        return sum(m * _c(power * v) for v, m in law.atoms), 0.0
    split = law.top()
    f = law.density
    v1, e1 = integrate.quad(lambda x: _c(power * x) * f(x), 0.0, split, limit=400,
                            epsabs=1e-13, epsrel=1e-12)
    v2, e2 = integrate.quad(lambda x: _c(power * x) * f(x), split, np.inf, limit=400)
    return v1 + v2, e1 + e2


def pair_sum_rate(a: Law, pa: float, b: Law, pb: float) -> tuple[float, float]:
    """E[C(Pa Ha + Pb Hb)] by nested quadrature over the two densities."""
    fa, fb, top_b = a.density, b.density, b.top()

    def inner(x):
        v, _ = integrate.quad(lambda y: _c(pa * x + pb * y) * fb(y), 0.0, top_b, limit=200,
                              epsabs=1e-12, epsrel=1e-11)
        return v * fa(x)

    val, err = integrate.quad(inner, 0.0, a.top(), limit=200, epsabs=1e-11, epsrel=1e-10)
    return val, err + 1e-11


# -- per-command checks -------------------------------------------------------


def check_op(op, rc: int, out_path: Path) -> list:
    """Findings for one operation's exit code and output file."""
    kind = op.command
    obj = None
    if out_path.exists():
        text = out_path.read_text()
        obj = text if out_path.suffix == ".csv" else json.loads(text)
    if kind == "classify":
        if op.scenario["topology"] == "markov_bc":
            return _check_markov(op, rc, obj)
        return _check_classify(op, rc, obj)
    if kind == "secrecy":
        return _check_secrecy(op, rc, obj)
    if kind == "region":
        return _check_region(op, rc, obj, out_path.with_suffix(".json"))
    if kind == "markov-check":
        return _check_markov(op, rc, obj)
    if kind == "coupling-sample":
        return _check_coupling(op, rc, obj)
    if kind == "figure":
        return _check_figure(op, rc, obj)
    if kind == "verify":
        return _check_verify(op, rc, obj)
    raise ValueError(f"no oracle for command {kind!r}")


def _pairs_for(scenario: dict) -> dict:
    """Order-check name -> (law A, law B, statistical) as the classifier names them."""
    top = scenario["topology"]
    if top == "wtc":
        return {"eavesdropper_leq_legitimate": (law_from_spec(scenario["eavesdropper"]),
                                                law_from_spec(scenario["legitimate"]), False)}
    if top == "bc":
        laws = [law_from_spec(d) for d in scenario["distributions"]]
        out = {}
        for i, j in itertools.permutations(range(len(laws)), 2):
            out[f"user{i + 1}_leq_user{j + 1}"] = (laws[i], laws[j], False)
            out[f"user{i + 1}_vs_user{j + 1}"] = (laws[i], laws[j], False)
        return out
    g = scenario["gains"]
    p1, p2 = scenario["powers"]
    law = {k: law_from_spec(v) for k, v in g.items()}
    if scenario["condition"] == "strong":
        return {"h11_leq_h21": (law["h11"], law["h21"], False),
                "h22_leq_h12": (law["h22"], law["h12"], False)}
    return {
        "h11_leq_z1": (law["h11"], RatioLaw(law["h21"], law["h22"], p2),
                       not _exact_ratio(g["h21"], g["h22"], p2)),
        "h22_leq_z2": (law["h22"], RatioLaw(law["h12"], law["h11"], p1),
                       not _exact_ratio(g["h12"], g["h11"], p1)),
    }


def _verdict_findings(op, report: dict, pairs: dict, gap_cache: dict) -> tuple[list, bool | None]:
    """Check each reported order check; return findings and the oracle's verdict
    (None when a check sits inside the ambiguity band)."""
    findings, links = [], []
    # the program states one tolerance per scenario: the widened Monte Carlo one,
    # on every check, when either interference-ratio law is sampled
    stated = MC_TOL if any(pairs[c["name"]][2] for c in report["order_checks"]) else DEFAULT_TOL
    for check in report["order_checks"]:
        name = check["name"]
        a, b, statistical = pairs[name]
        if name not in gap_cache:
            gap_cache[name] = order_gaps(a, b)
        gaps = gap_cache[name]
        tol = check["tol"]
        findings.append(Finding(op.name, f"{name}.tol", tol <= stated * (1.0 + 1e-12),
                                f"reported tol {tol:.3g}, stated accuracy {stated:.3g}"))
        ok = relation_consistent(check["relation"], gaps, tol, statistical)
        findings.append(Finding(op.name, f"{name}.relation", ok,
                                f"reported {check['relation']} at tol {tol:.3g}; oracle gaps "
                                f"{gaps.first:.3e} / {gaps.second:.3e}"))
        for side, xs in (("first", check["witnesses_first_gt"]),
                         ("second", check["witnesses_second_gt"])):
            if xs:
                x = np.asarray(xs, dtype=float)
                d = a.sf(x) - b.sf(x)
                dl = a.sf_left(x) - b.sf_left(x)
                if side == "second":
                    d, dl = -d, -dl
                good = all(_decisive(g, tol, statistical) is not True
                           for g in np.maximum(d, dl))
                findings.append(Finding(op.name, f"{name}.witnesses_{side}_gt", good,
                                        f"gaps at witnesses {np.maximum(d, dl)}"))
        if tol > DEFAULT_TOL:
            # the widened Monte Carlo tolerance can hide a true violation: compare
            # with the exact relation and record a mismatch as the known defect
            exact = gaps.relation(DEFAULT_TOL)
            same = exact == check["relation"]
            findings.append(Finding(
                op.name, f"{name}.exact_relation", same,
                f"reported {check['relation']} at widened tol {tol:.3g}; exact relation "
                f"at tol {DEFAULT_TOL:g} is {exact} (true gaps {gaps.first:.3e} / "
                f"{gaps.second:.3e})", known_defect=not same))
        if "_vs_" not in name:  # a BC's incomparable witness pair is no link of the verdict
            links.append(_decisive(gaps.first, tol, statistical))
    return findings, _conjunction(links)


def _conjunction(values) -> bool | None:
    """AND over decisions that may be None (undecided)."""
    if False in values:
        return False
    return None if None in values else True


def _exit_finding(op, rc: int, verdict: bool | None) -> Finding:
    if verdict is None:
        return Finding(op.name, "exit_code", rc in (0, 1), f"rc={rc}, verdict ambiguous")
    want = 0 if verdict else 1
    return Finding(op.name, "exit_code", rc == want, f"rc={rc}, oracle wants {want}")


def _check_classify(op, rc, report) -> list:
    scenario = op.scenario
    cache: dict = {}
    findings, verdict = _verdict_findings(op, report, _pairs_for(scenario), cache)
    if scenario["topology"] == "bc":
        verdict = _bc_chain_exists(op, report, cache, findings)
    findings.append(Finding(op.name, "verdict", verdict is None or report["verdict"] == verdict,
                            f"reported {report['verdict']}, oracle {verdict}"))
    findings.append(_exit_finding(op, rc, report["verdict"]))
    return findings


def _bc_chain_exists(op, report, cache, findings) -> bool | None:
    """A chain exists iff the mean-sorted users chain up (the usual order implies
    ordered means).  Also checks a reported permutation link by link."""
    laws = [law_from_spec(d) for d in op.scenario["distributions"]]
    tol = report["order_checks"][0]["tol"] if report["order_checks"] else DEFAULT_TOL

    def link(i, j):
        name = f"user{i + 1}_leq_user{j + 1}"
        if name not in cache:
            cache[name] = order_gaps(laws[i], laws[j])
        return _decisive(cache[name].first, tol)

    order = sorted(range(len(laws)), key=lambda i: laws[i].mean())
    if report.get("permutation"):
        perm = [p - 1 for p in report["permutation"]]
        links_ok = all(link(i, j) is not False for i, j in zip(perm[:-1], perm[1:]))
        findings.append(Finding(op.name, "permutation", links_ok, f"{report['permutation']}"))
    return _conjunction([link(i, j) for i, j in zip(order[:-1], order[1:])])


def _check_secrecy(op, rc, obj) -> list:
    scenario = op.scenario
    pairs = _pairs_for(scenario)
    a, b, _ = pairs["eavesdropper_leq_legitimate"]
    gaps = order_gaps(a, b)
    verdict = _decisive(gaps.first, DEFAULT_TOL)
    findings = [_exit_finding(op, rc, verdict)]
    if rc != 0 or obj is None:
        return findings
    findings += _verdict_findings(op, obj["classification"], pairs,
                                  {"eavesdropper_leq_legitimate": gaps})[0]
    rate = obj["secrecy_capacity"]
    legit = law_from_spec(scenario["legitimate"])
    eave = law_from_spec(scenario["eavesdropper"])
    top, e1 = ergodic_rate(legit, scenario["power"])
    bottom, e2 = ergodic_rate(eave, scenario["power"])
    want = top - bottom
    slack = rate["error_estimate"] + e1 + e2 + 1e-12
    findings.append(Finding(op.name, "secrecy_bits", abs(rate["bits"] - want) <= slack,
                            f"reported {rate['bits']!r}, oracle {want!r}, slack {slack:.2e}"))
    return findings


# bits: region constraints carry no error estimate, so the benchmark fixes one;
# the quantile-space rule of pair_sum_rate lands within ~1e-6 of nested quadrature
REGION_ACCURACY = 1e-5


def _check_region(op, rc, text, sidecar: Path) -> list:
    scenario = op.scenario
    pairs = _pairs_for(scenario)
    verdict = _conjunction([_decisive(order_gaps(*pairs[name][:2]).first, DEFAULT_TOL)
                            for name in ("h11_leq_h21", "h22_leq_h12")])
    findings = [_exit_finding(op, rc, verdict)]
    if rc != 0 or text is None:
        return findings
    region = json.loads(sidecar.read_text())
    g = {k: law_from_spec(v) for k, v in scenario["gains"].items()}
    p1, p2 = scenario["powers"]
    want = []
    for a, b in ((g["h11"], g["h12"]), (g["h21"], g["h22"])):
        want += [ergodic_rate(a, p1)[0], ergodic_rate(b, p2)[0], pair_sum_rate(a, p1, b, p2)[0]]
    got = [c["b"] for c in region["constraints"]]
    for i, (x, y) in enumerate(zip(got, want)):
        findings.append(Finding(op.name, f"constraint{i}", abs(x - y) <= REGION_ACCURACY,
                                f"reported {x!r}, oracle {y!r}"))
    verts = [tuple(map(float, row)) for row in list(csv.reader(text.splitlines()))[1:]]
    cons = [(c["a1"], c["a2"], c["b"]) for c in region["constraints"]]
    feasible = all(a1 * x + a2 * y <= bb + 1e-9 and x >= -1e-12 and y >= -1e-12
                   for x, y in verts for a1, a2, bb in cons)
    area = _polygon_area(verts)
    clipped = _polygon_area(_clip_quadrant(cons))
    findings.append(Finding(op.name, "vertices", feasible and abs(area - clipped) <= 1e-9,
                            f"vertex area {area!r}, clipped area {clipped!r}"))
    return findings


def _polygon_area(pts) -> float:
    if len(pts) < 3:
        return 0.0
    s = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        s += x1 * y2 - x2 * y1
    return abs(s) / 2.0


def _clip_quadrant(cons) -> list:
    """Sutherland-Hodgman: a large box in the first quadrant clipped by a1 R1 + a2 R2 <= b."""
    big = 1e6
    poly = [(0.0, 0.0), (big, 0.0), (big, big), (0.0, big)]
    for a1, a2, b in cons:
        out = []
        for p, q in zip(poly, poly[1:] + poly[:1]):
            fp, fq = a1 * p[0] + a2 * p[1] - b, a1 * q[0] + a2 * q[1] - b
            if fp <= 0:
                out.append(p)
            if fp * fq < 0:
                t = fp / (fp - fq)
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        poly = out
    return poly


def _ks_crit(n: int) -> float:
    return math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * n))


def _overlap(a: ScipyLaw, b: ScipyLaw) -> float:
    f = lambda x: min(a.density(x), b.density(x))  # noqa: E731
    top = max(a.top(), b.top())
    pts = np.geomspace(top * 1e-9, top, 30)
    val, _ = integrate.quad(f, 0.0, top, points=pts, limit=500)
    return val


def _check_coupling(op, rc, text) -> list:
    findings = [Finding(op.name, "exit_code", rc == 0, f"rc={rc}")]
    if rc != 0 or text is None:
        return findings
    d1, d2 = (law_from_spec(d) for d in op.scenario["distributions"])
    rows = text.splitlines()[1:]
    n = op.expect["n"]
    findings.append(Finding(op.name, "rows", len(rows) == n, f"{len(rows)} rows for n={n}"))
    h1 = np.fromiter((float(r.split(",", 2)[0]) for r in rows), float, len(rows))
    h2 = np.fromiter((float(r.split(",", 2)[1]) for r in rows), float, len(rows))
    crit = _ks_crit(len(rows))
    for label, h, law in (("h1", h1, d1), ("h2", h2, d2)):
        ks = stats.kstest(h, law.frozen.cdf).statistic
        findings.append(Finding(op.name, f"ks_{label}", ks <= crit,
                                f"KS {ks:.4g} vs DKW bound {crit:.4g} at alpha {KS_ALPHA:g}"))
    if op.expect["construction"] == "maximal":
        eq = np.array([r.rsplit(",", 1)[1] == "True" for r in rows])
        findings.append(Finding(op.name, "equal_rows_coincide", bool(np.all(h1[eq] == h2[eq])),
                                "rows flagged equal must carry equal gains"))
        p = _overlap(d1, d2)
        sigma = math.sqrt(max(p * (1.0 - p), 1e-12) / len(rows))
        findings.append(Finding(op.name, "equal_fraction", abs(eq.mean() - p) <= 5.0 * sigma,
                                f"equal fraction {eq.mean():.5f}, overlap {p:.5f}"))
    else:
        order = np.argsort(h1, kind="stable")
        findings.append(Finding(op.name, "comonotone", bool(np.all(np.diff(h2[order]) >= 0.0)),
                                "h2 must not decrease along h1"))
    return findings


def _figure_columns(label: str) -> tuple[float, float, float]:
    """(cross mean, direct mean a, power P) of a figure column."""
    if label.startswith("diff_a"):
        return 1.0, float(label[6:]), 1.0
    return 1.0, 0.1, float(label[6:])


def _check_figure(op, rc, text) -> list:
    findings = [Finding(op.name, "exit_code", rc == 0, f"rc={rc}")]
    if rc != 0 or text is None:
        return findings
    lines = text.splitlines()
    header = lines[0].split(",")
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    hmax, points = op.expect["hmax"], op.expect["points"]
    h = np.linspace(hmax / points, hmax, points)
    findings.append(Finding(op.name, "abscissae", table.shape[0] == points
                            and np.allclose(table[:, 0], h, rtol=1e-15, atol=0), ""))
    for k, label in enumerate(header[1:], start=1):
        cross, a, power = _figure_columns(label)
        z = RatioLaw(law_from_spec({"family": "exponential", "mean": cross}),
                     law_from_spec({"family": "exponential", "mean": a}), power)
        want = z.sf(h) - np.exp(-h / a)
        err = float(np.max(np.abs(table[:, k] - want)))
        findings.append(Finding(op.name, label, err <= 1e-9, f"max abs error {err:.2e}"))
    return findings


def _check_verify(op, rc, reports) -> list:
    """The suite tests at the 1% level, so a positive control may fail by chance.
    Checked: each threshold against its definition, passed == (statistic <=
    threshold), every negative control failed, no positive statistic is
    implausible at level KS_ALPHA, and the exit code is 0 iff every positive passed."""
    if reports is None:
        return [Finding(op.name, "exit_code", False, f"rc={rc}, no report")]
    n, seed = op.expect["n"], op.expect["seed"]
    dkw = math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * n))
    z = float(stats.norm.isf(KS_ALPHA / 2.0))
    # (threshold from its definition, bound a correct statistic stays under)
    limits = {
        "same_marginals": (1.628 / math.sqrt(n), dkw),
        "strong_ic_independence": (3.0 / math.sqrt(n), z / math.sqrt(n)),
        "copula_equivalence": (1.5 * math.sqrt(math.log(2.0 / 0.01) / (2.0 * n)), dkw),
        # overlap of Exp(1) and Exp(2) is 3/4
        "maximal_equality_fraction": (3.0 * math.sqrt(0.75 * 0.25 / n),
                                      z * math.sqrt(0.75 * 0.25 / n)),
    }
    exp1 = law_from_spec({"family": "exponential", "mean": 1.0})
    mean_c, _ = ergodic_rate(exp1, 1.0)
    mean_c2, _ = integrate.quad(lambda x: _c(x) ** 2 * exp1.density(x), 0.0, np.inf)
    sd_c = math.sqrt(mean_c2 - mean_c ** 2)

    findings = []
    for r in reports:
        base = r["name"].split("[")[0].split(".")[0]
        negative = r["kind"] == "negative_control"
        ok = r["passed"] == (r["statistic"] <= r["threshold"]) and r["seed"] == seed
        if base == "mc_rate_vs_closed_form":
            ok = ok and r["sample_size"] == max(n, 10**4)
            plausible = z * sd_c / math.sqrt(r["sample_size"])
        else:
            threshold, plausible = limits[base]
            ok = ok and r["sample_size"] == n and math.isclose(r["threshold"], threshold,
                                                               rel_tol=1e-6)
        ok = ok and (not r["passed"] if negative else r["statistic"] <= plausible)
        findings.append(Finding(op.name, r["name"], bool(ok),
                                f"{r['kind']} passed={r['passed']} stat={r['statistic']:.4g}"))
    positives_ok = all(r["passed"] for r in reports if r["kind"] == "positive")
    findings.append(Finding(op.name, "negative_controls_present",
                            any(r["kind"] == "negative_control" for r in reports), ""))
    findings.append(Finding(op.name, "exit_code", rc == (0 if positives_ok else 1),
                            f"rc={rc}, positives passed: {positives_ok}"))
    return findings


# -- Markov certificates ------------------------------------------------------


def _fractions(row) -> list:
    return [Fraction(x) for x in row]


def _tails(pmf) -> list:
    """tails[n] = sum_{j > n} pmf[j]."""
    out, running = [], sum(pmf)
    for x in pmf:
        running -= x
        out.append(running)
    return out


def _tails_dominated(p, q) -> bool:
    return all(a <= b for a, b in zip(_tails(p), _tails(q)))


def _markov_expected(weak: dict, strong: dict) -> dict:
    """Brute-force certificate: every condition re-derived in exact rationals."""
    k, states = weak["k"], weak["states"]
    n = len(states)
    supers = list(itertools.product(range(n), repeat=k))

    def marginal(spec):
        out = [Fraction(0)] * n
        for tup, p in zip(supers, _fractions(spec["initial"])):
            out[tup[0]] += p
        return out

    initial_ok = _tails_dominated(marginal(weak), marginal(strong))

    def early_table(spec):
        return {tuple(e["history"]): _fractions(e["pmf"])
                for e in spec.get("early_conditionals", [])}

    if k == 1:
        early = "vacuous"
    else:
        ew, es = early_table(weak), early_table(strong)
        hists = [tuple(states[i] for i in h) for m in range(1, k)
                 for h in itertools.product(range(n), repeat=m)]
        if not all(h in ew and h in es for h in hists):
            early = "unverified"
        else:
            early = "passed"
            for m in range(1, k):
                for hw in itertools.product(range(n), repeat=m):
                    for hs in itertools.product(range(n), repeat=m):
                        if all(a <= b for a, b in zip(hw, hs)) and not _tails_dominated(
                                ew[tuple(states[i] for i in hw)],
                                es[tuple(states[i] for i in hs)]):
                            early = "failed"

    # condition (iii) over every comparable super-state pair, exact integers over a
    # common denominator so whole rows compare at once
    tw = [_tails(_fractions(r)) for r in weak["matrix"]]
    ts = [_tails(_fractions(r)) for r in strong["matrix"]]
    den = math.lcm(*{x.denominator for row in tw + ts for x in row})
    iw = np.array([[int(x * den) for x in row] for row in tw], dtype=object)
    is_ = np.array([[int(x * den) for x in row] for row in ts], dtype=object)
    rows_ok, violations = True, set()
    sup = np.array(supers)
    for li, tl in enumerate(supers):
        comparable = np.flatnonzero(np.all(sup >= np.array(tl), axis=1))
        bad = np.any(iw[li][None, :] > is_[comparable], axis=1)
        for s in comparable[bad]:
            rows_ok = False
            violations.add((li + 1, int(s) + 1))
    verdict = initial_ok and rows_ok and early in ("passed", "vacuous")
    conditional = initial_ok and rows_ok and early == "unverified"
    return {"verdict": verdict, "conditional": conditional, "initial": initial_ok,
            "early": early, "rows": rows_ok, "violations": violations, "tw": tw, "ts": ts}


def _check_markov(op, rc, cert) -> list:
    want = _markov_expected(op.scenario["weak"], op.scenario["strong"])
    findings = [_exit_finding(op, rc, want["verdict"])]
    if cert is None:
        return findings
    cond = cert["conditions"]
    for item, got, exp in (("verdict", cert["verdict"], want["verdict"]),
                           ("conditional", cert["conditional"], want["conditional"]),
                           ("initial_state_order", cond["initial_state_order"], want["initial"]),
                           ("early_conditionals", cond["early_conditionals"], want["early"]),
                           ("transition_ccdf_rows", cond["transition_ccdf_rows"], want["rows"])):
        findings.append(Finding(op.name, item, got == exp, f"reported {got}, oracle {exp}"))
    for w in cert["witnesses"]:
        if w[0] == "rows":
            _, l, s, col = w
            ok = (l, s) in want["violations"] and want["tw"][l - 1][col - 1] > want["ts"][s - 1][col - 1]
            findings.append(Finding(op.name, f"witness_rows_{l}_{s}", ok, f"{w}"))
    return findings
