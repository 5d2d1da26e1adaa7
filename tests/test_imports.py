"""scipy loads only where a command needs a special function, scipy.optimize
not for gamma laws, and orjson only where a command writes a CSV table.

Each check runs in a fresh interpreter, since the test session itself has
scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import gainorder

_EXP = {"family": "exponential", "mean": 1.0}
_POINT = {"family": "point_mass", "value": 1.0}

# commands whose gains are Markov chains, Exponential or Bernoulli
SCIPY_FREE = {
    "markov.json": ("markov-check", {
        "weak": {"k": 1, "states": [0.1, 1.0], "matrix": [["1/2", "1/2"], ["3/4", "1/4"]],
                 "initial": ["1/2", "1/2"]},
        "strong": {"k": 1, "states": [0.1, 1.0], "matrix": [["1/4", "3/4"], ["1/8", "7/8"]],
                   "initial": ["1/4", "3/4"]},
    }),
    "ic.json": ("classify", {
        "topology": "ic", "condition": "strong", "powers": [1.0, 1.0],
        "gains": {"h11": dict(_EXP, mean=2.0), "h12": _EXP, "h21": _EXP,
                  "h22": dict(_EXP, mean=2.0)},
    }),
    "wtc.json": ("classify", {
        "topology": "wtc", "power": 1.0, "legitimate": dict(_EXP, mean=2.0),
        "eavesdropper": {"family": "bernoulli", "q": 0.5},
    }),
}

NAKAGAMI_BC = {
    "topology": "bc", "power": 1.0,
    "distributions": [{"family": "nakagami_gain", "m": 2.0, "w": 1.0}, _EXP],
}

PAIR = {"distributions": [_EXP, dict(_EXP, mean=2.0)]}
NAKAGAMI_PAIR = {"distributions": [{"family": "nakagami_gain", "m": 0.75, "w": 1.0},
                                   dict(_EXP, mean=2.0)]}

IC_POINT_MASS_STRONG = {
    "topology": "ic", "condition": "strong", "powers": [1.0, 1.0],
    "gains": {"h11": _POINT, "h12": dict(_POINT, value=2.0), "h21": dict(_POINT, value=2.0),
              "h22": _POINT},
}

# prints, after `import gainorder.cli` and after each run, the exit code so far
# and which of the lazily loaded modules are in sys.modules
_SCRIPT = """
import json, sys
from gainorder import cli

def loaded(code=None):
    return {"code": code, "orjson": "orjson" in sys.modules,
            "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}

report = [loaded()]
for argv in json.loads(sys.argv[1]):
    report.append(loaded(cli.main(argv)))
print(json.dumps(report))
"""


def _scenario(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _run(tmp_path, runs):
    """The loaded-module report of `runs` in one fresh interpreter."""
    out = str(tmp_path / "out")
    arg = json.dumps([argv + ["--out", out] for argv in runs])
    src = str(Path(gainorder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", _SCRIPT, arg], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def _scipy_free_runs(tmp_path):
    return [[command, _scenario(tmp_path, name, scenario)]
            for name, (command, scenario) in SCIPY_FREE.items()]


def test_scipy_loads_only_for_special_functions(tmp_path):
    runs = ([["figure", "--fig", "3", "--points", "50"]] + _scipy_free_runs(tmp_path)
            + [["classify", _scenario(tmp_path, "nakagami.json", NAKAGAMI_BC)]])
    report = _run(tmp_path, runs)
    # figure, markov-check, strong IC (reversed), wtc, then an incomparable Nakagami bc
    assert [r["code"] for r in report[1:]] == [0, 0, 1, 0, 1]
    assert report[-2]["scipy"] == []
    assert "scipy.special" in report[-1]["scipy"]


def test_gamma_density_crossings_need_no_root_finder(tmp_path):
    # the maximal coupling splits a gamma pair at its closed-form crossings
    runs = [["coupling-sample", _scenario(tmp_path, "pair.json", NAKAGAMI_PAIR),
             "--construction", "maximal", "-n", "200"],
            ["verify", "-n", "10000", "--seed", "1"]]
    report = _run(tmp_path, runs)
    assert [r["code"] for r in report[1:]] == [0, 0]
    assert "scipy.special" in report[-1]["scipy"]
    assert not any(m.startswith("scipy.optimize") for m in report[-1]["scipy"])


def test_orjson_loads_only_for_csv_tables(tmp_path):
    # classify and markov-check write JSON, so orjson stays out of them
    runs = _scipy_free_runs(tmp_path) + [
        ["classify", _scenario(tmp_path, "nakagami.json", NAKAGAMI_BC)],
        ["coupling-sample", _scenario(tmp_path, "pair.json", PAIR), "-n", "20"],
    ]
    report = _run(tmp_path, runs)
    assert [r["code"] for r in report[1:]] == [0, 1, 0, 1, 0]
    assert [r["orjson"] for r in report] == [False] * 5 + [True]
    # each of the other two CSV commands, first in its own interpreter
    for argv in (["figure", "--fig", "4", "--points", "20"],
                 ["region", _scenario(tmp_path, "region.json", IC_POINT_MASS_STRONG)]):
        report = _run(tmp_path, [argv])
        assert [(r["code"], r["orjson"]) for r in report] == [(None, False), (0, True)]
