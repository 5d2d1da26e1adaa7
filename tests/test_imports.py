"""scipy loads only where a command needs a special function.

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

_SCRIPT = """
import json, sys
from gainorder import cli

runs, nakagami, out = json.loads(sys.argv[1])
codes = [cli.main(argv + ["--out", out]) for argv in runs]
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
codes.append(cli.main(nakagami + ["--out", out]))
print(json.dumps({"codes": codes, "scipy_before": before,
                  "special_after": "scipy.special" in sys.modules}))
"""


def _run(tmp_path):
    runs = [["figure", "--fig", "3", "--points", "50"]]
    for name, (command, scenario) in SCIPY_FREE.items():
        path = tmp_path / name
        path.write_text(json.dumps(scenario))
        runs.append([command, str(path)])
    nakagami = tmp_path / "nakagami.json"
    nakagami.write_text(json.dumps(NAKAGAMI_BC))
    arg = json.dumps([runs, ["classify", str(nakagami)], str(tmp_path / "out")])
    src = str(Path(gainorder.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", _SCRIPT, arg], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_scipy_loads_only_for_special_functions(tmp_path):
    result = _run(tmp_path)
    # figure, markov-check, strong IC (reversed), wtc, then an incomparable Nakagami bc
    assert result["codes"] == [0, 0, 1, 0, 1]
    assert result["scipy_before"] == []
    assert result["special_after"]

