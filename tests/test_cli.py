import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import subprocess
import sys
import unittest.mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gainorder import classifier as classifier_module
from gainorder import cli
from gainorder.classifier import BCScenario, ICScenario, WTCScenario
from gainorder.cli import _emit_csv, build_parser, main
from gainorder.distributions import Empirical, Exponential, distribution_from_spec
from gainorder.markov import MarkovChannelSpec

BC_OK = {
    "topology": "bc",
    "distributions": [{"family": "exponential", "mean": 1.0},
                      {"family": "exponential", "mean": 2.0}],
    "power": 1.0,
}

IC_STRONG_BAD = {
    "topology": "ic",
    "condition": "strong",
    "gains": {
        "h11": {"family": "exponential", "mean": 2.0},
        "h12": {"family": "exponential", "mean": 1.0},
        "h21": {"family": "exponential", "mean": 1.0},
        "h22": {"family": "exponential", "mean": 2.0},
    },
    "powers": [1.0, 1.0],
}

IC_POINT_MASS_STRONG = {
    "topology": "ic",
    "condition": "strong",
    "gains": {
        "h11": {"family": "point_mass", "value": 1.0},
        "h12": {"family": "point_mass", "value": 2.0},
        "h21": {"family": "point_mass", "value": 2.0},
        "h22": {"family": "point_mass", "value": 1.0},
    },
    "powers": [1.0, 1.0],
}

WTC_OK = {
    "topology": "wtc",
    "legitimate": {"family": "exponential", "mean": 2.0},
    "eavesdropper": {"family": "exponential", "mean": 1.0},
    "power": 1.0,
}

PAIR = {"distributions": [{"family": "exponential", "mean": 1.0},
                          {"family": "exponential", "mean": 2.0}]}

MARKOV_EX3 = {
    "topology": "markov_bc",
    "weak": {"k": 1, "states": [0.1, 0.5, 1.0],
             "matrix": [["1/2", "1/4", "1/4"], ["3/4", "1/8", "1/8"], ["5/8", "1/4", "1/8"]],
             "initial": ["1/2", "1/4", "1/4"]},
    "strong": {"k": 1, "states": [0.1, 0.5, 1.0],
               "matrix": [["1/4", "3/8", "3/8"], ["1/8", "2/8", "5/8"], ["1/2", "1/8", "3/8"]],
               "initial": ["1/4", "3/8", "3/8"]},
}

MARKOV_EX4 = {
    "topology": "markov_bc",
    "weak": {"k": 2, "states": [0.0, 1.0],
             "matrix": [["1/2", "1/2", 0, 0], [0, 0, "1/3", "2/3"],
                        ["1/4", "3/4", 0, 0], [0, 0, "1/5", "4/5"]],
             "initial": ["1/4", "1/4", "1/8", "3/8"],
             "early_conditionals": [{"history": [0.0], "pmf": ["1/2", "1/2"]},
                                    {"history": [1.0], "pmf": ["1/4", "3/4"]}]},
    "strong": {"k": 2, "states": [0.0, 1.0],
               "matrix": [["1/3", "2/3", 0, 0], [0, 0, "1/4", "3/4"],
                          ["1/5", "4/5", 0, 0], [0, 0, "1/6", "5/6"]],
               "initial": ["1/9", "2/9", "1/9", "5/9"],
               "early_conditionals": [{"history": [0.0], "pmf": ["1/3", "2/3"]},
                                      {"history": [1.0], "pmf": ["1/6", "5/6"]}]},
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestClassifyCommand:
    def test_degraded_bc_exits_zero(self, tmp_path, capsys):
        code = main(["classify", write(tmp_path, "bc.json", BC_OK)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is True

    def test_reversed_ic_exits_one(self, tmp_path):
        assert main(["classify", write(tmp_path, "ic.json", IC_STRONG_BAD)]) == 1

    def test_missing_family_field_exits_two(self, tmp_path, capsys):
        broken = json.loads(json.dumps(BC_OK))
        del broken["distributions"][0]["family"]
        code = main(["classify", write(tmp_path, "broken.json", broken)])
        assert code == 2
        assert "family" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["classify", str(tmp_path / "nope.json")]) == 2

    def test_markov_topology_delegates(self, tmp_path):
        assert main(["classify", write(tmp_path, "m.json", MARKOV_EX3)]) == 0

    def test_comonotone_mode_on_strong_test_exits_two(self, tmp_path, capsys):
        scenario = dict(IC_STRONG_BAD, dependence="comonotone")
        assert main(["classify", write(tmp_path, "c.json", scenario)]) == 2
        assert "independent" in capsys.readouterr().err


class TestRegionCommand:
    def test_point_mass_square_vertices(self, tmp_path):
        out = tmp_path / "vertices.csv"
        scenario = write(tmp_path, "ic.json", IC_POINT_MASS_STRONG)
        assert main(["region", scenario, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "R1,R2"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert rows == [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 0.5)]

    def test_sidecar_constraints_round_trip(self, tmp_path):
        out = tmp_path / "vertices.csv"
        scenario = write(tmp_path, "ic.json", IC_POINT_MASS_STRONG)
        main(["region", scenario, "--out", str(out)])
        sidecar = json.loads((tmp_path / "vertices.json").read_text())
        rows = [tuple(float(v) for v in line.split(","))
                for line in out.read_text().strip().splitlines()[1:]]
        for r1, r2 in rows:
            for c in sidecar["constraints"]:
                assert c["a1"] * r1 + c["a2"] * r2 <= c["b"] + 1e-9

    def test_wtc_routed_to_region_exits_two(self, tmp_path):
        assert main(["region", write(tmp_path, "w.json", WTC_OK)]) == 2

    def test_unclassified_requires_force(self, tmp_path):
        scenario = write(tmp_path, "bad.json", IC_STRONG_BAD)
        assert main(["region", scenario]) == 1
        assert main(["region", scenario, "--force"]) == 0

    def test_unclassified_writes_one_line_and_no_file(self, tmp_path):
        out = tmp_path / "v.csv"
        code, stdout, err = _run(["region", write(tmp_path, "bad.json", IC_STRONG_BAD),
                                  "--out", str(out)])
        assert (code, stdout, err) == (1, "", "scenario does not satisfy the strong_interference "
                                       "condition; pass --force to evaluate the expression "
                                       "anyway\n")
        assert not out.exists() and not out.with_suffix(".json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        scenario = write(tmp_path, "ic.json", IC_POINT_MASS_STRONG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["region", scenario, "--out", str(out1)])
        main(["region", scenario, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestSecrecyCommand:
    def test_degraded_pair(self, tmp_path, capsys):
        code = main(["secrecy", write(tmp_path, "w.json", WTC_OK)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["secrecy_capacity"]["bits"] == pytest.approx(0.2355656, abs=1e-5)

    def test_not_degraded_exits_one(self, tmp_path):
        reversed_wtc = dict(WTC_OK, legitimate=WTC_OK["eavesdropper"],
                            eavesdropper=WTC_OK["legitimate"])
        assert main(["secrecy", write(tmp_path, "w.json", reversed_wtc)]) == 1

    def test_not_degraded_writes_one_line(self, tmp_path):
        reversed_wtc = dict(WTC_OK, legitimate=WTC_OK["eavesdropper"],
                            eavesdropper=WTC_OK["legitimate"])
        code, out, err = _run(["secrecy", write(tmp_path, "w.json", reversed_wtc)])
        assert (code, out, err) == (1, "", "scenario does not satisfy the degraded_wiretap "
                                    "condition; pass --force to evaluate the expression "
                                    "anyway\n")


CLASSIFIERS = ("classify_bc", "classify_ic_strong", "classify_ic_very_strong", "classify_wtc")


class TestOneClassificationPerCommand:
    @pytest.mark.parametrize("argv, scenario, classifier", [
        (["classify"], BC_OK, "classify_bc"),
        (["classify"], IC_STRONG_BAD, "classify_ic_strong"),
        (["region"], IC_POINT_MASS_STRONG, "classify_ic_strong"),
        (["region"], IC_STRONG_BAD, "classify_ic_strong"),
        (["region", "--force"], IC_STRONG_BAD, "classify_ic_strong"),
        (["region"], dict(IC_POINT_MASS_STRONG, condition="very_strong"),
         "classify_ic_very_strong"),
        (["secrecy"], WTC_OK, "classify_wtc"),
        (["secrecy", "--force"], dict(WTC_OK, legitimate=WTC_OK["eavesdropper"],
                                      eavesdropper=WTC_OK["legitimate"]), "classify_wtc"),
    ])
    def test_one_classifier_call(self, tmp_path, monkeypatch, argv, scenario, classifier):
        # every module that imports a classifier calls the counted one
        calls = []
        for name in CLASSIFIERS:
            original = getattr(classifier_module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            for module in [m for key, m in sys.modules.items() if key.startswith("gainorder")]:
                if module.__dict__.get(name) is original:
                    monkeypatch.setattr(module, name, counted)
        code, _, _ = _run([argv[0], write(tmp_path, "s.json", scenario), *argv[1:]])
        assert code in (0, 1) and calls == [classifier]


class TestCouplingSampleCommand:
    def test_maximal_csv_shape(self, tmp_path):
        out = tmp_path / "samples.csv"
        scenario = write(tmp_path, "pair.json", PAIR)
        assert main(["coupling-sample", scenario, "--construction", "maximal",
                     "-n", "200", "--seed", "5", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "h1,h2,equal_flag"
        assert len(lines) == 201
        equal_rows = [line for line in lines[1:] if line.endswith("True")]
        for line in equal_rows:
            h1, h2, _ = line.split(",")
            assert h1 == h2

    def test_comonotone_leaves_flag_empty(self, tmp_path):
        out = tmp_path / "samples.csv"
        scenario = write(tmp_path, "pair.json", PAIR)
        main(["coupling-sample", scenario, "-n", "10", "--out", str(out)])
        body = out.read_text().strip().splitlines()[1:]
        assert all(line.endswith(",") for line in body)

    def test_deterministic_given_seed(self, tmp_path):
        scenario = write(tmp_path, "pair.json", PAIR)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["coupling-sample", scenario, "-n", "50", "--seed", "9", "--out", str(a)])
        main(["coupling-sample", scenario, "-n", "50", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def reference_csv(header, columns) -> str:
    """The CSV writer the CLI had before it wrote in row blocks, kept as the
    reference: every cell through repr (floats), str (bools) or "" (None),
    the whole text joined at once.  None stands for a column of empty cells."""
    n_rows = len(next(c for c in columns if c is not None))

    def fmt(value):
        if isinstance(value, float):
            return repr(value)
        return "" if value is None else str(value)

    def column(values):
        if values is None:
            values = itertools.repeat(None, n_rows)
        if isinstance(values, np.ndarray) and values.dtype.kind in "fb":
            return map(repr if values.dtype.kind == "f" else str, values.tolist())
        return map(fmt, values)

    lines = [",".join(header)]
    lines += map(",".join, zip(*map(column, columns)))
    return "\n".join(lines) + "\n"


def _nextafters(x, n=3):
    out, up, down = [x], x, x
    for _ in range(n):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [float(up), float(down)]
    return out


# the edges of orjson's layouts and their neighbours: where it stops writing
# positionally (1e-5 and 1e-4 below, 1e16 above) and one-, two- and
# three-digit exponents of both signs
CSV_EDGES = [v for x in (1e-100, 1e-10, 1e-9, 1e-5, 1e-4, 1e16, 1e100)
             for e in _nextafters(x) for v in (e, -e)]
CSV_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.0**53,
                     2.0**53 + 2.0, 1e15, 1e-5, 0.1] + CSV_EDGES),
)


def _emitted(header, columns, tmp_path) -> tuple[str, str]:
    """What _emit_csv writes to a file and to stdout."""
    out = tmp_path / "table.csv"
    _emit_csv(header, columns, str(out))
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        _emit_csv(header, columns, None)
    return out.read_text(), stdout.getvalue()


# the layouts the commands write: float columns (region, figure), then a bool
# column (maximal coupling samples) or a column of empty cells (comonotone)
TRAILERS = {"none": lambda flags: [], "bool": lambda flags: [flags],
            "empty": lambda flags: [None]}


def block_cells(values: np.ndarray) -> list[str]:
    """The cells the block formatter writes for one float column."""
    return bytes(cli._csv_block([values])).decode().splitlines()


class TestCsvOutput:
    @pytest.mark.parametrize("trailer", TRAILERS)
    def test_columns_format_like_each_cell(self, tmp_path, trailer):
        # float columns and each trailing column, against the cell-by-cell reference
        floats = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-310,
                           2.2250738585072014e-308, 1e300, -1.5e-7, 0.1, 1.0 / 3.0])
        flags = np.arange(floats.size) % 3 == 0
        columns = [floats, floats[::-1]] + TRAILERS[trailer](flags)
        header = ["a", "b", "c"][:len(columns)]
        expected = reference_csv(header, columns)
        assert _emitted(header, columns, tmp_path) == (expected, expected)

    @pytest.mark.parametrize("trailer", TRAILERS)
    @pytest.mark.parametrize("extra", [-1, 0, 1, cli.CSV_BLOCK_ROWS + 1])
    def test_tables_around_the_block_size(self, tmp_path, extra, trailer):
        # random bit patterns: every exponent, subnormals, NaN and inf included
        n_rows = cli.CSV_BLOCK_ROWS + extra
        rng = np.random.default_rng(n_rows)
        bits = rng.integers(0, 2**64, n_rows, dtype=np.uint64, endpoint=False)
        columns = [bits.view(np.float64), rng.random(n_rows)]
        columns += TRAILERS[trailer](rng.random(n_rows) < 0.5)
        header = ["h1", "h2", "flag"][:len(columns)]
        expected = reference_csv(header, columns)
        assert _emitted(header, columns, tmp_path) == (expected, expected)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), block=st.sampled_from([1, 2, 3, 5, 8]),
           n_floats=st.integers(1, 4), trailer=st.sampled_from(list(TRAILERS)))
    def test_same_bytes_as_the_reference(self, tmp_path_factory, data, block, n_floats,
                                         trailer):
        n_rows = data.draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block + 1])
                           | st.integers(0, 4 * block), label="n_rows")
        columns = [np.array(data.draw(st.lists(CSV_FLOATS, min_size=n_rows, max_size=n_rows)),
                            dtype=float) for _ in range(n_floats)]
        columns += TRAILERS[trailer](np.array(data.draw(
            st.lists(st.booleans(), min_size=n_rows, max_size=n_rows)), dtype=bool))
        header = [f"c{i}" for i in range(len(columns))]
        expected = reference_csv(header, columns)
        with unittest.mock.patch.object(cli, "CSV_BLOCK_ROWS", block):
            got = _emitted(header, columns, tmp_path_factory.mktemp("csv"))
        assert got == (expected, expected)

    def test_every_power_of_ten_and_its_neighbours(self):
        # every decimal exponent a double has, on both sides of each power
        values = [v for e in range(-323, 309) for x in _nextafters(float(f"1e{e}"), n=1)
                  for v in (x, -x)]
        assert block_cells(np.array(values)) == list(map(repr, values))

    @pytest.mark.parametrize("band, nonfinite", [(0, 0), (1, 0), (0, 3), (7, 2), (500, 40)])
    def test_repr_formats_the_band_and_nonfinite_cells_alone(self, band, nonfinite):
        # 2000 finite cells outside [1e-5, 1e-4) that repr must not format
        # (exponents of both signs, positional cells, subnormals), then band
        # and NaN/+-inf cells, one repr call each
        rng = np.random.default_rng(band + nonfinite)
        subnormals = rng.integers(1, 2**52, 400, dtype=np.uint64).view(np.float64)
        values = np.concatenate([10.0 ** rng.uniform(-300, -6, 800),
                                 10.0 ** rng.uniform(np.log10(0.5), 300, 800), subnormals,
                                 10.0 ** rng.uniform(-5, -4, band)])
        values *= np.where(rng.random(values.size) < 0.5, 1.0, -1.0)
        values = np.concatenate([values, rng.choice([np.nan, np.inf, -np.inf], nonfinite)])
        rng.shuffle(values)
        with unittest.mock.patch.object(cli, "repr", create=True, wraps=repr) as spy:
            cells = block_cells(values)
        assert spy.call_count == band + nonfinite
        assert cells == list(map(repr, values.tolist()))

    @pytest.mark.parametrize("layout", [
        "float", "float float", "float float float float float", "float bool",
        "float float bool", "float empty", "float float empty",
    ])
    @pytest.mark.parametrize("block, n_rows", [(1, 1), (1, 3), (3, 1), (3, 7), (8192, 10)])
    def test_each_separator_layout(self, tmp_path, layout, block, n_rows):
        # one or more float columns, then at most one bool or empty column, and
        # one-row blocks, against the cell-by-cell reference
        rng = np.random.default_rng(n_rows)
        pool = np.array([0.5, -2.0, 1.5e-5, -7e-5, 1e-7, 2.5e16, -1e300, 5e-324, np.nan,
                         np.inf, -np.inf, 0.1, 123456.789, -0.0])
        make = {"float": lambda: rng.choice(pool, n_rows), "empty": lambda: None,
                "bool": lambda: rng.random(n_rows) < 0.5}
        columns = [make[kind]() for kind in layout.split()]
        header = [f"c{i}" for i in range(len(columns))]
        expected = reference_csv(header, columns)
        with unittest.mock.patch.object(cli, "CSV_BLOCK_ROWS", block):
            assert _emitted(header, columns, tmp_path) == (expected, expected)

    def test_one_orjson_dump_per_block(self, tmp_path):
        import orjson

        n_rows = 2 * cli.CSV_BLOCK_ROWS + 5
        rng = np.random.default_rng(3)
        columns = [rng.random(n_rows), rng.random(n_rows), rng.random(n_rows) < 0.5]
        with unittest.mock.patch.object(orjson, "dumps", wraps=orjson.dumps) as spy:
            _emit_csv(["h1", "h2", "flag"], columns, str(tmp_path / "table.csv"))
        assert spy.call_count == 3
        assert [call.args[0].size for call in spy.call_args_list] == [
            2 * cli.CSV_BLOCK_ROWS, 2 * cli.CSV_BLOCK_ROWS, 10]

    def test_each_write_holds_at_most_one_block(self):
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text.count("\n"))
                return super().write(text)

        n_rows = 2 * cli.CSV_BLOCK_ROWS + 5
        with contextlib.redirect_stdout(Recorder()):
            _emit_csv(["h"], [np.linspace(0.0, 1.0, n_rows)], None)
        assert sum(writes) == n_rows + 1
        assert max(writes) == cli.CSV_BLOCK_ROWS


# runs each argv of the JSON list in argv[1] through main, in this interpreter
_RUN_EACH = ("import json, sys\n"
             "from gainorder.cli import main\n"
             "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n")


class TestFreshInterpreterOutput:
    def test_stdout_holds_the_bytes_of_the_files(self, tmp_path):
        # the tables go to files as bytes and to stdout as text; only a real
        # stdout, not redirect_stdout's StringIO, shows a write out of order or
        # in another encoding.  Each table spans several blocks
        pair = write(tmp_path, "pair.json", PAIR)
        argvs = [["coupling-sample", pair, "--construction", construction, "-n", "20000",
                  "--seed", "3"] for construction in ("maximal", "comonotone")]
        argvs.append(["figure", "--fig", "3", "--points", "20000"])
        files = [tmp_path / f"table{i}.csv" for i in range(len(argvs))]
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))

        def run(argvs):
            return subprocess.run([sys.executable, "-c", _RUN_EACH, json.dumps(argvs)], env=env,
                                  capture_output=True, timeout=300)

        to_files = run([argv + ["--out", str(f)] for argv, f in zip(argvs, files)])
        to_stdout = run(argvs)
        assert (to_files.returncode, to_files.stdout, to_files.stderr) == (0, b"", b"")
        assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
        assert to_stdout.stdout == b"".join(f.read_bytes() for f in files)
        assert to_stdout.stdout.count(b"\n") == 3 * 20001


class TestFigureCommand:
    def load(self, path):
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        return header, data

    def test_figure3_columns_and_signs(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["figure", "--fig", "3", "--out", str(out)]) == 0
        header, data = self.load(out)
        assert header == ["h", "diff_a0.1", "diff_a0.3", "diff_a0.5", "diff_a0.7"]
        assert data.shape == (2000, 5)
        assert data[0, 0] > 0.0 and data[-1, 0] == pytest.approx(20.0)
        for col in (1, 2, 3):
            assert np.min(data[:, col]) >= -1e-12
        assert np.min(data[:, 4]) <= -0.03

    def test_figure4_power_sweep(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert main(["figure", "--fig", "4", "--out", str(out)]) == 0
        header, data = self.load(out)
        assert header == ["h", "diff_P1", "diff_P10", "diff_P50", "diff_P100"]
        for col in (1, 2, 3):
            assert np.min(data[:, col]) >= -1e-12
        dip_region = data[data[:, 0] < 0.05]
        assert np.min(dip_region[:, 4]) <= -0.003

    @pytest.mark.parametrize("fig", ["3", "4"])
    def test_same_bytes_as_the_reference(self, tmp_path, fig):
        # the columns cmd_figure computes, written cell by cell through repr
        out = tmp_path / "fig.csv"
        with unittest.mock.patch.object(cli, "_emit_csv", wraps=cli._emit_csv) as spy:
            assert main(["figure", "--fig", fig, "--points", "200", "--out", str(out)]) == 0
        header, columns, _ = spy.call_args.args
        text = out.read_text()
        assert text == reference_csv(header, columns)
        assert "e-" in text   # cells below 1e-4 are in the table

    def test_unknown_figure_exits_two(self, tmp_path):
        assert main(["figure", "--fig", "5"]) == 2

    def test_custom_grid_flags(self, tmp_path):
        out = tmp_path / "fig.csv"
        main(["figure", "--fig", "3", "--points", "50", "--hmax", "5", "--out", str(out)])
        _, data = self.load(out)
        assert data.shape == (50, 5)
        assert data[-1, 0] == pytest.approx(5.0)


class TestMarkovCheckCommand:
    def test_first_order_example_certified(self, tmp_path, capsys):
        code = main(["markov-check", write(tmp_path, "m3.json", MARKOV_EX3)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] is True

    def test_second_order_example_certified(self, tmp_path):
        assert main(["markov-check", write(tmp_path, "m4.json", MARKOV_EX4)]) == 0

    def test_perturbed_pair_exits_one_with_witness(self, tmp_path, capsys):
        perturbed = json.loads(json.dumps(MARKOV_EX3))
        perturbed["strong"]["matrix"][0] = ["3/4", "1/8", "1/8"]
        code = main(["markov-check", write(tmp_path, "bad.json", perturbed)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert ["rows", 1, 1, 1] in payload["witnesses"]


class TestVerifyCommand:
    def test_default_suite_passes(self, capsys):
        assert main(["verify", "-n", "20000", "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(r["passed"] for r in payload)

    def test_negative_controls_reported_but_exit_zero(self, capsys):
        assert main(["verify", "-n", "20000", "--seed", "3",
                     "--include-negative-controls"]) == 0
        payload = json.loads(capsys.readouterr().out)
        negatives = [r for r in payload if r["kind"] == "negative_control"]
        assert negatives and all(not r["passed"] for r in negatives)

    def test_bad_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--no-such-flag"])
        assert err.value.code == 2


def _live_parsers() -> int:
    return sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())


def _run(argv) -> tuple:
    """(exit code, stdout, stderr) of one main call; argparse exits on usage errors."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestFlagErrors:
    """A flag argparse rejects exits 2 with its usage and one error line."""

    @pytest.mark.parametrize("argv, expected", [
        (["figure", "--fig", "3", "--points", "0"],
         "usage: gainorder figure [-h] [--out OUT] --fig FIG [--hmax HMAX]\n"
         "                        [--points POINTS]\n"
         "gainorder figure: error: argument --points: expected an integer >= 1, got '0'\n"),
        (["figure", "--fig", "3", "--hmax", "nan"],
         "usage: gainorder figure [-h] [--out OUT] --fig FIG [--hmax HMAX]\n"
         "                        [--points POINTS]\n"
         "gainorder figure: error: argument --hmax: expected a finite number > 0, got 'nan'\n"),
        (["classify", "{scenario}", "--tolerance", "-1"],
         "usage: gainorder classify [-h] [--out OUT] [--tolerance TOLERANCE] scenario\n"
         "gainorder classify: error: argument --tolerance: expected a finite number >= 0, "
         "got '-1'\n"),
        (["verify", "-n", "abc"],
         "usage: gainorder verify [-h] [--out OUT] [--seed SEED] [-n SAMPLES]\n"
         "                        [--include-negative-controls]\n"
         "gainorder verify: error: argument -n/--samples: expected an integer >= 10000, "
         "got 'abc'\n"),
        # the suite's copula and rate checks need 1e4 samples: refused before any check runs
        (["verify", "-n", "9999"],
         "usage: gainorder verify [-h] [--out OUT] [--seed SEED] [-n SAMPLES]\n"
         "                        [--include-negative-controls]\n"
         "gainorder verify: error: argument -n/--samples: expected an integer >= 10000, "
         "got '9999'\n"),
    ])
    def test_exact_message_and_exit_two(self, tmp_path, monkeypatch, argv, expected):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
        scenario = write(tmp_path, "s.json", WTC_OK)
        code, out, err = _run([a.format(scenario=scenario) for a in argv])
        assert (code, out, err) == (2, "", expected)


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_calls_build_no_parser_and_repeat_their_outputs(self, tmp_path):
        bc, ic, wtc, pair, markov = (write(tmp_path, f"{i}.json", obj) for i, obj in
                                     enumerate((BC_OK, IC_STRONG_BAD, WTC_OK, PAIR, MARKOV_EX3)))
        runs = [["classify", bc], ["classify", ic], ["secrecy", wtc],
                ["coupling-sample", pair, "-n", "20", "--seed", "3"], ["markov-check", markov],
                ["classify", bc, "--no-such-flag"], ["figure", "--fig", "3", "--points", "5"]]
        first = [_run(argv) for argv in runs]
        assert [code for code, _, _ in first] == [0, 1, 0, 0, 0, 2, 0]
        gc.collect()
        parsers = _live_parsers()
        again = [_run(runs[i % len(runs)]) for i in range(20)]
        # each build used to leave its parsers in reference cycles until a collection
        assert _live_parsers() == parsers
        assert again == [first[i % len(runs)] for i in range(20)]


BAD_MARKOV = json.loads(json.dumps(MARKOV_EX3))
BAD_MARKOV["weak"]["matrix"][0] = ["1/2", "1/2", "1/2"]


def weak_chain_with(base=MARKOV_EX3, **fields):
    """base with some fields of its weak chain replaced."""
    return dict(base, weak=dict(base["weak"], **fields))

DEGENERATE_INPUTS = [
    ("figure --fig 3 --points 0", None),
    ("figure --fig 3 --points -4", None),
    ("figure --fig 3 --points many", None),
    ("figure --fig 3 --hmax 0", None),
    ("figure --fig 3 --hmax -2", None),
    ("figure --fig 3 --hmax nan", None),
    ("figure --fig 3 --hmax inf", None),
    ("figure --fig 5", None),
    ("verify -n 0", None),
    ("verify -n 50", None),
    ("coupling-sample {scenario} -n 0", PAIR),
    ("coupling-sample {scenario} --construction maximal",
     {"distributions": [{"family": "bernoulli", "q": 0.5},
                        {"family": "exponential", "mean": 1.0}]}),
    ("coupling-sample {scenario}", {"distributions": [{"family": "exponential", "mean": 1.0}]}),
    ("classify {scenario}", dict(BC_OK, power=-1.0)),
    ("classify {scenario}", dict(IC_STRONG_BAD, powers=[1.0])),
    ("classify {scenario}", dict(WTC_OK, power="loud")),
    ("classify {scenario}", {"topology": "mesh"}),
    ("classify {scenario}", BAD_MARKOV),
    ("markov-check {scenario}", BAD_MARKOV),
    ("markov-check {scenario}", {"weak": MARKOV_EX3["weak"]}),
    ("classify {scenario}", dict(BC_OK, power=None)),
    ("classify {scenario}", dict(BC_OK, distributions=3)),
    ("classify {scenario}", dict(IC_STRONG_BAD, powers=[None, 1])),
    ("classify {scenario}", dict(IC_STRONG_BAD, gains=3)),
    ("secrecy {scenario}", dict(WTC_OK, power=[1.0])),
    ("coupling-sample {scenario}", {"distributions": 3}),
    ("markov-check {scenario}", weak_chain_with(k=None)),
    ("markov-check {scenario}", weak_chain_with(k=1.5)),
    ("markov-check {scenario}", weak_chain_with(k=10**12)),
    ("markov-check {scenario}", weak_chain_with(states=5)),
    ("markov-check {scenario}", weak_chain_with(matrix=3)),
    ("markov-check {scenario}", weak_chain_with(matrix=[1, 2, 3])),
    ("markov-check {scenario}", weak_chain_with(MARKOV_EX4, early_conditionals=3)),
    ("markov-check {scenario}",
     weak_chain_with(MARKOV_EX4, early_conditionals=[{"history": [0.0]}])),
    ("classify {scenario}", dict(BC_OK, distributions=[{"family": "empirical", "values": 5},
                                                       {"family": "exponential", "mean": 1.0}])),
    ("classify {scenario}", dict(BC_OK, distributions=[{"family": "empirical",
                                                        "values": [[1.0, 2.0]]},
                                                       {"family": "exponential", "mean": 1.0}])),
    ("classify {scenario}", dict(BC_OK, distributions=[{"family": []},
                                                       {"family": "exponential", "mean": 1.0}])),
    ("classify {scenario}", dict(BC_OK, distributions=[{"family": "empirical", "values": [-1.0]},
                                                       {"family": "exponential", "mean": 1.0}])),
    ("classify {scenario}", dict(BC_OK, distributions=[{"family": "empirical", "values": [{}]},
                                                       {"family": "exponential", "mean": 1.0}])),
    ("classify {scenario}", dict(IC_STRONG_BAD, condition="weak")),
    ("classify {scenario}", dict(IC_STRONG_BAD, dependence="sideways")),
    ("markov-check {scenario}", weak_chain_with(k=0)),
    ("markov-check {scenario}", dict(MARKOV_EX3, weak=[])),
    ("classify {scenario} --tolerance nan", BC_OK),
    ("classify {scenario} --tolerance inf", IC_STRONG_BAD),
    ("classify {scenario} --tolerance -1e-9", BC_OK),
    ("classify {scenario} --tolerance 0.5", MARKOV_EX3),  # the certificate is exact
    # each subcommand takes only the flags it reads
    ("classify {scenario} --seed 3", BC_OK),
    ("classify {scenario} --force", BC_OK),
    ("region {scenario} --tolerance 0.1", IC_POINT_MASS_STRONG),
    ("region {scenario} --seed 3", IC_POINT_MASS_STRONG),
    ("secrecy {scenario} --tolerance 0.1", WTC_OK),
    ("secrecy {scenario} --seed 3", WTC_OK),
    ("coupling-sample {scenario} --force", PAIR),
    ("coupling-sample {scenario} --tolerance 0.1", PAIR),
    ("figure --fig 3 --seed 3", None),
    ("figure --fig 3 --force", None),
    ("markov-check {scenario} --tolerance 0.1", MARKOV_EX3),
    ("verify --force", None),
    ("verify --tolerance 0.1", None),
]


def _bc_with_law(spec):
    return dict(BC_OK, distributions=[spec, {"family": "exponential", "mean": 2.0}])


_IC_GAINS = [distribution_from_spec(IC_STRONG_BAD["gains"][name])
             for name in ("h11", "h12", "h21", "h22")]
_WEAK = MARKOV_EX3["weak"]

# field -> (scenario, path of the field, the library call that builds the type
# holding its value from that value)
NUMBER_FIELDS = {
    "bc power": (BC_OK, ("power",),
                 lambda v: BCScenario((Exponential(1.0), Exponential(2.0)), v)),
    "ic powers[0]": (IC_STRONG_BAD, ("powers", 0), lambda v: ICScenario(*_IC_GAINS, v, 1.0)),
    "ic powers[1]": (IC_STRONG_BAD, ("powers", 1), lambda v: ICScenario(*_IC_GAINS, 1.0, v)),
    "wtc power": (WTC_OK, ("power",),
                  lambda v: WTCScenario(Exponential(2.0), Exponential(1.0), v)),
    "empirical entry": (_bc_with_law({"family": "empirical", "values": [0.5]}),
                        ("distributions", 0, "values", 0), lambda v: Empirical((v,))),
    "markov k": (MARKOV_EX3, ("weak", "k"),
                 lambda v: MarkovChannelSpec(_WEAK["states"], v, _WEAK["matrix"],
                                             _WEAK["initial"])),
}
GAIN_SPECS = ({"family": "exponential", "mean": 1.0},
              {"family": "nakagami_gain", "m": 1.0, "w": 1.0},
              {"family": "bernoulli", "q": 0.5},
              {"family": "point_mass", "value": 1.0},
              {"family": "ratio_exp_exp", "num_mean": 1.0, "den_mean": 1.0, "power": 1.0,
               "num_shape": 1.0})
NUMBER_FIELDS.update({
    f"{spec['family']} {name}": (
        _bc_with_law(spec), ("distributions", 0, name),
        lambda v, spec=spec, name=name: distribution_from_spec(dict(spec, **{name: v})))
    for spec in GAIN_SPECS for name in spec if name != "family"})

# every field takes 1 and 1.0, so a refused spelling of 1 is refused for what it is
NUMBER_VALUES = {"numeric string": "1", "padded string": " 1 ", "null": None, "list": [1],
                 "object": {"value": 1}, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
                 "negative": -1.0, "zero": 0, "huge int": 10**400, "true": True, "one": 1,
                 "whole float": 1.0}


class TestOneRuleForANumber:
    """A value in a scenario file is checked once, by the type that holds it:
    the command exits 2 exactly where that type refuses the value."""

    @pytest.mark.parametrize("value", NUMBER_VALUES)
    @pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
    def test_a_value_exits_as_the_type_that_holds_it_decides(self, tmp_path, field, value):
        scenario, path, build = NUMBER_FIELDS[field]
        value = NUMBER_VALUES[value]
        scenario = json.loads(json.dumps(scenario))
        parent = scenario
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        code, _, err = _run(["classify", write(tmp_path, "s.json", scenario)])
        try:
            build(value)
            accepted = True
        except ValueError:
            accepted = False
        assert code in ((0, 1) if accepted else (2,)), err
        if isinstance(value, str):
            assert code == 2
        if code == 2:
            assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_a_string_power_is_not_read_as_a_number(self, tmp_path):
        code, out, err = _run(["secrecy", write(tmp_path, "s.json", dict(WTC_OK, power=" 2 "))])
        assert (code, out) == (2, "")
        assert err == "error: power must be a positive finite number, got ' 2 '\n"

    def test_an_int_past_the_largest_double_is_refused_by_its_check(self, tmp_path):
        # it exited 2 with OverflowError's "int too large to convert to float"
        code, out, err = _run(["secrecy", write(tmp_path, "s.json", dict(WTC_OK, power=10**400))])
        assert (code, out) == (2, "")
        assert err == f"error: power must be a positive finite number, got {10**400!r}\n"


# (argv before the scenario path, scenario) pairs that the fuzz test mutates
FUZZ_BASES = [
    (["classify"], BC_OK),
    (["classify"], IC_STRONG_BAD),
    (["classify"], WTC_OK),
    (["classify"], MARKOV_EX3),
    (["region"], IC_POINT_MASS_STRONG),
    (["region"], IC_STRONG_BAD),
    (["secrecy"], WTC_OK),
    (["secrecy", "--force"], dict(WTC_OK, legitimate=WTC_OK["eavesdropper"],
                                  eavesdropper=WTC_OK["legitimate"])),
    (["coupling-sample", "-n", "20"], PAIR),
    (["markov-check"], MARKOV_EX3),
    (["markov-check"], MARKOV_EX4),
]

# what a mutated node becomes: swapped types, a null, or itself nested once more
REPLACEMENTS = [None, "x", "", 0, 3, -1.5, 1e300, True, [], {},
                lambda v: [v], lambda v: {"value": v}]


def _paths(node, prefix=()):
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_scenarios(draw):
    argv, scenario = draw(st.sampled_from(FUZZ_BASES))
    scenario = json.loads(json.dumps(scenario))
    for _ in range(draw(st.sampled_from([1, 1, 2, 3]))):
        paths = list(_paths(scenario))
        # the root goes last, where sampled_from draws least often
        path = draw(st.sampled_from(paths[1:] + paths[:1]))
        if not path:
            scenario = draw(st.sampled_from([None, 3, "x", [scenario], {"x": scenario}]))
            continue
        parent = scenario
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):  # drop the field or entry
            del parent[path[-1]]
        else:
            new = draw(st.sampled_from(REPLACEMENTS))
            parent[path[-1]] = new(parent[path[-1]]) if callable(new) else new
    return argv, scenario


def _negative_verdict(out: str) -> bool:
    """Whether stdout is a JSON report whose verdict is negative."""
    try:
        payload = json.loads(out)
    except ValueError:
        return False
    if isinstance(payload, dict) and "classification" in payload:
        payload = payload["classification"]
    return isinstance(payload, dict) and payload.get("verdict") is False


class TestExitCodeContract:
    @settings(max_examples=150, deadline=None)
    @given(case=mutated_scenarios())
    def test_mutated_scenarios_keep_the_exit_code_contract(self, tmp_path_factory, case):
        argv, scenario = case
        path = tmp_path_factory.mktemp("fuzz") / "s.json"
        path.write_text(json.dumps(scenario))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + [str(path)])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        assert "Traceback" not in out + err
        if code == 1:
            assert _negative_verdict(out) or "does not satisfy" in err, (out, err)
        if code == 2:
            assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.parametrize("command, scenario", DEGENERATE_INPUTS)
    def test_degenerate_input_exits_two_without_traceback(self, tmp_path, capsys, command,
                                                          scenario):
        path = write(tmp_path, "s.json", scenario) if scenario is not None else ""
        try:
            code = main(command.format(scenario=path).split())
        except SystemExit as exc:  # argparse rejects the flag
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "error:" in err and "Traceback" not in err

    def test_a_scenario_file_that_is_not_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text('{"topology": "bc",')
        code = main(["classify", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "is not valid JSON" in err and err.count("\n") == 1
