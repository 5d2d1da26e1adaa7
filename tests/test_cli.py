import json

import numpy as np
import pytest

from gainorder.cli import main

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


class TestExitCodeContract:
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
