import json
import math
import re
import time

import numpy as np
import pytest

from mastat import cli, dist
from conftest import grid_miss_pair, random_dist, random_measure, same_bytes


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    mids = dist.discretize_uniform(-0.6, 0.4, 0.01)
    return {
        "X": write("X.json", {"support": [0, 1], "probs": [2 / 3, 1 / 3]}),
        "Y": write(
            "Y.json",
            {"support": mids.support.tolist(), "probs": mids.probs.tolist()},
        ),
        "Z": write("Z.json", {"support": [-0.2, 0.2], "probs": [0.5, 0.5]}),
        "m0": write("m0.json", {"atoms": [{"a": 0, "w": 1.0}]}),
        "m2": write("m2.json", {"atoms": [{"a": 2, "w": 1.0}]}),
        "m13": write(
            "m13.json", {"atoms": [{"a": 1, "w": 0.25}, {"a": 3, "w": 0.75}]}
        ),
        "mneg": write(
            "mneg.json",
            {"atoms": [{"a": -1, "w": 0.5}, {"a": "-inf", "w": 0.5}]},
        ),
        "agents": write("agents.json", {"rates": [1.0, 3.0], "weights": [0.5, 0.5]}),
        "bad": write("bad.json", {"support": [0, 1]}),
        "tmp": tmp_path,
    }


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


class TestVerdictsAndCodes:
    def test_dominance_negative_verdict(self, capsys, files):
        code, obj = run_json(capsys, ["dominance", files["X"], files["Y"]])
        assert code == 1 and not obj["dominates"]
        assert 0.0 <= obj["witness"] < 0.4

    def test_catalyst_verified(self, capsys, files):
        code, obj = run_json(capsys, ["catalyst", files["X"], files["Y"]])
        assert code == 0 and obj["verified"]
        assert obj["worst_gap"] >= -1e-12
        # round trip of the inline catalyst distribution
        z = dist.make(obj["catalyst"]["support"], obj["catalyst"]["probs"])
        assert z.n_atoms == len(obj["catalyst"]["support"])

    def test_catalyst_tiny_top_mass(self, capsys, files):
        # used to exit 1: "could not find a band with positive cdf gap"
        path = {}
        for name, obj in (("x", {"support": [0, 1], "probs": [1 - 1e-18, 1e-18]}),
                          ("y", {"support": [-0.5, 0.05], "probs": [0.99, 0.01]})):
            path[name] = files["tmp"] / f"tiny-top-{name}.json"
            path[name].write_text(json.dumps(obj))
        code, obj = run_json(capsys, ["catalyst", str(path["x"]), str(path["y"])])
        assert code == 0 and obj["verified"] and obj["params"]["delta"] == 1e-18

    def test_catalyst_no_hypothesis(self, capsys, files):
        code = cli.run(["catalyst", files["X"], files["X"]])
        assert code == 1

    def test_catalyst_dip_between_grid_points(self, capsys, files):
        # the K gap clears the margin at every grid point but not between;
        # both orders used to print a verified certificate and exit 0
        x, y = grid_miss_pair()
        path = {}
        for name, d in (("x", x), ("y", y), ("-x", dist.negate(x)), ("-y", dist.negate(y))):
            path[name] = files["tmp"] / f"grid-miss{name}.json"
            path[name].write_text(json.dumps(cli.dist_to_dict(d)))
        for order, d1, d2 in (("1", "x", "y"), ("2", "-y", "-x")):
            argv = ["catalyst", str(path[d1]), str(path[d2]), "--order", order]
            assert cli.run(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and "witness a =" in captured.err

    def test_phi_mean(self, capsys, files):
        code, obj = run_json(
            capsys, ["phi", "--measure", files["m0"], "--dist", files["X"]]
        )
        assert code == 0
        assert obj["value"] == pytest.approx(1 / 3, abs=1e-12)

    def test_classify_risk(self, capsys, files):
        code, obj = run_json(capsys, ["classify", "--measure", files["mneg"]])
        assert code == 0 and obj["risk"] == "averse"

    def test_classify_betweenness_negative(self, capsys, files):
        code, obj = run_json(
            capsys,
            ["classify", "--measure", files["m13"], "--kind", "betweenness"],
        )
        assert code == 1 and not obj["satisfies"]

    @pytest.mark.parametrize("atoms, reason", [
        ([{"a": "inf", "w": 1.0}], "point mass at an infinite index"),
        ([{"a": "-inf", "w": 1.0}], "point mass at an infinite index"),
        ([{"a": "-inf", "w": 0.5}, {"a": 1.0, "w": 0.5}], "one atom is infinite"),
    ])
    def test_classify_betweenness_infinite_atoms(self, capsys, files, atoms, reason):
        path = files["tmp"] / "inf.json"
        path.write_text(json.dumps({"atoms": atoms}))
        code, obj = run_json(capsys, ["classify", "--measure", str(path), "--kind", "betweenness"])
        assert code == 1
        assert obj["betweenness"] == "not_betweenness" and not obj["satisfies"]
        assert reason in obj["reason"]

    def test_compare(self, capsys, files):
        code, obj = run_json(capsys, ["compare", files["m2"], files["m13"]])
        assert code == 0 and obj == {"order": "le", "witness": None}

    @pytest.mark.parametrize("atoms1, atoms2, code, out", [
        # read le (exit 0) while the +-1e-6 stand-ins took the limits b -> 0+-
        ([[1e-7, 1.0]], [[0, 0.5], ["inf", 0.5]], 1, {"order": "incomparable", "witness": 0.0}),
        ([[0, 0.5 - 1e-9], [1, 0.5 + 1e-9]], [[0, 0.5], [2, 0.5]], 1,
         {"order": "incomparable", "witness": 0.0}),
        # w/a of the subnormal atom overflowed the doubles with a warning
        ([[1e-310, 0.5], [1, 0.5]], [[1, 1.0]], 0, {"order": "le", "witness": None}),
    ], ids=["delta-1e-7", "weight-1e-9", "subnormal-atom"])
    def test_compare_small_indices(self, capsys, files, atoms1, atoms2, code, out):
        paths = []
        for name, atoms in (("mu1", atoms1), ("mu2", atoms2)):
            paths.append(files["tmp"] / f"{name}.json")
            paths[-1].write_text(json.dumps({"atoms": [{"a": a, "w": w} for a, w in atoms]}))
        assert run_json(capsys, ["compare", *map(str, paths)]) == (code, out)

    def test_large_n(self, capsys, files):
        code, obj = run_json(
            capsys, ["large-n", files["X"], files["Y"], "--n-max", "8"]
        )
        assert code == 0 and obj["n"] >= 1

    @pytest.mark.parametrize("pair", ["tied ends at 1e6", "certified ends"])
    def test_large_n_none(self, capsys, tmp_path, pair):
        # the n-fold loop raised on both: a cluster mean past the next atom
        # at the 30-fold sum of the first, SupportBlowup at n = 4 of the second
        if pair == "tied ends at 1e6":
            support = [-966944.7, 626540.5, 825511.2]
            laws = [(support, [0.3, 0.2, 0.5]), (support, [0.25, 0.25, 0.5])]
        else:
            rng = np.random.default_rng(9)
            y = dist.make(rng.uniform(-1.0, 1.0, 60), rng.dirichlet(np.ones(60)))
            x_support = [y.support[0] - 0.5, *y.support[1:]]
            laws = [(x_support, y.probs), (y.support, y.probs)]
        paths = []
        for name, (support, probs) in zip("xy", laws):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps({"support": list(support), "probs": list(probs)}))
        code, obj = run_json(capsys, ["large-n", *map(str, paths)])
        assert code == 1 and obj == {"n": None}

    def test_aggregate(self, capsys, files):
        code, obj = run_json(capsys, ["aggregate", files["agents"]])
        assert code == 0 and obj["rate"] == 1.5
        assert obj["statistic"]["atoms"][0]["a"] == -3.0

    def test_indiff_pair(self, capsys, files):
        code, obj = run_json(
            capsys,
            ["indiff-pair", "--rates", f"{math.log(2)}", "--c", "0.75"],
        )
        assert code == 0
        assert obj["eta"] == pytest.approx(0.5)
        assert obj["T"]["probs"] == pytest.approx([0.5, 0.5])

    def test_indiff_pair_infeasible_is_input_error(self, files):
        assert cli.run(["indiff-pair", "--rates", "0.69", "--c", "0.1"]) == 2

    def test_time_value(self, capsys, files):
        code, obj = run_json(
            capsys,
            [
                "time-value",
                "--x",
                "2.0",
                "--dist",
                files["X"],
                "--rate",
                "1.0",
                "--measure",
                files["m0"],
            ],
        )
        assert code == 0
        assert obj["value"] == pytest.approx(2.0 * math.exp(-1 / 3), rel=1e-12)

    def test_violation_search_found_and_not(self, capsys, files):
        code, obj = run_json(
            capsys,
            ["violation-search", "--pref1", "median", "--pref2", "median"],
        )
        assert code == 0 and obj["found"]
        code2, obj2 = run_json(
            capsys,
            [
                "violation-search",
                "--pref1",
                f"mas:{files['m13']}",
                "--pref2",
                f"mas:{files['m13']}",
                "--values=-1,0,1",
            ],
        )
        assert code2 == 1 and not obj2["found"]

    def test_input_errors(self, files):
        assert cli.run(["phi", "--measure", files["m0"], "--dist", files["bad"]]) == 2
        assert cli.run(["phi", "--measure", files["m0"], "--dist", "/nope.json"]) == 2
        assert cli.run(["dominance", files["X"]]) == 2  # missing argument
        assert cli.run(["dominance", files["X"], files["Y"], "--tol", "-1"]) == 2

    def test_prob_step_past_the_support_cap(self, capsys):
        # 1e-300 divides 1, and the grid walk used to loop up to 10^300
        argv = ["violation-search", "--pref1", "median", "--pref2", "median",
                "--values=0,1", "--prob-step", "1e-300"]
        start = time.monotonic()
        assert cli.run(argv) == 2
        assert time.monotonic() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err == "error: 1 / prob_step must be at most 1048576\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["kprofile", "--dist", "X", "--n-grid", "2"],
        ["dominance", "X", "Y", "--tol", "-1"],
        ["catalyst", "X", "Y", "--margin", "-1"],
        ["large-n", "X", "Y", "--n-max", "0"],
        ["violation-search", "--pref1", "median", "--pref2", "median", "--budget", "0"],
        ["violation-search", "--pref1", "median", "--pref2", "median", "--prob-step", "0"],
        ["violation-search", "--pref1", "median", "--pref2", "median", "--prob-step", "1.5"],
        ["violation-search", "--pref1", "median", "--pref2", "median", "--max-points", "0"],
        ["selftest", "--seed", "-1"],  # used to end in a ValueError traceback
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}")
    def test_option_out_of_range_is_input_error(self, capsys, files, argv):
        argv = [files.get(arg, arg) for arg in argv]
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {argv[-2]} out of range") and captured.out == ""

    @pytest.mark.parametrize("argv, flag", [
        (["compare", "", "m13"], "measure1"),
        (["cdf-csv", "X", "Y", "--add="], "--add"),  # used to add no catalyst
        (["kprofile", "--dist", "X", "--out="], "--out"),  # used to write to stdout
        (["phi", "--measure=", "--dist", "X"], "--measure"),
        (["dominance", "", "Y"], "dist1"),
        # an empty path inside a spec used to read as the file ''
        (["violation-search", "--pref1", "mas:", "--pref2", "median"], "--pref1"),
        (["violation-search", "--pref1", "median", "--pref2", "mas:"], "--pref2"),
        (["time-value", "--x", "1", "--dist", "X", "--rate", "0.1", "--measure", "m0",
          "--utility", "table:"], "--utility"),
    ], ids=[f"argv{i}" for i in range(8)])
    def test_empty_option_value_is_input_error(self, capsys, files, argv, flag):
        assert cli.run([files.get(arg, arg) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag}") and captured.out == ""

    @pytest.mark.parametrize("cmd, where", [("phi", "missing"), ("kprofile", "directory")])
    def test_unwritable_out_is_input_error(self, capsys, files, cmd, where):
        # used to end in a FileNotFoundError or IsADirectoryError traceback
        out = files["tmp"] / "missing" / "x.json" if where == "missing" else files["tmp"]
        argv = {
            "phi": ["phi", "--measure", files["m0"], "--dist", files["X"]],
            "kprofile": ["kprofile", "--dist", files["X"]],
        }[cmd]
        assert cli.run(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {out}: ") and captured.out == ""

    def test_dominance_nan_prob_is_input_error(self, files):
        path = files["tmp"] / "nan.json"
        path.write_text(json.dumps({"support": [0, 1], "probs": [math.nan, 1.0]}))
        assert "NaN" in path.read_text()
        assert cli.run(["dominance", str(path), files["Y"]]) == 2

    @pytest.mark.parametrize(
        "cmd, flag, obj",
        [
            ("phi", "--measure", {"atoms": [1.0]}),
            ("phi", "--measure", {"atoms": 3}),
            ("phi", "--measure", {"atoms": [{"a": 1.0, "w": "x"}]}),
            ("kprofile", "--dist", {"support": ["a", 1], "probs": [0.5, 0.5]}),
            ("kprofile", "--dist", {"support": [0, 1], "probs": [[0.5], 0.5]}),
            ("kprofile", "--dist", {"support": 3, "probs": 1}),
            ("kprofile", "--dist", {"support": [0, True], "probs": [0.5, 0.5]}),
        ],
    )
    def test_malformed_json_is_input_error(self, capsys, files, cmd, flag, obj):
        path = files["tmp"] / "malformed.json"
        path.write_text(json.dumps(obj))
        argv = [cmd, flag, str(path)]
        if cmd == "phi":
            argv += ["--dist", files["X"]]
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def _time_value(self, files, utility):
        return cli.run(["time-value", "--x", "2.0", "--dist", files["X"], "--rate", "1.0",
                        "--measure", files["m0"], "--utility", utility])

    def test_scalar_dist_fields_are_input_error(self, capsys, files):
        # used to load as the one-atom law FiniteDist(3:1) and exit 0
        path = files["tmp"] / "scalar.json"
        path.write_text(json.dumps({"support": 3, "probs": 1}))
        assert cli.run(["dominance", str(path), files["X"]]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("x, rate, utility", [
        ("2", "inf", "identity"),  # exp(-inf * K) is nan where K = 0
        ("inf", "1", "identity"),  # inf times a vanishing discount is nan
        ("1e6", "1", "power:400"),  # used to end in an OverflowError traceback
        ("2", "1", "power:inf"),
    ])
    def test_time_value_non_finite_is_input_error(self, capsys, files, x, rate, utility):
        argv = ["time-value", "--x", x, "--dist", files["X"], "--rate", rate,
                "--measure", files["m0"], "--utility", utility]
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_table_point_without_u_is_input_error(self, capsys, files):
        path = files["tmp"] / "table.json"
        path.write_text(json.dumps({"points": [{"x": 1.0, "u": 1.0}, {"x": 3.0}]}))
        assert self._time_value(files, f"table:{path}") == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_table_without_points_is_input_error(self, capsys, files):
        path = files["tmp"] / "table.json"
        path.write_text(json.dumps({"pts": [{"x": 1.0, "u": 1.0}]}))
        assert self._time_value(files, f"table:{path}") == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_table_utility_still_loads(self, capsys, files):
        path = files["tmp"] / "table.json"
        path.write_text(json.dumps({"points": [{"x": 0.5, "u": 1}, {"x": 4, "u": 2.0}]}))
        assert self._time_value(files, f"table:{path}") == 0

    def test_power_utility_not_a_number_is_input_error(self, capsys, files):
        assert self._time_value(files, "power:abc") == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv, code, err", [
        (["time-value", "--utility", "power:1,2"], 2, "error: power exponent must be a number"),
        (["time-value", "--utility", "log"], 0, ""),
        (["time-value", "--utility", "cubic"], 2, "error: unknown utility spec 'cubic'"),
        (["violation-search", "--pref1", "foo", "--pref2", "median"], 2,
         "error: unknown preference spec 'foo'"),
    ], ids=["power-list", "log", "cubic", "pref-foo"])
    def test_spec_names(self, capsys, files, argv, code, err):
        if argv[0] == "time-value":
            argv += ["--x", "2.0", "--dist", files["X"], "--rate", "1.0", "--measure", files["m0"]]
        assert cli.run(argv) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(err) and (captured.out == "") == (code == 2)

    def test_mean_variance_not_a_number_is_input_error(self, capsys):
        argv = ["violation-search", "--pref1", "mean-variance:abc", "--pref2", "median"]
        assert cli.run(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_values_not_numbers_is_input_error(self, capsys):
        argv = ["violation-search", "--pref1", "median", "--pref2", "median", "--values", "0,x"]
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    @pytest.mark.parametrize(
        "obj",
        [
            {"rates": 3, "weights": [1.0]},
            {"rates": ["x"], "weights": [1.0]},
            {"rates": [1.0], "weights": 1.0},
            {"rates": [1.0], "weights": [None]},
            [1.0, 1.0],
            {"rates": [1, 2], "weights": [math.nan, 1.0]},
            {"rates": [math.inf], "weights": [1.0]},  # 1 / (1 / inf) divided by zero
        ],
    )
    def test_malformed_aggregate_is_input_error(self, capsys, files, obj):
        path = files["tmp"] / "agents.json"
        path.write_text(json.dumps(obj))
        assert cli.run(["aggregate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    @pytest.mark.parametrize("cmd, obj", [
        ("dominance", {"support": "0,1", "probs": "0.5,0.5"}),
        ("aggregate", {"rates": "1,3", "weights": "0.5,0.5"}),
    ])
    def test_number_lists_written_as_text_are_input_error(self, capsys, files, cmd, obj):
        # a JSON string was split at its commas like an option's text, and exited 0
        path = files["tmp"] / "text.json"
        path.write_text(json.dumps(obj))
        argv = [cmd, str(path)] + ([files["X"]] if cmd == "dominance" else [])
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_indiff_pair_singular_matrix_is_error(self, capsys):
        # exp(-1e-300 j) rounds to 1, so the Vandermonde matrix is singular;
        # it used to end in an uncaught LinAlgError traceback
        assert cli.run(["indiff-pair", "--rates", "1e-300,1", "--c", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_budget_exhaustion_exit_code(self, files, monkeypatch):
        import mastat.dominance as dominance_mod

        monkeypatch.setattr(dominance_mod, "_Z_ATOMS", (9,))
        monkeypatch.setattr(dominance_mod, "_V_DOUBLINGS", 0)
        assert cli.run(["catalyst", files["X"], files["Y"]]) == 3


#: every subcommand and the flags and arguments its --help names
SURFACE = {
    "phi": "--measure --dist",
    "kprofile": "--dist --n-grid",
    "classify": "--measure --kind",
    "compare": "measure1 measure2",
    "dominance": "dist1 dist2 --order --tol",
    "catalyst": "dist1 dist2 --order --margin",
    "large-n": "dist1 dist2 --n-max",
    "aggregate": "profile",
    "indiff-pair": "--rates --c",
    "time-value": "--x --dist --utility --rate --measure",
    "violation-search": "--pref1 --pref2 --values --prob-step --max-points --budget",
    "cdf-csv": "dist1 dist2 --add",
    "selftest": "--seed",
}


def test_surface_is_the_command_table():
    assert SURFACE == {
        name: " ".join(flag for flag, *_ in options)
        for name, (_, options) in cli._COMMANDS.items()
    }


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_help_names_every_flag(capsys, command):
    assert cli.run([command, "--help"]) == 0
    out = capsys.readouterr().out
    for flag in SURFACE[command].split() + ["--out"]:
        assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", out), flag


class TestCsvOutputs:
    def test_kprofile_sentinels(self, capsys, files):
        code = cli.run(["kprofile", "--dist", files["X"], "--n-grid", "11"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0 and out[0] == "a,K"
        assert out[1].startswith("-inf,")
        assert out[-1].startswith("+inf,")
        assert len(out) == 1 + 11 + 2

    def test_kprofile_grid_past_the_cap_is_input_error(self, capsys, files):
        # used to exit 1 with a numpy ValueError traceback
        code = cli.run(["kprofile", "--dist", files["X"], "--n-grid", "100000000000000000000"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: n_grid must be at least 3 and at most")

    def test_kprofile_extreme_scale_has_mean_at_zero(self, capsys, files):
        # the variance overflows to inf; K_0 used to print as nan
        path = files["tmp"] / "wide.json"
        path.write_text(json.dumps({"support": [-1e200, 1e200], "probs": [0.5, 0.5]}))
        code = cli.run(["kprofile", "--dist", str(path), "--n-grid", "5"])
        out = capsys.readouterr().out
        assert code == 0 and "nan" not in out
        assert "0.0,0.0" in out.splitlines()

    def test_kprofile_span_past_the_largest_double(self, capsys, files):
        # 1e308 - (-1e308) overflows a double; under the suite's
        # error::RuntimeWarning filter a numpy warning fails this test
        path = files["tmp"] / "widest.json"
        path.write_text(json.dumps({"support": [-1e308, 1e308], "probs": [0.5, 0.5]}))
        code = cli.run(["kprofile", "--dist", str(path), "--n-grid", "5"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0 and "0.0,0.0" in out
        assert out[1] == "-inf,-1e+308" and out[-1] == "+inf,1e+308"

    def test_kprofile_index_times_scale_past_the_largest_double(self, capsys, files):
        # |a| * 1.7e308 overflows for |a| > 1.06 on the default grid;
        # under the suite's error::RuntimeWarning filter a numpy warning
        # fails this test
        path = files["tmp"] / "largest.json"
        path.write_text(json.dumps({"support": [-1.7e308, 1.7e308], "probs": [0.3, 0.7]}))
        code = cli.run(["kprofile", "--dist", str(path)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0 and len(out) == 1 + 201 + 2
        assert out[1] == "-inf,-1.7e+308" and out[-1] == "+inf,1.7e+308"
        assert out[-2] == "64.29341277923464,1.7e+308"

    def test_cdf_csv(self, capsys, files):
        code = cli.run(["cdf-csv", files["X"], files["Y"], "--add", files["Z"]])
        out = capsys.readouterr().out.splitlines()
        assert code == 0 and out[0] == "x,F,G"
        xs = [float(line.split(",")[0]) for line in out[1:]]
        assert xs == sorted(xs)
        fs = [float(line.split(",")[1]) for line in out[1:]]
        assert fs[-1] == pytest.approx(1.0, abs=1e-12)

    def test_cdf_csv_sum_past_the_largest_double_is_input_error(self, capsys, files):
        # it printed a -inf row and exited 0, with an overflow warning
        wide = files["tmp"] / "wide.json"
        wide.write_text(json.dumps({"support": [-1e308, 0.0], "probs": [0.5, 0.5]}))
        code = cli.run(["cdf-csv", str(wide), str(wide), "--add", str(wide)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: sums of support points must be finite doubles\n"

    def test_cdf_csv_gap_past_the_largest_double(self, capsys, files):
        # finite sums whose adjacent gap overflowed in the merge: an overflow
        # warning, and exit 1 where warnings are errors
        x, z = files["tmp"] / "x_wide.json", files["tmp"] / "z_wide.json"
        x.write_text(json.dumps({"support": [-1e308, 9e307, 1e308], "probs": [0.2, 0.3, 0.5]}))
        z.write_text(json.dumps({"support": [0.0, 1e300], "probs": [0.5, 0.5]}))
        code = cli.run(["cdf-csv", str(x), str(x), "--add", str(z)])
        out = capsys.readouterr().out.splitlines()
        assert code == 0 and len(out) == 7 and out[-1] == "1.00000001e+308,1.0,1.0"


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys, files):
        argv = ["catalyst", files["X"], files["Y"]]
        cli.run(argv)
        first = capsys.readouterr().out
        cli.run(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_selftest_deterministic(self, capsys):
        assert cli.run(["selftest", "--seed", "0"]) == 0
        first = capsys.readouterr().out
        assert cli.run(["selftest", "--seed", "0"]) == 0
        assert capsys.readouterr().out == first
        assert "checks passed" in first

    def test_selftest_draws_the_suite_laws(self, monkeypatch):
        # the additivity check draws, for every seed, the laws and measures
        # that conftest's random_dist and random_measure draw at their defaults
        for seed in range(100):
            drawn = []
            monkeypatch.setattr(cli.mas, "evaluate", lambda mu, d: drawn.append((mu, d)) or 0.0)
            (check,) = (fn for name, fn in cli._selftest_checks(seed) if name == "additivity")
            check()
            monkeypatch.undo()
            rng = np.random.default_rng(seed)
            for mu_sum, (mu1, d1), (mu2, d2) in zip(*[iter(drawn)] * 3):
                want = random_dist(rng), random_dist(rng), random_measure(rng)
                assert mu_sum[0] is mu1 is mu2
                assert same_bytes(d1, want[0]) and same_bytes(d2, want[1])
                for field in ("locations", "weights"):
                    assert getattr(mu1, field).tobytes() == getattr(want[2], field).tobytes()
            assert len(drawn) == 150

    def test_selftest_failure_report(self, capsys, monkeypatch):
        real = cli._selftest_checks

        def fail():
            raise AssertionError

        monkeypatch.setattr(cli, "_selftest_checks", lambda seed: [
            (name, fail if name == "additivity" else fn) for name, fn in real(seed)
        ])
        assert cli.run(["selftest"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "FAIL additivity" in lines and lines.count("FAIL additivity") == 1
        assert sum(line.startswith("ok   ") for line in lines) == 6
        assert lines[-1] == "FAIL: 6/7 checks passed"

    def test_out_file_round_trip(self, files, capsys):
        out = str(files["tmp"] / "cert.json")
        assert cli.run(["catalyst", files["X"], files["Y"], "--out", out]) == 0
        with open(out) as fh:
            obj = json.load(fh)
        z1 = dist.make(obj["catalyst"]["support"], obj["catalyst"]["probs"])
        # numbers survive the round trip without loss beyond 1e-15
        obj2 = json.loads(json.dumps(cli.dist_to_dict(z1)))
        assert np.allclose(obj2["support"], z1.support, rtol=0, atol=0)
        assert np.allclose(obj2["probs"], z1.probs, rtol=1e-15, atol=0)
