"""Command-line surface: golden reports, schema conformance, exit codes."""

import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import zecap.alpha
import zecap.cli
from zecap.cli import build_parser, graph_json, main, parse_graph, run
from zecap.decide import LOCATE_MAX_RESOLUTION, SQUEEZE_MAX_EXPONENT
from zecap.graphs import INDEX_MAX_VERTICES, complement
from zecap import spectrum
from zecap import (
    ConvergenceError,
    InputError,
    IndependentSetWitness,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    encode,
    lovasz_theta,
    strong_power,
    strong_product,
)

GOLDEN = Path(__file__).parent / "golden"
BIG = "1" * 5000  # past Python's 4,300-digit int-to-str limit

PENTAGON_CSV = (
    "1/2,1/2,0,0,0\n"
    "0,1/2,1/2,0,0\n"
    "0,0,1/2,1/2,0\n"
    "0,0,0,1/2,1/2\n"
    "1/2,0,0,0,1/2\n"
)
PENTAGON_JSON = json.dumps(
    {
        "x_size": 5,
        "y_size": 5,
        "rows": [
            ["1/2", "1/2", "0", "0", "0"],
            ["0", "1/2", "1/2", "0", "0"],
            ["0", "0", "1/2", "1/2", "0"],
            ["0", "0", "0", "1/2", "1/2"],
            ["1/2", "0", "0", "0", "1/2"],
        ],
    }
)


@pytest.fixture(scope="module")
def schema():
    ref = resources.files("zecap") / "schema" / "report.schema.json"
    return json.loads(ref.read_text())


@pytest.fixture
def pentagon_csv_file(tmp_path):
    path = tmp_path / "pentagon.csv"
    path.write_text(PENTAGON_CSV)
    return str(path)


@pytest.fixture
def pentagon_json_file(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(PENTAGON_JSON)
    return str(path)


class TestGolden:
    def run_against(self, name: str, argv: list[str], expect_code: int = 0):
        code, report = run(argv)
        assert code == expect_code
        report["wall_time_s"] = 0.0
        if report["command"] == "capacity":
            report["inputs"]["channel"] = Path(report["inputs"]["channel"]).name
        expected = json.loads((GOLDEN / name).read_text())
        assert report == expected

    def test_decode(self):
        self.run_against("decode2.json", ["decode", "2"])

    def test_bounds(self):
        self.run_against(
            "bounds_c5.json", ["bounds", "--graph", "C5", "--m", "1", "--tol", "1e-4"]
        )

    def test_decide(self):
        self.run_against(
            "decide_c5.json",
            ["decide-gt", "--graph", "C5", "--lambda", "2", "--budget", "100"],
        )

    def test_decide_exhausted(self):
        # 36 steps are 8 stages: levels 2-6 stall on the vertex budget and
        # level 7, stepped last, on the level cap
        self.run_against(
            "decide_c5_exhausted.json",
            ["decide-gt", "--graph", "C5", "--lambda", "sqrt(5)", "--budget", "36"],
            expect_code=3,
        )

    def test_enumerate(self):
        self.run_against(
            "enumerate_3_2.json",
            ["enumerate", "--lambda", "3/2", "--horizon", "10", "--stages", "12"],
        )

    def test_squeeze(self):
        self.run_against("squeeze_c5.json", ["squeeze", "--graph", "C5", "--K", "8"])

    def test_squeeze_round_budget(self):
        self.run_against(
            "squeeze_s_c5_budget.json",
            ["squeeze", "--graph", "S+C5", "--K", "4", "--budget", "15"],
            expect_code=3,
        )

    def test_locate(self):
        self.run_against("locate_s_c5.json", ["locate", "--graph", "S+C5", "--M", "3"])

    def test_bounds_partial_ladder(self):
        self.run_against(
            "bounds_c5_power_cap.json",
            ["bounds", "--graph", "C5", "--m", "3", "--power-cap", "100"],
            expect_code=3,
        )

    def test_capacity(self, pentagon_csv_file):
        self.run_against("capacity_pentagon.json", ["capacity", "--channel", pentagon_csv_file])


class TestSchemaConformance:
    def run_valid(self, schema, argv, expect_code=0):
        code, report = run(argv)
        assert code == expect_code, report
        jsonschema.validate(report, schema)
        json.dumps(report)  # everything must serialize
        return report

    def test_encode(self, schema):
        r = self.run_valid(schema, ["encode", "C5"])
        assert r["results"]["index"] == 689

    def test_decode(self, schema):
        r = self.run_valid(schema, ["decode", "689"])
        assert r["results"]["graph"]["vertices"] == 5

    def test_alpha(self, schema):
        r = self.run_valid(schema, ["alpha", "--graph", "C5^2"])
        assert r["results"]["alpha"] == 5

    def test_ladder(self, schema):
        r = self.run_valid(schema, ["ladder", "--graph", "C5", "--m", "1"])
        assert [lv["alpha"] for lv in r["results"]["levels"]] == [2, 5]

    def test_bounds(self, schema):
        r = self.run_valid(schema, ["bounds", "--graph", "K3"])
        assert r["results"]["lower"] == "1/1" and r["results"]["upper"] == "1/1"

    def test_theta_sdp(self, schema):
        r = self.run_valid(schema, ["theta-sdp", "--graph", "C5", "--tol", "1/1000"])
        assert r["results"]["hi_decimal"].startswith("2.236")

    def test_chif(self, schema):
        r = self.run_valid(schema, ["chif", "--graph", "C5"])
        assert r["results"]["value"] == "5/2"

    def test_decide_gt(self, schema):
        r = self.run_valid(
            schema, ["decide-gt", "--graph", "E3", "--lambda", "2", "--budget", "50"]
        )
        assert r["results"]["status"] == "Halted"

    def test_enumerate(self, schema):
        r = self.run_valid(
            schema,
            ["enumerate", "--lambda", "3/2", "--horizon", "10", "--stages", "12"],
        )
        assert [e["graph_index"] for e in r["results"]["emitted"]] == [4, 2, 5, 6, 7, 8, 9]
        assert r["results"]["pending_slots"] == [1, 2, 4]

    def test_preorder(self, schema):
        r = self.run_valid(schema, ["preorder", "C5", "E3"])
        assert r["results"]["established"] is True

    def test_asym_preorder(self, schema):
        r = self.run_valid(
            schema, ["asym-preorder", "C5", "C5", "--m", "1", "--budget", "4"]
        )
        assert r["results"]["status"] == "Established"
        assert (r["results"]["n"], r["results"]["k"]) == (1, 0)

    def test_channel_graph(self, schema, pentagon_csv_file):
        r = self.run_valid(schema, ["channel-graph", "--channel", pentagon_csv_file])
        assert r["results"]["graph"]["index"] == 689

    def test_capacity(self, schema, pentagon_json_file):
        r = self.run_valid(schema, ["capacity", "--channel", pentagon_json_file])
        assert r["results"]["log2_scale"]["lower"] == pytest.approx(1.1609, abs=1e-3)

    def test_locate(self, schema):
        r = self.run_valid(schema, ["locate", "--graph", "C5", "--M", "3"])
        assert r["results"]["cells"] == [17]
        assert r["results"]["singleton"] is True
        assert r["results"]["cell_intervals"] == [["17/8", "9/4"]]  # reduced form

    def test_squeeze(self, schema):
        r = self.run_valid(schema, ["squeeze", "--graph", "C5", "--K", "8"])
        assert r["results"]["status"] == "Value"

    def test_error_reports_also_conform(self, schema):
        code, report = run(["encode", "Q5"])
        assert code == 2
        jsonschema.validate(report, schema)
        assert report["results"]["kind"] == "input"

    def test_command_enum_matches_the_command_table(self, schema):
        assert schema["properties"]["command"]["enum"] == list(zecap.cli._COMMANDS)

    def test_every_dest_is_reported_in_its_class(self, monkeypatch):
        # command: (arguments, keys under inputs, keys under budgets), as
        # recorded before the handler adds its parsed forms; --csv is neither
        table = {
            "encode": ("C5", "expression", ""),
            "decode": ("2", "index", ""),
            "alpha": ("--graph C5", "expression", "node_budget"),
            "ladder": ("--graph C5 --csv x", "expression m_max", "node_budget power_cap"),
            "bounds": ("--graph C5 --csv x", "expression m_max tol", "node_budget power_cap"),
            "theta-sdp": ("--graph C5", "expression tol", ""),
            "chif": ("--graph C5", "expression", ""),
            "decide-gt": ("--graph C5 --lambda 2", "expression lambda",
                          "step_budget node_budget power_cap"),
            "enumerate": ("--lambda 2 --horizon 1 --stages 1", "lambda horizon stages",
                          "power_cap node_budget"),
            "preorder": ("C5 C7", "left_expression right_expression", "max_vertices node_budget"),
            "asym-preorder": ("C5 C7 --m 1", "left_expression right_expression m",
                              "search_budget power_cap node_budget"),
            "channel-graph": ("--channel x", "channel", ""),
            "capacity": ("--channel x", "channel m_max tol", "node_budget power_cap"),
            "locate": ("--graph C5 --M 1", "expression M tol", "node_budget"),
            "squeeze": ("--graph C5 --K 1", "expression K", "round_budget node_budget power_cap"),
        }
        assert list(table) == list(zecap.cli._COMMANDS)
        for name, (arguments, inputs, budgets) in table.items():
            command = zecap.cli._COMMANDS[name]
            monkeypatch.setitem(
                zecap.cli._COMMANDS, name, command._replace(handler=lambda args, inputs: ({}, 0))
            )
            report = run([name, *arguments.split()])[1]
            assert sorted(report["inputs"]) == sorted(inputs.split()), name
            assert sorted(report["budgets"]) == sorted(budgets.split()), name


class TestExitCodes:
    def test_input_errors(self, tmp_path):
        bad_size = tmp_path / "bad.json"
        bad_size.write_text(PENTAGON_JSON.replace('"x_size": 5', '"x_size": "a"'))
        assert run(["capacity", "--channel", str(bad_size)])[0] == 2
        assert run(["alpha", "--graph", "C5", "--node-budget", "-3"])[0] == 2
        assert run(["encode", "Q5"])[0] == 2
        assert run(["decode", "-1"])[0] == 2
        assert run(["locate", "--graph", "E3", "--M", "1"])[0] == 2
        assert run(["bounds", "--graph", "C5", "--tol", "0"])[0] == 2
        assert run(["theta-sdp", "--graph", "C5", "--tol", "nope"])[0] == 2
        assert run(["channel-graph", "--channel", "/does/not/exist.csv"])[0] == 2
        assert run(["decide-gt", "--graph", "C5", "--lambda", "2", "--power-cap", "-1"])[0] == 2
        assert run(["preorder", "C5", "E2", "--max-vertices", "-1"])[0] == 2

    def test_locate_resolution_past_the_maximum_is_exit_two(self):
        # not an internal error from printing a cell count of over 4,300 digits
        code, report = run(["locate", "--graph", "C5", "--M", "20000"])
        assert code == 2 and report["results"]["kind"] == "input"
        code, report = run(["locate", "--graph", "C5", "--M", str(LOCATE_MAX_RESOLUTION)])
        assert code == 3 and report["results"]["reason"] == "cell budget"

    @pytest.mark.parametrize(
        "argv",
        [
            ["alpha", "--graph", BIG],
            ["alpha", "--graph", f"C5^{BIG}"],
            ["alpha", "--graph", f"E{BIG}"],
            ["encode", "(" * 260 + "S" + ")" * 260],
            ["decide-gt", "--graph", "C5", "--lambda", f"sqrt({BIG})"],
            ["decide-gt", "--graph", "C5", "--lambda", f"1+sqrt({BIG})"],
            ["theta-sdp", "--graph", "C5", "--tol", "1e-99999"],
            ["theta-sdp", "--graph", "C5", "--tol", "1e-4300"],  # read, but 4,301 digits to print
            ["bounds", "--graph", "C5", "--tol", "1e99999"],
            ["squeeze", "--graph", "C5", "--K", "20000"],
        ],
        ids=["index", "exponent", "size", "nesting", "sqrt", "1+sqrt", "tiny-tol", "tol-digits",
             "huge-tol", "K"],
    )
    def test_oversized_input_is_exit_two(self, argv):
        # neither an unreadable number nor deep nesting ends as "internal"
        code, report = run(argv)
        assert code == 2 and report["results"]["kind"] == "input"

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["decide-gt", "--graph", "C5", "--lambda", "1e3000000"], "real expression"),
            (["theta-sdp", "--graph", "C5", "--tol", "1e-3000000"], "tolerance"),
        ],
        ids=["lambda", "tol"],
    )
    def test_long_decimal_exponent_is_refused_before_parsing(self, argv, what):
        # Fraction would first expand 10^3,000,000 in full, over a second
        start = time.perf_counter()
        code, report = run(argv)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and report["results"]["kind"] == "input"
        assert report["results"]["error"] == f"{what} {argv[-1]!r} has too many digits"

    @pytest.mark.parametrize(
        "name, text",
        [
            ("tiny.csv", "1e-3000000,1\n0,1\n"),
            ("below.csv", "1e-4300,1\n0,1\n"),
            ("long.csv", f"{'9' * 4300},{'9' * 4300}\n0,1\n"),
            # the sum's denominator 2^13000 3^8000 has 7,731 digits
            ("coprime.json", json.dumps({"x_size": 1, "y_size": 2, "rows": [[f"1/{2**13000}", f"1/{3**8000}"]]})),
        ],
        ids=["tiny", "below", "long", "coprime"],
    )
    def test_probability_past_the_digit_limit_is_exit_two(self, tmp_path, name, text):
        # neither Fraction's expansion of the exponent nor printing the
        # row's sum may end as "internal"
        path = tmp_path / name
        path.write_text(text)
        start = time.perf_counter()
        code, report = run(["channel-graph", "--channel", str(path)])
        assert time.perf_counter() - start < 0.5
        assert code == 2 and report["results"]["kind"] == "input"

    @pytest.mark.parametrize(
        "argv, env",
        [
            (["alpha", "--graph", "C5$"], {}),
            (["alpha", "--graph", "(C5 C5)"], {}),
            (["alpha", "--graph", "C5"], {"ZW_MAX_VERTICES": "abc"}),
            (["alpha", "--graph", "C5"], {"ZW_MAX_VERTICES": "0"}),
            (["alpha", "--graph", "3; 0-1,1x2"], {}),
            (["alpha", "--graph", "3; a-b"], {}),
            # a channel case names the text of its file, written beside the test
            (["channel-graph", "--channel", "[]"], {}),
            (["channel-graph", "--channel", '{"x_size":1,"y_size":1,"rows":{}}'], {}),
            (["channel-graph", "--channel", '{"x_size":1,"y_size":1,"rows":[1]}'], {}),
        ],
        ids=["stray-char", "unbalanced", "env-text", "env-zero", "bad-edge",
             "edge-names", "channel-list", "rows-object", "row-number"],
    )
    def test_malformed_input_is_one_input_report(self, monkeypatch, tmp_path, capsys, argv, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        if argv[0] == "channel-graph":
            path = tmp_path / "channel.json"
            path.write_text(argv[-1])
            argv = [*argv[:-1], str(path)]
        assert main(argv) == 2
        report = json.loads(capsys.readouterr().out)  # one JSON document, nothing more
        assert report["results"]["kind"] == "input"

    @pytest.mark.parametrize("graph", ["E2000", "K2000", "C2000", "2000;", "2000; 0-1"])
    def test_input_graph_past_the_vertex_budget_is_a_budget_stop(self, monkeypatch, graph):
        monkeypatch.setenv("ZW_MAX_VERTICES", "1000")
        code, report = run(["alpha", "--graph", graph])
        assert code == 3 and report["results"]["reason"] == "vertex budget"
        assert run(["alpha", "--graph", graph.replace("2000", "1000")])[0] == 0

    def test_readable_huge_exponent_is_a_vertex_budget_stop(self):
        code, report = run(["alpha", "--graph", "C5^" + "1" * 400])
        assert code == 3 and report["results"]["reason"] == "vertex budget"

    def test_budget_errors(self):
        code, report = run(["alpha", "--graph", "C5^2", "--node-budget", "1"])
        assert code == 3
        assert report["results"]["kind"] == "budget"
        assert run(["alpha", "--graph", "C5", "--node-budget", "0"])[0] == 3

    def test_budget_stop_keeps_its_partial_witness(self):
        code, report = run(["alpha", "--graph", "C5^3", "--node-budget", "500"])
        assert code == 3
        r = report["results"]
        assert r["reason"] == "node budget" and r["used"] > 0
        assert "alpha" not in r
        witness = IndependentSetWitness(r["partial"]["witness"], r["partial"]["size"])
        assert witness.size == 10 and witness.verify(strong_power(cycle_graph(5), 3))

    def test_input_error_report_keeps_inputs_and_budgets(self):
        code, report = run(["bounds", "--graph", "C5", "--tol", "0"])
        assert code == 2
        assert report["inputs"]["expression"] == "C5"
        assert report["inputs"]["graph"]["index"] == 689
        assert (report["inputs"]["m_max"], report["inputs"]["tol"]) == (1, "0")
        assert report["budgets"] == {"node_budget": None, "power_cap": None}

    def test_budget_error_report_keeps_inputs_and_budgets(self):
        code, report = run(["alpha", "--graph", "C5^2", "--node-budget", "1"])
        assert code == 3
        assert report["inputs"]["expression"] == "C5^2"
        assert report["inputs"]["graph"]["vertices"] == 25
        assert report["budgets"] == {"node_budget": 1}

    def test_solver_error_report_keeps_inputs_and_budgets(self, monkeypatch):
        def fail(g, tol):
            raise ConvergenceError("did not converge")

        monkeypatch.setattr(zecap.cli, "lovasz_theta", fail)
        code, report = run(["theta-sdp", "--graph", "C5", "--tol", "1/1000"])
        assert code == 4
        assert report["results"] == {"error": "did not converge", "kind": "solver", "partial": None}
        assert report["inputs"]["expression"] == "C5"
        assert report["inputs"]["graph"]["index"] == 689
        assert report["inputs"]["tol"] == "1/1000"
        assert report["budgets"] == {}  # theta-sdp takes no budget

    def test_tolerance_below_the_certifiable_width_is_a_solver_stop(self):
        # C5 as a bit string is a literal leaf, so its theta is the SDP's
        code, report = run(["theta-sdp", "--graph", "5:1001100101", "--tol", "1e-12"])
        assert code == 4
        assert report["results"]["kind"] == "solver"
        assert report["inputs"]["expression"] == "5:1001100101"
        assert report["inputs"]["graph"]["index"] == 689
        assert report["inputs"]["tol"] == "1/1000000000000"
        # the named C5 is in closed form at any tolerance
        code, report = run(["theta-sdp", "--graph", "C5", "--tol", "1e-12"])
        assert code == 0
        lo, hi = Fraction(report["results"]["lo"]), Fraction(report["results"]["hi"])
        assert lo * lo < 5 < hi * hi and hi - lo <= Fraction(1, 10**12)

    def test_solver_stop_carries_its_certified_interval(self):
        code, report = run(["theta-sdp", "--graph", "5:1001100101", "--tol", "1e-12"])
        assert code == 4
        partial = report["results"]["partial"]
        lo, hi = Fraction(partial["lo"]), Fraction(partial["hi"])
        assert lo * lo < 5 < hi * hi and hi - lo > Fraction(1, 10**12)

    @pytest.mark.parametrize(
        "argv, want, stops",
        [
            (["--m", "0"], 0, []),
            (["--tol", "1e-12", "--m", "0"], 4, ["theta"]),
            (["--tol", "1e-12", "--m", "2", "--power-cap", "100"], 3, ["theta", "ladder"]),
        ],
        ids=["no-stop", "solver", "solver-and-budget"],
    )
    def test_bounds_exit_follows_its_stops(self, argv, want, stops):
        # 3 if any budget stopped, else 4 if a solver did, else 0
        code, report = run(["bounds", "--graph", "5:1001100101", *argv])
        assert code == want
        assert [e.split(":")[0] for e in report["results"]["errors"]] == stops

    @pytest.mark.parametrize("command", ["theta-sdp", "bounds"])
    def test_huge_tolerance_is_not_an_internal_error(self, command):
        code, report = run([command, "--graph", "C5", "--tol", "1e999"])
        assert code == 0
        r = report["results"]
        theta = r if command == "theta-sdp" else r["theta"]
        lo, hi = Fraction(theta["lo"]), Fraction(theta["hi"])
        assert 0 < lo and lo * lo <= 5 <= hi * hi  # sqrt(5) lies in [lo, hi] exactly

    def test_decide_exhausted_is_exit_three(self):
        code, report = run(
            ["decide-gt", "--graph", "C5", "--lambda", "sqrt(5)", "--budget", "30"]
        )
        assert code == 3
        assert report["results"]["status"] == "BudgetExhausted"

    def test_asym_inconclusive_is_exit_three(self):
        code, report = run(
            ["asym-preorder", "E5", "E4", "--m", "2", "--budget", "2"]
        )
        assert code == 3
        assert report["results"]["status"] == "Inconclusive"

    def test_asym_against_the_empty_graph_stops_at_the_vertex_cap(self):
        # k reaches 43 in 1000 tests; no slack factor above the cap is built
        start = time.perf_counter()
        code, report = run(["asym-preorder", "K1", "0", "--m", "1", "--budget", "1000"])
        assert time.perf_counter() - start < 1
        assert code == 3
        assert report["results"]["status"] == "Inconclusive"
        assert report["results"]["tests_used"] == 1000

    def test_locate_cell_budget_is_exit_three(self):
        # C7 at M = 20 would list 162,939 cells; the count is checked first
        code, report = run(["locate", "--graph", "C7", "--M", "20"])
        assert code == 3
        assert report["results"]["reason"] == "cell budget"
        assert report["results"]["used"] == 162_939
        assert len(json.dumps(report, indent=2, sort_keys=True)) < 4096

    def test_squeeze_exhausted_is_exit_three(self):
        code, report = run(["squeeze", "--graph", "C5", "--K", "30", "--budget", "1"])
        assert code == 3
        assert report["results"]["status"] == "BudgetExhausted"
        argv = ["squeeze", "--graph", "5:1001100101", "--K", str(SQUEEZE_MAX_EXPONENT)]
        code, report = run(argv)
        assert code == 3 and report["results"]["status"] == "BudgetExhausted"
        # the named C5's closed-form theta meets even the finest width
        code, report = run(["squeeze", "--graph", "C5", "--K", str(SQUEEZE_MAX_EXPONENT)])
        assert code == 0 and report["results"]["status"] == "Value"

    def test_one_vertex_ladder_is_fast(self, monkeypatch, pentagon_csv_file):
        # every level of K1 has alpha 1, whose 2^32-th root once took a
        # 2^32-bit Newton step; the deepest level asked for is 64, checked
        # before any level is solved, and each bracket step extends the
        # ladder by its one new level (read from level 0 at every step, the
        # 65 levels took 2,145 roots)
        root_pow2, roots = zecap.alpha.creal.root_pow2, []

        def counted(size, m):
            roots.append(m)
            return root_pow2(size, m)

        monkeypatch.setattr(zecap.alpha.creal, "root_pow2", counted)
        start = time.perf_counter()
        code, report = run(["bounds", "--graph", "K1", "--m", "64"])
        assert time.perf_counter() - start < 1
        assert roots == list(range(65))
        assert code == 0 and report["results"]["lower"] == report["results"]["upper"] == "1/1"
        for argv in (["bounds", "--graph", "K1"], ["ladder", "--graph", "K1"],
                     ["capacity", "--channel", pentagon_csv_file]):
            code, report = run([*argv, "--m", "65"])
            assert code == 2 and report["results"]["kind"] == "input", argv
            assert "0..64" in report["results"]["error"]
        # squeeze plans as many levels as rounds, and stops at the deepest
        code, report = run(["squeeze", "--graph", "K1", "--K", "4", "--budget", "1000"])
        assert code == 0 and report["results"]["status"] == "Value"

    def test_partial_ladder_is_exit_three(self):
        code, report = run(
            ["ladder", "--graph", "C5", "--m", "3", "--power-cap", "100"]
        )
        assert code == 3
        r = report["results"]
        assert [lv["alpha"] for lv in r["levels"]] == [2, 5]
        assert "error" in r
        # rendered like every other budget stop
        assert (r["kind"], r["reason"], r["used"], r["partial"]) == (
            "budget", "vertex budget", 625, None
        )

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--version"])
        assert exc.value.code == 0
        assert "zecap" in capsys.readouterr().out

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2


PARSER_CASES = [[name, "-h"] for name in zecap.cli._COMMANDS] + [
    ["alpha"],  # missing required flag
    ["chif", "--graph", "C5", "--bogus"],
    ["alpha", "--graph", "C5", "--node-budget", "x"],
    [],
    ["-h"],
    ["--version"],
    ["frobnicate"],
]


class TestParser:
    @pytest.mark.parametrize(
        "argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "no-arguments"
    )
    def test_run_prints_what_the_full_parser_prints(self, argv, capsys):
        with pytest.raises(SystemExit) as got:
            run(argv)
        printed = capsys.readouterr()
        with pytest.raises(SystemExit) as expected:
            build_parser().parse_args(argv)
        assert (got.value.code, printed) == (expected.value.code, capsys.readouterr())

    def test_argv_defaults_to_the_command_line(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["zecap", "decode", "2"])
        code, report = run()
        assert (code, report["command"], report["inputs"]) == (0, "decode", {"index": 2})


# one argv of each form the benchmark's workloads run; the table reader must
# take each, so no flag added later puts the common path back on argparse
BENCH_FORMS = [
    ["alpha", "--graph", "C5^2", "--node-budget", "200000"],
    ["ladder", "--graph", "689", "--m", "1"],
    ["theta-sdp", "--graph", "5:1001100101", "--tol", "1e-4"],
    ["chif", "--graph", "C7"],
    ["decide-gt", "--graph", "C5", "--lambda", "sqrt(5)"],
    ["enumerate", "--lambda", "3/2", "--horizon", "200", "--stages", "220"],
    ["squeeze", "--graph", "C5", "--K", "6", "--budget", "4"],
    ["bounds", "--graph", "C5", "--m", "1"],
    ["locate", "--graph", "C5", "--M", "3"],
    ["capacity", "--channel", "pentagon.csv", "--m", "1"],
    ["preorder", "C5", "C7"],
    ["asym-preorder", "C5", "K2", "--m", "2", "--budget", "8"],
]

INT_VALUES = ["3", "07", "+2", " 8", "1_000", "-3", "x", "", "2.5"]
TEXT_VALUES = ["C5", "1e-4", "3/2", "sqrt(5)", "", "-1", "-x", "a b"]
STRAYS = ["-h", "--version", "--", "C5", "-1"]


def _fuzz_argv(rng) -> list[str]:
    """A seeded argv off the command table: random flag subsets and orders,
    good and bad values, ``--x=v``, repeats, abbreviations and strays."""
    if rng.random() < 0.03:
        return rng.choice([[], ["frobnicate"], ["-h"], ["--version"]])
    name = rng.choice(list(zecap.cli._COMMANDS))
    specs = zecap.cli._specs(zecap.cli._COMMANDS[name])
    groups = []
    for flag, kwargs in rng.sample(specs, len(specs)):
        if kwargs.get("required", not flag.startswith("-")) and rng.random() < 0.9:
            pass  # a required argument is usually given
        elif rng.random() < 0.5:
            continue
        value = rng.choice(INT_VALUES if "type" in kwargs else TEXT_VALUES)
        if not flag.startswith("-"):
            groups.append([value])
            continue
        form = rng.random()
        if form < 0.75:
            groups.append([flag, value])
        elif form < 0.82:
            groups.append([f"{flag}={value}"])
        elif form < 0.89:
            groups.append([flag[:-1], value])  # an abbreviation ('--' for '--m')
        elif form < 0.96:
            groups.append([flag, value, flag, rng.choice(INT_VALUES + TEXT_VALUES)])
        else:
            groups.append([flag])
    if rng.random() < 0.1:
        groups.insert(rng.randint(0, len(groups)), [rng.choice(STRAYS)])
    return [name] + [token for group in groups for token in group]


class TestTableReader:
    """``run`` reads argv off the command table; whatever the reader takes
    must read exactly as the full parser reads it."""

    @staticmethod
    def parsed(parser, argv):
        # the full parser's namespace as a dict, or None where it exits
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                return vars(parser.parse_args(argv))
            except SystemExit:
                return None

    def test_taken_argv_reads_as_the_full_parser_reads_it(self):
        rng = random.Random(23)
        parser = build_parser()
        taken = 0
        for _ in range(1500):
            argv = _fuzz_argv(rng)
            got = zecap.cli._table_args(argv)
            if got is not None:
                taken += 1
                assert vars(got) == self.parsed(parser, argv), argv
        assert 300 < taken < 1200  # both paths are exercised

    @pytest.mark.parametrize("argv", BENCH_FORMS, ids=lambda argv: argv[0])
    def test_benchmark_forms_are_read_off_the_table(self, argv):
        got = zecap.cli._table_args(argv)
        assert got is not None
        assert vars(got) == self.parsed(build_parser(), argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["alpha", "--graph", "C5", "--node-budg", "50"],
            ["alpha", "--graph=C5"],
            ["decide-gt", "--graph", "C5", "--lambda", "-1"],
            ["alpha", "--graph", "C5", "--graph", "C7"],
            ["alpha", "--graph", "C5", "--node-budget", "x"],
            ["preorder", "C5"],
            ["preorder", "C5", "C7", "C9"],
            ["alpha", "--", "--graph", "C5"],
        ],
        ids=["abbreviation", "equals", "negative", "repeat", "bad-int", "missing",
             "extra", "separator"],
    )
    def test_uncertain_argv_goes_to_the_full_parser(self, argv):
        assert zecap.cli._table_args(argv) is None

    def test_importing_the_cli_leaves_argparse_out(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = (
            "import sys, zecap.cli; "
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestNumpyAtFirstUse:
    """numpy is imported where floats are: theta's SDP, chi_f's float
    simplex and the renumbering of graphs denser than the alpha solver's
    integer gather takes."""

    def test_small_integer_commands_leave_numpy_out(self):
        # a fresh interpreter, since the test modules themselves import numpy
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = """
import json, sys
import zecap.cli
loaded = {"import": "numpy" in sys.modules}
for argv in (
    ["alpha", "--graph", "C5^2"],
    ["decide-gt", "--graph", "C5", "--lambda", "2"],
    ["bounds", "--graph", "C7", "--m", "1"],
    ["preorder", "C5", "C7"],
    ["theta-sdp", "--graph", "5:1001100101"],
):
    exit_code, _ = zecap.cli.run(argv)
    loaded[argv[0]] = [exit_code, "numpy" in sys.modules]
print(json.dumps(loaded))
"""
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "import": False,
            "alpha": [0, False],
            "decide-gt": [0, False],
            "bounds": [0, False],
            "preorder": [0, False],
            "theta-sdp": [0, True],  # the SDP on a literal leaf loads it
        }

    def test_edgeless_graph_answers(self):
        code, report = run(["alpha", "--graph", "E20000"])
        assert code == 0 and report["results"]["alpha"] == 20_000


class TestExitWithoutHeapWalk:
    """A zecap process answers one command, so it freezes its heap at exit
    and the interpreter's shutdown collections find nothing to walk."""

    def test_heap_is_frozen_at_exit(self):
        # a fresh interpreter; its probe, registered before zecap.cli is
        # imported, runs after zecap's own exit handler
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        code = """
import atexit, gc, json, sys
atexit.register(lambda: sys.stderr.write(f"frozen {gc.get_freeze_count()}\\n"))
import zecap.cli
exit_code, report = zecap.cli.run(["alpha", "--graph", "C5^2"])
print(json.dumps(report, indent=2, sort_keys=True))
"""
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        printed = json.loads(proc.stdout)
        _, report = run(["alpha", "--graph", "C5^2"])
        assert {**printed, "wall_time_s": 0} == {**report, "wall_time_s": 0}
        frozen = proc.stderr.split()
        assert frozen[0] == "frozen" and int(frozen[1]) > 0, proc.stderr

    def test_run_leaves_the_collector_alone(self):
        before = gc.get_freeze_count()
        code, report = run(["alpha", "--graph", "C5^2"])
        assert code == 0 and report["results"]["alpha"] == 5
        assert gc.get_freeze_count() == before


class TestInputEcho:
    """Inputs up to 64 vertices are echoed edge by edge; larger ones as a
    summary, since the expression already determines them."""

    def test_64_vertices_keep_their_edges(self):
        code, report = run(["alpha", "--graph", "K8*E8"])
        assert code == 0
        echo = report["inputs"]["graph"]
        assert echo == graph_json(parse_graph("K8*E8"))
        assert echo["vertices"] == 64 and len(echo["edges"]) == 8 * 28
        assert "bitstring" in echo

    def test_65_vertices_are_summarized(self):
        code, report = run(["alpha", "--graph", "K8*E8+S"])
        assert code == 0
        assert report["inputs"]["graph"] == {"vertices": 65, "edge_count": 8 * 28}
        code, report = run(["alpha", "--graph", "C5^3"])
        assert code == 0 and report["results"]["alpha"] == 10
        assert report["inputs"]["graph"] == {"vertices": 125, "edge_count": 1625}

    def test_preorder_summarizes_each_side(self):
        code, report = run(["preorder", "K8*E8+S", "C5^3"])
        assert code == 3  # over the default vertex cap, after both sides parsed
        assert report["inputs"]["left"] == {"vertices": 65, "edge_count": 224}
        assert report["inputs"]["right"] == {"vertices": 125, "edge_count": 1625}

    def test_result_graphs_keep_their_edges(self, tmp_path):
        g = parse_graph("C5+E60")
        code, report = run(["decode", str(encode(g))])
        assert code == 0
        assert report["results"]["graph"] == graph_json(g)
        assert len(report["results"]["graph"]["edges"]) == 5
        code, report = run(["encode", "C5+E60"])
        assert code == 0 and report["results"]["graph"] == graph_json(g)
        # a pentagon channel on inputs 0..4, noiseless on 5..64
        rows = []
        for x in range(65):
            row = ["0"] * 65
            if x < 5:
                row[x] = row[(x + 1) % 5] = "1/2"
            else:
                row[x] = "1"
            rows.append(",".join(row))
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(rows) + "\n")
        code, report = run(["channel-graph", "--channel", str(path)])
        assert code == 0 and report["results"]["graph"] == graph_json(g)
        # theta and the clique cover stop at their vertex caps: exit 3
        code, report = run(["capacity", "--channel", str(path), "--m", "0"])
        assert code == 3 and report["results"]["graph"] == graph_json(g)


class TestExpressionParser:
    def test_named_graphs(self):
        assert parse_graph("C5") == cycle_graph(5)
        assert parse_graph("K4") == complete_graph(4)
        assert parse_graph("E3") == edgeless_graph(3)
        assert parse_graph("S") == edgeless_graph(1)
        assert parse_graph("K1") == edgeless_graph(1)

    def test_numeric_index(self):
        assert parse_graph("689") == cycle_graph(5)
        assert parse_graph("0").n == 0

    def test_bitstring_and_edgetext(self):
        assert parse_graph("5:1001100101") == cycle_graph(5)
        assert parse_graph("5; 0-1,1-2,2-3,3-4,0-4") == cycle_graph(5)

    def test_union_product_precedence(self):
        got = parse_graph("S+C3*E2")
        expected = disjoint_union(
            edgeless_graph(1), strong_product(cycle_graph(3), edgeless_graph(2))
        )
        assert got == expected

    def test_power_binds_tightest(self):
        assert parse_graph("C3*E2^2") == strong_product(
            cycle_graph(3), edgeless_graph(4)
        )

    def test_power_is_left_associative(self):
        # (C3^2)^2 = C3^4 on 81 vertices
        assert parse_graph("C3^2^2").n == 81

    def test_parentheses(self):
        got = parse_graph("(S+C3)*E2")
        expected = strong_product(
            disjoint_union(edgeless_graph(1), cycle_graph(3)), edgeless_graph(2)
        )
        assert got == expected

    def test_whitespace(self):
        assert parse_graph(" C5 + S ") == disjoint_union(
            cycle_graph(5), edgeless_graph(1)
        )

    def test_complement_binds_tightest(self):
        c7, c9 = cycle_graph(7), cycle_graph(9)
        assert parse_graph("~C7^2") == strong_power(complement(c7), 2)
        assert parse_graph("~(C7*C9)") == complement(strong_product(c7, c9))
        assert parse_graph("~C7*C9") == strong_product(complement(c7), c9)

    def test_complement_keeps_the_recipe(self):
        assert parse_graph("~~C5") == cycle_graph(5)
        assert parse_graph("~(K3*E2)").recipe == ("co", ("x", (("K", 3), ("E", 2))))
        assert parse_graph("~~~C5").recipe == ("co", ("C", 5))
        # an index is a literal leaf, and its complement a "co" over it
        co = parse_graph("~689")
        assert co == complement(cycle_graph(5))
        assert co.recipe == ("co", ("G", cycle_graph(5).masks))
        # a union is not vertex-transitive, so 6 / theta(S+C5) = 1.85... is
        # not theta(~(S+C5)) = sqrt(5); its complement is a join, whose
        # theta is its larger side, and it meets the SDP on the flat graph
        g = parse_graph("~(S+C5)")
        assert parse_graph("S+C5").recipe == ("+", (("E", 1), ("C", 5)))
        assert g.recipe == ("co", ("+", (("E", 1), ("C", 5))))
        assert parse_graph("~(S+C5)*C5").recipe == ("x", (g.recipe, ("C", 5)))
        b = lovasz_theta(g, Fraction(1, 10**4))
        flat_lo, flat_hi = spectrum._sdp_interval(g)
        assert max(b.lo, flat_lo) <= min(b.hi, flat_hi)
        assert b.lo ** 2 < 5 < b.hi ** 2

    def test_bitstring_is_an_atom(self):
        c5 = cycle_graph(5)
        assert parse_graph("~5:1001100101") == parse_graph("~689") == complement(c5)
        assert parse_graph("(5:1001100101)") == c5
        assert parse_graph("5:1001100101*C5") == strong_power(c5, 2)
        assert parse_graph(" 5:1001100101 + S ") == disjoint_union(c5, edgeless_graph(1))
        # the literal is a leaf that composes with the named factor
        assert parse_graph("5:1001100101*C5").recipe == ("x", (("G", c5.masks), ("C", 5)))
        for graph in ("~5:1001100101", "(5:1001100101)", "5:1001100101*C5"):
            assert run(["theta-sdp", "--graph", graph])[0] == 0
        for bad in ("5:10011*C5", "5:1001100101*", "5:1001100102+C5", "~5;", "(5; 0-1)"):
            with pytest.raises(InputError):
                parse_graph(bad)
        assert parse_graph(" 5:1001100101 ") == c5
        # a malformed literal reaches the bit-string reader whole
        with pytest.raises(InputError, match="needs exactly 10 bits of 0/1, got 'abc'"):
            parse_graph("5:abc")

    def test_long_sum_is_one_flat_node(self):
        # 2,000 terms nest no deeper than two, and theta adds them up
        code, report = run(["theta-sdp", "--graph", "+".join(["C5"] * 2000)])
        assert code == 0
        lo, hi = (Fraction(report["results"][end]) / 2000 for end in ("lo", "hi"))
        assert lo * lo <= 5 <= hi * hi

    def test_complement_input_errors(self, monkeypatch):
        for bad in ("~", "C5~", "~+C5"):
            assert run(["theta-sdp", "--graph", bad])[0] == 2
        # the operand stops at the vertex budget before any mask is built
        built = []
        monkeypatch.setattr(zecap.cli, "complement", built.append)
        start = time.perf_counter()
        code, report = run(["theta-sdp", "--graph", "~E3000000"])
        assert time.perf_counter() - start < 1
        assert code == 3 and report["results"]["reason"] == "vertex budget" and built == []

    def test_rejects_malformed(self):
        for bad in ("", "C5+", "C2", "K0", "E0", "C5^0", "(C5", "C5)", "C5^S", "Q1"):
            with pytest.raises(InputError):
                parse_graph(bad)


class TestSideOutputs:
    def test_ladder_csv(self, tmp_path):
        out = tmp_path / "ladder.csv"
        code, _ = run(["ladder", "--graph", "C5", "--m", "1", "--csv", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "m,alpha,value"
        assert lines[1] == "0,2,2"
        assert lines[2].startswith("1,5,2.2360679")

    def test_bounds_csv(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code, _ = run(["bounds", "--graph", "C5", "--csv", str(out)])
        assert code == 0
        rows = {line.split(",")[0] for line in out.read_text().strip().splitlines()[1:]}
        assert {"ladder", "clique_cover", "theta_lo", "theta_hi", "lower", "upper"} <= rows

    def test_channel_json_auto_detection(self, schema, pentagon_json_file):
        code, report = run(["channel-graph", "--channel", pentagon_json_file])
        assert code == 0
        assert report["results"]["graph"]["index"] == 689


class TestDeterminism:
    def test_same_command_same_report(self):
        argv = ["bounds", "--graph", "S+C5", "--m", "1", "--tol", "1e-4"]
        _, first = run(argv)
        _, second = run(argv)
        first["wall_time_s"] = second["wall_time_s"] = 0.0
        assert first == second

    def test_main_prints_sorted_json(self, capsys):
        code = main(["decode", "2"])
        assert code == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert list(parsed) == sorted(parsed)
        assert parsed["command"] == "decode"

    def test_encode_above_the_index_maximum_is_exit_two(self, capsys):
        # the index of E200 has 5,931 digits; it is refused before it is built
        code = main(["encode", "E200"])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and report["results"]["kind"] == "input"
        code = main(["encode", f"K{INDEX_MAX_VERTICES}"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["results"]["index"] == encode(complete_graph(INDEX_MAX_VERTICES))

    @pytest.mark.parametrize("n, indexed", [(INDEX_MAX_VERTICES, True), (200, False)])
    def test_certificate_index_is_null_above_the_maximum(self, capsys, n, indexed):
        code = main(["decide-gt", "--graph", f"E{n}", "--lambda", "1"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["results"]["status"] == "Halted"
        index = report["results"]["certificate"]["graph_index"]
        assert index == (encode(edgeless_graph(n)) if indexed else None)

    def test_module_entry_point(self):
        # `python -m zecap` runs __main__.py, which no in-process call reaches
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-m", "zecap", "chif", "--graph", "C5"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["value"] == "5/2"

    @pytest.mark.parametrize(
        "argv, code", [(["alpha", "--graph", "C5^3"], 0), (["alpha", "--graph", "Q"], 2)]
    )
    def test_closed_stdout_keeps_exit_code(self, argv, code):
        # a reader that stops early (`| head -c 300`): the report write meets
        # a closed pipe, which must not turn into a traceback and exit 1
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "zecap", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()  # closed before the report is written
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == code, stderr
        assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
