"""Command-line surface: golden reports, schema conformance, exit codes."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import zecap.cli
from zecap.cli import build_parser, graph_json, main, parse_graph, run
from zecap import (
    ConvergenceError,
    IndependentSetWitness,
    complete_graph,
    cycle_graph,
    disjoint_union,
    edgeless_graph,
    encode,
    strong_power,
    strong_product,
)

GOLDEN = Path(__file__).parent / "golden"

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
        assert report["results"] == {"error": "did not converge", "kind": "solver"}
        assert report["inputs"]["expression"] == "C5"
        assert report["inputs"]["graph"]["index"] == 689
        assert report["inputs"]["tol"] == "1/1000"
        assert report["budgets"] == {}  # theta-sdp takes no budget

    def test_tolerance_below_the_certifiable_width_is_a_solver_stop(self):
        code, report = run(["theta-sdp", "--graph", "C5", "--tol", "1e-12"])
        assert code == 4
        assert report["results"]["kind"] == "solver"
        assert report["inputs"]["expression"] == "C5"
        assert report["inputs"]["graph"]["index"] == 689
        assert report["inputs"]["tol"] == "1/1000000000000"

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

    def test_partial_ladder_is_exit_three(self):
        code, report = run(
            ["ladder", "--graph", "C5", "--m", "3", "--power-cap", "100"]
        )
        assert code == 3
        assert [lv["alpha"] for lv in report["results"]["levels"]] == [2, 5]
        assert "error" in report["results"]

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

    def test_a_named_command_gets_only_its_own_subparser(self):
        assert build_parser("chif").parse_args(["chif", "--graph", "C5"]).command == "chif"
        with pytest.raises(SystemExit) as exc:
            build_parser("chif").parse_args(["decode", "2"])
        assert exc.value.code == 2

    def test_argv_defaults_to_the_command_line(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["zecap", "decode", "2"])
        code, report = run()
        assert (code, report["command"], report["inputs"]) == (0, "decode", {"index": 2})


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

    def test_rejects_malformed(self):
        from zecap import InputError

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
