"""End-to-end tests for the command line interface."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jamgame
from jamgame import analysis
from jamgame.cli import _csv_record, main, read_run, summarize, write_plans_csv, write_trace_csv
from jamgame.dynamics import Weights, make_state
from jamgame.energy import EnergyParams
from jamgame.game import ATTACKER, AttackAction, Game, Plan, Schedule, UtilityWeights
from jamgame.network import Graph
from jamgame.rolling import Trace, run
from jamgame.scenario import (
    Scenario,
    bundled_names,
    bundled_scenario,
    dumps_scenario,
    load_scenario,
    loads_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


def path_game(n, h, T):
    """A game on the n-path with case1's energies."""
    g = Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])
    return Game(
        g,
        Weights.uniform(g),
        UtilityWeights(a=1, b=0),
        Schedule(T_attacker=T[0], T_defender=T[1], h_attacker=h[0], h_defender=h[1]),
        EnergyParams.attacker("1.5", "1.5", 1, 2),
        EnergyParams.defender("0.5", "0.5", 1),
    )


def small_scenario():
    return Scenario(path_game(3, h=(2, 1), T=(1, 1)), make_state([1, 2, 3]), K=12, name="small")


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(dumps_scenario(small_scenario()))
    return path


class TestValidate:
    def test_bundled_name(self, capsys):
        assert main(["validate", "case1"]) == 0
        assert "case1" in capsys.readouterr().out

    def test_file(self, scenario_file, capsys):
        assert main(["validate", str(scenario_file)]) == 0
        assert "small" in capsys.readouterr().out

    def test_json_prints_materialized_form(self, scenario_file, capsys):
        assert main(["validate", str(scenario_file), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "small"
        assert data["weights"] == {"kind": "uniform", "value": "1/3"}

    def test_missing_scenario(self, capsys):
        assert main(["validate", "nosuch"]) == 2
        assert "nosuch" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_scenario_path_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path
        if kind == "not_utf8":
            path = tmp_path / "bad.json"
            path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["validate", str(path)]) == 2
        assert "invalid scenario: <file>" in capsys.readouterr().err

    def test_malformed_graph(self, tmp_path, scenario_file, capsys):
        data = json.loads(scenario_file.read_text())
        data["graph"]["edges"].append([2, 1])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 2
        assert "graph" in capsys.readouterr().err


class TestAnalyze:
    def test_text_report(self, capsys):
        assert main(["analyze", "theta_example"]) == 0
        out = capsys.readouterr().out
        assert "[2, 2, 3, 4]" in out
        assert "cluster upper bound: 2" in out

    def test_json_report(self, capsys):
        assert main(["analyze", "case1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["conditions"]["necessary_normal"] is True
        assert data["conditions"]["necessary_strong"] is False
        assert data["conditions"]["ratio_strong"] == "3/4"
        assert data["theta"]["values"] == [2, 3]

    def test_theta_work_bound(self, tmp_path, capsys):
        s = Scenario(path_game(18, h=(1, 1), T=(1, 1)), make_state(range(1, 19)), K=5, name="long-path")
        path = tmp_path / "long.json"
        path.write_text(dumps_scenario(s))
        assert main(["analyze", str(path)]) == 3
        assert "work bound" in capsys.readouterr().err

    def test_theta_gate_refuses_before_the_conditions(self, monkeypatch, capsys):
        # check_conditions runs edge_connectivity, one max-flow per vertex.
        monkeypatch.setattr("jamgame.cli.check_conditions", lambda game: pytest.fail("conditions checked"))
        assert main(["analyze", "theta_example", "--work-bound", "1"]) == 3
        assert "work bound exceeded: edge enumeration needs 2^4 subsets" in capsys.readouterr().err


class TestRun:
    def test_artifacts_and_reparse(self, scenario_file, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert main(["run", str(scenario_file), "--output", str(outdir)]) == 0
        for artifact in ("scenario.json", "trace.csv", "plans.csv", "summary.json",
                         "plot_states.csv", "plot_energy.csv"):
            assert (outdir / artifact).exists()
        s = small_scenario()
        direct = run(s)
        assert read_run(outdir, s) == direct
        assert summarize(read_run(outdir, s)) == summarize(direct)

    def test_trace_header_and_exact_fractions(self, scenario_file, tmp_path):
        outdir = tmp_path / "out"
        main(["run", str(scenario_file), "--output", str(outdir)])
        lines = (outdir / "trace.csv").read_text().splitlines()
        assert lines[0] == "# trace_version 1"
        assert lines[1].startswith("# converged_at ")
        first = next(csv.DictReader(lines[2:]))
        assert first["x2"] == "7/3"

    def test_json_summary(self, scenario_file, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert main(["run", str(scenario_file), "--output", str(outdir), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] in ("consensus", "clusters", "undecided")
        assert data == json.loads((outdir / "summary.json").read_text())

    def test_plot_files_are_float_tables(self, scenario_file, tmp_path):
        outdir = tmp_path / "out"
        main(["run", str(scenario_file), "--output", str(outdir)])
        states = list(csv.DictReader((outdir / "plot_states.csv").read_text().splitlines()))
        assert float(states[0]["x1"]) == 1.0
        energy = list(csv.DictReader((outdir / "plot_energy.csv").read_text().splitlines()))
        assert float(energy[0]["attacker_budget"]) == 1.5

    @pytest.mark.parametrize("name", bundled_names())
    def test_summary_json_is_the_summary_of_the_files_beside_it(self, name, tmp_path):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", name, "--output", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary == summarize(read_run(tmp_path, bundled_scenario(name)))

    @pytest.mark.parametrize("name", ["fig1_schedule", "case1"])
    def test_theta_bound_refuses_before_the_game(self, name, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("jamgame.rolling.solve_decision", lambda *a, **k: pytest.fail("played"))
        data = scenario_to_dict(bundled_scenario(name))
        data["work_bounds"]["theta"] = 1
        path = tmp_path / "theta1.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("work bound exceeded: edge enumeration needs 2^") and err.endswith("bound is 2^1\n")
        assert not (tmp_path / "out").exists()
        assert main(["sweep", str(path), "--output", str(tmp_path / "sweep")]) == 0
        row = next(csv.DictReader((tmp_path / "sweep" / "sweep.csv").read_text().splitlines()))
        assert (row["status"], row["error"]) == ("work_bound_exceeded", err.removeprefix("work bound exceeded: ").strip())

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_theta_is_enumerated_once_per_run(self, command, tmp_path, monkeypatch, capsys):
        # case1's cluster bound needs theta: the gate's bound is the one summary.json reports
        calls, real = [], analysis.theta_vector
        monkeypatch.setattr(analysis, "theta_vector", lambda *args, **kw: calls.append(args) or real(*args, **kw))
        assert main([command, "case1", "--output", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_oversized_instance_exits_3(self, tmp_path, capsys):
        s = Scenario(path_game(7, h=(6, 2), T=(1, 2)), make_state(range(1, 8)), K=10, name="big")
        path = tmp_path / "big.json"
        path.write_text(dumps_scenario(s))
        assert main(["run", str(path), "--output", str(tmp_path / "o")]) == 3
        assert "36" in capsys.readouterr().err


class TestSweep:
    def test_empty_grid_matches_single_run(self, scenario_file, tmp_path):
        outdir = tmp_path / "out"
        assert main(["sweep", str(scenario_file), "--output", str(outdir)]) == 0
        rows = list(csv.DictReader((outdir / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 1
        expected = summarize(run(small_scenario()))
        row = rows[0]
        assert row["status"] == "ok"
        assert row["verdict"] == expected["verdict"]
        assert row["cluster_count"] == str(expected["cluster_count"])
        assert row["attacker_spent"] == expected["attacker_spent"]
        assert row["defender_wasted"] == expected["defender_wasted"]

    def test_grid_over_two_axes(self, scenario_file, tmp_path):
        outdir = tmp_path / "out"
        assert main([
            "sweep", str(scenario_file), "--output", str(outdir),
            "--grid", "h_attacker=1,2", "--grid", "T_defender=1",
        ]) == 0
        rows = list(csv.DictReader((outdir / "sweep.csv").read_text().splitlines()))
        assert [r["name"] for r in rows] == [
            "small[h_attacker=1,T_defender=1]",
            "small[h_attacker=2,T_defender=1]",
        ]
        assert all(r["status"] == "ok" for r in rows)

    def test_invalid_point_recorded_and_run_continues(self, scenario_file, tmp_path):
        outdir = tmp_path / "out"
        assert main([
            "sweep", str(scenario_file), "--output", str(outdir),
            "--grid", "rho_attacker=9/2,1",
        ]) == 0
        rows = list(csv.DictReader((outdir / "sweep.csv").read_text().splitlines()))
        assert rows[0]["status"] == "validation_error"
        # a point is checked as a file is, so the error names the field
        assert rows[0]["error"].startswith("attacker_energy: need kappa >= rho > 0")
        assert rows[1]["status"] == "ok"

    def test_oversized_point_recorded_as_work_bound(self, scenario_file, tmp_path):
        outdir = tmp_path / "out"
        assert main([
            "sweep", str(scenario_file), "--output", str(outdir),
            "--grid", "h_attacker=16", "--work-bound", "20",
        ]) == 0
        rows = list(csv.DictReader((outdir / "sweep.csv").read_text().splitlines()))
        assert rows[0]["status"] == "work_bound_exceeded"

    @pytest.mark.parametrize("argv", [["sweep", "case1", "--json"], ["validate", "case1", "--work-bound", "5"]])
    def test_flag_the_subcommand_does_not_read_is_refused(self, tmp_path, argv):
        with pytest.raises(SystemExit) as e:
            main(argv + ["--output", str(tmp_path)] if argv[0] == "sweep" else argv)
        assert e.value.code == 2

    def test_unknown_grid_parameter(self, scenario_file, capsys):
        assert main(["sweep", str(scenario_file), "--grid", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_repeated_grid_parameter_rejected(self, scenario_file, tmp_path, capsys):
        argv = ["sweep", str(scenario_file), "--output", str(tmp_path / "out"),
                "--grid", "h_attacker=1,2", "--grid", "h_attacker=3"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("invalid scenario: grid: grid parameter 'h_attacker'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axis", ["h_attacker=x", "rho_attacker=abc"])
    def test_non_numeric_grid_value_rejected(self, scenario_file, tmp_path, capsys, axis):
        assert main(["sweep", str(scenario_file), "--output", str(tmp_path / "out"), "--grid", axis]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario: grid:") and axis in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_output_that_cannot_be_a_directory_exits_2(command, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main([command, "prop3_regime", "--output", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("invalid scenario: output: cannot create directory")
    assert taken.read_text() == ""


@pytest.mark.parametrize("command, bound", [("run", "-1"), ("analyze", "-1"), ("sweep", "-3")])
def test_work_bound_below_zero_is_refused_as_input(command, bound, tmp_path, capsys):
    argv = [command, "case1", "--work-bound", bound]
    if command != "analyze":
        argv += ["--output", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert f"argument --work-bound: must be at least 0, got {bound}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "analyze"])
def test_work_bound_zero_refuses_every_instance_at_the_gate(command, tmp_path, capsys):
    # a bound of 0 stops a run or an analysis right after loading and gating
    argv = [command, "case1", "--work-bound", "0"]
    if command == "run":
        argv += ["--output", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "work bound exceeded" in capsys.readouterr().err


def _argv(command, path, tmp_path):
    return [command, str(path), "--json"] + (["--output", str(tmp_path / "out")] if command == "run" else [])


@pytest.mark.parametrize("command", ["validate", "run", "analyze"])
@pytest.mark.parametrize(
    "section, key", [("attacker_energy", "beta_normal"), ("attacker_energy", "beta_strong"), ("defender_energy", "beta_recover")]
)
def test_null_price_exits_2(command, section, key, tmp_path, capsys):
    data = scenario_to_dict(small_scenario())
    data[section][key] = None
    path = tmp_path / "null_price.json"
    path.write_text(json.dumps(data))
    assert main(_argv(command, path, tmp_path)) == 2
    assert capsys.readouterr().err == f"invalid scenario: {section}: {key} must be a price, got None\n"


@pytest.mark.parametrize("command", ["validate", "run", "analyze", "sweep"])
def test_one_agent_scenario_exits_2(command, tmp_path, capsys):
    # analyze once failed here with a traceback from edge connectivity, which needs two vertices
    data = scenario_to_dict(small_scenario())
    data["graph"] = {"n": 1, "edges": []}
    data["initial_state"] = [1]
    path = tmp_path / "one_agent.json"
    path.write_text(json.dumps(data))
    argv = [command, str(path)] + (["--output", str(tmp_path / "out")] if command in ("run", "sweep") else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == "invalid scenario: graph.n: a game needs at least 2 agents, got 1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "run", "analyze"])
def test_deeply_nested_file_exits_2(command, tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(_argv(command, path, tmp_path)) == 2
    assert capsys.readouterr().err.startswith("invalid scenario: <file>: nested too deeply to read")


def _python(*args):
    """Python with jamgame importable, in a child process, so an input that hangs it fails the test instead of stalling the suite."""
    src = str(Path(jamgame.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=30, env=env)


def _jamgame(*args):
    return _python("-m", "jamgame.cli", *args)


@pytest.mark.parametrize("value", ['"1e999999999"', "1e999999999", '"1e-999999999"'], ids=["string", "number", "negative"])
def test_huge_decimal_exponent_exits_2(value, tmp_path):
    text = dumps_scenario(small_scenario())
    path = tmp_path / "huge.json"
    path.write_text(text.replace('"cluster_tol": "1/1000000"', f'"cluster_tol": {value}'))
    assert path.read_text() != text
    done = _jamgame("validate", str(path))
    assert done.returncode == 2
    assert "decimal exponent of magnitude above 100000" in done.stderr


def test_huge_decimal_exponent_in_a_grid_exits_2(scenario_file, tmp_path):
    done = _jamgame("sweep", str(scenario_file), "--grid", "rho_attacker=1,1e999999999", "--output", str(tmp_path))
    assert done.returncode == 2
    assert done.stderr.startswith("invalid scenario: grid: bad value in grid axis")
    assert "decimal exponent of magnitude above 100000" in done.stderr


CSV_CELLS = st.one_of(
    st.none(),
    st.integers(),
    st.floats(allow_nan=False),
    st.sampled_from([math.inf, -math.inf]),
    st.fractions().map(str),
    st.text(st.sampled_from(',"\r\n ;-a1')),
    st.text(),
)


@settings(max_examples=300)
@given(st.lists(CSV_CELLS, min_size=2, max_size=6))
@example(["", ""])
@example([None, 'say "hi",\r\nbye'])
def test_csv_record_writes_what_csv_writer_writes(row):
    # every row the CLI writes has two or more cells; csv writes a lone empty cell as '""'
    out = io.StringIO()
    csv.writer(out).writerow(row)
    assert _csv_record(row) == out.getvalue()


def _edit_run_rows(outdir, name, edit):
    """Rewrite the run file `name` in place with its CSV rows, header first, replaced by `edit(rows)`."""
    path = outdir / name
    lines = path.read_text().splitlines(keepends=True)
    skip = 2 if name == "trace.csv" else 0  # the trace's version and convergence lines
    rows = edit(list(csv.reader(lines[skip:])))
    with open(path, "w", newline="") as fh:
        fh.writelines(lines[:skip])
        csv.writer(fh).writerows(rows)


def _set_run_cell(outdir, name, column, value):
    """Rewrite the first data row's `column` of the run file `name` in place."""
    def edit(rows):
        rows[1][rows[0].index(column)] = value
        return rows

    _edit_run_rows(outdir, name, edit)


@pytest.mark.parametrize(("name", "column"), [("trace.csv", "payoff"), ("plans.csv", "utility")])
def test_huge_decimal_exponent_in_a_run_file_is_refused(name, column, tmp_path, capsys):
    assert main(["run", "case1", "--output", str(tmp_path)]) == 0
    _set_run_cell(tmp_path, name, column, "1e999999999")
    code = "import sys, pathlib; from jamgame.cli import read_run; from jamgame.scenario import bundled_scenario; "
    code += "read_run(pathlib.Path(sys.argv[1]), bundled_scenario('case1'))"
    done = _python("-c", code, str(tmp_path))
    assert done.returncode == 1
    assert "ValueError: decimal exponent of magnitude above 100000" in done.stderr


@pytest.mark.parametrize(
    ("column", "text"),
    [("strong_nodes", "01;+2; 3;1_0"), ("strong_nodes", "3;1"), ("resolved", "2-3;2-3"), ("resolved", "2-3;1-2")],
)
def test_run_file_item_list_is_read_only_as_written(column, text, tmp_path, capsys):
    assert main(["run", "case1", "--output", str(tmp_path)]) == 0
    _set_run_cell(tmp_path, "trace.csv", column, text)
    with pytest.raises(ValueError, match="is not written as"):
        read_run(tmp_path, bundled_scenario("case1"))


def _short_case1_run(tmp_path, mode):
    """The output directory and scenario of a 3-step case1 run under `mode` attacks with charged waste."""
    data = scenario_to_dict(bundled_scenario("case1"))
    data.update(K=3, cost_model={"mode": mode, "waste": "charged"})
    path = tmp_path / "case1.json"
    path.write_text(json.dumps(data))
    outdir = tmp_path / "out"
    assert main(["run", str(path), "--output", str(outdir)]) == 0
    return outdir, scenario_from_dict(data)


NODE_ATTACK_STEP = json.dumps([{"strong": "", "normal": "", "strong_nodes": "", "normal_nodes": "2"}])


@pytest.mark.parametrize(
    ("mode", "name", "column", "text"),
    [
        ("node", "trace.csv", "normal", ""),
        ("node", "trace.csv", "normal", "1-2"),
        ("node", "plans.csv", "steps", NODE_ATTACK_STEP),
        ("edge", "trace.csv", "strong_nodes", "2"),
    ],
    ids=["node-trace-no-edges", "node-trace-too-few-edges", "node-plan-no-edges", "edge-trace-with-nodes"],
)
def test_run_file_attack_whose_edges_and_nodes_disagree_is_refused(mode, name, column, text, tmp_path, capsys):
    # case1 in node mode attacks node 2 normally at k = 0: edges 1-2;2-3.
    outdir, scenario = _short_case1_run(tmp_path, mode)
    read_run(outdir, scenario)  # the files as written agree
    _set_run_cell(outdir, name, column, text)
    with pytest.raises(ValueError, match=f"{mode}-mode attack .* has edges and nodes that disagree"):
        read_run(outdir, scenario)


OFF_GRAPH_ATTACK_STEP = json.dumps([{"strong": "1-3", "normal": "", "strong_nodes": "", "normal_nodes": ""}])


@pytest.mark.parametrize(
    ("mode", "name", "column", "text"),
    [
        ("edge", "trace.csv", "strong", "7-9"),
        ("edge", "trace.csv", "recover_planned", "8-9"),
        ("edge", "plans.csv", "steps", OFF_GRAPH_ATTACK_STEP),
        ("node", "trace.csv", "normal_nodes", "2;4"),
    ],
    ids=["trace-attack-edge", "trace-recovery-edge", "plan-attack-edge", "trace-node"],
)
def test_run_file_item_outside_the_graph_is_refused(mode, name, column, text, tmp_path, capsys):
    # case1 is the 3-agent path 1-2-3; in node mode it attacks node 2 normally at k = 0, and node 4 has no edges
    outdir, scenario = _short_case1_run(tmp_path, mode)
    _set_run_cell(outdir, name, column, text)
    with pytest.raises(ValueError, match="outside the scenario's graph"):
        read_run(outdir, scenario)


@pytest.mark.parametrize(
    ("name", "edit", "message"),
    [
        ("trace.csv", lambda rows: rows[:1], "trace.csv has no steps"),
        ("trace.csv", lambda rows: [row[:-1] for row in rows], r"trace.csv header \[.*\] is not"),
        ("trace.csv", lambda rows: [rows[0], rows[1] + ["0"], *rows[2:]], "trace.csv row 1 has 17 cells for 16"),
        ("trace.csv", lambda rows: [rows[0], ["7", *rows[1][1:]], *rows[2:]], "trace.csv step 0 is numbered '7'"),
        ("plans.csv", lambda rows: [rows[0], ["recover", *rows[1][1:]], *rows[2:]], "owner 'recover' is neither"),
    ],
    ids=["no-steps", "no-x3-column", "extra-cell", "first-k-7", "unknown-owner"],
)
def test_run_file_table_of_the_wrong_shape_is_refused(name, edit, message, tmp_path, capsys):
    # a 3-step case1 run on the 3-agent path: trace.csv has 13 named columns and x1..x3
    outdir, scenario = _short_case1_run(tmp_path, "edge")
    _edit_run_rows(outdir, name, edit)
    with pytest.raises(ValueError, match=message):
        read_run(outdir, scenario)


@pytest.mark.parametrize(
    ("name", "column", "text"),
    [
        ("trace.csv", "x1", "1.0"),
        ("trace.csv", "x2", "14/6"),
        ("trace.csv", "x3", " 8/3"),
        ("trace.csv", "attacker_spent", "+1"),
        ("trace.csv", "attacker_wasted", "0/5"),
        ("trace.csv", "defender_spent", "-0"),
        ("trace.csv", "defender_wasted", "0e3"),
        ("trace.csv", "payoff", "28/6"),
        ("plans.csv", "utility", "5248/486"),
    ],
)
def test_run_file_fraction_cell_is_read_only_as_written(name, column, text, tmp_path, capsys):
    # A 3-step case1 run writes k = 0 as x = (1, 7/3, 8/3), spends 1 and 0,
    # wastes 0, payoff 14/3 and the first utility 2624/243: `str(Fraction)`,
    # in lowest terms with no sign, point or padding. Each text is that value.
    outdir, scenario = _short_case1_run(tmp_path, "edge")
    _set_run_cell(outdir, name, column, text)
    with pytest.raises(ValueError, match=re.escape(f"{column} '{text}' is not written as")):
        read_run(outdir, scenario)


def _set_converged_at(outdir, text):
    """Rewrite the `# converged_at` line of the run's trace.csv in place."""
    path = outdir / "trace.csv"
    lines = path.read_bytes().split(b"\n")
    lines[1] = f"# converged_at {text}".encode()
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize(
    ("edit", "message"),
    [
        (lambda outdir: _set_converged_at(outdir, "99"), "# converged_at '99' is not the last step, 2"),
        (lambda outdir: _set_converged_at(outdir, "+2"), r"# converged_at '\+2' is not the last step, 2"),
        (lambda outdir: _edit_run_rows(outdir, "trace.csv", lambda rows: rows[:-1]), "stops after 2 of 3 steps"),
        (lambda outdir: _edit_run_rows(outdir, "trace.csv", lambda rows: rows + [["3", *rows[-1][1:]]]), "past the"),
        (lambda outdir: _set_run_cell(outdir, "trace.csv", "k", "+00"), r"trace.csv step 0 is numbered '\+00'"),
        (lambda outdir: _set_run_cell(outdir, "plans.csv", "decision_index", "01"), "index '01' is not written as '1'"),
        (lambda outdir: _set_run_cell(outdir, "plans.csv", "start_time", "0_0"), "time '0_0' is not written as '0'"),
    ],
    ids=[
        "converged-past-the-steps", "converged-signed", "none-yet-short", "none-yet-long", "k-signed", "index-padded",
        "start-0_0",
    ],
)
def test_run_file_step_count_and_integers_are_read_only_as_written(edit, message, tmp_path, capsys):
    # A 3-step case1 run, written with `# converged_at none`. A run stops early
    # only where it converges, so a trace has K steps or converged at its last.
    outdir, scenario = _short_case1_run(tmp_path, "edge")
    assert read_run(outdir, scenario).converged_at is None
    edit(outdir)
    with pytest.raises(ValueError, match=message):
        read_run(outdir, scenario)


@pytest.mark.parametrize("graph", ["star", "path"])
def test_theta_deeper_than_the_recursion_limit_exits_3(graph, tmp_path):
    n = 1200
    data = scenario_to_dict(small_scenario())
    del data["weights"]  # the default 1/n suits every degree
    if graph == "star":
        data["graph"] = {"n": n, "edges": [[1, v] for v in range(2, n + 1)]}
        data["cost_model"] = {"mode": "node", "waste": "charged"}
    else:
        data["graph"] = {"n": n, "edges": [[v, v + 1] for v in range(1, n)]}
    data["initial_state"] = list(range(1, n + 1))
    path = tmp_path / f"{graph}.json"
    path.write_text(json.dumps(data))
    done = _jamgame("analyze", str(path), "--work-bound", "2000")
    assert done.returncode == 3
    assert "Traceback" not in done.stderr
    assert "past the interpreter's recursion limit" in done.stderr


class TestExactValuesOfAnySize:
    """Exact values longer than CPython's 4,300-digit int/str conversion limit are written and read back whole."""

    HUGE = Fraction(10**5000, 3)

    def test_trace_and_plans_round_trip(self, tmp_path):
        # A 12,500-step trace_long run reaches such states after about 85 s; build
        # one directly, as the one step of a one-step run.
        s = replace(small_scenario(), K=1)
        step = replace(run(s).steps[0], state=(self.HUGE, self.HUGE + 1, -self.HUGE), payoff=self.HUGE**2)
        plan = Plan(ATTACKER, 1, 0, (AttackAction.empty(),), self.HUGE)
        trace = Trace(s, (step,), (plan,), None)
        write_trace_csv(trace, tmp_path / "trace.csv")
        write_plans_csv(trace, tmp_path / "plans.csv")
        assert read_run(tmp_path, s) == trace

    def test_scenario_round_trip(self):
        s = replace(small_scenario(), initial_state=make_state([self.HUGE, 2, 3]))
        assert loads_scenario(dumps_scenario(s)) == s
        assert scenario_from_dict(scenario_to_dict(s)) == s

    @pytest.fixture
    def huge_state_file(self, tmp_path):
        data = scenario_to_dict(small_scenario())
        data["initial_state"][0] = "1e5000"
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        return path

    def test_validate_json(self, huge_state_file, capsys):
        assert main(["validate", str(huge_state_file), "--json"]) == 0
        assert loads_scenario(capsys.readouterr().out).initial_state[0] == 10**5000

    def test_run(self, huge_state_file, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert main(["run", str(huge_state_file), "--output", str(outdir), "--json"]) == 0
        s = load_scenario(huge_state_file)
        assert loads_scenario((outdir / "scenario.json").read_text()) == s
        assert read_run(outdir, s) == run(s)
        assert capsys.readouterr().out == (outdir / "summary.json").read_text()
        states = list(csv.DictReader((outdir / "plot_states.csv").read_text().splitlines()))
        assert states[0]["x1"] == "inf"
