"""End-to-end tests for the command line interface."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import jamgame
from jamgame.cli import main, read_run, summarize, write_plans_csv, write_trace_csv
from jamgame.dynamics import Weights, make_state
from jamgame.energy import EnergyParams
from jamgame.game import ATTACKER, AttackAction, Game, Plan, Schedule, UtilityWeights
from jamgame.network import Graph
from jamgame.rolling import Trace, run
from jamgame.scenario import (
    Scenario,
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
        assert row["verdict"] == expected.verdict
        assert row["cluster_count"] == str(expected.cluster_count)
        assert row["attacker_spent"] == str(expected.attacker_spent)
        assert row["defender_wasted"] == str(expected.defender_wasted)

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


@pytest.mark.parametrize(("name", "column"), [("trace.csv", "payoff"), ("plans.csv", "utility")])
def test_huge_decimal_exponent_in_a_run_file_is_refused(name, column, tmp_path, capsys):
    assert main(["run", "case1", "--output", str(tmp_path)]) == 0
    path = tmp_path / name
    lines = path.read_text().splitlines(keepends=True)
    skip = 2 if name == "trace.csv" else 0  # the trace's version and convergence lines
    rows = list(csv.reader(lines[skip:]))
    rows[1][rows[0].index(column)] = "1e999999999"
    with open(path, "w", newline="") as fh:
        fh.writelines(lines[:skip])
        csv.writer(fh).writerows(rows)
    code = "import sys, pathlib; from jamgame.cli import read_run; from jamgame.scenario import bundled_scenario; "
    code += "read_run(pathlib.Path(sys.argv[1]), bundled_scenario('case1'))"
    done = _python("-c", code, str(tmp_path))
    assert done.returncode == 1
    assert "ValueError: decimal exponent of magnitude above 100000" in done.stderr


class TestExactValuesOfAnySize:
    """Exact values longer than CPython's 4,300-digit int/str conversion limit are written and read back whole."""

    HUGE = Fraction(10**5000, 3)

    def test_trace_and_plans_round_trip(self, tmp_path):
        # A 12,500-step trace_long run reaches such states after about 85 s; build one directly.
        s = small_scenario()
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
