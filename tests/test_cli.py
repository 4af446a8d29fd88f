"""End-to-end tests for the command line interface."""

import csv
import json
from pathlib import Path

import pytest

from jamgame.cli import main, read_run, summarize
from jamgame.dynamics import Weights, make_state
from jamgame.energy import EnergyParams
from jamgame.game import UtilityWeights
from jamgame.network import Graph
from jamgame.rolling import run
from jamgame.scenario import Scenario, bundled_scenario, dumps_scenario


def small_scenario(name="small", h=(2, 1), T=(1, 1), K=12, att=("1.5", "1.5", 1, 2)):
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    return Scenario(
        graph=g,
        initial_state=make_state([1, 2, 3]),
        weights=Weights.uniform(g),
        util=UtilityWeights(a=1, b=0),
        attacker_energy=EnergyParams.attacker(*att),
        defender_energy=EnergyParams.defender("0.5", "0.5", 1),
        h_attacker=h[0],
        h_defender=h[1],
        T_attacker=T[0],
        T_defender=T[1],
        K=K,
        name=name,
    )


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
        g = Graph.from_edges(18, [(i, i + 1) for i in range(1, 18)])
        s = Scenario(
            graph=g,
            initial_state=make_state(range(1, 19)),
            weights=Weights.uniform(g),
            util=UtilityWeights(a=1, b=0),
            attacker_energy=EnergyParams.attacker("1.5", "1.5", 1, 2),
            defender_energy=EnergyParams.defender("0.5", "0.5", 1),
            h_attacker=1,
            h_defender=1,
            T_attacker=1,
            T_defender=1,
            K=5,
            name="long-path",
        )
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
        states = list(csv.DictReader((outdir / "plot_states.csv").open()))
        assert float(states[0]["x1"]) == 1.0
        energy = list(csv.DictReader((outdir / "plot_energy.csv").open()))
        assert float(energy[0]["attacker_budget"]) == 1.5

    def test_oversized_instance_exits_3(self, tmp_path, capsys):
        g = Graph.from_edges(7, [(i, i + 1) for i in range(1, 7)])
        s = Scenario(
            graph=g,
            initial_state=make_state(range(1, 8)),
            weights=Weights.uniform(g),
            util=UtilityWeights(a=1, b=0),
            attacker_energy=EnergyParams.attacker("1.5", "1.5", 1, 2),
            defender_energy=EnergyParams.defender("0.5", "0.5", 1),
            h_attacker=6,
            h_defender=2,
            T_attacker=1,
            T_defender=2,
            K=10,
            name="big",
        )
        path = tmp_path / "big.json"
        path.write_text(dumps_scenario(s))
        assert main(["run", str(path), "--output", str(tmp_path / "o")]) == 3
        assert "36" in capsys.readouterr().err


class TestSweep:
    def test_empty_grid_matches_single_run(self, scenario_file, tmp_path):
        outdir = tmp_path / "out"
        assert main(["sweep", str(scenario_file), "--output", str(outdir)]) == 0
        rows = list(csv.DictReader((outdir / "sweep.csv").open()))
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
        rows = list(csv.DictReader((outdir / "sweep.csv").open()))
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
        rows = list(csv.DictReader((outdir / "sweep.csv").open()))
        assert rows[0]["status"] == "validation_error"
        assert "kappa" in rows[0]["error"]
        assert rows[1]["status"] == "ok"

    def test_oversized_point_recorded_as_work_bound(self, scenario_file, tmp_path):
        outdir = tmp_path / "out"
        assert main([
            "sweep", str(scenario_file), "--output", str(outdir),
            "--grid", "h_attacker=16", "--work-bound", "20",
        ]) == 0
        rows = list(csv.DictReader((outdir / "sweep.csv").open()))
        assert rows[0]["status"] == "work_bound_exceeded"

    @pytest.mark.parametrize("argv", [["sweep", "case1", "--json"], ["validate", "case1", "--work-bound", "5"]])
    def test_flag_the_subcommand_does_not_read_is_refused(self, tmp_path, argv):
        with pytest.raises(SystemExit) as e:
            main(argv + ["--output", str(tmp_path)] if argv[0] == "sweep" else argv)
        assert e.value.code == 2

    def test_unknown_grid_parameter(self, scenario_file, capsys):
        assert main(["sweep", str(scenario_file), "--grid", "bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["h_attacker=x", "rho_attacker=abc"])
    def test_non_numeric_grid_value_rejected(self, scenario_file, tmp_path, capsys, axis):
        assert main(["sweep", str(scenario_file), "--output", str(tmp_path / "out"), "--grid", axis]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid scenario: grid:") and axis in err
