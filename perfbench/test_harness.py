"""The harness's own tests, on smoke-size workloads (a few seconds in all).

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_run, output_digests  # noqa: E402
from run import SPEC, measure  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", str(DEFAULT_SEED), "--seconds", "0.3",
                 "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
        for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "failed_ratio"):
            assert f"  {name} " in done.stdout


def test_traced_run_reports_layers_and_keeps_outputs():
    result = measure(ROOT, "solver_deep", DEFAULT_SEED, 0, trace=True, smoke=True)
    assert result["correct"], result["problems"]
    assert result["traced_iterations"] >= 1
    m = result["metrics"]
    assert m["game.solve_decision.calls"] == m["rolling.plans"] == 2
    assert m["dynamics.consensus_step.from_rolling.calls"] == m["rolling.steps"]
    assert 0 < m["game.step.hit_ratio"] < 1
    assert m["game.solve_decision.self_s"] < m["game.solve_decision.busy_s"]


def test_output_check_catches_a_changed_summary(tmp_path):
    result = measure(ROOT, "trace_long", DEFAULT_SEED, 0, trace=False, smoke=True)
    work = ROOT / ".perfbench_out" / "trace_long-smoke"
    out = tmp_path / "out"
    shutil.copytree(work / "out", out)
    summary = json.loads((out / "summary.json").read_text())
    summary["attacker_spent"] = "0"
    text = json.dumps(summary, indent=2) + "\n"
    (out / "summary.json").write_text(text)
    _, problems = check_run(work / "input.json", out, text, tmp_path / "rt")
    assert output_digests("run", out, text) != result["digests"]
    assert any("summary.json" in p for p in problems)


def test_compare_mode_on_two_smoke_series(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), "pairs", "--parent", str(ROOT), "--change", str(ROOT),
         "--out", str(tmp_path), "--pairs", "2", "--seconds", "0.2", "--smoke",
         "--workload", "analyze_static", "--workload", "trace_long"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    diff = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), "diff", str(tmp_path / "parent.jsonl"),
         str(tmp_path / "change.jsonl")],
        capture_output=True, text=True, timeout=60,
    )
    assert "FAILED" not in diff.stdout
    for spec in SPEC["end_to_end"]:
        assert diff.stdout.count(f"{spec['name']} (") == 1
    assert diff.stdout.count("analyze_static ") == len(SPEC["end_to_end"])
    assert "parent" in diff.stdout and "won" in diff.stdout


def test_verdict_needs_separated_runs_when_the_spread_is_wide():
    from compare import verdict

    wide_parent = [1.0, 1.5, 2.0, 2.5, 3.0, 1.2, 2.8, 1.8, 2.2, 2.6]
    slower = [(p, 10 * p) for p in wide_parent]
    assert verdict(slower, 0.25, lower_is_better=True)[0] == "regression"
    faster = [(p, p / 10) for p in wide_parent]
    assert verdict(faster, 0.25, lower_is_better=True)[0] == "gain"
    mixed = [(p, q) for p, q in zip(wide_parent, reversed(wide_parent))]
    assert verdict(mixed, 0.25, lower_is_better=True)[0] == "unresolved"
    steady = [(1.0 + i / 1000, 1.5 + i / 1000) for i in range(10)]
    assert verdict(steady, 0.25, lower_is_better=True)[0] == "regression"


def test_normalized_seconds_scales_each_segment_by_the_reference_beside_it():
    from run import REFERENCE_S, normalized_seconds

    r = REFERENCE_S
    reply = {"segments": [[1.0, 1.0], [1.0, 2.0]], "reference": [[r, r], [3 * r, 3 * r], [r, r]]}
    assert normalized_seconds(reply, 0) == pytest.approx(1.0 / 2 + 1.0 / 2)
    assert normalized_seconds(reply, 1) == pytest.approx(1.0 / 2 + 2.0 / 2)
    traced = {"segments": [[1.0, 1.0], [1.0, 1.0]], "reference": [[r, r], [0.0, 0.0], [3 * r, 3 * r]]}
    assert normalized_seconds(traced, 0) == pytest.approx(2.0 / 2)  # scaled as a whole


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checkpoints_cut_every_iteration_alike(workload):
    result = measure(ROOT, workload, DEFAULT_SEED, 0.3, trace=False, smoke=True)
    assert result["correct"], result["problems"]
    assert result["segments"] > (workload != "solver_deep")  # smoke solver_deep: under 2000 steps
    assert result["raw_wall_s"] > 0 and result["metrics"]["wall_s"] > 0


def test_checkpoints_without_their_function_patch_nothing():
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Checkpoints

    gone = Checkpoints("jamgame.game:NoSuchClass.step", 1)
    gone.install()
    assert gone._patches == []
    import jamgame.game
    import jamgame.rolling

    original = jamgame.game.solve_decision
    present = Checkpoints("jamgame.game:solve_decision", 1)
    present.install()
    assert jamgame.rolling.solve_decision is jamgame.game.solve_decision is not original
    present.uninstall()
    assert jamgame.rolling.solve_decision is jamgame.game.solve_decision is original


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "analyze_static", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_no_profiler_in_the_harness():
    for path in HERE.glob("*.py"):
        if path.name != Path(__file__).name:
            assert "cProfile" not in path.read_text() and "import profile" not in path.read_text()
