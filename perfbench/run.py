"""jamgame benchmark: seeded closed-loop workloads through the public CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload solver_deep --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload trace_long --trace 1      # per-module metrics
    python3 perfbench/run.py --workload analyze_static --smoke    # tiny sizes, seconds

One client (this process) drives one single-threaded child (`worker.py`) at a
time, a fresh one per iteration, and starts the next iteration only after the
previous one finished. The seed generates a scenario JSON file, the only input
the program receives. Each iteration runs `jamgame run` or
`jamgame analyze --json` on it; only the call is timed, and the outputs are
checked afterwards (`checks.py`). Set-up time is measured separately in fresh
processes (`probe.py`).

The host's speed swings by up to 2x from one second to the next, as other
tenants come and go, and even its fastest speed drifts by up to 1.5x for
minutes at a time. So the times on the result line are seconds on a core of
fixed speed: each iteration is cut into fixed-work segments of at most about
0.1 s (`workloads.Workload.checkpoint`), a fixed stdlib-only reference loop
is timed at every segment boundary, and each segment's time is scaled by
REFERENCE_S over the reference time beside it (`normalized_seconds`). Each
set-up probe is scaled likewise by a reference run right after it. The
result is the median over iterations or probes.

With `--trace 0` the last stdout line carries the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` it carries the per-module metrics, taken from
traced iterations that alternate with untraced ones. `--out FILE` appends the
whole result to a JSON-lines file that `compare.py` reads. The exit code is 0
whenever a result is printed, and 2 when the program cannot be found or the
child dies.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_analyze, check_run, output_digests  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RECORD = json.loads((HERE / "record.json").read_text())
SETUP_PROBES = 15
DEADLINE_S = 170  # every run must end well inside three minutes
# Seconds of one tracer.reference_loop run on a fast core of the host the
# benchmark was defined on: a 2-vCPU KVM guest of an Intel Xeon (family 6,
# model 143), CPython 3.11.7. Result-line times are in seconds of that core.
REFERENCE_S = 0.00045


class HarnessError(RuntimeError):
    """The program under test could not be started or its child died."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def normalized_seconds(reply: dict, clock: int) -> float:
    """One iteration's seconds on clock 0 (wall) or 1 (CPU), on the reference core.

    Segment k is scaled by REFERENCE_S over the mean reference time at its
    two boundaries, k and k + 1. An iteration whose checkpoints ran no
    reference loop (a traced one) is scaled as a whole by the mean of the
    runs before and after the call.
    """
    refs = [r[clock] for r in reply["reference"]]
    if not all(refs):
        refs = [(refs[0] + refs[-1]) / 2] * len(refs)
    return sum(
        segment[clock] * REFERENCE_S * 2 / (refs[k] + refs[k + 1])
        for k, segment in enumerate(reply["segments"])
    )


def setup_time(root: Path, command: str, scenario: Path, scratch: Path) -> float:
    """Set-up seconds of one fresh process (probe.py), on the reference core."""
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(root), command, str(scenario), str(scratch)],
        capture_output=True, text=True, timeout=60, cwd=root,
    )
    if out.returncode != 0:
        raise HarnessError(f"set-up probe failed: {out.stderr.strip()[-500:]}")
    probe = json.loads(out.stdout.strip().splitlines()[-1])
    if probe["rc"] != 3:
        raise HarnessError(f"work gate did not refuse the probe (exit code {probe['rc']})")
    return probe["setup_s"] * REFERENCE_S / probe["reference_s"][0]


def layer_metrics(layers: dict, props: dict) -> dict:
    """Map one traced iteration's span summary to the per-module metric names."""

    def get(key: str, field: str = "calls"):
        return layers.get(key, {}).get(field, 0)

    solves = layers["_solve_durations"]
    steps = get("game.StepCache.step")
    children = layers["_children_of"]
    out = {
        "scenario.load_scenario.busy_s": get("scenario.load_scenario", "busy_s"),
        "game.solve_decision.calls": get("game.solve_decision"),
        "game.solve_decision.busy_s": get("game.solve_decision", "busy_s"),
        "game.solve_decision.self_s": get("game.solve_decision", "self_s"),
        "game.solve_decision.p50_ms": statistics.median(solves) * 1e3 if solves else 0.0,
        "game.solve_decision.max_ms": max(solves) * 1e3 if solves else 0.0,
        "game.StepCache.step.calls": steps,
        "game.StepCache.step.busy_s": get("game.StepCache.step", "busy_s"),
        "game.step.hit_ratio": 1 - get("dynamics.consensus_step@game") / steps if steps else 0.0,
        "game.step_payoff.calls": get("game.step_payoff"),
        "game.can_sustain_full_action.calls": get("game.can_sustain_full_action"),
        "energy.defense_cost.calls": get("energy.defense_cost"),
        "energy.defense_cost.busy_s": get("energy.defense_cost", "busy_s"),
        "energy.budget_at.calls": get("energy.budget_at"),
        "energy.budget_at.busy_s": get("energy.budget_at", "busy_s"),
        "rolling.run.self_s": get("rolling.run", "self_s"),
        "rolling.knowledge_for.calls": get("rolling.knowledge_for"),
        "rolling.knowledge_for.busy_s": get("rolling.knowledge_for", "busy_s"),
        "rolling.steps": props.get("rolling.steps", 0),
        "rolling.plans": props.get("rolling.plans", 0),
        "analysis.theta_vector.calls": get("analysis.theta_vector"),
        "analysis.theta_vector.busy_s": get("analysis.theta_vector", "busy_s"),
        "analysis.subsets": get("network.group_count@analysis"),
        "analysis.check_conditions.busy_s": get("analysis.check_conditions", "busy_s"),
        "analysis.cluster_upper_bound.busy_s": get("analysis.cluster_upper_bound", "busy_s"),
        "analysis.consensus_verdict.busy_s": get("analysis.consensus_verdict", "busy_s"),
        "network.components.calls": get("network.components"),
        "network.components.busy_s": get("network.components", "busy_s"),
        "network.edge_connectivity.busy_s": get("network.edge_connectivity", "busy_s"),
        "cli.summarize.busy_s": get("cli.summarize", "busy_s"),
        # cmd_run minus its loading, simulating and summarizing children: the
        # scenario, trace, plans, plot and summary files plus the stdout report.
        "cli.write_artifacts.busy_s": get("cli.cmd_run", "busy_s") - sum(
            children.get(f, 0.0) for f in ("scenario.load_scenario", "rolling.run", "cli.summarize")
        ),
        "cli.bytes_written": props.get("cli.bytes_written", 0),
        "dynamics.state_den_bits.max": props.get("dynamics.state_den_bits.max", 0),
        "trace.spans": layers["_spans"],
    }
    for caller in ("game", "rolling"):
        out[f"dynamics.consensus_step.from_{caller}.calls"] = get(f"dynamics.consensus_step@{caller}")
        out[f"dynamics.consensus_step.from_{caller}.busy_s"] = get(f"dynamics.consensus_step@{caller}", "busy_s")
    for field in ("calls", "busy_s"):
        out[f"dynamics.state_difference.{field}"] = get("dynamics.state_difference", field)
    return out


def expected_digests(workload: str, seed: int, smoke: bool) -> dict | None:
    key = f"{workload}-smoke" if smoke else workload
    return RECORD["digests"].get(key, {}).get(str(seed))


def iterate(root: Path, deadline: float, request: dict) -> dict:
    """One iteration in a fresh child, so that no process-level cache outlives it."""
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(root)],
            input=json.dumps(request), stdout=subprocess.PIPE, text=True, cwd=root,
            timeout=max(0.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise HarnessError("the benchmark child missed the deadline") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise HarnessError(f"the benchmark child died (exit code {done.returncode})")
    return json.loads(done.stdout)


def measure(root: Path, workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            check_recorded: bool = True) -> dict:
    """One benchmark run: closed-loop iterations for `seconds`, set-up probes between them.

    Outputs are compared with the digests in record.json when it has this
    seed, unless `check_recorded` is false (when recording them).
    """
    workload = WORKLOADS[workload_name]
    work = root / ".perfbench_out" / (f"{workload_name}-smoke" if smoke else workload_name)
    shutil.rmtree(work, ignore_errors=True)
    outdir = work / "out"
    work.mkdir(parents=True)
    scenario_path = work / "input.json"
    scenario_path.write_text(json.dumps(workload.scenario(seed, smoke), indent=2) + "\n")
    argv = workload.argv(str(scenario_path), str(outdir))
    recorded = expected_digests(workload_name, seed, smoke) if check_recorded else None
    sys.path.insert(0, str(root / "src"))

    start = time.monotonic()
    probes = 3 if smoke else SETUP_PROBES
    setup_time(root, workload.command, scenario_path, work / "probe")  # warm-up: writes bytecode caches
    setup: list[float] = []
    untraced, traced, problems = [], [], []
    first_digests, attempted = None, 0
    t0 = time.monotonic()
    while True:
        # Set-up probes run between iterations, spread evenly over the run,
        # so that their median covers the same machine conditions.
        elapsed = time.monotonic() - t0
        while len(setup) < probes and len(setup) <= probes * elapsed / max(seconds, 1e-9):
            setup.append(setup_time(root, workload.command, scenario_path, work / "probe"))
        # In a traced run, even iterations run untraced and odd ones traced.
        if elapsed >= seconds and attempted >= (2 if trace else 1):
            break
        traced_now = trace and attempted % 2 == 1
        shutil.rmtree(outdir, ignore_errors=True)
        reply = iterate(
            root, start + DEADLINE_S,
            {"argv": argv, "trace": traced_now, "spans": str(work / "spans.csv") if traced_now else None,
             "checkpoint": list(workload.checkpoint)},
        )
        attempted += 1
        issues = []
        if reply["error"] or reply["rc"] != 0:
            issues.append(f"exit code {reply['rc']}: {(reply['error'] or '').strip()[-300:]}")
        else:
            digests = output_digests(workload.command, outdir, reply["stdout"])
            if first_digests is None:
                if workload.command == "run":
                    props, issues = check_run(scenario_path, outdir, reply["stdout"], work / "roundtrip")
                else:
                    props, issues = check_analyze(scenario_path, reply["stdout"])
                if not issues:
                    first_digests = digests
            elif digests != first_digests:
                issues.append("outputs differ from the first checked iteration"
                              + (" (traced)" if traced_now else ""))
            if recorded is not None and digests != recorded:
                issues.append("outputs differ from the digests recorded for this seed")
        if issues:
            problems.append(f"iteration {attempted}: " + "; ".join(issues))
            continue
        reply["props"] = props
        (traced if traced_now else untraced).append(reply)

    failed = len(problems)
    walls = [normalized_seconds(r, 0) for r in untraced]
    props = (untraced or traced or [{"props": {}}])[0]["props"]
    if workload.command == "run":
        work_items = {"decisions_per_s": props.get("rolling.plans", 0), "steps_per_s": props.get("rolling.steps", 0)}
    else:
        work_items = {"subsets_per_s": props.get("analysis.attack_sets", 0)}
    samples = {
        "wall_s": walls,
        "cpu_s": [normalized_seconds(r, 1) for r in untraced],
        **{name: [count / w for w in walls] for name, count in work_items.items()},
        "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    samples["work_per_s"] = samples[next(iter(work_items))]
    wall = quartiles(walls)[1]
    metrics = {
        "wall_s": wall,
        "cpu_s": quartiles(samples["cpu_s"])[1],
        **{name: count / wall if walls else 0.0 for name, count in work_items.items()},
        "setup_s": quartiles(setup)[1],
        "peak_rss_mb": quartiles(samples["peak_rss_mb"])[1],
    }
    metrics["work_per_s"] = metrics[next(iter(work_items))]
    metrics["failed_ratio"] = failed / attempted
    if trace:
        layer_runs = [layer_metrics(r["layers"], r["props"]) for r in traced]
        for name in layer_runs[0] if layer_runs else ():
            metrics[name] = statistics.median(run[name] for run in layer_runs)
        metrics["trace.overhead_s"] = (
            statistics.median(normalized_seconds(r, 0) for r in traced) - wall if traced and untraced else 0.0
        )
    return {
        "workload": workload_name,
        "seed": seed,
        "smoke": smoke,
        "trace": trace,
        "root": str(root),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": samples,
        "metrics": metrics,
        "props": props,
        "digests": first_digests,
        "traced_iterations": len(traced),
        "segments": len(untraced[0]["segments"]) if untraced else 0,
        "raw_wall_s": quartiles([r["wall_s"] for r in untraced])[1],
    }


def report(result: dict) -> list[str]:
    """Human-readable lines: every metric by name, unit and workload."""
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    units.update(decisions_per_s="1/s", steps_per_s="1/s", subsets_per_s="1/s", failed_ratio="ratio")
    m, samples = result["metrics"], result["samples"]
    lines = [
        f"workload {result['workload']} seed {result['seed']}{' (smoke)' if result['smoke'] else ''}: "
        f"{result['attempted']} iterations, {result['failed']} failed; closed loop, one client, "
        f"one single-threaded child",
        f"  result: medians; times in seconds of the reference core, each of {result['segments']} fixed-work "
        f"segments scaled by {REFERENCE_S * 1e3:g} ms over the reference loop's time beside it (raw median "
        f"wall_s {result['raw_wall_s']:.6g} s); rates are work over wall_s",
        f"  {'metric':40} {'unit':6} {'result':>12} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}",
    ]
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        lines.append(
            f"  {name:40} {units[name]:6} {m[name]:12.6g} {med:12.6g} {q1:12.6g} {q3:12.6g} {len(values):4}"
        )
    lines.append(
        f"  {'failed_ratio':40} {'ratio':6} {m['failed_ratio']:12.6g}   ({result['failed']} of {result['attempted']})"
    )
    if result["trace"]:
        lines.append(f"  per-module metrics, median of {result['traced_iterations']} traced iterations:")
        for spec in SPEC["per_layer"]:
            name = spec["name"]
            lines.append(f"  {name:40} {spec['unit']:6} {m.get(name, 0):12.6g}")
        steps = m.get("game.StepCache.step.calls", 0)
        misses = m.get("dynamics.consensus_step.from_game.calls", 0)
        lines.append(f"  game.step.hit_ratio base: 1 - {misses:g} consensus_step calls from game / {steps:g} StepCache.step calls")
        lines.append(
            f"  tracing overhead: {m.get('trace.overhead_s', 0):.4g} s per iteration "
            f"(traced minus untraced wall_s, both on the reference core, base {m['wall_s']:.4g} s)"
        )
    for problem in result["problems"][:5]:
        lines.append(f"  FAILED {problem}")
    return lines


def final_line(result: dict) -> dict:
    """The contract line: every end-to-end metric, or every per-module one when traced."""
    section = "per_layer" if result["trace"] else "end_to_end"
    metrics = {
        spec["name"]: {"value": result["metrics"].get(spec["name"], 0.0), "unit": spec["unit"]}
        for spec in SPEC[section]
    }
    return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for the harness's own tests")
    parser.add_argument("--root", type=Path, default=HERE.parent, help="tree whose src/jamgame is measured")
    parser.add_argument("--out", type=Path, help="append the full result to this JSON-lines file")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if not (root / "src" / "jamgame" / "cli.py").is_file():
        print(f"no jamgame sources under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except HarnessError as err:
        print(f"benchmark aborted: {err}", file=sys.stderr)
        return 2
    print("\n".join(report(result)))
    if args.out:
        with open(args.out, "a") as fh:
            fh.write(json.dumps(result) + "\n")
    print(json.dumps(final_line(result)))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
