"""Output checks, run by the client after each timed iteration.

A `run` iteration passes when `read_run` rebuilds a trace that serializes back
to the same bytes, `summarize` of the rebuilt trace equals `summary.json` and
the JSON printed on stdout, and both ledgers stay inside their budget lines at
every step. An `analyze` iteration passes when its theta vector and cluster
bound satisfy the invariants every graph obeys. Identical bytes pass identical
checks, so the caller checks one iteration in full and compares the digests
of every other one with it, and with the digests recorded for the seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

RUN_FILES = ("trace.csv", "plans.csv", "summary.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(command: str, outdir: Path, stdout: str) -> dict:
    """sha256 of every output of one iteration; a missing file digests as None."""
    digests = {"stdout": sha256(stdout.encode())}
    if command == "run":
        for f in RUN_FILES:
            digests[f] = sha256((outdir / f).read_bytes()) if (outdir / f).is_file() else None
    return digests


def check_run(scenario_path: Path, outdir: Path, stdout: str, scratch: Path) -> tuple[dict, list[str]]:
    """Return (workload properties, problems) for one `jamgame run`."""
    from jamgame.cli import _jsonable, read_run, summarize, write_plans_csv, write_trace_csv
    from jamgame.energy import budget_at
    from jamgame.scenario import load_scenario

    problems = []
    missing = [f for f in RUN_FILES if not (outdir / f).is_file()]
    if missing:
        return {}, [f"missing output files {missing}"]
    raw = {f: (outdir / f).read_bytes() for f in RUN_FILES}

    scenario = load_scenario(scenario_path)
    trace = read_run(outdir, scenario)
    scratch.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace, scratch / "trace.csv")
    write_plans_csv(trace, scratch / "plans.csv")
    for f in ("trace.csv", "plans.csv"):
        if (scratch / f).read_bytes() != raw[f]:
            problems.append(f"read_run does not rebuild {f} exactly")
    summary = json.loads(raw["summary.json"])
    if _jsonable(summarize(trace)) != summary:
        problems.append("summarize(read_run(...)) differs from summary.json")
    if stdout != raw["summary.json"].decode():
        problems.append("stdout differs from summary.json")
    for st in trace.steps:
        for who, spent, params in (
            ("attacker", st.attacker_spent, scenario.attacker_energy),
            ("defender", st.defender_spent, scenario.defender_energy),
        ):
            if spent > budget_at(params, st.k):
                problems.append(f"{who} ledger {spent} exceeds its budget line at k={st.k}")
    props = {
        "rolling.steps": len(trace.steps),
        "rolling.plans": len(trace.plans),
        "dynamics.state_den_bits.max": max(
            (x.denominator.bit_length() for st in trace.steps for x in st.state), default=0
        ),
        "cli.bytes_written": sum(p.stat().st_size for p in outdir.iterdir() if p.is_file()),
    }
    return props, problems


def check_analyze(scenario_path: Path, stdout: str) -> tuple[dict, list[str]]:
    """Return (workload properties, problems) for one `jamgame analyze --json`."""
    spec = json.loads(scenario_path.read_text())
    n, m = spec["graph"]["n"], len(spec["graph"]["edges"])
    try:
        report = json.loads(stdout)
        theta = report["theta"]["values"]
        bound = report["cluster_bound"]
    except (ValueError, KeyError, TypeError) as err:
        return {}, [f"unreadable analyze output: {err!r}"]
    problems = []
    if report.get("scenario") != spec["name"]:
        problems.append("analyze reports another scenario name")
    if len(theta) != m:
        problems.append(f"theta has {len(theta)} entries for {m} edges")
    elif theta[-1] != n:
        problems.append(f"removing every edge leaves {theta[-1]} groups, not {n}")
    # Removing i edges leaves between 1 and i + 1 groups, and more removals never merge groups.
    if any(not 1 <= v <= min(n, i + 2) for i, v in enumerate(theta)):
        problems.append("theta entry outside [1, removals + 1]")
    if any(a > b for a, b in zip(theta, theta[1:])):
        problems.append("theta is not monotone")
    if bound not in set(theta) | {1, n}:
        problems.append(f"cluster bound {bound} is neither 1, n nor a theta entry")
    return {"analysis.attack_sets": 2**m - 1}, problems
