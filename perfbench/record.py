"""Record the measured tree's output digests and workload properties in record.json.

Usage: python3 perfbench/record.py

Runs every workload once per seed in SEEDS (and the default seed), at full and
smoke size, with the outputs checked as in a benchmark run, and writes their
sha256 digests. For the default seed at full size it also records each
workload's generator parameters, why it was chosen and its exact properties,
taken from one traced iteration. Run it only on a tree whose outputs are
known to be right: later runs fail any iteration whose digests differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import measure  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

PROPERTIES = (
    "dynamics.state_den_bits.max",
    "rolling.steps",
    "rolling.plans",
    "game.solve_decision.calls",
    "game.StepCache.step.calls",
    "dynamics.consensus_step.from_game.calls",
    "analysis.theta_vector.calls",
    "analysis.subsets",
    "cli.bytes_written",
)
SEEDS = range(16)


def main() -> int:
    root = HERE.parent
    record = {"default_seed": DEFAULT_SEED, "workloads": {}, "digests": {}}
    for name, workload in WORKLOADS.items():
        entry = record["workloads"][name] = {
            "command": workload.command,
            "why": workload.why,
            "generator": workload.params,
            "smoke_generator": workload.smoke_params,
        }
        for smoke in (False, True):
            key = f"{name}-smoke" if smoke else name
            digests = record["digests"][key] = {}
            for seed in sorted(set(SEEDS) | {DEFAULT_SEED}):
                traced = seed == DEFAULT_SEED and not smoke
                result = measure(root, name, seed, 0, traced, smoke, check_recorded=False)
                if not result["correct"]:
                    print(f"{key} seed {seed}: {result['problems']}", file=sys.stderr)
                    return 1
                digests[str(seed)] = result["digests"]
                if traced:
                    entry["properties"] = {p: result["metrics"][p] for p in PROPERTIES}
                print(f"{key} seed {seed}: recorded", flush=True)
    (HERE / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
