"""Compare a parent tree with a changed tree on the benchmark's end-to-end metrics.

    python3 perfbench/compare.py pairs --parent PARENT_ROOT --change CHANGE_ROOT \
        --out DIR [--workload NAME ...] [--pairs 10] [--seconds S] [--smoke]
    python3 perfbench/compare.py diff DIR/parent.jsonl DIR/change.jsonl

`pairs` measures both trees with this copy of the benchmark: pair i uses seed
i + 1 on both sides, and the side that runs first alternates from pair to
pair. `diff` prints, metric by metric, one row per workload. A change counts
as a gain only if it wins at least 9 of 10 pairs (ties count for neither) and
the medians differ by more than the parent's interquartile spread; it counts
as a regression if its median is worse than the parent's by more than the
metric's bound. When either side's spread exceeds the bound the metric is
`unresolved`, unless every change run beats every parent run (a gain) or
every parent run beats every change run by more than the bound (a
regression). Every ratio is printed with its base.

`diff` exits with 1 when a metric regressed or a run failed its checks, with
3 when none did but a metric is unresolved, and with 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import SPEC, quartiles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WIN_SHARE = 0.9


def cmd_pairs(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    sides = [("parent", args.parent), ("change", args.change)]
    for i in range(args.pairs):
        order = sides if i % 2 == 0 else sides[::-1]
        for workload in args.workload or sorted(WORKLOADS):
            for side, root in order:
                cmd = [
                    sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(i + 1),
                    "--root", str(root), "--out", str(args.out / f"{side}.jsonl"), "--trace", "0",
                ]
                if args.seconds is not None:
                    cmd += ["--seconds", str(args.seconds)]
                if args.smoke:
                    cmd.append("--smoke")
                done = subprocess.run(cmd, capture_output=True, text=True)
                if done.returncode != 0:
                    print(f"pair {i + 1} {workload} {side}: run failed\n{done.stderr}", file=sys.stderr)
                    return 1
                print(f"pair {i + 1} {workload} {side}: {done.stdout.strip().splitlines()[-1]}")
    return 0


def load(path: Path) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            result = json.loads(line)
            runs[result["workload"]].append(result)
    return runs


def paired(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Match runs by seed, in the order each seed occurs on each side."""
    waiting = defaultdict(list)
    for run in change:
        waiting[run["seed"]].append(run)
    return [(p, waiting[p["seed"]].pop(0)) for p in parent if waiting[p["seed"]]]


def verdict(pairs: list[tuple[float, float]], bound: float, lower_is_better: bool) -> tuple[str, dict]:
    p = [a for a, _ in pairs]
    c = [b for _, b in pairs]
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)

    def better(x: float, y: float) -> bool:
        return x < y if lower_is_better else x > y

    wins = sum(better(b, a) for a, b in pairs)
    stats = dict(parent=(pq1, pmed, pq3), change=(cq1, cmed, cq3), wins=wins, n=len(pairs))
    worse_by = (cmed - pmed) / pmed if lower_is_better else (pmed - cmed) / pmed
    if (pq3 - pq1) / pmed > bound or (cq3 - cq1) / cmed > bound:
        # Wider than the bound: only runs that do not overlap at all decide.
        if all(better(b, a) for b in c for a in p):
            return "gain", stats
        if all(better(a, b) for b in c for a in p) and worse_by > bound:
            return "regression", stats
        return "unresolved", stats
    if wins >= WIN_SHARE * len(pairs) and better(cmed, pmed) and abs(cmed - pmed) > pq3 - pq1:
        return "gain", stats
    if worse_by > bound:
        return "regression", stats
    return "no change", stats


def cmd_diff(args) -> int:
    parent, change = load(args.parent), load(args.change)
    status = 0
    for spec in SPEC["end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        print(f"{name} ({unit}, {spec['better']} is better, bound {spec['bound']:.0%})")
        for workload in sorted(set(parent) & set(change)):
            runs = paired(parent[workload], change[workload])
            if not runs:
                continue
            if not all(p["correct"] and c["correct"] for p, c in runs):
                print(f"  {workload:16} FAILED: a run's outputs did not pass the checks")
                status = 1
                continue
            values = [(p["metrics"][name], c["metrics"][name]) for p, c in runs]
            label, s = verdict(values, spec["bound"], spec["better"] == "lower")
            (pq1, pmed, pq3), (cq1, cmed, cq3) = s["parent"], s["change"]
            print(
                f"  {workload:16} {label:10} ratio {cmed / pmed:.4f} (change {cmed:.6g} / parent {pmed:.6g}); "
                f"parent q1-q3 {pq1:.6g}-{pq3:.6g}, change q1-q3 {cq1:.6g}-{cq3:.6g}; "
                f"change won {s['wins']} of {s['n']} pairs"
            )
            if label == "regression":
                status = 1
            elif label == "unresolved" and status == 0:
                status = 3
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_pairs = sub.add_parser("pairs", help="run alternating parent/change pairs")
    p_pairs.add_argument("--parent", type=Path, required=True)
    p_pairs.add_argument("--change", type=Path, required=True)
    p_pairs.add_argument("--out", type=Path, required=True)
    p_pairs.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p_pairs.add_argument("--pairs", type=int, default=10)
    p_pairs.add_argument("--seconds", type=float)
    p_pairs.add_argument("--smoke", action="store_true")
    p_pairs.set_defaults(handler=cmd_pairs)
    p_diff = sub.add_parser("diff", help="compare two result files")
    p_diff.add_argument("parent", type=Path)
    p_diff.add_argument("change", type=Path)
    p_diff.set_defaults(handler=cmd_diff)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
