"""Command line entry point.

Subcommands: `run` simulates a scenario and writes the trace plus plot-ready
CSVs, `analyze` prints the static condition report and cluster bounds, `sweep`
repeats a run over a parameter grid, `validate` checks a scenario file. The
scenario argument is a file path or the name of a bundled example.

Exit codes: 0 success, 2 validation failure, 3 work bound exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import csv
import itertools
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .analysis import (
    WorkBoundExceeded,
    check_conditions,
    cluster_upper_bound,
    consensus_verdict,
    theta_vector,
)
from .dynamics import as_fraction, make_state
from .energy import NODE_ATTACK, budget_at
from .game import ATTACKER, AttackAction, DefenseAction, Plan
from .network import Edge
from .rolling import Trace, TraceStep, run
from .scenario import (
    Scenario,
    ScenarioError,
    bundled_names,
    bundled_scenario,
    dumps_scenario,
    edge_key,
    load_scenario,
    parse_edge_key,
    scenario_from_dict,
    scenario_to_dict,
    unlimited_digits,
)

TRACE_VERSION = 1
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_WORK_BOUND = 3

# Each sweepable parameter and the (section, key) it sets in a scenario file.
GRID_PARAMS = {
    "h_attacker": ("horizons", "attacker"),
    "h_defender": ("horizons", "defender"),
    "T_attacker": ("periods", "attacker"),
    "T_defender": ("periods", "defender"),
    "rho_attacker": ("attacker_energy", "rho"),
    "rho_defender": ("defender_energy", "rho"),
}


# --- run summaries -------------------------------------------------------------


@dataclass(frozen=True)
class DecisionRecord:
    owner: str
    decision_index: int
    start_time: int
    utility: Fraction


@dataclass(frozen=True)
class RunSummary:
    name: str
    verdict: str
    clusters: tuple[tuple[int, ...], ...]
    cluster_count: int
    cluster_bound: int
    within_bound: bool | None
    union_connected: bool | None
    steps: int
    converged_at: int | None
    attacker_spent: Fraction
    attacker_wasted: Fraction
    defender_spent: Fraction
    defender_wasted: Fraction
    decisions: tuple[DecisionRecord, ...]


def summarize(trace: Trace) -> RunSummary:
    """Condense a trace into the report the CLI prints and serializes."""
    s = trace.scenario
    verdict = consensus_verdict(trace)
    bound = cluster_upper_bound(s.game, work_bound=s.work_bound_theta)
    count = verdict.clusters.group_count
    last = trace.steps[-1]
    return RunSummary(
        name=s.name,
        verdict=verdict.verdict,
        clusters=tuple(tuple(sorted(c)) for c in verdict.clusters.groups),
        cluster_count=count,
        cluster_bound=bound,
        within_bound=None if verdict.verdict == "undecided" else count <= bound,
        union_connected=verdict.union_connected,
        steps=len(trace.steps),
        converged_at=trace.converged_at,
        attacker_spent=last.attacker_spent,
        attacker_wasted=last.attacker_wasted,
        defender_spent=last.defender_spent,
        defender_wasted=last.defender_wasted,
        decisions=tuple(
            DecisionRecord(p.owner, p.decision_index, p.start_time, p.utility) for p in trace.plans
        ),
    )


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def summary_text(summary: RunSummary) -> str:
    groups = " ".join("{" + ",".join(map(str, c)) + "}" for c in summary.clusters)
    within = {True: "yes", False: "NO", None: "n/a"}[summary.within_bound]
    converged = "not within step limit" if summary.converged_at is None else f"at k={summary.converged_at}"
    lines = [
        f"scenario: {summary.name}",
        f"verdict: {summary.verdict}",
        f"clusters: {groups}",
        f"cluster count: {summary.cluster_count} (bound {summary.cluster_bound}, within bound: {within})",
        f"steps: {summary.steps} (settled {converged})",
        f"attacker spent: {summary.attacker_spent} (wasted {summary.attacker_wasted})",
        f"defender spent: {summary.defender_spent} (wasted {summary.defender_wasted})",
        f"decisions: {len(summary.decisions)} (per-decision utilities in summary.json)",
    ]
    return "\n".join(lines)


# --- exact-text serialization ----------------------------------------------------


def _edges_str(edges) -> str:
    return ";".join(edge_key(e) for e in sorted(edges))


def _edges_parse(text: str) -> frozenset[Edge]:
    return frozenset(parse_edge_key(item, "edges") for item in text.split(";")) if text else frozenset()


def _nodes_str(nodes) -> str:
    return ";".join(str(v) for v in sorted(nodes))


def _nodes_parse(text: str) -> frozenset[int]:
    return frozenset(int(v) for v in text.split(";")) if text else frozenset()


def _attack_json(a: AttackAction) -> dict:
    return {
        "strong": _edges_str(a.strong),
        "normal": _edges_str(a.normal),
        "strong_nodes": _nodes_str(a.strong_nodes),
        "normal_nodes": _nodes_str(a.normal_nodes),
    }


def _attack_from(d: dict) -> AttackAction:
    return AttackAction(
        _edges_parse(d["strong"]),
        _edges_parse(d["normal"]),
        strong_nodes=_nodes_parse(d["strong_nodes"]),
        normal_nodes=_nodes_parse(d["normal_nodes"]),
    )


TRACE_COLUMNS = [
    "k", "strong", "normal", "strong_nodes", "normal_nodes",
    "recover_planned", "recover_effective", "resolved",
    "attacker_spent", "attacker_wasted", "defender_spent", "defender_wasted", "payoff",
]


@unlimited_digits()
def write_trace_csv(trace: Trace, path: Path) -> None:
    """Exact trace table; states and energies are fraction strings."""
    n = trace.scenario.game.graph.n
    columns = TRACE_COLUMNS + [f"x{i}" for i in range(1, n + 1)]
    with open(path, "w", newline="") as fh:
        fh.write(f"# trace_version {TRACE_VERSION}\n")
        fh.write(f"# converged_at {trace.converged_at if trace.converged_at is not None else 'none'}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for st in trace.steps:
            writer.writerow(
                [
                    st.k,
                    *_attack_json(st.attack).values(),
                    _edges_str(st.defense_planned.recover),
                    _edges_str(st.defense_effective),
                    _edges_str(st.resolved_edges),
                    st.attacker_spent,
                    st.attacker_wasted,
                    st.defender_spent,
                    st.defender_wasted,
                    st.payoff,
                ]
                + [str(x) for x in st.state]
            )


@unlimited_digits()
def write_plans_csv(trace: Trace, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["owner", "decision_index", "start_time", "utility", "steps"])
        for p in trace.plans:
            if p.owner == ATTACKER:
                steps = [_attack_json(a) for a in p.steps]
            else:
                steps = [{"recover": _edges_str(d.recover)} for d in p.steps]
            writer.writerow([p.owner, p.decision_index, p.start_time, p.utility, json.dumps(steps)])


@unlimited_digits()
def read_trace_csv(path: Path, scenario: Scenario) -> tuple[tuple[TraceStep, ...], int | None]:
    with open(path, newline="") as fh:
        version_line = fh.readline().strip()
        if version_line != f"# trace_version {TRACE_VERSION}":
            raise ValueError(f"unsupported trace header: {version_line!r}")
        converged_text = fh.readline().strip().removeprefix("# converged_at ")
        converged_at = None if converged_text == "none" else int(converged_text)
        steps = []
        for row in csv.DictReader(fh):
            steps.append(
                TraceStep(
                    k=int(row["k"]),
                    attack=_attack_from(row),
                    defense_planned=DefenseAction(_edges_parse(row["recover_planned"])),
                    defense_effective=_edges_parse(row["recover_effective"]),
                    resolved_edges=_edges_parse(row["resolved"]),
                    state=make_state([row[f"x{i}"] for i in range(1, scenario.game.graph.n + 1)]),
                    attacker_spent=Fraction(row["attacker_spent"]),
                    attacker_wasted=Fraction(row["attacker_wasted"]),
                    defender_spent=Fraction(row["defender_spent"]),
                    defender_wasted=Fraction(row["defender_wasted"]),
                    payoff=Fraction(row["payoff"]),
                )
            )
    return tuple(steps), converged_at


@unlimited_digits()
def read_plans_csv(path: Path) -> tuple[Plan, ...]:
    plans = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            raw = json.loads(row["steps"])
            if row["owner"] == ATTACKER:
                steps = tuple(_attack_from(d) for d in raw)
            else:
                steps = tuple(DefenseAction(_edges_parse(d["recover"])) for d in raw)
            plans.append(
                Plan(
                    owner=row["owner"],
                    decision_index=int(row["decision_index"]),
                    start_time=int(row["start_time"]),
                    steps=steps,
                    utility=Fraction(row["utility"]),
                )
            )
    return tuple(plans)


def read_run(outdir: Path, scenario: Scenario) -> Trace:
    """Rebuild a trace from the files cmd_run wrote."""
    steps, converged_at = read_trace_csv(outdir / "trace.csv", scenario)
    plans = read_plans_csv(outdir / "plans.csv")
    return Trace(scenario=scenario, steps=steps, plans=plans, converged_at=converged_at)


def _plot_float(value: Fraction) -> float:
    """The nearest float; a value beyond the float range plots as an infinity of its sign."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def write_plot_csvs(trace: Trace, outdir: Path) -> None:
    """Float tables for plotting: states over time and energy ledgers over time."""
    game = trace.scenario.game
    n = game.graph.n
    with open(outdir / "plot_states.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k"] + [f"x{i}" for i in range(1, n + 1)])
        for k, state in enumerate(trace.states()):
            writer.writerow([k] + [_plot_float(x) for x in state])
    with open(outdir / "plot_energy.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k", "attacker_budget", "attacker_spent", "attacker_wasted",
             "defender_budget", "defender_spent", "defender_wasted"]
        )
        for st in trace.steps:
            writer.writerow(
                [
                    st.k,
                    _plot_float(budget_at(game.attacker_energy, st.k)),
                    _plot_float(st.attacker_spent),
                    _plot_float(st.attacker_wasted),
                    _plot_float(budget_at(game.defender_energy, st.k)),
                    _plot_float(st.defender_spent),
                    _plot_float(st.defender_wasted),
                ]
            )


# --- subcommands -----------------------------------------------------------------


def _load(arg: str) -> Scenario:
    path = Path(arg)
    if path.exists():
        return load_scenario(path)
    if arg in bundled_names():
        return bundled_scenario(arg)
    raise ScenarioError("scenario", f"{arg!r} is neither a file nor a bundled name {bundled_names()}")


def _output_dir(raw: str) -> Path:
    """The artifact directory, created before any run; a path that cannot be one is refused."""
    outdir = Path(raw)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError("output", f"cannot create directory {raw!r}: {exc}") from exc
    return outdir


def _game_gate(scenario: Scenario, override: int | None) -> None:
    bound = scenario.work_bound_game if override is None else override
    if scenario.game_work > bound:
        raise WorkBoundExceeded(
            f"instance work |E|*max(h) = {scenario.game_work} exceeds bound {bound}"
        )


def cmd_run(args) -> int:
    scenario = _load(args.scenario)
    _game_gate(scenario, args.work_bound)
    outdir = _output_dir(args.output)
    trace = run(scenario)
    summary = summarize(trace)
    (outdir / "scenario.json").write_text(dumps_scenario(scenario))
    write_trace_csv(trace, outdir / "trace.csv")
    write_plans_csv(trace, outdir / "plans.csv")
    write_plot_csvs(trace, outdir)
    summary_json = json.dumps(_jsonable(summary), indent=2)
    with open(outdir / "summary.json", "w") as fh:
        fh.write(summary_json)
        fh.write("\n")
    if args.json:
        print(summary_json)
    else:
        print(summary_text(summary))
        print(f"artifacts: {outdir}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    scenario = _load(args.scenario)
    game = scenario.game
    mode = game.cost_model.mode
    bound = scenario.work_bound_theta if args.work_bound is None else args.work_bound
    report = check_conditions(game)
    theta = theta_vector(game.graph, mode, work_bound=bound)
    cluster_bound = cluster_upper_bound(game, theta=theta)
    if args.json:
        print(
            json.dumps(
                {
                    "scenario": scenario.name,
                    "conditions": _jsonable(report),
                    "theta": {"mode": theta.mode, "values": list(theta.values)},
                    "cluster_bound": cluster_bound,
                },
                indent=2,
            )
        )
        return EXIT_OK
    kind = "node" if mode == NODE_ATTACK else "edge"
    print(f"scenario: {scenario.name}")
    print(f"edge connectivity: {report.edge_conn}")
    print(f"normal-rate ratio rho/beta: {report.ratio_normal}")
    print(f"strong-rate ratio rho/beta_strong: {report.ratio_strong}")
    print(f"necessary (normal price): {report.necessary_normal}")
    print(f"necessary (strong price): {report.necessary_strong}")
    print(f"tighter condition applicable: {report.tighter_applicable} (case a: {report.case_a}, case b: {report.case_b})")
    print(f"sufficient for full split: {report.sufficient_full_split}")
    print(f"node-attack thresholds: normal {report.necessary_normal_node}, strong {report.necessary_strong_node}")
    print(f"theta ({kind} removals 1..{len(theta.values)}): {list(theta.values)}")
    print(f"cluster upper bound: {cluster_bound}")
    return EXIT_OK


SWEEP_COLUMNS = [
    "name", "status", "error", "verdict", "cluster_count", "cluster_bound",
    "steps", "converged_at", "attacker_spent", "attacker_wasted",
    "defender_spent", "defender_wasted",
]


def _apply_point(base: dict, point: dict, name: str) -> Scenario:
    """The base scenario's dict with the point's values, loaded as a file is."""
    data = {**base, "name": name}
    for key, value in point.items():
        section, field = GRID_PARAMS[key]
        data[section] = {**data[section], field: value}
    return scenario_from_dict(data)


def _parse_grid(raw_axes: list[str]) -> list[dict]:
    axes = {}
    for raw_axis in raw_axes:
        name, _, raw = raw_axis.partition("=")
        if name not in GRID_PARAMS:
            raise ScenarioError("grid", f"unknown grid parameter {name!r}; choose from {tuple(GRID_PARAMS)}")
        if name in axes:
            raise ScenarioError("grid", f"grid parameter {name!r} is given twice; list all its values in one axis")
        if not raw:
            raise ScenarioError("grid", f"grid axis {raw_axis!r} needs comma-separated values")
        parse = as_fraction if name.startswith("rho_") else int
        try:
            axes[name] = [parse(v) for v in raw.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError("grid", f"bad value in grid axis {raw_axis!r}: {exc}") from exc
    return [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]


def cmd_sweep(args) -> int:
    base = scenario_to_dict(_load(args.scenario))
    points = _parse_grid(args.grid)
    outdir = _output_dir(args.output)
    rows = []
    for point in points:
        label = ",".join(f"{k}={v}" for k, v in point.items())
        row = {c: "" for c in SWEEP_COLUMNS}
        row["name"] = f"{base['name']}[{label}]" if label else base["name"]
        try:
            scenario = _apply_point(base, point, row["name"])
            _game_gate(scenario, args.work_bound)
            summary = summarize(run(scenario))
        except ScenarioError as err:
            row["status"] = "validation_error"
            row["error"] = str(err)
        except WorkBoundExceeded as err:
            row["status"] = "work_bound_exceeded"
            row["error"] = str(err)
        else:
            fields = _jsonable(summary)
            row.update({c: fields[c] for c in SWEEP_COLUMNS if c in fields}, status="ok")
        rows.append(row)

    table = outdir / "sweep.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    done = sum(1 for r in rows if r["status"] == "ok")
    print(f"swept {len(rows)} points ({done} ok) -> {table}")
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = _load(args.scenario)
    if args.json:
        print(dumps_scenario(scenario), end="")
    else:
        graph = scenario.game.graph
        print(f"ok: {scenario.name} (n={graph.n}, |E|={len(graph.edges)}, K={scenario.K})")
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------------


def _work_bound(raw: str) -> int:
    """A `--work-bound` value: an integer of at least 0, where 0 refuses every instance at the gate."""
    try:
        bound = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}") from None
    if bound < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {bound}")
    return bound


_FLAGS = {
    "--json": dict(action="store_true", help="machine-readable output"),
    "--work-bound": dict(type=_work_bound, default=None, help="override the configured work bound"),
}


def _add_common(parser: argparse.ArgumentParser, *flags: str) -> None:
    """The scenario argument and those of `_FLAGS` the subcommand reads."""
    parser.add_argument("scenario", help="scenario file path or bundled name")
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jamgame", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write trace artifacts")
    _add_common(p_run, "--json", "--work-bound")
    p_run.add_argument("--output", default="jamgame_out", help="artifact directory")
    p_run.set_defaults(handler=cmd_run)

    p_analyze = sub.add_parser("analyze", help="print conditions, theta, and cluster bound")
    _add_common(p_analyze, "--json", "--work-bound")
    p_analyze.set_defaults(handler=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="run a grid of scenario variations")
    _add_common(p_sweep, "--work-bound")
    p_sweep.add_argument("--output", default="jamgame_out", help="artifact directory")
    p_sweep.add_argument(
        "--grid",
        action="append",
        default=[],
        metavar="PARAM=V1,V2",
        help=f"sweep axis; repeatable; parameters: {', '.join(GRID_PARAMS)}",
    )
    p_sweep.set_defaults(handler=cmd_sweep)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    _add_common(p_validate, "--json")
    p_validate.set_defaults(handler=cmd_validate)
    return parser


@unlimited_digits()
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ScenarioError as err:
        print(f"invalid scenario: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except WorkBoundExceeded as err:
        print(f"work bound exceeded: {err}", file=sys.stderr)
        return EXIT_WORK_BOUND


if __name__ == "__main__":
    sys.exit(main())
