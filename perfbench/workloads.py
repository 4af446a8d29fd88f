"""Seeded scenario generators for the three benchmark workloads.

Each workload turns a seed into one scenario JSON document and names the
`jamgame` command line that consumes it. The generated file is the only input
the program receives. `smoke=True` shrinks every workload to a size that runs
in well under a second, for the harness's own tests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

DEFAULT_SEED = 1

# case1's energies, shared by the two `run` workloads.
ATTACKER_ENERGY = {"kappa": "3/2", "rho": "3/2", "beta_normal": 1, "beta_strong": 2}
DEFENDER_ENERGY = {"kappa": "1/2", "rho": "1/2", "beta_recover": 1}
PATH3 = [[1, 2], [2, 3]]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # jamgame subcommand: "run" or "analyze"
    params: dict  # generator parameters, full size
    smoke_params: dict  # generator parameters, smoke size
    why: str
    # (function, every): each iteration reads the clocks and times the reference
    # loop at every `every`-th call of this function (tracer.Checkpoints),
    # cutting it into segments of at most about 0.1 s at full size on a fast
    # core, each scaled by the host speed beside it (run.normalized_seconds). analyze_static counts the attack-set sizes that
    # theta enumeration iterates over, which adds no per-subset call.
    checkpoint: tuple[str, int]

    def parameters(self, smoke: bool) -> dict:
        return self.smoke_params if smoke else self.params

    def scenario(self, seed: int, smoke: bool = False) -> dict:
        rng = random.Random(f"jamgame-bench/{self.name}/{seed}")
        return GENERATORS[self.name](rng, self.parameters(smoke), f"{self.name}-s{seed}")

    def argv(self, scenario_path: str, outdir: str) -> list[str]:
        if self.command == "run":
            return ["run", scenario_path, "--output", outdir, "--json"]
        return ["analyze", scenario_path, "--json"]


def _distinct_integers(rng: random.Random, n: int, low: int, high: int) -> list[int]:
    return rng.sample(range(low, high + 1), n)


def _run_scenario(rng, p: dict, name: str) -> dict:
    """A 3-agent path game with case1's energies and a seeded initial state."""
    return {
        "format_version": 1,
        "name": name,
        "graph": {"n": 3, "edges": PATH3},
        "initial_state": _distinct_integers(rng, 3, p["state_low"], p["state_high"]),
        "weights": {"kind": "uniform", "value": "1/3"},
        "utility": {"a": 1, "b": 0},
        "attacker_energy": ATTACKER_ENERGY,
        "defender_energy": DEFENDER_ENERGY,
        "horizons": {"attacker": p["h_attacker"], "defender": p["h_defender"]},
        "periods": {"attacker": p["T_attacker"], "defender": p["T_defender"]},
        "cost_model": {"mode": "edge", "waste": "charged"},
        "K": p["K"],
        "tolerances": {"convergence_window": p["convergence_window"]},
    }


def _connected_graph(rng: random.Random, n: int, m: int) -> list[list[int]]:
    """A random spanning tree on 1..n plus random extra edges, m edges in all."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    rest = sorted(set(itertools.combinations(range(1, n + 1), 2)) - edges)
    edges.update(rng.sample(rest, m - len(edges)))
    return [list(e) for e in sorted(edges)]


def _analyze_scenario(rng, p: dict, name: str) -> dict:
    """A seeded connected graph; rho/beta_normal >= 1 and rho/beta_strong < |E|,
    so cluster_upper_bound enumerates theta as well."""
    n = p["n"]
    return {
        "format_version": 1,
        "name": name,
        "graph": {"n": n, "edges": _connected_graph(rng, n, p["edges"])},
        "initial_state": _distinct_integers(rng, n, 0, 10 * n),
        "weights": {"kind": "uniform", "value": f"1/{n}"},
        "utility": {"a": 1, "b": 0},
        "attacker_energy": {"kappa": 2, "rho": 2, "beta_normal": 1, "beta_strong": 2},
        "defender_energy": DEFENDER_ENERGY,
        "horizons": {"attacker": 2, "defender": 2},
        "periods": {"attacker": 2, "defender": 1},
        "cost_model": {"mode": "edge", "waste": "charged"},
        "K": 1,
        "work_bounds": {"theta": p["edges"]},
    }


GENERATORS = {
    "solver_deep": _run_scenario,
    "trace_long": _run_scenario,
    "analyze_static": _analyze_scenario,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solver_deep",
            "run",
            params=dict(h_attacker=6, h_defender=4, T_attacker=2, T_defender=3, K=4,
                        convergence_window=10, state_low=0, state_high=20),
            smoke_params=dict(h_attacker=3, h_defender=3, T_attacker=2, T_defender=3, K=2,
                              convergence_window=10, state_low=0, state_high=20),
            why="fig1_schedule's cadences and windows (3-agent path, case1 energies, periods A=2/D=3, "
            "horizons 6/4) cut to K=4: four decisions, and the game module does nearly all the work "
            "(about 130k StepCache.step, 120k defense_cost and 70k budget_at calls). States keep "
            "denominators of at most 7 bits and rolling/cli do almost nothing, so pruning and "
            "leaf-cost changes show here.",
            checkpoint=("jamgame.game:StepCache.step", 2000),
        ),
        Workload(
            "trace_long",
            "run",
            params=dict(h_attacker=1, h_defender=1, T_attacker=1, T_defender=1, K=600,
                        convergence_window=601, state_low=0, state_high=20),
            smoke_params=dict(h_attacker=1, h_defender=1, T_attacker=1, T_defender=1, K=40,
                              convergence_window=41, state_low=0, state_high=20),
            why="case1's graph and energies with h=T=1 for both players and K=600; the convergence "
            "window K+1 makes all 600 steps run. The search is trivial (about 23 leaves per "
            "decision); the cost is in rolling.knowledge_for rescanning the whole plan history "
            "(growing with K^2), in hashing memo keys and doing arithmetic on states whose "
            "denominators grow to about 715 bits, and in writing a 600-row trace. Many cheap "
            "decisions on huge numbers: extra per-decision set-up, or a representation that favours "
            "small numbers, shows here as a loss.",
            checkpoint=("jamgame.game:solve_decision", 40),
        ),
        Workload(
            "analyze_static",
            "analyze",
            params=dict(n=8, edges=16),
            smoke_params=dict(n=5, edges=8),
            why="jamgame analyze --json on a seeded connected 8-agent graph with 16 edges (the default "
            "theta bound); the attacker's energy makes cluster_upper_bound enumerate theta too, so "
            "all 2^16 attack sets are enumerated twice. analysis and network do all the work and no "
            "game, dynamics or rolling code runs, so a solver change should leave it unchanged.",
            checkpoint=("itertools:combinations", 1),
        ),
    )
}
