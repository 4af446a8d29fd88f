"""Time-marching game execution.

Walks k = 0..K-1, re-solving each player's plan at its decision times, applying
the committed plan prefixes open-loop, resolving attacks against recoveries,
stepping the consensus dynamics, and recording everything needed for analysis.
The defender's planned recovery lands only on edges normally attacked that
step; the rest of the planned set is waste. A run stops early once the state
is numerically stationary for a configured number of consecutive steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .dynamics import State, consensus_step
from .energy import NODE_ATTACK, EnergyLedger, attack_cost, defense_cost
from .game import (
    ATTACKER,
    DEFENDER,
    AttackAction,
    CommittedBlock,
    DefenseAction,
    Plan,
    SolveContext,
    StepCache,
    solve_decision,
    step_payoff,
)
from .network import Edge, apply_actions
from .scenario import Scenario


@dataclass(frozen=True)
class Schedule:
    """Decision cadence and lookahead window length for both players."""

    T_attacker: int
    T_defender: int
    h_attacker: int
    h_defender: int

    def __post_init__(self) -> None:
        for who, h, T in (
            ("attacker", self.h_attacker, self.T_attacker),
            ("defender", self.h_defender, self.T_defender),
        ):
            if not 1 <= T <= h:
                raise ValueError(f"{who} needs 1 <= period <= horizon, got T={T}, h={h}")

    @property
    def lcm_period(self) -> int:
        return math.lcm(self.T_attacker, self.T_defender)

    def period(self, player: str) -> int:
        return self.T_attacker if player == ATTACKER else self.T_defender

    def horizon(self, player: str) -> int:
        return self.h_attacker if player == ATTACKER else self.h_defender


@dataclass(frozen=True)
class DecisionTimes:
    attacker: tuple[int, ...]
    defender: tuple[int, ...]
    common: tuple[int, ...]


def decision_times(sched: Schedule, K: int) -> DecisionTimes:
    """All decision points in [0, K); common times are where both re-decide."""
    if K < 1:
        raise ValueError("K must be at least 1")
    return DecisionTimes(
        attacker=tuple(range(0, K, sched.T_attacker)),
        defender=tuple(range(0, K, sched.T_defender)),
        common=tuple(range(0, K, sched.lcm_period)),
    )


def knowledge_for(mover: str, k: int, history: Sequence[Plan], sched: Schedule) -> tuple[CommittedBlock, ...]:
    """Opponent plan prefixes the mover is entitled to know when deciding at k.

    A committed plan is known iff it was decided at a common decision time, or
    the opponent's whole planning window fits inside the window the mover had in
    force when the opponent decided. Only the applied prefix is ever knowable;
    the rest is superseded by the opponent's next decision.
    """
    out = []
    h_m = sched.horizon(mover)
    T_m = sched.period(mover)
    for plan in history:
        if plan.owner == mover or plan.start_time > k:
            continue
        t_d = plan.start_time
        if t_d % sched.lcm_period == 0:
            admitted = True
        else:
            t_m = (t_d // T_m) * T_m
            admitted = t_d + len(plan.steps) - 1 <= t_m + h_m - 1
        if admitted:
            T_o = sched.period(plan.owner)
            out.append(CommittedBlock(plan.owner, t_d, plan.steps[:T_o]))
    return tuple(out)


@dataclass(frozen=True)
class TraceStep:
    """One resolved time step with cumulative ledgers after it."""

    k: int
    attack: AttackAction
    defense_planned: DefenseAction
    defense_effective: frozenset[Edge]
    resolved_edges: frozenset[Edge]
    state: State
    attacker_spent: Fraction
    attacker_wasted: Fraction
    defender_spent: Fraction
    defender_wasted: Fraction
    payoff: Fraction


@dataclass(frozen=True)
class Trace:
    scenario: Scenario
    steps: tuple[TraceStep, ...]
    plans: tuple[Plan, ...]
    converged_at: int | None

    @property
    def final_state(self) -> State:
        return self.steps[-1].state if self.steps else self.scenario.initial_state

    def states(self) -> list[State]:
        """Initial state followed by the post-update state of every step."""
        return [self.scenario.initial_state] + [s.state for s in self.steps]


def _solve(scenario: Scenario, sched: Schedule, mover: str, k: int, x: State,
           att: EnergyLedger, dfn: EnergyLedger, history: Sequence[Plan],
           cache: StepCache) -> Plan:
    ctx = SolveContext(
        base_graph=scenario.graph,
        weights=scenario.weights,
        util=scenario.util,
        state=x,
        t0=k,
        mover=mover,
        h_attacker=sched.h_attacker,
        h_defender=sched.h_defender,
        T_attacker=sched.T_attacker,
        T_defender=sched.T_defender,
        attacker_params=scenario.attacker_energy,
        defender_params=scenario.defender_energy,
        cost_model=scenario.cost_model,
        attacker_spent=att.spent,
        defender_spent=dfn.spent,
        known_blocks=knowledge_for(mover, k, history, sched),
    )
    return solve_decision(ctx, cache=cache)


def run(scenario: Scenario) -> Trace:
    """Execute one full game and return its trace."""
    sched = Schedule(
        T_attacker=scenario.T_attacker,
        T_defender=scenario.T_defender,
        h_attacker=scenario.h_attacker,
        h_defender=scenario.h_defender,
    )
    g = scenario.graph
    cm = scenario.cost_model
    cache = StepCache(g, scenario.weights)
    x = scenario.initial_state
    att_ledger = EnergyLedger(scenario.attacker_energy)
    def_ledger = EnergyLedger(scenario.defender_energy)
    plans: list[Plan] = []
    current: dict[str, Plan] = {}
    steps: list[TraceStep] = []
    stable = 0
    converged_at = None

    for k in range(scenario.K):
        past = tuple(plans)
        if k % sched.T_attacker == 0:
            current[ATTACKER] = _solve(scenario, sched, ATTACKER, k, x, att_ledger, def_ledger, past, cache)
            plans.append(current[ATTACKER])
        if k % sched.T_defender == 0:
            current[DEFENDER] = _solve(scenario, sched, DEFENDER, k, x, att_ledger, def_ledger, past, cache)
            plans.append(current[DEFENDER])

        atk = current[ATTACKER].steps[k - current[ATTACKER].start_time]
        dfn = current[DEFENDER].steps[k - current[DEFENDER].start_time]

        if cm.mode == NODE_ATTACK:
            a_cost = attack_cost(atk.strong_nodes, atk.normal_nodes, scenario.attacker_energy)
        else:
            a_cost = attack_cost(atk.strong, atk.normal, scenario.attacker_energy)
        d_cost, d_waste = defense_cost(dfn.recover, atk.normal, cm, scenario.defender_energy)

        att_ledger = att_ledger.charge(a_cost)
        def_ledger = def_ledger.charge(d_cost, d_waste)
        for who, ledger in (("attacker", att_ledger), ("defender", def_ledger)):
            if not ledger.within_budget(k):
                raise RuntimeError(
                    f"committed {who} action exceeds budget at k={k}: "
                    f"spent {ledger.spent}, budget {ledger.params.kappa + ledger.params.rho * k}"
                )

        _, resolved = apply_actions(g, atk.strong, atk.normal, dfn.recover)
        x_next = consensus_step(x, resolved, scenario.weights)
        payoff = step_payoff(x_next, resolved, scenario.util)

        steps.append(
            TraceStep(
                k=k,
                attack=atk,
                defense_planned=dfn,
                defense_effective=dfn.recover & atk.normal,
                resolved_edges=resolved.edges,
                state=x_next,
                attacker_spent=att_ledger.spent,
                attacker_wasted=att_ledger.wasted,
                defender_spent=def_ledger.spent,
                defender_wasted=def_ledger.wasted,
                payoff=payoff,
            )
        )

        delta = max(abs(b - a) for a, b in zip(x, x_next)) if g.n else Fraction(0)
        stable = stable + 1 if delta < scenario.convergence_eps else 0
        x = x_next
        if stable >= scenario.convergence_window:
            converged_at = k
            break

    return Trace(scenario=scenario, steps=tuple(steps), plans=tuple(plans), converged_at=converged_at)
