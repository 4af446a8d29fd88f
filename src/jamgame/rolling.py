"""Time-marching game execution.

Walks k = 0..K-1 over the scenario's `Game`. At every step where its
`Schedule` says a player decides, the player's plan is re-solved from the
current state, spends and knowledge, with one `StepCache` shared by every
decision of the run. The committed plan prefixes are applied open-loop,
attacks are resolved against recoveries, the consensus dynamics step, and
everything needed for analysis is recorded. The defender's planned recovery
lands only on edges normally attacked that step; the rest of the planned set
is waste. A run stops early once the state is numerically stationary for a
configured number of consecutive steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dynamics import State, consensus_step
from .energy import EnergyLedger, budget_at, defense_cost
from .game import (
    ATTACKER,
    DEFENDER,
    AttackAction,
    CommittedBlock,
    DefenseAction,
    Plan,
    Schedule,
    SolveContext,
    StepCache,
    opponent,
    solve_decision,
    step_payoff,
)
from .network import Edge, apply_actions
from .scenario import Scenario


def knowledge_for(mover: str, k: int, opponent_plan: Plan | None, sched: Schedule) -> tuple[CommittedBlock, ...]:
    """The opponent block the mover is entitled to know when deciding at k.

    Only the opponent's plan in force can matter: earlier plans are superseded,
    and a plan decided at k itself is made alongside the mover's and is
    predicted instead. The plan in force is known iff it was decided at a
    common decision time, or the opponent's whole planning window fits inside
    the window the mover had in force when the opponent decided. Only the
    applied prefix is ever knowable; the rest is superseded by the opponent's
    next decision.
    """
    if opponent_plan is None or opponent_plan.owner == mover or opponent_plan.start_time >= k:
        return ()
    t_d = opponent_plan.start_time
    if not (sched.decides(ATTACKER, t_d) and sched.decides(DEFENDER, t_d)):
        t_m = (t_d // sched.period(mover)) * sched.period(mover)
        if t_d + len(opponent_plan.steps) - 1 > t_m + sched.horizon(mover) - 1:
            return ()
    block = opponent_plan.steps[: sched.period(opponent_plan.owner)]
    return (CommittedBlock(opponent_plan.owner, t_d, block),)


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


def run(scenario: Scenario) -> Trace:
    """Execute one full game and return its trace."""
    game = scenario.game
    sched, g = game.schedule, game.graph
    cache = StepCache(game)
    x = scenario.initial_state
    att_ledger = EnergyLedger(game.attacker_energy)
    def_ledger = EnergyLedger(game.defender_energy)
    plans: list[Plan] = []
    current: dict[str, Plan] = {}
    steps: list[TraceStep] = []
    stable = 0
    converged_at = None

    for k in range(scenario.K):
        for mover in (ATTACKER, DEFENDER):
            if sched.decides(mover, k):
                known = knowledge_for(mover, k, current.get(opponent(mover)), sched)
                ctx = SolveContext(game, x, k, mover, att_ledger.spent, def_ledger.spent, known)
                current[mover] = solve_decision(ctx, cache)
                plans.append(current[mover])

        atk = current[ATTACKER].steps[k - current[ATTACKER].start_time]
        dfn = current[DEFENDER].steps[k - current[DEFENDER].start_time]

        a_cost = atk.cost(game.attacker_energy)
        d_cost, d_waste = defense_cost(dfn.recover, atk.normal, game.cost_model, game.defender_energy)

        att_ledger = att_ledger.charge(a_cost)
        def_ledger = def_ledger.charge(d_cost, d_waste)
        for who, ledger in (("attacker", att_ledger), ("defender", def_ledger)):
            if not ledger.within_budget(k):
                raise RuntimeError(
                    f"committed {who} action exceeds budget at k={k}: "
                    f"spent {ledger.spent}, budget {budget_at(ledger.params, k)}"
                )

        _, resolved = apply_actions(g, atk.strong, atk.normal, dfn.recover)
        x_next = consensus_step(x, resolved, game.weights)
        payoff = step_payoff(x_next, resolved, game.util)

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
