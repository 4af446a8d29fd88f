"""Time-marching game execution.

Walks k = 0..K-1 over the scenario's `Game`. At every step where its
`Schedule` says a player decides, the player's plan is re-solved from the
current state, spends and knowledge, with one `StepCache` shared by every
decision of the run. The mover knows the applied block of the opponent's
plan in force exactly when `Schedule.knows` says so. The committed plan
prefixes are applied open-loop: `StepCache.commit` resolves attacks against
recoveries and steps the consensus dynamics with the solver's integer rules,
and converts back to Fractions once per value the trace records. The
defender's planned recovery lands only on edges normally attacked that step;
the rest of the planned set is waste. A committed action that overdraws its
player's budget line is a `RuntimeError`. A run stops early once the state is
numerically stationary for a configured number of consecutive steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dynamics import State
from .energy import budget_at, defense_cost
from .game import (
    ATTACKER,
    DEFENDER,
    AttackAction,
    DefenseAction,
    Plan,
    SolveContext,
    StepCache,
    opponent,
    solve_decision,
)
from .network import Edge
from .scenario import Scenario


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
    sched = game.schedule
    cache = StepCache(game)
    x = scenario.initial_state
    att_spent = def_spent = def_wasted = Fraction(0)
    plans: list[Plan] = []
    current: dict[str, Plan] = {}
    steps: list[TraceStep] = []
    stable = 0
    converged_at = None

    for k in range(scenario.K):
        for mover in (ATTACKER, DEFENDER):
            if sched.decides(mover, k):
                opp = opponent(mover)
                known = current[opp].steps[: sched.period(opp)] if sched.knows(mover, k) else ()
                ctx = SolveContext(game, x, k, mover, att_spent, def_spent, known)
                current[mover] = solve_decision(ctx, cache)
                plans.append(current[mover])

        atk = current[ATTACKER].steps[k - current[ATTACKER].start_time]
        dfn = current[DEFENDER].steps[k - current[DEFENDER].start_time]

        d_cost, d_waste = defense_cost(dfn.recover, atk.normal, game.cost_model, game.defender_energy)
        att_spent += atk.cost(game.attacker_energy)
        def_spent += d_cost
        def_wasted += d_waste
        for who, spent in ((ATTACKER, att_spent), (DEFENDER, def_spent)):
            budget = budget_at(game.energy(who), k)
            if spent > budget:
                raise RuntimeError(f"committed {who} action exceeds budget at k={k}: spent {spent}, budget {budget}")

        x_next, resolved_edges, payoff, delta = cache.commit(x, atk, dfn)
        steps.append(
            TraceStep(
                k=k,
                attack=atk,
                defense_planned=dfn,
                defense_effective=dfn.recover & atk.normal,
                resolved_edges=resolved_edges,
                state=x_next,
                attacker_spent=att_spent,
                attacker_wasted=Fraction(0),
                defender_spent=def_spent,
                defender_wasted=def_wasted,
                payoff=payoff,
            )
        )

        stable = stable + 1 if delta < scenario.convergence_eps else 0
        x = x_next
        if stable >= scenario.convergence_window:
            converged_at = k
            break

    return Trace(scenario=scenario, steps=tuple(steps), plans=tuple(plans), converged_at=converged_at)
