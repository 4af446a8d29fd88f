"""Tests for decision scheduling, the information rule, and trace execution."""

from dataclasses import replace
from fractions import Fraction

import pytest

from jamgame import game, rolling
from jamgame.dynamics import Weights, consensus_step, make_state
from jamgame.energy import EnergyParams, budget_at
from jamgame.game import ATTACKER, DEFENDER, AttackAction, DefenseAction, Game, Plan, Schedule, UtilityWeights
from jamgame.network import Graph, apply_actions
from jamgame.rolling import Trace, run
from jamgame.scenario import Scenario, bundled_scenario

PATH3 = Graph.from_edges(3, [(1, 2), (2, 3)])

FIG1 = Schedule(T_attacker=2, T_defender=3, h_attacker=6, h_defender=4)


def scenario(
    attacker=("1.5", "1.5", 1, 2),
    defender=("0.5", "0.5", 1),
    h_attacker=1,
    h_defender=1,
    T_attacker=1,
    T_defender=1,
    K=20,
    state=(1, 2, 3),
    graph=PATH3,
):
    g = Game(
        graph,
        Weights.uniform(graph),
        UtilityWeights(a=1, b=0),
        Schedule(T_attacker, T_defender, h_attacker, h_defender),
        EnergyParams.attacker(*attacker),
        EnergyParams.defender(*defender),
    )
    return Scenario(g, make_state(state), K=K)


def plan(owner, start, steps, period_hint=None):
    return Plan(owner=owner, decision_index=start + 1, start_time=start, steps=tuple(steps), utility=Fraction(0))


def attack(strong=(), normal=()):
    return AttackAction(frozenset(strong), frozenset(normal))


def defense(recover=()):
    return DefenseAction(frozenset(recover))


class TestSchedule:
    def test_lcm_period(self):
        assert FIG1.lcm_period == 6
        assert Schedule(1, 1, 1, 1).lcm_period == 1

    def test_rejects_period_beyond_horizon(self):
        with pytest.raises(ValueError):
            Schedule(T_attacker=3, T_defender=1, h_attacker=2, h_defender=1)


def decision_times(sched, player, K):
    return tuple(k for k in range(K) if sched.decides(player, k))


class TestDecisionTimes:
    def test_staggered_schedule(self):
        assert decision_times(FIG1, ATTACKER, 7) == (0, 2, 4, 6)
        assert decision_times(FIG1, DEFENDER, 7) == (0, 3, 6)
        assert tuple(k for k in range(7) if k % FIG1.lcm_period == 0) == (0, 6)

    def test_every_step_when_periods_are_one(self):
        sched = Schedule(1, 1, 2, 2)
        assert decision_times(sched, ATTACKER, 4) == (0, 1, 2, 3)
        assert decision_times(sched, DEFENDER, 4) == (0, 1, 2, 3)
        assert sched.lcm_period == 1

    def test_fast_attacker_slow_defender(self):
        sched = Schedule(1, 2, 3, 2)
        assert decision_times(sched, ATTACKER, 4) == (0, 1, 2, 3)
        assert decision_times(sched, DEFENDER, 4) == (0, 2)

    def test_no_decision_before_time_zero(self):
        assert not FIG1.decides(ATTACKER, -2)
        assert not FIG1.decides(DEFENDER, -3)


class TestKnows:
    def test_common_time_plans_are_mutually_known(self):
        # the defender decided at 0 alongside the attacker; at 2 that block is in force
        assert FIG1.anchor(DEFENDER, 2) == 0
        assert FIG1.knows(ATTACKER, 2)

    def test_longer_horizon_player_reconstructs_covered_decision(self):
        # defender decides at 3 with window [3,6]; the attacker's window from its
        # latest decision at 2 is [2,7], which covers it
        assert FIG1.anchor(DEFENDER, 4) == 3
        assert FIG1.knows(ATTACKER, 4)

    def test_shorter_horizon_player_learns_nothing_off_schedule(self):
        # the attacker's plan from 2 runs to 7, past the defender's window [0,3]
        assert FIG1.anchor(ATTACKER, 3) == 2
        assert not FIG1.knows(DEFENDER, 3)

    def test_anchor_is_the_latest_decision_at_or_before(self):
        assert [FIG1.anchor(DEFENDER, t) for t in range(8)] == [0, 0, 0, 3, 3, 3, 6, 6]
        assert [FIG1.anchor(ATTACKER, t) for t in range(8)] == [0, 0, 2, 2, 4, 4, 6, 6]

    def test_plan_decided_alongside_the_mover_is_not_known(self):
        # at the common time 6 the attacker decides first; the defender deciding
        # at 6 must predict that plan, not read it
        assert not FIG1.knows(DEFENDER, 6)
        assert not FIG1.knows(ATTACKER, 6)
        assert not FIG1.knows(ATTACKER, 0)


def reference_knows(mover, k, opponent_plan, sched):
    """The information rule as two functions stated it before `Schedule.knows`.

    The first half chose the block a run handed the mover; the second is the
    layout's search, which read a block only if the opponent decided it at its
    latest decision time before k.
    """
    if opponent_plan is None or opponent_plan.owner == mover or opponent_plan.start_time >= k:
        return False
    t_d = opponent_plan.start_time
    if not (sched.decides(ATTACKER, t_d) and sched.decides(DEFENDER, t_d)):
        t_m = (t_d // sched.period(mover)) * sched.period(mover)
        if t_d + len(opponent_plan.steps) - 1 > t_m + sched.horizon(mover) - 1:
            return False
    T_o = sched.period(opponent_plan.owner)
    cur_anchor = (k // T_o) * T_o
    return cur_anchor < k and t_d == cur_anchor


def test_knows_matches_the_reference_rule_on_every_small_schedule():
    cadences = [(T, h) for h in range(1, 7) for T in range(1, h + 1)]
    schedules = decisions = 0
    for T_a, h_a in cadences:
        for T_d, h_d in cadences:
            sched = Schedule(T_attacker=T_a, T_defender=T_d, h_attacker=h_a, h_defender=h_d)
            schedules += 1
            current = {}  # the plans in force, as a run holds them when each mover decides
            for k in range(60):
                for mover in (ATTACKER, DEFENDER):
                    if not sched.decides(mover, k):
                        continue
                    expected = reference_knows(mover, k, current.get(game.opponent(mover)), sched)
                    assert sched.knows(mover, k) == expected, (sched, mover, k)
                    current[mover] = plan(mover, k, [None] * sched.horizon(mover))
                    decisions += 1
    assert (schedules, decisions) == (441, 28098)


def unattacked_reference(s: Scenario, length: int):
    states = []
    x = s.initial_state
    for _ in range(length):
        x = consensus_step(x, s.game.graph, s.game.weights)
        states.append(x)
    return states


class TestRun:
    def test_unaffordable_attacks_match_plain_consensus(self):
        # action prices far above any budget reachable within K steps
        s = scenario(attacker=("0.25", "0.25", 100, 200), defender=("0.25", "0.25", 100), K=25)
        trace = run(s)
        reference = unattacked_reference(s, len(trace.steps))
        for step, ref in zip(trace.steps, reference):
            assert step.state == ref
            assert step.attack == attack()
            assert step.defense_planned == defense()
            assert step.resolved_edges == s.game.graph.edges

    def test_ledger_safety_at_every_step(self):
        s = scenario(h_attacker=3, h_defender=2, T_attacker=1, T_defender=2, K=12)
        trace = run(s)
        for step in trace.steps:
            assert step.attacker_spent <= budget_at(s.game.attacker_energy, step.k)
            assert step.defender_spent <= budget_at(s.game.defender_energy, step.k)
            assert step.attacker_wasted <= step.attacker_spent
            assert step.defender_wasted <= step.defender_spent

    def test_plan_prefix_discipline(self):
        s = scenario(h_attacker=3, h_defender=2, T_attacker=1, T_defender=2, K=12)
        trace = run(s)
        for step in trace.steps:
            for owner, applied, period in (
                (ATTACKER, step.attack, s.game.schedule.T_attacker),
                (DEFENDER, step.defense_planned, s.game.schedule.T_defender),
            ):
                current = max(
                    (p for p in trace.plans if p.owner == owner and p.start_time <= step.k),
                    key=lambda p: p.start_time,
                )
                offset = step.k - current.start_time
                assert offset < period
                assert current.steps[offset] == applied

    def test_effective_recovery_and_resolution_consistency(self):
        s = scenario(h_attacker=2, h_defender=2, T_attacker=2, T_defender=2, K=14)
        trace = run(s)
        for step in trace.steps:
            assert step.defense_effective == step.defense_planned.recover & step.attack.normal
            resolved = apply_actions(s.game.graph, step.attack.strong, step.attack.normal, step.defense_planned.recover)
            assert step.resolved_edges == resolved.edges

    def test_overdrawn_committed_action_is_refused(self, monkeypatch):
        # The solver never overdraws, so a plan that does is a fault, stopped where it is applied.
        real = rolling.solve_decision

        def overdrawing(ctx, cache):
            plan = real(ctx, cache)
            if ctx.mover == DEFENDER:
                return plan
            return replace(plan, steps=(attack(strong=PATH3.edges),) * len(plan.steps))

        monkeypatch.setattr(rolling, "solve_decision", overdrawing)
        with pytest.raises(RuntimeError, match="committed attacker action exceeds budget at k=0: spent 4, budget 3/2"):
            run(scenario())

    def test_deterministic(self):
        s = scenario(h_attacker=2, h_defender=2, T_attacker=1, T_defender=2, K=10, state=(0, 5, 9))
        assert run(s) == run(s)

    def test_early_stop_on_stationary_state(self):
        s = scenario(attacker=("0.25", "0.25", 100, 200), defender=("0.25", "0.25", 100), K=500)
        trace = run(s)
        assert trace.converged_at is not None
        assert len(trace.steps) == trace.converged_at + 1
        assert len(trace.steps) < 500
        final, prev = trace.steps[-1].state, trace.steps[-2].state
        assert max(abs(b - a) for a, b in zip(prev, final)) < s.convergence_eps

    def test_decisions_happen_on_schedule(self):
        s = scenario(h_attacker=4, h_defender=2, T_attacker=2, T_defender=2, K=8)
        trace = run(s)
        att_times = [p.start_time for p in trace.plans if p.owner == ATTACKER]
        def_times = [p.start_time for p in trace.plans if p.owner == DEFENDER]
        assert att_times == [0, 2, 4, 6]
        assert def_times == [0, 2, 4, 6]
        indices = [p.decision_index for p in trace.plans if p.owner == ATTACKER]
        assert indices == [1, 2, 3, 4]

    def test_solver_prices_once_per_run_not_once_per_decision(self, monkeypatch):
        # h = T = 1 makes every step two fresh decisions; the solver's defense
        # prices are bounded by the distinct (recover, normal) pairs, not by K.
        real = game.defense_cost
        base = bundled_scenario("case1")
        single_step = replace(base.game, schedule=Schedule(1, 1, 1, 1))
        counts = []
        for K in (20, 60):
            calls = []
            monkeypatch.setattr(game, "defense_cost", lambda *args: calls.append(args) or real(*args))
            s = replace(base, game=single_step, K=K, convergence_window=K + 1)
            assert len(run(s).steps) == K
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_group_index_once_per_resolved_graph(self, monkeypatch):
        # The step cache stores each resolved graph with its group index, so
        # new states reached through a known resolution do not recount it.
        calls, caches = [], []
        real_index, real_cache = game.agent_group_index, rolling.StepCache
        monkeypatch.setattr(game, "agent_group_index", lambda g: calls.append(g) or real_index(g))
        monkeypatch.setattr(rolling, "StepCache", lambda g: caches.append(real_cache(g)) or caches[-1])
        run(bundled_scenario("case1"))
        (cache,) = caches
        assert 0 < len(calls) <= len(cache._resolved)

    def test_states_helper_includes_initial(self):
        s = scenario(K=5)
        trace = run(s)
        states = trace.states()
        assert states[0] == s.initial_state
        assert states[1:] == [st.state for st in trace.steps]
