"""Tests for decision scheduling, the knowledge rules, and trace execution."""

from dataclasses import replace
from fractions import Fraction

import pytest

from jamgame import game, rolling
from jamgame.dynamics import Weights, consensus_step, make_state
from jamgame.energy import EnergyParams, budget_at
from jamgame.game import ATTACKER, DEFENDER, AttackAction, DefenseAction, Plan, Schedule, UtilityWeights
from jamgame.network import Graph, apply_actions
from jamgame.rolling import Trace, knowledge_for, run
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
    return Scenario(
        graph=graph,
        initial_state=make_state(state),
        weights=Weights.uniform(graph),
        util=UtilityWeights(a=1, b=0),
        attacker_energy=EnergyParams.attacker(*attacker),
        defender_energy=EnergyParams.defender(*defender),
        h_attacker=h_attacker,
        h_defender=h_defender,
        T_attacker=T_attacker,
        T_defender=T_defender,
        K=K,
    )


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


class TestKnowledgeFor:
    def test_common_time_plans_are_mutually_known(self):
        d_plan = plan(DEFENDER, 0, [defense() for _ in range(4)])
        known_to_attacker = knowledge_for(ATTACKER, 2, d_plan, FIG1)
        assert len(known_to_attacker) == 1
        block = known_to_attacker[0]
        assert block.owner == DEFENDER
        assert block.decision_time == 0
        # only the applied prefix (one period long) is knowable
        assert len(block.actions) == FIG1.T_defender

    def test_longer_horizon_player_reconstructs_covered_decision(self):
        # defender decides at 3 with window [3,6]; the attacker's window from its
        # latest decision at 2 is [2,7], which covers it
        d_plan = plan(DEFENDER, 3, [defense() for _ in range(4)])
        known = knowledge_for(ATTACKER, 4, d_plan, FIG1)
        assert len(known) == 1
        assert known[0].decision_time == 3

    def test_shorter_horizon_player_learns_nothing_off_schedule(self):
        a_plan = plan(ATTACKER, 2, [attack() for _ in range(6)])
        assert knowledge_for(DEFENDER, 3, a_plan, FIG1) == ()

    def test_own_plans_and_future_plans_excluded(self):
        a_plan = plan(ATTACKER, 2, [attack() for _ in range(6)])
        d_future = plan(DEFENDER, 6, [defense() for _ in range(4)])
        assert knowledge_for(ATTACKER, 2, a_plan, FIG1) == ()
        assert knowledge_for(ATTACKER, 2, d_future, FIG1) == ()

    def test_plan_decided_alongside_the_mover_is_not_known(self):
        # at the common time 6 the attacker decides first; the defender deciding
        # at 6 must predict that plan, not read it
        a_now = plan(ATTACKER, 6, [attack() for _ in range(6)])
        assert knowledge_for(DEFENDER, 6, a_now, FIG1) == ()
        assert knowledge_for(ATTACKER, 0, None, FIG1) == ()


def unattacked_reference(s: Scenario, length: int):
    states = []
    x = s.initial_state
    for _ in range(length):
        x = consensus_step(x, s.graph, s.weights)
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
            assert step.resolved_edges == s.graph.edges

    def test_ledger_safety_at_every_step(self):
        s = scenario(h_attacker=3, h_defender=2, T_attacker=1, T_defender=2, K=12)
        trace = run(s)
        for step in trace.steps:
            assert step.attacker_spent <= budget_at(s.attacker_energy, step.k)
            assert step.defender_spent <= budget_at(s.defender_energy, step.k)
            assert step.attacker_wasted <= step.attacker_spent
            assert step.defender_wasted <= step.defender_spent

    def test_plan_prefix_discipline(self):
        s = scenario(h_attacker=3, h_defender=2, T_attacker=1, T_defender=2, K=12)
        trace = run(s)
        for step in trace.steps:
            for owner, applied, period in (
                (ATTACKER, step.attack, s.T_attacker),
                (DEFENDER, step.defense_planned, s.T_defender),
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
            _, resolved = apply_actions(
                s.graph, step.attack.strong, step.attack.normal, step.defense_planned.recover
            )
            assert step.resolved_edges == resolved.edges

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
        counts = []
        for K in (20, 60):
            calls = []
            monkeypatch.setattr(game, "defense_cost", lambda *args: calls.append(args) or real(*args))
            s = replace(
                bundled_scenario("case1"), K=K, convergence_window=K + 1,
                h_attacker=1, h_defender=1, T_attacker=1, T_defender=1,
            )
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
