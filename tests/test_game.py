"""Tests for action enumeration, step payoffs, tie-breaking, and the plan solver."""

import gc
import math
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamgame.analysis import _Budget, _BruteForce
from jamgame.dynamics import Weights, consensus_step, make_state, state_difference
from jamgame.energy import CostModel, EnergyParams
from jamgame.game import (
    ATTACKER,
    DEFENDER,
    AttackAction,
    DefenseAction,
    Game,
    Plan,
    Schedule,
    SolveContext,
    StepCache,
    UtilityWeights,
    _attack_catalog,
    _defense_catalog,
    _Solver,
    can_sustain_full_action,
    opponent,
    solve_decision,
    step_payoff,
    tie_break,
)
from jamgame.network import Graph, agent_group_index, apply_actions
from jamgame.rolling import run
from jamgame.scenario import bundled_scenario

EDGE1 = Graph.from_edges(2, [(1, 2)])
PATH3 = Graph.from_edges(3, [(1, 2), (2, 3)])
CYCLE4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])

ABUNDANT = EnergyParams.attacker(kappa=100, rho=100, beta_normal=1, beta_strong=2)
ABUNDANT_DEF = EnergyParams.defender(kappa=100, rho=100, beta_recover=1)


def make_ctx(
    graph=PATH3,
    state=(1, 2, 3),
    t0=0,
    mover=ATTACKER,
    h_attacker=1,
    h_defender=1,
    T_attacker=1,
    T_defender=1,
    attacker=ABUNDANT,
    defender=ABUNDANT_DEF,
    cost_model=CostModel(),
    util=UtilityWeights(a=1, b=0),
    attacker_spent=0,
    defender_spent=0,
    known=(),
):
    game = Game(
        graph=graph,
        weights=Weights.uniform(graph),
        util=util,
        schedule=Schedule(
            T_attacker=T_attacker, T_defender=T_defender, h_attacker=h_attacker, h_defender=h_defender
        ),
        attacker_energy=attacker,
        defender_energy=defender,
        cost_model=cost_model,
    )
    return SolveContext(
        game=game,
        state=make_state(state),
        t0=t0,
        mover=mover,
        attacker_spent=Fraction(attacker_spent),
        defender_spent=Fraction(defender_spent),
        known=known,
    )


def attack(strong=(), normal=()):
    return AttackAction(frozenset(strong), frozenset(normal))


def defense(recover=()):
    return DefenseAction(frozenset(recover))


def solver_attacks(ctx, step_time):
    """Attack actions the solver keeps at step_time, given ctx's spend so far."""
    solver = _Solver(ctx)
    return [a for _, a in solver._attacks(step_time, int(ctx.attacker_spent * solver.M))]


def solver_defenses(ctx, step_time, attacked_normal=frozenset()):
    """Recovery actions the solver keeps at step_time against attacked_normal."""
    solver = _Solver(ctx)
    return [d for _, d in solver._defenses(step_time, int(ctx.defender_spent * solver.M), attacked_normal)]


def oracle_attacks(ctx, step_time):
    """Attack actions the brute-force oracle keeps at step_time, given ctx's spend so far."""
    return [a for _, a in _BruteForce(ctx, _Budget(1))._feasible_attacks(step_time, ctx.attacker_spent)]


def oracle_defenses(ctx, step_time, attacked_normal=frozenset()):
    """Recovery actions the brute-force oracle keeps at step_time against attacked_normal."""
    return [d for _, d in _BruteForce(ctx, _Budget(1))._feasible_defenses(step_time, ctx.defender_spent, attacked_normal)]


class TestEnumerateAttacks:
    def test_two_edges_unconstrained_gives_nine(self):
        ctx = make_ctx()
        assert len(solver_attacks(ctx, 0)) == 9

    def test_no_remaining_budget_gives_only_empty(self):
        scarce = EnergyParams.attacker(kappa="0.5", rho="0.5", beta_normal=1, beta_strong=2)
        ctx = make_ctx(attacker=scarce)
        assert solver_attacks(ctx, 0) == [attack()]

    def test_partial_budget_excludes_double_strong(self):
        # budget 3 at k=0 rules out exactly the strong-both action (cost 4)
        p = EnergyParams.attacker(kappa=3, rho=3, beta_normal=1, beta_strong=2)
        ctx = make_ctx(attacker=p)
        actions = solver_attacks(ctx, 0)
        assert len(actions) == 8
        assert attack(strong=[(1, 2), (2, 3)]) not in actions

    def test_budget_grows_with_time(self):
        p = EnergyParams.attacker(kappa=3, rho=3, beta_normal=1, beta_strong=2)
        ctx = make_ctx(attacker=p)
        assert len(solver_attacks(ctx, 1)) == 9

    def test_options_run_from_dearest_to_cheapest_in_a_stable_order(self):
        # Strong attacks come first, so a predicted attacker's bound is high early;
        # equal prices keep the canonical catalog's order, which itself is unchanged.
        ctx = make_ctx()
        first = solver_attacks(ctx, 0)
        assert first == solver_attacks(ctx, 0)
        canonical = [a for _, a in _attack_catalog(PATH3, "edge", ABUNDANT)]
        assert [a.sort_key for a in canonical] == sorted(a.sort_key for a in canonical)
        assert first == sorted(canonical, key=lambda a: -a.cost(ABUNDANT))
        assert first[0] == attack(strong=[(1, 2), (2, 3)]) and first[-1] == attack()

    @pytest.mark.parametrize("mode", ["edge", "node"])
    def test_spend_above_the_budget_line_leaves_only_the_empty_attack(self, mode):
        ctx = make_ctx(cost_model=CostModel(mode=mode), attacker_spent=150)
        assert solver_attacks(ctx, 0) == [attack()]
        assert oracle_attacks(ctx, 0) == [attack()]

    def test_node_mode_strong_center_takes_both_edges(self):
        ctx = make_ctx(cost_model=CostModel(mode="node"))
        actions = solver_attacks(ctx, 0)
        assert len(actions) == 27
        center = [a for a in actions if a.strong_nodes == frozenset({2}) and not a.normal_nodes]
        assert len(center) == 1
        assert center[0].strong == frozenset({(1, 2), (2, 3)})
        assert center[0].normal == frozenset()

    def test_node_mode_strong_overrides_normal_on_shared_edge(self):
        ctx = make_ctx(cost_model=CostModel(mode="node"))
        actions = solver_attacks(ctx, 0)
        mixed = [a for a in actions if a.strong_nodes == frozenset({1}) and a.normal_nodes == frozenset({2})]
        assert mixed[0].strong == frozenset({(1, 2)})
        assert mixed[0].normal == frozenset({(2, 3)})


class TestActionKeys:
    @pytest.mark.parametrize("graph", [PATH3, CYCLE4], ids=["path3", "cycle4"])
    @pytest.mark.parametrize("mode", ["edge", "node"])
    def test_precomputed_size_and_sort_key_match_their_definitions(self, graph, mode):
        for _, a in _attack_catalog(graph, mode, ABUNDANT):
            strong, normal = (a.strong_nodes, a.normal_nodes) if mode == "node" else (a.strong, a.normal)
            assert a.size == len(strong) + len(normal)
            assert a.sort_key == (tuple(sorted(strong)), tuple(sorted(normal)))
        for d in _defense_catalog(graph):
            assert d.size == len(d.recover)
            assert d.sort_key == (tuple(sorted(d.recover)),)

    @pytest.mark.parametrize("graph", [PATH3, CYCLE4], ids=["path3", "cycle4"])
    @pytest.mark.parametrize("mode", ["edge", "node"])
    def test_catalogs_hold_each_action_once(self, graph, mode):
        # The solver and the oracle both enumerate these catalogs, so they are checked here directly.
        attacks = [a for _, a in _attack_catalog(graph, mode, ABUNDANT)]
        items = graph.n if mode == "node" else len(graph.edges)
        assert len(set(attacks)) == len(attacks) == 3**items
        for a in attacks:
            if mode == "node":
                assert a.strong == graph.incident_edges(a.strong_nodes)
                assert a.normal == graph.incident_edges(a.normal_nodes) - a.strong
            else:
                assert not a.strong_nodes and not a.normal_nodes
        defenses = _defense_catalog(graph)
        assert len({d.recover for d in defenses}) == len(defenses) == 2 ** len(graph.edges)


class TestEnumerateDefenses:
    def test_power_set_when_affordable(self):
        ctx = make_ctx()
        assert len(solver_defenses(ctx, 0)) == 4

    def test_options_run_from_largest_to_smallest_in_a_stable_order(self):
        options = solver_defenses(make_ctx(), 0, frozenset({(1, 2), (2, 3)}))
        assert options == sorted(_defense_catalog(PATH3), key=lambda d: -d.size)
        assert options == [defense([(1, 2), (2, 3)]), defense([(1, 2)]), defense([(2, 3)]), defense()]

    def test_below_single_edge_cost_gives_only_empty(self):
        scarce = EnergyParams.defender(kappa="0.5", rho="0.5", beta_recover=1)
        ctx = make_ctx(defender=scarce)
        assert solver_defenses(ctx, 0) == [defense()]

    @pytest.mark.parametrize("waste", ["charged", "free"])
    def test_spend_above_the_budget_line_leaves_only_the_empty_defense(self, waste):
        ctx = make_ctx(cost_model=CostModel(waste=waste), defender_spent=150)
        normal = frozenset({(1, 2), (2, 3)})
        assert solver_defenses(ctx, 0, normal) == [defense()]
        assert oracle_defenses(ctx, 0, normal) == [defense()]

    def test_free_waste_prices_only_hits(self):
        scarce = EnergyParams.defender(kappa="0.5", rho="0.5", beta_recover=1)
        ctx = make_ctx(defender=scarce, cost_model=CostModel(waste="free"))
        # nothing is normally attacked, so every recovery set is free
        actions = solver_defenses(ctx, 0, frozenset())
        assert len(actions) == 4


class TestStepPayoff:
    def test_consensus_connected_is_zero(self):
        x = make_state([2, 2, 2])
        assert step_payoff(x, PATH3, UtilityWeights(a=1, b=1)) == 0

    def test_disagreement_term(self):
        x = make_state([0, 1, 2])
        assert step_payoff(x, PATH3, UtilityWeights(a=1, b=0)) == 6

    def test_fragmentation_term(self):
        split = Graph.from_edges(3, [(1, 2)])
        x = make_state([0, 0, 0])
        assert step_payoff(x, split, UtilityWeights(a=0, b=1)) == 4


def attacker_tie_break(candidates, ctx):
    """tie_break for the attacker at ctx's decision time, over its one-step window."""
    return tie_break(candidates, ctx.game, ATTACKER, ctx.t0, ctx.t0, ctx.attacker_spent)


class TestTieBreak:
    def test_single_candidate(self):
        ctx = make_ctx()
        one = attack(normal=[(1, 2)])
        assert attacker_tie_break([one], ctx) == one

    def test_abundant_energy_prefers_more_edges(self):
        ctx = make_ctx()
        small = attack(normal=[(1, 2)])
        large = attack(normal=[(1, 2), (2, 3)])
        assert attacker_tie_break([small, large], ctx) == large

    def test_scarce_energy_prefers_fewer_edges(self):
        p = EnergyParams.attacker(kappa=3, rho=3, beta_normal=1, beta_strong=2)
        ctx = make_ctx(attacker=p)
        small = attack(normal=[(1, 2)])
        large = attack(normal=[(1, 2), (2, 3)])
        assert attacker_tie_break([small, large], ctx) == small

    def test_equal_size_falls_back_to_canonical_order(self):
        ctx = make_ctx()
        strong = attack(strong=[(1, 2)])
        normal = attack(normal=[(1, 2)])
        # the all-normal action sorts before the all-strong one
        assert attacker_tie_break([strong, normal], ctx) == normal

    def test_rejects_empty_and_mixed_utilities(self):
        ctx = make_ctx()
        with pytest.raises(ValueError):
            attacker_tie_break([], ctx)


def reference_layout(sched, mover, t0, known):
    """The opponent layout as the solver and the oracle read it before `Schedule.supplier`.

    Maps every step of the mover's window from t0 to ("fixed", the known
    action) or ("predicted", the predicted model's objective end). The
    opponent's block in force is fixed if known, else predicted with its own
    window; later opponent decisions are predicted with their full windows
    clipped to the mover's, each starting where the previous one's ends.
    """
    w_end = t0 + sched.horizon(mover) - 1
    opp = opponent(mover)
    T_o, h_o = sched.period(opp), sched.horizon(opp)
    slots = {}
    covered = t0 - 1

    cur_anchor = sched.anchor(opp, t0)
    if cur_anchor < t0:
        block_end = min(cur_anchor + T_o - 1, w_end)
        for t in range(t0, block_end + 1):
            if known:
                slots[t] = ("fixed", known[t - cur_anchor])
            else:
                slots[t] = ("predicted", min(cur_anchor + h_o - 1, w_end))
        covered = block_end
        anchor = cur_anchor + T_o
    else:
        anchor = cur_anchor

    while covered < w_end:
        start = max(anchor, covered + 1)
        end = min(anchor + h_o - 1, w_end)
        for t in range(start, end + 1):
            slots[t] = ("predicted", end)
        covered = max(covered, end)
        anchor += T_o
    return slots


def supplied_layout(sched, mover, t0, known):
    """The same map read from `Schedule.supplier`, as the solver and the oracle read it."""
    w_end = sched.window_end(mover, t0)
    slots = {}
    for t in range(t0, w_end + 1):
        owner = sched.supplier(mover, t0, t)
        if owner < t0 and known:
            slots[t] = ("fixed", known[t - owner])
        else:
            slots[t] = ("predicted", min(sched.window_end(opponent(mover), owner), w_end))
    return slots


def layout(ctx):
    """The solver's table of the opponent at each step of ctx's window, in the reference's form."""
    table = _Solver(ctx)._opponent.items()
    return {t: ("predicted", end) if known is None else ("fixed", known) for t, (known, end) in table}


def test_supplier_matches_the_reference_layout_on_every_small_schedule():
    cadences = [(T, h) for h in range(1, 8) for T in range(1, h + 1)]
    slots = 0
    for T_a, h_a in cadences:
        for T_d, h_d in cadences:
            sched = Schedule(T_attacker=T_a, T_defender=T_d, h_attacker=h_a, h_defender=h_d)
            for t0 in range(40):
                for mover in (ATTACKER, DEFENDER):
                    if not sched.decides(mover, t0):
                        continue
                    blocks = [()]
                    if sched.knows(mover, t0):
                        blocks.append(tuple(f"known{i}" for i in range(sched.period(opponent(mover)))))
                    for known in blocks:
                        expected = reference_layout(sched, mover, t0, known)
                        assert supplied_layout(sched, mover, t0, known) == expected, (sched, mover, t0, known)
                        slots += len(expected)
    assert slots == 185_588


class TestOpponentLayout:
    def test_simultaneous_shorter_defender(self):
        # attacker window [0,2]; defender re-decides every step with a 2-step window
        ctx = make_ctx(h_attacker=3, T_attacker=1, h_defender=2, T_defender=1)
        assert [ctx.game.schedule.supplier(ATTACKER, 0, t) for t in (0, 1, 2)] == [0, 0, 1]
        assert layout(ctx) == {0: ("predicted", 1), 1: ("predicted", 1), 2: ("predicted", 2)}

    def test_staggered_attacker_with_known_block(self):
        # attacker at t=2, window [2,7]; defender committed [0,2] and re-decides at 3 and 6
        block = (defense(), defense(), defense([(1, 2)]))
        ctx = make_ctx(t0=2, h_attacker=6, T_attacker=2, h_defender=4, T_defender=3, known=block)
        sched = ctx.game.schedule
        assert [sched.supplier(ATTACKER, 2, t) for t in range(2, 8)] == [0, 3, 3, 3, 3, 6]
        steps = layout(ctx)
        assert steps[2] == ("fixed", defense([(1, 2)]))
        for t in range(3, 7):
            assert steps[t] == ("predicted", 6)
        assert steps[7] == ("predicted", 7)

    def test_staggered_attacker_without_knowledge_predicts_current_block(self):
        ctx = make_ctx(t0=2, h_attacker=6, T_attacker=2, h_defender=4, T_defender=3)
        steps = layout(ctx)
        # the unknown committed block is predicted with its own window, clipped
        assert steps[2] == ("predicted", 3)
        assert (steps[3], steps[7]) == (("predicted", 6), ("predicted", 7))

    def test_staggered_defender_window(self):
        ctx = make_ctx(
            t0=3, mover=DEFENDER, h_attacker=6, T_attacker=2, h_defender=4, T_defender=3
        )
        # the attacker's block from 2 covers only step 3; its decision at 4 supplies the rest
        assert [ctx.game.schedule.supplier(DEFENDER, 3, t) for t in range(3, 7)] == [2, 4, 4, 4]
        assert layout(ctx) == {t: ("predicted", 6) for t in (3, 4, 5, 6)}

    def test_opponent_block_covering_whole_window(self):
        block = tuple(defense() for _ in range(4))
        ctx = make_ctx(t0=5, h_attacker=2, T_attacker=1, h_defender=4, T_defender=4, known=block)
        assert [ctx.game.schedule.supplier(ATTACKER, 5, t) for t in (5, 6)] == [4, 4]
        assert layout(ctx) == {5: ("fixed", defense()), 6: ("fixed", defense())}


def one_shot_table(ctx):
    """Exhaustive one-shot Stackelberg table, written out independently of the solver."""
    from itertools import combinations, product

    from jamgame.dynamics import consensus_step, state_difference
    from jamgame.energy import attack_cost, budget_at, defense_cost
    from jamgame.network import apply_actions

    game = ctx.game
    edges = game.graph.sorted_edges
    attacks = []
    for marks in product(("idle", "normal", "strong"), repeat=len(edges)):
        strong = [e for e, m in zip(edges, marks) if m == "strong"]
        normal = [e for e, m in zip(edges, marks) if m == "normal"]
        cost = attack_cost(strong, normal, game.attacker_energy)
        if ctx.attacker_spent + cost <= budget_at(game.attacker_energy, ctx.t0) or not (strong or normal):
            attacks.append(attack(strong, normal))
    defenses = [defense(c) for i in range(len(edges) + 1) for c in combinations(edges, i)]

    rows = {}
    for atk in attacks:
        responses = []
        for d in defenses:
            cost, _ = defense_cost(d.recover, atk.normal, game.cost_model, game.defender_energy)
            if ctx.defender_spent + cost > budget_at(game.defender_energy, ctx.t0):
                continue
            resolved = apply_actions(game.graph, atk.strong, atk.normal, d.recover)
            x1 = consensus_step(ctx.state, resolved, game.weights)
            responses.append((d, -game.util.a * state_difference(x1)))
        best_def = max(u for _, u in responses)
        cands = [d for d, u in responses if u == best_def]
        d_star = tie_break(cands, game, DEFENDER, ctx.t0, ctx.t0, ctx.defender_spent)
        resolved = apply_actions(game.graph, atk.strong, atk.normal, d_star.recover)
        x1 = consensus_step(ctx.state, resolved, game.weights)
        rows[atk] = (d_star, game.util.a * state_difference(x1))
    return rows


class TestSolveOneShot:
    def test_abundant_attacker_goes_strong(self):
        att = EnergyParams.attacker(kappa=2, rho=2, beta_normal=1, beta_strong=2)
        dfn = EnergyParams.defender(kappa=1, rho=1, beta_recover=1)
        ctx = make_ctx(graph=EDGE1, state=(0, 1), attacker=att, defender=dfn)
        plan = solve_decision(ctx)
        assert plan.steps == (attack(strong=[(1, 2)]),)
        assert plan.utility == 1

    def test_matches_exhaustive_table(self):
        att = EnergyParams.attacker(kappa=2, rho=2, beta_normal=1, beta_strong=2)
        dfn = EnergyParams.defender(kappa=1, rho=1, beta_recover=1)
        ctx = make_ctx(graph=EDGE1, state=(0, 1), attacker=att, defender=dfn)
        table = one_shot_table(ctx)
        best = max(u for _, u in table.values())
        cands = [a for a, (_, u) in table.items() if u == best]
        expected = attacker_tie_break(cands, ctx)
        assert solve_decision(ctx).steps == (expected,)

    def test_attacker_short_of_strong_stays_idle(self):
        # normal attack gets recovered, so it ties with doing nothing; scarcity picks fewer
        att = EnergyParams.attacker(kappa="1.5", rho="1.5", beta_normal=1, beta_strong=2)
        dfn = EnergyParams.defender(kappa=1, rho=1, beta_recover=1)
        ctx = make_ctx(graph=EDGE1, state=(0, 1), attacker=att, defender=dfn)
        plan = solve_decision(ctx)
        assert plan.steps == (attack(),)
        assert plan.utility == 0


class TestSolveTwoStep:
    def test_strong_twice_when_sustainable(self):
        att = EnergyParams.attacker(kappa=2, rho=2, beta_normal=1, beta_strong=2)
        dfn = EnergyParams.defender(kappa=1, rho=1, beta_recover=1)
        ctx = make_ctx(
            graph=EDGE1, state=(0, 1), attacker=att, defender=dfn, h_attacker=2
        )
        plan = solve_decision(ctx)
        strong = attack(strong=[(1, 2)])
        assert plan.steps == (strong, strong)
        assert plan.utility == 2

    def test_prefix_feasibility_degrades_second_step(self):
        # budgets 2 then 3: strong-strong needs 4, so the plan is strong then idle
        att = EnergyParams.attacker(kappa=2, rho=1, beta_normal=1, beta_strong=2)
        dfn = EnergyParams.defender(kappa=1, rho=1, beta_recover=1)
        ctx = make_ctx(
            graph=EDGE1, state=(0, 1), attacker=att, defender=dfn, h_attacker=2
        )
        plan = solve_decision(ctx)
        assert plan.steps == (attack(strong=[(1, 2)]), attack())
        assert plan.utility == 1

    def test_fixed_defender_block_is_exploited(self):
        # defender committed to recovery at t=1; a normal attack then goes unpunished
        att = EnergyParams.attacker(kappa=2, rho=2, beta_normal=1, beta_strong=2)
        dfn = EnergyParams.defender(kappa=1, rho=1, beta_recover=1)
        block = (defense(), defense())
        ctx = make_ctx(
            graph=EDGE1,
            state=(0, 1),
            t0=1,
            h_attacker=1,
            T_attacker=1,
            h_defender=2,
            T_defender=2,
            attacker=att,
            defender=dfn,
            known=block,
        )
        plan = solve_decision(ctx)
        # against a fixed empty recovery, normal and strong both disconnect; canonical order wins
        assert plan.steps == (attack(normal=[(1, 2)]),)
        assert plan.utility == 1

    def test_plan_lengths_match_horizons(self):
        ctx = make_ctx(h_attacker=3, T_attacker=1, h_defender=2, T_defender=1)
        assert len(solve_decision(ctx).steps) == 3
        ctx_d = make_ctx(mover=DEFENDER, h_attacker=3, T_attacker=1, h_defender=2, T_defender=1)
        assert len(solve_decision(ctx_d).steps) == 2

    def test_deterministic(self):
        ctx = make_ctx(h_attacker=2, T_attacker=1, h_defender=2, T_defender=1, state=(0, 3, 7))
        assert solve_decision(ctx) == solve_decision(ctx)

    def test_zero_budget_attacker_stays_idle(self):
        att = EnergyParams.attacker(kappa="0.5", rho="0.5", beta_normal=1, beta_strong=2)
        dfn = EnergyParams.defender(kappa="0.5", rho="0.5", beta_recover=1)
        ctx = make_ctx(h_attacker=2, attacker=att, defender=dfn)
        plan = solve_decision(ctx)
        assert plan.steps == (attack(), attack())
        ctx_d = make_ctx(mover=DEFENDER, h_defender=2, attacker=att, defender=dfn)
        assert solve_decision(ctx_d).steps == (defense(), defense())


class TestSolveDefenderMover:
    def test_scarce_defender_cannot_counter(self):
        att = EnergyParams.attacker(kappa=2, rho=2, beta_normal=1, beta_strong=2)
        dfn = EnergyParams.defender(kappa="0.5", rho="0.5", beta_recover=1)
        ctx = make_ctx(graph=EDGE1, state=(0, 1), mover=DEFENDER, attacker=att, defender=dfn)
        plan = solve_decision(ctx)
        assert plan.steps == (defense(),)

    def test_abundant_defender_recovers_even_against_strong(self):
        # predicted strong attack leaves nothing recoverable; abundance still prefers acting
        att = EnergyParams.attacker(kappa=2, rho=2, beta_normal=1, beta_strong=2)
        dfn = EnergyParams.defender(kappa=2, rho=2, beta_recover=1)
        ctx = make_ctx(graph=EDGE1, state=(0, 1), mover=DEFENDER, attacker=att, defender=dfn)
        plan = solve_decision(ctx)
        assert plan.steps == (defense([(1, 2)]),)

    def test_defender_recovers_predicted_normal_attack(self):
        # strong attacks are out of reach, so the predicted attacker hits both path
        # edges normally; the defender can afford one counter and takes the first edge
        att = EnergyParams.attacker(kappa=2, rho=2, beta_normal=1, beta_strong=3)
        dfn = EnergyParams.defender(kappa=1, rho=1, beta_recover=1)
        ctx = make_ctx(state=(0, 4, 8), mover=DEFENDER, attacker=att, defender=dfn)
        plan = solve_decision(ctx)
        assert plan.steps == (defense([(1, 2)]),)


class TestSharedPricing:
    @pytest.mark.parametrize(
        "cost_model", [CostModel("edge", "charged"), CostModel("node", "free")], ids=["edge-charged", "node-free"]
    )
    def test_one_cache_across_money_scales_gives_the_plans_of_fresh_caches(self, cost_model):
        att = EnergyParams.attacker(kappa="3/2", rho="3/2", beta_normal=1, beta_strong=2)
        dfn = EnergyParams.defender(kappa="1/2", rho="1/2", beta_recover=1)
        ctxs = [
            make_ctx(
                state=(0, 3, 7), t0=2, mover=mover, h_attacker=2, h_defender=2, attacker=att, defender=dfn,
                cost_model=cost_model, attacker_spent=spent, defender_spent=spent,
            )
            for spent in (0, Fraction(1, 3), Fraction(2, 7), 0)
            for mover in (ATTACKER, DEFENDER)
        ]
        assert len({_Solver(c).M for c in ctxs}) == 3
        shared = StepCache(ctxs[0].game)
        assert [solve_decision(c, cache=shared) for c in ctxs] == [solve_decision(c) for c in ctxs]

    def test_cache_of_another_graph_is_refused(self):
        with pytest.raises(ValueError, match="another game"):
            solve_decision(make_ctx(), cache=StepCache(make_ctx(graph=EDGE1, state=(0, 1)).game))

    def test_cache_of_other_weights_is_refused(self):
        ctx = make_ctx(state=(0, 3, 7), h_attacker=2, h_defender=2)
        cache = StepCache(ctx.game)
        solve_decision(ctx, cache)
        other = Weights(3, {(1, 2): Fraction(1, 5), (2, 3): Fraction(2, 5)})
        reweighted = SolveContext(
            Game(PATH3, other, ctx.game.util, ctx.game.schedule, ctx.game.attacker_energy, ctx.game.defender_energy),
            ctx.state, ctx.t0, ctx.mover,
        )
        with pytest.raises(ValueError, match="another game"):
            solve_decision(reweighted, cache)
        assert solve_decision(reweighted, StepCache(reweighted.game)) == solve_decision(reweighted)


CASE1_ATT = EnergyParams.attacker(kappa="3/2", rho="3/2", beta_normal=1, beta_strong=2)
CASE1_DEF = EnergyParams.defender(kappa="1/2", rho="1/2", beta_recover=1)


class TestKnownBlock:
    """A known block is checked when its context is built, not deep in the solver."""

    def node_mode_defender_ctx(self, known):
        # case1's path and energies in node mode; the attacker's block from 0 is in force at 1
        return make_ctx(
            t0=1, mover=DEFENDER, T_attacker=2, h_attacker=2, attacker=CASE1_ATT, defender=CASE1_DEF,
            cost_model=CostModel(mode="node"), known=known,
        )

    def test_action_outside_the_opponents_catalog_is_refused(self):
        node_attack = next(a for _, a in _attack_catalog(PATH3, "node", CASE1_ATT) if a.strong_nodes == {2})
        assert solve_decision(self.node_mode_defender_ctx((attack(), node_attack))).owner == DEFENDER
        with pytest.raises(ValueError, match="not an action of this game"):
            self.node_mode_defender_ctx((attack(), attack(normal=[(1, 2)])))
        with pytest.raises(ValueError, match="not an action of this game"):
            make_ctx(t0=1, T_defender=2, h_defender=2, known=(defense(), defense([(1, 3)])))

    def test_block_not_one_opponent_period_long_is_refused(self):
        with pytest.raises(ValueError, match="holds 2 actions, got 1"):
            make_ctx(t0=1, T_defender=2, h_defender=2, known=(defense(),))

    def test_block_the_schedule_does_not_reveal_is_refused(self):
        # fig1's cadence: the attacker's plan from 2 runs to 7, past the
        # defender's window [0, 3], so the defender deciding at 3 cannot know it
        fig1 = dict(T_attacker=2, h_attacker=6, T_defender=3, h_defender=4)
        assert layout(make_ctx(t0=3, mover=DEFENDER, **fig1))[3] == ("predicted", 6)
        with pytest.raises(ValueError, match="cannot know"):
            make_ctx(t0=3, mover=DEFENDER, known=(attack(), attack()), **fig1)


class TestSolveContext:
    @pytest.mark.parametrize("mover", [ATTACKER, DEFENDER])
    def test_float_numbers_solve_as_their_exact_values(self, mover):
        exact = make_ctx(
            mover=mover, h_attacker=2, h_defender=2, attacker=CASE1_ATT, defender=CASE1_DEF,
            attacker_spent=Fraction(1, 2), defender_spent=Fraction(1, 4),
        )
        floats = SolveContext(exact.game, (1.0, 2.0, 3.0), 0, mover, attacker_spent=0.5, defender_spent=0.25)
        assert floats == exact
        assert solve_decision(floats) == solve_decision(exact)


class TestSolverLifetime:
    @pytest.mark.parametrize("mover", [ATTACKER, DEFENDER])
    def test_finished_solver_is_freed_without_the_cycle_collector(self, mover):
        # A reference cycle through the solver would keep its memos alive
        # until the next collection, raising a run's peak memory.
        scenario = bundled_scenario("case1")
        ctx = SolveContext(scenario.game, scenario.initial_state, 0, mover)
        gc.disable()
        try:
            solver = _Solver(ctx)
            solver.solve()
            ref = weakref.ref(solver)
            del solver
            assert ref() is None
        finally:
            gc.enable()

    def test_step_cache_and_its_pricing_table_are_freed_without_the_cycle_collector(self):
        # The pricing memos close over locals; one that closed over its table
        # would tie the table, and the run's step cache with it, into a cycle.
        scenario = bundled_scenario("case1")
        ctx = SolveContext(scenario.game, scenario.initial_state, 0, ATTACKER)
        gc.disable()
        try:
            cache = StepCache(scenario.game)
            solve_decision(ctx, cache)
            prices = cache.prices(cache.money_scale)
            refs = weakref.ref(cache), weakref.ref(prices)
            del cache, prices
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()


def model_value(ctx) -> Fraction:
    """Attacker-side value of the predicted model over the mover's whole window."""
    solver = _Solver(ctx)
    sa, sd = (int(spent * solver.M) for spent in (ctx.attacker_spent, ctx.defender_spent))
    return Fraction(solver.value(ctx.t0, solver.x0, sa, sd, solver.w_end)[0], solver.Q)


HALF = Fraction(1, 2)


class TestValueMonotone:
    """A larger spend only shrinks that player's later options, so it never helps that player."""

    @settings(max_examples=150, deadline=None)
    @given(
        graph=st.sampled_from([EDGE1, PATH3]),
        mover=st.sampled_from([ATTACKER, DEFENDER]),
        mode=st.sampled_from(["edge", "node"]),
        waste=st.sampled_from(["charged", "free"]),
        b=st.sampled_from([Fraction(0), HALF]),
        h_attacker=st.integers(min_value=1, max_value=2),
        h_defender=st.integers(min_value=1, max_value=2),
        t0=st.integers(min_value=0, max_value=1),
        sa=st.integers(min_value=0, max_value=3).map(lambda k: k * HALF),
        sd=st.integers(min_value=0, max_value=3).map(lambda k: k * HALF),
        state=st.lists(st.integers(min_value=0, max_value=9), min_size=3, max_size=3),
    )
    def test_value_rises_with_defender_spend_and_falls_with_attacker_spend(
        self, graph, mover, mode, waste, b, h_attacker, h_defender, t0, sa, sd, state
    ):
        def value(sa, sd):
            return model_value(make_ctx(
                graph=graph, state=state[: graph.n], t0=t0, mover=mover, h_attacker=h_attacker,
                h_defender=h_defender, attacker=CASE1_ATT, defender=CASE1_DEF, cost_model=CostModel(mode, waste),
                util=UtilityWeights(a=1, b=b), attacker_spent=sa, defender_spent=sd,
            ))

        base = value(sa, sd)
        assert value(sa + HALF, sd) <= base <= value(sa, sd + HALF)


class TestPruning:
    """The solver prunes exactly: only exact results are memoized, and the pruning stays."""

    @staticmethod
    def solved(cadence, mover, state=(1, 2, 3), b=0):
        """A solver that has solved a first decision of case1's game, with weight b, under case1's or fig1's cadence."""
        game = bundled_scenario("case1").game
        if cadence == "fig1":
            game = replace(game, schedule=Schedule(T_attacker=2, T_defender=3, h_attacker=6, h_defender=4))
        if b:
            game = replace(game, util=replace(game.util, b=b))
        solver = _Solver(SolveContext(game, state, 0, mover))
        solver.solve()
        assert solver._responses
        return solver

    @pytest.mark.parametrize("mover", [ATTACKER, DEFENDER])
    @pytest.mark.parametrize(
        "cadence, b", [("case1", 0), ("fig1", 0), ("fig1", HALF)], ids=["case1", "fig1", "fig1-b=1/2"]
    )
    def test_memos_hold_only_exact_results(self, cadence, b, mover):
        # A cut result is only a bound; a memo that kept one would hand it to
        # a later reader that needs the exact value or the best action. With
        # b > 0 no own step is ranked.
        solver = self.solved(cadence, mover, b=b)
        for key, hit in solver._values.items():
            assert _Solver(solver.ctx).value(*key) == hit
        for key, hit in solver._responses.items():
            assert _Solver(solver.ctx)._defend(*key) == hit

    @pytest.mark.parametrize("mover", [ATTACKER, DEFENDER])
    @pytest.mark.parametrize("state", [(1, 2, 3), (1, 1, 3)], ids=["distinct", "agreed-pair"])
    def test_a_bound_equal_to_the_value_cuts_nothing(self, state, mover):
        # Equal values go to the tie-break, so only a strictly better value may
        # cut: at a predicted node, a bound equal to its value changes no result.
        # With agents 1 and 2 agreed, recovering edge (1, 2) ties with not
        # recovering it at the last step of a predicted window.
        solver = self.solved("case1", mover, state)
        predicted = [(key, hit) for key, hit in solver._values.items() if key[4] is not None]
        assert predicted
        for key, hit in predicted:
            assert _Solver(solver.ctx).value(*key, hi=hit[0]) == hit
        for key, hit in solver._responses.items():
            if key[4] is not None:
                assert _Solver(solver.ctx)._defend(*key, lo=hit[0]) == hit

    @pytest.mark.parametrize("state", [(1, 2, 3), (1, 1, 3)], ids=["distinct", "agreed-pair"])
    def test_a_floor_equal_to_the_value_cuts_nothing(self, state):
        # In the attacker mover's own window a `lo` stops the search only once
        # no attack left can reach it: a `lo` equal to the value changes no
        # result, and a `lo` above it yields a bound below it that no memo keeps.
        solver = self.solved("fig1", ATTACKER, state)
        own = [(key, hit) for key, hit in solver._values.items() if key[4] is None and key[0] < solver.w_end]
        assert own
        for key, hit in own[:40]:
            assert _Solver(solver.ctx).value(*key, lo=hit[0]) == hit
            fresh = _Solver(solver.ctx)
            assert fresh.value(*key, lo=hit[0] + 1)[0] <= hit[0]
            assert key not in fresh._values

    @staticmethod
    def step_calls(name, monkeypatch, b=0) -> int:
        """The StepCache.step calls of one run of the bundled scenario, with weight b if given."""
        calls = []
        real = StepCache.step
        monkeypatch.setattr(StepCache, "step", lambda self, *args: calls.append(None) or real(self, *args))
        scenario = bundled_scenario(name)
        if b:
            scenario = replace(scenario, game=replace(scenario.game, util=replace(scenario.game.util, b=b)))
        run(scenario)
        return len(calls)

    def test_case2_run_makes_fewer_steps_than_without_pruning(self, monkeypatch):
        # Without pruning a case2 run made 22,859 StepCache.step calls; with it, 8,465.
        assert self.step_calls("case2", monkeypatch) < 22_859

    def test_unranked_own_steps_keep_their_results_memoized(self, monkeypatch):
        # With b > 0 no own step is ranked, so none hands its child a `lo`, and
        # every exact own result stays in the memo: a case1 run makes 16,066
        # StepCache.step calls. A `lo` handed to every own child kept results
        # below it out of the memo, and the run made 16,164.
        assert self.step_calls("case1", monkeypatch, b=HALF) <= 16_066

    @pytest.mark.parametrize("name, unbounded", [("case1", 16_066), ("fig1_schedule", 476_085)])
    def test_run_makes_fewer_steps_than_without_the_contraction_bound(self, name, unbounded, monkeypatch):
        # Without the attacker mover's contraction bound a case1 run made 16,066
        # StepCache.step calls and a fig1_schedule run 476,085; with the bound
        # as a skip alone, 5,926 and 100,998; ranked and with floors, 5,174 and 63,900.
        assert self.step_calls(name, monkeypatch) < unbounded

    def test_deep_window_runs_make_few_steps_from_every_initial_state(self, monkeypatch):
        # case1's game on fig1's cadence, four decisions. Skipping attacks in
        # catalog order, the work hung on the state: 7,526 to 16,388 calls over
        # these states. Ranked by their bound and with floors, 5,583 to 6,063.
        calls = []
        real = StepCache.step
        monkeypatch.setattr(StepCache, "step", lambda self, *args: calls.append(None) or real(self, *args))
        case1 = bundled_scenario("case1")
        game = replace(case1.game, schedule=Schedule(T_attacker=2, T_defender=3, h_attacker=6, h_defender=4))
        counts = []
        for state in [(5, 1, 16), (10, 7, 12), (5, 13, 12), (10, 1, 2), (11, 15, 20), (5, 20, 6), (16, 10, 0)]:
            calls.clear()
            run(replace(case1, game=game, initial_state=make_state(state), K=4))
            counts.append(len(calls))
        assert max(counts) < 6_500
        assert max(counts) < 1.15 * min(counts)


class TestGame:
    def test_weights_for_another_agent_count_are_refused(self):
        # A weight on a non-edge is refused too; the scenario parser's malformed-field test covers it.
        game = make_ctx().game
        weights = Weights(4, {(1, 2): Fraction(1, 3), (2, 3): Fraction(1, 3)})
        with pytest.raises(ValueError, match="4 agents"):
            Game(game.graph, weights, game.util, game.schedule, game.attacker_energy, game.defender_energy)


def stepwise_sustain(spent, per_step, kappa, rho, t, end):
    """Reference: walk every step of the window, as the rule reads."""
    running = spent
    for s in range(t, end + 1):
        running += per_step
        if running > kappa + rho * s:
            return False
    return True


positive = st.fractions(min_value=Fraction(1, 12), max_value=12, max_denominator=12)


class TestSustainRule:
    @settings(max_examples=300, deadline=None)
    @given(
        graph=st.sampled_from([EDGE1, PATH3, CYCLE4]),
        mode=st.sampled_from(["edge", "node"]),
        rho=positive,
        headroom=st.fractions(min_value=0, max_value=12, max_denominator=12),
        per_step=positive,
        spent=st.fractions(min_value=0, max_value=30, max_denominator=12),
        t=st.integers(min_value=0, max_value=12),
        span=st.integers(min_value=-3, max_value=8),
    )
    def test_closed_form_matches_stepwise_loop(self, graph, mode, rho, headroom, per_step, spent, t, span):
        # The maximal action costs per_step: every item strong, or every edge recovered.
        kappa, end = rho + headroom, t + span
        items = graph.n if mode == "node" else len(graph.edges)
        att = EnergyParams.attacker(kappa, rho, beta_normal=per_step / items / 2, beta_strong=per_step / items)
        dfn = EnergyParams.defender(kappa, rho, beta_recover=per_step / len(graph.edges))
        game = Game(graph, Weights.uniform(graph), UtilityWeights(), Schedule(1, 1, 1, 1), att, dfn, CostModel(mode))
        expected = stepwise_sustain(spent, per_step, kappa, rho, t, end)
        cache = StepCache(game)
        prices = cache.prices(math.lcm(cache.money_scale, spent.denominator))
        for player in (ATTACKER, DEFENDER):
            assert can_sustain_full_action(game, player, spent, t, end) == expected
            assert prices.sustain(player, int(spent * prices.M), t, end) == expected


# Weights with mixed denominators, each below 1/4 so that any row of an
# agent with at most four neighbours sums below 1; their lcm (630) exceeds
# every single denominator.
MIXED_WEIGHTS = (Fraction(1, 5), Fraction(1, 6), Fraction(2, 15), Fraction(3, 14), Fraction(1, 9))


@st.composite
def step_cases(draw):
    """A game on 2-5 agents with matrix weights, one edge- or node-mode attack with a recovery, and numerators over s."""
    n = draw(st.integers(min_value=2, max_value=5))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6, unique=True))
    g = Graph.from_edges(n, edges)
    by_edge = {e: draw(st.sampled_from(MIXED_WEIGHTS)) for e in sorted(g.edges) if draw(st.integers(0, 4))}
    mode = draw(st.sampled_from(["edge", "node"]))
    if mode == "node":
        marks = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        strong_nodes = frozenset(v for v, m in enumerate(marks, 1) if m == 2)
        normal_nodes = frozenset(v for v, m in enumerate(marks, 1) if m == 1)
        strong = g.incident_edges(strong_nodes)
        atk = AttackAction(strong, g.incident_edges(normal_nodes) - strong, strong_nodes, normal_nodes)
    else:
        marks = draw(st.lists(st.integers(0, 2), min_size=len(edges), max_size=len(edges)))
        sorted_edges = sorted(g.edges)
        atk = AttackAction(
            frozenset(e for e, m in zip(sorted_edges, marks) if m == 2),
            frozenset(e for e, m in zip(sorted_edges, marks) if m == 1),
        )
    recover = frozenset(draw(st.lists(st.sampled_from(sorted(g.edges)), unique=True)))
    x = tuple(draw(st.lists(st.integers(-(10**6), 10**6), min_size=n, max_size=n)))
    s = draw(st.integers(min_value=1, max_value=10**4))
    game = Game(g, Weights(n, by_edge), UtilityWeights(), Schedule(1, 1, 1, 1), ABUNDANT, ABUNDANT_DEF, CostModel(mode))
    return game, atk, DefenseAction(recover), x, s


class TestStepKernel:
    @settings(max_examples=300, deadline=None)
    @given(step_cases())
    def test_step_equals_the_fraction_rule(self, case):
        # Numerators x over s step to numerators over s*D, their disagreement
        # to a numerator over (s*D)^2: both the Fraction rule, scaled.
        game, atk, dfn, x, s = case
        cache = StepCache(game)
        scale = s * cache.scale
        resolved = apply_actions(game.graph, atk.strong, atk.normal, dfn.recover)
        x1 = consensus_step(tuple(Fraction(v, s) for v in x), resolved, game.weights)
        expected = (
            tuple(v * scale for v in x1),
            state_difference(x1) * scale**2,
            agent_group_index(resolved),
        )
        for _ in range(2):  # a miss, then a hit
            got = cache.step(x, atk, dfn)
            assert got == expected
            assert all(type(v) is int for v in (*got[0], got[1], got[2]))

    def test_disagreement_of_one_fraction_agent_is_a_fraction_zero(self):
        z = state_difference(make_state([Fraction(7, 3)]))
        assert z == 0 and type(z) is Fraction


class TestOptionLists:
    """Affordability-filtered option lists depend on the remaining budget alone, and are built once per slack."""

    def test_attacks_with_equal_slack_share_one_list(self):
        # case1's attacker: budget 3/2 + 3/2*t, so (t=0, spent 0) and (t=1, spent 3/2) leave equal slack.
        prices = StepCache(bundled_scenario("case1").game).prices(2)
        assert prices.attacks(1, 3) is prices.attacks(0, 0)
        assert prices.attacks(1, 3) is not prices.attacks(1, 2)

    def test_defenses_with_equal_slack_and_normal_set_share_one_list(self):
        # case1's defender: budget 1/2 + 1/2*t, so (t=3, spent 1) and (t=1, spent 0) leave one edge's price.
        prices = StepCache(bundled_scenario("case1").game).prices(2)
        normal = frozenset({(1, 2)})
        shared = prices.defenses(1, 0, normal)
        assert len(shared) > 1
        assert prices.defenses(3, 2, normal) is shared
        assert prices.defenses(3, 2, frozenset()) is not shared
