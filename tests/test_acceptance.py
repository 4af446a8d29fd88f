"""End-to-end acceptance checks for the solver, simulator, and analysis layers.

One test per advertised guarantee. Every test states its own tolerance:
qualitative outcomes are exact verdicts, energy arithmetic is exact rational
arithmetic, and wall-clock budgets are asserted where a check is expected to
stay cheap.
"""

import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from jamgame.analysis import (
    WorkBoundExceeded,
    brute_force_equilibrium,
    check_conditions,
    cluster_upper_bound,
    consensus_verdict,
    theta_vector,
)
from jamgame.dynamics import Weights, consensus_step, make_state, state_difference
from jamgame.energy import CostModel, EnergyParams, WASTE_FREE, budget_at
from jamgame.game import (
    ATTACKER,
    DEFENDER,
    AttackAction,
    DefenseAction,
    Game,
    Schedule,
    SolveContext,
    StepCache,
    UtilityWeights,
    _attack_catalog,
    _defense_catalog,
    can_sustain_full_action,
    opponent,
    solve_decision,
)
from jamgame.network import Graph, agent_group_index, is_connected
from jamgame.rolling import run
from jamgame.scenario import Scenario, bundled_scenario

PATH3 = Graph.from_edges(3, [(1, 2), (2, 3)])
DIAMOND = Graph.from_edges(4, [(1, 2), (2, 3), (2, 4), (3, 4)])
# The static bounds read only the attacker's energy; a game still needs a defender.
ANY_DEFENDER = EnergyParams(kappa=1, rho=1, beta_recover=1)


def test_scarce_defender_run_splits_into_two_clusters():
    # Tolerance: exact verdict and group count; wall clock under 10 s.
    start = time.perf_counter()
    trace = run(bundled_scenario("case1"))
    verdict = consensus_verdict(trace)
    elapsed = time.perf_counter() - start
    assert verdict.verdict == "clusters"
    assert len(verdict.clusters) == 2
    assert elapsed < 10.0


def test_matched_cadence_run_reaches_consensus_with_fully_wasted_defense():
    # Tolerance: exact verdict; ledgers are exact rationals and every value is
    # a multiple of 1/2 (all prices here are); wall clock under 10 s.
    start = time.perf_counter()
    trace = run(bundled_scenario("case2"))
    verdict = consensus_verdict(trace)
    elapsed = time.perf_counter() - start
    assert verdict.verdict == "consensus"
    spent_anything = False
    for step in trace.steps:
        if step.defender_spent > 0:
            spent_anything = True
            assert step.defender_wasted == step.defender_spent
        for value in (
            step.attacker_spent,
            step.attacker_wasted,
            step.defender_spent,
            step.defender_wasted,
        ):
            assert (2 * value).denominator == 1
    assert spent_anything
    assert elapsed < 10.0


def test_group_count_vector_and_cluster_bound_on_diamond():
    # Tolerance: exact integers; wall clock under 1 s.
    start = time.perf_counter()
    assert theta_vector(DIAMOND) == (2, 2, 3, 4)

    attacker = EnergyParams(
        kappa=Fraction(7, 2), rho=Fraction(7, 2), beta_normal=1, beta_strong=2
    )
    def game(schedule):
        return Game(DIAMOND, Weights.uniform(DIAMOND), UtilityWeights(), schedule, attacker, ANY_DEFENDER)

    # Nested cadences price the sustained attack at the strong rate: floor(3.5/2) = 1 edge.
    nested = Schedule(T_attacker=2, T_defender=2, h_attacker=2, h_defender=2)
    per_step = Schedule(T_attacker=2, T_defender=1, h_attacker=2, h_defender=2)
    assert cluster_upper_bound(game(nested)) == 2
    assert cluster_upper_bound(game(per_step)) == 2
    # Otherwise the normal rate governs: floor(3.5/1) = 3 edges.
    staggered = Schedule(T_attacker=2, T_defender=3, h_attacker=3, h_defender=3)
    assert cluster_upper_bound(game(staggered)) == 3

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0


def test_rate_condition_report_on_three_agent_path():
    # Tolerance: exact rationals and exact booleans.
    attacker = EnergyParams(
        kappa=Fraction(3, 2), rho=Fraction(3, 2), beta_normal=1, beta_strong=2
    )
    def game(schedule):
        return Game(PATH3, Weights.uniform(PATH3), UtilityWeights(), schedule, attacker, ANY_DEFENDER)

    # Mismatched cadence: only the normal-price test binds, and it passes.
    mismatched = Schedule(T_attacker=1, T_defender=2, h_attacker=3, h_defender=2)
    loose = check_conditions(game(mismatched))
    assert loose["edge_conn"] == 1
    assert loose["ratio_normal"] == Fraction(3, 2)
    assert loose["necessary_normal"] is True
    assert loose["ratio_strong"] == Fraction(3, 4)
    assert loose["necessary_strong"] is False
    assert loose["case_a"] is False and loose["case_b"] is False
    assert loose["tighter_applicable"] is False

    # Matched cadence: the strong-price test becomes applicable (and fails).
    same = Schedule(T_attacker=2, T_defender=2, h_attacker=2, h_defender=2)
    matched = check_conditions(game(same))
    assert matched["case_a"] is True
    assert matched["tighter_applicable"] is True
    assert matched["necessary_strong"] is False


ZERO_REGIME = (
    EnergyParams(kappa=Fraction(1, 4), rho=Fraction(1, 4), beta_normal=100, beta_strong=200),
    EnergyParams(kappa=Fraction(1, 4), rho=Fraction(1, 4), beta_recover=100),
)
MID_REGIME = (
    EnergyParams(kappa=Fraction(3, 2), rho=Fraction(3, 2), beta_normal=1, beta_strong=2),
    EnergyParams(kappa=Fraction(1, 2), rho=Fraction(1, 2), beta_recover=1),
)
RICH_REGIME = (
    EnergyParams(kappa=100, rho=100, beta_normal=1, beta_strong=2),
    EnergyParams(kappa=100, rho=100, beta_recover=1),
)


def test_solver_matches_exhaustive_search_on_all_small_instances():
    # Tolerance: exact plan equality, actions and utility, tie-breaks included.
    # Wall clock under 60 s for the full sweep.
    graphs = [
        Graph(3, frozenset()),
        Graph.from_edges(3, [(1, 2)]),
        Graph.from_edges(3, [(1, 2), (2, 3)]),
    ]
    cadences = [(1, 1), (2, 1), (2, 2)]

    start = time.perf_counter()
    checked = 0
    for g in graphs:
        weights = Weights.uniform(g)
        for h_att, t_att in cadences:
            for h_dfn, t_dfn in cadences:
                for att, dfn in (ZERO_REGIME, MID_REGIME, RICH_REGIME):
                    for mover in ("attacker", "defender"):
                        game = Game(
                            g, weights, UtilityWeights(),
                            Schedule(T_attacker=t_att, T_defender=t_dfn, h_attacker=h_att, h_defender=h_dfn),
                            att, dfn,
                        )
                        ctx = SolveContext(game, make_state([1, 2, 3]), t0=0, mover=mover)
                        assert solve_decision(ctx) == brute_force_equilibrium(ctx)
                        checked += 1
    assert checked == 162

    # Staggered starts, with and without a committed opponent block in force.
    def path_game(schedule, regime):
        return Game(PATH3, Weights.uniform(PATH3), UtilityWeights(), schedule, *regime)

    edge = (1, 2)
    staggered = [
        SolveContext(
            path_game(Schedule(T_attacker=1, T_defender=2, h_attacker=2, h_defender=2), MID_REGIME),
            make_state([0, 4, 8]),
            t0=1,
            mover="attacker",
            known=(DefenseAction.empty(), DefenseAction(frozenset({edge}))),
        ),
        SolveContext(
            path_game(Schedule(T_attacker=2, T_defender=2, h_attacker=2, h_defender=2), RICH_REGIME),
            make_state([0, 4, 8]),
            t0=2,
            mover="attacker",
            attacker_spent=Fraction(3),
            defender_spent=Fraction(1),
        ),
        SolveContext(
            path_game(Schedule(T_attacker=2, T_defender=1, h_attacker=2, h_defender=2), MID_REGIME),
            make_state([0, 4, 8]),
            t0=1,
            mover="defender",
            known=(AttackAction.empty(), AttackAction(frozenset(), frozenset({edge}))),
        ),
        SolveContext(
            path_game(Schedule(T_attacker=1, T_defender=3, h_attacker=2, h_defender=3), MID_REGIME),
            make_state([0, 4, 8]),
            t0=3,
            mover="defender",
            attacker_spent=Fraction(3),
            defender_spent=Fraction(1),
        ),
    ]
    for ctx in staggered:
        assert solve_decision(ctx) == brute_force_equilibrium(ctx)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


def test_solver_matches_exhaustive_search_on_fractional_instances():
    # Tolerance: exact plan equality, as above. Every quantity has its own
    # denominator: state 1/2, -5/3, 7/4; weights 1/3 and 1/4 (lcm 12); utility
    # a=2/3, b=1/5; fractional prices, budget lines and starting spends.
    weights = Weights(3, {(1, 2): Fraction(1, 3), (2, 3): Fraction(1, 4)})
    betas = dict(beta_normal=Fraction(2, 3), beta_strong=Fraction(3, 2))
    regimes = (
        (
            EnergyParams(kappa=Fraction(7, 4), rho=Fraction(5, 6), **betas),
            EnergyParams(kappa=Fraction(5, 4), rho=Fraction(2, 3), beta_recover=Fraction(3, 5)),
        ),
        (
            EnergyParams(kappa=Fraction(50, 3), rho=Fraction(50, 3), **betas),
            EnergyParams(kappa=Fraction(40, 7), rho=Fraction(40, 7), beta_recover=Fraction(3, 5)),
        ),
    )
    cadences = [(1, 1), (2, 1), (2, 2)]
    checked = 0
    for cost_model in (CostModel(), CostModel(mode="node", waste=WASTE_FREE)):
        for (h_att, t_att), (h_dfn, t_dfn) in product(cadences, cadences):
            # Node mode with both windows at 2 costs the oracle seconds per instance.
            if cost_model.mode == "node" and min(h_att, h_dfn) == 2:
                continue
            for att, dfn in regimes:
                for mover in ("attacker", "defender"):
                    game = Game(
                        PATH3, weights, UtilityWeights(a=Fraction(2, 3), b=Fraction(1, 5)),
                        Schedule(T_attacker=t_att, T_defender=t_dfn, h_attacker=h_att, h_defender=h_dfn),
                        att, dfn, cost_model,
                    )
                    ctx = SolveContext(
                        game,
                        make_state(["1/2", "-5/3", "7/4"]),
                        t0=2,
                        mover=mover,
                        attacker_spent=Fraction(7, 3),
                        defender_spent=Fraction(5, 4),
                    )
                    assert solve_decision(ctx) == brute_force_equilibrium(ctx)
                    checked += 1
    assert checked == 56


HALF = Fraction(1, 2)
ORACLE_ATTACKERS = tuple(
    EnergyParams(kappa=k, rho=k, beta_normal=1, beta_strong=2) for k in (Fraction(3, 2), Fraction(7, 2))
)
# A defender that is scarce, middling, front-loaded (it can sustain recovering
# every edge early on, then runs short), or rich enough to sustain recovering
# every edge of any drawn graph throughout.
ORACLE_DEFENDERS = tuple(
    EnergyParams(kappa=k, rho=r, beta_recover=1)
    for k, r in ((HALF, HALF), (Fraction(3, 2), Fraction(3, 2)), (Fraction(2), HALF), (Fraction(4), Fraction(4)))
)
# A predicted defender that can sustain its maximal action recovers unattacked
# edges too, and the attacker then exploits its spent budget a step later.
FRONT_LOADED_DEFENDER = SolveContext(
    Game(PATH3, Weights.uniform(PATH3), UtilityWeights(), Schedule(1, 1, 2, 1), ORACLE_ATTACKERS[1],
         ORACLE_DEFENDERS[2]),
    make_state([1, 2, 3]), t0=0, mover=ATTACKER,
)


@st.composite
def known_blocks(draw, game, mover, t0):
    """`()`, or where the schedule reveals it, half the time the opponent's block in force, drawn from its catalog."""
    schedule, opp = game.schedule, opponent(mover)
    if not (schedule.knows(mover, t0) and draw(st.booleans())):
        return ()
    if opp == ATTACKER:
        catalog = [a for _, a in _attack_catalog(game.graph, game.cost_model.mode, game.attacker_energy)]
    else:
        catalog = list(_defense_catalog(game.graph))
    return tuple(draw(st.sampled_from(catalog)) for _ in range(schedule.period(opp)))


@st.composite
def oracle_contexts(draw):
    """One decision of a small generated game, with whatever the schedule lets the mover know."""
    n = draw(st.sampled_from([3, 4]))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True))
    g = Graph.from_edges(n, edges)
    mode = draw(st.sampled_from(["edge", "node"]))
    # The oracle's whole-plan search grows as the catalogs to the power of the
    # windows, so two-step windows are drawn only on catalogs where it stays fast.
    attacks, defenses = 3 ** (n if mode == "node" else len(edges)), 2 ** len(edges)
    two_step_windows = 0 if attacks > 27 or defenses > 4 else 1 if attacks > 9 else 2
    cadences = [(1, 1), (2, 1), (2, 2)]
    (h_att, t_att), (h_dfn, t_dfn) = draw(st.sampled_from(
        [(a, d) for a in cadences for d in cadences if (a[0] == 2) + (d[0] == 2) <= two_step_windows]
    ))
    schedule = Schedule(T_attacker=t_att, T_defender=t_dfn, h_attacker=h_att, h_defender=h_dfn)
    game = Game(
        g, Weights.uniform(g), UtilityWeights(a=1, b=draw(st.sampled_from([Fraction(0), HALF]))), schedule,
        draw(st.sampled_from(ORACLE_ATTACKERS)), draw(st.sampled_from(ORACLE_DEFENDERS)),
        CostModel(mode=mode, waste=draw(st.sampled_from(["charged", "free"]))),
    )
    mover = draw(st.sampled_from([ATTACKER, DEFENDER]))
    t0 = draw(st.integers(min_value=0, max_value=2)) * schedule.period(mover)
    known = draw(known_blocks(game, mover, t0))
    spends = st.integers(min_value=0, max_value=4).map(lambda k: k * HALF)
    return SolveContext(
        game, draw(st.lists(st.integers(min_value=0, max_value=9), min_size=n, max_size=n)), t0, mover,
        attacker_spent=draw(spends), defender_spent=draw(spends), known=known,
    )


def test_solver_matches_exhaustive_search_on_generated_instances():
    # Tolerance: exact plan equality, as above, on 3-4 agents, both attack
    # modes and waste modes, b in {0, 1/2}, staggered t0, starting spends and
    # known blocks. The oracle refuses a draw past 6,000 leaf evaluations; at
    # most a fifth of the draws may be refused. In 1,000 seeded draws the
    # costliest took about 2,800 leaf evaluations and none was refused.
    # Wall clock under 20 s.
    checked, refused, defender_stance = [], [], set()

    @settings(max_examples=200, deadline=None)
    @given(oracle_contexts())
    @example(FRONT_LOADED_DEFENDER)
    def solver_equals_oracle(ctx):
        window_end = ctx.game.schedule.window_end(DEFENDER, ctx.t0)
        defender_stance.add(can_sustain_full_action(ctx.game, DEFENDER, ctx.defender_spent, ctx.t0, window_end))
        try:
            expected = brute_force_equilibrium(ctx, work_bound=6_000)
        except WorkBoundExceeded:
            event("the oracle refused the draw")
            refused.append(ctx)
            return
        assert solve_decision(ctx) == expected
        checked.append(ctx)

    start = time.perf_counter()
    solver_equals_oracle()
    elapsed = time.perf_counter() - start
    assert len(refused) <= (len(checked) + len(refused)) // 5
    assert defender_stance == {True, False}
    assert elapsed < 20.0


@st.composite
def common_decisions(draw):
    """A generated decision at a time both players decide, after the opponent's decision there."""
    ctx = draw(oracle_contexts().filter(lambda c: c.game.schedule.decides(opponent(c.mover), c.t0)))
    opp = opponent(ctx.mover)
    return replace(ctx, mover=opp, known=draw(known_blocks(ctx.game, opp, ctx.t0))), ctx


class CountingCache(StepCache):
    """A StepCache that counts its `step` calls."""

    calls = 0

    def step(self, *args):
        self.calls += 1
        return super().step(*args)


def test_solver_after_the_opponents_decision_matches_exhaustive_search_on_generated_instances():
    # Tolerance: exact plan equality, as above, on the generated draws at a
    # time both players decide. The opponent's decision at the same time,
    # state and spends is solved first on the same StepCache, so the mover's
    # search reads the model nodes that decision left in the cache's memos.
    # The same 6,000-leaf refusal and one-fifth cap as above. Over half the
    # checked draws must reuse that work: fewer `step` calls than on a fresh
    # cache. Wall clock under 20 s.
    checked, refused, reused = [], [], []

    @settings(max_examples=150, deadline=None)
    @given(common_decisions())
    def solver_equals_oracle(decisions):
        first, ctx = decisions
        try:
            expected = brute_force_equilibrium(ctx, work_bound=6_000)
        except WorkBoundExceeded:
            event("the oracle refused the draw")
            refused.append(ctx)
            return
        warm, cold = CountingCache(ctx.game), CountingCache(ctx.game)
        solve_decision(first, warm)
        before = warm.calls
        assert solve_decision(ctx, warm) == expected
        solve_decision(ctx, cold)
        checked.append(ctx)
        if warm.calls - before < cold.calls:
            reused.append(ctx)

    start = time.perf_counter()
    solver_equals_oracle()
    elapsed = time.perf_counter() - start
    assert len(refused) <= (len(checked) + len(refused)) // 5
    assert 2 * len(reused) > len(checked)
    assert elapsed < 20.0


# The oracle's cost grows as the attack catalog to the power of the attacker's
# window, times a predicted defender's own search at every step, so the 3-path
# is drawn only with an attacker window of 3 and a defender window of 1.
DEEP_WINDOW_GRAPHS = {
    Graph.from_edges(2, [(1, 2)]): ((3, 4), ((1, 1), (2, 1), (2, 2))),
    Graph.from_edges(3, [(1, 2)]): ((3, 4), ((1, 1), (2, 1), (2, 2))),
    PATH3: ((3,), ((1, 1),)),
}


@st.composite
def deep_attacker_windows(draw, b):
    """One attacker decision over a window of 3 or 4 steps in edge mode; at b = 0 the contraction bound prunes."""
    g = draw(st.sampled_from(list(DEEP_WINDOW_GRAPHS)))
    windows, defender_cadences = DEEP_WINDOW_GRAPHS[g]
    h_att = draw(st.sampled_from(windows))
    timings = [
        (Schedule(T_attacker=t_att, T_defender=t_dfn, h_attacker=h_att, h_defender=h_dfn), k * t_att)
        for t_att in (1, 2, 3) for h_dfn, t_dfn in defender_cadences for k in range(4)
    ]
    # Where the cadences allow it, half the draws know the defender's block in
    # force, drawn from the whole catalog: a known block need not be affordable.
    informed = any(s.knows(ATTACKER, t0) for s, t0 in timings) and draw(st.booleans())
    schedule, t0 = draw(st.sampled_from([(s, t0) for s, t0 in timings if s.knows(ATTACKER, t0) == informed]))
    known = tuple(draw(st.sampled_from(_defense_catalog(g))) for _ in range(schedule.T_defender)) if informed else ()
    game = Game(
        g, Weights.uniform(g), UtilityWeights(b=b), schedule,
        draw(st.sampled_from(ORACLE_ATTACKERS)), draw(st.sampled_from(ORACLE_DEFENDERS)),
        CostModel(waste=draw(st.sampled_from(["charged", "free"]))),
    )
    spends = st.integers(min_value=0, max_value=4).map(lambda k: k * HALF)
    return SolveContext(
        game, draw(st.lists(st.integers(min_value=0, max_value=9), min_size=g.n, max_size=g.n)), t0, ATTACKER,
        attacker_spent=draw(spends), defender_spent=draw(spends), known=known,
    )


def solver_matches_oracle_on_deep_attacker_windows(b):
    """Compare the solver with the oracle on 40 deep-window draws at `b`, in under 15 s."""
    drawn = set()

    @settings(max_examples=40, deadline=None)
    @given(deep_attacker_windows(b))
    def solver_equals_oracle(ctx):
        drawn.add((ctx.game.schedule.h_attacker, bool(ctx.known)))
        assert solve_decision(ctx) == brute_force_equilibrium(ctx)

    start = time.perf_counter()
    solver_equals_oracle()
    elapsed = time.perf_counter() - start
    assert {h for h, _ in drawn} == {3, 4} and {k for _, k in drawn} == {True, False}
    assert elapsed < 15.0


def test_solver_matches_exhaustive_search_on_deep_attacker_windows():
    # Tolerance: exact plan equality, as above. The attacker mover skips an
    # attack whose contraction bound falls below its best value so far; the
    # generated test above draws windows of at most 2 steps, where the bound
    # only reaches the first step. No draw here costs the oracle more than
    # about 4,000 leaf evaluations (4,017 at most in 300 seeded draws, at
    # b = 0 and at b = 1/2 alike). Wall clock under 15 s.
    solver_matches_oracle_on_deep_attacker_windows(Fraction(0))


def test_solver_matches_exhaustive_search_on_deep_attacker_windows_with_fragmentation_weight():
    # Tolerance: exact plan equality, as above, on the same draws with b = 1/2.
    # There the contraction bound is off, so the attacker mover searches its
    # own window of 3 or 4 steps unranked and unpruned, but for a last step
    # whose defender is predicted: that step runs as the model, with its
    # cutoffs. Wall clock under 15 s.
    solver_matches_oracle_on_deep_attacker_windows(HALF)


@st.composite
def small_scenarios(draw):
    edges = draw(
        st.sampled_from(
            [
                [(1, 2), (2, 3)],
                [(1, 2), (1, 3)],
                [(1, 2), (2, 3), (1, 3)],
            ]
        )
    )
    g = Graph.from_edges(3, edges)
    x = tuple(
        draw(
            st.fractions(
                min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
            )
        )
        for _ in range(3)
    )
    h_att, t_att = draw(st.sampled_from([(1, 1), (2, 1), (2, 2)]))
    h_dfn, t_dfn = draw(st.sampled_from([(1, 1), (2, 1), (2, 2)]))
    att_line = draw(st.sampled_from([Fraction(1, 2), Fraction(3, 2), Fraction(7, 2)]))
    dfn_line = draw(st.sampled_from([Fraction(1, 2), Fraction(3, 2)]))
    waste = draw(st.sampled_from(["charged", "free"]))
    mode = draw(st.sampled_from(["edge", "node"]))
    b = draw(st.sampled_from([0, 1]))
    game = Game(
        g,
        Weights.uniform(g),
        UtilityWeights(a=1, b=b),
        Schedule(T_attacker=t_att, T_defender=t_dfn, h_attacker=h_att, h_defender=h_dfn),
        EnergyParams(kappa=att_line, rho=att_line, beta_normal=1, beta_strong=2),
        EnergyParams(kappa=dfn_line, rho=dfn_line, beta_recover=1),
        CostModel(mode=mode, waste=waste),
    )
    return Scenario(
        game=game,
        initial_state=x,
        K=draw(st.integers(min_value=2, max_value=6)),
        convergence_window=2,
    )


def test_invariant_suites_hold_on_generated_cases():
    # Five property suites, 200 generated cases each; all assertions exact.

    @settings(max_examples=200, deadline=None)
    @given(small_scenarios())
    def disagreement_never_increases_along_a_trace(s):
        trace = run(s)
        z = state_difference(s.initial_state)
        for step in trace.steps:
            z_next = state_difference(step.state)
            assert z_next <= z
            z = z_next

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=2, max_value=5), st.data())
    def grouping_index_is_nonpositive_and_zero_iff_connected(n, data):
        pairs = list(combinations(range(1, n + 1), 2))
        edges = data.draw(st.sets(st.sampled_from(pairs)))
        g = Graph.from_edges(n, edges)
        c = agent_group_index(g)
        assert c <= 0
        assert (c == 0) == is_connected(g)

    @settings(max_examples=200, deadline=None)
    @given(small_scenarios())
    def ledgers_never_overdraw_the_supply_line(s):
        trace = run(s)
        prev_att = prev_dfn = Fraction(0)
        for step in trace.steps:
            assert step.attacker_spent <= budget_at(s.game.attacker_energy, step.k)
            assert step.defender_spent <= budget_at(s.game.defender_energy, step.k)
            assert prev_att <= step.attacker_spent
            assert prev_dfn <= step.defender_spent
            assert 0 <= step.attacker_wasted <= step.attacker_spent
            assert 0 <= step.defender_wasted <= step.defender_spent
            prev_att, prev_dfn = step.attacker_spent, step.defender_spent

    # Recovery cannot raise the one-step disagreement when the cut silences
    # every edge joining disagreeing agents: with no recovery the state is then
    # frozen, and restoring edges only contracts it. (For arbitrary cuts this
    # fails; see test_dynamics.py::TestConsensusStep::
    # test_restoring_an_edge_can_raise_one_step_disagreement.)
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=3, max_value=5), st.booleans(), st.data())
    def recovery_never_helps_against_a_separating_cut(n, cut_everything, data):
        pairs = list(combinations(range(1, n + 1), 2))
        edges = frozenset(
            data.draw(st.sets(st.sampled_from(pairs), max_size=4))
        )
        g = Graph(n, edges)
        weights = Weights.uniform(g)
        if cut_everything:
            x = make_state(
                [
                    data.draw(
                        st.fractions(
                            min_value=Fraction(-4),
                            max_value=Fraction(4),
                            max_denominator=8,
                        )
                    )
                    for _ in range(n)
                ]
            )
            attacked = edges
        else:
            labels = [data.draw(st.integers(min_value=0, max_value=2)) for _ in range(n)]
            values = [
                data.draw(
                    st.fractions(
                        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=8
                    )
                )
                for _ in range(3)
            ]
            x = make_state([values[lab] for lab in labels])
            attacked = frozenset(
                (i, j) for (i, j) in edges if labels[i - 1] != labels[j - 1]
            )
        recovered = frozenset(data.draw(st.sets(st.sampled_from(sorted(attacked)))) if attacked else set())
        frozen = consensus_step(x, Graph(g.n, g.edges - attacked), weights)
        restored = consensus_step(x, Graph(g.n, g.edges - (attacked - recovered)), weights)
        assert state_difference(frozen) >= state_difference(restored)

    @settings(max_examples=200, deadline=None)
    @given(small_scenarios())
    def effective_recovery_is_the_planned_and_attacked_overlap(s):
        trace = run(s)
        for step in trace.steps:
            assert step.defense_effective <= step.defense_planned.recover
            assert step.defense_effective <= step.attack.normal
            expected = (
                s.game.graph.edges - step.attack.strong - step.attack.normal
            ) | step.defense_effective
            assert step.resolved_edges == expected

    disagreement_never_increases_along_a_trace()
    grouping_index_is_nonpositive_and_zero_iff_connected()
    ledgers_never_overdraw_the_supply_line()
    recovery_never_helps_against_a_separating_cut()
    effective_recovery_is_the_planned_and_attacked_overlap()


def test_overwhelming_attacker_isolates_every_agent():
    # Tolerance: exact verdict, exact group count, exactly zero effective
    # recoveries, on both shapes.
    diamond_game = Game(
        DIAMOND,
        Weights.uniform(DIAMOND),
        UtilityWeights(),
        Schedule(T_attacker=1, T_defender=1, h_attacker=1, h_defender=1),
        EnergyParams(kappa=8, rho=8, beta_normal=1, beta_strong=2),
        EnergyParams(kappa=Fraction(1, 2), rho=Fraction(1, 2), beta_recover=1),
    )
    diamond_scenario = Scenario(diamond_game, make_state([1, 2, 3, 4]), K=60)
    for s in (bundled_scenario("prop3_regime"), diamond_scenario):
        g = s.game
        rate = g.attacker_energy.rho / g.attacker_energy.beta_strong
        assert rate >= len(g.graph.edges)
        trace = run(s)
        verdict = consensus_verdict(trace)
        assert verdict.verdict == "clusters"
        assert len(verdict.clusters) == g.graph.n
        assert all(step.defense_effective == frozenset() for step in trace.steps)


def test_mismatched_cadences_share_a_decision_time_every_six_steps():
    # Tolerance: exact tuples.
    sched = Schedule(T_attacker=2, T_defender=3, h_attacker=6, h_defender=4)
    assert sched.lcm_period == 6
    attacker = tuple(k for k in range(19) if sched.decides(ATTACKER, k))
    defender = tuple(k for k in range(19) if sched.decides(DEFENDER, k))
    assert attacker == tuple(range(0, 19, 2))
    assert defender == tuple(range(0, 19, 3))
    common = tuple(k for k in attacker if k in defender)
    assert common == (0, 6, 12, 18)
    assert all(t % 6 == 0 for t in common)
