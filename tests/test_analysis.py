"""Tests for the condition report, theta vectors, cluster bounds, and oracles."""

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from jamgame import analysis
from jamgame.analysis import (
    WorkBoundExceeded,
    brute_force_equilibrium,
    check_conditions,
    cluster_upper_bound,
    consensus_verdict,
    theta_vector,
)
from jamgame.cli import main
from jamgame.dynamics import Weights, make_state
from jamgame.energy import EnergyParams
from jamgame.game import (
    ATTACKER,
    DEFENDER,
    AttackAction,
    DefenseAction,
    Game,
    Schedule,
    SolveContext,
    UtilityWeights,
    solve_decision,
)
from jamgame.network import Graph, group_count
from jamgame.rolling import Trace, TraceStep, run
from jamgame.scenario import Scenario, bundled_scenario

PATH3 = Graph.from_edges(3, [(1, 2), (2, 3)])
DIAMOND4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (2, 4)])
CYCLE4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])

UTIL = UtilityWeights(a=1, b=0)


def schedule(horizons, periods):
    return Schedule(T_attacker=periods[0], T_defender=periods[1], h_attacker=horizons[0], h_defender=horizons[1])


def game(g, att, horizons, periods, util=UTIL, dfn=("0.5", "0.5", 1)):
    return Game(
        g, Weights.uniform(g), util, schedule(horizons, periods),
        EnergyParams.attacker(*att), EnergyParams.defender(*dfn),
    )


class TestThetaVector:
    def test_path(self):
        assert theta_vector(PATH3) == (2, 3)

    def test_diamond(self):
        assert theta_vector(DIAMOND4) == (2, 2, 3, 4)

    def test_cycle_tolerates_one_removal(self):
        assert theta_vector(CYCLE4) == (1, 2, 3, 4)

    def test_last_entry_is_n(self):
        for g in (PATH3, DIAMOND4, CYCLE4):
            assert theta_vector(g)[-1] == g.n

    def test_monotone_on_example_graphs(self):
        # theta's branch-and-bound rests on this: Theta_r never falls in edge mode, Theta_r + r never falls in node mode
        graphs = [PATH3, DIAMOND4, CYCLE4, *(g for seed in range(4) for g in random_graphs(seed))]
        for g in graphs:
            for mode, rise in (("edge", 0), ("node", 1)):
                for values in (theta_vector(g, mode), reference_theta(g, mode)):
                    f = [v + rise * r for r, v in enumerate(values, 1)]
                    assert all(f[i + 1] >= f[i] for i in range(len(f) - 1)), (g, mode, values)

    def test_node_mode_counts_survivors(self):
        # removing the middle vertex splits the endpoints; removing all leaves nobody
        assert theta_vector(PATH3, mode="node") == (2, 1, 0)

    def test_one_indexed_access(self):
        assert theta_vector(DIAMOND4)[3 - 1] == 3

    def test_refuses_oversized_graph(self):
        big = Graph.from_edges(18, [(i, i + 1) for i in range(1, 18)])
        with pytest.raises(WorkBoundExceeded):
            theta_vector(big, work_bound=16)
        assert theta_vector(big, work_bound=17)[-1] == 18


def reference_theta(g: Graph, mode: str) -> tuple[int, ...]:
    """Theta by building every attacked graph and counting its groups."""
    if mode == "node":
        return tuple(
            max(group_count(Graph(g.n, g.edges - g.incident_edges(removed))) - i
                for removed in itertools.combinations(range(1, g.n + 1), i))
            for i in range(1, g.n + 1)
        )
    return tuple(
        max(group_count(Graph(g.n, g.edges - frozenset(removed)))
            for removed in itertools.combinations(g.sorted_edges, i))
        for i in range(1, len(g.edges) + 1)
    )


def random_graphs(seed: int, count: int = 12):
    """Seeded graphs with 1..9 vertices and 0..12 edges, connected or not."""
    rng = random.Random(seed)
    yield Graph(1, frozenset())
    yield Graph(rng.randint(2, 9), frozenset())
    for _ in range(count):
        n = rng.randint(2, 9)
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        yield Graph.from_edges(n, rng.sample(pairs, rng.randint(0, min(12, len(pairs)))))


def theta_in_child(n: int, edges: list, mode: str) -> tuple[int, ...]:
    """theta_vector with work_bound equal to its size, in a child process, so a walk that runs for minutes fails the test instead of stalling the suite."""
    size = n if mode == "node" else len(edges)
    code = (
        "from jamgame.analysis import theta_vector; from jamgame.network import Graph; "
        f"print(list(theta_vector(Graph.from_edges({n}, {edges!r}), {mode!r}, work_bound={size})))"
    )
    src = str(Path(analysis.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout))


class TestThetaKernel:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("mode", ["edge", "node"])
    def test_matches_reference_enumeration(self, seed, mode):
        for g in random_graphs(seed):
            assert theta_vector(g, mode) == reference_theta(g, mode), g

    def test_complete_graph_in_edge_mode_matches_closed_form(self):
        # k groups of K_n cost at least (k-1)*n - k(k-1)/2 removed edges: cut k-1 vertices off alone
        n = 8
        edges = list(itertools.combinations(range(1, n + 1), 2))
        expected = tuple(
            max(k for k in range(1, n + 1) if (k - 1) * n - k * (k - 1) // 2 <= r) for r in range(1, len(edges) + 1)
        )
        assert theta_in_child(n, edges, "edge") == expected

    def test_bridged_complete_blocks_match_closed_form(self):
        # three K5s chained by two bridges: a bridge adds one group per removed
        # edge, a K5 block adds k - 1 groups for K5's closed form in k
        def k5_groups(r):
            return max(k for k in range(1, 6) if (k - 1) * 5 - k * (k - 1) // 2 <= r)

        blocks = [[(5 * b + i, 5 * b + j) for i, j in itertools.combinations(range(1, 6), 2)] for b in range(3)]
        edges = [*blocks[0], (5, 6), *blocks[1], (10, 11), *blocks[2]]
        expected = tuple(
            max(
                1 + bridges + sum(k5_groups(x) - 1 for x in split)
                for bridges in range(min(r, 2) + 1)
                for split in itertools.product(range(11), repeat=3)
                if sum(split) == r - bridges
            )
            for r in range(1, len(edges) + 1)
        )
        assert expected[:2] == (2, 3)
        assert theta_in_child(15, edges, "edge") == expected

    def test_star_in_node_mode_matches_closed_form(self):
        # removing the center first leaves every survivor a group of its own
        n = 28
        assert theta_in_child(n, [(1, v) for v in range(2, n + 1)], "node") == tuple(n - r for r in range(1, n + 1))

    @pytest.mark.parametrize("mode, size", [("edge", 17), ("node", 18)])
    def test_gate_refuses_before_enumerating(self, monkeypatch, mode, size):
        big = Graph.from_edges(18, [(i, i + 1) for i in range(1, 18)])
        for kernel in ("_best_group_counts", "_theta_by_flats"):
            monkeypatch.setattr(analysis, kernel, lambda *a, **k: pytest.fail("enumerated"))
        with pytest.raises(WorkBoundExceeded, match=rf"needs 2\^{size} subsets, bound is 2\^16"):
            theta_vector(big, mode, work_bound=16)

    def test_analyze_enumerates_theta_once(self, monkeypatch, capsys):
        calls = []
        for name in ("_best_group_counts", "_theta_by_flats"):
            kernel = getattr(analysis, name)
            monkeypatch.setattr(analysis, name, lambda *a, kernel=kernel, **k: calls.append(a) or kernel(*a, **k))
        s = bundled_scenario("theta_example")
        limit = cluster_upper_bound(s.game)
        assert len(calls) == 1  # the bound needs theta here
        calls.clear()
        assert main(["analyze", "theta_example", "--json"]) == 0
        assert len(calls) == 1
        assert f'"cluster_bound": {limit}' in capsys.readouterr().out


def report(att=("1.5", "1.5", 1, 2), horizons=(2, 2), periods=(2, 2), util=UTIL, g=PATH3):
    return check_conditions(game(g, att, horizons, periods, util))


class TestCheckConditions:
    def test_normal_rate_covers_connectivity(self):
        r = report()
        assert r["edge_conn"] == 1
        assert r["ratio_normal"] == Fraction(3, 2)
        assert r["necessary_normal"] is True

    def test_strong_rate_falls_short(self):
        r = report()
        assert r["ratio_strong"] == Fraction(3, 4)
        assert r["necessary_strong"] is False

    def test_nested_cadence_triggers_case_a(self):
        assert report(horizons=(2, 2), periods=(2, 2))["case_a"] is True
        assert report(horizons=(3, 2), periods=(1, 2))["case_a"] is False

    def test_per_step_defender_triggers_case_b(self):
        assert report(periods=(2, 1), horizons=(2, 2))["case_b"] is True

    def test_grouping_weight_disables_both_cases(self):
        r = report(util=UtilityWeights(a=1, b=1))
        assert not r["case_a"] and not r["case_b"] and not r["tighter_applicable"]

    def test_full_split_boundary_is_inclusive(self):
        r = report(att=(4, 4, 1, 2))
        assert r["ratio_strong"] == 2 == len(PATH3.edges)
        assert r["sufficient_full_split"] is True

    def test_full_split_implies_strong_necessity(self):
        for att in (("1.5", "1.5", 1, 2), (4, 4, 1, 2), (8, 8, 1, 2)):
            r = report(att=att)
            if r["sufficient_full_split"] and r["edge_conn"] <= len(PATH3.edges):
                assert r["necessary_strong"]

    def test_node_thresholds_compare_against_one(self):
        r = report()
        assert r["necessary_normal_node"] is True
        assert r["necessary_strong_node"] is False
        assert report(att=(2, 2, 1, 2))["necessary_strong_node"] is True


class TestClusterUpperBound:
    def bound(self, att=("3.5", "3.5", 1, 2), horizons=(2, 2), periods=(2, 2), util=UTIL, g=DIAMOND4):
        return cluster_upper_bound(game(g, att, horizons, periods, util))

    def test_tighter_case_uses_strong_price(self):
        assert self.bound() == 2

    def test_general_case_uses_normal_price(self):
        assert self.bound(util=UtilityWeights(a=1, b=1)) == 3

    def test_full_split_rate_gives_n(self):
        assert self.bound(att=(8, 8, 1, 2)) == 4

    def test_unsustainable_attack_gives_one_cluster(self):
        assert self.bound(att=(1, 1, "2/3", 2)) == 1

    def test_path_with_unit_normal_rate(self):
        assert self.bound(att=(1, 1, 1, 2), util=UtilityWeights(a=1, b=1), g=PATH3) == 2


def scenario(att, g=PATH3, x=(1, 2, 3), h=(1, 1), T=(1, 1), K=40):
    return Scenario(game(g, att, h, T), make_state(x), K=K)


class TestConsensusVerdict:
    def test_idle_attacker_reaches_consensus(self):
        s = scenario(att=("0.25", "0.25", 100, 200), K=80)
        v = consensus_verdict(run(s))
        assert v.verdict == "consensus"
        assert len(v.clusters) == 1
        assert v.union_connected is True

    def test_overwhelming_attacker_splits_everyone(self):
        s = scenario(att=(4, 4, 1, 2), K=40)
        trace = run(s)
        v = consensus_verdict(trace)
        assert v.verdict == "clusters"
        assert len(v.clusters) == 3
        assert v.union_connected is False

    def test_truncated_run_is_undecided(self):
        s = scenario(att=("0.25", "0.25", 100, 200), K=3)
        v = consensus_verdict(run(s))
        assert v.verdict == "undecided"
        assert v.union_connected is None

    def test_connected_windows_force_consensus_when_settled(self):
        for att in (("0.25", "0.25", 100, 200), ("1.5", "1.5", 1, 2)):
            trace = run(scenario(att=att, K=300))
            v = consensus_verdict(trace)
            if v.verdict != "undecided" and v.union_connected:
                assert v.verdict == "consensus"

    @staticmethod
    def settled_trace(g, resolved):
        """A trace settled at k = 0 in consensus whose steps resolve to `resolved`, one edge set a step."""
        s = scenario(att=("1.5", "1.5", 1, 2), g=g, x=(0,) * g.n, K=len(resolved))
        zero = Fraction(0)
        steps = tuple(
            TraceStep(k, AttackAction.empty(), DefenseAction.empty(), frozenset(), frozenset(edges),
                      s.initial_state, zero, zero, zero, zero, zero)
            for k, edges in enumerate(resolved)
        )
        return Trace(s, steps, (), converged_at=0)

    def test_only_the_last_window_union_is_disconnected(self):
        # windows of 4 steps (T = 1): every union is both path edges but the last, which is 1-2 alone
        a, b = [(1, 2)], [(2, 3)]
        v = consensus_verdict(self.settled_trace(PATH3, [a, b, a, b, b, a, a, a, a]))
        assert v.verdict == "consensus"
        assert v.union_connected is False

    def test_window_unions_that_differ_but_all_connect(self):
        # the unions are the cycle less 1-4, the whole cycle and the cycle less 1-2, each connected
        p1, p2 = [(1, 2), (2, 3), (3, 4)], [(2, 3), (3, 4), (1, 4)]
        v = consensus_verdict(self.settled_trace(CYCLE4, [p1] * 4 + [p2] * 4))
        assert v.verdict == "consensus"
        assert v.union_connected is True

    def test_settled_traces_respect_cluster_bound(self):
        for att, h, T in (
            (("1.5", "1.5", 1, 2), (2, 2), (2, 2)),
            ((4, 4, 1, 2), (1, 1), (1, 1)),
            (("0.25", "0.25", 100, 200), (1, 1), (1, 1)),
        ):
            s = scenario(att=att, h=h, T=T, K=300)
            v = consensus_verdict(run(s))
            if v.verdict == "undecided":
                continue
            limit = cluster_upper_bound(s.game)
            assert len(v.clusters) <= limit


def make_ctx(mover, h=(1, 1), T=(1, 1), g=PATH3, x=(1, 2, 3), att=("1.5", "1.5", 1, 2),
             dfn=("0.5", "0.5", 1), t0=0, spent=(0, 0), known=()):
    return SolveContext(
        game=game(g, att, h, T, dfn=dfn),
        state=make_state(x),
        t0=t0,
        mover=mover,
        attacker_spent=Fraction(spent[0]),
        defender_spent=Fraction(spent[1]),
        known=tuple(known),
    )


class TestBruteForce:
    def test_one_shot_matches_backward_induction(self):
        for mover in (ATTACKER, DEFENDER):
            ctx = make_ctx(mover)
            assert brute_force_equilibrium(ctx) == solve_decision(ctx)

    def test_two_step_windows_match(self):
        for mover in (ATTACKER, DEFENDER):
            for T in ((1, 1), (2, 2), (1, 2)):
                ctx = make_ctx(mover, h=(2, 2), T=T)
                assert brute_force_equilibrium(ctx) == solve_decision(ctx)

    def test_strong_attack_everything_regime(self):
        # a strong-price rate covering all edges makes permanent full jamming
        # optimal; the defender must be able to afford recovery, else normal
        # jamming ties and wins the canonical ordering
        ctx = make_ctx(ATTACKER, att=(4, 4, 1, 2), dfn=(2, 2, 1), x=(0, 4, 8))
        plan = brute_force_equilibrium(ctx)
        assert plan.steps[0].strong == PATH3.edges
        assert plan == solve_decision(ctx)

    def test_refuses_when_budget_exhausted(self):
        ctx = make_ctx(ATTACKER, h=(2, 2), T=(2, 2))
        with pytest.raises(WorkBoundExceeded):
            brute_force_equilibrium(ctx, work_bound=10)

    def test_each_predicted_answer_is_searched_once(self):
        # case1 at h = T = 1, one defender decision at t0 = 0. The predicted
        # attacker can afford 3 attacks (none, or normal jamming of one edge:
        # kappa 3/2 against prices 1 and 2), and the defender only the empty
        # recovery (kappa 1/2 against price 1), so predicting the attacker
        # reaches 3 x 1 = 3 leaves. _extend predicts it once (3 leaves) and
        # then reaches its 1 mover plan (1 leaf); _filter_stepwise predicts it
        # again (3 leaves). 7 in all; searching each predicted defense's tail
        # a second time for the attacker's value made it 13.
        s = bundled_scenario("case1")
        game = replace(s.game, schedule=Schedule(1, 1, 1, 1))
        work = analysis._Budget(100)
        analysis._BruteForce(SolveContext(game, s.initial_state, t0=0, mover=DEFENDER), work).solve()
        assert work.used == 7
