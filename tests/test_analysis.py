"""Tests for the condition report, theta vectors, cluster bounds, and oracles."""

import itertools
import random
from fractions import Fraction

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
from jamgame.game import ATTACKER, DEFENDER, Game, Schedule, SolveContext, UtilityWeights, solve_decision
from jamgame.network import Graph, group_count
from jamgame.rolling import run
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
        assert theta_vector(PATH3).values == (2, 3)

    def test_diamond(self):
        assert theta_vector(DIAMOND4).values == (2, 2, 3, 4)

    def test_cycle_tolerates_one_removal(self):
        assert theta_vector(CYCLE4).values == (1, 2, 3, 4)

    def test_last_entry_is_n(self):
        for g in (PATH3, DIAMOND4, CYCLE4):
            assert theta_vector(g).values[-1] == g.n

    def test_monotone_on_example_graphs(self):
        for g in (PATH3, DIAMOND4, CYCLE4):
            v = theta_vector(g).values
            assert all(v[i + 1] >= v[i] for i in range(len(v) - 1))

    def test_node_mode_counts_survivors(self):
        # removing the middle vertex splits the endpoints; removing all leaves nobody
        assert theta_vector(PATH3, mode="node").values == (2, 1, 0)

    def test_one_indexed_access(self):
        assert theta_vector(DIAMOND4).at(3) == 3

    def test_refuses_oversized_graph(self):
        big = Graph.from_edges(18, [(i, i + 1) for i in range(1, 18)])
        with pytest.raises(WorkBoundExceeded):
            theta_vector(big, work_bound=16)
        assert theta_vector(big, work_bound=17).values[-1] == 18


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


class TestThetaKernel:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("mode", ["edge", "node"])
    def test_matches_reference_enumeration(self, seed, mode):
        for g in random_graphs(seed):
            assert theta_vector(g, mode).values == reference_theta(g, mode), g

    @pytest.mark.parametrize("mode, size", [("edge", 17), ("node", 18)])
    def test_gate_refuses_before_enumerating(self, monkeypatch, mode, size):
        big = Graph.from_edges(18, [(i, i + 1) for i in range(1, 18)])
        monkeypatch.setattr(analysis, "_best_group_counts", lambda *a, **k: pytest.fail("enumerated"))
        with pytest.raises(WorkBoundExceeded, match=rf"needs 2\^{size} subsets, bound is 2\^16"):
            theta_vector(big, mode, work_bound=16)

    def test_analyze_enumerates_theta_once(self, monkeypatch, capsys):
        kernel = analysis._best_group_counts
        calls = []
        monkeypatch.setattr(analysis, "_best_group_counts", lambda *a, **k: calls.append(a) or kernel(*a, **k))
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
        assert r.edge_conn == 1
        assert r.ratio_normal == Fraction(3, 2)
        assert r.necessary_normal is True

    def test_strong_rate_falls_short(self):
        r = report()
        assert r.ratio_strong == Fraction(3, 4)
        assert r.necessary_strong is False

    def test_nested_cadence_triggers_case_a(self):
        assert report(horizons=(2, 2), periods=(2, 2)).case_a is True
        assert report(horizons=(3, 2), periods=(1, 2)).case_a is False

    def test_per_step_defender_triggers_case_b(self):
        assert report(periods=(2, 1), horizons=(2, 2)).case_b is True

    def test_grouping_weight_disables_both_cases(self):
        r = report(util=UtilityWeights(a=1, b=1))
        assert not r.case_a and not r.case_b and not r.tighter_applicable

    def test_full_split_boundary_is_inclusive(self):
        r = report(att=(4, 4, 1, 2))
        assert r.ratio_strong == 2 == len(PATH3.edges)
        assert r.sufficient_full_split is True

    def test_full_split_implies_strong_necessity(self):
        for att in (("1.5", "1.5", 1, 2), (4, 4, 1, 2), (8, 8, 1, 2)):
            r = report(att=att)
            if r.sufficient_full_split and r.edge_conn <= len(PATH3.edges):
                assert r.necessary_strong

    def test_node_thresholds_compare_against_one(self):
        r = report()
        assert r.necessary_normal_node is True
        assert r.necessary_strong_node is False
        assert report(att=(2, 2, 1, 2)).necessary_strong_node is True


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
        assert v.clusters.group_count == 1
        assert v.union_connected is True

    def test_overwhelming_attacker_splits_everyone(self):
        s = scenario(att=(4, 4, 1, 2), K=40)
        trace = run(s)
        v = consensus_verdict(trace)
        assert v.verdict == "clusters"
        assert v.clusters.group_count == 3
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
            assert v.clusters.group_count <= limit


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
