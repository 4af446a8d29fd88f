"""Consensus update, disagreement measure, and cluster detection."""

import ast
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jamgame
from jamgame.dynamics import (
    MAX_DECIMAL_EXPONENT,
    Weights,
    as_fraction,
    consensus_step,
    detect_clusters,
    make_state,
    state_difference,
)
from jamgame.network import Graph

PATH3 = Graph.from_edges(3, [(1, 2), (2, 3)])

state_strategy = st.lists(
    st.fractions(min_value=-10, max_value=10, max_denominator=50),
    min_size=2,
    max_size=5,
).map(tuple)


def graph_for_state(x, draw_edges):
    n = len(x)
    return Graph.from_edges(n, draw_edges)


class TestAsFraction:
    @pytest.mark.parametrize("sign", ["", "+", "-"])
    def test_decimal_exponent_is_capped(self, sign):
        # The cap bounds the exponent itself: leading zeros do not count, and a mantissa of 0 is no exemption.
        assert as_fraction(f"1e{sign}{MAX_DECIMAL_EXPONENT}") == Fraction(10) ** int(f"{sign}{MAX_DECIMAL_EXPONENT}")
        assert as_fraction(f"2.5E{sign}0000010") == Fraction(5, 2) * Fraction(10) ** int(f"{sign}10")
        for beyond in (f"1e{sign}{MAX_DECIMAL_EXPONENT + 1}", f"0E{sign}00{MAX_DECIMAL_EXPONENT + 1}", "1e" + sign + "9" * 10**6):
            with pytest.raises(ValueError, match="decimal exponent"):
                as_fraction(beyond)

    def test_only_as_fraction_builds_a_fraction_from_a_value(self):
        # Text and numbers enter through as_fraction, the one home of the
        # exponent cap; a Fraction(...) elsewhere that took anything but int
        # literals could read a huge exponent past it. The one other exception
        # is game._fraction, the one way back from the step cache's integer
        # kernel: it takes two ints, a numerator and its denominator.
        def non_literal_calls(node, func):
            for child in ast.iter_child_nodes(node):
                if (
                    isinstance(child, ast.Call)
                    and getattr(child.func, "id", getattr(child.func, "attr", None)) == "Fraction"
                    and not all(
                        isinstance(arg, ast.Constant) and type(arg.value) is int
                        for arg in [*child.args, *(k.value for k in child.keywords)]
                    )
                ):
                    yield func
                yield from non_literal_calls(child, child.name if isinstance(child, ast.FunctionDef) else func)

        found = [
            (path.name, func)
            for path in sorted(Path(jamgame.__file__).parent.glob("*.py"))
            for func in non_literal_calls(ast.parse(path.read_text()), None)
        ]
        assert found == [("dynamics.py", "as_fraction"), ("game.py", "_fraction")]


class TestWeights:
    def test_uniform_default_is_one_over_n(self):
        w = Weights.uniform(PATH3)
        assert w.by_edge == {(1, 2): Fraction(1, 3), (2, 3): Fraction(1, 3)}

    def test_row_sum_must_stay_below_one(self):
        with pytest.raises(ValueError):
            Weights.uniform(PATH3, Fraction(1, 2))


class TestConsensusStep:
    def test_equal_states_are_fixed_point(self):
        x = make_state([5, 5, 5])
        assert consensus_step(x, PATH3, Weights.uniform(PATH3)) == x

    def test_no_edges_means_no_change(self):
        g = Graph(3, frozenset())
        x = make_state([1, 2, 3])
        assert consensus_step(x, g, Weights.uniform(PATH3)) == x

    def test_two_agents_by_hand(self):
        g = Graph.from_edges(2, [(1, 2)])
        w = Weights.uniform(g, Fraction(2, 5))
        x = make_state([0, 1])
        assert consensus_step(x, g, w) == (Fraction(2, 5), Fraction(3, 5))

    def test_path_of_three_by_hand(self):
        # x = [1,2,3], a = 1/3: x1' = 1 + 1/3, x2' = 2, x3' = 3 - 1/3.
        x = make_state([1, 2, 3])
        out = consensus_step(x, PATH3, Weights.uniform(PATH3))
        assert out == (Fraction(4, 3), Fraction(2), Fraction(8, 3))

    def test_complete_graph_contracts_spread_exactly(self):
        # Complete graph with uniform weight a shrinks every pairwise gap by 1 - n*a.
        g = Graph.from_edges(3, combinations(range(1, 4), 2))
        a = Fraction(1, 5)
        w = Weights.uniform(g, a)
        x = make_state([0, 1, 5])
        out = consensus_step(x, g, w)
        factor = 1 - 3 * a
        for i in range(3):
            for j in range(3):
                assert out[i] - out[j] == factor * (x[i] - x[j])

    @settings(max_examples=100)
    @given(state_strategy, st.data())
    def test_mean_preserved_and_range_contained(self, x, data):
        n = len(x)
        all_edges = list(combinations(range(1, n + 1), 2))
        edges = data.draw(st.sets(st.sampled_from(all_edges)))
        g = Graph.from_edges(n, edges)
        out = consensus_step(x, g, Weights.uniform(g))
        assert sum(out) == sum(x)
        assert min(x) <= min(out) and max(out) <= max(x)

    @settings(max_examples=200)
    @given(state_strategy, st.data())
    def test_disagreement_never_increases(self, x, data):
        n = len(x)
        all_edges = list(combinations(range(1, n + 1), 2))
        edges = data.draw(st.sets(st.sampled_from(all_edges)))
        g = Graph.from_edges(n, edges)
        out = consensus_step(x, g, Weights.uniform(g))
        assert state_difference(out) <= state_difference(x)

    def test_restoring_an_edge_can_raise_one_step_disagreement(self):
        # Monotonicity in the edge set does NOT hold stepwise: pulling agent 3
        # toward the {1,2,4} triangle can widen other pairwise gaps faster than
        # the new edge closes its own.  Keep this pinned so nobody "fixes" it.
        full = Graph.from_edges(4, [(1, 2), (1, 4), (2, 4), (3, 4)])
        cut = Graph(full.n, full.edges - {(3, 4)})
        x = make_state([-5, Fraction(-5, 4), -2, Fraction(-3, 2)])
        z_cut = state_difference(consensus_step(x, cut, Weights.uniform(cut)))
        z_full = state_difference(consensus_step(x, full, Weights.uniform(full)))
        assert z_cut == Fraction(103, 32)
        assert z_full == Fraction(117, 32)
        assert z_cut < z_full


class TestStateDifference:
    def test_identical_states_zero(self):
        assert state_difference(make_state([7, 7, 7])) == 0

    def test_pair(self):
        assert state_difference(make_state([0, 1])) == 1

    def test_three_agents(self):
        assert state_difference(make_state([0, 1, 2])) == 6

    def test_path3_after_one_step_values(self):
        # Frozen anchors for the solver tests: one step from [1,2,3] on the
        # full path, and with either edge cut.
        x = make_state([1, 2, 3])
        w = Weights.uniform(PATH3)
        assert state_difference(consensus_step(x, PATH3, w)) == Fraction(8, 3)
        cut1 = Graph(PATH3.n, PATH3.edges - {(1, 2)})
        assert state_difference(consensus_step(x, cut1, w)) == Fraction(14, 3)
        cut2 = Graph(PATH3.n, PATH3.edges - {(2, 3)})
        assert state_difference(consensus_step(x, cut2, w)) == Fraction(14, 3)
        empty = Graph(PATH3.n, PATH3.edges - {(1, 2), (2, 3)})
        assert state_difference(consensus_step(x, empty, w)) == 6


class TestDetectClusters:
    def test_single_cluster_exact(self):
        assert [sorted(c) for c in detect_clusters(make_state([5, 5, 5]), 0)] == [[1, 2, 3]]

    def test_tolerance_groups_near_states(self):
        x = make_state([0.0, 0.001, 7.0])
        assert [sorted(c) for c in detect_clusters(x, 0.01)] == [[1, 2], [3]]

    def test_all_distinct_with_zero_tolerance(self):
        assert len(detect_clusters(make_state([0, 1, 2]), 0)) == 3

    def test_groups_ordered_by_smallest_member(self):
        x = make_state([9, 1, 9, 1])
        assert [sorted(c) for c in detect_clusters(x, 0)] == [[1, 3], [2, 4]]

    @settings(max_examples=100)
    @given(st.permutations([0, 1, 2, 3]), state_strategy)
    def test_permutation_equivariance(self, perm, x):
        if len(x) != 4:
            x = make_state(list(x) + [0] * (4 - len(x)))[:4]
        tol = Fraction(1, 4)
        base = detect_clusters(x, tol)
        permuted = tuple(x[perm[i]] for i in range(4))
        image = detect_clusters(permuted, tol)
        # agent i in permuted state carries the value of agent perm[i]+1 in x.
        relabeled = {frozenset(perm[i - 1] + 1 for i in grp) for grp in image}
        assert relabeled == set(base)
