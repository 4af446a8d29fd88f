"""Graph primitives: components, group index, connectivity, attack resolution."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamgame.network import (
    Graph,
    agent_group_index,
    apply_actions,
    components,
    edge_connectivity,
    group_count,
    is_connected,
)

PATH3 = Graph.from_edges(3, [(1, 2), (2, 3)])
DIAMOND4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (2, 4)])


def brute_force_edge_connectivity(g: Graph) -> int:
    """Reference: smallest edge subset whose removal disconnects g."""
    if not is_connected(g):
        return 0
    edges = sorted(g.edges)
    for size in range(1, len(edges) + 1):
        for cut in combinations(edges, size):
            if not is_connected(Graph(g.n, g.edges - frozenset(cut))):
                return size
    return len(edges)


def random_graph_strategy(max_n=5, max_extra_edges=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_n))
        all_edges = list(combinations(range(1, n + 1), 2))
        chosen = draw(st.sets(st.sampled_from(all_edges), max_size=min(len(all_edges), max_extra_edges)))
        return Graph.from_edges(n, chosen)

    return build()


class TestGraphConstruction:
    def test_edges_are_canonicalized(self):
        g = Graph.from_edges(3, [(2, 1), (3, 2)])
        assert g.edges == frozenset({(1, 2), (2, 3)})

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 2), (2, 1)])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 4)])


class TestComponents:
    def test_connected_path_is_one_group(self):
        assert [sorted(c) for c in components(PATH3)] == [[1, 2, 3]]

    def test_two_components_by_hand(self):
        g = Graph.from_edges(4, [(1, 2), (2, 4)])
        assert [sorted(c) for c in components(g)] == [[1, 2, 4], [3]]

    def test_detaching_a_vertex_from_diamond(self):
        # Removing both edges at vertex 3 leaves it isolated.
        g = Graph(DIAMOND4.n, DIAMOND4.edges - {(2, 3), (3, 4)})
        assert [sorted(c) for c in components(g)] == [[1, 2, 4], [3]]

    def test_group_count_values(self):
        assert group_count(PATH3) == 1
        assert group_count(Graph(4, frozenset())) == 4
        assert group_count(Graph(PATH3.n, PATH3.edges - {(1, 2)})) == 2


class TestAgentGroupIndex:
    def test_connected_graph_is_zero(self):
        assert agent_group_index(PATH3) == 0
        assert agent_group_index(DIAMOND4) == 0

    def test_split_four_agents(self):
        g = Graph.from_edges(4, [(1, 2), (2, 4)])
        assert agent_group_index(g) == 9 + 1 - 16 == -6

    def test_three_isolated_agents(self):
        assert agent_group_index(Graph(3, frozenset())) == 1 + 1 + 1 - 9 == -6

    @settings(max_examples=100)
    @given(random_graph_strategy())
    def test_nonpositive_and_zero_iff_connected(self, g):
        c = agent_group_index(g)
        assert c <= 0
        assert (c == 0) == (group_count(g) == 1)

    @settings(max_examples=100)
    @given(random_graph_strategy())
    def test_matches_component_formula(self, g):
        parts = components(g)
        assert agent_group_index(g) == sum(len(p) ** 2 for p in parts) - g.n**2

    @settings(max_examples=100)
    @given(random_graph_strategy())
    def test_edge_removal_monotonicity(self, g):
        for e in g.sorted_edges:
            smaller = Graph(g.n, g.edges - {e})
            assert group_count(smaller) >= group_count(g)
            assert agent_group_index(smaller) <= agent_group_index(g)


class TestEdgeConnectivity:
    def test_path_of_three(self):
        assert edge_connectivity(PATH3) == 1

    def test_four_cycle(self):
        cycle = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert edge_connectivity(cycle) == 2

    def test_complete_graph_on_four(self):
        k4 = Graph.from_edges(4, combinations(range(1, 5), 2))
        assert edge_connectivity(k4) == 3

    def test_disconnected_graph_is_zero(self):
        assert edge_connectivity(Graph.from_edges(4, [(1, 2)])) == 0

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            edge_connectivity(Graph(1, frozenset()))

    @settings(max_examples=100)
    @given(random_graph_strategy(max_n=5, max_extra_edges=8))
    def test_matches_brute_force(self, g):
        assert edge_connectivity(g) == brute_force_edge_connectivity(g)


class TestApplyActions:
    def test_noop(self):
        assert apply_actions(PATH3, frozenset(), frozenset(), frozenset()) == PATH3

    def test_recovered_normal_attack_restores_edge(self):
        e = frozenset({(1, 2)})
        assert apply_actions(PATH3, frozenset(), e, e) == PATH3

    def test_strong_attack_is_unrecoverable(self):
        e = frozenset({(1, 2)})
        resolved = apply_actions(PATH3, e, frozenset(), e)
        assert (1, 2) not in resolved.edges
        assert resolved.edges == frozenset({(2, 3)})

    def test_recovering_unattacked_edge_changes_nothing(self):
        resolved = apply_actions(PATH3, frozenset(), frozenset({(2, 3)}), frozenset({(1, 2)}))
        assert resolved.edges == frozenset({(1, 2)})

    def test_overlapping_attacks_rejected(self):
        e = frozenset({(1, 2)})
        with pytest.raises(ValueError):
            apply_actions(PATH3, e, e, frozenset())

    def test_action_outside_base_graph_rejected(self):
        with pytest.raises(ValueError):
            apply_actions(PATH3, frozenset({(1, 3)}), frozenset(), frozenset())

    @settings(max_examples=100)
    @given(random_graph_strategy(max_n=4, max_extra_edges=6), st.data())
    def test_resolved_edges_bounded(self, g, data):
        edges = sorted(g.edges)
        if not edges:
            return
        strong = frozenset(data.draw(st.sets(st.sampled_from(edges))))
        normal = frozenset(data.draw(st.sets(st.sampled_from(edges)))) - strong
        recover = frozenset(data.draw(st.sets(st.sampled_from(edges))))
        resolved = apply_actions(g, strong, normal, recover)
        assert resolved.edges == (g.edges - strong - normal) | (recover & normal)
        assert strong & resolved.edges == frozenset()
