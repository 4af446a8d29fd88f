"""Undirected agent graphs and the graph functions the game objectives need.

Graphs are immutable values over vertices labeled 1..n with canonically ordered
edges (smaller label first), so set operations, enumeration, and tie-breaking
are deterministic across runs and platforms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

Edge = tuple[int, int]


def canonical_edge(i: int, j: int) -> Edge:
    """Return the (min, max) form of an edge between distinct vertices."""
    if i == j:
        raise ValueError(f"self-loop ({i}, {j}) is not a valid edge")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Graph:
    """Undirected graph over vertices 1..n with a canonical frozen edge set."""

    n: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"agent count must be positive, got {self.n}")
        for i, j in self.edges:
            if not (1 <= i < j <= self.n):
                raise ValueError(f"edge ({i}, {j}) is not canonical within 1..{self.n}")

    @classmethod
    def from_edges(cls, n: int, edges) -> Graph:
        """Build a graph from any iterable of vertex pairs, canonicalizing order."""
        canon = set()
        for i, j in edges:
            e = canonical_edge(int(i), int(j))
            if e in canon:
                raise ValueError(f"duplicate edge {e}")
            canon.add(e)
        return cls(n=n, edges=frozenset(canon))

    @property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    def incident_edges(self, vertices) -> frozenset[Edge]:
        vs = set(vertices)
        return frozenset(e for e in self.edges if e[0] in vs or e[1] in vs)


def components(g: Graph) -> tuple[frozenset[int], ...]:
    """Connected components of g as vertex sets, ordered by smallest member label."""
    adj: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen: set[int] = set()
    groups = []
    for start in range(1, g.n + 1):
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        comp = {start}
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        groups.append(frozenset(comp))
    return tuple(groups)


def group_count(g: Graph) -> int:
    """Number of connected components; 1 iff g is connected."""
    return len(components(g))


def is_connected(g: Graph) -> bool:
    return group_count(g) == 1


def agent_group_index(g: Graph) -> int:
    """Fragmentation index sum(|group|^2) - n^2; always <= 0, 0 iff connected."""
    return sum(len(c) ** 2 for c in components(g)) - g.n**2


def edge_connectivity(g: Graph) -> int:
    """Minimum number of edges whose removal disconnects g; 0 if already disconnected.

    Computed as the minimum over s-t max-flows with unit edge capacities,
    fixing s = 1 and varying t (sufficient for a global edge cut).
    """
    if g.n < 2:
        raise ValueError("edge connectivity needs at least 2 vertices")
    if not is_connected(g):
        return 0
    best = len(g.edges)
    for t in range(2, g.n + 1):
        best = min(best, _max_flow_unit(g, 1, t))
    return best


def _max_flow_unit(g: Graph, s: int, t: int) -> int:
    # Edmonds-Karp on the undirected unit-capacity graph: residual capacity per
    # directed arc, BFS augmenting paths. Desk-scale graphs only.
    cap: dict[tuple[int, int], int] = {}
    adj: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for i, j in g.edges:
        cap[(i, j)] = 1
        cap[(j, i)] = 1
        adj[i].append(j)
        adj[j].append(i)
    flow = 0
    while True:
        parent = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            v = queue.popleft()
            for w in adj[v]:
                if w not in parent and cap[(v, w)] > 0:
                    parent[w] = v
                    queue.append(w)
        if t not in parent:
            return flow
        v = t
        while v != s:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1


def apply_actions(
    g0: Graph,
    strong: frozenset[Edge],
    normal: frozenset[Edge],
    recover: frozenset[Edge],
) -> Graph:
    """Resolve one step of attacks and recovery against the base graph g0.

    Returns the resolved graph: g0 without the strong and normal edges, with
    recover ∩ normal restored. Strongly attacked or unattacked edges in the
    recover set restore nothing.
    """
    for name, es in (("strong", strong), ("normal", normal), ("recover", recover)):
        outside = es - g0.edges
        if outside:
            raise ValueError(f"{name} action targets edges outside the base graph: {sorted(outside)}")
    overlap = strong & normal
    if overlap:
        raise ValueError(f"edges attacked both normally and strongly: {sorted(overlap)}")
    return Graph(g0.n, (g0.edges - strong - normal) | (recover & normal))
