"""Static feasibility conditions, clustering bounds, and brute-force oracles.

The condition report and the cluster bound are pure functions of the scenario
configuration; nothing here runs the game. The brute-force solver enumerates
whole plans and exists to cross-check the backward-induction solver: the two
share only the game's rules, never the search. Those rules are the action
catalogs (`_attack_catalog`, `_defense_catalog`), the affordability rule
(`_affordable`), the opponent information structure (`Schedule.knows` and
`Schedule.supplier`), the step payoff and the tie-break rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import State, consensus_step, detect_clusters
from .energy import EDGE_ATTACK, NODE_ATTACK, budget_at, defense_cost
from .game import (
    ATTACKER,
    DEFENDER,
    AttackAction,
    DefenseAction,
    Game,
    Plan,
    SolveContext,
    _affordable,
    _attack_catalog,
    _defense_catalog,
    opponent,
    step_payoff,
    tie_break,
)
from .network import (
    Edge,
    Graph,
    apply_actions,
    edge_connectivity,
    is_connected,
)
from .rolling import Trace
from .scenario import DEFAULT_WORK_BOUND_THETA


class WorkBoundExceeded(RuntimeError):
    """An exact enumeration would exceed its configured work bound."""


# --- splitting power of attack sets ------------------------------------------


def theta_vector(g: Graph, mode: str = EDGE_ATTACK, work_bound: int = DEFAULT_WORK_BOUND_THETA) -> tuple[int, ...]:
    """Exact maximal group counts over every attack-set size: entry r - 1 is Theta_r, for exactly r removals.

    Edge mode removes the attacked edges and counts the groups left. Node mode
    removes the attacked vertices with their incident edges and counts groups
    among the remainder, so the last entry is 0. Both refuse before any
    enumeration when 2^items exceeds the bound. Edge mode walks the closed
    edge sets (_theta_by_flats), at most (m + 1)*min(Bell(n), 2^m) nodes for
    n vertices and m edges; node mode walks the vertex subsets by
    branch-and-bound (_best_group_counts). Both walks recurse one level per
    item and take their first branch straight down, so a walk deeper than the
    interpreter's recursion limit is refused before any search.
    """
    node_mode = mode == NODE_ATTACK
    size = g.n if node_mode else len(g.edges)
    kind = "node" if node_mode else "edge"
    if size > work_bound:
        raise WorkBoundExceeded(f"{kind} enumeration needs 2^{size} subsets, bound is 2^{work_bound}")
    kernel = _best_group_counts if node_mode else _theta_by_flats
    try:
        return tuple(kernel(g.n, g.sorted_edges))
    except RecursionError:
        raise WorkBoundExceeded(f"{kind} enumeration recurses {size} deep, past the interpreter's recursion limit") from None


def _theta_by_flats(n: int, edges: tuple[Edge, ...]) -> list[int]:
    """Edge-mode Theta_r for r = 1..len(edges): most groups left after removing exactly r edges.

    The groups an optimal attack leaves can be taken connected, so it is
    enough to walk the flats (closed edge sets) of the graph's cycle matroid:
    kept edges that include every edge whose two ends they connect. One
    depth-first pass decides each edge in turn, removed then kept, and keeps
    each prefix closed: an edge whose two ends are already in one group is
    only kept, and keeping an edge that would join two groups with a removed
    edge between them ends the branch (cut[v] has bit u for each removed edge
    u-v). The prefixes at depth d are the flats of the first d edges, at most
    min(Bell(n), 2^d) of them.

    The pass is an exact branch-and-bound. best[r] is the most groups over
    the leaves visited so far with at most r removals. Below a node removals
    only rise and groups only fall, and Theta_r never falls as r grows, so a
    node whose groups best[removed] already reaches cannot raise any entry
    and is skipped.
    """
    m = len(edges)
    best = [0] * (m + 1)
    cut = [0] * (n + 1)
    steps = [(u, v, 1 << u, 1 << v) for u, v in edges]

    def visit(d: int, group_of: list[int], groups: int, removed: int) -> None:
        if best[removed] >= groups:
            return
        if d == m:
            for r in range(removed, m + 1):
                if best[r] >= groups:
                    break
                best[r] = groups
            return
        u, v, bit_u, bit_v = steps[d]
        a, b = group_of[u], group_of[v]
        if a == b:
            visit(d + 1, group_of, groups, removed)
            return
        cut[u] |= bit_v
        cut[v] |= bit_u
        visit(d + 1, group_of, groups, removed + 1)
        cut[u] ^= bit_v
        cut[v] ^= bit_u
        if a.bit_count() > b.bit_count():
            a, b = b, a
        rest = a
        while rest:
            low = rest & -rest
            if cut[low.bit_length() - 1] & b:
                return
            rest ^= low
        visit(d + 1, _joined(group_of, a | b), groups - 1, removed)

    visit(0, [1 << v for v in range(n + 1)], n, 0)
    return best[1:]


def _best_group_counts(n: int, edges: tuple[Edge, ...]) -> list[int]:
    """Node-mode Theta_r for r = 1..n: most groups left after removing exactly r vertices.

    One depth-first pass decides vertex 1, 2, ..., n in turn: removed, or
    kept. A kept vertex enters as a group of its own and joins the groups of
    its kept lower neighbors (_joined), so a subset costs no graph, set or
    search of its own.

    The pass is an exact branch-and-bound. Keeping one vertex adds at most one
    group, so removing one more vertex from an optimal set costs at most one
    group and f(r) = Theta_r + r never falls as r grows. Invariant: best[r] is
    the most groups + removed over the leaves visited so far with at most r
    removals, so best never falls along r; a leaf fills its value into
    best[removed], best[removed+1], ... while they are lower, and at the end
    best[r] = f(r). A leaf below a node with `removed` removals at depth d
    scores at most groups + removed + n - d, since a kept vertex adds at most
    one group and a join only lowers the count; when best[removed] already
    reaches that, no leaf below can raise any entry and the branch is
    skipped. Exactness does not depend on the visit order.
    """
    best = [0] * (n + 1)
    lower = [[] for _ in range(n + 1)]
    for u, v in edges:
        lower[v].append((u, 1 << u))
    steps = [(v, 1 << v, lower[v]) for v in range(1, n + 1)]

    def visit(d: int, group_of: list[int], present: int, groups: int, removed: int) -> None:
        top = groups + removed + n - d  # no leaf below scores more
        if best[removed] >= top:
            return
        if d == n:  # a leaf, and top is its own score
            for r in range(removed, n + 1):
                if best[r] >= top:
                    break
                best[r] = top
            return
        visit(d + 1, group_of, present, groups, removed + 1)
        v, bit, links = steps[d]
        present |= bit
        groups += 1
        for u, bit_u in links:
            if present & bit_u and group_of[u] != group_of[v]:
                group_of = _joined(group_of, group_of[u] | group_of[v])
                groups -= 1
        visit(d + 1, group_of, present, groups, removed)

    visit(0, [1 << v for v in range(n + 1)], 0, 0, 0)
    return [best[r] - r for r in range(1, n + 1)]


def _joined(group_of: list[int], members: int) -> list[int]:
    """A copy of group_of with `members` made one group.

    group_of[v] is the int bitmask of v's group, stored at each member, so a
    join rewrites only the members of the groups it merges.
    """
    group_of = group_of.copy()
    rest = members
    while rest:
        low = rest & -rest
        group_of[low.bit_length() - 1] = members
        rest ^= low
    return group_of


# --- configuration-level conditions -------------------------------------------


def _cases(game: Game) -> tuple[bool, bool]:
    sched = game.schedule
    disagreement_only = game.util.b == 0
    case_a = (
        disagreement_only
        and sched.h_defender >= sched.h_attacker
        and sched.lcm_period == sched.T_attacker
    )
    case_b = disagreement_only and sched.T_defender == 1
    return case_a, case_b


def check_conditions(game: Game) -> dict:
    """Evaluate the consensus-prevention inequalities and their applicability, by name.

    The rate-per-price ratios are compared against edge connectivity for edge
    attacks and against 1 for node attacks, where isolating a single agent
    already prevents consensus. The tighter (strong-price) necessary condition
    applies only when the objective ignores grouping and the defender either
    re-decides every step or spans the attacker's window on a nested cadence.
    The ratios stay exact Fractions.
    """
    g, attacker = game.graph, game.attacker_energy
    lam = edge_connectivity(g)
    r_normal = attacker.rho / attacker.beta_normal
    r_strong = attacker.rho / attacker.beta_strong
    case_a, case_b = _cases(game)
    return {
        "edge_conn": lam,
        "ratio_normal": r_normal,
        "ratio_strong": r_strong,
        "necessary_normal": r_normal >= lam,
        "necessary_strong": r_strong >= lam,
        "case_a": case_a,
        "case_b": case_b,
        "tighter_applicable": case_a or case_b,
        "sufficient_full_split": r_strong >= len(g.edges),
        "necessary_normal_node": r_normal >= 1,
        "necessary_strong_node": r_strong >= 1,
    }


def cluster_upper_bound(
    game: Game, work_bound: int = DEFAULT_WORK_BOUND_THETA, theta: tuple[int, ...] | None = None
) -> int:
    """Largest cluster count the attacker's energy admits at infinite time.

    A strong-price ratio covering every edge (or node) makes a full split of n
    clusters reachable outright. Otherwise the split is limited by the best
    attack of the size the budget sustains: sized by the strong price when the
    tighter condition applies, by the normal price when recovery can be outrun.
    An attacker that cannot sustain even one attack leaves a single cluster.
    A caller that already holds the graph's theta vector for the game's attack
    mode passes it as `theta`; otherwise it is enumerated here, under
    `work_bound`, only when the bound needs it.
    """
    g, attacker, mode = game.graph, game.attacker_energy, game.cost_model.mode
    items = g.n if mode == NODE_ATTACK else len(g.edges)
    r_strong = attacker.rho / attacker.beta_strong
    if r_strong >= items:
        return g.n
    case_a, case_b = _cases(game)
    if case_a or case_b:
        index = math.floor(r_strong)
    else:
        index = min(items, math.floor(attacker.rho / attacker.beta_normal))
    if index < 1:
        return 1
    if theta is None:
        theta = theta_vector(g, mode, work_bound)
    return theta[index - 1]


# --- trace verdict -------------------------------------------------------------


@dataclass(frozen=True)
class ConsensusVerdict:
    """Clustering outcome of a finished trace.

    verdict is "undecided" when the run hit its step limit before the state
    settled. union_connected reports whether every full window of resolved
    graphs stays jointly connected (None when the trace is shorter than one
    window); whenever it is True, a settled run must have verdict "consensus".
    """

    verdict: str
    clusters: tuple[frozenset[int], ...]
    union_connected: bool | None


def consensus_verdict(trace: Trace) -> ConsensusVerdict:
    """Clusters at the scenario's cluster_tol; union windows span four lcm periods."""
    s = trace.scenario
    window = 4 * s.game.schedule.lcm_period
    clusters = detect_clusters(trace.final_state, s.cluster_tol)
    if trace.converged_at is None:
        verdict = "undecided"
    else:
        verdict = "consensus" if len(clusters) == 1 else "clusters"

    steps = trace.steps
    if len(steps) < window:
        union_connected = None
    else:
        unions = {
            frozenset().union(*(st.resolved_edges for st in steps[start : start + window]))
            for start in range(len(steps) - window + 1)
        }
        union_connected = all(is_connected(Graph(s.game.graph.n, edges)) for edges in unions)
    return ConsensusVerdict(verdict=verdict, clusters=clusters, union_connected=union_connected)


# --- brute-force plan search ----------------------------------------------------


class _Budget:
    def __init__(self, bound: int):
        self.bound = bound
        self.used = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.bound:
            raise WorkBoundExceeded(f"plan search exceeded {self.bound} leaf evaluations")


class _BruteForce:
    """Plan enumeration with freshly recomputed opponent behavior.

    Every mover plan is realized step by step: a known opponent block replays
    its committed actions, and every other step re-solves by plain recursion
    the objective of the opponent decision `Schedule.supplier` names, searching
    each predicted answer once: a predicted defense returns its value, which
    the attacker's pick reads. A leaf is a state past a searched window's end.
    No value is memoized and no search is shared with the backward-induction
    solver.
    """

    def __init__(self, ctx: SolveContext, work: _Budget):
        self.ctx = ctx
        self.game = game = ctx.game
        self.work = work
        self.g = game.graph
        self.cm = game.cost_model
        self.att_p = game.attacker_energy
        self.def_p = game.defender_energy
        self.w_end = game.schedule.window_end(ctx.mover, ctx.t0)

    def _feasible_attacks(self, t: int, sa: Fraction):
        catalog = _attack_catalog(self.g, self.cm.mode, self.att_p)
        return _affordable(catalog, budget_at(self.att_p, t) - sa)

    def _feasible_defenses(self, t: int, sd: Fraction, normal: frozenset[Edge]):
        priced = ((defense_cost(d.recover, normal, self.cm, self.def_p)[0], d) for d in _defense_catalog(self.g))
        return _affordable(priced, budget_at(self.def_p, t) - sd)

    def _step(self, x: State, attack: AttackAction, defense: DefenseAction):
        resolved = apply_actions(self.g, attack.strong, attack.normal, defense.recover)
        x1 = consensus_step(x, resolved, self.game.weights)
        return x1, step_payoff(x1, resolved, self.game.util)

    # plain-recursive predictions: attacker leads, defender follows, both modeled;
    # every value is attacker-side, as `step_payoff` is

    def _pick(self, cands, player, t, end, spent):
        """The chosen `(action, price, value)`: the attacker's largest value, the defender's smallest."""
        best = (max if player == ATTACKER else min)(v for _, _, v in cands)
        chosen = tie_break([a for a, _, v in cands if v == best], self.game, player, t, end, spent)
        return next(c for c in cands if c[0] == chosen)

    def _predict_defense(self, t, x, sa, sd, end, attack, cost_a):
        cands = []
        for cost_d, d in self._feasible_defenses(t, sd, attack.normal):
            x1, payoff = self._step(x, attack, d)
            cands.append((d, cost_d, payoff + self._predict_value(t + 1, x1, sa + cost_a, sd + cost_d, end)))
        return self._pick(cands, DEFENDER, t, end, sd)

    def _predict_attack(self, t, x, sa, sd, end):
        cands = [(a, c, self._predict_defense(t, x, sa, sd, end, a, c)[2]) for c, a in self._feasible_attacks(t, sa)]
        return self._pick(cands, ATTACKER, t, end, sa)

    def _predict_value(self, t, x, sa, sd, end) -> Fraction:
        if t > end:
            self.work.tick()
            return Fraction(0)
        return max(
            self._predict_defense(t, x, sa, sd, end, a, cost_a)[2] for cost_a, a in self._feasible_attacks(t, sa)
        )

    # realized opponent action at one step of a mover trajectory

    def _opponent_at(self, t, x, sa, sd, mover_action=None, mover_cost=None):
        ctx, sched, opp = self.ctx, self.game.schedule, opponent(self.ctx.mover)
        owner = sched.supplier(ctx.mover, ctx.t0, t)
        if owner < ctx.t0 and ctx.known:
            action = ctx.known[t - owner]
            if opp == DEFENDER:
                return action, defense_cost(action.recover, mover_action.normal, self.cm, self.def_p)[0]
            return action, action.cost(self.att_p)
        end = min(sched.window_end(opp, owner), self.w_end)
        if opp == DEFENDER:
            return self._predict_defense(t, x, sa, sd, end, mover_action, mover_cost)[:2]
        return self._predict_attack(t, x, sa, sd, end)[:2]

    # exhaustive mover plans

    def _extend(self, t, x, sa, sd, steps, total, found):
        if t > self.w_end:
            self.work.tick()
            found.append((tuple(steps), total))
            return
        if self.ctx.mover == ATTACKER:
            for cost_a, a in self._feasible_attacks(t, sa):
                d, cost_d = self._opponent_at(t, x, sa, sd, mover_action=a, mover_cost=cost_a)
                x1, payoff = self._step(x, a, d)
                self._extend(t + 1, x1, sa + cost_a, sd + cost_d, steps + [a], total + payoff, found)
        else:
            a, cost_a = self._opponent_at(t, x, sa, sd)
            for cost_d, d in self._feasible_defenses(t, sd, a.normal):
                x1, payoff = self._step(x, a, d)
                self._extend(t + 1, x1, sa + cost_a, sd + cost_d, steps + [d], total - payoff, found)

    def _filter_stepwise(self, plans):
        """Narrow equal-utility plans to one by per-step preference.

        An optimal plan is optimal after every prefix, so the survivors of each
        round share the realized prefix and the next step can be compared at
        identical energy states.
        """
        mover = self.ctx.mover
        x, sa, sd = self.ctx.state, self.ctx.attacker_spent, self.ctx.defender_spent
        for i, t in enumerate(range(self.ctx.t0, self.w_end + 1)):
            spent = sa if mover == ATTACKER else sd
            options = {p[i] for p in plans}
            chosen = tie_break(sorted(options, key=lambda a: a.sort_key), self.game, mover, t, self.w_end, spent)
            plans = [p for p in plans if p[i] == chosen]
            if mover == ATTACKER:
                cost_m = chosen.cost(self.att_p)
                d, cost_o = self._opponent_at(t, x, sa, sd, mover_action=chosen, mover_cost=cost_m)
                x, _ = self._step(x, chosen, d)
                sa, sd = sa + cost_m, sd + cost_o
            else:
                a, cost_o = self._opponent_at(t, x, sa, sd)
                cost_m, _ = defense_cost(chosen.recover, a.normal, self.cm, self.def_p)
                x, _ = self._step(x, a, chosen)
                sa, sd = sa + cost_o, sd + cost_m
        assert len(plans) == 1
        return plans[0]

    def solve(self) -> Plan:
        found: list[tuple[tuple, Fraction]] = []
        ctx = self.ctx
        self._extend(ctx.t0, ctx.state, ctx.attacker_spent, ctx.defender_spent, [], Fraction(0), found)
        best = max(total for _, total in found)
        winners = [steps for steps, total in found if total == best]
        return ctx.plan(self._filter_stepwise(winners), best)


def brute_force_equilibrium(ctx: SolveContext, work_bound: int = 1_000_000) -> Plan:
    """Reference solution by whole-plan enumeration, refused past `work_bound` leaves; see _BruteForce."""
    return _BruteForce(ctx, _Budget(work_bound)).solve()
