"""Static feasibility conditions, clustering bounds, and brute-force oracles.

The condition report and the cluster bound are pure functions of the scenario
configuration; nothing here runs the game. The brute-force solver enumerates
whole plans and exists to cross-check the backward-induction solver: the two
share only the opponent information structure (`Schedule.knows` and
`Schedule.supplier`), the step payoff and the tie-break rule, never the search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import State, consensus_step, detect_clusters
from .energy import EDGE_ATTACK, NODE_ATTACK, CostModel, EnergyParams, budget_at, defense_cost
from .game import (
    ATTACKER,
    DEFENDER,
    AttackAction,
    DefenseAction,
    Game,
    Plan,
    SolveContext,
    opponent,
    step_payoff,
    tie_break,
)
from .network import (
    Edge,
    Graph,
    Partition,
    apply_actions,
    edge_connectivity,
    is_connected,
)
from .rolling import Trace
from .scenario import DEFAULT_WORK_BOUND_THETA


class WorkBoundExceeded(RuntimeError):
    """An exact enumeration would exceed its configured work bound."""


# --- splitting power of attack sets ------------------------------------------


@dataclass(frozen=True)
class ThetaVector:
    """Maximal group counts by attack size; entry i-1 is for exactly i removals."""

    mode: str
    values: tuple[int, ...]

    def at(self, i: int) -> int:
        """Theta_i, 1-indexed like the removal count."""
        return self.values[i - 1]


def theta_vector(g: Graph, mode: str = EDGE_ATTACK, work_bound: int = DEFAULT_WORK_BOUND_THETA) -> ThetaVector:
    """Exact maximal group counts over every attack-set size.

    Edge mode enumerates all edge subsets; node mode removes the attacked
    vertices with their incident edges and counts groups among the remainder,
    so the last entry is 0. Both walk every subset in one incremental pass
    (_best_group_counts) and refuse before it when 2^items exceeds the bound.
    """
    node_mode = mode == NODE_ATTACK
    size = g.n if node_mode else len(g.edges)
    if size > work_bound:
        kind = "node" if node_mode else "edge"
        raise WorkBoundExceeded(f"{kind} enumeration needs 2^{size} subsets, bound is 2^{work_bound}")
    if node_mode:
        # a kept vertex enters as a group of its own and joins its kept lower neighbors
        lower = {v: [] for v in range(1, g.n + 1)}
        for u, v in g.sorted_edges:
            lower[v].append((u, v))
        values = _best_group_counts(g.n, [(1 << v, lower[v]) for v in lower], present=0)
    else:
        every_vertex = sum(1 << v for v in range(1, g.n + 1))
        values = _best_group_counts(g.n, [(0, [e]) for e in g.sorted_edges], present=every_vertex)
    return ThetaVector(mode=mode, values=tuple(values))


def _best_group_counts(n: int, items: list[tuple[int, list[Edge]]], present: int) -> list[int]:
    """Most groups left after removing exactly r items, for r = 1..len(items).

    One depth-first pass decides each item in turn: removed, or kept. Keeping
    (vertex_bits, links) makes vertex_bits present, each a group of its own,
    then joins the groups at the two ends of every link whose ends are both
    present. `present` holds the vertices there before any item (bit v for
    vertex v). A group is the int bitmask of its vertices, stored at each
    member, so a join rewrites only the members of the two groups it merges
    and a subset costs no graph, set or search of its own.
    """
    m = len(items)
    best = [0] * (m + 1)
    steps = [(bits, bits.bit_count(), [(u, v, 1 << u | 1 << v) for u, v in links]) for bits, links in items]

    def visit(d: int, group_of: list[int], present: int, groups: int, removed: int) -> None:
        if d == m:
            if groups > best[removed]:
                best[removed] = groups
            return
        visit(d + 1, group_of, present, groups, removed + 1)
        bits, added, links = steps[d]
        present |= bits
        groups += added
        for u, v, ends in links:
            if present & ends == ends and group_of[u] != group_of[v]:
                joined = group_of[u] | group_of[v]
                group_of = group_of.copy()
                rest = joined
                while rest:
                    low = rest & -rest
                    group_of[low.bit_length() - 1] = joined
                    rest ^= low
                groups -= 1
        visit(d + 1, group_of, present, groups, removed)

    visit(0, [1 << v for v in range(n + 1)], present, present.bit_count(), 0)
    return best[1:]


# --- configuration-level conditions -------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Consensus-prevention inequalities evaluated for one configuration."""

    edge_conn: int
    ratio_normal: Fraction
    ratio_strong: Fraction
    necessary_normal: bool
    necessary_strong: bool
    case_a: bool
    case_b: bool
    tighter_applicable: bool
    sufficient_full_split: bool
    necessary_normal_node: bool
    necessary_strong_node: bool


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


def check_conditions(game: Game) -> ConditionReport:
    """Evaluate the consensus-prevention inequalities and their applicability.

    The rate-per-price ratios are compared against edge connectivity for edge
    attacks and against 1 for node attacks, where isolating a single agent
    already prevents consensus. The tighter (strong-price) necessary condition
    applies only when the objective ignores grouping and the defender either
    re-decides every step or spans the attacker's window on a nested cadence.
    """
    g, attacker = game.graph, game.attacker_energy
    lam = edge_connectivity(g)
    r_normal = attacker.rho / attacker.beta_normal
    r_strong = attacker.rho / attacker.beta_strong
    case_a, case_b = _cases(game)
    return ConditionReport(
        edge_conn=lam,
        ratio_normal=r_normal,
        ratio_strong=r_strong,
        necessary_normal=r_normal >= lam,
        necessary_strong=r_strong >= lam,
        case_a=case_a,
        case_b=case_b,
        tighter_applicable=case_a or case_b,
        sufficient_full_split=r_strong >= len(g.edges),
        necessary_normal_node=r_normal >= 1,
        necessary_strong_node=r_strong >= 1,
    )


def cluster_upper_bound(
    game: Game, work_bound: int = DEFAULT_WORK_BOUND_THETA, theta: ThetaVector | None = None
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
    return theta.at(index)


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
    clusters: Partition
    union_connected: bool | None


def consensus_verdict(trace: Trace) -> ConsensusVerdict:
    """Clusters at the scenario's cluster_tol; union windows span four lcm periods."""
    s = trace.scenario
    window = 4 * s.game.schedule.lcm_period
    clusters = detect_clusters(trace.final_state, s.cluster_tol)
    if trace.converged_at is None:
        verdict = "undecided"
    else:
        verdict = "consensus" if clusters.group_count == 1 else "clusters"

    steps = trace.steps
    if len(steps) < window:
        union_connected = None
    else:
        union_connected = True
        for start in range(len(steps) - window + 1):
            edges = frozenset().union(*(st.resolved_edges for st in steps[start : start + window]))
            if not is_connected(Graph(s.game.graph.n, edges)):
                union_connected = False
                break
    return ConsensusVerdict(verdict=verdict, clusters=clusters, union_connected=union_connected)


# --- brute-force plan search ----------------------------------------------------


def _all_attacks(g: Graph, cm: CostModel, params: EnergyParams) -> list[tuple[AttackAction, Fraction]]:
    out = []
    if cm.mode == NODE_ATTACK:
        for marks in itertools.product((None, "normal", "strong"), repeat=g.n):
            strong_nodes = frozenset(v for v, m in zip(range(1, g.n + 1), marks) if m == "strong")
            normal_nodes = frozenset(v for v, m in zip(range(1, g.n + 1), marks) if m == "normal")
            strong = g.incident_edges(strong_nodes)
            normal = g.incident_edges(normal_nodes) - strong
            out.append(AttackAction(strong, normal, strong_nodes=strong_nodes, normal_nodes=normal_nodes))
    else:
        for marks in itertools.product((None, "normal", "strong"), repeat=len(g.edges)):
            strong = frozenset(e for e, m in zip(g.sorted_edges, marks) if m == "strong")
            normal = frozenset(e for e, m in zip(g.sorted_edges, marks) if m == "normal")
            out.append(AttackAction(strong, normal))
    return [(a, a.cost(params)) for a in out]


def _all_defenses(g: Graph) -> list[DefenseAction]:
    edges = g.sorted_edges
    out = []
    for i in range(len(edges) + 1):
        for combo in itertools.combinations(edges, i):
            out.append(DefenseAction(frozenset(combo)))
    return out


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
    the objective of the opponent decision `Schedule.supplier` names. No value
    is memoized and no search is shared with the backward-induction solver.
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
        self.attacks = _all_attacks(self.g, self.cm, self.att_p)
        self.defenses = _all_defenses(self.g)

    def _feasible_attacks(self, t: int, sa: Fraction):
        limit = budget_at(self.att_p, t) - sa
        return [(a, c) for a, c in self.attacks if c <= limit or a.size == 0]

    def _feasible_defenses(self, t: int, sd: Fraction, normal: frozenset[Edge]):
        limit = budget_at(self.def_p, t) - sd
        out = []
        for d in self.defenses:
            cost, _ = defense_cost(d.recover, normal, self.cm, self.def_p)
            if cost <= limit or d.size == 0:
                out.append((d, cost))
        return out

    def _step(self, x: State, attack: AttackAction, defense: DefenseAction):
        resolved = apply_actions(self.g, attack.strong, attack.normal, defense.recover)
        x1 = consensus_step(x, resolved, self.game.weights)
        return x1, step_payoff(x1, resolved, self.game.util)

    # plain-recursive predictions: attacker leads, defender follows, both modeled

    def _pick(self, cands, player, t, end, spent):
        top = max(v for _, v in cands)
        return tie_break([a for a, v in cands if v == top], self.game, player, t, end, spent)

    def _predict_defense(self, t, x, sa, sd, end, attack, cost_a):
        cands = []
        for d, cost_d in self._feasible_defenses(t, sd, attack.normal):
            x1, payoff = self._step(x, attack, d)
            tail = self._predict_value(t + 1, x1, sa + cost_a, sd + cost_d, end)
            cands.append(((d, cost_d), -payoff - tail))
        d = self._pick([(dc[0], v) for dc, v in cands], DEFENDER, t, end, sd)
        return d, next(c for (dd, c), _ in cands if dd == d)

    def _predict_attack(self, t, x, sa, sd, end):
        cands = []
        for a, cost_a in self._feasible_attacks(t, sa):
            d, cost_d = self._predict_defense(t, x, sa, sd, end, a, cost_a)
            x1, payoff = self._step(x, a, d)
            tail = self._predict_value(t + 1, x1, sa + cost_a, sd + cost_d, end)
            cands.append(((a, cost_a), payoff + tail))
        a = self._pick([(ac[0], v) for ac, v in cands], ATTACKER, t, end, sa)
        return a, next(c for (aa, c), _ in cands if aa == a)

    def _predict_value(self, t, x, sa, sd, end) -> Fraction:
        if t > end:
            self.work.tick()
            return Fraction(0)
        best = None
        for a, cost_a in self._feasible_attacks(t, sa):
            d, cost_d = self._predict_defense(t, x, sa, sd, end, a, cost_a)
            x1, payoff = self._step(x, a, d)
            val = payoff + self._predict_value(t + 1, x1, sa + cost_a, sd + cost_d, end)
            if best is None or val > best:
                best = val
        return best

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
            return self._predict_defense(t, x, sa, sd, end, mover_action, mover_cost)
        return self._predict_attack(t, x, sa, sd, end)

    # exhaustive mover plans

    def _extend(self, t, x, sa, sd, steps, total, found):
        if t > self.w_end:
            self.work.tick()
            found.append((tuple(steps), total))
            return
        if self.ctx.mover == ATTACKER:
            for a, cost_a in self._feasible_attacks(t, sa):
                d, cost_d = self._opponent_at(t, x, sa, sd, mover_action=a, mover_cost=cost_a)
                x1, payoff = self._step(x, a, d)
                self._extend(t + 1, x1, sa + cost_a, sd + cost_d, steps + [a], total + payoff, found)
        else:
            a, cost_a = self._opponent_at(t, x, sa, sd)
            for d, cost_d in self._feasible_defenses(t, sd, a.normal):
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
                cost_m = next(c for a, c in self.attacks if a == chosen)
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
    """Reference solution by whole-plan enumeration; see _BruteForce."""
    return _BruteForce(ctx, _Budget(work_bound)).solve()
