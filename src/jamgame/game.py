"""The game of one run, action spaces, step utilities, and the plan solver for one decision.

A `Game` is everything a run's decisions share: graph, consensus weights,
utility, `Schedule` and both players' energy lines and cost model. A
`SolveContext` adds what one decision alone holds: the state, the decision
time, the mover, both spends and the opponent block the mover knows.

The solver builds one Stackelberg tree over the mover's lookahead window; within
every step the attacker commits first and the defender responds. Opponent actions
come from three sources, in priority order:

* the opponent's block in force is fixed data when `Schedule.knows` lets the
  mover know it (only the block actually being applied counts; the opponent's
  unapplied plan tail is superseded by its next decision and is predicted
  instead);
* everything else is predicted by modeling the opponent's own optimization:
  `Schedule.supplier` names the opponent decision whose plan supplies each
  step, and that decision's window, clipped to the mover's, is the model's;
* the mover's own actions are free variables optimized over the whole window.

Predictions are self-contained: a predicted player anticipates the other side
through the same model, never through the mover's actual candidate actions
beyond the current step, and responses are re-evaluated fresh at every step of
whatever branch the mover explores.

Every step is one zero-sum stage, so the solver is one minimax recursion with
attacker-side values, which the attacker maximizes and the defender minimizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product

from .dynamics import State, Weights, as_fraction, consensus_update, make_state, state_difference
from .energy import (
    NODE_ATTACK,
    CostModel,
    EnergyParams,
    attack_cost,
    budget_at,
    defense_cost,
)
from .network import Edge, Graph, agent_group_index, apply_actions

ATTACKER = "attacker"
DEFENDER = "defender"


@dataclass(frozen=True)
class AttackAction:
    """Edges attacked strongly and normally; in node mode, also the nodes chosen.

    `size` (the number of items committed, at the granularity the action was
    chosen at) and `sort_key` (the canonical order) are computed once, when
    the action is built, since tie-breaks compare them far more often.
    """

    strong: frozenset[Edge]
    normal: frozenset[Edge]
    strong_nodes: frozenset[int] = frozenset()
    normal_nodes: frozenset[int] = frozenset()
    size: int = field(init=False, repr=False, compare=False)
    sort_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.strong & self.normal:
            raise ValueError(f"edges attacked both ways: {sorted(self.strong & self.normal)}")
        if self.strong_nodes & self.normal_nodes:
            raise ValueError(f"nodes attacked both ways: {sorted(self.strong_nodes & self.normal_nodes)}")
        strong, normal = (self.strong_nodes, self.normal_nodes) if self.node_mode else (self.strong, self.normal)
        object.__setattr__(self, "size", len(strong) + len(normal))
        object.__setattr__(self, "sort_key", (tuple(sorted(strong)), tuple(sorted(normal))))

    @property
    def node_mode(self) -> bool:
        return bool(self.strong_nodes or self.normal_nodes)

    def cost(self, params: EnergyParams) -> Fraction:
        """Price of this attack, at the granularity it was chosen at."""
        if self.node_mode:
            return attack_cost(self.strong_nodes, self.normal_nodes, params)
        return attack_cost(self.strong, self.normal, params)

    @classmethod
    def empty(cls) -> AttackAction:
        return cls(frozenset(), frozenset())


@dataclass(frozen=True)
class DefenseAction:
    """Edges the defender allocates recovery to this step; `size` and `sort_key` are built once."""

    recover: frozenset[Edge]
    size: int = field(init=False, repr=False, compare=False)
    sort_key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", len(self.recover))
        object.__setattr__(self, "sort_key", (tuple(sorted(self.recover)),))

    @classmethod
    def empty(cls) -> DefenseAction:
        return cls(frozenset())


@dataclass(frozen=True)
class UtilityWeights:
    """Weights on disagreement (a) and on fragmentation (b); not both zero."""

    a: Fraction = Fraction(1)
    b: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_fraction(self.a))
        object.__setattr__(self, "b", as_fraction(self.b))
        if self.a < 0 or self.b < 0:
            raise ValueError("utility weights must be nonnegative")
        if self.a == 0 and self.b == 0:
            raise ValueError("utility weights cannot both be zero")


@dataclass(frozen=True)
class Plan:
    """One decision's full lookahead plan; only the first T steps are ever applied."""

    owner: str
    decision_index: int
    start_time: int
    steps: tuple
    utility: Fraction


@dataclass(frozen=True)
class Schedule:
    """Decision period T and lookahead window length h of both players.

    The one home of the cadence rules: each period is at least 1 and at most
    its horizon, the per-player lookup, when a player re-decides and where its
    window ends, the lcm of the periods, what a mover may know of the
    opponent's plan in force and which opponent decision supplies each step.
    """

    T_attacker: int
    T_defender: int
    h_attacker: int
    h_defender: int

    def __post_init__(self) -> None:
        for who in (ATTACKER, DEFENDER):
            T, h = self.period(who), self.horizon(who)
            if not 1 <= T <= h:
                raise ValueError(f"{who} needs 1 <= period <= horizon, got T={T}, h={h}")

    @property
    def lcm_period(self) -> int:
        return math.lcm(self.T_attacker, self.T_defender)

    def period(self, player: str) -> int:
        return self.T_attacker if player == ATTACKER else self.T_defender

    def horizon(self, player: str) -> int:
        return self.h_attacker if player == ATTACKER else self.h_defender

    def decides(self, player: str, k: int) -> bool:
        """True iff the player re-decides at step k: a nonnegative multiple of its period."""
        return k >= 0 and k % self.period(player) == 0

    def anchor(self, player: str, t: int) -> int:
        """The player's latest decision time at or before t."""
        T = self.period(player)
        return t // T * T

    def window_end(self, player: str, t: int) -> int:
        """Last step of the window the player plans over when it decides at t."""
        return t + self.horizon(player) - 1

    def supplier(self, mover: str, t0: int, t: int) -> int:
        """The opponent decision time whose plan supplies step t of the mover's window from t0.

        From the block in force at t0 on, it is the earliest opponent decision
        whose window reaches t: the latest at or before t - h + T.
        """
        opp = opponent(mover)
        T = self.period(opp)
        first = self.anchor(opp, t0)
        if first < t0 and t >= first + T:  # past the block in force
            first += T
        return max(first, self.anchor(opp, t - self.horizon(opp) + T))

    def knows(self, mover: str, t: int) -> bool:
        """True iff the mover, deciding at t, knows the applied block of the opponent's plan in force.

        A plan decided at t itself is made alongside the mover's and is
        predicted instead. An earlier one is known iff it was decided at a
        common decision time, or the opponent's whole planning window fits
        inside the window the mover had in force when the opponent decided.
        """
        opp = opponent(mover)
        t_d = self.anchor(opp, t)
        if t_d >= t:
            return False
        return self.decides(mover, t_d) or self.window_end(opp, t_d) <= self.window_end(mover, self.anchor(mover, t_d))


@dataclass(frozen=True)
class Game:
    """The configuration every decision of one run shares.

    Checks where graph meets weights: one weight row per agent, and weight
    only on base edges. Holds no catalog; those are built lazily. `Weights`
    holds a dict, so a `Game` is compared, never hashed.
    """

    graph: Graph
    weights: Weights
    util: UtilityWeights
    schedule: Schedule
    attacker_energy: EnergyParams
    defender_energy: EnergyParams
    cost_model: CostModel = CostModel()

    def __post_init__(self) -> None:
        if self.weights.n != self.graph.n:
            raise ValueError(f"weights are for {self.weights.n} agents, the graph has {self.graph.n}")
        off_graph = sorted(set(self.weights.by_edge) - self.graph.edges)
        if off_graph:
            raise ValueError(f"weight on non-edge {off_graph[0]}")

    def energy(self, player: str) -> EnergyParams:
        return self.attacker_energy if player == ATTACKER else self.defender_energy


@dataclass(frozen=True)
class SolveContext:
    """One decision of a game: state, time, mover, spends so far, and knowledge.

    The state and both spends are coerced to exact Fractions, so float or
    integer input solves exactly as its exact value does.

    `known` is the applied block of the opponent's plan in force, one action
    per step of the opponent's period from its latest decision time, or `()`
    when the mover knows nothing. A block is refused unless `Schedule.knows`
    allows it, it is one period long and its actions are the opponent's
    actions in this game.
    """

    game: Game
    state: State
    t0: int
    mover: str
    attacker_spent: Fraction = Fraction(0)
    defender_spent: Fraction = Fraction(0)
    known: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", make_state(self.state))
        object.__setattr__(self, "attacker_spent", as_fraction(self.attacker_spent))
        object.__setattr__(self, "defender_spent", as_fraction(self.defender_spent))
        if self.mover not in (ATTACKER, DEFENDER):
            raise ValueError(f"unknown mover {self.mover!r}")
        if len(self.state) != self.game.graph.n:
            raise ValueError("state length must match agent count")
        sched = self.game.schedule
        if not sched.decides(self.mover, self.t0):
            raise ValueError(f"time {self.t0} is not a {self.mover} decision time")
        if not self.known:
            return
        opp = opponent(self.mover)
        if not sched.knows(self.mover, self.t0):
            raise ValueError(f"the {self.mover} deciding at {self.t0} cannot know the {opp}'s block in force")
        if len(self.known) != sched.period(opp):
            raise ValueError(f"a known {opp} block holds {sched.period(opp)} actions, got {len(self.known)}")
        game = self.game
        if opp == ATTACKER:
            catalog = {a for _, a in _attack_catalog(game.graph, game.cost_model.mode, game.attacker_energy)}
        else:
            catalog = set(_defense_catalog(game.graph))
        if not catalog.issuperset(self.known):
            raise ValueError(f"a known {opp} action is not an action of this game")

    def plan(self, steps, utility: Fraction) -> Plan:
        """The mover's plan decided here, numbered from 1 by its decision times."""
        index = self.t0 // self.game.schedule.period(self.mover) + 1
        return Plan(owner=self.mover, decision_index=index, start_time=self.t0, steps=tuple(steps), utility=utility)


def opponent(player: str) -> str:
    return DEFENDER if player == ATTACKER else ATTACKER


# --- action catalogs ---------------------------------------------------------


@lru_cache(maxsize=None)
def _attack_catalog(g: Graph, mode: str, params: EnergyParams):
    """All attack actions on g with their costs, in canonical order."""
    actions = []
    if mode == NODE_ATTACK:
        nodes = list(range(1, g.n + 1))
        for marks in product((0, 1, 2), repeat=len(nodes)):
            strong_nodes = frozenset(v for v, m in zip(nodes, marks) if m == 2)
            normal_nodes = frozenset(v for v, m in zip(nodes, marks) if m == 1)
            strong = g.incident_edges(strong_nodes)
            normal = g.incident_edges(normal_nodes) - strong
            actions.append(AttackAction(strong, normal, strong_nodes, normal_nodes))
    else:
        edges = list(sorted(g.edges))
        for marks in product((0, 1, 2), repeat=len(edges)):
            strong = frozenset(e for e, m in zip(edges, marks) if m == 2)
            normal = frozenset(e for e, m in zip(edges, marks) if m == 1)
            actions.append(AttackAction(strong, normal))
    actions.sort(key=lambda a: a.sort_key)
    return tuple((a.cost(params), a) for a in actions)


@lru_cache(maxsize=None)
def _defense_catalog(g: Graph):
    """All recovery subsets of the base edge set, in canonical order."""
    edges = list(sorted(g.edges))
    out = []
    for marks in product((0, 1), repeat=len(edges)):
        recover = frozenset(e for e, m in zip(edges, marks) if m == 1)
        out.append(DefenseAction(recover))
    out.sort(key=lambda d: d.sort_key)
    return tuple(out)


def _affordable(priced, limit) -> tuple:
    """The (price, action) pairs a player with `limit` left can pay for, in the order given.

    The empty action is always affordable, even past the budget line. Generic
    over the number type, so the solver's integer numerators and the oracle's
    Fractions share it.
    """
    return tuple((c, a) for c, a in priced if c <= limit or a.size == 0)


def step_payoff(x_next: State, g_resolved: Graph, w: UtilityWeights) -> Fraction:
    """Attacker-side step summand a*disagreement(x_next) - b*group_index(g_resolved).

    The defender's summand is the exact negation.
    """
    total = Fraction(0)
    if w.a != 0:
        total += w.a * state_difference(x_next)
    if w.b != 0:
        total -= w.b * agent_group_index(g_resolved)
    return total


# --- tie-breaking ------------------------------------------------------------


def _full_action_cost(game: Game, player: str) -> Fraction:
    """Per-step price of the player's maximal action.

    The attacker's is attacking every item strongly, since EnergyParams keeps
    beta_strong > beta_normal > 0. The defender's is recovering every edge
    while every edge is normally attacked, which no waste mode prices lower.
    """
    p, g = game.energy(player), game.graph
    if player == ATTACKER:
        return attack_cost(range(1, g.n + 1) if game.cost_model.mode == NODE_ATTACK else g.edges, (), p)
    return defense_cost(g.edges, g.edges, game.cost_model, p)[0]


def _sustainable(spent, per_step, t: int, end: int, budget) -> bool:
    """True iff spent + per_step*(s - t + 1) <= budget(s) at every step s in t..end.

    Both sides are affine in s, so their gap is smallest at an end of the
    window: the steps s = t and s = end decide all of them. An empty window
    (t > end) is sustainable. Generic over the number type, so the Fraction
    rule below and the solver's integer numerators share it.
    """
    return t > end or (spent + per_step <= budget(t) and spent + per_step * (end - t + 1) <= budget(end))


def can_sustain_full_action(game: Game, player: str, spent: Fraction, t: int, window_end: int) -> bool:
    """True iff the player could afford its maximal action at every step t..window_end."""
    p = game.energy(player)
    return _sustainable(spent, _full_action_cost(game, player), t, window_end, lambda s: budget_at(p, s))


def _prefers(candidate, incumbent, want_more: bool) -> bool:
    """Preference among equal-value actions: size by energy stance, then canonical order."""
    if candidate.size != incumbent.size:
        return candidate.size > incumbent.size if want_more else candidate.size < incumbent.size
    return candidate.sort_key < incumbent.sort_key


def tie_break(candidates, game: Game, player: str, step_time: int, window_end: int, spent: Fraction):
    """Pick one of the player's equal-utility candidate actions at step_time, having spent `spent`.

    A player that can sustain its maximal action through window_end prefers
    acting on more items; otherwise on fewer. Residual ties go to the
    canonically smallest action.
    """
    if not candidates:
        raise ValueError("tie_break needs at least one candidate")
    want_more = can_sustain_full_action(game, player, spent, step_time, window_end)
    best = candidates[0]
    for action in candidates[1:]:
        if _prefers(action, best, want_more):
            best = action
    return best


# --- evaluation cache --------------------------------------------------------


Numerators = tuple[int, ...]


def _over(value: Fraction, scale: int) -> int:
    """Numerator of value over scale, a multiple of its denominator."""
    return value.numerator * (scale // value.denominator)


def _common_denominator(values) -> int:
    return math.lcm(*(v.denominator for v in values))


def _fraction(numerator: int, denominator: int) -> Fraction:
    """The Fraction numerator/denominator, in lowest terms: the one way back from integer numerators."""
    return Fraction(numerator, denominator)


class _Prices:
    """Decision-invariant pricing of one game over one money scale M.

    Prices, spends and budget lines are integer numerators over M. The table
    holds the attack catalog with its prices, which `attack_prices` also maps
    from action to price, the defense catalog, and memos of budget lines,
    defense (price, waste) pairs, the sustain test and option lists. Attack
    prices come from `AttackAction.cost` when the catalog is built; each memo
    is a `functools.cache` over its rule (`defense_cost`, `_sustainable` on
    the maximal action's price, `_affordable`), so no rule is restated here.
    `budget(player, t)` is the player's line k0 + r*t in whole numbers, with
    k0 and r read from `budget_at` at t = 0 and t = 1 when the table is
    built: the line is affine, so a miss at a new t costs one multiply and
    `budget_at` stays the one home of the rule. The memos close over locals,
    never over the table, so no reference cycle keeps a table or its step
    cache alive.

    An option list depends only on the slack `limit = budget(t) - spend`
    and, for defenses, on the normally attacked edges that price them, so
    `attacks(t, sa)` reads a list cached by `limit` and `defenses(t, sd,
    normal)` one cached by `(limit, normal)`: every (t, spend) with equal
    slack shares one list. The lists run from the dearest attack to the
    cheapest and from the largest recovery set to the smallest, each in
    canonical order within a price or size; the order is fixed when the
    table is built. Strong moves first give a predicted player's cutoffs a
    tight bound early. Order never changes a result: `_prefers` is a strict
    total order on equal values, so a best-response loop picks the same
    action in any visit order.
    """

    def __init__(self, game: Game, M: int):
        self.M = M
        priced = ((_over(c, M), a) for c, a in _attack_catalog(game.graph, game.cost_model.mode, game.attacker_energy))
        self.att_catalog = att_catalog = tuple(sorted(priced, key=lambda ca: -ca[0]))
        self.attack_prices = {a: c for c, a in att_catalog}
        self.def_catalog = def_catalog = tuple(sorted(_defense_catalog(game.graph), key=lambda d: -d.size))
        full_cost = {p: _over(_full_action_cost(game, p), M) for p in (ATTACKER, DEFENDER)}
        # each player's budget line as (k0, r) over M: budget(t) = k0 + r*t
        lines = {}
        for p in (ATTACKER, DEFENDER):
            k0 = _over(budget_at(game.energy(p), 0), M)
            lines[p] = (k0, _over(budget_at(game.energy(p), 1), M) - k0)

        @cache
        def budget(player: str, t: int) -> int:
            k0, r = lines[player]
            return k0 + r * t

        @cache
        def defense(recover: frozenset[Edge], normal: frozenset[Edge]) -> tuple[int, int]:
            cost, waste = defense_cost(recover, normal, game.cost_model, game.defender_energy)
            return _over(cost, M), _over(waste, M)

        @cache
        def sustain(player: str, spent: int, t: int, end: int) -> bool:
            return _sustainable(spent, full_cost[player], t, end, lambda s: budget(player, s))

        attack_options = cache(lambda limit: _affordable(att_catalog, limit))

        @cache
        def defense_options(limit: int, normal: frozenset[Edge]):
            return _affordable(((defense(d.recover, normal)[0], d) for d in def_catalog), limit)

        # feasible candidates at absolute time t

        def attacks(t: int, sa: int):
            return attack_options(budget(ATTACKER, t) - sa)

        def defenses(t: int, sd: int, normal: frozenset[Edge]):
            return defense_options(budget(DEFENDER, t) - sd, normal)

        self.budget, self.defense, self.sustain = budget, defense, sustain
        self.attacks, self.defenses = attacks, defenses


class StepCache:
    """Run-scoped memos of one game: step resolution, pricing, and the current decision time's model nodes.

    Each distinct (strong, normal, recover) triple is resolved against the
    base graph once, and its resolved graph is stored with that graph's group
    index and its consensus weights as integer numerators over D (`scale`),
    the lcm of the weight denominators. A state comes in as the numerators of
    its values over some common denominator s. The consensus update is
    linear, so the next state's numerators over s*D do not depend on s: `step`
    caches on (numerators, resolved edges) alone, and one cache serves every
    decision of a run. A miss runs `dynamics`' update and disagreement on
    integers only. `resolve` is the one resolution memo, which `step` and
    `commit` share. `commit` steps a run's committed actions: it runs the same
    integer rules on an exact state's numerators, memoizes nothing but the
    resolution, and converts the next state, the step payoff and the largest
    move back to Fractions once each. `prices(M)` hands out the pricing table
    over money scale M, built on first use, so every decision on the same
    money scale shares its prices and option lists; an option list is keyed by
    the slack left, `budget(t) - spend`, and for defenses also by the normally
    attacked edges. `money_scale` is the lcm of the energy parameters'
    denominators, which every M is a multiple of. `model_memos(t0, den0, M)`
    hands out the solver's memos of model nodes for the current decision
    time, state denominator and money scale, so both players' decisions at
    one time share their predicted models; a new key replaces the pair, so
    the cache holds one decision time's model nodes at most. `frame(t0,
    state, M)` hands out the set-up both decisions at one time share (the
    state's numerators, the value scale Q, the step weights and that key's
    model memos), built once and replaced by a new key in the same way.
    `layout(mover, t0, known)` is the opponent at each step of the mover's
    window, read from `Schedule.supplier` once per phase of t0 within the
    lcm of the periods and shifted to t0 after that.
    """

    def __init__(self, game: Game):
        self.game = game
        self.scale = _common_denominator(game.weights.by_edge.values())
        self._weights = {e: _over(a, self.scale) for e, a in game.weights.by_edge.items()}
        params = (game.attacker_energy, game.defender_energy)
        self.money_scale = _common_denominator(
            v for p in params for v in (p.kappa, p.rho, p.beta_normal, p.beta_strong, p.beta_recover) if v is not None
        )
        self._resolved: dict = {}
        self._next: dict = {}
        self.prices = cache(lambda M: _Prices(game, M))
        self._model_key = None
        self._model_memos: tuple[dict, dict] = ({}, {})
        self._frame_key = self._frame = None
        self._layouts: dict = {}

    def model_memos(self, t0: int, den0: int, M: int) -> tuple[dict, dict]:
        """The solver's (attacker, defender) memos of model nodes at t0, state denominator den0 and money scale M.

        A model node's result depends only on the game, its key and the value
        scale, which these three fix. Only the latest key's pair is kept: a
        new key replaces it.
        """
        key = (t0, den0, M)
        if key != self._model_key:
            self._model_key, self._model_memos = key, ({}, {})
        return self._model_memos

    def frame(self, t0: int, state: State, M: int) -> _Frame:
        """The set-up of every decision at t0 from `state` on money scale M; a new key replaces it."""
        key = (t0, state, M)
        if key != self._frame_key:
            self._frame_key, self._frame = key, _Frame(self, t0, state, M)
        return self._frame

    def layout(self, mover: str, t0: int, known: tuple) -> tuple[dict, int]:
        """(the opponent at each step of the mover's window from t0, the first step from which it is one model).

        The opponent at step t is (its known action, None) when `known` is
        the block in force and supplies t, else (None, the end of its
        predicted model): the supplying decision's window end, clipped to the
        mover's. Shifting t0 by the lcm of the periods shifts every supplier
        and window end by as much, so `Schedule.supplier` runs once per
        (mover, t0 mod lcm, whether a block is known), at t0 mod lcm, and each
        decision shifts that layout to its t0.
        """
        sched = self.game.schedule
        phase = t0 % sched.lcm_period
        key = (mover, phase, bool(known))
        base = self._layouts.get(key)
        if base is None:
            w_end, opp = sched.window_end(mover, phase), opponent(mover)
            steps = []  # (t, index of its action in the known block or None, model end or None)
            for t in range(phase, w_end + 1):
                s = sched.supplier(mover, phase, t)
                if s < phase and known:
                    steps.append((t, t - s, None))
                else:
                    steps.append((t, None, min(sched.window_end(opp, s), w_end)))
            model_from = next((t for t, _, end in steps if end == w_end), w_end + 1)
            base = self._layouts[key] = (tuple(steps), model_from)
        steps, model_from = base
        shift = t0 - phase
        table = {t + shift: (None, end + shift) if i is None else (known[i], None) for t, i, end in steps}
        return table, model_from + shift

    def resolve(self, attack: AttackAction, defense: DefenseAction):
        """(resolved edges, their group index, their weights as numerators over D) of one step's actions."""
        rkey = (attack.strong, attack.normal, defense.recover)
        resolved = self._resolved.get(rkey)
        if resolved is None:
            g1 = apply_actions(self.game.graph, attack.strong, attack.normal, defense.recover)
            weighted = tuple((e, self._weights[e]) for e in g1.edges if e in self._weights)
            resolved = self._resolved[rkey] = (g1.edges, agent_group_index(g1), weighted)
        return resolved

    def step(self, x: Numerators, attack: AttackAction, defense: DefenseAction):
        """Apply one resolved step to the numerators x over s.

        Returns (next numerators over s*D, their disagreement numerator over
        (s*D)^2, the resolved graph's group index), all of them ints.
        """
        edges, gi, weighted = self.resolve(attack, defense)
        skey = (x, edges)
        hit = self._next.get(skey)
        if hit is None:
            x1 = consensus_update(x, weighted, self.scale)
            hit = self._next[skey] = (x1, state_difference(x1), gi)
        return hit

    def commit(self, x: State, attack: AttackAction, defense: DefenseAction):
        """Apply one committed step to the exact state x.

        Returns (next state, resolved edges, attacker-side step payoff, largest
        move max |x1_i - x_i|). The state runs through `step`'s integer rules
        as its numerators over den, the lcm of its denominators, and each value
        converts back to a Fraction once. Nothing is memoized but the
        resolution, so a run's steps add no `step` calls to the search's.
        """
        edges, gi, weighted = self.resolve(attack, defense)
        D, util = self.scale, self.game.util
        den = _common_denominator(x)
        xn = tuple(_over(v, den) for v in x)
        x1 = consensus_update(xn, weighted, D)
        s1 = den * D
        a, b, s1_sq = util.a, util.b, s1 * s1
        # a*dis/s1^2 - b*gi over one denominator, built as one Fraction
        payoff = _fraction(
            a.numerator * b.denominator * state_difference(x1) - b.numerator * a.denominator * gi * s1_sq,
            a.denominator * b.denominator * s1_sq,
        )
        move = _fraction(max(abs(v1 - D * v) for v, v1 in zip(xn, x1)), s1)
        return tuple(_fraction(v, s1) for v in x1), edges, payoff, move


class _Frame:
    """The set-up shared by every decision at one time t0 from one state on one money scale M.

    `x0` holds the state's numerators over den0, the lcm of its
    denominators. Values are numerators over Q = L*den0^2*D^(2H), where L is
    the lcm of the utility weights' denominators, D the step cache's scale and
    H the longer of the two players' horizons, so both players' decisions at
    t0 value on one scale. The step from t lands at depth d = t + 1 - t0,
    where the attacker-side summand a*dis/(den0*D^d)^2 - b*gi over Q is
    dis_weight[t]*dis - gi_weight*gi, for t in t0 .. t0 + H - 1. `values` and
    `responses` are the step cache's model memos for (t0, den0, M).
    """

    __slots__ = ("x0", "Q", "dis_weight", "gi_weight", "values", "responses")

    def __init__(self, cache: StepCache, t0: int, state: State, M: int):
        sched, util, D = cache.game.schedule, cache.game.util, cache.scale
        den0 = _common_denominator(state)
        self.x0 = tuple(_over(v, den0) for v in state)
        L = _common_denominator((util.a, util.b))
        H = max(sched.h_attacker, sched.h_defender)
        self.Q = L * den0**2 * D ** (2 * H)
        a_L = _over(util.a, L)
        self.dis_weight = {t: a_L * D ** (2 * (t0 + H - 1 - t)) for t in range(t0, t0 + H)}
        self.gi_weight = _over(util.b, L) * den0**2 * D ** (2 * H)
        self.values, self.responses = cache.model_memos(t0, den0, M)


# --- the solver --------------------------------------------------------------


class _Solver:
    """One minimax recursion over the mover's window with predicted opponents.

    `value(t, x, sa, sd, end)` is the value of the tail from step t, always
    attacker-side: the attacker maximizes it and the defender minimizes it.
    With `end` an objective end, the tail [t, end] is a predicted model in
    which both sides optimize that window. With `end=None` it is the mover's
    own window [t, w_end]: the mover optimizes, and `_opponent` holds, from
    `Schedule.supplier`, the opponent's known action or predicted model at
    each step. `_attack` is the one best-response loop over attacks and
    `_defend` the one over defenses; `_prefers` breaks ties in both.

    The search runs on exact integers over per-window denominators. A state at
    time t is the tuple of its numerators over den(x0)*D^(t-t0), where den(x0)
    is the lcm of the initial state's denominators and D is the step cache's
    scale. Spends, prices and budget lines are numerators over the money scale
    M, the lcm of both players' energy-parameter and starting-spend
    denominators. Values are numerators over Q = L*den(x0)^2*D^(2H), where L
    is the lcm of the utility weights' denominators and H the longer of the
    two players' horizons, so both players' decisions at t0 value on one
    scale; a positive rescaling changes no choice. The one conversion back is
    `Plan.utility = _fraction(±total, Q)`, negated for a defender mover.

    Set-up reads what a decision shares from the step cache and computes
    nothing per step: the state's numerators, Q, the step weights and the
    model memos come from `StepCache.frame`, built by the first decision at
    t0 and reused by the second, and the opponent layout comes from
    `StepCache.layout`, which runs `Schedule.supplier` once per phase of t0.

    Known steps come first in the window, and the ends of the predicted
    models never fall along it. So from `_model_from`, the first own step
    whose opponent is predicted over the rest of the window, the own tail is
    exactly the predicted model `value(t, ..., w_end)`: by induction from
    w_end down, the mover optimizes the step payoff plus a tail equal to the
    model's, its opponent answers by that model, the sustain test runs to the
    same end, and `_prefers` is one total order. `value` and `_defend`
    therefore search such an own step as that model node. A `lo` handed to
    it is dropped, since it would only keep the exact result out of the memo.

    A model node (`end` set) depends only on the game, its key
    (t, x, sa, sd, end) and the scale, so model nodes live in the step
    cache's memos for (t0, den(x0), M) (`StepCache.model_memos`), which every
    decision at t0 from that state on that money scale shares: `_values`
    holds (value, leading attack) per attacker node, and `_responses` holds
    (value, defense, price) per defender node, so a predicted attacker reads
    its predicted defender's value there. Own nodes depend on the mover and
    on `known`, so they live in this decision's `_own_values` and
    `_own_responses`; a defender mover's own nodes live in `_own_responses`
    alone. Prices, budget lines, the sustain test and the option lists come
    from the step cache's pricing table for M (`StepCache.prices`), so a run
    prices each distinct argument once, not once per decision; without a
    cache the solver starts from a fresh one. A cache built for another game
    is refused: its steps and prices would be that game's. The solver holds
    no reference to itself, so it is freed as soon as its decision returns.

    Every node searches within a window [lo, hi] of values that can still
    change a choice above it; an unset side is open. A node may stop once its
    result leaves its window, and only a strict inequality stops it, because
    equal values go to `_prefers`. A result outside its window is a bound, not
    a value: no memo keeps it, so `_answer` and the plan walk read exact
    entries only. Every cut is exact:
    * Alpha-beta cutoffs over two levels (Knuth & Moore, 1975). A predicted
      `_attack` hands its best value so far to `_defend` as `lo`, and the
      defender stops at its first value below it; a predicted `_defend` hands
      its best value so far, less the step payoff, to the next step's `value`
      as `hi`, and the attacker stops at its first value above it. Own steps
      before `_model_from` have no alpha-beta cutoffs, since their predicted
      opponents optimize another objective.
    * With `b = 0`, the attacker mover's own steps t < w_end before
      `_model_from` are ranked: they try attacks in falling order of their
      contraction bound and stop at the first bound strictly below the value
      still needed, the best so far at t or, if higher, `lo`. `Weights` keeps
      every row sum below 1, so no consensus step raises the disagreement, and
      `_dis_weight` shrinks by D^2 a step as the numerators' scale grows by D:
      every later summand of the window is at most step t's. The tail is therefore at most
      (w_end - t + 1) times the largest step-t payoff over the defenses
      `_answer` may give, the known one or every affordable one. The
      defender's answers there are fixed by `_answer`, so the window is a
      maximization alone: a ranked step hands a ranked child its needed value
      less the step payoff as `lo`, and a child that cannot reach it changes
      no choice above it. An unranked child gets no `lo`, since it searches in
      full and a `lo` would only keep its exact result out of the memo. The
      probe reads only the step cache; at t = w_end it would repeat
      `_answer`'s own work, so a last step that is not the model is searched
      in full. With `b > 0` the fragmentation term can rise along the window,
      so the bound is not used.
    * A predicted defender that cannot sustain its maximal action
      (`want_more` false) skips every recovery set E ∪ W with W outside the
      normally attacked edges: it steps exactly as E does and costs at least
      as much, the value does not fall as the defender's spend rises, and
      with `want_more` false the smaller E wins a tie.
    """

    def __init__(self, ctx: SolveContext, cache: StepCache | None = None):
        self.ctx = ctx
        game = ctx.game
        if cache is None:
            cache = StepCache(game)
        elif cache.game is not game and cache.game != game:
            raise ValueError("the step cache was built for another game")
        self.cache = cache
        self.w_end = game.schedule.window_end(ctx.mover, ctx.t0)
        # The opponent at each step: (its known action, None) or (None, the end of its predicted model).
        self._opponent, self._model_from = cache.layout(ctx.mover, ctx.t0, ctx.known)
        self.M = math.lcm(cache.money_scale, ctx.attacker_spent.denominator, ctx.defender_spent.denominator)
        frame = cache.frame(ctx.t0, ctx.state, self.M)
        self.x0, self.Q, self._dis_weight, self._gi_weight = frame.x0, frame.Q, frame.dis_weight, frame.gi_weight
        self._values, self._responses = frame.values, frame.responses
        prices = cache.prices(self.M)
        self._attacks = prices.attacks
        self._defenses = prices.defenses
        self._attack_prices = prices.attack_prices
        self._defense = prices.defense
        self._sustain = prices.sustain
        self._defending = ctx.mover == DEFENDER
        self._own_values: dict = {}
        self._own_responses: dict = {}

    def _step(self, t: int, x: Numerators, attack: AttackAction, defense: DefenseAction):
        """(next numerators, attacker-side payoff over Q) of the step from t."""
        x1, dis, gi = self.cache.step(x, attack, defense)
        return x1, self._dis_weight[t] * dis - self._gi_weight * gi

    def value(
        self, t: int, x: Numerators, sa: int, sd: int, end: int | None, lo: int | None = None, hi: int | None = None
    ):
        """(attacker-side value of the tail from t, its attack at t or a defender mover's defense).

        The result is exact if it lies in [lo, hi] and a bound that no memo
        keeps otherwise.
        """
        if end is None:
            if t >= self._model_from:  # a `lo` would only keep the model's exact result out of its memo
                return self.value(t, x, sa, sd, self.w_end)
            if self._defending:
                return self._defend(t, x, sa, sd, None, self._lead(t, x, sa, sd))[:2]
            memo = self._own_values
        elif t > end:
            return (0, None)
        else:
            memo = self._values
        key = (t, x, sa, sd, end)
        hit = memo.get(key)
        if hit is None:
            hit = self._attack(t, x, sa, sd, end, lo, hi)
            if (lo is None or hit[0] >= lo) and (hi is None or hit[0] <= hi):
                memo[key] = hit
        return hit

    def _attack(self, t, x, sa, sd, end, lo, hi):
        """(value, attack) of the attacker's best response at t, or a bound outside [lo, hi]."""
        own = end is None
        want_more = self._sustain(ATTACKER, sa, t, self.w_end if own else end)
        options = self._attacks(t, sa)
        ranked = own and t < self.w_end and self._gi_weight == 0
        if ranked:
            reach = self.w_end - t + 1
            bound = {atk: reach * self._payoff_bound(t, x, sd, atk) for _, atk in options}
            options = sorted(options, key=lambda option: bound[option[1]], reverse=True)
        child_ranked = ranked and t + 1 < self.w_end
        best = need = None
        for cost_a, atk in options:
            if own:
                if ranked:
                    need = lo if best is None or (lo is not None and lo > best[0]) else best[0]
                    if need is not None and bound[atk] < need:
                        break
                d, cost_d = self._answer(t, x, sa, sd, atk)
                x1, payoff = self._step(t, x, atk, d)
                child_lo = need - payoff if child_ranked and need is not None else None
                val = payoff + self.value(t + 1, x1, sa + cost_a, sd + cost_d, None, child_lo)[0]
            else:
                val = self._defend(t, x, sa, sd, end, atk, None if best is None else best[0])[0]
            if best is None or val > best[0] or (val == best[0] and _prefers(atk, best[1], want_more)):
                best = (val, atk)
                if hi is not None and val > hi:
                    break
        return best or (lo - 1, None)

    def _defend(self, t, x, sa, sd, end, attack, lo=None):
        """(value, defense, price) of the defender's best response to a same-step attack, or a bound below `lo`."""
        if end is None and t >= self._model_from:
            end = self.w_end
        predicted = end is not None
        memo = self._responses if predicted else self._own_responses
        key = (t, x, sa, sd, end, attack)
        hit = memo.get(key)
        if hit is not None:
            return hit
        want_more = self._sustain(DEFENDER, sd, t, end if predicted else self.w_end)
        normal = attack.normal
        skip_waste = predicted and not want_more
        sa1 = sa + self._attack_prices[attack]
        best = None
        for cost_d, d in self._defenses(t, sd, normal):
            if skip_waste and not d.recover <= normal:
                continue
            x1, payoff = self._step(t, x, attack, d)
            hi = best[0] - payoff if predicted and best is not None else None
            val = payoff + self.value(t + 1, x1, sa1, sd + cost_d, end, None, hi)[0]
            if best is None or val < best[0] or (val == best[0] and _prefers(d, best[1], want_more)):
                best = (val, d, cost_d)
                if lo is not None and val < lo:
                    return best
        memo[key] = best
        return best

    # the opponent at step t of the mover's own window

    def _lead(self, t, x, sa, sd) -> AttackAction:
        """The attack at t: the attacker mover's best, or the known or predicted one."""
        known, end = self._opponent[t] if self._defending else (None, None)
        return self.value(t, x, sa, sd, end)[1] if known is None else known

    def _answer(self, t, x, sa, sd, attack: AttackAction):
        """(defense, price) answering the attack at t: the defender mover's best, or the known or predicted one."""
        known, end = (None, None) if self._defending else self._opponent[t]
        if known is not None:
            return known, self._defense(known.recover, attack.normal)[0]
        return self._defend(t, x, sa, sd, end, attack)[1:]

    def _payoff_bound(self, t, x, sd, attack: AttackAction) -> int:
        """The attack's largest step payoff at t over every defense `_answer` may give to it."""
        known = self._opponent[t][0]
        answers = (known,) if known is not None else (d for _, d in self._defenses(t, sd, attack.normal))
        return max(self._step(t, x, attack, d)[1] for d in answers)

    def solve(self) -> Plan:
        ctx = self.ctx
        x, sa, sd = self.x0, _over(ctx.attacker_spent, self.M), _over(ctx.defender_spent, self.M)
        total = self.value(ctx.t0, x, sa, sd, None)[0]
        steps = []
        for t in range(ctx.t0, self.w_end + 1):
            atk = self._lead(t, x, sa, sd)
            d, cost_d = self._answer(t, x, sa, sd, atk)
            steps.append(d if self._defending else atk)
            if t < self.w_end:
                x = self.cache.step(x, atk, d)[0]
                sa, sd = sa + self._attack_prices[atk], sd + cost_d
        return ctx.plan(steps, _fraction(-total if self._defending else total, self.Q))


def solve_decision(ctx: SolveContext, cache: StepCache | None = None) -> Plan:
    """Compute the mover's optimal plan over its window at decision time ctx.t0."""
    return _Solver(ctx, cache).solve()
