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
* everything else is predicted by modeling the opponent's own optimization,
  anchored at the opponent's decision times and clipped to the mover's window;
* the mover's own actions are free variables optimized over the whole window.

Predictions are self-contained: a predicted player anticipates the other side
through the same model, never through the mover's actual candidate actions
beyond the current step, and responses are re-evaluated fresh at every step of
whatever branch the mover explores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .dynamics import State, Weights, as_fraction, consensus_step, state_difference
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
    its horizon, the per-player lookup, when a player re-decides, the lcm of
    the periods, at which both do, and what a mover may know of the
    opponent's plan in force.
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
        return self.decides(mover, t_d) or t_d + self.horizon(opp) <= self.anchor(mover, t_d) + self.horizon(mover)


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

    @property
    def window_end(self) -> int:
        """Last step of the mover's lookahead window."""
        return self.t0 + self.game.schedule.horizon(self.mover) - 1

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

    The defender's is recovering every edge while every edge is normally
    attacked, which no waste mode prices lower.
    """
    p = game.energy(player)
    if player == ATTACKER:
        return max(cost for cost, _ in _attack_catalog(game.graph, game.cost_model.mode, p))
    edges = game.graph.edges
    return defense_cost(edges, edges, game.cost_model, p)[0]


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


# --- opponent layout ---------------------------------------------------------

FIXED = "fixed"
PREDICTED = "predicted"


@dataclass(frozen=True)
class OpponentSlot:
    """Where one step's opponent action comes from inside the mover's window."""

    kind: str
    action: object = None
    objective_end: int = -1


def opponent_layout(ctx: SolveContext) -> dict[int, OpponentSlot]:
    """Assign every window step an opponent-action source.

    The opponent's currently applied block is fixed if known, else predicted with
    the block owner's own objective window. Later opponent processes are predicted
    with their full windows clipped to the mover's, each starting where the
    previous one's territory ends.
    """
    sched = ctx.game.schedule
    w_end = ctx.window_end
    opp = opponent(ctx.mover)
    T_o, h_o = sched.period(opp), sched.horizon(opp)
    slots: dict[int, OpponentSlot] = {}
    covered = ctx.t0 - 1

    cur_anchor = sched.anchor(opp, ctx.t0)
    if cur_anchor < ctx.t0:
        block_end = min(cur_anchor + T_o - 1, w_end)
        for t in range(ctx.t0, block_end + 1):
            if ctx.known:
                slots[t] = OpponentSlot(FIXED, action=ctx.known[t - cur_anchor])
            else:
                slots[t] = OpponentSlot(PREDICTED, objective_end=min(cur_anchor + h_o - 1, w_end))
        covered = block_end
        anchor = cur_anchor + T_o
    else:
        anchor = cur_anchor

    while covered < w_end:
        start = max(anchor, covered + 1)
        end = min(anchor + h_o - 1, w_end)
        for t in range(start, end + 1):
            slots[t] = OpponentSlot(PREDICTED, objective_end=end)
        covered = max(covered, end)
        anchor += T_o
    return slots


# --- evaluation cache --------------------------------------------------------


Numerators = tuple[int, ...]


def _over(value: Fraction, scale: int) -> int:
    """Numerator of value over scale, a multiple of its denominator."""
    return value.numerator * (scale // value.denominator)


def _common_denominator(values) -> int:
    return math.lcm(*(v.denominator for v in values))


class _Prices:
    """Decision-invariant pricing of one game over one money scale M.

    Prices, spends and budget lines are integer numerators over M. The table
    holds the attack catalog with its prices, which `attack_prices` also maps
    from action to price, the defense catalog, the budget, defense-price and
    sustain memos, and the affordability-filtered option lists. Attack prices
    come from `AttackAction.cost` when the catalog is built; each memo calls
    its rule (`budget_at`, `defense_cost`, and `_sustainable` on the maximal
    action's price) once per distinct argument. No rule is restated here.
    """

    def __init__(self, game: Game, M: int):
        self.game, self.M = game, M
        self.att_catalog = tuple(
            (_over(c, M), a) for c, a in _attack_catalog(game.graph, game.cost_model.mode, game.attacker_energy)
        )
        self.attack_prices = {a: c for c, a in self.att_catalog}
        self.def_catalog = _defense_catalog(game.graph)
        self._full_cost = {p: _over(_full_action_cost(game, p), M) for p in (ATTACKER, DEFENDER)}
        self._budgets: dict = {}
        self._defense_prices: dict = {}
        self._sustains: dict = {}
        self._att_options: dict = {}
        self._def_options: dict = {}

    def budget(self, player: str, t: int) -> int:
        key = (player, t)
        hit = self._budgets.get(key)
        if hit is None:
            hit = self._budgets[key] = _over(budget_at(self.game.energy(player), t), self.M)
        return hit

    def defense_price(self, recover: frozenset[Edge], normal: frozenset[Edge]) -> int:
        key = (recover, normal)
        hit = self._defense_prices.get(key)
        if hit is None:
            cost, _ = defense_cost(recover, normal, self.game.cost_model, self.game.defender_energy)
            hit = self._defense_prices[key] = _over(cost, self.M)
        return hit

    def sustain(self, player: str, spent: int, t: int, end: int) -> bool:
        key = (player, spent, t, end)
        hit = self._sustains.get(key)
        if hit is None:
            hit = _sustainable(spent, self._full_cost[player], t, end, lambda s: self.budget(player, s))
            self._sustains[key] = hit
        return hit

    # feasible candidates at absolute time t

    def attacks(self, t: int, sa: int):
        key = (t, sa)
        hit = self._att_options.get(key)
        if hit is None:
            limit = self.budget(ATTACKER, t) - sa
            hit = self._att_options[key] = tuple((c, a) for c, a in self.att_catalog if c <= limit or a.size == 0)
        return hit

    def defenses(self, t: int, sd: int, normal: frozenset[Edge]):
        key = (t, sd, normal)
        hit = self._def_options.get(key)
        if hit is None:
            limit = self.budget(DEFENDER, t) - sd
            priced = ((self.defense_price(d.recover, normal), d) for d in self.def_catalog)
            hit = self._def_options[key] = tuple((c, d) for c, d in priced if c <= limit or d.size == 0)
        return hit


class StepCache:
    """Run-scoped memos of one game: step resolution and pricing.

    Each distinct (strong, normal, recover) triple is resolved against the
    base graph once, and its resolved graph is stored with that graph's group
    index. A state comes in as the numerators of its values over some common
    denominator s. The consensus update is linear, so the next state's
    numerators over s*D, where D (`scale`) is the lcm of the weight
    denominators, do not depend on s: `step` caches on (numerators, resolved
    edges) alone, and one cache serves every decision of a run. `prices(M)`
    hands out the pricing table over money scale M, built on first use, so
    every decision on the same money scale shares its prices and option
    lists. `money_scale` is the lcm of the energy parameters' denominators,
    which every M is a multiple of.
    """

    def __init__(self, game: Game):
        self.game = game
        self.scale = _common_denominator(game.weights.by_edge.values())
        params = (game.attacker_energy, game.defender_energy)
        self.money_scale = _common_denominator(
            v for p in params for v in (p.kappa, p.rho, p.beta_normal, p.beta_strong, p.beta_recover) if v is not None
        )
        self._resolved: dict = {}
        self._next: dict = {}
        self._prices: dict = {}

    def step(self, x: Numerators, attack: AttackAction, defense: DefenseAction):
        """Apply one resolved step to the numerators x over s.

        Returns (next numerators over s*D, their disagreement numerator over
        (s*D)^2, the resolved graph's group index).
        """
        rkey = (attack.strong, attack.normal, defense.recover)
        resolved = self._resolved.get(rkey)
        if resolved is None:
            g1 = apply_actions(self.game.graph, attack.strong, attack.normal, defense.recover)
            resolved = self._resolved[rkey] = (g1, agent_group_index(g1))
        g1, gi = resolved
        skey = (x, g1.edges)
        hit = self._next.get(skey)
        if hit is None:
            x1 = tuple(_over(v, self.scale) for v in consensus_step(x, g1, self.game.weights))
            hit = self._next[skey] = (x1, int(state_difference(x1)), gi)
        return hit

    def prices(self, M: int) -> _Prices:
        """The pricing table over money scale M."""
        hit = self._prices.get(M)
        if hit is None:
            hit = self._prices[M] = _Prices(self.game, M)
        return hit


# --- the solver --------------------------------------------------------------


class _Solver:
    """Backward induction over the mover's window with predicted opponents.

    The search runs on exact integers over per-window denominators. A state at
    time t is the tuple of its numerators over den(x0)*D^(t-t0), where den(x0)
    is the lcm of the initial state's denominators and D is the step cache's
    scale. Spends, prices and budget lines are numerators over the money scale
    M, the lcm of both players' energy-parameter and starting-spend
    denominators. Values are numerators over the window denominator
    Q = L*den(x0)^2*D^(2H), where L is the lcm of the utility weights'
    denominators and H the window length. The one conversion back is
    `Plan.utility = Fraction(total, Q)`.

    Only the window's search memos belong to one decision. `_inner_memo`
    holds the inner model's (value, leading attack) per node; the defender
    mover's predicted attacker reads its attack there. Prices, budget lines,
    the sustain test and the option lists come from the step cache's pricing
    table for M (`StepCache.prices`), so a run prices each distinct argument
    once, not once per decision; without a cache the solver starts from a
    fresh one. A cache built for another game is refused: its steps and
    prices would be that game's.
    """

    def __init__(self, ctx: SolveContext, cache: StepCache | None = None):
        self.ctx = ctx
        game = ctx.game
        if cache is None:
            cache = StepCache(game)
        elif cache.game is not game and cache.game != game:
            raise ValueError("the step cache was built for another game")
        self.cache = cache
        H = game.schedule.horizon(ctx.mover)
        self.w_end = ctx.window_end
        self.layout = opponent_layout(ctx)

        den0 = _common_denominator(ctx.state)
        self.x0 = tuple(_over(v, den0) for v in ctx.state)
        self.M = math.lcm(cache.money_scale, ctx.attacker_spent.denominator, ctx.defender_spent.denominator)
        D, util = cache.scale, game.util
        L = _common_denominator((util.a, util.b))
        self.Q = L * den0**2 * D ** (2 * H)
        # The step from t lands at depth d = t + 1 - t0, where the attacker-side
        # summand a*dis/(den0*D^d)^2 - b*gi over Q is dis_weight[t]*dis - gi_weight*gi.
        self._dis_weight = {
            t: _over(util.a, L) * D ** (2 * (self.w_end - t)) for t in range(ctx.t0, self.w_end + 1)
        }
        self._gi_weight = _over(util.b, L) * den0**2 * D ** (2 * H)

        prices = cache.prices(self.M)
        self._attacks = prices.attacks
        self._defenses = prices.defenses
        self._attack_prices = prices.attack_prices
        self._defense_price = prices.defense_price
        self._sustain = prices.sustain
        # Unbound, so the solver holds no cycle through itself and its memos
        # are freed as soon as its decision returns.
        self._outer_step = _Solver._outer_attacker if ctx.mover == ATTACKER else _Solver._outer_defender
        self._outer_memo: dict = {}
        self._inner_memo: dict = {}
        self._resp_memo: dict = {}

    def _step(self, t: int, x: Numerators, attack: AttackAction, defense: DefenseAction):
        """(next numerators, attacker-side payoff over Q) of the step from t."""
        x1, dis, gi = self.cache.step(x, attack, defense)
        return x1, self._dis_weight[t] * dis - self._gi_weight * gi

    # inner model: both sides predicted, objective window [t, end]

    def inner_value(self, t: int, x: Numerators, sa: int, sd: int, end: int) -> int:
        """Attacker-side value of the modeled tail [t, end]."""
        if t > end:
            return 0
        key = (t, x, sa, sd, end)
        hit = self._inner_memo.get(key)
        if hit is None:
            hit = self._inner_memo[key] = self._inner_step(t, x, sa, sd, end)
        return hit[0]

    def _inner_step(self, t, x, sa, sd, end):
        """(value, leading attack) of the modeled tail [t, end]."""
        want_more = self._sustain(ATTACKER, sa, t, end)
        best = None
        for cost_a, atk in self._attacks(t, sa):
            d, cost_d = self.predicted_defense(t, x, sa, sd, end, atk, cost_a)
            x1, payoff = self._step(t, x, atk, d)
            val = payoff + self.inner_value(t + 1, x1, sa + cost_a, sd + cost_d, end)
            if best is None or val > best[0] or (val == best[0] and _prefers(atk, best[1], want_more)):
                best = (val, atk)
        return best

    def predicted_defense(self, t, x, sa, sd, end, attack, attack_cost_):
        """Defender response to a same-step attack, optimizing its side over [t, end]."""
        key = (t, x, sa, sd, end, attack)
        hit = self._resp_memo.get(key)
        if hit is not None:
            return hit
        want_more = self._sustain(DEFENDER, sd, t, end)
        sa1 = sa + attack_cost_
        best = None
        for cost_d, d in self._defenses(t, sd, attack.normal):
            x1, payoff = self._step(t, x, attack, d)
            val = -payoff - self.inner_value(t + 1, x1, sa1, sd + cost_d, end)
            if best is None or val > best[0] or (val == best[0] and _prefers(d, best[1], want_more)):
                best = (val, d, cost_d)
        result = (best[1], best[2])
        self._resp_memo[key] = result
        return result

    # outer recursion: the mover's own objective over [t, w_end]

    def outer(self, t: int, x: Numerators, sa: int, sd: int):
        """Returns (mover-side value of [t, w_end], mover action at t, successor key)."""
        if t > self.w_end:
            return (0, None, None)
        key = (t, x, sa, sd)
        hit = self._outer_memo.get(key)
        if hit is None:
            hit = self._outer_memo[key] = self._outer_step(self, t, x, sa, sd)
        return hit

    def _outer_attacker(self, t, x, sa, sd):
        slot = self.layout[t]
        want_more = self._sustain(ATTACKER, sa, t, self.w_end)
        best = None
        for cost_a, atk in self._attacks(t, sa):
            if slot.kind == FIXED:
                d = slot.action
                cost_d = self._defense_price(d.recover, atk.normal)
            else:
                d, cost_d = self.predicted_defense(t, x, sa, sd, slot.objective_end, atk, cost_a)
            x1, payoff = self._step(t, x, atk, d)
            succ = (x1, sa + cost_a, sd + cost_d)
            val = payoff + self.outer(t + 1, *succ)[0]
            if best is None or val > best[0] or (val == best[0] and _prefers(atk, best[1], want_more)):
                best = (val, atk, succ)
        return best

    def _outer_defender(self, t, x, sa, sd):
        slot = self.layout[t]
        if slot.kind == FIXED:
            atk = slot.action
        else:
            end = slot.objective_end
            self.inner_value(t, x, sa, sd, end)
            atk = self._inner_memo[t, x, sa, sd, end][1]
        cost_a = self._attack_prices[atk]
        want_more = self._sustain(DEFENDER, sd, t, self.w_end)
        best = None
        for cost_d, d in self._defenses(t, sd, atk.normal):
            x1, payoff = self._step(t, x, atk, d)
            succ = (x1, sa + cost_a, sd + cost_d)
            val = -payoff + self.outer(t + 1, *succ)[0]
            if best is None or val > best[0] or (val == best[0] and _prefers(d, best[1], want_more)):
                best = (val, d, succ)
        return best

    def solve(self) -> Plan:
        ctx = self.ctx
        node = (self.x0, _over(ctx.attacker_spent, self.M), _over(ctx.defender_spent, self.M))
        total, _, _ = self.outer(ctx.t0, *node)
        steps = []
        for t in range(ctx.t0, self.w_end + 1):
            _, action, succ = self.outer(t, *node)
            steps.append(action)
            node = succ
        return ctx.plan(steps, Fraction(total, self.Q))


def solve_decision(ctx: SolveContext, cache: StepCache | None = None) -> Plan:
    """Compute the mover's optimal plan over its window at decision time ctx.t0."""
    return _Solver(ctx, cache).solve()
