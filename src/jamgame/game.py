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
from functools import lru_cache
from itertools import product

from .dynamics import State, Weights, as_fraction, consensus_step, make_state, state_difference
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

    The option lists run from the dearest attack to the cheapest and from the
    largest recovery set to the smallest, each in canonical order within a
    price or size; the order is fixed when the table is built. Strong moves
    first give a predicted player's cutoffs a tight bound early. Order never
    changes a result: `_prefers` is a strict total order on equal values, so
    a best-response loop picks the same action in any visit order.
    """

    def __init__(self, game: Game, M: int):
        self.game, self.M = game, M
        priced = ((_over(c, M), a) for c, a in _attack_catalog(game.graph, game.cost_model.mode, game.attacker_energy))
        self.att_catalog = tuple(sorted(priced, key=lambda ca: -ca[0]))
        self.attack_prices = {a: c for c, a in self.att_catalog}
        self.def_catalog = tuple(sorted(_defense_catalog(game.graph), key=lambda d: -d.size))
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
    denominators. Values are numerators over the window denominator
    Q = L*den(x0)^2*D^(2H), where L is the lcm of the utility weights'
    denominators and H the window length. The one conversion back is
    `Plan.utility = Fraction(±total, Q)`, negated for a defender mover.

    Only the window's two search memos belong to one decision: `_values`
    holds (value, leading attack) per attacker node, and `_responses` holds
    (value, defense, price) per defender node, so a predicted attacker reads
    its predicted defender's value there. A defender mover's own nodes live
    in `_responses` alone. Prices, budget lines, the sustain test and the
    option lists come from the step cache's pricing table for M
    (`StepCache.prices`), so a run prices each distinct argument once, not
    once per decision; without a cache the solver starts from a fresh one. A
    cache built for another game is refused: its steps and prices would be
    that game's. The solver holds no reference to itself, so it is freed as
    soon as its decision returns.

    Predicted nodes (`end` set) are pruned, exactly; the mover's own window is
    not, since its predicted opponent there optimizes another objective.
    * A predicted defender that cannot sustain its maximal action
      (`want_more` false) skips every recovery set E ∪ W with W outside the
      normally attacked edges: it steps exactly as E does and costs at least
      as much, the value does not fall as the defender's spend rises, and
      with `want_more` false the smaller E wins a tie.
    * Alpha-beta cutoffs over two levels (Knuth & Moore, 1975). A predicted
      `_attack` hands its best value so far to `_defend` as a `floor`, and the
      defender stops at its first value below it; a predicted `_defend` hands
      its best value so far, less the step payoff, to the next step's `value`
      as a `cut`, and the attacker stops at its first value above it. Only
      strict inequalities cut, because equal values go to `_prefers`.
    A cut result is a bound, not a value: neither `_values` nor `_responses`
    keeps it, so `_answer` and the plan walk read exact entries only.
    """

    def __init__(self, ctx: SolveContext, cache: StepCache | None = None):
        self.ctx = ctx
        game = ctx.game
        if cache is None:
            cache = StepCache(game)
        elif cache.game is not game and cache.game != game:
            raise ValueError("the step cache was built for another game")
        self.cache = cache
        sched = game.schedule
        H = sched.horizon(ctx.mover)
        self.w_end = sched.window_end(ctx.mover, ctx.t0)
        # The opponent at each step: (its known action, None) or (None, the end of its predicted model).
        self._opponent, opp = {}, opponent(ctx.mover)
        for t in range(ctx.t0, self.w_end + 1):
            s = sched.supplier(ctx.mover, ctx.t0, t)
            if s < ctx.t0 and ctx.known:
                self._opponent[t] = (ctx.known[t - s], None)
            else:
                self._opponent[t] = (None, min(sched.window_end(opp, s), self.w_end))

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
        self._defending = ctx.mover == DEFENDER
        self._values: dict = {}
        self._responses: dict = {}

    def _step(self, t: int, x: Numerators, attack: AttackAction, defense: DefenseAction):
        """(next numerators, attacker-side payoff over Q) of the step from t."""
        x1, dis, gi = self.cache.step(x, attack, defense)
        return x1, self._dis_weight[t] * dis - self._gi_weight * gi

    def value(self, t: int, x: Numerators, sa: int, sd: int, end: int | None, cut: int | None = None):
        """(attacker-side value of the tail from t, its attack at t or a defender mover's defense).

        With a `cut`, a predicted attacker stops at its first value above it
        and returns that value, a bound that no memo keeps.
        """
        if t > (self.w_end if end is None else end):
            return (0, None)
        if end is None and self._defending:
            return self._defend(t, x, sa, sd, None, self._lead(t, x, sa, sd))[:2]
        key = (t, x, sa, sd, end)
        hit = self._values.get(key)
        if hit is None:
            hit = self._attack(t, x, sa, sd, end, cut)
            if cut is None or hit[0] <= cut:
                self._values[key] = hit
        return hit

    def _attack(self, t, x, sa, sd, end, cut):
        """(value, attack) of the attacker's best response at t, or a bound above `cut`."""
        want_more = self._sustain(ATTACKER, sa, t, self.w_end if end is None else end)
        best = None
        for cost_a, atk in self._attacks(t, sa):
            if end is None:
                d, cost_d = self._answer(t, x, sa, sd, atk)
                x1, payoff = self._step(t, x, atk, d)
                val = payoff + self.value(t + 1, x1, sa + cost_a, sd + cost_d, None)[0]
            else:
                val = self._defend(t, x, sa, sd, end, atk, None if best is None else best[0])[0]
            if best is None or val > best[0] or (val == best[0] and _prefers(atk, best[1], want_more)):
                best = (val, atk)
                if cut is not None and val > cut:
                    break
        return best

    def _defend(self, t, x, sa, sd, end, attack, floor=None):
        """(value, defense, price) of the defender's best response to a same-step attack.

        With a `floor`, a predicted defender stops at its first value below it
        and returns that value, a bound that no memo keeps.
        """
        key = (t, x, sa, sd, end, attack)
        hit = self._responses.get(key)
        if hit is not None:
            return hit
        predicted = end is not None
        want_more = self._sustain(DEFENDER, sd, t, end if predicted else self.w_end)
        normal = attack.normal
        skip_waste = predicted and not want_more
        sa1 = sa + self._attack_prices[attack]
        best = None
        for cost_d, d in self._defenses(t, sd, normal):
            if skip_waste and not d.recover <= normal:
                continue
            x1, payoff = self._step(t, x, attack, d)
            cut = best[0] - payoff if predicted and best is not None else None
            val = payoff + self.value(t + 1, x1, sa1, sd + cost_d, end, cut)[0]
            if best is None or val < best[0] or (val == best[0] and _prefers(d, best[1], want_more)):
                best = (val, d, cost_d)
                if floor is not None and val < floor:
                    return best
        self._responses[key] = best
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
            return known, self._defense_price(known.recover, attack.normal)
        return self._defend(t, x, sa, sd, end, attack)[1:]

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
        return ctx.plan(steps, Fraction(-total if self._defending else total, self.Q))


def solve_decision(ctx: SolveContext, cache: StepCache | None = None) -> Plan:
    """Compute the mover's optimal plan over its window at decision time ctx.t0."""
    return _Solver(ctx, cache).solve()
