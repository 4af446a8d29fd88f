"""Scenario definition, validation, and JSON serialization.

A scenario file is a JSON object carrying every configurable quantity of one
game: topology, initial state, consensus weights, utility weights, energy
parameters, horizons, periods, cost model, run length, and tolerances. Loading
materializes all defaults, so a serialized scenario is fully self-describing
and round-trips to an identical object. Exact rationals that are not integers
are written as "p/q" strings; a decimal literal such as 0.1 in a file is read
exactly, as 1/10, not as the nearest binary float.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .dynamics import State, Weights, as_fraction, make_state
from .energy import EDGE_ATTACK, NODE_ATTACK, WASTE_CHARGED, WASTE_FREE, CostModel, EnergyParams
from .game import Game, Schedule, UtilityWeights
from .network import Graph, is_connected

FORMAT_VERSION = 1

DEFAULT_K = 500
DEFAULT_CONVERGENCE_EPS = Fraction(1, 10**9)
DEFAULT_CONVERGENCE_WINDOW = 10
DEFAULT_CLUSTER_TOL = Fraction(1, 10**6)
DEFAULT_WORK_BOUND_GAME = 30
DEFAULT_WORK_BOUND_THETA = 16


class ScenarioError(ValueError):
    """Validation failure with the offending field spelled out."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class Scenario:
    """One run: its `Game` plus what the run adds to it.

    The run adds the initial state, the run length K, the convergence and
    cluster tolerances, the work bounds and the labels. `scenario_from_dict`
    builds the `Game`; a Scenario checks only what a run needs of it.
    """

    game: Game
    initial_state: State
    K: int = DEFAULT_K
    convergence_eps: Fraction = DEFAULT_CONVERGENCE_EPS
    convergence_window: int = DEFAULT_CONVERGENCE_WINDOW
    cluster_tol: Fraction = DEFAULT_CLUSTER_TOL
    work_bound_game: int = DEFAULT_WORK_BOUND_GAME
    work_bound_theta: int = DEFAULT_WORK_BOUND_THETA
    name: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        _check_state_length(self.initial_state, self.game.graph.n)
        if not is_connected(self.game.graph):
            raise ScenarioError("graph", "base graph must be connected")
        if self.K < 1:
            raise ScenarioError("K", "run length must be at least 1")
        if self.convergence_eps <= 0:
            raise ScenarioError("tolerances.convergence_eps", "must be positive")
        if self.convergence_window < 1:
            raise ScenarioError("tolerances.convergence_window", "must be at least 1")
        if self.cluster_tol <= 0:
            raise ScenarioError("tolerances.cluster_tol", "must be positive")
        if self.work_bound_game < 1 or self.work_bound_theta < 1:
            raise ScenarioError("work_bounds", "bounds must be at least 1")

    @property
    def game_work(self) -> int:
        """Size measure gating the exponential solver: |E| * max horizon."""
        sched = self.game.schedule
        return len(self.game.graph.edges) * max(sched.h_attacker, sched.h_defender)

    @property
    def attacker_energy(self) -> EnergyParams:
        """`game.attacker_energy`; kept only because the benchmark's run checks (perfbench/checks.py) read it here."""
        return self.game.attacker_energy

    @property
    def defender_energy(self) -> EnergyParams:
        """`game.defender_energy`; kept only because the benchmark's run checks (perfbench/checks.py) read it here."""
        return self.game.defender_energy


def _check_state_length(state, n: int) -> None:
    """One entry per agent; checked before anything is built per agent."""
    if len(state) != n:
        raise ScenarioError("initial_state", f"expected {n} entries, got {len(state)}")


def _rational(value: Fraction):
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _edge_key(edge) -> str:
    return f"{edge[0]}-{edge[1]}"


def _parse_edge_key(key: str, field: str):
    try:
        a, b = key.split("-")
        return (int(a), int(b))
    except ValueError as exc:
        raise ScenarioError(field, f"bad edge key {key!r}, expected 'i-j'") from exc


def _need(data: dict, key: str) -> object:
    if key not in data:
        raise ScenarioError(key, "missing required field")
    return data[key]


def _int_field(raw, field: str) -> int:
    """A JSON integer; an integral number such as 3.0 is accepted, anything else is not.

    A file's decimal literals load as exact Fractions (loads_scenario), a dict
    built in Python may hold floats; both are accepted when integral.
    """
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    if isinstance(raw, float) and raw.is_integer() or isinstance(raw, Fraction) and raw.denominator == 1:
        return int(raw)
    raise ScenarioError(field, f"expected an integer, got {raw!r}")


def _str_field(raw, field: str) -> str:
    if not isinstance(raw, str):
        raise ScenarioError(field, f"expected a JSON string, got {raw!r}")
    return raw


def _fraction_field(raw, field: str) -> Fraction:
    try:
        return as_fraction(raw)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ScenarioError(field, str(exc)) from exc


_SECTION_KEYS = {
    "graph": frozenset({"n", "edges"}),
    "weights": frozenset({"kind", "value", "by_edge"}),
    "utility": frozenset({"a", "b"}),
    "attacker_energy": frozenset({"kappa", "rho", "beta_normal", "beta_strong"}),
    "defender_energy": frozenset({"kappa", "rho", "beta_recover"}),
    "horizons": frozenset({"attacker", "defender"}),
    "periods": frozenset({"attacker", "defender"}),
    "cost_model": frozenset({"mode", "waste"}),
    "tolerances": frozenset({"convergence_eps", "convergence_window", "cluster_tol"}),
    "work_bounds": frozenset({"game", "theta"}),
}
_TOP_KEYS = {"format_version", "name", "description", "initial_state", "K", *_SECTION_KEYS}


def _object(data: dict, section: str, required: bool = False) -> dict:
    """The JSON object under `section`, with no key the section does not define."""
    raw = _need(data, section) if required else data.get(section, {})
    if not isinstance(raw, dict):
        raise ScenarioError(section, f"expected a JSON object, got {raw!r}")
    unknown = set(raw) - _SECTION_KEYS[section]
    if unknown:
        raise ScenarioError(f"{section}.{sorted(unknown)[0]}", "unknown field")
    return raw


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("<root>", "scenario must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ScenarioError(sorted(unknown)[0], "unknown field")
    version = _int_field(data.get("format_version", FORMAT_VERSION), "format_version")
    if version != FORMAT_VERSION:
        raise ScenarioError("format_version", f"unsupported version {version!r}")

    graph_raw = _object(data, "graph", required=True)
    try:
        n = _int_field(graph_raw["n"], "graph.n")
        edges = [tuple(_int_field(v, "graph.edges") for v in e) for e in graph_raw["edges"]]
        graph = Graph.from_edges(n, edges)
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError("graph", str(exc)) from exc

    state_raw = _need(data, "initial_state")
    if not isinstance(state_raw, list):
        raise ScenarioError("initial_state", f"expected a JSON array, got {state_raw!r}")
    try:
        state = make_state(state_raw)
    except Exception as exc:
        raise ScenarioError("initial_state", str(exc)) from exc
    _check_state_length(state, graph.n)

    weights_raw = _object(data, "weights")
    kind = weights_raw.get("kind", "uniform")
    try:
        if kind == "uniform":
            if "by_edge" in weights_raw:
                raise ScenarioError("weights.by_edge", "not used by uniform weights")
            value = weights_raw.get("value")
            weights = Weights.uniform(graph, as_fraction(value) if value is not None else None)
        elif kind == "matrix":
            if "value" in weights_raw:
                raise ScenarioError("weights.value", "not used by matrix weights")
            by_edge = {
                _parse_edge_key(k, "weights.by_edge"): as_fraction(v)
                for k, v in weights_raw["by_edge"].items()
            }
            weights = Weights(graph.n, by_edge)
        else:
            raise ValueError(f"unknown weights kind {kind!r}")
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError("weights", str(exc)) from exc

    util_raw = _object(data, "utility")
    try:
        util = UtilityWeights(
            a=as_fraction(util_raw.get("a", 1)), b=as_fraction(util_raw.get("b", 0))
        )
    except Exception as exc:
        raise ScenarioError("utility", str(exc)) from exc

    att_raw = _object(data, "attacker_energy", required=True)
    try:
        attacker = EnergyParams.attacker(
            kappa=att_raw["kappa"],
            rho=att_raw["rho"],
            beta_normal=att_raw["beta_normal"],
            beta_strong=att_raw["beta_strong"],
        )
    except Exception as exc:
        raise ScenarioError("attacker_energy", str(exc)) from exc

    def_raw = _object(data, "defender_energy", required=True)
    try:
        defender = EnergyParams.defender(
            kappa=def_raw["kappa"], rho=def_raw["rho"], beta_recover=def_raw["beta_recover"]
        )
    except Exception as exc:
        raise ScenarioError("defender_energy", str(exc)) from exc

    cadence = {}
    for name in ("horizons", "periods"):
        raw = _object(data, name, required=True)
        for who in ("attacker", "defender"):
            if who not in raw:
                raise ScenarioError(f"{name}.{who}", "missing required field")
            cadence[name, who] = _int_field(raw[who], f"{name}.{who}")

    cm_raw = _object(data, "cost_model")
    mode = cm_raw.get("mode", EDGE_ATTACK)
    waste = cm_raw.get("waste", WASTE_CHARGED)
    if mode not in (EDGE_ATTACK, NODE_ATTACK):
        raise ScenarioError("cost_model.mode", f"expected 'edge' or 'node', got {mode!r}")
    if waste not in (WASTE_CHARGED, WASTE_FREE):
        raise ScenarioError("cost_model.waste", f"expected 'charged' or 'free', got {waste!r}")

    tol_raw = _object(data, "tolerances")
    bounds_raw = _object(data, "work_bounds")

    try:
        schedule = Schedule(
            cadence["periods", "attacker"], cadence["periods", "defender"],
            cadence["horizons", "attacker"], cadence["horizons", "defender"],
        )
    except ValueError as exc:
        raise ScenarioError("periods", str(exc)) from exc
    try:
        game = Game(graph, weights, util, schedule, attacker, defender, CostModel(mode=mode, waste=waste))
    except ValueError as exc:
        raise ScenarioError("weights", str(exc)) from exc

    return Scenario(
        game=game,
        initial_state=state,
        K=_int_field(data.get("K", DEFAULT_K), "K"),
        convergence_eps=_fraction_field(
            tol_raw.get("convergence_eps", DEFAULT_CONVERGENCE_EPS), "tolerances.convergence_eps"
        ),
        convergence_window=_int_field(
            tol_raw.get("convergence_window", DEFAULT_CONVERGENCE_WINDOW), "tolerances.convergence_window"
        ),
        cluster_tol=_fraction_field(tol_raw.get("cluster_tol", DEFAULT_CLUSTER_TOL), "tolerances.cluster_tol"),
        work_bound_game=_int_field(bounds_raw.get("game", DEFAULT_WORK_BOUND_GAME), "work_bounds.game"),
        work_bound_theta=_int_field(
            bounds_raw.get("theta", DEFAULT_WORK_BOUND_THETA), "work_bounds.theta"
        ),
        name=_str_field(data.get("name", ""), "name"),
        description=_str_field(data.get("description", ""), "description"),
    )


def scenario_to_dict(s: Scenario) -> dict:
    """The scenario as a JSON-ready dict; weights are `uniform` only when every base edge carries one value."""
    g = s.game
    sched = g.schedule
    values = set(g.weights.by_edge.values())
    if len(values) == 1 and g.weights.by_edge.keys() == g.graph.edges:
        weights = {"kind": "uniform", "value": _rational(next(iter(values)))}
    else:
        weights = {
            "kind": "matrix",
            "by_edge": {_edge_key(e): _rational(v) for e, v in sorted(g.weights.by_edge.items())},
        }
    return {
        "format_version": FORMAT_VERSION,
        "name": s.name,
        "description": s.description,
        "graph": {"n": g.graph.n, "edges": [list(e) for e in g.graph.sorted_edges]},
        "initial_state": [_rational(x) for x in s.initial_state],
        "weights": weights,
        "utility": {"a": _rational(g.util.a), "b": _rational(g.util.b)},
        "attacker_energy": {
            "kappa": _rational(g.attacker_energy.kappa),
            "rho": _rational(g.attacker_energy.rho),
            "beta_normal": _rational(g.attacker_energy.beta_normal),
            "beta_strong": _rational(g.attacker_energy.beta_strong),
        },
        "defender_energy": {
            "kappa": _rational(g.defender_energy.kappa),
            "rho": _rational(g.defender_energy.rho),
            "beta_recover": _rational(g.defender_energy.beta_recover),
        },
        "horizons": {"attacker": sched.h_attacker, "defender": sched.h_defender},
        "periods": {"attacker": sched.T_attacker, "defender": sched.T_defender},
        "cost_model": {"mode": g.cost_model.mode, "waste": g.cost_model.waste},
        "K": s.K,
        "tolerances": {
            "convergence_eps": _rational(s.convergence_eps),
            "convergence_window": s.convergence_window,
            "cluster_tol": _rational(s.cluster_tol),
        },
        "work_bounds": {"game": s.work_bound_game, "theta": s.work_bound_theta},
    }


def dumps_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=2) + "\n"


def loads_scenario(text: str) -> Scenario:
    try:
        data = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise ScenarioError("<file>", f"not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


def load_scenario(path) -> Scenario:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError("<file>", f"cannot read {path} as UTF-8 text: {exc}") from exc
    return loads_scenario(text)


def bundled_names() -> list[str]:
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_scenario(name: str) -> Scenario:
    ref = resources.files(__package__) / "scenarios" / f"{name}.json"
    if not ref.is_file():
        raise ScenarioError("name", f"no bundled scenario {name!r}; available: {', '.join(bundled_names())}")
    return loads_scenario(ref.read_text())
