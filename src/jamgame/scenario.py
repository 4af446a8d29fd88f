"""Scenario definition, validation, and JSON serialization.

A scenario file is a JSON object carrying every configurable quantity of one
game: topology, initial state, consensus weights, utility weights, energy
parameters, horizons, periods, cost model, run length, and tolerances. Loading
materializes all defaults, so a serialized scenario is fully self-describing
and round-trips to an identical object. Exact rationals that are not integers
are written as "p/q" strings; a decimal literal such as 0.1 in a file is read
exactly, as 1/10, not as the nearest binary float. Values of any length are
written and read whole (`unlimited_digits`).
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .dynamics import State, Weights, as_fraction, make_state
from .energy import EDGE_ATTACK, NODE_ATTACK, WASTE_CHARGED, WASTE_FREE, CostModel, EnergyParams
from .game import Game, Schedule, UtilityWeights
from .network import Graph, is_connected

FORMAT_VERSION = 1
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
    K: int = 500
    convergence_eps: Fraction = Fraction(1, 1_000_000_000)
    convergence_window: int = 10
    cluster_tol: Fraction = Fraction(1, 1_000_000)
    work_bound_game: int = 30
    work_bound_theta: int = DEFAULT_WORK_BOUND_THETA
    name: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        _check_state_length(self.initial_state, self.game.graph.n)
        if self.game.graph.n < 2:
            raise ScenarioError("graph.n", f"a game needs at least 2 agents, got {self.game.graph.n}")
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


@contextmanager
def unlimited_digits():
    """Lift CPython's limit on int/decimal-text conversion for the duration.

    CPython (3.11, and 3.10.7 on) refuses to convert integers of more than
    4,300 digits to or from decimal text, but an exact value can be that
    long: a state of "1e5000", or a long run's denominators. Every writer and
    reader of exact values runs under this (it also decorates functions). The
    limit is the process's, so other threads see it lifted meanwhile; it is
    restored on exit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # an interpreter without the limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _rational(value: Fraction):
    return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def edge_key(edge) -> str:
    """An edge as written in a file or trace: "i-j"."""
    return f"{edge[0]}-{edge[1]}"


def parse_edge_key(key: str, field: str):
    """The edge an `edge_key` text names; any other text, "01-2" or "2-1_0" say, is refused as a ScenarioError on `field`."""
    a, _, b = key.partition("-")
    edge = (int(a), int(b)) if a.isdecimal() and b.isdecimal() else None
    if edge is None or edge_key(edge) != key:
        raise ScenarioError(field, f"bad edge key {key!r}, expected 'i-j'")
    return edge


@contextmanager
def _field(field: str):
    """Report any error raised inside, other than a ScenarioError, as a ScenarioError on `field`."""
    try:
        yield
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(field, str(exc)) from exc


def _need(data: dict, key: str, section: str = "") -> object:
    """data[key]; a missing key is reported as `section.key`, or `key` at the top level."""
    if key not in data:
        raise ScenarioError(f"{section}.{key}" if section else key, "missing required field")
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
    with _field(field):
        return as_fraction(raw)


# Each section's keys, in the order a file lists them.
_SECTION_KEYS = {
    "graph": ("n", "edges"),
    "weights": ("kind", "value", "by_edge"),
    "utility": ("a", "b"),
    "attacker_energy": ("kappa", "rho", "beta_normal", "beta_strong"),
    "defender_energy": ("kappa", "rho", "beta_recover"),
    "horizons": ("attacker", "defender"),
    "periods": ("attacker", "defender"),
    "cost_model": ("mode", "waste"),
    "tolerances": ("convergence_eps", "convergence_window", "cluster_tol"),
    "work_bounds": ("game", "theta"),
}
_TOP_KEYS = {"format_version", "name", "description", "initial_state", "K", *_SECTION_KEYS}
# How a run setting is read, by the type of its `Scenario` field.
_READ_SETTING = {"int": _int_field, "Fraction": _fraction_field, "str": _str_field}


def _object(data: dict, section: str, required: bool = False) -> dict:
    """The JSON object under `section`, with no key the section does not define."""
    raw = _need(data, section) if required else data.get(section, {})
    if not isinstance(raw, dict):
        raise ScenarioError(section, f"expected a JSON object, got {raw!r}")
    unknown = set(raw) - set(_SECTION_KEYS[section])
    if unknown:
        raise ScenarioError(f"{section}.{sorted(unknown)[0]}", "unknown field")
    return raw


@unlimited_digits()
def scenario_from_dict(data: dict) -> Scenario:
    """The scenario a file's JSON object describes; an omitted optional key takes its dataclass default.

    Sections are checked in file order, the state length before anything is
    built per agent. What ties sections together (periods against horizons,
    weights against the graph) and the run settings are checked last.
    """
    if not isinstance(data, dict):
        raise ScenarioError("<root>", "scenario must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ScenarioError(sorted(unknown)[0], "unknown field")
    version = _int_field(data.get("format_version", FORMAT_VERSION), "format_version")
    if version != FORMAT_VERSION:
        raise ScenarioError("format_version", f"unsupported version {version!r}")

    graph_raw = _object(data, "graph", required=True)
    with _field("graph"):
        n = _int_field(_need(graph_raw, "n", "graph"), "graph.n")
        edges = [tuple(_int_field(v, "graph.edges") for v in e) for e in _need(graph_raw, "edges", "graph")]
        graph = Graph.from_edges(n, edges)

    state_raw = _need(data, "initial_state")
    if not isinstance(state_raw, list):
        raise ScenarioError("initial_state", f"expected a JSON array, got {state_raw!r}")
    with _field("initial_state"):
        state = make_state(state_raw)
    _check_state_length(state, graph.n)

    weights_raw = _object(data, "weights")
    kind = weights_raw.get("kind", "uniform")
    with _field("weights"):
        if kind == "uniform":
            if "by_edge" in weights_raw:
                raise ScenarioError("weights.by_edge", "not used by uniform weights")
            given = {"value": as_fraction(weights_raw["value"])} if "value" in weights_raw else {}
            weights = Weights.uniform(graph, **given)
        elif kind == "matrix":
            if "value" in weights_raw:
                raise ScenarioError("weights.value", "not used by matrix weights")
            by_edge = {
                parse_edge_key(k, "weights.by_edge"): as_fraction(v)
                for k, v in _need(weights_raw, "by_edge", "weights").items()
            }
            weights = Weights(graph.n, by_edge)
        else:
            raise ValueError(f"unknown weights kind {kind!r}")

    util_raw = _object(data, "utility")
    with _field("utility"):
        util = UtilityWeights(**util_raw)

    energies = []
    for section, make in (("attacker_energy", EnergyParams.attacker), ("defender_energy", EnergyParams.defender)):
        raw = _object(data, section, required=True)
        prices = {k: _need(raw, k, section) for k in _SECTION_KEYS[section]}
        with _field(section):
            energies.append(make(**prices))

    cadence = {}
    for section in ("horizons", "periods"):
        raw = _object(data, section, required=True)
        cadence[section] = [_int_field(_need(raw, k, section), f"{section}.{k}") for k in _SECTION_KEYS[section]]

    cm_raw = _object(data, "cost_model")
    for key, allowed in (("mode", (EDGE_ATTACK, NODE_ATTACK)), ("waste", (WASTE_CHARGED, WASTE_FREE))):
        if key in cm_raw and cm_raw[key] not in allowed:
            raise ScenarioError(f"cost_model.{key}", f"expected {allowed[0]!r} or {allowed[1]!r}, got {cm_raw[key]!r}")

    tol_raw = _object(data, "tolerances")
    bounds_raw = _object(data, "work_bounds")

    with _field("periods"):
        schedule = Schedule(*cadence["periods"], *cadence["horizons"])
    with _field("weights"):
        game = Game(graph, weights, util, schedule, *energies, CostModel(**cm_raw))

    # Run settings in Scenario's field order, each read by its field's type.
    given = {key: (data[key], key) for key in ("K", "name", "description") if key in data}
    given.update({key: (value, f"tolerances.{key}") for key, value in tol_raw.items()})
    given.update({f"work_bound_{key}": (value, f"work_bounds.{key}") for key, value in bounds_raw.items()})
    settings = {f.name: _READ_SETTING[f.type](*given[f.name]) for f in fields(Scenario) if f.name in given}
    return Scenario(game=game, initial_state=state, **settings)


def _attributes(section: str, obj, write=_rational) -> dict:
    """A section whose keys are attributes of `obj`, each value written by `write`."""
    return {key: write(getattr(obj, key)) for key in _SECTION_KEYS[section]}


@unlimited_digits()
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
            "by_edge": {edge_key(e): _rational(v) for e, v in sorted(g.weights.by_edge.items())},
        }
    return {
        "format_version": FORMAT_VERSION,
        "name": s.name,
        "description": s.description,
        "graph": {"n": g.graph.n, "edges": [list(e) for e in g.graph.sorted_edges]},
        "initial_state": [_rational(x) for x in s.initial_state],
        "weights": weights,
        "utility": _attributes("utility", g.util),
        "attacker_energy": _attributes("attacker_energy", g.attacker_energy),
        "defender_energy": _attributes("defender_energy", g.defender_energy),
        "horizons": {"attacker": sched.h_attacker, "defender": sched.h_defender},
        "periods": {"attacker": sched.T_attacker, "defender": sched.T_defender},
        "cost_model": _attributes("cost_model", g.cost_model, write=str),
        "K": s.K,
        "tolerances": _attributes("tolerances", s),
        "work_bounds": {"game": s.work_bound_game, "theta": s.work_bound_theta},
    }


@unlimited_digits()
def dumps_scenario(s: Scenario) -> str:
    return json.dumps(scenario_to_dict(s), indent=2) + "\n"


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a key given twice is refused, not resolved to its last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ScenarioError("<file>", f"key {key!r} appears more than once in one object")
        data[key] = value
    return data


@unlimited_digits()
def loads_scenario(text: str) -> Scenario:
    try:
        data = json.loads(text, parse_float=as_fraction, object_pairs_hook=_unique_keys)
    except ScenarioError:
        raise
    except json.JSONDecodeError as exc:
        raise ScenarioError("<file>", f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # a number as_fraction refuses
        raise ScenarioError("<file>", str(exc)) from exc
    except RecursionError as exc:
        raise ScenarioError("<file>", f"nested too deeply to read: {exc}") from exc
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
