"""Round-trip and validation tests for scenario files."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jamgame.dynamics import Weights, make_state
from jamgame.energy import CostModel, EnergyParams
from jamgame.game import Game, Schedule, UtilityWeights
from jamgame.network import Graph
from jamgame.scenario import (
    Scenario,
    ScenarioError,
    bundled_names,
    bundled_scenario,
    dumps_scenario,
    load_scenario,
    loads_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

PATH3 = Graph.from_edges(3, [(1, 2), (2, 3)])


def sample_game(graph=PATH3, weights=None, cost_model=CostModel()):
    return Game(
        graph,
        weights or Weights.uniform(graph),
        UtilityWeights(a=1, b=2),
        Schedule(T_attacker=1, T_defender=2, h_attacker=3, h_defender=2),
        EnergyParams.attacker("1.5", "1.5", 1, 2),
        EnergyParams.defender("0.5", "0.5", 1),
        cost_model,
    )


def sample(**overrides):
    fields = dict(game=sample_game(), initial_state=make_state([1, 2, 3]), K=40, name="sample")
    fields.update(overrides)
    return Scenario(**fields)


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        s = sample()
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_json_round_trip_is_identity(self):
        s = sample(game=sample_game(cost_model=CostModel(mode="node", waste="free")))
        assert loads_scenario(dumps_scenario(s)) == s

    def test_file_round_trip(self, tmp_path):
        s = sample(K=7, convergence_window=3)
        path = tmp_path / "s.json"
        path.write_text(dumps_scenario(s))
        assert load_scenario(path) == s

    def test_nonuniform_weights_survive(self):
        w = Weights(3, {(1, 2): Fraction(1, 4), (2, 3): Fraction(1, 3)})
        s = sample(game=sample_game(weights=w))
        assert loads_scenario(dumps_scenario(s)) == s

    def test_dict_form_is_json_ready(self):
        json.dumps(scenario_to_dict(sample()))

    def test_weight_on_some_edges_stays_a_matrix(self):
        d = scenario_to_dict(bundled_scenario("case1"))
        d["weights"] = {"kind": "matrix", "by_edge": {"1-2": "1/5"}}
        s = scenario_from_dict(d)
        assert scenario_to_dict(s)["weights"] == d["weights"]
        assert scenario_from_dict(scenario_to_dict(s)) == s

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_generated_scenarios_round_trip(self, data):
        s = data.draw(scenarios())
        assert scenario_from_dict(scenario_to_dict(s)) == s
        assert loads_scenario(dumps_scenario(s)) == s


class TestValidation:
    def test_unknown_top_level_key_rejected(self):
        d = scenario_to_dict(sample())
        d["surprise"] = 1
        with pytest.raises(ScenarioError) as e:
            scenario_from_dict(d)
        assert "surprise" in str(e.value)

    def test_bad_graph_reports_field(self):
        d = scenario_to_dict(sample())
        d["graph"]["edges"].append([1, 9])
        with pytest.raises(ScenarioError) as e:
            scenario_from_dict(d)
        assert e.value.field == "graph"

    def test_state_length_mismatch(self):
        d = scenario_to_dict(sample())
        d["initial_state"] = [1, 2]
        with pytest.raises(ScenarioError):
            scenario_from_dict(d)

    def test_period_beyond_horizon(self):
        d = scenario_to_dict(sample())
        d["periods"]["attacker"] = 5
        with pytest.raises(ScenarioError):
            scenario_from_dict(d)

    def test_disconnected_graph_rejected(self):
        with pytest.raises(ValueError):
            sample(game=sample_game(graph=Graph.from_edges(3, [(1, 2)])))

    def test_wrong_format_version(self):
        d = scenario_to_dict(sample())
        d["format_version"] = 99
        with pytest.raises(ScenarioError) as e:
            scenario_from_dict(d)
        assert e.value.field == "format_version"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("graph.n", 3.9),
            ("graph.edges", [[1, 2], [2, 3.5]]),
            ("K", 2.7),
            ("K", "40"),
            ("K", True),
            ("horizons.attacker", 2.5),
            ("horizons.defender", None),
            ("periods.attacker", "1"),
            ("periods.defender", 1.5),
            ("tolerances.convergence_window", "abc"),
            ("tolerances.convergence_window", 3.2),
            ("work_bounds.game", 30.5),
            ("work_bounds.theta", [16]),
            ("weights", [1]),
            ("utility", "a"),
            ("cost_model", "edge"),
            ("tolerances", [1]),
            ("work_bounds", 30),
            ("horizons", [3, 2]),
            ("initial_state", "123"),
            ("weights", {"kind": "matrix", "by_edge": {"1-2": "1/3", "2-3": "1/3", "1-3": "1/4"}}),
            ("name", None),
            ("description", [1]),
            ("format_version", True),
            ("tolerances.convergence_eps", float("inf")),
            ("tolerances.cluster_tol", float("-inf")),
        ],
    )
    def test_malformed_field_rejected_not_truncated(self, field, value):
        d = scenario_to_dict(sample())
        *parents, last = field.split(".")
        target = d
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ScenarioError) as e:
            scenario_from_dict(d)
        assert e.value.field == field

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("graph", "m", 2),
            ("weights", "kinds", "uniform"),
            ("utility", "c", 1),
            ("attacker_energy", "kapa", 9),
            ("defender_energy", "beta_strong", 2),
            ("horizons", "both", 2),
            ("periods", "attackers", 1),
            ("cost_model", "wast", "free"),
            ("tolerances", "convergance_window", 3),
            ("work_bounds", "games", 30),
        ],
    )
    def test_unknown_section_key_rejected(self, section, key, value):
        d = scenario_to_dict(sample())
        d[section][key] = value
        with pytest.raises(ScenarioError) as e:
            scenario_from_dict(d)
        assert e.value.field == f"{section}.{key}"

    @pytest.mark.parametrize(
        "section, key",
        [
            ("graph", "n"),
            ("graph", "edges"),
            ("weights", "by_edge"),
            *(("attacker_energy", k) for k in ("kappa", "rho", "beta_normal", "beta_strong")),
            *(("defender_energy", k) for k in ("kappa", "rho", "beta_recover")),
            ("horizons", "attacker"),
            ("periods", "defender"),
        ],
    )
    def test_missing_section_key_named(self, section, key):
        w = Weights(3, {(1, 2): Fraction(1, 4), (2, 3): Fraction(1, 3)})
        d = scenario_to_dict(sample(game=sample_game(weights=w)))
        assert d["weights"]["kind"] == "matrix"
        del d[section][key]
        with pytest.raises(ScenarioError) as e:
            scenario_from_dict(d)
        assert e.value.field == f"{section}.{key}"
        assert str(e.value) == f"{section}.{key}: missing required field"

    @pytest.mark.parametrize(
        "weights, field",
        [
            ({"kind": "uniform", "value": "1/3", "by_edge": {"1-2": "1/5", "2-3": "1/7"}}, "weights.by_edge"),
            ({"kind": "matrix", "value": "1/4", "by_edge": {"1-2": "1/5", "2-3": "1/7"}}, "weights.value"),
        ],
    )
    def test_weights_key_the_kind_does_not_use_rejected(self, weights, field):
        d = scenario_to_dict(bundled_scenario("case1"))
        d["weights"] = weights
        with pytest.raises(ScenarioError) as e:
            scenario_from_dict(d)
        assert e.value.field == field

    @pytest.mark.parametrize(
        "section, key", [("attacker_energy", "beta_normal"), ("attacker_energy", "beta_strong"), ("defender_energy", "beta_recover")]
    )
    def test_null_price_rejected(self, section, key):
        d = scenario_to_dict(sample())
        d[section][key] = None
        with pytest.raises(ScenarioError) as e:
            scenario_from_dict(d)
        assert str(e.value) == f"{section}: {key} must be a price, got None"

    def test_null_uniform_weight_rejected(self):
        # An omitted value takes the default 1/n; a null one is refused, as a null price is.
        d = scenario_to_dict(sample())
        d["weights"] = {"kind": "uniform", "value": None}
        with pytest.raises(ScenarioError) as e:
            scenario_from_dict(d)
        assert str(e.value) == "weights: cannot interpret None as an exact number"

    def test_required_keys_alone_load_with_the_documented_defaults(self):
        required = {
            "graph": {"n": 3, "edges": [[1, 2], [2, 3]]},
            "initial_state": [1, 2, 3],
            "attacker_energy": {"kappa": "3/2", "rho": "3/2", "beta_normal": 1, "beta_strong": 2},
            "defender_energy": {"kappa": "1/2", "rho": "1/2", "beta_recover": 1},
            "horizons": {"attacker": 3, "defender": 2},
            "periods": {"attacker": 1, "defender": 2},
        }
        assert scenario_to_dict(scenario_from_dict(required)) == {
            **required,
            "format_version": 1,
            "name": "",
            "description": "",
            "weights": {"kind": "uniform", "value": "1/3"},
            "utility": {"a": 1, "b": 0},
            "cost_model": {"mode": "edge", "waste": "charged"},
            "K": 500,
            "tolerances": {"convergence_eps": "1/1000000000", "convergence_window": 10, "cluster_tol": "1/1000000"},
            "work_bounds": {"game": 30, "theta": 16},
        }

    def test_state_length_checked_before_per_agent_work(self):
        d = scenario_to_dict(bundled_scenario("case1"))
        d["graph"]["n"] = 1000
        with pytest.raises(ScenarioError) as e:
            scenario_from_dict(d)
        assert e.value.field == "initial_state"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_bundled_scenario_loads_or_is_refused(self, data):
        d = scenario_to_dict(bundled_scenario(data.draw(st.sampled_from(bundled_names()))))
        path = data.draw(st.sampled_from(_paths(d)))
        *parents, last = path
        target = d
        for key in parents:
            target = target[key]
        if isinstance(target, dict) and data.draw(st.booleans()):
            del target[last]
        else:
            target[last] = data.draw(json_values)
        try:
            s = scenario_from_dict(d)
        except ScenarioError:
            return
        assert scenario_from_dict(scenario_to_dict(s)) == s

    @pytest.mark.parametrize(
        "kind, content",
        [
            ("directory", None),
            ("missing", None),
            ("utf16", b"\xff\xfe{\x00}\x00"),
            ("latin1", b'{"name": "\xe9"}'),
            pytest.param("nested", b"[" * 100_000 + b"]" * 100_000, id="nested"),
        ],
    )
    def test_unreadable_file_rejected(self, tmp_path, kind, content):
        path = tmp_path if kind == "directory" else tmp_path / f"{kind}.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ScenarioError) as e:
            load_scenario(path)
        assert e.value.field == "<file>"

    def test_one_agent_rejected(self):
        d = scenario_to_dict(sample())
        d["graph"] = {"n": 1, "edges": []}
        d["initial_state"] = [1]
        with pytest.raises(ScenarioError) as e:
            scenario_from_dict(d)
        assert str(e.value) == "graph.n: a game needs at least 2 agents, got 1"

    @pytest.mark.parametrize("key", ["01-2", "1-02", "+1-2", " 1-2", "2-1_0", "1-2-3", "12", "-1-2"])
    def test_weight_key_not_written_by_edge_key_rejected(self, key):
        # the first four once loaded as a second name of edge 1-2, whose value overwrote the first
        d = scenario_to_dict(bundled_scenario("case1"))
        d["weights"] = {"kind": "matrix", "by_edge": {"1-2": "1/3", key: "1/4"}}
        with pytest.raises(ScenarioError) as e:
            scenario_from_dict(d)
        assert str(e.value) == f"weights.by_edge: bad edge key {key!r}, expected 'i-j'"

    @pytest.mark.parametrize(
        "old, new, key",
        [('"K": 40', '"K": 3, "K": 500', "K"), ('"n": 3', '"n": 3, "n": 3', "n"), ('"name": "sample"', '"name": "a", "name": "b"', "name")],
        ids=["K", "graph.n", "name"],
    )
    def test_repeated_key_rejected(self, old, new, key):
        text = dumps_scenario(sample())
        assert old in text
        with pytest.raises(ScenarioError) as e:
            loads_scenario(text.replace(old, new, 1))
        assert str(e.value) == f"<file>: key {key!r} appears more than once in one object"

    def test_integral_float_accepted(self):
        d = scenario_to_dict(sample())
        d["K"] = 7.0
        assert scenario_from_dict(d).K == 7

    def test_decimal_literals_in_file_text_load_exactly(self):
        text = dumps_scenario(sample())
        text = text.replace('"rho": "3/2"', '"rho": 0.1', 1).replace('"K": 40', '"K": 7.0')
        text = text.replace('"convergence_eps": "1/1000000000"', '"convergence_eps": 1e-9')
        s = loads_scenario(text)
        assert s.attacker_energy.rho == Fraction(1, 10)
        assert s.K == 7 and type(s.K) is int
        assert s.convergence_eps == Fraction(1, 10**9)

    def test_fraction_strings_accepted(self):
        d = scenario_to_dict(sample())
        d["tolerances"]["cluster_tol"] = "3/7"
        s = scenario_from_dict(d)
        assert s.cluster_tol == Fraction(3, 7)


class TestBundled:
    def test_expected_fixtures_present(self):
        names = bundled_names()
        for required in ("case1", "case2", "theta_example", "fig1_schedule", "prop3_regime"):
            assert required in names

    def test_all_bundled_scenarios_load_and_round_trip(self):
        for name in bundled_names():
            s = bundled_scenario(name)
            assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_unknown_bundle_name(self):
        with pytest.raises(ScenarioError) as e:
            bundled_scenario("nope")
        assert "case1" in str(e.value)


# --- generators ------------------------------------------------------------------


def _paths(value, prefix=()):
    """Every key or index path into a nested dict/list: sections and leaves alike."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    out = []
    for key, child in items:
        out.append(prefix + (key,))
        out.extend(_paths(child, prefix + (key,)))
    return out


# What `loads_scenario` can hand the parser: JSON values, with decimals as Fractions.
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**30), max_value=10**30)
    | st.floats()
    | st.fractions(max_denominator=10**6)
    | st.text(max_size=8)
    | st.sampled_from(["1/3", "uniform", "matrix", "node", "free", "1-2", "0/0", "-1"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def positive_fractions(high=5):
    return st.fractions(min_value=Fraction(1, 60), max_value=high, max_denominator=60)


@st.composite
def scenarios(draw):
    """Small valid scenarios: uniform or partial-matrix weights, both cost modes, fractional energies."""
    n = draw(st.integers(min_value=2, max_value=5))
    tree = [(draw(st.integers(min_value=1, max_value=v - 1)), v) for v in range(2, n + 1)]
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=3))
    edges = {tuple(sorted(e)) for e in tree + [e for e in extra if e[0] != e[1]]}
    graph = Graph.from_edges(n, edges)
    cap = Fraction(1, n)  # a row has at most n-1 edges, so row sums stay below 1
    weight = st.fractions(min_value=Fraction(1, 40), max_value=cap, max_denominator=40)
    if draw(st.booleans()):
        weights = Weights.uniform(graph, draw(weight))
    else:
        chosen = draw(st.lists(st.sampled_from(graph.sorted_edges), unique=True))
        weights = Weights(n, {e: draw(weight) for e in chosen})
    rho_a, rho_d = draw(positive_fractions()), draw(positive_fractions())
    beta_normal = draw(positive_fractions())
    h_a, h_d = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    initial_state = make_state(draw(st.lists(st.fractions(-5, 5, max_denominator=30), min_size=n, max_size=n)))
    game = Game(
        graph,
        weights,
        UtilityWeights(a=draw(st.fractions(0, 3, max_denominator=7)), b=draw(positive_fractions(3))),
        Schedule(
            T_attacker=draw(st.integers(1, h_a)), T_defender=draw(st.integers(1, h_d)),
            h_attacker=h_a, h_defender=h_d,
        ),
        EnergyParams.attacker(
            rho_a + draw(st.fractions(0, 3, max_denominator=9)), rho_a, beta_normal,
            beta_normal + draw(positive_fractions()),
        ),
        EnergyParams.defender(
            rho_d + draw(st.fractions(0, 3, max_denominator=9)), rho_d, draw(positive_fractions())
        ),
        CostModel(draw(st.sampled_from(["edge", "node"])), draw(st.sampled_from(["charged", "free"]))),
    )
    return Scenario(
        game=game,
        initial_state=initial_state,
        K=draw(st.integers(1, 1000)),
        convergence_eps=draw(positive_fractions(1)),
        convergence_window=draw(st.integers(1, 50)),
        cluster_tol=draw(positive_fractions(1)),
        work_bound_game=draw(st.integers(1, 40)),
        work_bound_theta=draw(st.integers(1, 20)),
        name=draw(st.text(max_size=10)),
        description=draw(st.text(max_size=20)),
    )
