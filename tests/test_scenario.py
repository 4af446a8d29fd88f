"""Round-trip and validation tests for scenario files."""

import json
from fractions import Fraction

import pytest

from jamgame.dynamics import Weights, make_state
from jamgame.energy import CostModel, EnergyParams
from jamgame.game import UtilityWeights
from jamgame.network import Graph
from jamgame.scenario import (
    Scenario,
    ScenarioError,
    bundled_names,
    bundled_scenario,
    dumps_scenario,
    load_scenario,
    loads_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

PATH3 = Graph.from_edges(3, [(1, 2), (2, 3)])


def sample(**overrides):
    fields = dict(
        graph=PATH3,
        initial_state=make_state([1, 2, 3]),
        weights=Weights.uniform(PATH3),
        util=UtilityWeights(a=1, b=2),
        attacker_energy=EnergyParams.attacker("1.5", "1.5", 1, 2),
        defender_energy=EnergyParams.defender("0.5", "0.5", 1),
        h_attacker=3,
        h_defender=2,
        T_attacker=1,
        T_defender=2,
        K=40,
        name="sample",
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self):
        s = sample()
        assert scenario_from_dict(scenario_to_dict(s)) == s

    def test_json_round_trip_is_identity(self):
        s = sample(cost_model=CostModel(mode="node", waste="free"))
        assert loads_scenario(dumps_scenario(s)) == s

    def test_file_round_trip(self, tmp_path):
        s = sample(K=7, convergence_window=3)
        path = tmp_path / "s.json"
        save_scenario(s, path)
        assert load_scenario(path) == s

    def test_nonuniform_weights_survive(self):
        w = Weights(3, {(1, 2): Fraction(1, 4), (2, 3): Fraction(1, 3)})
        s = sample(weights=w)
        assert loads_scenario(dumps_scenario(s)) == s

    def test_dict_form_is_json_ready(self):
        json.dumps(scenario_to_dict(sample()))


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
            sample(graph=Graph.from_edges(3, [(1, 2)]))

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
        "kind, content",
        [("directory", None), ("missing", None), ("utf16", b"\xff\xfe{\x00}\x00"), ("latin1", b'{"name": "\xe9"}')],
    )
    def test_unreadable_file_rejected(self, tmp_path, kind, content):
        path = tmp_path if kind == "directory" else tmp_path / f"{kind}.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ScenarioError) as e:
            load_scenario(path)
        assert e.value.field == "<file>"

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
