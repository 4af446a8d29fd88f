"""README's `python` blocks run, in order, and give the values their comments state."""

import contextlib
import dataclasses
import io
import json
import re
from fractions import Fraction
from pathlib import Path

from jamgame.game import solve_decision
from jamgame.scenario import scenario_from_dict, scenario_to_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_give_the_values_their_comments_state():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 3
    namespace: dict = {}
    printed, after = [], []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed.append(out.getvalue().splitlines())
        after.append(dict(namespace))

    assert printed[0] == ["clusters (frozenset({1}), frozenset({2, 3}))", "14"]
    wasted = after[0]["trace"].steps[-1].defender_wasted
    assert isinstance(wasted, Fraction) and wasted == 14

    assert after[1]["plan"].utility == Fraction(2624, 243)

    assert printed[2] == ["0 True", "[0, 2, 2]"]
    known = after[2]["known"]
    assert after[2]["plan"].utility == Fraction(410, 27)
    assert solve_decision(dataclasses.replace(known, known=())).utility == Fraction(374, 27)


def test_readme_scenario_example_is_the_fully_materialized_form():
    (block,) = re.findall(r"^```json\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    example = json.loads(block)
    materialized = scenario_to_dict(scenario_from_dict(example))
    assert list(materialized) == list(example)
    assert materialized == example
