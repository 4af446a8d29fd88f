"""Byte-identity of the bundled scenarios' run artifacts, analyze reports and
serialized scenarios.

The digests were recorded from `jamgame run <name> --json`, from the stdout of
`jamgame analyze <name> --json` and `jamgame validate <name> --json`, plus one
long run of a case1 variant. Any
change to the solver, the simulation, the static analysis or the serializers
that moves a single byte of these outputs fails here; a deliberate change of
output must re-record them.
"""

import contextlib
import hashlib
import io
import json

import pytest

from jamgame.cli import main
from jamgame.scenario import bundled_scenario, scenario_to_dict

GOLDEN = {
    "case1": {
        "trace.csv": "3957888815dd3c70f0f60762a658fae6f9e7973ecdb689a4c8245e9af9b7c248",
        "plans.csv": "15ff75e2f96d9aeafcac6a26a2a8285cfb30e2d6b2535d3385a94c94fee135d6",
        "summary.json": "958fdc0c131c4202089f08ccc14d3a44f35567d36be6421d356f85c1c9513b62",
    },
    "case2": {
        "trace.csv": "4c62381587135a68728e534b4cd816152035314d0c14224a1cc2003277fb7f22",
        "plans.csv": "1e1f0c60f3b4965b06ae6ce07fbd5d0f4630324de50b5f2b3a8b5ed02be83488",
        "summary.json": "1cb669d3e7b10082912713ca4897ce3a7daf9ec528a541be24b96d8b1ebe754d",
    },
    "fig1_schedule": {
        "trace.csv": "898762171306edf5c99866d6f0ac2e7d2b7942ba277be645c896f1492f723807",
        "plans.csv": "fa992aa386a1ab1b73732bc173fdb4b54a42cdab1c87647867aab5ae4017d482",
        "summary.json": "3f4be30f213c5113bd5a055f158b796162bde33b5466144305903cdafddd158e",
    },
    "prop3_regime": {
        "trace.csv": "e9f961498357dd6e2ef3647cfd73c5a46984486191b591079dc7c3c08167f5e8",
        "plans.csv": "8dce4fb44a684241399693e9c818fbdbda1f420beb0a287bebc170ace1d20d09",
        "summary.json": "5336457aba2049410cd4fd4ddd49f20b1c7486b2e0abb122c1c261ee42245530",
    },
    "theta_example": {
        "trace.csv": "e54c04c6f917ad2629f0e5c00f033eb7e22ad91d123618bb97d1a66ab2d87c19",
        "plans.csv": "efedb7f0521e5882227476988add23eeb3d4dd9775703bb3ace4216a0fd1b70f",
        "summary.json": "0199a6cd25ccbaa0a56b6805a541cb0799a22cf08df1049122784359d91a0786",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_run_artifacts_are_byte_identical(name, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", name, "--output", str(tmp_path), "--json"]) == 0
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN[name]}
    assert digests == GOLDEN[name]


LONG_RUN_GOLDEN = {
    "trace.csv": "2eb312d0f0ce22d7062941aa2346f991754f2527e05ff8026f37de0572736d9c",
    "plans.csv": "3896a4bde37994059861983665d8e3380d727cde8eb356778172b389e98037e2",
    "summary.json": "c8762b83ec8406f7ef689bcfe07353e4ab0136a715cf73f8c420ba686adb7464",
}


def test_long_single_step_run_artifacts_are_byte_identical(tmp_path):
    # case1's graph and energies with h = T = 1 for both players: 400 decisions
    # that share one run's prices, on states whose denominators grow to 3^151.
    data = scenario_to_dict(bundled_scenario("case1"))
    data.update(name="case1_h1_long", K=200, horizons={"attacker": 1, "defender": 1},
                periods={"attacker": 1, "defender": 1})
    data["tolerances"]["convergence_window"] = 201
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(path), "--output", str(tmp_path / "out"), "--json"]) == 0
    digests = {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest() for f in LONG_RUN_GOLDEN}
    assert digests == LONG_RUN_GOLDEN


ANALYZE_GOLDEN = {
    "case1": "ffdd2de27fe5c1abe836d50989e799b3f86cda4e55714a5dc618363eba6202d2",
    "case2": "ff4aaa2162c8164c7f907ac8cb45e606c433d9d668c93cd2d2bc5a04282a22b5",
    "fig1_schedule": "6b560b7316db26cb5d5c4a0d1157fa83bbe14da0dc199f1baaae605d7e5ef2f4",
    "prop3_regime": "173052e4ec14e3f28fe643b37c3e8a374be002cbfc98088b307dbec4131126f4",
    "theta_example": "0ad6ca774a1907891fba03caa5f409cec0be18c7f3a89ff154fe7fba453bf4a7",
}


@pytest.mark.parametrize("name", sorted(ANALYZE_GOLDEN))
def test_bundled_analyze_report_is_byte_identical(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", name, "--json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == ANALYZE_GOLDEN[name]


# `validate --json` prints the same bytes `run` writes to scenario.json.
VALIDATE_GOLDEN = {
    "case1": "ffb4d450cbeed330a163e5fe474b889e9d0e2d22945780bb991ffbe64338791e",
    "case2": "6ea02b905267bd4194efe10143154cd23a8306154b8cae33c96be75b59b098ee",
    "fig1_schedule": "d61f106b4892e29fa8459c3fe021faafc0f36c4e45bbed24bb6476a0f40d02a5",
    "prop3_regime": "11270d1529f27afd4658df9e24476d032d91faf3f94b59a1cc5a72257143f9c2",
    "theta_example": "26037d1187c9a1bd38b4f4012b353db6a2de8e9f84062bceb5473cccf1374e97",
}


@pytest.mark.parametrize("name", sorted(VALIDATE_GOLDEN))
def test_bundled_scenario_serialization_is_byte_identical(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["validate", name, "--json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == VALIDATE_GOLDEN[name]


SWEEP_GOLDEN = "b0f3128b193afc84e401f6a0daa1682488116cf19c048659d9c709ef9d00bbe1"


def test_sweep_table_is_byte_identical(tmp_path):
    # 18 points on case1: 12 run to the end and 6 are refused by the schedule
    # check (T_defender above h_defender).
    argv = ["sweep", "case1", "--output", str(tmp_path),
            "--grid", "h_attacker=1,2,3", "--grid", "T_defender=1,2,3", "--grid", "rho_attacker=3/2,1/4"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == SWEEP_GOLDEN
