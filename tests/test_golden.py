"""Byte-identity of the bundled scenarios' run artifacts, analyze reports and
serialized scenarios.

The digests were recorded from `jamgame run <name> --json`, from the text
stdout of `jamgame run <name>` and `jamgame analyze <name>`, from the stdout of
`jamgame analyze <name> --json` and `jamgame validate <name> --json`, plus one
long run of a case1 variant, case2 under the three non-default cost models,
fig1_schedule in node mode and both analyze reports of theta_example in node
mode. Any change to the solver, the simulation, the static analysis or the
serializers that moves a single byte of these outputs fails here; a deliberate
change of output must re-record them.
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
        "plot_states.csv": "04bedebd21807200d53f4a0371c2cebb512129c9a4afadaaea00a0bbc3cc4bd0",
        "plot_energy.csv": "435bfb6376ed01a007e964f6d0b29c390d97b9b99d74556a0f4b9d9ad6352690",
    },
    "case2": {
        "trace.csv": "4c62381587135a68728e534b4cd816152035314d0c14224a1cc2003277fb7f22",
        "plans.csv": "1e1f0c60f3b4965b06ae6ce07fbd5d0f4630324de50b5f2b3a8b5ed02be83488",
        "summary.json": "1cb669d3e7b10082912713ca4897ce3a7daf9ec528a541be24b96d8b1ebe754d",
        "plot_states.csv": "9c1b105cce5e03b56588eb01eb8fac928a02a8f45a6e3176f2ba69f74447f38d",
        "plot_energy.csv": "c51e7fa5b79e831de0b5e30a60c448974e2c497414da2229b5117586f0d6799c",
    },
    "fig1_schedule": {
        "trace.csv": "898762171306edf5c99866d6f0ac2e7d2b7942ba277be645c896f1492f723807",
        "plans.csv": "fa992aa386a1ab1b73732bc173fdb4b54a42cdab1c87647867aab5ae4017d482",
        "summary.json": "3f4be30f213c5113bd5a055f158b796162bde33b5466144305903cdafddd158e",
        "plot_states.csv": "7a8085000b390e1cd3672449eb63528941b54a40a7e73598663b431ce0732adb",
        "plot_energy.csv": "3c9a4ec0f496ad183d6f9a8ccd8cb966235662445b70e9c1c662854231934b3f",
    },
    "prop3_regime": {
        "trace.csv": "e9f961498357dd6e2ef3647cfd73c5a46984486191b591079dc7c3c08167f5e8",
        "plans.csv": "8dce4fb44a684241399693e9c818fbdbda1f420beb0a287bebc170ace1d20d09",
        "summary.json": "5336457aba2049410cd4fd4ddd49f20b1c7486b2e0abb122c1c261ee42245530",
        "plot_states.csv": "a7ddf8c49076a6c6c2355d7bbf76c1517bc12a40fdf762175ad80536d76acfae",
        "plot_energy.csv": "3cb4c515f3aaaef7043e9d30f2e76bff6d7c28787733d6df79b7abf65a137c93",
    },
    "theta_example": {
        "trace.csv": "e54c04c6f917ad2629f0e5c00f033eb7e22ad91d123618bb97d1a66ab2d87c19",
        "plans.csv": "efedb7f0521e5882227476988add23eeb3d4dd9775703bb3ace4216a0fd1b70f",
        "summary.json": "0199a6cd25ccbaa0a56b6805a541cb0799a22cf08df1049122784359d91a0786",
        "plot_states.csv": "eb5031f84d2cfb6ea512d81b3504356d52c15f6e07e8c0e46b8d7ca12fc8198f",
        "plot_energy.csv": "209362d8fb6cbf3e6716ba0b717ddfe64fb42d1c0b1f321be58b219eed9c6398",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_run_artifacts_are_byte_identical(name, tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", name, "--output", str(tmp_path), "--json"]) == 0
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in GOLDEN[name]}
    assert digests == GOLDEN[name]


# `jamgame run <name>` text stdout without its last line, `artifacts: <output directory>`.
RUN_TEXT_GOLDEN = {
    "case1": "c99ea4ad27db64e61b324846c644098d64cf7f731711b9ce121704d47debe8f8",
    "case2": "a2b55657fad856b54bf39711badf303eec83681ecd02ab706daf6cf17b2e7ff0",
    "fig1_schedule": "455232f51a38f0ec10b83e9023c973176f4c952dd9a0565c933151b49ce5ed6b",
    "prop3_regime": "b144be139d3da036d3faf4bac1a971dcb7ee966b2ee764c5b7535e55642da381",
    "theta_example": "599280a77e8d0fc38225199487cd714350293c037a51f087fb2b96ea091150c5",
}


@pytest.mark.parametrize("name", sorted(RUN_TEXT_GOLDEN))
def test_bundled_run_text_report_is_byte_identical(name, tmp_path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["run", name, "--output", str(tmp_path)]) == 0
    report, artifacts = out.getvalue().rsplit("artifacts: ", 1)
    assert artifacts == f"{tmp_path}\n"
    assert hashlib.sha256(report.encode()).hexdigest() == RUN_TEXT_GOLDEN[name]


LONG_RUN_GOLDEN = {
    "trace.csv": "2eb312d0f0ce22d7062941aa2346f991754f2527e05ff8026f37de0572736d9c",
    "plans.csv": "3896a4bde37994059861983665d8e3380d727cde8eb356778172b389e98037e2",
    "summary.json": "c8762b83ec8406f7ef689bcfe07353e4ab0136a715cf73f8c420ba686adb7464",
    "plot_states.csv": "133b193fe3d62ab315a097d6199f63a0ea8540a0a5308ee868cba63ccd281ffb",
    "plot_energy.csv": "694556f11f8d905c1a5a25d2a2c64700ef944446a8afadeab3adb004fe2c9c93",
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


# case2 under the other three cost models; every bundled scenario is edge/charged.
COST_MODEL_GOLDEN = {
    ("edge", "free"): {
        "trace.csv": "8af80b35d25be6ccd1c7b2d18b15088886c4d3979f7ad2cf20e5a5f70774d475",
        "plans.csv": "12322cd82366d64204622af417b8afc21bc82d5f18d608e9515fdea7c6552b46",
        "summary.json": "8e24918080edaf3eea9f7d240d32d969ec4ecec18cd78e7eb2957945051328b2",
    },
    ("node", "charged"): {
        "trace.csv": "59bab488ad6824c5c14aeb16df6e3eea5b4c3b039da4edc09d3c6028dafd4d74",
        "plans.csv": "aece3a73c6670b28e47c3609ea8250f85c9502731cd840d8902dc98997a4ec7a",
        "summary.json": "958495c5b03805f392d28806d60db54e4ad1348bf78b6e39b7fb74a58f984faf",
    },
    ("node", "free"): {
        "trace.csv": "59bab488ad6824c5c14aeb16df6e3eea5b4c3b039da4edc09d3c6028dafd4d74",
        "plans.csv": "aece3a73c6670b28e47c3609ea8250f85c9502731cd840d8902dc98997a4ec7a",
        "summary.json": "d2b232d6597406f2cfe2661f66344bab0aa512c5169e0093f197b52e7b920e1b",
    },
}


@pytest.mark.parametrize("cost_model", sorted(COST_MODEL_GOLDEN), ids="-".join)
def test_case2_run_artifacts_under_other_cost_models_are_byte_identical(cost_model, tmp_path):
    mode, waste = cost_model
    data = scenario_to_dict(bundled_scenario("case2"))
    data.update(name=f"case2_{mode}_{waste}", cost_model={"mode": mode, "waste": waste})
    path = tmp_path / "case2.json"
    path.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(path), "--output", str(tmp_path / "out"), "--json"]) == 0
    golden = COST_MODEL_GOLDEN[cost_model]
    digests = {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest() for f in golden}
    assert digests == golden


# fig1_schedule's deep windows (h 6/4) in node mode with charged waste: 27
# attacks a step, where the attacker mover's contraction bound cuts the most.
FIG1_NODE_GOLDEN = {
    "trace.csv": "011c52cd58bcd3236fc90c8b64eb0f52b9314279e657279f7b9addfefc036f78",
    "plans.csv": "a2d260829ad10376cb862b3a5da9b23c4bb38f9418f43b556a3ef4cdd9876121",
    "summary.json": "08f58f8221e70d2dbe56377f8e5a948a327a9c8b112a2562cb69fa0259b55418",
}


def test_fig1_schedule_run_artifacts_in_node_mode_are_byte_identical(tmp_path):
    data = scenario_to_dict(bundled_scenario("fig1_schedule"))
    data.update(name="fig1_schedule_node_charged", cost_model={"mode": "node", "waste": "charged"})
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(path), "--output", str(tmp_path / "out"), "--json"]) == 0
    digests = {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest() for f in FIG1_NODE_GOLDEN}
    assert digests == FIG1_NODE_GOLDEN


# case2 with utility.b = 1/2; every bundled scenario has b = 0, so only this
# run prices the group index into payoffs and plan utilities (and L = 2 into Q).
GROUP_INDEX_GOLDEN = {
    "trace.csv": "4687f4263ca84794fb4daea27f4135c114402a4b22673512b5b67354793ab3a7",
    "plans.csv": "2af18209297663a31f465f12a55b5d64f9b38f33e71a1c620a65dec14c5abce3",
    "summary.json": "2687411e8fe8feccaac612299182b75ec778be903c0124bc4a3004ac42a11293",
}


def test_case2_run_artifacts_with_group_index_weight_are_byte_identical(tmp_path):
    data = scenario_to_dict(bundled_scenario("case2"))
    data.update(name="case2_b_half", utility={"a": 1, "b": "1/2"})
    path = tmp_path / "case2.json"
    path.write_text(json.dumps(data))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(path), "--output", str(tmp_path / "out"), "--json"]) == 0
    digests = {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest() for f in GROUP_INDEX_GOLDEN}
    assert digests == GROUP_INDEX_GOLDEN


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


# `jamgame analyze <name>` text stdout.
ANALYZE_TEXT_GOLDEN = {
    "case1": "71ea49eeabb1661f3922ca62362311ef1fa2431e6fcbd91ec8a0ffb7533df336",
    "case2": "bf3ec49993f69be82e5583a1e3325b01c65dcf515d940ec200154a2f4a7b0ebe",
    "fig1_schedule": "7045ea37a212855ec5430e50ffd4d6ac40d4a69bbba9d45c49ac2593032fa44b",
    "prop3_regime": "8d3f08f10865c00d82c931abe76a346c2b632fa6a3935053486a52ad321a7d87",
    "theta_example": "3476bc4e9425172de10dba19c13af36ec47028911913b0c716fcd82d89cb3118",
}


@pytest.mark.parametrize("name", sorted(ANALYZE_TEXT_GOLDEN))
def test_bundled_analyze_text_report_is_byte_identical(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", name]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == ANALYZE_TEXT_GOLDEN[name]


# theta_example in node mode: node-removal theta, the only analyze report
# whose last theta entry is 0.
THETA_NODE_ANALYZE_GOLDEN = {
    "text": "f964c6f40727e8577ed9bace09c1c35ecfea7d67dfb3612cdb2f7bdc09769235",
    "json": "bef3114121ceebecde43454e85161ea51c5a87f0bc2c83545e2dbd375954085a",
}


@pytest.mark.parametrize("form", sorted(THETA_NODE_ANALYZE_GOLDEN))
def test_theta_example_analyze_report_in_node_mode_is_byte_identical(form, tmp_path):
    data = scenario_to_dict(bundled_scenario("theta_example"))
    data.update(name="theta_example_node", cost_model={"mode": "node", "waste": "charged"})
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", str(path)] + (["--json"] if form == "json" else [])) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == THETA_NODE_ANALYZE_GOLDEN[form]


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
