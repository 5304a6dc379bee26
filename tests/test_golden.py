"""Golden digests: `redplan plan` on every bundled scenario must write the
same report.json and trajectory.csv, byte for byte, `redplan baseline`
the same baseline_report.json, joint_path.csv and trajectory.csv on every
bundled scenario with a baseline block, and `redplan verify` the same
gap_report.json on the bundled toys.

A speed-up of the planner has to leave these artifacts untouched; when a
change is meant to move a plan, the digests are updated in the same change
with the reason.
"""

import hashlib
import json
import os
from dataclasses import replace

import pytest

from redplan.baseline import resolve_redundancy
from redplan.cli import main
from redplan.errors import NoConvergence
from redplan.scenario import _bundled_dir, load_scenario

# (report.json, trajectory.csv) sha256 per bundled scenario
GOLDEN = {
    "ellipse": ("72205ed92352ea6368f1e91cbd072b7123d1d67fc920eb496ddcd7803998c2d5",
                "4692538aa61d605c08729cc4b2fd4700cd662479f0782d4eeef30b3577559307"),
    "line": ("886c393b25dc2c9ae51effa08bccb5e2bed8dabd35ba3a3852066d72727a987d",
             "ecb724e4d6ab176ae8e9a526671cd6360723351fe4547100d252e8c31b55be10"),
    "toy_full": ("a72bbe8d948edd36145faba6dd90c0e76afb77982a6e565c98e30d23b97c8870",
                 "4e0c7c5fb2994a576081367933fd3ccdd3e5d45437573b85885d84933508017f"),
    "toy_jerk": ("e11e16f6589d9593fd08e1a168fd22acec9622fe217794f4ca8b434b5f4c190d",
                 "62653d84fcb0006764d89429e6e8a5c23d5a9c1a35ce2c34a4572727b7b2d60a"),
    "toy_velocity": ("538cd908b57b8449d60357cea1d3e407258d45a4c9d9c0b854dc24095d9e4792",
                     "b5a11db1fbf9073cf5bd0cd4dfb8524555cf88fb564e500cb9221a3eaf418afd"),
}

# (baseline_report.json, joint_path.csv, trajectory.csv) sha256
GOLDEN_BASELINE = {
    "ellipse": ("678c39558a99a1e39b89f6a21572540ad5cd78668e79a55466b54c36ca958ecd",
                "b4b95e691729e9ea432811ddca84b7a4558d7358e8d3c3cfc256b599bec7c5c4",
                "3bf9e508c778f9ecc996f7d682235eefaa645a52871b2c3f43e56b39abc17811"),
    "line": ("30448051aa4510045254ec4780aa05c4099347e95abbc0ede9bbc6bf204e0163",
             "844bd86c0a33e63769d2a16affd18c6bc130baf0d9e089ff4db63337664c0259",
             "e9988f5c30dc021590a0554fcff4193cd4c7f1c7bd964bd1c1f3bc4cf15f24cd"),
}


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_plan_artifacts_match_golden_digests(name, tmp_path):
    scenario = os.path.join(_bundled_dir(), name + ".json")
    assert main(["plan", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    report, trajectory = GOLDEN[name]
    assert _sha256(tmp_path / "report.json") == report
    assert _sha256(tmp_path / "trajectory.csv") == trajectory


@pytest.mark.parametrize("name", sorted(GOLDEN_BASELINE))
def test_baseline_artifacts_match_golden_digests(name, tmp_path):
    scenario = os.path.join(_bundled_dir(), name + ".json")
    assert main(["baseline", "--scenario", scenario, "--out", str(tmp_path)]) == 0
    for artifact, digest in zip(("baseline_report.json", "joint_path.csv",
                                 "trajectory.csv"), GOLDEN_BASELINE[name]):
        assert _sha256(tmp_path / artifact) == digest


# (report.json, trajectory.csv) sha256 with check_count 2: no bundled
# scenario sets check points, so these pin the engine's check-point branch
GOLDEN_CHECK_POINTS = {
    "ellipse": ("d3c2e801985d58349b57a48efcb35a01c5ff9320423eae797cc01db2c576e73c",
                "a1ee123d71a3a028aecb7bc0283f97602825c120ee40954e536cf032559a8fdf"),
    "line": ("4b8162a376b301ef64c79a2de4d3f21008cba865a5be9940f94219ae04832ca9",
             "0f6cb477517e649ad8e7daba0c3789947f707340d16feb31bad2096276d5d5c4"),
    "toy_full": ("322dc478ed5b7855031d5da6d3e3889613d3bc60c18be1a21fea965aa7dce448",
                 "179bb84bec1869b584102214e8b7f9c78a276f8e50d5327ca12cd0377bbe118d"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CHECK_POINTS))
def test_check_point_plan_artifacts_match_golden_digests(name, tmp_path):
    with open(os.path.join(_bundled_dir(), name + ".json")) as fh:
        data = json.load(fh)
    data["check_count"] = 2
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["plan", "--scenario", str(scenario), "--out", str(out)]) == 0
    report, trajectory = GOLDEN_CHECK_POINTS[name]
    assert _sha256(out / "report.json") == report
    assert _sha256(out / "trajectory.csv") == trajectory


# gap_report.json sha256 of `verify`, keyed by (scenario, check_count);
# toy_jerk's gap is positive, so its digest pins the attribution too
GOLDEN_VERIFY = {
    ("toy_full", 0): "f0e2898df26cd1c8c099283e89723a52c2cc1f104afb097e79253ef1617a0591",
    ("toy_full", 2): "2feeff43ec4b498326f9c67e0a480a52564200f660141ca26531d38a4dcaad0b",
    ("toy_jerk", 0): "e178f2e38df4be8ec7388974235da2bc88c2aa71c84df06ea65b684fc98700f0",
    ("toy_velocity", 0): "e1a330ebd5cbab34fe33f76a5ba1884335ebe9945fd1d3943486c6885c5cf70f",
}


@pytest.mark.parametrize("name,check_count", sorted(GOLDEN_VERIFY))
def test_verify_artifact_matches_golden_digest(name, check_count, tmp_path):
    scenario = os.path.join(_bundled_dir(), name + ".json")
    if check_count:
        with open(scenario) as fh:
            data = json.load(fh)
        data["check_count"] = check_count
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["verify", "--scenario", str(scenario), "--out", str(out)]) == 0
    assert _sha256(out / "gap_report.json") == GOLDEN_VERIFY[name, check_count]


# sha256 over the bytes of JointPath q, residuals, iterations and step_norms
# from resolve_redundancy, keyed by (scenario, alpha); None keeps the
# scenario's own alpha. ellipse at alpha 1e-2 stalls, so its entry pins the
# NoConvergence waypoint and residual instead
GOLDEN_RESOLVED = {
    ("ellipse", None): "6c92faf282019755f2e5e1c5df63f28f7365b3a960b88955099a990dddcdead9",
    ("ellipse", 0.0): "fc4b9d9d01844c008df5b5e1370b6dc003ded1f4dde4403ff10ee7356fdb3127",
    ("ellipse", 1e-2): "NoConvergence 43 0x1.e8aa3b94d89d7p-27",
    ("line", None): "f7b6d9551534721e845521cccb01f9b22150584f96bb15751d05b6c5901b6907",
    ("line", 0.0): "a73698f37fec152763259f70d922272597c48a18db6c4cb7474fa8344b956c74",
    ("line", 1e-2): "6c1a43e94b7b5323d3fa96ca06fd9d9f5b8df85ccfaa749a490f74e3015607fe",
}


def _resolved_digest(name, alpha) -> str:
    scenario = load_scenario(os.path.join(_bundled_dir(), name + ".json"))
    config = scenario.baseline if alpha is None else replace(scenario.baseline, alpha=alpha)
    try:
        jp = resolve_redundancy(scenario.robot, scenario.sample(), config)
    except NoConvergence as exc:
        return f"NoConvergence {exc.waypoint} {exc.residual.hex()}"
    digest = hashlib.sha256()
    for array in (jp.q, jp.residuals, jp.iterations, jp.step_norms):
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name,alpha", list(GOLDEN_RESOLVED))
def test_resolved_joint_paths_match_golden_digests(name, alpha):
    assert _resolved_digest(name, alpha) == GOLDEN_RESOLVED[name, alpha]
