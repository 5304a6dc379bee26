import json
import os

import numpy as np
import pytest

from conftest import make_reference_arm
from redplan.errors import ScenarioError
from redplan.grid import GridSpec
from redplan.planner import plan
from redplan.scenario import (Scenario, active_constraint_csv, atomic_write_text,
                              bundled_scenario, bundled_scenario_names,
                              dumps_canonical, joint_path_csv, load_scenario,
                              plan_report, pst_csv, resample_export, run_meta,
                              sweep_csv, trajectory_csv, verify_report)

BUNDLED_HASHES = {
    "ellipse": "7c1b00dfadb91e56f21f1f1c235325fa1ad29c1cac1f7b123fb5ba9585859682",
    "line": "1eeaf7bd1c9506fd4db8211623084544f41c4ddf4bddf9533124c4da0560c50b",
    "toy_full": "1bd2c0366eb249c9b479933af994ac75cd3e2b3c5b2add1d53d55cb848d2aa77",
    "toy_jerk": "67197f2bf840b9368ed512f1d77dc9f999c5af2a4e82fbd7e613c7a6c3576dfc",
    "toy_velocity": "7739aace7bebd8b51800e2e8d93adc0c318e5af7ba666006ea96252346cb61e6",
}


def toy_doc(**overrides):
    doc = {
        "name": "doc",
        "robot": make_reference_arm().to_dict(),
        "path": {"kind": "line", "start": [0.5, 0.2], "end": [0.5, -0.2]},
        "n_stages": 3,
        "grid": {"pv_max": 1.0, "pv_levels": 2, "v_min": [0.7], "v_max": [1.0],
                 "v_step": [0.3], "rest_to_rest": True},
        "limits": {"from_robot": ["qd"]},
        "seed": 0,
    }
    doc.update(overrides)
    return doc


# --- canonical JSON ---------------------------------------------------------


def test_canonical_formatting():
    doc = {"b": [1, 2.5, True, None], "a": {"y": np.float64(0.1), "x": "s"}}
    text = dumps_canonical(doc)
    assert text == ('{"a": {"x": "s", "y": 0.10000000000000001}, '
                    '"b": [1, 2.5, true, null]}')


def test_canonical_infinities_and_nan():
    assert dumps_canonical([np.inf, -np.inf]) == "[Infinity, -Infinity]"
    with pytest.raises(ScenarioError, match="NaN"):
        dumps_canonical(float("nan"))


def test_canonical_ndarray_and_int_keys():
    assert dumps_canonical(np.arange(3)) == "[0, 1, 2]"
    with pytest.raises(ScenarioError, match="keys must be strings"):
        dumps_canonical({1: "x"})
    with pytest.raises(ScenarioError, match="cannot serialize"):
        dumps_canonical(object())


def test_canonical_parses_back():
    doc = toy_doc()
    text = dumps_canonical(doc)
    assert json.loads(text)["n_stages"] == 3


# --- scenario round-trip and hash -------------------------------------------


@pytest.mark.parametrize("name", sorted(BUNDLED_HASHES))
def test_round_trip_identity(name):
    # parse -> serialize -> parse is the documented identity
    sc = bundled_scenario(name)
    first = dumps_canonical(sc.to_dict())
    again = load_scenario(json.loads(first))
    assert dumps_canonical(again.to_dict()) == first


@pytest.mark.parametrize("name", sorted(BUNDLED_HASHES))
def test_bundled_hashes_pinned(name):
    assert bundled_scenario(name).hash() == BUNDLED_HASHES[name]


def test_bundled_names():
    assert bundled_scenario_names() == sorted(BUNDLED_HASHES)
    with pytest.raises(ScenarioError, match="no bundled scenario"):
        bundled_scenario("missing")


def test_hash_ignores_labels():
    base = load_scenario(toy_doc())
    relabeled = load_scenario(toy_doc(name="other", out_dir="/tmp/elsewhere"))
    assert base.hash() == relabeled.hash()
    changed = load_scenario(toy_doc(n_stages=4))
    assert changed.hash() != base.hash()


def test_scenario_file_loading(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(toy_doc()))
    sc = load_scenario(str(path))
    assert sc.n_stages == 3
    with pytest.raises(ScenarioError, match="cannot read scenario"):
        load_scenario(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ScenarioError, match="cannot read scenario"):
        load_scenario(str(bad))


def test_robot_file_reference(tmp_path):
    arm = make_reference_arm()
    (tmp_path / "arm.json").write_text(json.dumps(arm.to_dict()))
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(toy_doc(robot="arm.json")))
    sc = load_scenario(str(path))
    assert np.array_equal(sc.robot.chain.link_lengths, arm.chain.link_lengths)


# --- block parsing and validation -------------------------------------------


def test_limits_from_robot_subset():
    sc = load_scenario(toy_doc(limits={"from_robot": ["qd", "tau"]}))
    assert sc.limits.enabled_orders == ("qd", "tau")
    assert np.array_equal(sc.limits.bound("qd"),
                          make_reference_arm().limits.qd_max)


def test_limits_default_is_all_robot_orders():
    doc = toy_doc()
    doc.pop("limits")
    sc = load_scenario(doc)
    assert sc.limits.enabled_orders == ("qd", "qdd", "qddd", "tau", "taud")


def test_limits_explicit_and_disabled():
    sc = load_scenario(toy_doc(limits={"qd": [1.0, 2.0, 3.0], "tau": None}))
    assert sc.limits.enabled_orders == ("qd",)
    assert sc.limits.bound("tau") is None


def test_limits_rejects_unknown_fields():
    with pytest.raises(ScenarioError, match="unknown limit fields"):
        load_scenario(toy_doc(limits={"qd": [1.0, 1.0, 1.0], "velocity": [1.0]}))
    with pytest.raises(ScenarioError, match="unknown constraint orders"):
        load_scenario(toy_doc(limits={"from_robot": ["qd", "speed"]}))
    with pytest.raises(ScenarioError, match=r"unknown limit fields \['qd'\]"):
        load_scenario(toy_doc(limits={"from_robot": ["tau"], "qd": [1.0, 1.0, 1.0]}))


def test_limits_length_validated_against_robot():
    with pytest.raises(ScenarioError, match="bound has length"):
        load_scenario(toy_doc(limits={"qd": [1.0, 1.0]}))


def test_baseline_block():
    sc = load_scenario(toy_doc(baseline={"q0": [0.8, -2.1, 2.5], "alpha": 0.0,
                                         "max_iterations": 7}))
    assert sc.baseline.alpha == 0.0
    assert sc.baseline.max_iterations == 7
    with pytest.raises(ScenarioError, match="baseline block needs q0"):
        load_scenario(toy_doc(baseline={"alpha": 0.0}))
    with pytest.raises(ScenarioError, match="q0 length"):
        load_scenario(toy_doc(baseline={"q0": [0.8, -2.1]}))


def test_window_block():
    sc = load_scenario(toy_doc(window={"max_dl": 1, "max_dj": 2}))
    assert sc.window.max_dl == 1 and sc.window.max_dj == 2
    assert load_scenario(toy_doc()).window is None


def test_branch_filter_masks_columns():
    sc = load_scenario(toy_doc(branches=[0]))
    grid = sc.build()
    # columns are (v, branch) pairs, branch fastest; odd columns are branch 1
    admissible = grid.stage_ids(1)
    assert np.all(admissible % 2 == 0)
    with pytest.raises(ScenarioError, match="branch filter cannot be empty"):
        load_scenario(toy_doc(branches=[]))
    with pytest.raises(ScenarioError, match="outside"):
        load_scenario(toy_doc(branches=[0, 2]))


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError, match="n_stages"):
        load_scenario(toy_doc(n_stages=0))
    with pytest.raises(ScenarioError, match="check_count"):
        load_scenario(toy_doc(check_count=-1))
    with pytest.raises(ScenarioError, match="unknown objective"):
        load_scenario(toy_doc(objective="energy"))
    assert load_scenario(toy_doc(objective="time")).objective == "time"
    # a misspelled key must not fall back to its default
    with pytest.raises(ScenarioError, match=r"unknown scenario fields \['check_cout'\]"):
        load_scenario(toy_doc(check_cout=2))
    with pytest.raises(ScenarioError, match=r"unknown window fields \['max_dJ'\]"):
        load_scenario(toy_doc(window={"max_dl": 1, "max_dJ": 0}))
    grid = dict(toy_doc()["grid"])
    grid["rest_to_rset"] = grid.pop("rest_to_rest")
    with pytest.raises(ScenarioError, match=r"unknown grid fields \['rest_to_rset'\]"):
        load_scenario(toy_doc(grid=grid))
    with pytest.raises(ScenarioError, match=r"unknown baseline fields \['alpah'\]"):
        load_scenario(toy_doc(baseline={"q0": [0.8, -2.1, 2.5], "alpah": 0.0}))
    bad_grid = {"pv_max": 1.0, "pv_levels": 2, "v_min": [0.7, 0.0],
                "v_max": [1.0, 1.0], "v_step": [0.3, 0.5], "rest_to_rest": True}
    with pytest.raises(ScenarioError, match="redundancy parameters"):
        load_scenario(toy_doc(grid=bad_grid))
    with pytest.raises(ScenarioError, match="missing field"):
        load_scenario({"robot": make_reference_arm().to_dict()})
    # NaN passes "x <= 0" tests, so every bound and parameter check must
    # reject it explicitly
    with pytest.raises(ScenarioError, match="qd bounds"):
        load_scenario(toy_doc(limits={"qd": [float("nan"), 1.0, 1.0]}))
    for block, name in (("dynamics", "mass"), ("dynamics", "gravity"),
                        ("limits", "tau_max"), ("limits", "q_max")):
        robot = make_reference_arm().to_dict()
        robot[block][name][1] = float("nan")
        with pytest.raises(ScenarioError):
            load_scenario(toy_doc(robot=robot))
    robot = make_reference_arm().to_dict()
    robot["link_lengths"][0] = float("nan")
    with pytest.raises(ScenarioError, match="link lengths"):
        load_scenario(toy_doc(robot=robot))
    robot = make_reference_arm().to_dict()
    robot["dynamics"]["inertia"][0] = float("inf")
    with pytest.raises(ScenarioError, match="inertia must be finite"):
        load_scenario(toy_doc(robot=robot))
    assert load_scenario(toy_doc(limits={"qd": [float("inf")] * 3})).limits.qd[0] == np.inf


# --- atomic writes -----------------------------------------------------------


def test_atomic_write_creates_dirs_and_leaves_no_temps(tmp_path):
    target = tmp_path / "deep" / "nested" / "a.txt"
    atomic_write_text(str(target), "payload")
    assert target.read_text() == "payload"
    atomic_write_text(str(target), "replaced")
    assert target.read_text() == "replaced"
    assert os.listdir(target.parent) == ["a.txt"]


# --- reports -----------------------------------------------------------------


def scenario_and_result(name="toy_full"):
    sc = bundled_scenario(name)
    return sc, plan(sc.build(), sc.limits)


def test_plan_report_contents():
    sc, result = scenario_and_result()
    report = plan_report(sc, result)
    assert report["artifact"] == "plan"
    assert report["scenario_hash"] == BUNDLED_HASHES["toy_full"]
    assert report["cost"] == result.cost
    assert report["grid"]["admissible_per_stage"] == [4, 8, 8, 4]
    assert report["node_ids"] == [int(f) for f in result.node_ids]
    assert 0.0 <= report["saturation"]["percentage"] <= 100.0
    dumps_canonical(report)  # must be canonically serializable


def test_verify_report_merges_gap():
    sc, result = scenario_and_result()

    class FakeGap:
        def to_dict(self):
            return {"gap": 0.0, "relative_gap": 0.0}

    report = verify_report(sc, FakeGap())
    assert report["artifact"] == "verify"
    assert report["gap"] == 0.0
    assert report["scenario_hash"] == BUNDLED_HASHES["toy_full"]


def test_run_meta_fields():
    meta = run_meta(started=0.0, threads=8, argv=["redplan", "plan"])
    assert meta["threads"] == 8
    assert meta["argv"] == ["redplan", "plan"]
    assert set(meta) >= {"wall_clock_s", "machine", "python", "numpy"}


# --- CSV exports -------------------------------------------------------------


def test_trajectory_csv_shape():
    sc, result = scenario_and_result()
    text = trajectory_csv(result.profile)
    lines = text.splitlines()
    assert lines[0] == ("t,q1,q2,q3,qd1,qd2,qd3,qdd1,qdd2,qdd3,"
                        "qddd1,qddd2,qddd3,tau1,tau2,tau3,taud1,taud2,taud3")
    assert len(lines) == sc.n_stages + 2
    assert text.endswith("\n")
    assert lines[1].startswith("0,")


def test_pst_csv_tracks_redundancy_column():
    sc, result = scenario_and_result()
    text = pst_csv(result)
    lines = text.splitlines()
    assert lines[0] == "lam,v1,pv"
    assert len(lines) == sc.n_stages + 2
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[2] == 0.0  # rest start at lam 0
    assert first[1] == result.profile.q[0, 0]


def test_active_constraint_csv_excludes_first_waypoint():
    sc, result = scenario_and_result()
    lines = active_constraint_csv(result).splitlines()
    assert lines[0] == "stage,lam,active_order,ratio"
    assert len(lines) == sc.n_stages + 1
    assert lines[1].startswith("1,")
    orders = {line.split(",")[2] for line in lines[1:]}
    assert orders <= {"qd", "qdd", "qddd", "tau", "taud", ""}


def test_joint_path_csv_rows():
    from redplan.baseline import JointPath

    sc = bundled_scenario("toy_full")
    path = sc.sample()
    q = np.zeros((sc.n_stages + 1, 3))
    jp = JointPath(q=q, residuals=np.zeros(sc.n_stages + 1),
                   iterations=np.ones(sc.n_stages + 1, dtype=int),
                   step_norms=np.full(sc.n_stages, 0.5), branch_jump=False)
    lines = joint_path_csv(path, jp).splitlines()
    assert lines[0] == "stage,lam,q1,q2,q3,residual,iterations,step_norm"
    assert len(lines) == sc.n_stages + 2
    assert lines[1].split(",")[-1] == "0"  # no step into the first waypoint


def test_sweep_csv_layout():
    text = sweep_csv("pv_levels", [(2.0, 0.5, 10.0, 0.01)])
    lines = text.splitlines()
    assert lines[0] == "axis,value,cost,saturation_percent,runtime_s"
    assert lines[1].startswith("pv_levels,2,0.5,10,")


def test_cell_formatting():
    from redplan.scenario import _cell

    assert _cell("label") == "label"
    assert _cell(True) == "true"
    assert _cell(np.int64(7)) == "7"
    assert _cell(float("nan")) == "nan"
    assert _cell(2.0 / 3.0) == "0.66666666666666663"


# --- dense resample ----------------------------------------------------------


def test_resample_rejects_bad_rate():
    _, result = scenario_and_result()
    with pytest.raises(ScenarioError, match="rate must be positive"):
        resample_export(result, 0.0)


def test_resample_endpoints_and_final_time():
    _, result = scenario_and_result()
    lines = resample_export(result, 30.0).splitlines()
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[-1].split(",")]
    assert first[0] == 0.0
    assert first[1:4] == [float(v) for v in result.profile.q[0]]
    assert last[0] == result.cost
    assert last[1:4] == pytest.approx(list(result.profile.q[-1]), abs=0.0)


def test_resample_at_stage_rate_coincides():
    # free boundaries, infinite bounds: every stage runs at the cap, uniform dt
    inf = [float("inf")] * 3
    sc = load_scenario(toy_doc(
        limits={"qd": inf, "qdd": None, "qddd": None, "tau": None, "taud": None},
        grid={"pv_max": 1.0, "pv_levels": 2, "v_min": [0.7], "v_max": [1.0],
              "v_step": [0.3], "rest_to_rest": False}))
    result = plan(sc.build(), sc.limits)
    dt = np.diff(result.profile.t)
    assert np.allclose(dt, dt[0], rtol=1e-15)
    lines = resample_export(result, 1.0 / np.max(dt)).splitlines()
    # one sample per stage, plus possibly a duplicated final stamp (1 ulp)
    assert len(lines) in (sc.n_stages + 2, sc.n_stages + 3)
    q = np.array([[float(x) for x in line.split(",")[1:4]]
                  for line in lines[1:sc.n_stages + 2]])
    assert np.allclose(q, result.profile.q, atol=1e-12, rtol=0.0)


def test_scenario_grid_spec_round_trip():
    spec = GridSpec(pv_max=1.25, pv_levels=4, v_min=[0.5], v_max=[0.9],
                    v_step=[0.05], rest_to_rest=False)
    from redplan.scenario import _grid_spec_from_dict, _grid_spec_to_dict

    again = _grid_spec_from_dict(_grid_spec_to_dict(spec))
    assert again.pv_max == spec.pv_max
    assert again.pv_levels == spec.pv_levels
    assert np.array_equal(again.v_min, spec.v_min)
    assert np.array_equal(again.v_max, spec.v_max)
    assert np.array_equal(again.v_step, spec.v_step)
    assert again.rest_to_rest == spec.rest_to_rest
