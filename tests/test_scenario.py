import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_reference_arm
from redplan.errors import ScenarioError
from redplan.grid import GridSpec
from redplan import scenario as scenario_module
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


def test_robot_file_reference(tmp_path, monkeypatch):
    arm = make_reference_arm()
    (tmp_path / "arm.json").write_text(json.dumps(arm.to_dict()))
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(toy_doc(robot="arm.json")))
    sc = load_scenario(str(path))
    assert np.array_equal(sc.robot.link_lengths, arm.link_lengths)
    # an in-memory document resolves against the working directory
    monkeypatch.chdir(tmp_path)
    sc = load_scenario(toy_doc(robot="arm.json"))
    assert np.array_equal(sc.robot.link_lengths, arm.link_lengths)


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


@pytest.mark.parametrize("limits", [dict.fromkeys(("qd", "qdd", "qddd", "tau", "taud")),
                                    {}, {"from_robot": []}])
def test_limits_enabling_no_order_rejected_at_load(limits):
    # caught at load, and not after the whole search when saturation needs
    # an enabled order
    with pytest.raises(ScenarioError,
                       match="limits enable no constraint order; a plan needs at least one"):
        load_scenario(toy_doc(limits=limits))


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
    with pytest.raises(ScenarioError, match="out_dir"):
        load_scenario(toy_doc(out_dir=5))
    assert load_scenario(toy_doc(out_dir=None)).out_dir is None
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
    # non-finite grid and path numbers fail their own checks, not a later
    # lattice count (bare ValueError) or an empty stage
    nan, inf = float("nan"), float("inf")
    grid = toy_doc()["grid"]
    line = toy_doc()["path"]
    ellipse = {"kind": "ellipse", "center": [0.45, 0.05], "semi_axes": [0.28, 0.18],
               "rotation": 0.0}
    points = [[0.5, 0.2], [0.5, 0.0], [0.5, -0.2]]
    for doc in (toy_doc(grid=dict(grid, v_step=[nan])), toy_doc(grid=dict(grid, v_min=[nan])),
                toy_doc(grid=dict(grid, v_max=[inf])), toy_doc(grid=dict(grid, pv_max=nan)),
                toy_doc(grid=dict(grid, pv_max=inf)),
                toy_doc(path=dict(line, start=[nan, 0.2])),
                toy_doc(path=dict(line, end=[0.5, -inf])),
                toy_doc(path=dict(ellipse, center=[0.45, nan])),
                toy_doc(path=dict(ellipse, semi_axes=[inf, 0.18])),
                toy_doc(path=dict(ellipse, semi_axes=[0.28, nan])),
                toy_doc(path=dict(ellipse, rotation=nan)),
                toy_doc(path=dict(ellipse, rotation=inf)),
                toy_doc(path={"kind": "waypoints", "points": points[:1] + [[nan, 0.0]] + points[2:]})):
        with pytest.raises(ScenarioError, match="finite"):
            load_scenario(doc)
    # values of the wrong type are scenario errors, not bare ValueErrors
    grid = dict(toy_doc()["grid"], pv_levels="x")
    for doc in (toy_doc(check_count="abc"), toy_doc(n_stages="x"), toy_doc(seed="x"),
                toy_doc(grid=grid), toy_doc(branches=["x"]),
                toy_doc(limits={"qd": ["x"]}),
                toy_doc(path={"kind": "line", "start": ["a", 1], "end": [0.5, -0.2]})):
        with pytest.raises(ScenarioError):
            load_scenario(doc)
    # integer fields reject non-integral numbers instead of truncating them
    with pytest.raises(ScenarioError, match="check_count must be an integer"):
        load_scenario(toy_doc(check_count=2.7))
    assert load_scenario(toy_doc(check_count=2.0)).check_count == 2
    for window, match in (({"max_dl": "x"}, "max_dl must be an integer"),
                          ({"max_dl": 1.5}, "max_dl must be an integer"),
                          ({"max_dl": -1}, "max_dl must be nonnegative"),
                          ({"max_dj": -1}, "max_dj must be nonnegative")):
        with pytest.raises(ScenarioError, match=match):
            load_scenario(toy_doc(window=window))
    # unknown path keys are rejected per curve kind
    with pytest.raises(ScenarioError, match=r"unknown path fields \['ennd'\]"):
        load_scenario(toy_doc(path={"kind": "line", "start": [0.5, 0.2],
                                    "end": [0.5, -0.2], "ennd": [0.5, 0.0]}))
    with pytest.raises(ScenarioError, match=r"unknown path fields \['center'\]"):
        load_scenario(toy_doc(path={"kind": "line", "start": [0.5, 0.2],
                                    "end": [0.5, -0.2], "center": [0.5, 0.0]}))
    ellipse = {"kind": "ellipse", "center": [0.6, 0.0], "semi_axes": [0.1, 0.05]}
    assert load_scenario(toy_doc(path=ellipse)).curve.rotation == 0.0
    robot = make_reference_arm().to_dict()
    robot["dynamics"]["masss"] = [1.0, 1.0, 1.0]
    with pytest.raises(ScenarioError, match=r"unknown robot dynamics fields \['masss'\]"):
        load_scenario(toy_doc(robot=robot))


def _with_boolean(doc, field):
    """doc with the value at a dotted field path (list items as [k])
    replaced by true."""
    keys = [int(k) if k.isdigit() else k
            for k in field.replace("[", ".").replace("]", "").split(".")]
    block = doc
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = True
    return doc


# every field that reads a number: Python reads true as 1 (or 1.0)
@pytest.mark.parametrize("field", [
    "n_stages", "check_count", "seed", "branches[0]", "window.max_dl",
    "grid.pv_levels", "grid.pv_max", "grid.v_min[0]", "grid.v_max[0]",
    "limits.qd[1]", "limits.tau[0]", "path.start[0]", "path.end[1]",
    "robot.link_lengths[0]", "robot.task_dim",
    "robot.limits.qd_max[0]", "robot.limits.q_min[2]", "robot.dynamics.mass[0]",
    "robot.dynamics.com[1]", "robot.dynamics.gravity[1]", "baseline.q0[0]",
    "baseline.alpha", "baseline.beta", "baseline.tolerance", "baseline.step_cap",
    "baseline.cond_cap", "baseline.max_iterations",
])
def test_booleans_rejected_where_numbers_belong(field):
    doc = toy_doc(branches=[0], window={"max_dl": 1},
                  limits={"qd": [2.0, 2.0, 2.0], "tau": [50.0, 25.0, 8.0]},
                  baseline={"q0": [0.8, -2.1, 2.5], "alpha": 0.0, "beta": 0.5,
                            "tolerance": 1e-8, "step_cap": 0.5, "cond_cap": 1e8,
                            "max_iterations": 7})
    load_scenario(doc)
    # the integer fields name the field in their own words
    with pytest.raises(ScenarioError, match="must not be a boolean|must be an integer, got True"):
        load_scenario(_with_boolean(doc, field))


@pytest.mark.parametrize("field", ["path.semi_axes[0]", "path.center[1]",
                                   "path.rotation"])
def test_booleans_rejected_in_ellipse_path(field):
    doc = toy_doc(path={"kind": "ellipse", "center": [0.6, 0.0],
                        "semi_axes": [0.1, 0.05], "rotation": 0.0})
    load_scenario(doc)
    with pytest.raises(ScenarioError, match="must not be a boolean"):
        load_scenario(_with_boolean(doc, field))


def test_booleans_rejected_in_robot_file(tmp_path):
    robot = make_reference_arm().to_dict()
    robot["dynamics"]["inertia"][0] = True
    path = tmp_path / "robot.json"
    path.write_text(json.dumps(robot))
    with pytest.raises(ScenarioError, match=r"robot.dynamics.inertia\[0\] must not"):
        load_scenario(toy_doc(robot=str(path)))


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [], {}])
def test_rest_to_rest_must_be_a_boolean(value):
    grid = dict(toy_doc()["grid"], rest_to_rest=value)
    with pytest.raises(ScenarioError, match="rest_to_rest must be true or false"):
        load_scenario(toy_doc(grid=grid))
    for flag in (True, False):
        grid = dict(toy_doc()["grid"], rest_to_rest=flag)
        assert load_scenario(toy_doc(grid=grid)).grid.rest_to_rest is flag


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


def test_pv_cap_touched_compares_against_the_top_level():
    # 3 * (0.9 / 3) is 0.8999999999999999, not 0.9: the cap is the grid's
    # top level, not pv_max
    doc = bundled_scenario("toy_velocity").to_dict()
    doc["grid"].update(pv_max=0.9, pv_levels=3)
    doc["limits"] = {"qd": [100.0, 100.0, 100.0]}
    sc = load_scenario(doc)
    result = plan(sc.build(), sc.limits)
    assert result.grid.pv_values[-1] != sc.grid.pv_max
    assert result.grid.pv_values[-1] in result.profile.pv
    assert plan_report(sc, result)["pv_cap_touched"] is True


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
    assert set(meta) >= {"wall_clock_s", "machine", "python", "numpy", "simd"}
    # numpy's SIMD dispatch: the baseline features, and the dispatch
    # targets this CPU runs, in numpy's dispatch order
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    simd = meta["simd"]
    assert set(simd) == {"baseline", "found"}
    assert simd["baseline"] == list(umath.__cpu_baseline__)
    assert all(isinstance(name, str) for name in simd["baseline"] + simd["found"])
    dispatch = list(umath.__cpu_dispatch__)
    assert simd["found"] == [t for t in dispatch if t in simd["found"]]
    assert all(umath.__cpu_features__[t] for t in simd["found"])
    assert not [t for t in dispatch if umath.__cpu_features__.get(t) and t not in simd["found"]]
    json.dumps(meta)                            # the sidecar is plain JSON



def test_run_meta_simd_follows_the_dispatch_numpy_runs():
    # switching dispatch targets off in a fresh interpreter drops them from
    # the record: it names what numpy runs, not what the CPU could run
    found = run_meta(0.0, 1, [])["simd"]["found"]
    if len(found) < 2:
        pytest.skip("numpy dispatches to fewer than two targets on this CPU")
    src = os.path.dirname(os.path.dirname(os.path.abspath(scenario_module.__file__)))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(found[1:]),
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import json; from redplan.scenario import run_meta; "
            "print(json.dumps(run_meta(0.0, 1, [])['simd']))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    # the child's stderr names the cause of a failure
    assert out.returncode == 0, f"exit status {out.returncode}; stderr:\n{out.stderr}"
    assert json.loads(out.stdout)["found"] == found[:1], out.stderr

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
