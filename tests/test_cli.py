import json
import os

import pytest

from redplan.cli import main
from redplan.scenario import _bundled_dir, bundled_scenario


def bundled_path(name):
    return os.path.join(_bundled_dir(), name + ".json")


def tweaked(tmp_path, name, **overrides):
    """Copy a bundled scenario with top-level overrides into tmp_path."""
    with open(bundled_path(name)) as fh:
        doc = json.load(fh)
    doc.update(overrides)
    out = tmp_path / f"{name}_variant.json"
    out.write_text(json.dumps(doc))
    return str(out)


def stderr_payload(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


# --- plan --------------------------------------------------------------------


def test_plan_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["plan", "--scenario", bundled_path("toy_full"),
                 "--out", str(out)])
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["active_constraint.csv", "pst.csv", "report.json",
                     "run_meta.json", "trajectory.csv"]
    report = json.loads((out / "report.json").read_text())
    assert report["cost"] == 0.6666666666666667
    assert report["scenario_hash"] == bundled_scenario("toy_full").hash()
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "trajectory.csv") in printed


def test_plan_dry_run(tmp_path, capsys):
    out = tmp_path / "never"
    code = main(["plan", "--scenario", bundled_path("toy_full"),
                 "--out", str(out), "--dry-run"])
    assert code == 0
    assert not out.exists()
    stats = json.loads(capsys.readouterr().out)
    assert stats["stages"] == 3
    assert stats["admissible_per_stage"] == [4, 8, 8, 4]


def test_plan_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["plan", "--scenario", bundled_path("toy_full")]) == 0
    assert (tmp_path / "runs" / "toy_full" / "report.json").is_file()


def test_scenario_out_dir_field(tmp_path):
    target = tmp_path / "custom"
    scenario = tweaked(tmp_path, "toy_full", out_dir=str(target))
    assert main(["plan", "--scenario", scenario]) == 0
    assert (target / "report.json").is_file()


def test_missing_scenario_is_config_error(tmp_path, capsys):
    code = main(["plan", "--scenario", str(tmp_path / "nope.json")])
    assert code == 3
    assert stderr_payload(capsys)["error"] == "ScenarioError"


@pytest.mark.parametrize("overrides", [{"objective": "energy"}, {"check_cout": 2}])
def test_bad_scenario_keys_are_config_errors(tmp_path, capsys, overrides):
    out = tmp_path / "x"
    code = main(["plan", "--scenario", tweaked(tmp_path, "toy_velocity", **overrides),
                 "--out", str(out)])
    assert code == 3
    assert stderr_payload(capsys)["error"] == "ScenarioError"
    assert not out.exists()


def test_nan_link_mass_is_config_error(tmp_path, capsys):
    with open(bundled_path("toy_full")) as fh:
        robot = json.load(fh)["robot"]
    robot["dynamics"]["mass"][2] = float("nan")
    out = tmp_path / "x"
    out.mkdir()
    code = main(["plan", "--scenario", tweaked(tmp_path, "toy_full", robot=robot),
                 "--out", str(out)])
    assert code == 3
    assert stderr_payload(capsys)["error"] == "ScenarioError"
    assert os.listdir(out) == []


# --- baseline ----------------------------------------------------------------


def test_baseline_pinned_comparison(tmp_path):
    out = tmp_path / "bl"
    code = main(["baseline", "--scenario", bundled_path("line"),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "baseline_report.json").read_text())
    assert report["artifact"] == "baseline"
    assert report["mode"] == "null-space descent"
    assert report["baseline_cost"] == 1.0155573593073597
    assert report["unified_cost"] == 0.6811343418486278
    assert report["relative_gap"] == 0.49097952769653863
    assert report["resolution"]["branch_jump"] is False
    assert report["resolution"]["residual_max"] < 1e-8
    lines = (out / "joint_path.csv").read_text().splitlines()
    assert len(lines) == 12  # header + 11 waypoints


def test_baseline_requires_block(tmp_path, capsys):
    code = main(["baseline", "--scenario", bundled_path("toy_full"),
                 "--out", str(tmp_path)])
    assert code == 3
    payload = stderr_payload(capsys)
    assert payload["error"] == "ScenarioError"
    assert "baseline block" in payload["message"]


def test_baseline_pure_pseudoinverse_mode(tmp_path):
    scenario = tweaked(
        tmp_path, "line",
        baseline={"q0": [0.8, -2.1331738363318813, 2.537525199990199],
                  "alpha": 0.0})
    out = tmp_path / "bl0"
    assert main(["baseline", "--scenario", scenario, "--out", str(out)]) == 0
    report = json.loads((out / "baseline_report.json").read_text())
    assert report["mode"] == "pure pseudo-inverse"


def test_baseline_no_convergence_exit(tmp_path, capsys):
    scenario = tweaked(tmp_path, "line",
                       baseline={"q0": [0.3, 0.5, 0.5], "max_iterations": 2})
    code = main(["baseline", "--scenario", scenario, "--out", str(tmp_path / "x")])
    assert code == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "NoConvergence"
    assert payload["waypoint"] == 0


# --- verify ------------------------------------------------------------------


def test_verify_adversarial_gap_pinned(tmp_path):
    out = tmp_path / "ver"
    code = main(["verify", "--scenario", bundled_path("toy_jerk"),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "gap_report.json").read_text())
    assert report["dp_cost"] == 0.9333333333333333
    assert report["oracle_cost"] == 0.6666666666666667
    assert report["gap"] == 0.2666666666666666
    assert report["attribution"]["qddd"] == report["gap"]
    assert report["attribution"]["qd"] == 0.0


def test_verify_zero_gap_toys(tmp_path):
    for name in ("toy_velocity", "toy_full"):
        out = tmp_path / name
        assert main(["verify", "--scenario", bundled_path(name),
                     "--out", str(out)]) == 0
        report = json.loads((out / "gap_report.json").read_text())
        assert report["gap"] == 0.0


def test_verify_refuses_window(tmp_path, capsys):
    # the oracle searches the whole grid, so a windowed DP would make the
    # report compare two different searches
    out = tmp_path / "ver"
    code = main(["verify", "--scenario",
                 tweaked(tmp_path, "toy_jerk", window={"max_dl": 1}),
                 "--out", str(out)])
    assert code == 3
    payload = stderr_payload(capsys)
    assert payload["error"] == "ScenarioError"
    assert "window" in payload["message"]
    assert not out.exists()


def test_verify_budget_exit(tmp_path, capsys):
    code = main(["verify", "--scenario", bundled_path("toy_jerk"),
                 "--out", str(tmp_path / "x"), "--budget", "1"])
    assert code == 4
    assert stderr_payload(capsys)["error"] == "BudgetExceeded"


# --- infeasibility exits -------------------------------------------------------


def test_empty_stage_exit(tmp_path, capsys):
    # v = 0 puts the wrist base 0.05 m from the mid waypoints, inside the
    # annulus hole, so interior stages lose every configuration
    scenario = tweaked(tmp_path, "line",
                       grid={"pv_max": 1.4, "pv_levels": 15, "v_min": [0.0],
                             "v_max": [0.0], "v_step": [1.0],
                             "rest_to_rest": True},
                       limits={"from_robot": ["qd"]})
    code = main(["plan", "--scenario", scenario, "--out", str(tmp_path / "x")])
    assert code == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "EmptyStage"
    assert isinstance(payload["stage"], int)


def test_no_feasible_plan_exit(tmp_path, capsys):
    scenario = tweaked(tmp_path, "toy_jerk",
                       limits={"qd": None, "qdd": None, "tau": None,
                               "taud": None, "qddd": [10.0, 10.0, 10.0]})
    code = main(["plan", "--scenario", scenario, "--out", str(tmp_path / "x")])
    assert code == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "NoFeasiblePlan"
    assert "qddd" in payload["violation_histogram"]
    assert payload["deepest_stage"] >= 0


# --- sweep and export ----------------------------------------------------------


def test_sweep_rows(tmp_path):
    out = tmp_path / "sw"
    code = main(["sweep", "--scenario", bundled_path("toy_full"),
                 "--axis", "pv_levels", "--values", "2,3,4",
                 "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "axis,value,cost,saturation_percent,runtime_s"
    assert len(lines) == 4
    assert all(line.startswith("pv_levels,") for line in lines[1:])


def test_single_value_sweep_matches_plan(tmp_path):
    out = tmp_path / "sw1"
    assert main(["sweep", "--scenario", bundled_path("toy_full"),
                 "--axis", "pv_levels", "--values", "2",
                 "--out", str(out)]) == 0
    cost = float((out / "sweep.csv").read_text().splitlines()[1].split(",")[2])
    assert cost == 0.6666666666666667


def test_sweep_bad_values(tmp_path, capsys):
    code = main(["sweep", "--scenario", bundled_path("toy_full"),
                 "--axis", "pv_levels", "--values", "two",
                 "--out", str(tmp_path / "x")])
    assert code == 3
    assert stderr_payload(capsys)["error"] == "ScenarioError"


def test_export_dense_resample(tmp_path):
    out = tmp_path / "ex"
    code = main(["export", "--scenario", bundled_path("toy_full"),
                 "--rate", "50", "--out", str(out)])
    assert code == 0
    lines = (out / "trajectory_dense.csv").read_text().splitlines()
    assert lines[0] == "t,q1,q2,q3,qd1_linear,qd2_linear,qd3_linear"
    assert float(lines[-1].split(",")[0]) == 0.6666666666666667


def test_export_bad_rate(tmp_path, capsys):
    code = main(["export", "--scenario", bundled_path("toy_full"),
                 "--rate", "0", "--out", str(tmp_path / "x")])
    assert code == 3
    assert stderr_payload(capsys)["error"] == "ScenarioError"


# --- determinism ----------------------------------------------------------------


def test_reports_bit_identical_across_threads(tmp_path):
    for threads, tag in (("1", "a"), ("8", "b")):
        assert main(["plan", "--scenario", bundled_path("toy_full"),
                     "--threads", threads, "--out", str(tmp_path / tag)]) == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b
    ta = (tmp_path / "a" / "trajectory.csv").read_bytes()
    tb = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert ta == tb


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip()
