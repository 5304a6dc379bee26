import json
import os
import subprocess
import sys

import pytest

from redplan import cli
from redplan.cli import main
from redplan.errors import ScenarioError
from redplan.scenario import _bundled_dir, bundled_scenario, load_scenario


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


@pytest.mark.parametrize("overrides", [{"objective": "energy"}, {"check_cout": 2},
                                       {"check_count": "abc"},
                                       {"window": {"max_dl": "x"}},
                                       {"window": {"max_dl": -1}},
                                       {"check_count": True}, {"n_stages": True}])
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


@pytest.mark.parametrize("command", ["plan", "baseline"])
@pytest.mark.parametrize("block,field", [(None, "n_stages"), ("grid", "pv_levels")])
def test_oversized_counts_are_config_errors(tmp_path, capsys, command, block, field):
    # 1e308 is an integral number, so it passes as a count; numpy used to
    # reject the first array it sized, with exit 1
    if block is None:
        override = {field: 1e308}
    else:
        with open(bundled_path("line")) as fh:
            override = {block: json.load(fh)[block]}
        override[block][field] = 1e308
    out = tmp_path / "x"
    out.mkdir()
    code = main([command, "--scenario", tweaked(tmp_path, "line", **override),
                 "--out", str(out)])
    assert code == 3
    payload = stderr_payload(capsys)
    assert payload["error"] == "ScenarioError"
    assert "array index" in payload["message"]
    assert os.listdir(out) == []


@pytest.mark.parametrize("name,block,field,value", [
    pytest.param(name, block, field, value, id=f"{name}-{block}.{field}={value}")
    for name, block, field, value in (
        ("toy_velocity", "grid", "v_step", [float("nan")]),
        ("toy_velocity", "grid", "v_min", [float("nan")]),
        ("toy_velocity", "grid", "v_max", [float("inf")]),
        ("toy_velocity", "grid", "pv_max", float("nan")),
        ("toy_velocity", "grid", "pv_max", float("inf")),
        ("toy_velocity", "path", "start", [float("nan"), 0.2]),
        ("toy_velocity", "path", "end", [0.5, float("inf")]),
        ("ellipse", "path", "center", [float("nan"), 0.0]),
        ("ellipse", "path", "semi_axes", [0.2, float("inf")]),
        ("ellipse", "path", "rotation", float("nan")),
        ("ellipse", "path", "rotation", float("inf")))])
def test_non_finite_grid_and_path_numbers_are_config_errors(tmp_path, capsys, name,
                                                             block, field, value):
    # each used to exit 1 with a bare traceback or 2 as an infeasible plan
    with open(bundled_path(name)) as fh:
        section = json.load(fh)[block]
    section[field] = value
    out = tmp_path / "x"
    out.mkdir()
    code = main(["plan", "--scenario", tweaked(tmp_path, name, **{block: section}),
                 "--out", str(out)])
    assert code == 3
    payload = stderr_payload(capsys)
    assert payload["error"] == "ScenarioError"
    assert "finite" in payload["message"]
    assert os.listdir(out) == []


RAGGED = [[0.9, 0.2], [1.0, 0.3, 0.1], [1.1, 0.4]]


@pytest.mark.parametrize("source", ["json", "csv"])
def test_ragged_waypoints_are_config_errors(tmp_path, capsys, source):
    # numpy's "inhomogeneous shape" ValueError used to escape main (exit 1)
    if source == "json":
        path = {"kind": "waypoints", "points": RAGGED}
    else:
        path = tmp_path / "points.csv"
        path.write_text("".join(",".join(map(str, p)) + "\n" for p in RAGGED))
        path = str(path)
    scenario = tweaked(tmp_path, "toy_velocity", path=path)
    with pytest.raises(ScenarioError, match="waypoints must share a dimension"):
        load_scenario(scenario)
    out = tmp_path / "x"
    out.mkdir()
    assert main(["plan", "--scenario", scenario, "--out", str(out)]) == 3
    payload = stderr_payload(capsys)
    assert payload["error"] == "ScenarioError"
    assert "share a dimension" in payload["message"]
    assert os.listdir(out) == []


@pytest.mark.parametrize("com", [-0.2, -1e-300, 0.5000000000000001])
def test_com_off_its_link_is_config_error(tmp_path, capsys, com):
    # the first link is 0.5 m long; a negative offset used to plan and exit 0
    with open(bundled_path("toy_velocity")) as fh:
        robot = json.load(fh)["robot"]
    robot["dynamics"]["com"][0] = com
    out = tmp_path / "x"
    out.mkdir()
    code = main(["plan", "--scenario", tweaked(tmp_path, "toy_velocity", robot=robot),
                 "--out", str(out)])
    assert code == 3
    payload = stderr_payload(capsys)
    assert payload["error"] == "ScenarioError"
    assert "lie on their links" in payload["message"]
    assert os.listdir(out) == []


@pytest.mark.parametrize("com", [0.0, 0.5])
def test_com_at_a_link_end_plans(tmp_path, com):
    with open(bundled_path("toy_velocity")) as fh:
        robot = json.load(fh)["robot"]
    robot["dynamics"]["com"][0] = com
    code = main(["plan", "--scenario", tweaked(tmp_path, "toy_velocity", robot=robot),
                 "--out", str(tmp_path / "x")])
    assert code == 0


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


@pytest.mark.parametrize("field,value", [("q0", [0.8, float("nan"), 2.5]),
                                         ("beta", float("nan")),
                                         ("alpha", float("nan")),
                                         ("tolerance", float("inf"))])
def test_non_finite_baseline_config_is_config_error(tmp_path, capsys, field, value):
    with open(bundled_path("line")) as fh:
        baseline = json.load(fh)["baseline"]
    baseline[field] = value
    scenario = tweaked(tmp_path, "line", baseline=baseline)
    with pytest.raises(ScenarioError):
        load_scenario(scenario)
    out = tmp_path / "x"
    out.mkdir()
    assert main(["baseline", "--scenario", scenario, "--out", str(out)]) == 3
    assert stderr_payload(capsys)["error"] == "ScenarioError"
    assert os.listdir(out) == []


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


def test_baseline_singular_jacobian_exit(tmp_path, capsys):
    # the Jacobian at the first waypoint, condition number 2.37, exceeds
    # a cap of 1
    scenario = tweaked(tmp_path, "line",
                       baseline={"q0": [0.8, -2.1331738363318813, 2.537525199990199],
                                 "cond_cap": 1.0})
    out = tmp_path / "x"
    assert main(["baseline", "--scenario", scenario, "--out", str(out)]) == 3
    assert stderr_payload(capsys) == {
        "error": "SingularJacobian",
        "message": "Jacobian condition number 2.37 exceeds cap 1"}
    assert not out.exists()


def test_degenerate_curve_exit(tmp_path, capsys):
    scenario = tweaked(tmp_path, "line",
                       path={"kind": "line", "start": [0.55, 0.25], "end": [0.55, 0.25]})
    out = tmp_path / "x"
    assert main(["plan", "--scenario", scenario, "--out", str(out)]) == 3
    assert stderr_payload(capsys)["error"] == "DegenerateCurve"
    assert not out.exists()


def test_baseline_divergence_is_no_convergence(tmp_path, capsys):
    # beta 1e308 overflows a step to inf at waypoint 1; the NaN residual
    # that follows must not pass the convergence test
    with open(bundled_path("ellipse")) as fh:
        baseline = json.load(fh)["baseline"]
    baseline["beta"] = 1e308
    scenario = tweaked(tmp_path, "ellipse", baseline=baseline)
    out = tmp_path / "x"
    assert main(["baseline", "--scenario", scenario, "--out", str(out)]) == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "NoConvergence"
    assert payload["waypoint"] == 1
    assert not out.exists()


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


def test_baseline_refuses_window(tmp_path, capsys):
    # the pinned grid is searched whole, so a windowed unified DP would make
    # relative_gap compare two different searches
    out = tmp_path / "base"
    code = main(["baseline", "--scenario",
                 tweaked(tmp_path, "line", window={"max_dl": 1}),
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


@pytest.mark.parametrize("budget", ["0", "-1", "nan"])
def test_verify_nonpositive_budget_is_config_error(tmp_path, capsys, budget):
    out = tmp_path / "x"
    code = main(["verify", "--scenario", bundled_path("toy_jerk"),
                 "--out", str(out), "--budget", budget])
    assert code == 3
    assert stderr_payload(capsys)["error"] == "ScenarioError"
    assert not out.exists()


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


@pytest.mark.parametrize("owner,name", [(cli, "plan"), (cli.Scenario, "build")])
def test_out_of_memory_exit(tmp_path, capsys, monkeypatch, owner, name):
    # a grid too large for memory fails at its first allocation; the raise
    # stands in for it, so nothing large is allocated here
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 80.0 GiB for an array")

    monkeypatch.setattr(owner, name, exhausted)
    code = main(["plan", "--scenario", bundled_path("toy_full"),
                 "--out", str(tmp_path / "x")])
    assert code == 3
    assert stderr_payload(capsys) == {"error": "MemoryError",
                                      "message": "Unable to allocate 80.0 GiB for an array"}
    assert not (tmp_path / "x").exists()


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


@pytest.mark.parametrize("axis", ["n_stages", "pv_levels"])
def test_sweep_rejects_fractional_integer_axis(tmp_path, capsys, axis):
    out = tmp_path / "x"
    code = main(["sweep", "--scenario", bundled_path("toy_full"),
                 "--axis", axis, "--values", "2.5", "--out", str(out)])
    assert code == 3
    payload = stderr_payload(capsys)
    assert payload["error"] == "ScenarioError" and axis in payload["message"]
    assert not (out / "sweep.csv").exists()


def test_plan_rejects_non_string_out_dir(tmp_path, capsys):
    code = main(["plan", "--scenario", tweaked(tmp_path, "toy_full", out_dir=5)])
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


@pytest.mark.parametrize("rate", ["0", "nan", "inf", "-inf", "1e300"])
def test_export_bad_rate(tmp_path, capsys, rate):
    # NaN and infinity pass a bare "rate <= 0" check and then fail in the
    # sample count, and 1e300 asks for more samples than an array index can
    # address; they must be configuration errors too
    out = tmp_path / "x"
    code = main(["export", "--scenario", bundled_path("toy_full"),
                 f"--rate={rate}", "--out", str(out)])
    assert code == 3
    assert stderr_payload(capsys)["error"] == "ScenarioError"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["plan"],                                                    # no --scenario
    ["export", "--scenario", bundled_path("toy_full"), "--rate", "abc"],
    ["export", "--scenario", bundled_path("toy_full"), "--rate", "-inf"],
    ["replan", "--scenario", bundled_path("toy_full")],          # no such command
])
def test_malformed_command_line_is_a_configuration_error(tmp_path, capsys, argv):
    # argparse's own exit code, 2, means "no feasible plan" here
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 3
    payload = stderr_payload(capsys)
    assert payload["error"] == "ScenarioError"
    assert payload["message"].startswith("redplan")
    assert not out.exists()


def test_calls_share_one_parser(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; a call must leave it fit for
    # the next, whatever that call's subcommand or outcome
    seen = []
    parse_args = cli._Parser.parse_args

    def recording(self, *args, **kwargs):
        seen.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recording)
    assert main(["plan", "--scenario", bundled_path("toy_full"),
                 "--out", str(tmp_path / "p")]) == 0
    assert main(["verify", "--scenario", bundled_path("toy_jerk"),
                 "--out", str(tmp_path / "v")]) == 0
    assert main(["plan", "--out", str(tmp_path / "x")]) == 3
    assert stderr_payload(capsys)["error"] == "ScenarioError"
    assert not (tmp_path / "x").exists()
    assert len(seen) == 3 and all(parser is seen[0] for parser in seen)


@pytest.mark.parametrize("threads", ["0", "-2", "two"])
def test_thread_count_below_one_is_a_configuration_error(tmp_path, capsys, threads):
    out = tmp_path / "x"
    assert main(["plan", "--scenario", bundled_path("toy_full"),
                 "--threads", threads, "--out", str(out)]) == 3
    payload = stderr_payload(capsys)
    assert payload["error"] == "ScenarioError"
    assert "--threads" in payload["message"]
    assert not out.exists()


def test_help_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--help"])
    assert exc.value.code == 0
    assert "--scenario" in capsys.readouterr().out


def test_runs_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma adds about 0.5 MB resident on first import, and np.unique
    # imports it; no command may load it. A fresh interpreter, since any
    # earlier test in this one may have
    runs = [["plan", name] for name in ("ellipse", "line", "toy_full", "toy_jerk",
                                        "toy_velocity")]
    runs += [["baseline", name] for name in ("ellipse", "line")]
    runs += [["verify", name] for name in ("toy_full", "toy_jerk", "toy_velocity")]
    argvs = [[command, "--scenario", bundled_path(name), "--out", str(tmp_path / str(k))]
             for k, (command, name) in enumerate(runs)]
    code = ("import sys; from redplan.cli import main; "
            f"codes = [main(argv) for argv in {argvs!r}]; "
            "print(codes, 'numpy.ma' in sys.modules)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.splitlines()[-1] == f"{[0] * len(runs)} False"


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
