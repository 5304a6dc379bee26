"""Scenario-driven command line.

Subcommands: plan | baseline | verify | sweep | export. Every run loads one
scenario file, writes its artifacts to the output directory, and exits with
0 on success, 2 on infeasibility, 3 on configuration errors, and 4 when an
enumeration budget is exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from . import __version__
from .baseline import resolve_redundancy, time_parametrize
from .errors import (BudgetExceeded, EmptyStage, NoConvergence, NoFeasiblePlan,
                     PlanningError, ScenarioError)
from .oracle import OracleBudget, compare, exhaustive_plan
from .planner import plan
from .scenario import (Scenario, active_constraint_csv, atomic_write_text,
                       baseline_report, dumps_canonical, joint_path_csv,
                       load_scenario, plan_report, pst_csv, resample_export,
                       run_meta, sweep_csv, trajectory_csv, verify_report)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_CONFIG = 3
EXIT_BUDGET = 4

SWEEP_AXES = ("n_stages", "v_step", "pv_levels", "pv_max")


def _structured_error(kind: str, message: str, **fields) -> None:
    payload = {"error": kind, "message": message}
    payload.update(fields)
    print(json.dumps(payload), file=sys.stderr)


def _out_dir(args, scenario: Scenario) -> str:
    return args.out or scenario.out_dir or os.path.join("runs", scenario.name)


def _write(path: str, text: str) -> None:
    atomic_write_text(path, text)
    print(path)


def _write_report(out: str, name: str, report: dict, started: float, args) -> None:
    _write(os.path.join(out, name), dumps_canonical(report) + "\n")
    meta = run_meta(started, threads=args.threads)
    _write(os.path.join(out, "run_meta.json"), dumps_canonical(meta) + "\n")


def cmd_plan(args) -> int:
    started = time.time()
    scenario = load_scenario(args.scenario)
    grid = scenario.build()
    if args.dry_run:
        stats = {"scenario_name": scenario.name, "scenario_hash": scenario.hash(),
                 "stages": grid.n_stages, "levels": grid.level_count,
                 "configurations": grid.cfg_count,
                 "admissible_per_stage": grid.admissible_counts,
                 "admissible_total": grid.total_admissible}
        print(dumps_canonical(stats))
        return EXIT_OK
    result = plan(grid, scenario.limits, check_count=scenario.check_count,
                  window=scenario.window)
    out = _out_dir(args, scenario)
    _write(os.path.join(out, "trajectory.csv"), trajectory_csv(result.profile))
    _write(os.path.join(out, "pst.csv"), pst_csv(result))
    _write(os.path.join(out, "active_constraint.csv"), active_constraint_csv(result))
    _write_report(out, "report.json", plan_report(scenario, result), started, args)
    return EXIT_OK


def cmd_baseline(args) -> int:
    started = time.time()
    scenario = load_scenario(args.scenario)
    if scenario.baseline is None:
        raise ScenarioError("scenario has no baseline block")
    path = scenario.sample()
    joint_path = resolve_redundancy(scenario.robot, path, scenario.baseline)
    pinned = time_parametrize(scenario.robot, path, joint_path, scenario.limits,
                              scenario.grid, check_count=scenario.check_count)
    unified = plan(scenario.build(), scenario.limits,
                   check_count=scenario.check_count, window=scenario.window)
    out = _out_dir(args, scenario)
    _write(os.path.join(out, "joint_path.csv"), joint_path_csv(path, joint_path))
    _write(os.path.join(out, "trajectory.csv"), trajectory_csv(pinned.profile))
    _write(os.path.join(out, "pst.csv"), pst_csv(pinned))
    _write(os.path.join(out, "active_constraint.csv"), active_constraint_csv(pinned))
    _write_report(out, "baseline_report.json",
                  baseline_report(scenario, joint_path, pinned, unified),
                  started, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.time()
    scenario = load_scenario(args.scenario)
    if scenario.window is not None:
        # the oracle enumerates the whole grid, so the DP must not be windowed
        raise ScenarioError("verify searches the whole grid; remove the "
                            "scenario's window")
    budget = OracleBudget(max_chains=args.budget) if args.budget else OracleBudget()
    grid = scenario.build()
    dp = plan(grid, scenario.limits, check_count=scenario.check_count)
    oracle = exhaustive_plan(grid, scenario.limits, budget=budget,
                             check_count=scenario.check_count)
    gap = compare(dp, oracle, budget=budget)
    out = _out_dir(args, scenario)
    _write_report(out, "gap_report.json", verify_report(scenario, gap),
                  started, args)
    return EXIT_OK


def _sweep_variant(scenario: Scenario, axis: str, value: float) -> Scenario:
    if axis == "n_stages":
        return replace(scenario, n_stages=int(value))
    if axis == "v_step":
        steps = [float(value)] * scenario.grid.r
        return replace(scenario, grid=replace(scenario.grid, v_step=steps))
    if axis == "pv_levels":
        return replace(scenario, grid=replace(scenario.grid, pv_levels=int(value)))
    if axis == "pv_max":
        return replace(scenario, grid=replace(scenario.grid, pv_max=float(value)))
    raise ScenarioError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ScenarioError(f"bad sweep values: {exc}") from exc
    if not values:
        raise ScenarioError("sweep needs at least one value")
    rows = []
    for value in values:
        variant = _sweep_variant(scenario, args.axis, value)
        tick = time.time()
        result = plan(variant.build(), variant.limits,
                      check_count=variant.check_count, window=variant.window)
        rows.append((value, result.cost, result.saturation.percentage,
                     time.time() - tick))
    out = _out_dir(args, scenario)
    _write(os.path.join(out, "sweep.csv"), sweep_csv(args.axis, rows))
    return EXIT_OK


def cmd_export(args) -> int:
    scenario = load_scenario(args.scenario)
    result = plan(scenario.build(), scenario.limits,
                  check_count=scenario.check_count, window=scenario.window)
    out = _out_dir(args, scenario)
    _write(os.path.join(out, "trajectory_dense.csv"),
           resample_export(result, args.rate))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redplan",
        description="Unified time-optimal trajectory planning for redundant "
                    "manipulators on prescribed paths.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", default=None, help="artifact directory")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and recorded in run_meta.json; planning "
                            "is single-threaded, so it changes no result")

    p = sub.add_parser("plan", help="run the unified planner")
    common(p)
    p.add_argument("--dry-run", action="store_true",
                   help="validate and print grid cardinality, skip planning")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("baseline", help="run the two-stage pipeline plus the "
                                        "unified planner for comparison")
    common(p)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("verify", help="exhaustive search and gap report")
    common(p)
    p.add_argument("--budget", type=float, default=None,
                   help="maximum chains the exhaustive search may visit")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("sweep", help="one planner run per axis value")
    common(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("export", help="dense fixed-rate trajectory resample")
    common(p)
    p.add_argument("--rate", type=float, required=True, help="sample rate, Hz")
    p.set_defaults(fn=cmd_export)
    return parser


def main(argv: list | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EmptyStage as exc:
        _structured_error("EmptyStage", str(exc), stage=exc.stage)
        return EXIT_INFEASIBLE
    except NoFeasiblePlan as exc:
        _structured_error("NoFeasiblePlan", str(exc),
                          deepest_stage=exc.deepest_stage,
                          violation_histogram=exc.violation_histogram)
        return EXIT_INFEASIBLE
    except NoConvergence as exc:
        _structured_error("NoConvergence", str(exc), waypoint=exc.waypoint)
        return EXIT_INFEASIBLE
    except BudgetExceeded as exc:
        _structured_error("BudgetExceeded", str(exc))
        return EXIT_BUDGET
    except ScenarioError as exc:
        _structured_error("ScenarioError", str(exc))
        return EXIT_CONFIG
    except PlanningError as exc:
        _structured_error(type(exc).__name__, str(exc))
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
