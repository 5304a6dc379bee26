"""Scenario files and run artifacts.

A scenario is one self-contained JSON document: robot description, task
curve, grid lattice, constraint bounds, objective (always "time": the cost
of a plan is its duration), and optional baseline block. Loading
cross-validates everything and rejects unknown keys; the canonical
serialization (sorted keys, 17 significant digits) feeds a stable content
hash that every artifact echoes.

Reports are split so reruns are bit-reproducible: report.json carries only
deterministic content, and the wall-clock/machine information goes to a
run_meta.json sidecar.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from .baseline import JointPath, ResolutionConfig
from .constraints import ORDERS, LimitSets, SaturationReport, TrajectoryProfile
from .errors import ScenarioError, as_int, reject_booleans, reject_unknown
from .grid import GridSpec, StateGrid, build_grid
from .path import CurveSpec, WorkspacePath, load_path, sample_path
from .planner import PlanResult, Window
from .robot import PlanarArm, load_robot

Array = np.ndarray

# the keys of Scenario.to_dict(); load_scenario rejects any other
_SCENARIO_KEYS = ("name", "robot", "path", "n_stages", "grid", "limits", "objective",
                  "check_count", "window", "branches", "baseline", "out_dir", "seed")
_BASELINE_KEYS = ("q0", "alpha", "beta", "tolerance", "max_iterations",
                  "step_cap", "cond_cap")

TRAJECTORY_HEADER_BASE = ("t",)
PST_HEADER_BASE = ("lam",)


# --- canonical JSON -------------------------------------------------------


def _fmt_float(x: float) -> str:
    if x != x:
        raise ScenarioError("NaN is not representable in canonical JSON")
    if x == np.inf:
        return "Infinity"
    if x == -np.inf:
        return "-Infinity"
    return format(float(x), ".17g")


def _ser(x, out: list) -> None:
    if isinstance(x, dict):
        out.append("{")
        for k, key in enumerate(sorted(x)):
            if not isinstance(key, str):
                raise ScenarioError("canonical JSON keys must be strings")
            if k:
                out.append(", ")
            out.append(json.dumps(key))
            out.append(": ")
            _ser(x[key], out)
        out.append("}")
    elif isinstance(x, (list, tuple)) or (isinstance(x, np.ndarray) and x.ndim == 1):
        out.append("[")
        for k, item in enumerate(x):
            if k:
                out.append(", ")
            _ser(item, out)
        out.append("]")
    elif isinstance(x, (bool, np.bool_)):
        out.append("true" if x else "false")
    elif isinstance(x, (int, np.integer)):
        out.append(str(int(x)))
    elif isinstance(x, (float, np.floating)):
        out.append(_fmt_float(float(x)))
    elif isinstance(x, str):
        out.append(json.dumps(x))
    elif x is None:
        out.append("null")
    else:
        raise ScenarioError(f"cannot serialize {type(x).__name__} canonically")


def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    out: list = []
    _ser(obj, out)
    return "".join(out)


def atomic_write_text(path: str, text: str) -> None:
    """Write-temp-then-rename so readers never see a partial artifact."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-artifact-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# --- block serializers ----------------------------------------------------


def _grid_spec_to_dict(spec: GridSpec) -> dict:
    return {"pv_max": float(spec.pv_max), "pv_levels": int(spec.pv_levels),
            "v_min": spec.v_min.tolist(), "v_max": spec.v_max.tolist(),
            "v_step": spec.v_step.tolist(), "rest_to_rest": bool(spec.rest_to_rest)}


def _grid_spec_from_dict(data: dict) -> GridSpec:
    reject_unknown(data, ("pv_max", "pv_levels", "v_min", "v_max", "v_step",
                          "rest_to_rest"), "grid")
    rest_to_rest = data.get("rest_to_rest", True)
    if not isinstance(rest_to_rest, bool):
        raise ScenarioError(f"grid rest_to_rest must be true or false, got {rest_to_rest!r}")
    try:
        return GridSpec(pv_max=float(data["pv_max"]),
                        pv_levels=as_int(data["pv_levels"], "pv_levels"),
                        v_min=data["v_min"], v_max=data["v_max"],
                        v_step=data["v_step"], rest_to_rest=rest_to_rest)
    except KeyError as exc:
        raise ScenarioError(f"grid block missing field {exc}") from exc


def _limits_to_dict(limits: LimitSets) -> dict:
    return {order: (None if limits.bound(order) is None
                    else [float(b) for b in limits.bound(order)])
            for order in ORDERS}


def _limits_from_dict(data: dict, robot: PlanarArm) -> LimitSets:
    if "from_robot" in data:
        reject_unknown(data, ("from_robot",), "limit")
        orders = data["from_robot"]
        bad = set(orders) - set(ORDERS)
        if bad:
            raise ScenarioError(f"unknown constraint orders {sorted(bad)}")
        return LimitSets.from_joint_limits(robot.limits, orders=tuple(orders))
    reject_unknown(data, ORDERS, "limit")
    return LimitSets(**{o: (None if data.get(o) is None else data[o]) for o in ORDERS})


def _window_to_dict(window: Window | None) -> dict | None:
    if window is None:
        return None
    return {"max_dl": window.max_dl, "max_dj": window.max_dj}


def _window_from_dict(data: dict | None) -> Window | None:
    if data is None:
        return None
    reject_unknown(data, ("max_dl", "max_dj"), "window")
    return Window(max_dl=data.get("max_dl"), max_dj=data.get("max_dj"))


def _baseline_from_dict(data: dict | None) -> ResolutionConfig | None:
    if data is None:
        return None
    reject_unknown(data, _BASELINE_KEYS, "baseline")
    try:
        q0 = data["q0"]
    except KeyError as exc:
        raise ScenarioError("baseline block needs q0") from exc
    kwargs = {k: data[k] for k in _BASELINE_KEYS[1:] if k in data}
    if "max_iterations" in kwargs:
        kwargs["max_iterations"] = as_int(kwargs["max_iterations"], "max_iterations")
    return ResolutionConfig(q0=np.asarray(q0, dtype=float), **kwargs)


# --- scenario ---------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Fully validated planning problem plus its run plumbing."""

    name: str
    robot: PlanarArm
    curve: CurveSpec
    n_stages: int
    grid: GridSpec
    limits: LimitSets
    objective: str = "time"
    check_count: int = 0
    window: Window | None = None
    branches: tuple | None = None
    baseline: ResolutionConfig | None = None
    out_dir: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ScenarioError(f"out_dir must be a string or null, got {self.out_dir!r}")
        if self.n_stages < 1:
            raise ScenarioError("n_stages must be at least 1")
        if self.check_count < 0:
            raise ScenarioError("check_count must be nonnegative")
        if self.objective != "time":
            raise ScenarioError(f"unknown objective {self.objective!r}; "
                                "the only objective is 'time'")
        if self.grid.r != self.robot.r:
            raise ScenarioError(
                f"grid lattice has {self.grid.r} redundancy parameters, "
                f"robot has {self.robot.r}")
        # numpy allocates no array with more elements than an index can
        # address, so a grid past that fails here, typed, and not at its
        # first allocation
        nodes = ((self.n_stages + 1) * (self.grid.pv_levels + 1) * self.robot.branch_count
                 * math.prod(c + 1 for c in self.grid.v_counts))
        if nodes > np.iinfo(np.intp).max:
            raise ScenarioError("n_stages, grid pv_levels and the redundancy lattice "
                                "give more grid nodes than an array index can address")
        if not self.limits.enabled_orders:
            raise ScenarioError("limits enable no constraint order; a plan needs at least one")
        for order in self.limits.enabled_orders:
            bound = self.limits.bound(order)
            if bound.shape not in ((1,), (self.robot.n,)):
                raise ScenarioError(
                    f"{order} bound has length {bound.shape[0]}, "
                    f"robot has {self.robot.n} joints")
        if self.branches is not None:
            branches = tuple(as_int(g, "branch") for g in self.branches)
            if not branches:
                raise ScenarioError("branch filter cannot be empty")
            if not set(branches) <= set(range(self.robot.branch_count)):
                raise ScenarioError(f"branch filter {branches} outside "
                                    f"0..{self.robot.branch_count - 1}")
            object.__setattr__(self, "branches", branches)
        if self.baseline is not None and self.baseline.q0.shape != (self.robot.n,):
            raise ScenarioError("baseline q0 length must match the joint count")

    def sample(self) -> WorkspacePath:
        return sample_path(self.curve, self.n_stages)

    def build(self) -> StateGrid:
        grid = build_grid(self.robot, self.sample(), self.grid)
        if self.branches is not None:
            cells = np.arange(grid.cfg_count) % grid.branch_count
            grid = replace(grid, admissible=grid.admissible & np.isin(cells, self.branches))
        return grid

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "robot": self.robot.to_dict(),
            "path": self.curve.to_dict(),
            "n_stages": int(self.n_stages),
            "grid": _grid_spec_to_dict(self.grid),
            "limits": _limits_to_dict(self.limits),
            "objective": self.objective,
            "check_count": int(self.check_count),
            "window": _window_to_dict(self.window),
            "branches": None if self.branches is None else list(self.branches),
            "baseline": None if self.baseline is None else self.baseline.to_dict(),
            "out_dir": self.out_dir,
            "seed": int(self.seed),
        }

    def hash(self) -> str:
        """Content digest of the planning problem (name and out_dir are
        labels, not problem data, and do not enter the hash)."""
        payload = self.to_dict()
        payload.pop("name")
        payload.pop("out_dir")
        return hashlib.sha256(dumps_canonical(payload).encode()).hexdigest()


def load_scenario(source: str | dict) -> Scenario:
    """Parse and cross-validate a scenario document or file.

    Relative robot file references resolve against the scenario file's
    directory (or the working directory for in-memory documents).
    """
    base_dir = "."
    if isinstance(source, str):
        base_dir = os.path.dirname(os.path.abspath(source))
        try:
            with open(source) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot read scenario: {exc}") from exc
    else:
        data = source
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    reject_unknown(data, _SCENARIO_KEYS, "scenario")

    robot_ref = data.get("robot")
    if isinstance(robot_ref, str) and not os.path.isabs(robot_ref):
        robot_ref = os.path.join(base_dir, robot_ref)
    robot = load_robot(robot_ref)

    # a value of the wrong type surfaces as TypeError/ValueError from the
    # numeric conversions; it is a bad scenario like any other
    try:
        scenario = Scenario(
            name=str(data.get("name", "scenario")),
            robot=robot,
            curve=load_path(data["path"]),
            n_stages=as_int(data["n_stages"], "n_stages"),
            grid=_grid_spec_from_dict(data["grid"]),
            limits=_limits_from_dict(data.get("limits", {"from_robot": list(ORDERS)}),
                                     robot),
            objective=str(data.get("objective", "time")),
            check_count=as_int(data.get("check_count", 0), "check_count"),
            window=_window_from_dict(data.get("window")),
            branches=(None if data.get("branches") is None
                      else tuple(data["branches"])),
            baseline=_baseline_from_dict(data.get("baseline")),
            out_dir=data.get("out_dir"),
            seed=as_int(data.get("seed", 0), "seed"),
        )
    except KeyError as exc:
        raise ScenarioError(f"scenario missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid scenario: {exc}") from exc
    # last, so that the structural errors (unknown or missing keys) come first
    reject_booleans(data, "scenario", allowed=("scenario.grid.rest_to_rest",))
    return scenario


def _bundled_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "scenarios")


def bundled_scenario_names() -> list:
    """Names of the scenario files shipped inside the package."""
    return sorted(os.path.splitext(f)[0] for f in os.listdir(_bundled_dir())
                  if f.endswith(".json"))


def bundled_scenario(name: str) -> Scenario:
    """Load a packaged scenario by name (see bundled_scenario_names)."""
    path = os.path.join(_bundled_dir(), name + ".json")
    if not os.path.isfile(path):
        raise ScenarioError(f"no bundled scenario {name!r}; "
                            f"available: {bundled_scenario_names()}")
    return load_scenario(path)


# --- reports ----------------------------------------------------------------


def _grid_statistics(grid: StateGrid) -> dict:
    return {
        "stages": int(grid.n_stages),
        "levels": int(grid.pv_values.size),
        "configurations": int(grid.cfg_count),
        "admissible_per_stage": grid.admissible_counts,
        "admissible_total": int(grid.total_admissible),
        "degenerate_cells": int(grid.degenerate.sum()),
    }


def _saturation_dict(sat: SaturationReport) -> dict:
    # per_order carries one ratio per waypoint; the report keeps the max over
    # the counted waypoints (first excluded, same rows the percentage uses)
    return {
        "percentage": float(sat.percentage),
        "per_order": {k: float(np.max(v[1:])) for k, v in sat.per_order.items()},
        "active_order": list(sat.active_order),
        "epsilon": float(sat.eps),
    }


def plan_report(scenario: Scenario, result: PlanResult) -> dict:
    profile = result.profile
    cap = result.grid.pv_values[-1]   # the top level: pv_levels * pv_step may miss pv_max
    return {
        "artifact": "plan",
        "scenario_name": scenario.name,
        "scenario_hash": scenario.hash(),
        "parameters": scenario.to_dict(),
        "grid": _grid_statistics(result.grid),
        "cost": float(result.cost),
        "pv_cap_touched": bool(np.any(profile.pv == cap)),
        "history_orders": list(result.history_orders),
        "check_count": int(result.check_count),
        "node_ids": [int(f) for f in result.node_ids],
        "reached_counts": result.reached.counts(),
        "saturation": _saturation_dict(result.saturation),
    }


def baseline_report(scenario: Scenario, joint_path: JointPath,
                    pinned: PlanResult, unified: PlanResult) -> dict:
    assert scenario.baseline is not None
    report = plan_report(scenario, pinned)
    gap = (pinned.cost - unified.cost) / unified.cost if unified.cost > 0 else 0.0
    report.update({
        "artifact": "baseline",
        "mode": ("pure pseudo-inverse" if scenario.baseline.alpha == 0.0
                 else "null-space descent"),
        "baseline_cost": float(pinned.cost),
        "unified_cost": float(unified.cost),
        "relative_gap": float(gap),
        "resolution": {
            "residual_max": float(joint_path.residuals.max()),
            "iterations_total": int(joint_path.iterations.sum()),
            "iterations_max": int(joint_path.iterations.max()),
            "step_norm_max": float(joint_path.step_norms.max())
            if joint_path.step_norms.size else 0.0,
            "branch_jump": bool(joint_path.branch_jump),
        },
    })
    return report


def verify_report(scenario: Scenario, gap) -> dict:
    out = {"artifact": "verify", "scenario_name": scenario.name,
           "scenario_hash": scenario.hash(), "parameters": scenario.to_dict()}
    out.update(gap.to_dict())
    return out


def run_meta(started: float, threads: int, argv: list | None = None) -> dict:
    """Nondeterministic sidecar: wall clock and machine identity, with the
    SIMD targets numpy runs on this CPU (some ufuncs' bits depend on them)."""
    try:
        from numpy._core import _multiarray_umath as umath      # numpy 2
    except ImportError:
        from numpy.core import _multiarray_umath as umath       # numpy 1.24-1.26
    return {
        "wall_clock_s": time.time() - started,
        "started_unix": started,
        "machine": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "simd": {"baseline": list(umath.__cpu_baseline__),
                 "found": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]},
        "threads": int(threads),
        "argv": list(argv) if argv is not None else list(sys.argv),
    }


# --- CSV exports -----------------------------------------------------------


def _csv(header: tuple, rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if x != x:
        return "nan"
    return _fmt_float(x)


def _joint_cols(prefix: str, n: int) -> tuple:
    return tuple(f"{prefix}{k + 1}" for k in range(n))


def trajectory_csv(profile: TrajectoryProfile) -> str:
    """Stage samples: t, positions, velocities, accelerations, jerks,
    torques, torque rates."""
    n = profile.q.shape[1]
    header = (TRAJECTORY_HEADER_BASE + _joint_cols("q", n) + _joint_cols("qd", n)
              + _joint_cols("qdd", n) + _joint_cols("qddd", n)
              + _joint_cols("tau", n) + _joint_cols("taud", n))
    rows = []
    for i in range(profile.n_stages + 1):
        rows.append((profile.t[i], *profile.q[i], *profile.qd[i],
                     *profile.qdd[i], *profile.qddd[i], *profile.tau[i],
                     *profile.taud[i]))
    return _csv(header, rows)


def pst_csv(result: PlanResult) -> str:
    """Phase-space samples: arc length, redundancy parameters, pseudo-velocity."""
    profile = result.profile
    idx = list(range(result.grid.robot.r))
    header = (PST_HEADER_BASE + tuple(f"v{k + 1}" for k in range(len(idx))) + ("pv",))
    rows = []
    for i in range(profile.n_stages + 1):
        rows.append((profile.lam[i], *profile.q[i, idx], profile.pv[i]))
    return _csv(header, rows)


def active_constraint_csv(result: PlanResult) -> str:
    """Per-stage binding-constraint timeline (first waypoint excluded)."""
    sat = result.saturation
    profile = result.profile
    header = ("stage", "lam", "active_order", "ratio")
    rows = []
    for stage in range(1, len(sat.active_order)):
        order = sat.active_order[stage]
        rows.append((stage, profile.lam[stage], order if order else "",
                     sat.stage_ratio[stage]))
    return _csv(header, rows)


def joint_path_csv(path: WorkspacePath, joint_path: JointPath) -> str:
    """Resolved joint path: stage, arc length, joints, residual, iterations."""
    n = joint_path.q.shape[1]
    header = (("stage", "lam") + _joint_cols("q", n)
              + ("residual", "iterations", "step_norm"))
    rows = []
    for i in range(joint_path.n_stages + 1):
        step = joint_path.step_norms[i - 1] if i > 0 else 0.0
        rows.append((i, path.lam[i], *joint_path.q[i], joint_path.residuals[i],
                     int(joint_path.iterations[i]), step))
    return _csv(header, rows)


def sweep_csv(axis: str, rows: list) -> str:
    """Refinement-study table: one planner run per axis value."""
    header = ("axis", "value", "cost", "saturation_percent", "runtime_s")
    return _csv(header, [(axis, *row) for row in rows])


def resample_export(result: PlanResult, rate: float) -> str:
    """Dense trajectory CSV at a fixed sample rate.

    Joint positions are linear-in-time interpolations of the stage samples
    and velocities are recomputed by backward differences, so the export is
    piecewise linear (not smooth); the header's `linear` marker says so.
    """
    # written as "all ok" so that NaN fails the comparison
    if not 0.0 < rate < np.inf:
        raise ScenarioError("sample rate must be positive and finite")
    profile = result.profile
    T = float(profile.t[-1])
    count = np.floor(T * rate + 1e-9)
    if not count < np.iinfo(np.intp).max:         # checked before int(): it may be inf
        raise ScenarioError("sample rate gives more samples than an array index can address")
    t = np.arange(int(count) + 1) / rate
    if t[-1] < T:
        t = np.append(t, T)
    n = profile.q.shape[1]
    q = np.column_stack([np.interp(t, profile.t, profile.q[:, k]) for k in range(n)])
    qd = np.empty_like(q)
    qd[0] = profile.qd[0]
    if t.size > 1:
        qd[1:] = np.diff(q, axis=0) / np.diff(t)[:, None]
    header = (("t",) + _joint_cols("q", n)
              + tuple(f"qd{k + 1}_linear" for k in range(n)))
    rows = [(t[i], *q[i], *qd[i]) for i in range(t.size)]
    return _csv(header, rows)
