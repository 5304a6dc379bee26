"""Seeded scenario generator for the redplan benchmark.

Each workload is one redplan CLI subcommand run on one generated scenario
file. The seed moves the task-space path rigidly by at most SHIFT_M metres
(line endpoints together, ellipse centre), which keeps every job feasible
and its size nearly constant while giving each seed its own inputs. The
scenario documents are spelled out here instead of read from the bundled
examples, so retuning an example never changes the benchmark's inputs.

This module imports only the standard library: it runs in the set-up
probes before anything else is imported.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
SHIFT_M = 0.02

_ROBOT = {
    "type": "planar",
    "link_lengths": [0.5, 0.4, 0.3],
    "task_dim": 2,
    "redundancy_indices": [0],
    "limits": {
        "q_min": [-2.9, -2.9, -2.9],
        "q_max": [2.9, 2.9, 2.9],
        "qd_max": [2.175, 2.175, 2.61],
        "qdd_max": [12.0, 10.0, 14.0],
        "qddd_max": [150.0, 120.0, 180.0],
        "tau_max": [50.0, 25.0, 8.0],
        "taud_max": [400.0, 250.0, 90.0],
    },
    "dynamics": {
        "mass": [2.0, 1.5, 1.0],
        "com": [0.25, 0.2, 0.15],
        "inertia": [0.041666666666666664, 0.020000000000000004, 0.0075],
        "viscous": [0.15, 0.1, 0.08],
        "coulomb": [0.2, 0.15, 0.1],
        "gravity": [0.0, -9.81],
    },
}

# the bundled `line` limits: every order binds somewhere on the line
_LINE_LIMITS = {
    "qd": [1.3066666666666678, 1.4344625345063533, 2.0138754741399287],
    "qdd": [11.498666666666674, 9.448717011201758, 10.888542587641469],
    "qddd": [85.85671111111176, 119.35322471164301, 116.65798537409859],
    "tau": [31.915399773278814, 6.907800853458868, 1.4582760559803467],
    "taud": [115.11669267732502, 41.30249174651382, 6.674873575418428],
}

_INF3 = [math.inf] * 3


def _shift(seed: int) -> tuple[float, float]:
    rng = random.Random(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    radius = SHIFT_M * rng.random()
    return radius * math.cos(angle), radius * math.sin(angle)


def _moved(point, offset):
    return [point[0] + offset[0], point[1] + offset[1]]


def _plan_dense(offset, smoke: bool) -> dict:
    # the bundled `line` scaled to 20 stages, 34 cells and 21 levels: the
    # planner's bulk-vector case, about 10M edges per job
    return {
        "name": "plan-dense",
        "robot": _ROBOT,
        "path": {"kind": "line", "start": _moved([0.55, 0.25], offset),
                 "end": _moved([0.55, -0.25], offset)},
        "n_stages": 6 if smoke else 20,
        "grid": {"pv_max": 1.4, "pv_levels": 8 if smoke else 20,
                 "v_min": [0.5], "v_max": [0.9],
                 "v_step": [0.1 if smoke else 0.025], "rest_to_rest": True},
        "limits": _LINE_LIMITS,
        "seed": 0,
    }


def _baseline_ellipse(offset, smoke: bool) -> dict:
    # the bundled `ellipse`, baseline block included; no smaller instance:
    # fewer stages leave some seeds short of baseline convergence, fewer
    # levels leave no feasible plan
    return {
        "name": "baseline-ellipse",
        "robot": _ROBOT,
        "path": {"kind": "ellipse", "center": _moved([0.42, 0.0], offset),
                 "semi_axes": [0.2, 0.13]},
        "n_stages": 48,
        "grid": {"pv_max": 1.6, "pv_levels": 13,
                 "v_min": [0.5], "v_max": [1.2], "v_step": [0.1],
                 "rest_to_rest": True},
        "limits": {"from_robot": ["qd", "qdd", "qddd", "tau", "taud"]},
        "baseline": {"q0": [0.5, -2.2643859186282604, 2.298854820448434]},
        "seed": 0,
    }


def _verify_oracle(offset, smoke: bool) -> dict:
    # the bundled `toy_jerk` scaled to 4 stages and 6 cells: its DP gap is
    # positive, so compare re-runs both searches for the attribution
    return {
        "name": "verify-oracle",
        "robot": _ROBOT,
        "path": {"kind": "line", "start": _moved([0.5, 0.2], offset),
                 "end": _moved([0.5, -0.2], offset)},
        "n_stages": 3 if smoke else 4,
        "grid": {"pv_max": 1.0, "pv_levels": 2, "v_min": [0.7], "v_max": [1.0],
                 "v_step": [0.3 if smoke else 0.15], "rest_to_rest": True},
        "limits": {"qd": _INF3, "qdd": _INF3, "qddd": [100.0] * 3,
                   "tau": _INF3, "taud": _INF3},
        "branches": [0],
        "seed": 0,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # redplan subcommand
    report: str         # deterministic report the subcommand writes
    build: object       # (offset, smoke) -> scenario document


WORKLOADS = {w.name: w for w in (
    Workload("plan-dense", "plan", "report.json", _plan_dense),
    Workload("baseline-ellipse", "baseline", "baseline_report.json",
             _baseline_ellipse),
    Workload("verify-oracle", "verify", "gap_report.json", _verify_oracle),
)}


def write_scenario(workload: str, seed: int, smoke: bool, directory: str) -> str:
    """Write the workload's scenario file for this seed; return its path."""
    doc = WORKLOADS[workload].build(_shift(seed), smoke)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, workload + ".json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return path
