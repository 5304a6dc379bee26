"""Acceptance gate: one test per shipped guarantee, in order.

Each test prints a single `acceptance N <name>: PASS/FAIL` line (shown
under -s/-rA, and always on failure) and enforces its runtime budget
inside the test body. Numeric pins are bit-exact values from the first
verified run; determinism is gate 8, so a drifted pin means behavior
changed, not noise.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_reference_arm, make_toy_grid
from test_robot import potential_energy, random_joint_vectors

from redplan.baseline import baseline_plan
from redplan.cli import main as cli_main
from redplan.constraints import LimitSets, evaluate_edge, initial_state
from redplan.errors import NoFeasiblePlan, PlanningError
from redplan.oracle import compare, exhaustive_plan
from redplan.planner import plan
from redplan.scenario import _bundled_dir, bundled_scenario

import os


def criterion(name, budget=None):
    """Emit one `<name>: PASS/FAIL` line per criterion and hold the budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"{name}: FAIL")
                raise
            elapsed = time.perf_counter() - tick
            if budget is not None and elapsed >= budget:
                print(f"{name}: FAIL (runtime {elapsed:.1f}s, budget {budget:.0f}s)")
                raise AssertionError(f"{name} exceeded its {budget:.0f}s budget")
            extra = f"{detail}; " if detail else ""
            print(f"{name}: PASS ({extra}{elapsed:.1f}s)")

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# shared instances (module-level caches keep the work inside the timed tests)


def _toy_instances(count=20, seed=2026):
    """Randomized toy grids, rejection-sampled until `count` of them are
    enumerable (small chain product) and feasible under their velocity caps.

    Each entry is (grid, velocity-only limits, all-five-orders limits); the
    two limit sets share the same qd caps so gates 1 and 2 run on the same
    instances.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n_stages = int(rng.integers(2, 6))
        pv_levels = int(rng.integers(1, 4))
        pv_max = float(rng.uniform(0.5, 1.1))
        n_v = int(rng.integers(1, 4))
        v_lo = float(rng.uniform(0.6, 0.8))
        v_values = tuple(v_lo + 0.15 * k for k in range(n_v))
        rest = bool(rng.random() < 0.7)
        qd = rng.uniform(2.5, 4.0, 3)
        full = LimitSets(qd=qd, qdd=rng.uniform(25.0, 60.0, 3),
                         qddd=rng.uniform(300.0, 900.0, 3),
                         tau=rng.uniform(45.0, 80.0, 3),
                         taud=rng.uniform(1500.0, 4000.0, 3))
        try:
            grid = make_toy_grid(n_stages=n_stages, pv_levels=pv_levels,
                                 rest=rest, v_values=v_values, pv_max=pv_max)
        except PlanningError:
            continue
        sizes = grid.admissible_counts
        if grid.total_admissible > 10_000 or math.prod(sizes) > 5_000:
            continue
        try:
            plan(grid, LimitSets(qd=qd))
        except NoFeasiblePlan:
            continue
        out.append((grid, LimitSets(qd=qd), full))
    return out


@pytest.fixture(scope="module")
def toys():
    return _toy_instances()


_RUNS = {}


def _scenario_runs(name):
    """Paired two-stage and unified results for a bundled scenario, cached."""
    if name not in _RUNS:
        sc = bundled_scenario(name)
        _, pinned = baseline_plan(sc.robot, sc.sample(), sc.baseline, sc.limits,
                                  sc.grid, check_count=sc.check_count)
        unified = plan(sc.build(), sc.limits, check_count=sc.check_count,
                       window=sc.window)
        _RUNS[name] = (sc, pinned, unified)
    return _RUNS[name]


def _toy_scenario_plan(name):
    sc = bundled_scenario(name)
    grid = sc.build()
    dp = plan(grid, sc.limits, check_count=sc.check_count)
    oracle = exhaustive_plan(grid, sc.limits, check_count=sc.check_count)
    return dp, oracle


def _replay(result):
    """Re-check an emitted plan edge by edge; returns the re-accumulated cost."""
    grid = result.grid
    C = grid.cfg_count
    ids = result.node_ids
    q0 = grid.q_table[0, int(ids[0]) % C]
    state = initial_state(grid.robot, q0, float(grid.pv_values[int(ids[0]) // C]))
    total = 0.0
    for i in range(1, grid.n_stages + 1):
        f = int(ids[i])
        q_next = grid.q_table[i, f % C]
        pv_next = float(grid.pv_values[f // C])
        ev = evaluate_edge(grid.robot, result.limits, grid.path.dlam, state,
                           q_next, pv_next, check_count=result.check_count)
        assert ev.feasible, ev.violations
        total = total + ev.dt
        state = ev.next_state(q_next, pv_next)
    return total


# ---------------------------------------------------------------------------
# the gate


@criterion("acceptance 1 oracle exactness", budget=60.0)
def test_1_oracle_exactness(toys):
    # velocity-only search has no history dependence, so the stage DP must
    # reproduce the enumeration cost bit for bit (same duration arithmetic)
    for grid, qd_only, _ in toys:
        dp = plan(grid, qd_only)
        oracle = exhaustive_plan(grid, qd_only)
        assert dp.cost == oracle.cost
        assert compare(dp, oracle).gap == 0.0
    return f"{len(toys)} random velocity-only grids, bit-level cost equality"


@criterion("acceptance 2 conservatism", budget=300.0)
def test_2_conservatism(toys):
    gaps = []
    safe_misses = 0
    for grid, _, full in toys:
        try:
            dp = plan(grid, full)
        except NoFeasiblePlan:
            dp = None
        try:
            oracle = exhaustive_plan(grid, full)
        except NoFeasiblePlan:
            oracle = None
        if dp is None:
            # pinned-history pruning may only err on the safe side
            safe_misses += oracle is not None
            continue
        assert oracle is not None, "DP found a plan the enumeration missed"
        rep = compare(dp, oracle)  # raises ContractViolation on dp < oracle
        assert rep.gap >= 0.0
        gaps.append(rep.relative_gap)

    for name in ("toy_velocity", "toy_full"):
        dp, oracle = _toy_scenario_plan(name)
        assert compare(dp, oracle).gap == 0.0

    dp, oracle = _toy_scenario_plan("toy_jerk")
    rep = compare(dp, oracle)
    assert rep.gap > 0.0
    assert rep.gap == 0.2666666666666666  # pinned adversarial instance
    assert rep.attribution["qddd"] == rep.gap
    return (f"max relative gap {max(gaps, default=0.0):.3g} over {len(gaps)} "
            f"feasible grids ({safe_misses} conservatively infeasible), "
            f"adversarial jerk gap {rep.gap:.10g}")


@criterion("acceptance 3 nested-grid monotonicity", budget=600.0)
def test_3_nested_refinement_never_increases_cost():
    # halved v lattices are nested, so every coarse chain survives refinement
    # and the refined optimum can only match or beat it: tolerance zero
    sc = bundled_scenario("line")
    qd_only = LimitSets(qd=np.asarray(sc.robot.limits.qd_max, dtype=float))
    costs = []
    for step in (0.1, 0.05, 0.025):
        variant = replace(sc, grid=replace(sc.grid, v_step=[step]))
        costs.append(plan(variant.build(), qd_only).cost)
    assert costs[1] <= costs[0]
    assert costs[2] <= costs[1]
    return "costs " + " >= ".join(f"{c:.12g}" for c in costs)


@criterion("acceptance 4 two-stage dominance", budget=900.0)
def test_4_baseline_never_beats_unified():
    pins = {
        "line": (0.6811343418486278, 1.0155573593073597, 0.49097952769653863),
        "ellipse": (2.256789291904326, 2.7536970259016083, 0.22018348623853187),
    }
    details = []
    for name, (unified_pin, baseline_pin, gap_pin) in pins.items():
        sc, pinned, unified = _scenario_runs(name)
        assert pinned.cost >= unified.cost
        gap = (pinned.cost - unified.cost) / unified.cost
        assert unified.cost == unified_pin
        assert pinned.cost == baseline_pin
        assert gap == gap_pin
        details.append(f"{name} +{100 * gap:.1f}%")
    return "two-stage slower by " + ", ".join(details)


@criterion("acceptance 5 feasibility replay")
def test_5_replay_every_emitted_trajectory(toys):
    results = []
    for name in ("line", "ellipse"):
        _, pinned, unified = _scenario_runs(name)
        results += [pinned, unified]
    for name in ("toy_velocity", "toy_full", "toy_jerk"):
        results.append(_toy_scenario_plan(name)[0])
    for grid, qd_only, _ in toys:
        results.append(plan(grid, qd_only))

    for result in results:
        assert _replay(result) == result.cost  # exact left-fold equality
        if result.grid.spec.rest_to_rest:
            assert result.profile.pv[0] == 0.0
            assert result.profile.pv[-1] == 0.0
    return f"{len(results)} trajectories re-checked edge by edge"


@criterion("acceptance 6 saturation on the line plan")
def test_6_line_plan_saturation():
    _, _, unified = _scenario_runs("line")
    sat = unified.saturation
    assert sat.percentage >= 50.0
    assert sat.percentage == 70.0  # pinned
    return f"{sat.percentage:.1f}% of counted waypoints within 1e-3 of a bound"


@criterion("acceptance 7 numerical kernels", budget=30.0)
def test_7_numerical_kernels():
    arm = make_reference_arm()
    rng = np.random.default_rng(7)
    qs = random_joint_vectors(arm, 1000, rng)

    for q in qs:
        x = arm.forward_kinematics(q)
        g = 0 if q[2] >= 0.0 else 1
        assert np.max(np.abs(arm.inverse_kinematics(x, q[:1], g) - q)) < 1e-10

    h = 1e-6
    for q in qs[:200]:
        J = arm.jacobian(q)
        delta = rng.standard_normal(3)
        fd = (arm.forward_kinematics(q + h * delta)
              - arm.forward_kinematics(q - h * delta)) / (2 * h)
        assert np.max(np.abs(J @ delta - fd)) < 1e-6

    for q in qs[:200]:
        tau = arm.inverse_dynamics(q, np.zeros(3), np.zeros(3))
        grad = np.array([
            (potential_energy(arm, q + h * e) - potential_energy(arm, q - h * e)) / (2 * h)
            for e in np.eye(3)
        ])
        assert np.max(np.abs(tau - grad)) < 1e-6

    H = arm.inertia_matrix(qs)
    assert np.array_equal(H, np.swapaxes(H, -1, -2))
    assert np.linalg.eigvalsh(H).min() > 0.0
    return ("1000-pose IK round trip, 200-point Jacobian and gravity checks, "
            "1000 SPD inertia matrices")


@criterion("acceptance 8 thread-count determinism")
def test_8_reports_bit_identical_across_threads(tmp_path):
    jobs = (("plan", "line"), ("baseline", "line"), ("verify", "toy_jerk"))
    for sub, name in jobs:
        outs = {}
        scenario = os.path.join(_bundled_dir(), name + ".json")
        for threads in (1, 8):
            out = tmp_path / f"{sub}-{threads}"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main([sub, "--scenario", scenario,
                               "--out", str(out), "--threads", str(threads)])
            assert rc == 0
            outs[threads] = out
        files = sorted(p.name for p in outs[1].iterdir())
        assert files == sorted(p.name for p in outs[8].iterdir())
        for fname in files:
            if fname == "run_meta.json":
                continue  # carries wall-clock timing
            assert (outs[1] / fname).read_bytes() == (outs[8] / fname).read_bytes()
    return "plan, baseline, and verify artifacts byte-equal at 1 and 8 threads"
