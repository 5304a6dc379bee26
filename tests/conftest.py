from __future__ import annotations

import itertools

import numpy as np
import pytest

from redplan.constraints import (initial_samples, lane_screen, stage_transitions,
                                 velocity_screens)
from redplan.errors import PlanningError
from redplan.robot import (_DEGENERATE_TOL, _REACH_TOL, DynamicParams, JointLimits,
                           PlanarArm, _wrap_angle)


class Unreachable(PlanningError):
    """The task point cannot be reached for the given redundancy values."""


class BranchDegenerate(PlanningError):
    """The IK branches coincide; the solution exists only in branch 0."""


def inverse_kinematics(arm: PlanarArm, x, v, g: int):
    """Joint vector with the redundancy joints pinned to v, on branch g: the
    scalar reference for PlanarArm.ik_table, one query at a time.

    Raises:
        Unreachable: the distal subchain cannot reach x for this v.
        BranchDegenerate: the branches coincide and g is not 0 (the
            coincident solution is reported only on branch 0).
    """
    assert 0 <= int(g) < arm.branch_count
    x = np.asarray(x, dtype=float)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    wx, wy, ce, base = arm._distal_geometry(x, v)
    ce = float(ce)
    if ce > 1.0 + _REACH_TOL or ce < -1.0 - _REACH_TOL:
        raise Unreachable(f"distal subchain cannot reach target (cos elbow = {ce:.6g})")
    ce_c = min(1.0, max(-1.0, ce))
    if (1.0 - abs(ce_c)) <= _DEGENERATE_TOL and int(g) != 0:
        raise BranchDegenerate("IK branches coincide; solution reported on branch 0")
    gamma = float(np.arccos(ce_c))
    q_elbow = gamma if int(g) == 0 else -gamma
    l2, l3 = arm.link_lengths[-2], arm.link_lengths[-1]
    phi = float(np.arctan2(wy, wx))
    psi = float(np.arctan2(l3 * np.sin(q_elbow), l2 + l3 * np.cos(q_elbow)))
    q_pen = float(_wrap_angle(phi - psi - float(base)))
    return np.concatenate([v, [q_pen, q_elbow]])


def inverse_dynamics(robot: PlanarArm, q, qd, qdd):
    """tau = H(q) qdd + f(q, qd) through the engine's two parts."""
    return robot.torque(robot.rigid_terms(q), qd, qdd)


def make_reference_arm(coulomb=(0.2, 0.15, 0.1), gravity=(0.0, -9.81)) -> PlanarArm:
    """Desk-scale planar 3R arm used throughout the suite."""
    limits = JointLimits(
        q_min=np.array([-2.9, -2.9, -2.9]),
        q_max=np.array([2.9, 2.9, 2.9]),
        qd_max=np.array([2.175, 2.175, 2.61]),
        qdd_max=np.array([12.0, 10.0, 14.0]),
        qddd_max=np.array([150.0, 120.0, 180.0]),
        tau_max=np.array([50.0, 25.0, 8.0]),
        taud_max=np.array([400.0, 250.0, 90.0]),
    )
    dynamics = DynamicParams(
        mass=np.array([2.0, 1.5, 1.0]),
        com=np.array([0.25, 0.2, 0.15]),
        inertia=np.array([2.0 * 0.5**2 / 12.0, 1.5 * 0.4**2 / 12.0, 1.0 * 0.3**2 / 12.0]),
        viscous=np.array([0.15, 0.10, 0.08]),
        coulomb=np.array(coulomb, dtype=float),
        gravity=np.array(gravity, dtype=float),
    )
    return PlanarArm((0.5, 0.4, 0.3), limits, dynamics)


def make_unit_arm() -> PlanarArm:
    """Planar 3R with unit links, matching the worked kinematics examples."""
    limits = JointLimits(
        q_min=np.full(3, -3.1), q_max=np.full(3, 3.1),
        qd_max=np.full(3, 2.0), qdd_max=np.full(3, 10.0), qddd_max=np.full(3, 100.0),
        tau_max=np.full(3, 100.0), taud_max=np.full(3, 1000.0),
    )
    dynamics = DynamicParams(
        mass=np.ones(3), com=np.full(3, 0.5), inertia=np.full(3, 1.0 / 12.0),
        viscous=np.zeros(3), coulomb=np.zeros(3), gravity=np.array([0.0, -9.81]),
    )
    return PlanarArm((1.0, 1.0, 1.0), limits, dynamics)


@pytest.fixture
def arm() -> PlanarArm:
    return make_reference_arm()


@pytest.fixture
def unit_arm() -> PlanarArm:
    return make_unit_arm()


def make_line_path(n_stages, p0=(0.5, 0.2), p1=(0.5, -0.2)):
    from redplan.path import CurveSpec, sample_path
    return sample_path(CurveSpec(kind="line", start=tuple(p0), end=tuple(p1)), n_stages)


def make_inf_limits(n=3):
    from redplan.constraints import LimitSets
    inf = np.full(n, np.inf)
    return LimitSets(qd=inf, qdd=inf, qddd=inf, tau=inf, taud=inf)


def make_toy_grid(n_stages=2, pv_levels=2, rest=True, v_values=(0.7, 1.0), pv_max=1.0):
    """Small real-dynamics grid: len(v_values) cells per stage, 1 branch."""
    from redplan.grid import GridSpec, grid_from_configurations
    arm = make_reference_arm()
    path = make_line_path(n_stages)
    q_table = np.zeros((n_stages + 1, len(v_values), 3))
    for i in range(n_stages + 1):
        for c, v in enumerate(v_values):
            q_table[i, c] = inverse_kinematics(arm, path.waypoints[i], np.array([v]), 0)
    span = max(v_values) - min(v_values)
    spec = GridSpec(pv_max=pv_max, pv_levels=pv_levels, v_min=[min(v_values)],
                    v_max=[max(v_values)], v_step=[span if span > 0 else 1.0],
                    rest_to_rest=rest)
    return grid_from_configurations(arm, path, q_table, spec)


def start_state(robot, q, pv):
    """(q, pv, qd, qdd, tau) of a stage-0 node, from initial_samples."""
    q = np.asarray(q, dtype=float)
    qd, qdd, tau = initial_samples(robot, robot.rigid_terms(q[None]), np.array([pv]))
    return q, float(pv), qd[0], qdd[0], tau[0]


def holds(limits, state):
    """True when a stage-0 node's samples meet every enabled bound: a rest
    start must hold still; a moving start's NaN samples pass."""
    _, _, *samples = state
    return all(not np.any(np.abs(value) > limits.bound(order))
               for order, value in zip(("qd", "qdd", "tau"), samples)
               if limits.bound(order) is not None)


def edge(robot, limits, dlam, state, q_next, pv_next, check_count=0):
    """One edge through the engine, as the 1 x 1 x 1 case of stage_transitions.

    state is (q, pv, qd, qdd, tau) of the node the edge leaves. Returns the
    StageEval and the next node's state, None unless the edge is feasible.
    """
    q, pv, qd, qdd, tau = state
    q_next = np.asarray(q_next, dtype=float)
    ev = stage_transitions(robot, limits, dlam, q[None], np.array([pv]), qd[None],
                           qdd[None], tau[None], q_next[None],
                           robot.rigid_terms(q_next[None]), np.array([pv_next]),
                           check_count=check_count)
    if not ev.ok.any():                     # no lane, or one infeasible lane
        return ev, None
    return ev, (q_next, float(pv_next), ev.qd[0], ev.qdd[0], ev.tau[0])


def transitions(robot, limits, dlam, q_prev, pv_prev, qd_prev, qdd_prev, tau_prev, q_next,
                terms_next, pv_next, check_count=0, candidates=None):
    """stage_transitions with candidates also an (L, C) mask that every row
    shares, screened by velocity_screens, or a sorted array of lane ids,
    screened by lane_screen."""
    if isinstance(candidates, np.ndarray):
        args = (robot, limits, dlam, q_prev, pv_prev, q_next, terms_next, pv_next, candidates)
        if candidates.ndim == 1:
            candidates = lane_screen(*args)
        else:
            (_, candidates), = velocity_screens(*args)
    return stage_transitions(robot, limits, dlam, q_prev, pv_prev, qd_prev, qdd_prev, tau_prev,
                             q_next, terms_next, pv_next, check_count=check_count,
                             candidates=candidates)


def node_state(grid, i, f):
    """(q, pv) of node f at stage i."""
    return grid.q_table[i, f % grid.cfg_count], float(grid.pv_values[f // grid.cfg_count])


def feasible_chains(grid, limits, check_count=0):
    """Every feasible admissible node chain with its cost, in product order."""
    n = grid.n_stages
    C = grid.cfg_count
    stage_ids = [grid.stage_ids(i) for i in range(n + 1)]
    if grid.spec.rest_to_rest:
        stage_ids[n] = stage_ids[n][stage_ids[n] < C]
    for chain in itertools.product(*stage_ids):
        state = start_state(grid.robot, *node_state(grid, 0, chain[0]))
        if not holds(limits, state):
            continue
        cost = 0.0
        for i in range(1, n + 1):
            ev, state = edge(grid.robot, limits, grid.path.dlam, state,
                             *node_state(grid, i, chain[i]), check_count=check_count)
            if state is None:
                break
            cost = cost + float(ev.dt[0, 0])
        else:
            yield chain, cost


def enumerate_chains(grid, limits, check_count=0):
    """Exhaustive scoring of every admissible node chain (oracle).

    Returns (best_cost, best_chain, n_feasible); ties keep the first chain
    in product order.
    """
    best_cost, best_chain, feasible = np.inf, None, 0
    for chain, cost in feasible_chains(grid, limits, check_count):
        feasible += 1
        if cost < best_cost:
            best_cost, best_chain = cost, chain
    return best_cost, best_chain, feasible


def sweep_record(grid, limits, check_count=0, window=None, depth=0):
    """What planner._sweep records, as plain lists: (labels, None, None)
    with labels[i] the (node, pred, cost) lists of stage i, or (None,
    deepest stage, histogram) from its NoFeasiblePlan. A tuple of depths is
    one sweep over them all, and labels then holds each search's."""
    from redplan import planner
    from redplan.errors import NoFeasiblePlan
    depths = depth if isinstance(depth, tuple) else (depth,)
    try:
        values = planner._sweep(grid, limits, check_count, window, depths)
    except NoFeasiblePlan as exc:
        return None, exc.deepest_stage, exc.violation_histogram
    labels = [[tuple(a.tolist() for a in stage) for stage in zip(value.node, value.pred,
                                                                  value.cost)]
              for value in values]
    return labels if isinstance(depth, tuple) else labels[0], None, None


def sweep_blocks(monkeypatch, grid, budgets, *args):
    """sweep_record(grid, *args) with planner.LANE_BUDGET and SCREEN_BUDGET
    set to budgets, and how the sweep cut its stages: (record, log).
    log["calls"] holds (rows, evaluated lanes) of each engine call,
    log["screens"] the (groups, box entries per group: the levels the mask
    uses times cells) of each screen chunk, per stage, and log["split"]
    counts the blocks that start inside a screen group."""
    from redplan import constraints, planner
    log = {"calls": [], "screens": [], "split": 0}
    engine, screens, rows = (planner.stage_transitions, planner.velocity_screens,
                             constraints.Screen.rows)

    def engine_spy(*args, **kwargs):
        ev = engine(*args, **kwargs)
        log["calls"].append((args[3].shape[0], ev.lanes.size))
        return ev

    def screens_spy(*args, **kwargs):
        log["screens"].append([])
        mask = args[8]
        box = np.count_nonzero(mask.any(axis=1)) * mask.shape[1]
        for at, screen in screens(*args, **kwargs):
            log["screens"][-1].append((int(screen.group[-1]) + 1, int(box)))
            yield at, screen

    def rows_spy(screen, a, b):
        log["split"] += bool(a > 0 and screen.group[a] == screen.group[a - 1])
        return rows(screen, a, b)

    with monkeypatch.context() as patch:
        patch.setattr(planner, "LANE_BUDGET", budgets[0])
        patch.setattr(planner, "SCREEN_BUDGET", budgets[1])
        patch.setattr(planner, "stage_transitions", engine_spy)
        patch.setattr(planner, "velocity_screens", screens_spy)
        patch.setattr(constraints.Screen, "rows", rows_spy)
        return sweep_record(grid, *args), log


def feasible_prefixes(grid, limits, check_count=0):
    """Every feasible chain prefix, per stage, as a list of node-id tuples.

    A stage-0 node is a feasible prefix when its samples hold. Each feasible
    prefix is extended by every admissible node of the next stage, one edge
    at a time, with the prefix's own history.
    """
    starts = {(int(f),): start_state(grid.robot, *node_state(grid, 0, f))
              for f in grid.stage_ids(0)}
    layer = {prefix: state for prefix, state in starts.items() if holds(limits, state)}
    layers = [list(layer)]
    for i in range(1, grid.n_stages + 1):
        extended = {}
        for prefix, state in layer.items():
            for f in grid.stage_ids(i):
                _, after = edge(grid.robot, limits, grid.path.dlam, state,
                                *node_state(grid, i, f), check_count=check_count)
                if after is not None:
                    extended[prefix + (int(f),)] = after
        layer = extended
        layers.append(list(layer))
    return layers
