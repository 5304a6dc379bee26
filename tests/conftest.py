from __future__ import annotations

import itertools

import numpy as np
import pytest

from redplan.constraints import evaluate_edge, initial_state
from redplan.errors import InfeasibleEdge
from redplan.robot import DynamicParams, JointLimits, PlanarArm


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
            q_table[i, c] = arm.inverse_kinematics(path.waypoints[i], np.array([v]), 0)
    span = max(v_values) - min(v_values)
    spec = GridSpec(pv_max=pv_max, pv_levels=pv_levels, v_min=[min(v_values)],
                    v_max=[max(v_values)], v_step=[span if span > 0 else 1.0],
                    rest_to_rest=rest)
    return grid_from_configurations(arm, path, q_table, spec)


def enumerate_chains(grid, limits, check_count=0):
    """Exhaustive scoring of every admissible node chain (oracle).

    Returns (best_cost, best_chain, n_feasible); ties keep the first chain
    in product order.
    """
    n = grid.n_stages
    C = grid.cfg_count
    stage_ids = [grid.stage_ids(i) for i in range(n + 1)]
    if grid.spec.rest_to_rest:
        stage_ids[n] = stage_ids[n][stage_ids[n] < C]
    best_cost, best_chain, feasible = np.inf, None, 0
    for chain in itertools.product(*stage_ids):
        state = initial_state(grid.robot, grid.q_table[0, chain[0] % C],
                              float(grid.pv_values[chain[0] // C]))
        cost = 0.0
        ok = True
        for i in range(1, n + 1):
            f = chain[i]
            try:
                ev = evaluate_edge(grid.robot, limits, grid.path.dlam, state,
                                   grid.q_table[i, f % C], float(grid.pv_values[f // C]),
                                   check_count=check_count)
            except InfeasibleEdge:
                ok = False
                break
            if not ev.feasible:
                ok = False
                break
            cost = cost + ev.dt
            state = ev.next_state(grid.q_table[i, f % C], float(grid.pv_values[f // C]))
        if ok:
            feasible += 1
            if cost < best_cost:
                best_cost, best_chain = cost, chain
    return best_cost, best_chain, feasible


def feasible_prefixes(grid, limits, check_count=0):
    """Every feasible chain prefix, per stage, as a list of node-id tuples.

    Each feasible prefix is extended by every admissible node of the next
    stage through the scalar engine, with the prefix's own history.
    """
    C = grid.cfg_count

    def node_state(i, f):
        return grid.q_table[i, f % C], float(grid.pv_values[f // C])

    layer = {(int(f),): initial_state(grid.robot, *node_state(0, f))
             for f in grid.stage_ids(0)}
    layers = [list(layer)]
    for i in range(1, grid.n_stages + 1):
        extended = {}
        for prefix, state in layer.items():
            for f in grid.stage_ids(i):
                q, pv = node_state(i, f)
                try:
                    ev = evaluate_edge(grid.robot, limits, grid.path.dlam, state, q, pv,
                                       check_count=check_count)
                except InfeasibleEdge:
                    continue
                if ev.feasible:
                    extended[prefix + (int(f),)] = ev.next_state(q, pv)
        layer = extended
        layers.append(list(layer))
    return layers
