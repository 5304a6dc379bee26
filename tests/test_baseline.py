"""Two-stage baseline: redundancy resolution and fixed-path parametrization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (inverse_kinematics, make_inf_limits, make_line_path,
                      make_reference_arm)
from test_robot import transform_chain_fk

from redplan.baseline import (FD_STEP, RANK_TOL, JointPath, ResolutionConfig,
                              _cost_gradient, _linearize, _pseudo_inverses,
                              _row_offsets, resolve_redundancy, time_parametrize)
from redplan.constraints import LimitSets
from redplan.errors import NoConvergence, ScenarioError, SingularJacobian
from redplan.grid import GridSpec, StateGrid, build_grid, grid_from_configurations
from redplan.planner import plan

RNG = np.random.default_rng(7)


def interior_config(arm, rng):
    """Random configuration with a comfortably conditioned Jacobian."""
    while True:
        q = rng.uniform(-1.8, 1.8, 3)
        s = np.linalg.svd(arm._kinematics(q)[0], compute_uv=False)
        if s[-1] > 0.05 * s[0]:
            return q


def start_config(arm, path):
    return inverse_kinematics(arm, path.waypoints[0], np.array([0.8]), 0)


def unified_spec(rest=True, pv_levels=4):
    return GridSpec(pv_max=1.0, pv_levels=pv_levels, v_min=[0.6], v_max=[1.1],
                    v_step=[0.25], rest_to_rest=rest)


# --- redundancy resolution ------------------------------------------------


def test_resolved_path_tracks_waypoints(arm):
    path = make_line_path(12)
    config = ResolutionConfig(q0=start_config(arm, path))
    jp = resolve_redundancy(arm, path, config)
    assert isinstance(jp, JointPath)
    assert jp.q.shape == (13, 3)
    # independent residual check through forward kinematics
    for i in range(13):
        err = np.linalg.norm(transform_chain_fk(arm, jp.q[i]) - path.waypoints[i])
        assert err < 1e-8
    assert np.all(jp.residuals < 1e-8)
    assert not jp.branch_jump
    assert np.all(jp.step_norms < 0.5)


def test_alpha_zero_is_pure_pseudo_inverse_tracking(arm):
    path = make_line_path(6)
    q0 = start_config(arm, path)
    config = ResolutionConfig(q0=q0, alpha=0.0)
    jp = resolve_redundancy(arm, path, config)

    # manual replay of the degenerate iteration, no null-space term
    q = q0.copy()
    expected = []
    for i in range(7):
        err = path.waypoints[i] - loop_position(arm, q)
        k = 0
        while np.linalg.norm(err) >= config.tolerance:
            assert k < config.max_iterations
            q = q + config.beta * (scalar_pinv(arm._kinematics(q)[0], 1e8) @ err)
            err = path.waypoints[i] - loop_position(arm, q)
            k += 1
        expected.append(q.copy())
    assert np.array_equal(jp.q, np.array(expected))


def test_null_space_descent_lowers_cost(arm):
    path = make_line_path(12)
    q0 = start_config(arm, path)
    jp_plain = resolve_redundancy(arm, path, ResolutionConfig(q0=q0, alpha=0.0))
    jp_desc = resolve_redundancy(arm, path, ResolutionConfig(
        q0=q0, alpha=1e-2, max_iterations=2000))
    t_end = np.array([0.0, -1.0])
    c_plain = scalar_cost(arm, jp_plain.q[-1], t_end, 1e8)
    c_desc = scalar_cost(arm, jp_desc.q[-1], t_end, 1e8)
    assert c_desc < c_plain


def test_no_convergence_reports_waypoint(arm):
    path = make_line_path(4)
    with pytest.raises(NoConvergence) as exc:
        resolve_redundancy(arm, path, ResolutionConfig(
            q0=np.array([2.0, 2.0, 2.0]), max_iterations=2))
    assert exc.value.waypoint == 0
    assert exc.value.residual > 0

    # converges at the start, then starves the later waypoints
    q0 = start_config(arm, path)
    with pytest.raises(NoConvergence) as exc:
        resolve_redundancy(arm, path, ResolutionConfig(q0=q0, max_iterations=1))
    assert exc.value.waypoint >= 1


def test_branch_jump_flag(arm):
    path = make_line_path(3)
    q0 = start_config(arm, path)
    jp = resolve_redundancy(arm, path, ResolutionConfig(q0=q0, step_cap=1e-3))
    assert jp.branch_jump
    assert np.any(jp.step_norms > 1e-3)


def test_config_validation():
    q0 = np.zeros(3)
    ResolutionConfig(q0=q0, alpha=0.0)
    with pytest.raises(ScenarioError):
        ResolutionConfig(q0=q0, alpha=-1e-4)
    with pytest.raises(ScenarioError):
        ResolutionConfig(q0=q0, beta=0.0)
    with pytest.raises(ScenarioError):
        ResolutionConfig(q0=q0, tolerance=0.0)
    with pytest.raises(ScenarioError):
        ResolutionConfig(q0=q0, max_iterations=0)


@pytest.mark.parametrize("field,value", [
    ("q0", [0.0, np.nan, 0.0]), ("q0", [np.inf, 0.0, 0.0]),
    ("alpha", np.nan), ("alpha", np.inf), ("beta", np.nan), ("beta", np.inf),
    ("tolerance", np.nan), ("tolerance", np.inf), ("max_iterations", np.nan),
    ("step_cap", np.nan), ("cond_cap", np.nan)])
def test_config_rejects_non_finite(field, value):
    kwargs = {"q0": np.zeros(3), field: value}
    with pytest.raises(ScenarioError):
        ResolutionConfig(**kwargs)


def test_config_infinite_caps_mean_no_cap():
    config = ResolutionConfig(q0=np.zeros(3), step_cap=np.inf, cond_cap=np.inf)
    assert config.step_cap == config.cond_cap == np.inf


# --- dynamic manipulability cost, as the gradient the iteration descends ---


def dense_cost(arm, q, t):
    """|| H(q) J(q)^+ t ||^2 with numpy's own pseudo-inverse."""
    w = arm.rigid_terms(q).H @ np.linalg.pinv(arm._kinematics(q)[0]) @ t
    return float(w @ w)


def test_cost_matches_dense_assembly(arm):
    for _ in range(25):
        q = interior_config(arm, RNG)
        t = RNG.standard_normal(2)
        t /= np.linalg.norm(t)
        step = FD_STEP * np.eye(3)
        dense = [(dense_cost(arm, q + e, t) - dense_cost(arm, q - e, t)) / (2 * FD_STEP)
                 for e in step]
        assert loop_gradient(arm, q, t, 1e8) == pytest.approx(dense, rel=1e-6, abs=1e-8)


def test_cost_scales_quadratically_with_inertia():
    arm = make_reference_arm()
    heavy = make_reference_arm()
    s = 3.0
    heavy = type(heavy)(heavy.link_lengths, heavy.limits, type(heavy.dynamics)(
        mass=heavy.dynamics.mass * s, com=heavy.dynamics.com,
        inertia=heavy.dynamics.inertia * s, viscous=heavy.dynamics.viscous,
        coulomb=heavy.dynamics.coulomb, gravity=heavy.dynamics.gravity))
    q = np.array([0.4, -0.7, 0.9])
    t = np.array([1.0, 0.0])
    g1 = loop_gradient(arm, q, t, 1e8)
    g2 = loop_gradient(heavy, q, t, 1e8)
    assert g2 == pytest.approx(s**2 * g1, rel=1e-6)


def test_null_space_term_lies_in_jacobian_kernel(arm):
    for _ in range(20):
        q = interior_config(arm, RNG)
        t = RNG.standard_normal(2)
        t /= np.linalg.norm(t)
        J = arm._kinematics(q)[0]
        J_pinv = _pseudo_inverses(J[None], 1e8)[0]
        term = (np.eye(3) - J_pinv @ J) @ loop_gradient(arm, q, t, 1e8)
        assert np.linalg.norm(J @ term) <= 1e-10 * max(1.0, np.linalg.norm(term))


# --- cost gradient ----------------------------------------------------------


GRADIENT_ARM = make_reference_arm()


def loop_gradient(arm, q, t, cond_cap):
    """The gradient as resolve_redundancy forms it, from the same helpers:
    one stack at q, its pseudo-inverses with J(q) in row 0 checked first,
    then the neighbour rows."""
    _, J, H = _linearize(arm, q, _row_offsets(arm.n, True))
    return _cost_gradient(H, _pseudo_inverses(J, cond_cap)[1:], t)


def scalar_pinv(J, cond_cap):
    """One 2-D SVD, the shared rank and condition checks, V diag(1/s) U^T."""
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
        raise SingularJacobian("Jacobian lost rank")
    if s[0] / s[-1] > cond_cap:
        raise SingularJacobian(
            f"Jacobian condition number {s[0] / s[-1]:.3g} exceeds cap {cond_cap:.3g}")
    return (Vt.T * (1.0 / s)) @ U.T


def scalar_cost(arm, q, t, cond_cap):
    """|| H(q) J(q)^+ t ||^2 with one unstacked call per quantity."""
    w = arm.rigid_terms(q).H @ scalar_pinv(arm._kinematics(q)[0], cond_cap) @ t
    return w @ w


def scalar_gradient(arm, q, t, cond_cap):
    """The definition: central differences of the scalar cost, joint by
    joint, after the check of J(q) that the iteration makes first."""
    scalar_pinv(arm._kinematics(q)[0], cond_cap)
    grad = np.empty(arm.n)
    for j in range(arm.n):
        step = np.zeros(arm.n)
        step[j] = FD_STEP
        grad[j] = (scalar_cost(arm, q + step, t, cond_cap)
                   - scalar_cost(arm, q - step, t, cond_cap)) / (2 * FD_STEP)
    return grad


def gradient_outcome(gradient, q, t, cond_cap):
    """The gradient's bit patterns, or the type and message of what it raised."""
    try:
        return gradient(GRADIENT_ARM, q, t, cond_cap).view(np.int64).tolist()
    except (SingularJacobian, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(q=st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
       heading=st.floats(0.0, 2 * np.pi),
       cond_cap=st.sampled_from([1e8, 1e2, 30.0]))
def test_stacked_gradient_bitwise_equals_scalar(q, heading, cond_cap):
    q = np.array(q)
    t = np.array([np.cos(heading), np.sin(heading)])
    assert (gradient_outcome(loop_gradient, q, t, cond_cap)
            == gradient_outcome(scalar_gradient, q, t, cond_cap))


def loop_position(arm, q):
    """End-effector position, summed link by link from +0.0."""
    th = np.cumsum(q, axis=-1)
    x = np.zeros(q.shape[:-1])
    y = np.zeros(q.shape[:-1])
    for a in range(arm.n):
        x = x + arm._L[a] * np.cos(th[..., a])
        y = y + arm._L[a] * np.sin(th[..., a])
    return np.stack([x, y], axis=-1)


# signed zeros and multiples of pi/2, where sin or cos is exactly 0 or +-1,
# exercise the sign-of-zero cases that reading FK(q) off J(q) and adding
# signed-zero offsets rest on
LINEARIZE_ENTRIES = (st.sampled_from([0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi])
                     | st.floats(-np.pi, np.pi))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(q=st.lists(LINEARIZE_ENTRIES, min_size=3, max_size=3),
       neighbours=st.booleans())
def test_linearized_stack_bitwise_equals_scalar_calls(q, neighbours):
    # row 0 is the iteration's own FK(q), J(q) and pseudo-inverse; the
    # neighbour rows are what the scalar cost would see at q +- h e_j
    arm = GRADIENT_ARM
    q = np.array(q)
    x_q, J, H = _linearize(arm, q, _row_offsets(arm.n, neighbours))
    assert x_q.tobytes() == loop_position(arm, q).tobytes()
    rows = [q]
    for j in range(arm.n * neighbours):
        step = np.zeros(arm.n)
        step[j] = FD_STEP
        rows += [q + step, q - step]
    assert J.shape == (len(rows), 2, arm.n)
    for r, row in enumerate(rows):
        assert J[r].tobytes() == arm._kinematics(row)[0].tobytes()
        if r:
            assert H[r - 1].tobytes() == arm.rigid_terms(row).H.tobytes()
    assert (H is None) == (not neighbours)
    try:
        P = _pseudo_inverses(J[:1], 1e8)
    except SingularJacobian:
        return
    assert P[0].tobytes() == scalar_pinv(J[0], 1e8).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(3, 6), data=st.data())
def test_pinv_scales_columns_bitwise_like_diagonal_product(n, data):
    # the pseudo-inverse scales V's columns by 1/s instead of building
    # diag(1/s); the product must round exactly like the diagonal one. The
    # diagonal product adds exact zeros, which turn a -0.0 into +0.0, so the
    # sign of zero is the one difference allowed (adding 0.0 clears it).
    J = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * n,
                                    max_size=2 * n))).reshape(2, n)
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    assume(s[0] > 0.0 and s[-1] > RANK_TOL * s[0] and s[0] / s[-1] <= 1e8)
    diagonal = Vt.T @ np.diag(1.0 / s) @ U.T
    assert (_pseudo_inverses(J[None], 1e8)[0] + 0.0).tobytes() == (diagonal + 0.0).tobytes()


@pytest.mark.parametrize("cond_cap,message", [
    # only q - h e_2 crosses the cap
    (2.8e6, "Jacobian condition number 3.05e+06 exceeds cap 2.8e+06"),
    # q - h e_1 and q - h e_2 both cross; the scalar order meets e_1 first
    (2.5e6, "Jacobian condition number 2.66e+06 exceeds cap 2.5e+06")])
def test_gradient_raises_first_offending_neighbour(arm, cond_cap, message):
    # nearly stretched: the condition number grows fast as q_2 falls to 0
    q = np.array([0.3, 0.0, 3 * FD_STEP])
    t = np.array([1.0, 0.0])
    for gradient in (loop_gradient, scalar_gradient):
        with pytest.raises(SingularJacobian) as info:
            gradient(arm, q, t, cond_cap)
        assert str(info.value) == message


def test_singular_jacobian_at_q_raises_before_any_neighbour(arm):
    # nearly stretched: J(q) and q +- h e_0 have condition number 2.03e6,
    # the bending neighbours q +- h e_1, q +- h e_2 their own ones, and the
    # cap lies below them all
    q = np.array([0.3, 0.0, 3 * FD_STEP])
    _, J, _ = _linearize(arm, q, _row_offsets(arm.n, True))
    with pytest.raises(SingularJacobian, match="number 1.55e"):
        _pseudo_inverses(J[3:], 1.5e6)
    message = "^Jacobian condition number 2.03e[+]06 exceeds cap 1.5e[+]06$"
    with pytest.raises(SingularJacobian, match=message):
        _pseudo_inverses(J, 1.5e6)
    with pytest.raises(SingularJacobian, match=message):
        resolve_redundancy(arm, make_line_path(4), ResolutionConfig(q0=q, cond_cap=1.5e6))


def test_alpha_zero_builds_no_neighbour_rows(arm, monkeypatch):
    path = make_line_path(6)
    q0 = start_config(arm, path)
    shapes = []
    kinematics = arm._kinematics

    def recording_kinematics(q):
        shapes.append(np.shape(q))
        return kinematics(q)

    monkeypatch.setattr(arm, "_kinematics", recording_kinematics)
    monkeypatch.setattr(arm, "_inertia", None)      # never called without neighbours
    jp = resolve_redundancy(arm, path, ResolutionConfig(q0=q0, alpha=0.0))
    assert set(shapes) == {(1, 3)}
    assert len(shapes) == 1 + int(jp.iterations.sum())


def test_singular_jacobian_raises(arm):
    # fully stretched arm: the position Jacobian drops to rank 1
    with pytest.raises(SingularJacobian):
        loop_gradient(arm, np.zeros(3), np.array([1.0, 0.0]), 1e8)
    with pytest.raises(SingularJacobian, match="condition"):
        _pseudo_inverses(np.diag([1.0, 1e-5])[None], 1e3)


# --- time parametrization ---------------------------------------------------


def test_unconstrained_cost_hits_velocity_cap_formula(arm):
    path = make_line_path(8)
    jp = resolve_redundancy(arm, path, ResolutionConfig(q0=start_config(arm, path)))
    spec = unified_spec()
    result = time_parametrize(arm, path, jp, make_inf_limits(), spec)
    dlam = path.dlam
    expected = 2.0 * dlam / spec.pv_max + dlam / spec.pv_max
    for _ in range(5):
        expected += dlam / spec.pv_max
    expected += 2.0 * dlam / spec.pv_max
    assert result.cost == expected
    assert result.grid.cfg_count == 1


def test_reparametrizing_unified_path_reproduces_cost(arm):
    path = make_line_path(8)
    spec = unified_spec()
    limits = LimitSets(qd=np.full(3, 1.2))
    unified = plan(build_grid(arm, path, spec), limits)
    # freeze the unified planner's own configurations and re-parametrize
    jp = JointPath(q=unified.profile.q.copy(),
                   residuals=np.zeros(9), iterations=np.zeros(9, dtype=np.int64),
                   step_norms=np.linalg.norm(np.diff(unified.profile.q, axis=0), axis=1),
                   branch_jump=False)
    pinned = time_parametrize(arm, path, jp, limits, spec)
    assert pinned.cost == unified.cost


def test_unified_superset_grid_dominates_baseline(arm):
    # dominance is structural when the unified grid contains the baseline's
    # own configurations and the search is exact (velocity-only limits)
    path = make_line_path(10)
    spec = unified_spec()
    limits = LimitSets(qd=np.full(3, 2.0))
    jp = resolve_redundancy(arm, path, ResolutionConfig(q0=start_config(arm, path)))
    pinned = time_parametrize(arm, path, jp, limits, spec)
    assert isinstance(pinned.grid, StateGrid)
    cols = [jp.q]
    for v in (0.7, 0.9, 1.0):
        cols.append(np.stack([
            inverse_kinematics(arm, path.waypoints[i], np.array([v]), 0)
            for i in range(11)]))
    q_table = np.stack(cols, axis=1)
    unified = plan(grid_from_configurations(arm, path, q_table, spec), limits)
    assert unified.cost <= pinned.cost


def test_stage_count_mismatch_rejected(arm):
    path = make_line_path(5)
    jp = resolve_redundancy(arm, make_line_path(4),
                            ResolutionConfig(q0=start_config(arm, path)))
    with pytest.raises(ScenarioError):
        time_parametrize(arm, path, jp, make_inf_limits(), unified_spec())
