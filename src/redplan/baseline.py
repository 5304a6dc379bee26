"""Two-stage comparison pipeline: local Jacobian-based redundancy
resolution along the task path, then phase-plane time parametrization of
the resulting fixed joint path.

The resolution stage inverts each waypoint with a damped pseudo-inverse
iteration plus null-space descent on the dynamic-manipulability cost; warm
starts keep the whole path inside one extended aspect, which is exactly the
structural handicap this baseline has against the unified planner.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constraints import LimitSets
from .errors import NoConvergence, ScenarioError, SingularJacobian
from .grid import GridSpec, grid_from_configurations
from .path import WorkspacePath, tangent
from .planner import PlanResult, plan
from .robot import PlanarArm

Array = np.ndarray

RANK_TOL = 1e-8     # singular values below RANK_TOL * sigma_max are zeroed
FD_STEP = 1e-6      # central-difference step for the cost gradient, rad


@dataclass(frozen=True)
class ResolutionConfig:
    """Gains and stopping rules of the waypoint-inversion iteration.

    alpha = 0 degenerates to pure pseudo-inverse tracking (no null-space
    motion); beta and the tolerance must stay finite and positive, while
    step_cap and cond_cap may be infinite (no cap). The null-space step
    re-injects second-order task error each iteration, so the reachable
    residual floor scales like (alpha * gradient)^2 / beta: the default
    task gain is chosen so the floor sits well below the tolerance on the
    desk-scale reference arm.
    """

    q0: Array
    alpha: float = 1e-4
    beta: float = 0.5
    tolerance: float = 1e-8
    max_iterations: int = 500
    step_cap: float = 0.5       # per-stage joint step bound, rad
    cond_cap: float = 1e8       # Jacobian condition number above this raises

    def __post_init__(self):
        object.__setattr__(self, "q0", np.asarray(self.q0, dtype=float))
        # written as "all ok" so that NaN fails every comparison
        if not np.all(np.isfinite(self.q0)):
            raise ScenarioError("baseline q0 entries must be finite")
        if not 0.0 <= self.alpha < np.inf:
            raise ScenarioError("null-space gain must be finite and nonnegative")
        if not 0.0 < self.beta < np.inf:
            raise ScenarioError("task-error gain must be finite and positive")
        if not 0.0 < self.tolerance < np.inf:
            raise ScenarioError("convergence tolerance must be finite and positive")
        if not self.max_iterations >= 1:
            raise ScenarioError("iteration cap must be at least 1")
        # an infinite cap means "no cap"
        if not (self.step_cap > 0.0 and self.cond_cap > 0.0):
            raise ScenarioError("step cap and condition cap must be positive")

    def to_dict(self) -> dict:
        return {"q0": [float(x) for x in self.q0], "alpha": self.alpha,
                "beta": self.beta, "tolerance": self.tolerance,
                "max_iterations": self.max_iterations,
                "step_cap": self.step_cap, "cond_cap": self.cond_cap}


@dataclass(frozen=True)
class JointPath:
    """Resolved joint vectors, one per stage, tracking the task path.

    branch_jump is set when any consecutive step exceeds the configured cap,
    the symptom of the iteration hopping between solution branches.
    """

    q: Array                 # (N_i + 1, n)
    residuals: Array         # (N_i + 1,), task-space error norms
    iterations: Array        # (N_i + 1,), iterations spent per waypoint
    step_norms: Array        # (N_i,), ||q(i+1) - q(i)||
    branch_jump: bool

    @property
    def n_stages(self) -> int:
        return self.q.shape[0] - 1


def _pinv_from_svd(U: Array, s: Array, Vt: Array, cond_cap: float) -> Array:
    """Pseudo-inverse of one Jacobian from its thin SVD, after the rank and
    condition checks that every caller shares."""
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
        raise SingularJacobian("Jacobian lost rank")
    if s[0] / s[-1] > cond_cap:
        raise SingularJacobian(
            f"Jacobian condition number {s[0] / s[-1]:.3g} exceeds cap {cond_cap:.3g}")
    return (Vt.T * (1.0 / s)) @ U.T


def pseudo_inverse(J: Array, cond_cap: float = 1e8) -> Array:
    """Moore-Penrose pseudo-inverse by SVD with a documented rank tolerance.

    Raises:
        SingularJacobian: rank loss (singular value below RANK_TOL * sigma_max)
            or condition number above cond_cap.
    """
    return _pinv_from_svd(*np.linalg.svd(J, full_matrices=False), cond_cap)


def dynamic_manipulability_cost(robot: PlanarArm, q: Array, t: Array,
                                cond_cap: float = 1e8) -> float:
    """Squared inertia-weighted effort to accelerate along the unit tangent t.

    The quadratic form || H(q) J(q)^+ t ||^2: large where the arm is poorly
    posed to accelerate along the path, so descending it in the null space
    improves the acceleration capability at fixed task position.
    """
    J = robot.jacobian(q)
    H = robot.inertia_matrix(q)
    w = H @ pseudo_inverse(J, cond_cap) @ np.asarray(t, dtype=float)
    return float(w @ w)


def _cost_gradient(robot: PlanarArm, q: Array, t: Array, cond_cap: float) -> Array:
    """Central-difference gradient of dynamic_manipulability_cost at q.

    The 2n neighbours q + h e_0, q - h e_0, q + h e_1, ... are stacked so
    that one jacobian, one inertia_matrix and one SVD call cover them all.
    The pseudo-inverse and the cost of each row are then formed with
    ordinary 2-D matmuls, because stacked matmul rounds differently in the
    last place and the division by 2h magnifies that. The result is bitwise
    equal to differencing the scalar cost, and the first row in that order
    that fails the rank or condition check raises.
    """
    n = robot.n
    h = FD_STEP * np.eye(n)
    qs = np.empty((2 * n, n))
    qs[0::2] = q + h
    qs[1::2] = q - h
    H = robot.inertia_matrix(qs)
    U, s, Vt = np.linalg.svd(robot.jacobian(qs), full_matrices=False)
    t = np.asarray(t, dtype=float)
    cost = np.empty(2 * n)
    for r in range(2 * n):
        w = H[r] @ _pinv_from_svd(U[r], s[r], Vt[r], cond_cap) @ t
        cost[r] = w @ w
    return (cost[0::2] - cost[1::2]) / (2 * FD_STEP)


def resolve_redundancy(robot: PlanarArm, path: WorkspacePath,
                       config: ResolutionConfig) -> JointPath:
    """Invert every waypoint with pseudo-inverse tracking plus null-space
    descent on the dynamic-manipulability cost, warm-started in sequence.

    Waypoint 0 is iterated from config.q0 first, so q0 only needs to be in
    the basin of the starting waypoint.

    Raises:
        NoConvergence: a waypoint's residual is still above tolerance after
            max_iterations.
        SingularJacobian: the iteration walked into an ill-conditioned pose.
    """
    n_pts = path.n_stages + 1
    q_out = np.empty((n_pts, robot.n))
    residuals = np.empty(n_pts)
    iterations = np.zeros(n_pts, dtype=np.int64)
    q = config.q0.copy()
    eye = np.eye(robot.n)
    for i in range(n_pts):
        x = path.waypoints[i]
        t = tangent(path, i)
        err = x - robot.forward_kinematics(q)
        k = 0
        while np.linalg.norm(err) >= config.tolerance:
            if k >= config.max_iterations:
                raise NoConvergence(i, float(np.linalg.norm(err)))
            J = robot.jacobian(q)
            J_pinv = pseudo_inverse(J, config.cond_cap)
            step = config.beta * (J_pinv @ err)
            if config.alpha > 0.0:
                null_proj = eye - J_pinv @ J
                step = step - config.alpha * (null_proj @ _cost_gradient(
                    robot, q, t, config.cond_cap))
            q = q + step
            err = x - robot.forward_kinematics(q)
            k += 1
        q_out[i] = q
        residuals[i] = np.linalg.norm(err)
        iterations[i] = k
    step_norms = np.linalg.norm(np.diff(q_out, axis=0), axis=1)
    return JointPath(q=q_out, residuals=residuals, iterations=iterations,
                     step_norms=step_norms,
                     branch_jump=bool(np.any(step_norms > config.step_cap)))


def time_parametrize(robot: PlanarArm, path: WorkspacePath,
                     joint_path: JointPath, limits: LimitSets, spec: GridSpec,
                     check_count: int = 0) -> PlanResult:
    """Phase-plane time parametrization of a fixed joint path.

    Runs the stage DP on a degenerate grid with exactly one configuration
    per stage, pinned to the resolved joint path: identical duration rules,
    constraint machinery, and pseudo-velocity discretization as the unified
    planner, with the redundancy frozen.
    """
    if joint_path.n_stages != path.n_stages:
        raise ScenarioError("joint path and task path disagree on stage count")
    pinned = replace(spec, v_min=np.zeros(1), v_max=np.zeros(1), v_step=np.ones(1))
    grid = grid_from_configurations(robot, path, joint_path.q[:, None, :], pinned)
    return plan(grid, limits, check_count=check_count)

