"""Two-stage comparison pipeline: local Jacobian-based redundancy
resolution along the task path, then phase-plane time parametrization of
the resulting fixed joint path.

The resolution stage inverts each waypoint with a damped pseudo-inverse
iteration plus null-space descent on the dynamic-manipulability cost; warm
starts keep the whole path inside one extended aspect, which is exactly the
structural handicap this baseline has against the unified planner.
"""

from __future__ import annotations

import math
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


def _pseudo_inverses(J: Array, cond_cap: float) -> Array:
    """Moore-Penrose pseudo-inverses of a (R, 2, n) Jacobian stack, from one
    SVD call. Every row's rank and condition checks run first, in row order,
    so the first offending row raises."""
    U, s, Vt = np.linalg.svd(J, full_matrices=False)
    for s_max, s_min in s[:, [0, -1]].tolist():
        if s_max == 0.0 or s_min <= RANK_TOL * s_max:
            raise SingularJacobian("Jacobian lost rank")
        if s_max / s_min > cond_cap:
            raise SingularJacobian(f"Jacobian condition number {s_max / s_min:.3g} "
                                   f"exceeds cap {cond_cap:.3g}")
    return (np.swapaxes(Vt, -1, -2) * (1.0 / s)[:, None, :]) @ np.swapaxes(U, -1, -2)


def _row_offsets(n: int, neighbours: bool) -> Array:
    """Offsets from q of the rows that _linearize stacks: q itself, then,
    if neighbours, its 2n central-difference neighbours q + h e_0,
    q - h e_0, q + h e_1, ...

    Row 0 is all -0.0, because q + (-0.0) is q to the bit, signed zeros
    included. The rows -h e_j hold -0.0 off the diagonal for the same
    reason, so q + (-h e_j) equals q - h e_j exactly.
    """
    offsets = np.full((2 * n + 1 if neighbours else 1, n), -0.0)
    if neighbours:
        h = FD_STEP * np.eye(n)
        offsets[1::2] = h
        offsets[2::2] = -h
    return offsets


def _linearize(robot: PlanarArm, q: Array,
               offsets: Array) -> tuple[Array, Array, Array | None]:
    """Everything one resolution iteration reads at q, from one trig pass.

    The stacked rows are q + offsets, offsets from _row_offsets. Returns
    the end-effector position at q, the (R, 2, n) Jacobians of every row,
    and the (2n, n, n) inertia of the neighbours (None without them). Each
    row's arithmetic is elementwise, so it equals the scalar call's bit for
    bit.

    The position is read off J(q): its column 0 sums the same products as
    the position, in the same order, with y's negated. J[1, 0] is
    0 - (-L_0 c_0) - ..., which is x's 0 + L_0 c_0 + ... exactly; and
    0 - J[0, 0] is y, because rounding to nearest is symmetric under
    negation and neither sum can be -0.0.
    """
    ct, st = robot._trig(q + offsets)
    J = robot._jacobian(ct, st)
    H = (robot._inertia(robot._com_jacobian_components(ct[1:], st[1:]))
         if len(offsets) > 1 else None)
    return np.array([J[0, 1, 0], 0.0 - J[0, 0, 0]]), J, H


def _cost_gradient(H: Array, P: Array, t: Array) -> Array:
    """Central-difference gradient of the dynamic-manipulability cost
    || H(q) J(q)^+ t ||^2, from the inertia H and pseudo-inverses P of the
    2n neighbour rows of _linearize.

    Each row's cost is a stacked matmul, which runs the same BLAS call per
    row as a scalar 2-D matmul and its w @ w; an einsum or an elementwise
    sum would round differently in the last place, and the division by 2h
    magnifies that. So the gradient equals differencing the scalar cost bit
    for bit.
    """
    W = H @ P @ np.asarray(t, dtype=float)
    cost = (W[:, None, :] @ W[:, :, None])[:, 0, 0]
    return (cost[0::2] - cost[1::2]) / (2 * FD_STEP)


def resolve_redundancy(robot: PlanarArm, path: WorkspacePath,
                       config: ResolutionConfig) -> JointPath:
    """Invert every waypoint with pseudo-inverse tracking plus null-space
    descent on the dynamic-manipulability cost, warm-started in sequence.

    Waypoint 0 is iterated from config.q0 first, so q0 only needs to be in
    the basin of the starting waypoint. The row offsets of _linearize are
    built once per call. Each step ends with one _linearize call at the
    new q, which serves the convergence test, the next iteration and the
    next waypoint's first one; the Jacobian of q is row 0 of its stack and
    is checked before any neighbour's. The residual is
    sqrt(err . err), which is what np.linalg.norm computes on a vector.

    Raises:
        NoConvergence: a waypoint's residual is still above tolerance after
            max_iterations, or is not finite (the iteration diverged; it
            raises before any SVD of the non-finite Jacobian).
        SingularJacobian: the iteration walked into an ill-conditioned pose.
    """
    n_pts = path.n_stages + 1
    q_out = np.empty((n_pts, robot.n))
    residuals = np.empty(n_pts)
    iterations = np.zeros(n_pts, dtype=np.int64)
    q = config.q0.copy()
    eye = np.eye(robot.n)
    neighbours = config.alpha > 0.0
    offsets = _row_offsets(robot.n, neighbours)
    x_q, J, H = _linearize(robot, q, offsets)
    # a diverging iteration overflows to inf and NaN; the residual test
    # below reports it, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_pts):
            x = path.waypoints[i]
            t = tangent(path, i)
            err = x - x_q
            residual = math.sqrt(err.dot(err))
            k = 0
            # "not <" lets a NaN residual in, to be reported as diverged
            while not residual < config.tolerance:
                if k >= config.max_iterations or not math.isfinite(residual):
                    raise NoConvergence(i, residual)
                P = _pseudo_inverses(J, config.cond_cap)
                step = config.beta * (P[0] @ err)
                if neighbours:
                    null_proj = eye - P[0] @ J[0]
                    step = step - config.alpha * (null_proj @ _cost_gradient(H, P[1:], t))
                q = q + step
                x_q, J, H = _linearize(robot, q, offsets)
                err = x - x_q
                residual = math.sqrt(err.dot(err))
                k += 1
            q_out[i] = q
            residuals[i] = residual
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

