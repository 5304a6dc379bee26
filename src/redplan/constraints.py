"""Edge feasibility engine: time steps, backward-difference derivative
stacks, torque via inverse dynamics, and interval checks on joint velocity,
acceleration, jerk, torque, and torque rate.

All discrete derivatives use past samples only (the forward sweep knows
nothing about the future). Quantities whose history is missing (free moving
starts) propagate as NaN and their checks are skipped until enough chain
depth exists, which mirrors starting the bookkeeping at zero depth rather
than guessing values.

One engine computes every edge: the time step, the difference stack,
inverse dynamics, the per-order checks with the Coulomb exemption for the
torque rate, and the interior check points, written once over broadcast
shapes. `stage_transitions` runs it on all P x C edges into one level and
folds the checks into masks; `evaluate_edge` runs it on one edge and turns
the same checks into violation tags. A replay of a chain therefore
reproduces the sweep's numbers bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleEdge, ScenarioError
from .robot import RobotModel

Array = np.ndarray

ORDERS = ("qd", "qdd", "qddd", "tau", "taud")

# every order above joint velocity is computed through the predecessor
# chain's cached samples, which makes its feasibility history-dependent
HISTORY_DEPENDENT_ORDERS = ("qdd", "qddd", "tau", "taud")

# orders with well-defined values at interpolated check points (the
# constant-pseudo-acceleration profile has zero jerk between stages and no
# canonical torque rate)
_CHECK_POINT_ORDERS = ("qd", "qdd", "tau")


@dataclass(frozen=True)
class LimitSets:
    """Per-joint symmetric interval bounds; None disables an order."""

    qd: Array | None = None
    qdd: Array | None = None
    qddd: Array | None = None
    tau: Array | None = None
    taud: Array | None = None

    def __post_init__(self):
        for order in ORDERS:
            bound = getattr(self, order)
            if bound is None:
                continue
            bound = np.atleast_1d(np.asarray(bound, dtype=float))
            if not np.all(bound > 0.0):       # NaN fails the comparison
                raise ScenarioError(f"enabled {order} bounds must be strictly positive")
            object.__setattr__(self, order, bound)

    @classmethod
    def from_joint_limits(cls, limits, orders=ORDERS) -> "LimitSets":
        table = {"qd": limits.qd_max, "qdd": limits.qdd_max, "qddd": limits.qddd_max,
                 "tau": limits.tau_max, "taud": limits.taud_max}
        return cls(**{o: table[o] for o in orders})

    def bound(self, order: str) -> Array | None:
        return getattr(self, order)

    @property
    def enabled_orders(self) -> tuple[str, ...]:
        return tuple(o for o in ORDERS if getattr(self, o) is not None)

    @property
    def history_dependent_orders(self) -> tuple[str, ...]:
        return tuple(o for o in self.enabled_orders if o in HISTORY_DEPENDENT_ORDERS)

    def disable(self, *orders: str) -> "LimitSets":
        return replace(self, **{o: None for o in orders})


@dataclass(frozen=True)
class NodeState:
    """Chain-dependent samples cached at a reached node.

    qd, qdd, tau are NaN where the chain behind the node is too shallow for
    that order (free starts); a rest node carries exact zeros and the static
    torque.
    """

    q: Array
    pv: float
    qd: Array
    qdd: Array
    tau: Array


def initial_state(robot: RobotModel, q: Array, pv: float) -> NodeState:
    """Chain state of a stage-0 node.

    A rest start (pv = 0) pins velocity and acceleration to zero and the
    torque to the static hold torque; a moving start has unknown history, so
    every derived quantity starts as NaN and is skipped by the checks until
    the chain is deep enough.
    """
    q = np.asarray(q, dtype=float)
    if pv == 0.0:
        zero = np.zeros_like(q)
        return NodeState(q=q, pv=0.0, qd=zero, qdd=zero,
                         tau=robot.inverse_dynamics(q, zero, zero))
    nan = np.full_like(q, np.nan)
    return NodeState(q=q, pv=float(pv), qd=nan, qdd=nan, tau=nan)


def edge_durations(pv_prev, pv_next: float, dlam: float) -> Array:
    """Time step of stage transitions; shapes follow pv_prev.

    Interior edges use the backward-Euler step dlam / pv_next; edges that
    start or stop (either pseudo-velocity zero) use the trapezoidal step
    2 dlam / (pv_prev + pv_next). Lanes with zero pseudo-velocity at both
    ends have no time step and come back as +inf.
    """
    pv_prev = np.asarray(pv_prev, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        trapezoid = 2.0 * dlam / (pv_prev + pv_next)
        backward = dlam / pv_next if pv_next > 0.0 else np.inf
        dt = np.where((pv_prev == 0.0) | (pv_next == 0.0), trapezoid, backward)
    return dt


def transition_quantities(robot: RobotModel, q_prev, qd_prev, qdd_prev, tau_prev,
                          q_next, dt):
    """Backward-difference stack of one transition; shapes broadcast.

    Returns (qd, qdd, qddd, tau, taud) at the next stage. NaN history
    propagates into the orders that depend on it.
    """
    with np.errstate(invalid="ignore"):
        qd = (q_next - q_prev) / dt
        qdd = (qd - qd_prev) / dt
        qddd = (qdd - qdd_prev) / dt
        tau = robot.inverse_dynamics(q_next, qd, qdd)
        taud = (tau - tau_prev) / dt
    return qd, qdd, qddd, tau, taud


def _order_ok(value: Array, bound: Array) -> Array:
    """Per-sample feasibility of one order; NaN samples are skipped."""
    with np.errstate(invalid="ignore"):
        return np.all((np.abs(value) <= bound) | np.isnan(value), axis=-1)


def _coulomb_crossing(qd_prev: Array, qd_next: Array) -> Array:
    """True where some joint's velocity flips sign across the edge.

    Coulomb friction is discontinuous at zero velocity, so the finite
    difference behind the torque-rate check is meaningless across a sign
    flip; those edges skip the torque-rate check. NaN history never counts
    as a crossing.
    """
    with np.errstate(invalid="ignore"):
        return np.any(qd_prev * qd_next < 0.0, axis=-1)


def _interior_samples(q_prev, q_next, pv_prev, pv_next, dlam, count):
    """States at the interior check points of one edge.

    The profile between stages keeps the pseudo-acceleration constant
    (pv^2 linear in lambda) and interpolates q linearly in lambda, which
    makes the joint acceleration constant along the edge.
    """
    slope = (q_next - q_prev) / dlam
    qdd_edge = slope * ((pv_next ** 2 - pv_prev ** 2) / (2.0 * dlam))
    out = []
    for k in range(1, count + 1):
        s = k / (count + 1.0)
        pv_s = np.sqrt((1.0 - s) * pv_prev ** 2 + s * pv_next ** 2)
        q_s = q_prev + s * (q_next - q_prev)
        qd_s = slope * pv_s
        out.append((q_s, qd_s, qdd_edge))
    return out


def _edge_checks(robot, limits, dlam, q_prev, pv_prev, qd_prev, qdd_prev, tau_prev,
                 q_next, pv_next, check_count):
    """Time step, difference stack and every bound check of a set of edges.

    Joint arrays broadcast against each other: (n,) for one edge, (P, 1, n)
    against (1, C, n) for a stage, with pv_prev a scalar or (P, 1, 1).
    Returns dt (+inf where no time step exists; the stack then uses a unit
    step), the endpoint stack (qd, qdd, qddd, tau, taud), and one
    (order, where, value, exempt) entry per bound check: the enabled
    endpoint orders, then the check-point orders of each check point.
    exempt marks the lanes that skip a check (torque rate across a Coulomb
    crossing) and is None for every other check.
    """
    dt = edge_durations(pv_prev, pv_next, dlam)
    stack = transition_quantities(robot, q_prev, qd_prev, qdd_prev, tau_prev, q_next,
                                  np.where(np.isfinite(dt), dt, 1.0))
    values = dict(zip(ORDERS, stack))
    checks = []
    for order in limits.enabled_orders:
        exempt = _coulomb_crossing(qd_prev, values["qd"]) if order == "taud" else None
        checks.append((order, "endpoint", values[order], exempt))
    for k, (q_s, qd_s, qdd_s) in enumerate(
            _interior_samples(q_prev, q_next, pv_prev, pv_next, dlam, check_count), start=1):
        sample = {"qd": qd_s, "qdd": qdd_s}
        if limits.tau is not None:
            sample["tau"] = robot.inverse_dynamics(q_s, qd_s, qdd_s)
        checks.extend((order, f"check_point_{k}", sample[order], None)
                      for order in _CHECK_POINT_ORDERS if limits.bound(order) is not None)
    return dt, stack, checks


@dataclass(frozen=True)
class Violation:
    order: str
    joint: int
    excess: float
    where: str = "endpoint"


@dataclass(frozen=True)
class EdgeEvaluation:
    """Outcome of one candidate transition; dt is the edge's cost."""

    dt: float
    qd: Array
    qdd: Array
    qddd: Array
    tau: Array
    taud: Array
    feasible: bool
    violations: tuple[Violation, ...]

    def next_state(self, q_next: Array, pv_next: float) -> NodeState:
        return NodeState(q=q_next, pv=float(pv_next), qd=self.qd,
                         qdd=self.qdd, tau=self.tau)


def evaluate_edge(robot: RobotModel, limits: LimitSets, dlam: float,
                  prev: NodeState, q_next: Array, pv_next: float,
                  check_count: int = 0) -> EdgeEvaluation:
    """Evaluate one transition from a reached node to a next-stage node.

    Every failed check is tagged with its order, joint, excess and place:
    the endpoint tags first, then the check-point tags.

    Raises:
        InfeasibleEdge: both end pseudo-velocities are zero (no time step
            exists); bound violations do NOT raise, they come back in the
            result with their tags.
    """
    dt, stack, checks = _edge_checks(robot, limits, dlam, prev.q, prev.pv, prev.qd,
                                     prev.qdd, prev.tau, np.asarray(q_next, dtype=float),
                                     pv_next, check_count)
    if not np.isfinite(dt):
        raise InfeasibleEdge("edge with zero pseudo-velocity at both ends")
    violations = []
    for order, where, value, exempt in checks:
        if exempt:
            continue
        with np.errstate(invalid="ignore"):
            excess = np.abs(value) - limits.bound(order)     # NaN never exceeds
        violations.extend(Violation(order=order, joint=int(j), excess=float(excess[j]),
                                    where=where)
                          for j in np.flatnonzero(excess > 0.0))
    return EdgeEvaluation(float(dt), *stack, feasible=not violations,
                          violations=tuple(violations))


@dataclass(frozen=True)
class StageEval:
    """Vectorized evaluation of all P x C transitions into one level.

    Arrays are (P, C, n) for joint quantities, (P, C) for masks, (P,) for
    the time step (it depends only on the pseudo-velocities).
    """

    dt: Array
    qd: Array
    qdd: Array
    qddd: Array
    tau: Array
    taud: Array
    feasible: Array
    order_ok: dict

    def rejections(self) -> dict:
        """Failed checks per order, plus the lanes without a time step."""
        counts = {o: int(np.count_nonzero(~ok)) for o, ok in self.order_ok.items()}
        no_step = int(np.count_nonzero(~np.isfinite(self.dt)))
        counts["duration"] = no_step * self.feasible.shape[1]
        return counts


def stage_transitions(robot: RobotModel, limits: LimitSets, dlam: float,
                      q_prev: Array, pv_prev: Array, qd_prev: Array,
                      qdd_prev: Array, tau_prev: Array,
                      q_next: Array, pv_next: float,
                      check_count: int = 0) -> StageEval:
    """Evaluate every predecessor against every next-stage cell at one level.

    q_prev (P, n) with chain samples qd/qdd/tau_prev (P, n); q_next (C, n).
    Lanes whose time step does not exist carry dt = +inf and are marked
    infeasible.
    """
    pv_col = np.asarray(pv_prev, dtype=float)[:, None, None]
    dt, stack, checks = _edge_checks(
        robot, limits, dlam, q_prev[:, None, :], pv_col, qd_prev[:, None, :],
        qdd_prev[:, None, :], tau_prev[:, None, :], q_next[None, :, :], pv_next,
        check_count)
    dt = dt[:, 0, 0]
    feasible = np.isfinite(dt)[:, None] & np.ones(q_next.shape[0], dtype=bool)[None, :]
    order_ok = {}
    for order, _, value, exempt in checks:
        ok = _order_ok(value, limits.bound(order))
        if exempt is not None:
            ok |= exempt
        order_ok[order] = order_ok[order] & ok if order in order_ok else ok
        feasible &= ok
    return StageEval(dt, *stack, feasible=feasible, order_ok=order_ok)


@dataclass(frozen=True)
class TrajectoryProfile:
    """Per-stage quantities of an extracted plan.

    Joint arrays are (N_i + 1, n); entries are NaN where the chain was too
    shallow for that order. dt[0] = 0 and t is the cumulative time.
    """

    t: Array
    dt: Array
    lam: Array
    pv: Array
    q: Array
    qd: Array
    qdd: Array
    qddd: Array
    tau: Array
    taud: Array

    @property
    def duration(self) -> float:
        return float(self.t[-1])

    @property
    def n_stages(self) -> int:
        return self.t.shape[0] - 1


@dataclass(frozen=True)
class SaturationReport:
    """Which stages run against a bound, and which order is binding.

    percentage counts the stages 1..N_i (the first waypoint carries no
    motion and is excluded) whose worst ratio |value| / bound over joints
    and enabled orders reaches 1 - eps. On a feasible plan only the
    torque-rate ratio can exceed 1, and only across Coulomb sign flips
    where its check is skipped.
    """

    percentage: float
    stage_ratio: Array
    per_order: dict
    active_order: tuple
    eps: float


def saturation_percentage(profile: TrajectoryProfile, limits: LimitSets,
                          eps_sat: float = 1e-3) -> SaturationReport:
    n_stages = profile.n_stages
    values = {"qd": profile.qd, "qdd": profile.qdd, "qddd": profile.qddd,
              "tau": profile.tau, "taud": profile.taud}
    per_order = {}
    for order in limits.enabled_orders:
        with np.errstate(invalid="ignore"):
            ratio = np.abs(values[order]) / limits.bound(order)
        ratio = np.where(np.isnan(ratio), -np.inf, ratio)
        per_order[order] = np.max(ratio, axis=-1)
    if not per_order:
        raise ScenarioError("saturation needs at least one enabled order")
    stacked = np.stack([per_order[o] for o in per_order])
    stage_ratio = np.max(stacked, axis=0)
    order_names = list(per_order)
    active = tuple(order_names[k] for k in np.argmax(stacked, axis=0))
    hits = stage_ratio[1:] >= 1.0 - eps_sat
    percentage = 100.0 * float(np.count_nonzero(hits)) / max(n_stages, 1)
    return SaturationReport(percentage=percentage, stage_ratio=stage_ratio,
                            per_order=per_order, active_order=active, eps=eps_sat)
