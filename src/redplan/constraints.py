"""Edge feasibility engine: time steps, backward-difference derivative
stacks, torque via inverse dynamics, and interval checks on joint velocity,
acceleration, jerk, torque, and torque rate.

All discrete derivatives use past samples only (the forward sweep knows
nothing about the future). Quantities whose history is missing (free moving
starts) propagate as NaN and their checks are skipped until enough chain
depth exists, which mirrors starting the bookkeeping at zero depth rather
than guessing values.

One function computes every edge: `stage_transitions` runs the time step,
the difference stack, inverse dynamics, the per-order checks with the
Coulomb exemption for the torque rate, and the interior check points over
P x L x C lanes (P predecessors against the C cells of the next stage at
each of its L pseudo-velocity levels) and folds the checks into one mask per
order. The sweep calls it once per stage and block of labels; a replay of a
chain calls it once per edge, its 1 x 1 x 1 case, and therefore reproduces
the sweep's numbers bit for bit. `initial_samples` gives both the stage-0
samples. The endpoint torques split inverse dynamics in two: the
rigid-body terms (H, G and gravity) depend on the cell alone, so the
caller computes them once per grid (the sweep for all its cells, a replay
for its chain) and passes the next stage's in.

An edge's time step, joint velocity and velocity-dependent torque (the
centripetal, viscous, Coulomb and gravity terms, `PlanarArm.bias_torque`)
depend only on its two configurations and its time step. An interior
edge's step is dlam / pv_next whatever the predecessor's level, so
predecessors that end in the same cell share all of them. The engine
therefore groups the P predecessors whose configuration and whose time
steps at the levels some candidate lane uses are bitwise equal, and runs
the velocity table, the exact velocity check, the G and gravity gathers
and the bias torque once per (group, level, cell) of the candidates'
union. Each candidate lane looks up its group's velocity, verdict and
bias torque; the acceleration, jerk, H qdd + bias, torque rate, the order
checks and the check points, which read the predecessor's history or
level, stay per lane. A looked-up value is the same IEEE operation on
bitwise-equal operands as the lane's own would be, so every lane keeps
its bits, and a block gives what its rows would give one at a time.

The per-lane arrays are (K, n) or (K, n, n) but stored joint-major, with
the lane axis fastest in memory (`_gather`, `_keep`), so that every
per-joint operation and joint reduction runs over all K lanes at once
rather than n elements at a time. Every operation on them is elementwise
or an exact boolean reduction, so the layout changes no bit.

The engine screens by joint velocity first, in two steps. A closed-form
table, the shortest time step tmin[g, c] = max_j |dq_j| / qd_max_j at which
a pair of configurations meets the velocity bound (the discrete
maximum-velocity curve of TOPP, Bobrow et al. 1985, and TOPP-RA), drops
every level whose time step falls short of it at once, with a relative
slack that keeps it conservative. The exact endpoint velocity check then
runs on the survivors only. Only the lanes with a time step that pass it go
on to the higher orders, inverse dynamics and the check points. The checks
above joint velocity therefore count only the lanes they actually
evaluated: a lane that fails the velocity bound is rejected under qd alone.

One errstate context per call silences the invalid operations (NaN
history, inf times zero) of the table, the difference stack, the torque
and the endpoint checks. The check-point samples take a square root and
inverse dynamics, which stay outside it; their checks are comparisons,
which raise no floating-point error on NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ScenarioError
from .robot import PlanarArm, RigidTerms, _matvec

Array = np.ndarray

ORDERS = ("qd", "qdd", "qddd", "tau", "taud")

# every order above joint velocity is computed through the predecessor
# chain's cached samples, which makes its feasibility history-dependent
HISTORY_DEPENDENT_ORDERS = ("qdd", "qddd", "tau", "taud")

# orders with well-defined values at interpolated check points (the
# constant-pseudo-acceleration profile has zero jerk between stages and no
# canonical torque rate)
_CHECK_POINT_ORDERS = ("qd", "qdd", "tau")

# relative slack of the velocity table: it covers the rounding of the two
# divisions (|dq| / step against |dq| / qd_max) many times over, so the
# table never drops a lane that the exact check keeps
_TABLE_SLACK = 1e-9

# a stage saturates when its worst bound ratio reaches 1 - SATURATION_EPS
SATURATION_EPS = 1e-3


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


def initial_samples(robot: PlanarArm, q: Array, pv: Array) -> tuple[Array, Array, Array]:
    """Chain samples qd, qdd, tau, each (P, n), of stage-0 nodes at q (P, n)
    and pseudo-velocities pv (P,).

    A rest start (pv = 0) pins velocity and acceleration to zero and the
    torque to the static hold torque; a moving start has unknown history, so
    every sample is NaN and is skipped by the checks until the chain is deep
    enough.
    """
    q = np.asarray(q, dtype=float)
    qd = np.where(np.asarray(pv)[:, None] == 0.0, 0.0, np.full_like(q, np.nan))
    # NaN velocity and acceleration make the moving rows' torque NaN
    return qd, qd.copy(), robot.torque(robot.rigid_terms(q), qd, qd)


def edge_durations(pv_prev, pv_next, dlam: float) -> Array:
    """Time step of stage transitions; pv_prev and pv_next broadcast.

    Interior edges use the backward-Euler step dlam / pv_next; edges that
    start or stop (either pseudo-velocity zero) use the trapezoidal step
    2 dlam / (pv_prev + pv_next). Lanes with zero pseudo-velocity at both
    ends have no time step and come back as +inf.
    """
    pv_prev = np.asarray(pv_prev, dtype=float)
    pv_next = np.asarray(pv_next, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        trapezoid = 2.0 * dlam / (pv_prev + pv_next)
        backward = dlam / pv_next
    return np.where((pv_prev == 0.0) | (pv_next == 0.0), trapezoid, backward)


def _order_ok(value: Array, bound: Array) -> Array:
    """Per-sample feasibility of one order; NaN samples are skipped (a NaN
    compares false, so it never exceeds its bound, and numpy's comparisons
    raise no floating-point error on it)."""
    return ~(np.abs(value) > bound).any(axis=-1)


def _gather(table: Array, idx: Array) -> Array:
    """Rows idx of table, (K, ...), stored with the lane axis fastest in
    memory, so that per-joint arithmetic and joint reductions run over
    whole lanes at a time."""
    return table.T.take(idx, axis=-1).T


def _keep(a: Array, ok: Array) -> Array:
    """The rows of a where ok holds, in the layout of _gather."""
    return a.T.compress(ok, axis=-1).T


def _coulomb_crossing(qd_prev: Array, qd_next: Array) -> Array:
    """True where some joint's velocity flips sign across the edge.

    Coulomb friction is discontinuous at zero velocity, so the finite
    difference behind the torque-rate check is meaningless across a sign
    flip; those edges skip the torque-rate check. NaN history never counts
    as a crossing. The caller silences the invalid operations of the
    product (inf times zero).
    """
    return (qd_prev * qd_next < 0.0).any(axis=-1)


def _predecessor_groups(q_prev: Array, dt: Array, union: Array) -> tuple[Array, Array]:
    """Predecessors whose configuration and whose time steps at every level
    a candidate lane uses (a row of union, (L, C)) are bitwise equal:
    (group, first), with group (P,) each predecessor's group and first a
    member of each group. Such predecessors share every edge's joint
    velocity and velocity-dependent torque. A one-row call skips the sort.
    """
    P = q_prev.shape[0]
    if P == 1:
        return np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp)
    # the bits of each row (+0.0 and -0.0 differ, so do NaN payloads);
    # rows with equal bits are adjacent in any lexicographic order
    key = np.concatenate((q_prev, dt[:, union.any(axis=1)]), axis=1).view(np.int64)
    at = np.lexsort(key.T)
    new = np.ones(P, dtype=bool)
    new[1:] = np.any(key[at[1:]] != key[at[:-1]], axis=1)
    group = np.empty(P, dtype=np.intp)
    group[at] = np.cumsum(new) - 1
    return group, at[new]


def _interior_samples(q_prev, q_next, pv2_prev, pv2_next, dlam, count):
    """States (q, qd, qdd) at the interior check points of the edges, one
    check point after the other; pv2_prev and pv2_next are the squared end
    pseudo-velocities.

    The profile between stages keeps the pseudo-acceleration constant
    (pv^2 linear in lambda) and interpolates q linearly in lambda, which
    makes the joint acceleration constant along the edge.
    """
    slope = (q_next - q_prev) / dlam
    qdd_edge = slope * ((pv2_next - pv2_prev) / (2.0 * dlam))
    for k in range(1, count + 1):
        s = k / (count + 1.0)
        pv_s = np.sqrt((1.0 - s) * pv2_prev + s * pv2_next)
        yield q_prev + s * (q_next - q_prev), slope * pv_s, qdd_edge


@dataclass(frozen=True)
class StageEval:
    """Vectorized evaluation of the P x L x C transitions into one stage.

    dt is (P, L) (it depends only on the pseudo-velocities); feasible and
    the per-order masks are (P, L, C). The endpoint stack is carried on the
    evaluated lanes only: row k of each (K, n) array belongs to the lane
    with flat id lanes[k] = p * L * C + l * C + c (strictly ascending), so
    np.searchsorted(lanes, ids) finds the lanes' rows. Those arrays are
    stored joint-major.
    """

    dt: Array
    lanes: Array
    qd: Array
    qdd: Array
    qddd: Array
    tau: Array
    taud: Array
    feasible: Array
    order_ok: dict
    no_step: int

    def rejections(self) -> dict:
        """Failed checks per order, plus the candidate lanes without a time
        step (under "duration"); a key with no failure is left out.

        Only candidate lanes count (the window of a windowed search keeps
        the others out). A lane without a time step counts under duration
        alone. Joint velocity is checked on every other candidate lane;
        every order above it only on the lanes that were evaluated, those
        that pass the velocity bound. A lane that fails the velocity bound
        is therefore counted under qd alone.
        """
        counts = {o: int(np.count_nonzero(~ok)) for o, ok in self.order_ok.items()}
        counts["duration"] = self.no_step
        return {key: count for key, count in counts.items() if count}


def stage_transitions(robot: PlanarArm, limits: LimitSets, dlam: float,
                      q_prev: Array, pv_prev: Array, qd_prev: Array,
                      qdd_prev: Array, tau_prev: Array,
                      q_next: Array, terms_next: RigidTerms, pv_next: Array,
                      check_count: int = 0, candidates: Array | None = None) -> StageEval:
    """Evaluate every predecessor against every next-stage node of every level.

    q_prev (P, n) with chain samples qd/qdd/tau_prev (P, n); q_next (C, n)
    holds the next stage's cells, terms_next their rigid-body terms
    (robot.rigid_terms(q_next)), and pv_next (L,) its levels. Lane
    p * L * C + l * C + c is the edge from predecessor p to cell c at level
    l, so for one predecessor the lane ids are the grid's node ids.
    candidates, a (P, L, C) mask, restricts the search to its lanes (None
    keeps all). Lanes whose time step does not exist carry dt = +inf and
    are marked infeasible. Only the candidate lanes with a time step that
    pass the joint-velocity bound are evaluated further; every other lane
    is infeasible, and its checks above joint velocity read as passed.
    """
    pv_prev = np.asarray(pv_prev, dtype=float)
    pv_next = np.asarray(pv_next, dtype=float)
    shape = P, L, C = q_prev.shape[0], pv_next.size, q_next.shape[0]
    if candidates is None:
        candidates = np.ones(shape, dtype=bool)
    dt = edge_durations(pv_prev[:, None], pv_next, dlam)
    has_step = np.isfinite(dt)
    step = np.where(has_step, dt, 1.0)
    union = candidates.any(axis=0)
    group, first = _predecessor_groups(q_prev, dt, union)
    # the velocity part runs once per (group, level, cell) that some member's
    # candidate lane uses: the lanes without a time step drop out first,
    # then the velocity table drops the lanes that cannot pass, and the
    # exact velocity check runs on the rest
    screen = union & has_step[first][:, :, None]
    shared_step = step[first]
    dq = q_next - q_prev[first][:, None, :]
    with np.errstate(invalid="ignore"):
        if limits.qd is not None:
            # NaN in tmin never drops a lane: the exact check skips NaN
            tmin = np.max(np.abs(dq) / limits.qd, axis=-1)
            screen &= ~(tmin[:, None, :] > shared_step[:, :, None] * (1.0 + _TABLE_SLACK))
        shared = np.flatnonzero(screen)
        g, l, c = np.unravel_index(shared, screen.shape)
        qd = _gather(dq.reshape(-1, q_next.shape[1]), g * C + c)
        qd /= shared_step[g, l][:, None]
        if limits.qd is not None:
            passed = _order_ok(qd, limits.qd)
            shared, c, qd = (_keep(a, passed) for a in (shared, c, qd))
        bias = robot.bias_torque(_gather(terms_next.G, c), _gather(terms_next.gravity, c), qd)
        # the evaluated lanes: each candidate lane whose group's lane passed,
        # with that lane's velocity and bias torque
        vel_ok = np.zeros(screen.size, dtype=bool)
        vel_ok[shared] = True
        vel_ok = vel_ok.reshape(screen.shape)[group]
        lanes = np.flatnonzero(candidates & vel_ok)
        p, l, c = np.unravel_index(lanes, shape)
        row = np.searchsorted(shared, lanes + (group[p] - p) * (L * C))
        qd, bias = _gather(qd, row), _gather(bias, row)
        qd_prev, step = _gather(qd_prev, p), step[p, l][:, None]
        qdd = (qd - qd_prev) / step
        qddd = (qdd - _gather(qdd_prev, p)) / step
        tau = _matvec(_gather(terms_next.H, c), qdd) + bias
        taud = (tau - _gather(tau_prev, p)) / step
        stack = (qd, qdd, qddd, tau, taud)
        # each enabled order's verdict on the evaluated lanes: its endpoint
        # check, the Coulomb exemption of the torque rate, then (outside
        # this context: the samples take a square root and inverse
        # dynamics) the check points
        lane_ok = {order: _order_ok(value, limits.bound(order))
                   for order, value in zip(ORDERS, stack)
                   if limits.bound(order) is not None}
        if "taud" in lane_ok:
            lane_ok["taud"] |= _coulomb_crossing(qd_prev, qd)
    if check_count:
        # each level is squared as a Python float, not by numpy (numpy's
        # square and ** differ in the last place on some doubles): the
        # check-point samples, and through them the golden digests, depend
        # on these bits
        pv2_next = np.array([v ** 2 for v in pv_next.tolist()])[l][:, None]
        pv2_prev = pv_prev[p][:, None] ** 2
        for q_s, qd_s, qdd_s in _interior_samples(_gather(q_prev, p), _gather(q_next, c),
                                                  pv2_prev, pv2_next, dlam, check_count):
            sample = {"qd": qd_s, "qdd": qdd_s}
            if limits.tau is not None:
                sample["tau"] = robot.inverse_dynamics(q_s, qd_s, qdd_s)
            for order in _CHECK_POINT_ORDERS:
                if order in lane_ok:
                    lane_ok[order] &= _order_ok(sample[order], limits.bound(order))
    feasible = np.zeros(candidates.size, dtype=bool)
    feasible[lanes] = np.all(list(lane_ok.values()), axis=0) if lane_ok else True
    with_step = candidates & has_step[:, :, None]
    order_ok = {}
    for order, ok in lane_ok.items():
        # every evaluated lane is a candidate that passed the velocity bound;
        # the velocity verdict of every other lane is its group's, passed
        # where a lane is no candidate or has no time step (it has no
        # velocity to check)
        if order == "qd":
            mask = (~with_step | vel_ok).ravel()
        else:
            mask = np.ones(candidates.size, dtype=bool)
        mask[lanes] = ok
        order_ok[order] = mask.reshape(shape)
    no_step = int(np.count_nonzero(candidates) - np.count_nonzero(with_step))
    return StageEval(dt, lanes, *stack, feasible=feasible.reshape(shape),
                     order_ok=order_ok, no_step=no_step)


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


def saturation_percentage(profile: TrajectoryProfile, limits: LimitSets) -> SaturationReport:
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
    hits = stage_ratio[1:] >= 1.0 - SATURATION_EPS
    percentage = 100.0 * float(np.count_nonzero(hits)) / n_stages
    return SaturationReport(percentage=percentage, stage_ratio=stage_ratio,
                            per_order=per_order, active_order=active,
                            eps=SATURATION_EPS)
