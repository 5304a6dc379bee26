"""Edge feasibility engine: time steps, backward-difference derivative
stacks, torque via inverse dynamics, and interval checks on joint velocity,
acceleration, jerk, torque, and torque rate.

All discrete derivatives use past samples only (the forward sweep knows
nothing about the future). Quantities whose history is missing (free moving
starts) propagate as NaN and their checks are skipped until enough chain
depth exists, which mirrors starting the bookkeeping at zero depth rather
than guessing values.

One function computes every edge: `stage_transitions` scores candidate
lanes, the edges from P predecessors to the C cells of the next stage at
each of its L pseudo-velocity levels. Its candidates are an (L, C) mask
that every predecessor shares, that mask's `Screen` over the call's rows,
or a sorted list of lane ids; it answers lane by lane (`StageEval`) and
builds no P x L x C array. The sweep screens a stage's shared mask once
(`velocity_screens`, in slices of rows and chunks of groups only when the
stage is large) and calls it once per block of labels with the block's
part of the screen (`Screen.rows`), a block cut by the lanes it is handed;
a windowed block lists its lanes. A replay scores a chain of N edges as N
listed lanes of three calls (rows stages 0..N-1, cells stages 1..N), each
fed the samples of the one before, and so reproduces the sweep's numbers
bit for bit. The rigid-body terms (H, G and gravity) depend on the cell
alone: the grid holds them (StateGrid.terms), and the caller passes the
next stage's in.

An edge's time step, joint velocity and velocity-dependent torque
(`PlanarArm.bias_torque`) depend only on its two configurations and its
time step, and an interior edge's step is dlam / pv_next whatever the
predecessor's level. So for a mask the engine takes each run of adjacent
predecessors whose configuration and time steps at the levels in use are
bitwise equal as one group (the sweep orders its rows by cell, then
level, which makes equal rows adjacent; equal rows apart only share
less), runs the velocity screen and the bias torque once per (group,
candidate lane) pair, and hands each group's passed pairs to its members
in ascending predecessor order, which lists the evaluated lanes in order;
a listed lane is scored on its own. A closed-form table, the shortest
time step max_j |dq_j| / qd_max_j at which a (group, cell) pair meets the
velocity bound (the discrete maximum-velocity curve of TOPP, Bobrow et
al. 1985, and TOPP-RA), is compared with each level's time step in one
broadcast over the (group, level, cell) box, with a relative slack that
keeps it conservative, and drops the entries that cannot pass; the exact
velocity check runs on the rest. The screen keeps each passed entry's
cell and time step beside its lane, and a lane reads them from its entry
(a listed lane from its own id), so no lane splits its id again (only
check points read a lane's level); StageEval hands the sweep and replay
each lane's row, next node and time step the same way. What reads a
predecessor's history or level stays per lane: acceleration, jerk, H qdd
+ bias, torque rate, the checks and the check-point velocities and
torques.
A check point's configuration q_prev + s * dq reads only the lane's row of
dq (its (group, cell) pair for a mask, the lane itself for a list), so its
rigid-body terms are computed once per row that an evaluated lane reads
and gathered per lane. A shared value is the same IEEE operation on
bitwise-equal operands as the lane's own, so a block gives what its rows
would give one at a time, and a screen's slices, chunks and blocks change
no bit.

The per-lane arrays are stored joint-major (`_gather`), so each per-joint
operation runs over all lanes at once; every operation on them is
elementwise or an exact boolean reduction, so the layout changes no bit.
Two errstate contexts, around the screen and around the per-lane part,
silence the invalid operations (NaN history, inf times zero) of the
table, the difference stack, the torque and the endpoint checks. The
check-point samples take a square root and the rigid-body terms of rows
that evaluated lanes read (finite configurations in every sweep and
replay), which stay outside them; their checks are comparisons, which
raise no floating-point error on NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce

import numpy as np

from .errors import ScenarioError
from .robot import PlanarArm, RigidTerms, _fold_columns

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


def initial_samples(robot: PlanarArm, terms: RigidTerms,
                    pv: Array) -> tuple[Array, Array, Array]:
    """Chain samples qd, qdd, tau, each (P, n), of stage-0 nodes at
    pseudo-velocities pv (P,), given the rigid-body terms of their (P, n)
    configurations (robot.rigid_terms, e.g. rows of StateGrid.terms).

    A rest start (pv = 0) pins velocity and acceleration to zero and the
    torque to the static hold torque; a moving start has unknown history, so
    every sample is NaN and is skipped by the checks until the chain is deep
    enough.
    """
    rest = np.asarray(pv)[:, None] == 0.0
    qd = np.where(rest, 0.0, np.full(terms.gravity.shape, np.nan))
    # NaN velocity and acceleration make the moving rows' torque NaN
    return qd, qd.copy(), robot.torque(terms, qd, qd)


def edge_durations(pv_prev, pv_next, dlam: float) -> Array:
    """Time step of stage transitions; pv_prev and pv_next broadcast.

    Interior edges use the backward-Euler step dlam / pv_next; edges that
    start or stop (either pseudo-velocity zero) use the trapezoidal step
    2 dlam / (pv_prev + pv_next). Lanes with zero pseudo-velocity at both
    ends have no time step and come back as +inf.
    """
    pv_prev, pv_next = (np.asarray(pv, dtype=float) for pv in (pv_prev, pv_next))
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


def _coulomb_crossing(qd_prev: Array, qd_next: Array) -> Array:
    """True where some joint's velocity flips sign across the edge.

    Coulomb friction is discontinuous at zero velocity, so the finite
    difference behind the torque-rate check is meaningless across a sign
    flip; those edges skip the torque-rate check. NaN history never counts
    as a crossing. The caller silences the invalid operations of the
    product (inf times zero).
    """
    return (qd_prev * qd_next < 0.0).any(axis=-1)


def _runs(key: Array) -> tuple[Array, Array]:
    """Runs of adjacent rows of key (N, ...) with equal bits: (run, first).
    run numbers each row's run from 0, and first holds each run's first row."""
    new = np.ones(key.shape[0], dtype=bool)
    new[1:] = (key[1:] != key[:-1]).any(axis=tuple(range(1, key.ndim)))
    return np.cumsum(new) - 1, np.flatnonzero(new)


def _interior_samples(dq, pv2_prev, pv2_next, dlam, count):
    """(s, qd, qdd) at the interior check points of the edges with
    configuration steps dq = q_next - q_prev, one check point after the
    other; pv2_prev and pv2_next are the squared end pseudo-velocities.

    The profile between stages keeps the pseudo-acceleration constant
    (pv^2 linear in lambda) and interpolates q linearly in lambda, which
    makes the joint acceleration constant along the edge: the check point
    at fraction s of the edge sits at q_prev + s * dq.
    """
    slope = dq / dlam
    qdd_edge = slope * ((pv2_next - pv2_prev) / (2.0 * dlam))
    for k in range(1, count + 1):
        s = k / (count + 1.0)
        pv_s = np.sqrt((1.0 - s) * pv2_prev + s * pv2_next)
        yield s, slope * pv_s, qdd_edge


@dataclass(frozen=True)
class StageEval:
    """One stage_transitions call's answer, lane by lane.

    dt (P, L) depends only on the pseudo-velocities. The evaluated lanes
    come in ascending lane order; row, node and step (K,) hold each one's
    predecessor row p, next node l * C + c and time step, and row k of the
    stack qd ... taud ((K, n) each, joint-major), of ok and of each order's
    verdict belongs to the same lane. Every other lane is infeasible.
    with_step and no_step count the candidate lanes with and without a time
    step.

    lanes, the evaluated lane ids p * L * C + l * C + c, and feasible and
    order_ok, the dense (P, L, C) forms of ok and verdicts, are built
    read-only on first access, only for bench/tracing.py and tests until
    ROADMAP items 1 and 3 retire them; the sweep, replay and the oracle
    never read them.
    """

    dt: Array
    row: Array
    node: Array
    step: Array
    qd: Array
    qdd: Array
    qddd: Array
    tau: Array
    taud: Array
    ok: Array
    verdicts: dict
    shape: tuple
    candidates: Array
    with_step: int
    no_step: int

    def rejections(self) -> dict:
        """Failed checks per order and candidate lanes without a time step
        ("duration"), keys without a failure left out. A candidate lane
        counts under duration alone without a step, under qd alone if it
        fails the velocity bound, and otherwise under every order it fails."""
        counts = {o: int(np.count_nonzero(~ok)) for o, ok in self.verdicts.items()}
        counts["qd"] = counts.get("qd", 0) + self.with_step - self.row.size
        counts["duration"] = self.no_step
        return {key: count for key, count in counts.items() if count}

    def _dense(self, fill, at: Array, values) -> Array:
        mask = np.full(self.shape, fill)
        mask.reshape(-1)[at] = values
        mask.flags.writeable = False
        return mask

    @cached_property
    def lanes(self) -> Array:
        return self.row * (self.shape[1] * self.shape[2]) + self.node

    @cached_property
    def feasible(self) -> Array:
        return self._dense(False, self.lanes, self.ok)

    @cached_property
    def order_ok(self) -> dict:
        # off the evaluated lanes, a candidate with a time step failed the
        # velocity bound, and every other lane passes
        listed = (self.candidates if self.candidates.ndim == 2
                  else self._dense(False, self.candidates, True))
        failed = np.isfinite(self.dt)[:, :, None] & listed
        return {order: self._dense(~failed if order == "qd" else True, self.lanes, ok)
                for order, ok in self.verdicts.items()}


@dataclass(frozen=True)
class Screen:
    """The velocity screen of an (L, C) candidate mask over rows 0..P-1 of
    predecessors (one chunk of velocity_screens), which stage_transitions
    takes as its candidates to score those rows' lanes.

    dt (P, L) holds the rows' time steps (edge_durations). group (P,)
    numbers each row's group, a run of rows with bitwise-equal
    configuration and time steps, and q (G, n) holds each group's
    configuration; row g * C + c of dq is the step from group g to cell c.
    Each row is handed the entries of its group that passed, counts (P,)
    of them: for group g, entries start[g] on, in lane order. An entry
    holds its lane within a row, lc = l * C + c, its cell c, its time step,
    its joint velocity qd and its bias torque ((K, n) each, joint-major);
    only check points read its level, lc // C.
    """

    mask: Array
    dt: Array
    group: Array
    counts: Array
    q: Array
    dq: Array
    start: Array
    lc: Array
    cell: Array
    step: Array
    qd: Array
    bias: Array

    def rows(self, a: int, b: int) -> "Screen":
        """The screen of rows a..b-1, renumbered from 0 (b > a)."""
        g0, g1 = self.group[a], self.group[b - 1] + 1
        e0, e1 = self.start[g0], self.start[g1 - 1] + self.counts[b - 1]
        C = self.mask.shape[1]
        return Screen(self.mask, self.dt[a:b], self.group[a:b] - g0, self.counts[a:b],
                      self.q[g0:g1], self.dq[g0 * C:g1 * C], self.start[g0:g1] - e0,
                      *(x[e0:e1] for x in (self.lc, self.cell, self.step, self.qd,
                                           self.bias)))


def _table_drops(dq: Array, step: Array, qd_max: Array) -> Array:
    """The velocity table: True where a configuration step dq (..., n)
    cannot meet the velocity bound at time step step (which broadcasts
    against dq's leading axes), as its shortest time step max_j |dq_j| /
    qd_max_j exceeds step by more than the slack; a NaN row is never
    dropped. The maximum is folded joint by joint, which gives the bits of
    np.max (exact, NaN propagates) several times faster than numpy's loops
    over a short last axis."""
    tmin = reduce(np.maximum, (np.abs(dq[..., j]) / qd_max[j] for j in range(dq.shape[-1])))
    return tmin > step * (1.0 + _TABLE_SLACK)


def _velocity(robot, limits, terms_next, qd, step, cell, *fields):
    """The exact velocity check and the bias torque of the screen entries
    that the table kept, in entry order: qd (K, n, joint-major) holds their
    configuration steps and becomes their joint velocities in place, step
    holds their time steps and cell their next cells. Returns the joint
    velocity and bias torque ((K, n) each, joint-major) of the entries that
    pass, then step, cell and each array of fields at those entries. The
    caller silences the invalid operations."""
    qd /= step[:, None]
    if limits.qd is not None:
        passed = _order_ok(qd, limits.qd)
        qd = qd.T.compress(passed, axis=-1).T
        step, cell, *fields = (x[passed] for x in (step, cell, *fields))
    bias = robot.bias_torque(_gather(terms_next.G, cell), _gather(terms_next.gravity, cell), qd)
    return (qd, bias, step, cell, *fields)


def _box_entries(robot, limits, terms_next, dq, step, levels, box_mask):
    """The screen of G groups whose configuration steps dq (G, C, n) and
    time steps step (G, L') meet the C cells at the candidate mask's
    levels (L',), box_mask (L', C) of them: the table runs as one broadcast
    over the (group, level, cell) box, and its kept entries, in (group,
    lane) order, go to the exact check. Returns each group's count of
    passed entries, then their lc, cell, step, qd and bias as Screen holds
    them."""
    G, C = dq.shape[:2]
    with np.errstate(invalid="ignore"):
        box = np.isfinite(step)[:, :, None] & box_mask
        if limits.qd is not None:
            box &= ~_table_drops(dq[:, None], step[:, :, None], limits.qd)
        gl, cell = np.divmod(np.flatnonzero(box), C)
        g, j = np.divmod(gl, levels.size)
        step, lc = step.reshape(-1)[gl], levels[j] * C + cell
        # free the box and its index arrays before the exact check builds
        # its own
        del box, gl, j
        qd, bias, step, cell, g, lc = _velocity(
            robot, limits, terms_next, _gather(dq.reshape(G * C, -1), g * C + cell), step,
            cell, g, lc)
    return np.bincount(g, minlength=G), lc, cell, step, qd, bias


def velocity_screens(robot: PlanarArm, limits: LimitSets, dlam: float, q_prev: Array,
                     pv_prev: Array, q_next: Array, terms_next: RigidTerms, pv_next: Array,
                     candidates: Array | None = None, max_entries: int | None = None):
    """Screen the lanes of an (L, C) candidate mask that rows q_prev (P, n)
    at levels pv_prev share (None: every lane) by joint velocity, in chunks
    of consecutive rows: yields (a, the Screen of rows a..b-1) per chunk.
    Arguments are as for stage_transitions. The rows go in slices of at
    most max_entries // L rows, whose time steps and groups are found per
    slice (a group that a slice edge cuts becomes two, which changes no
    bit), and a chunk holds whole groups of one slice. The table of a chunk
    is a (group, level, cell) box over the levels that the mask uses and
    every cell, so a chunk takes at most max_entries // (levels x C) groups
    (at least one), and its box stays within max_entries unless one
    group's exceeds it alone. None: one slice and one chunk.
    """
    pv_prev, pv_next = (np.asarray(pv, dtype=float) for pv in (pv_prev, pv_next))
    P, L, C = q_prev.shape[0], pv_next.size, q_next.shape[0]
    mask = np.ones((L, C), dtype=bool) if candidates is None else candidates
    # the box spans the levels that the mask uses (one level into a rest stop)
    levels = np.flatnonzero(mask.any(axis=1))
    box_mask = mask[levels]
    span = max(P, 1) if max_entries is None else max(1, max_entries // L)
    for r0 in range(0, max(P, 1), span):
        q, dt = q_prev[r0:r0 + span], edge_durations(pv_prev[r0:r0 + span, None], pv_next, dlam)
        used_dt = dt[:, levels]
        # each run of bitwise-equal rows meets every lane l * C + c of the mask
        group, first = _runs(np.concatenate((q, used_dt), axis=1).view(np.int64))
        G = first.size
        per_chunk = max(1, G if max_entries is None else max_entries // max(box_mask.size, 1))
        for g0 in range(0, max(G, 1), per_chunk):
            g1 = min(g0 + per_chunk, G)
            at = first[g0:g1]
            dq = q_next - q[at][:, None, :]
            per_group, *entries = _box_entries(robot, limits, terms_next, dq, used_dt[at],
                                               levels, box_mask)
            a, b = (first[g0] if g0 < G else 0), (first[g1] if g1 < G else q.shape[0])
            local = group[a:b] - g0
            yield r0 + a, Screen(mask, dt[a:b], local, per_group[local], q[at],
                                 dq.reshape(-1, q_next.shape[1]),
                                 np.cumsum(per_group) - per_group, *entries)


def stage_transitions(robot: PlanarArm, limits: LimitSets, dlam: float,
                      q_prev: Array, pv_prev: Array, qd_prev: Array,
                      qdd_prev: Array, tau_prev: Array,
                      q_next: Array, terms_next: RigidTerms, pv_next: Array,
                      check_count: int = 0, candidates=None) -> StageEval:
    """Score the candidate transitions into one stage, lane by lane.

    q_prev (P, n) with chain samples qd/qdd/tau_prev (P, n); q_next (C, n)
    holds the next stage's cells, terms_next their rigid-body terms
    (robot.rigid_terms(q_next), a stage of StateGrid.terms), and pv_next
    (L,) its levels. Lane p * L * C + l * C + c is the edge from
    predecessor p to cell c at level l. candidates is a boolean (L, C)
    mask that every predecessor shares (None: every lane), whose velocity
    work runs once per run of adjacent predecessors with bitwise-equal
    q_prev and time steps; the Screen of such a mask over these rows
    (velocity_screens), whose velocity work is done; or a sorted array of
    lane ids, each scored on its own. A lane without a time step has dt =
    +inf; only the candidates with a time step that pass the joint-velocity
    bound are evaluated. Each evaluated lane takes its cell and time step
    from its screen entry (or, listed, from its own lane id).
    """
    pv_prev, pv_next = np.asarray(pv_prev, dtype=float), np.asarray(pv_next, dtype=float)
    P, L, C = q_prev.shape[0], pv_next.size, q_next.shape[0]
    S = L * C
    shared = not isinstance(candidates, np.ndarray) or candidates.ndim == 2
    if shared and not isinstance(candidates, Screen):
        (_, candidates), = velocity_screens(robot, limits, dlam, q_prev, pv_prev, q_next,
                                            terms_next, pv_next, candidates)
    if shared:
        screen, dt = candidates, candidates.dt
        with_step = int(np.isfinite(dt).sum(axis=0) @ screen.mask.sum(axis=1))
        no_step = P * int(np.count_nonzero(screen.mask)) - with_step
        # each predecessor takes its group's passed entries: one run of
        # entries, so the evaluated lanes come in ascending order
        count = screen.counts
        row = np.arange(count.sum()) + np.repeat(screen.start[screen.group]
                                                 - np.cumsum(count) + count, count)
        p, lc, c, step = (np.repeat(np.arange(P), count), screen.lc[row], screen.cell[row],
                          screen.step[row])
        qd, bias, dq = screen.qd, screen.bias, screen.dq
        candidates = screen.mask
    else:
        # each listed lane is its own entry, with its own row of dq
        dt = edge_durations(pv_prev[:, None], pv_next, dlam)
        pair_p, pair_u = np.divmod(candidates, S)
        pair_l, pair_c = np.divmod(pair_u, C)
        pair_step = dt[pair_p, pair_l]
        keep = np.isfinite(pair_step)
        with_step = int(np.count_nonzero(keep))
        no_step = candidates.size - with_step
        dq = _gather(q_next, pair_c) - _gather(q_prev, pair_p)
        with np.errstate(invalid="ignore"):
            if limits.qd is not None:
                keep &= ~_table_drops(dq, pair_step, limits.qd)
            k = np.flatnonzero(keep)
            qd, bias, step, c, k = _velocity(robot, limits, terms_next, _gather(dq, k),
                                             pair_step[k], pair_c[k], k)
        p, lc, row = pair_p[k], pair_u[k], np.arange(k.size)
    with np.errstate(invalid="ignore"):
        qd = _gather(qd, row)
        qd_prev, lane_step = _gather(qd_prev, p), step[:, None]
        qdd = (qd - qd_prev) / lane_step
        qddd = (qdd - _gather(qdd_prev, p)) / lane_step
        # H qdd from the cells' columns of H, gathered one at a time: no
        # (K, n, n) gather
        tau = _fold_columns(lambda b: _gather(terms_next.H[:, :, b], c), qdd)
        tau += _gather(bias, row)
        taud = (tau - _gather(tau_prev, p)) / lane_step
        stack = (qd, qdd, qddd, tau, taud)
        # each enabled order's verdict on the evaluated lanes: its endpoint
        # check, the Coulomb exemption of the torque rate, then (outside
        # this context: the samples take a square root and rigid-body
        # terms) the check points. Every evaluated lane passed the exact
        # velocity check of _velocity, so qd's endpoint verdict is all True
        verdicts = {order: (np.ones(p.size, bool) if order == "qd"
                            else _order_ok(value, limits.bound(order)))
                    for order, value in zip(ORDERS, stack)
                    if limits.bound(order) is not None}
        if "taud" in verdicts:
            verdicts["taud"] |= _coulomb_crossing(qd_prev, qd)
    if check_count:
        # each level is squared as a Python float, not by numpy (numpy's
        # square and ** differ in the last place on some doubles): the
        # check-point samples, and through them the golden digests, depend
        # on these bits
        pv2_next = np.array([v ** 2 for v in pv_next.tolist()])[lc // C][:, None]
        pv2_prev = pv_prev[p][:, None] ** 2
        # a check point's configuration q_prev + s * dq depends on the
        # lane's row of dq alone: its rigid-body terms are computed once
        # per row that some evaluated lane reads, from the row's own q_prev
        # (its group's for a mask), and gathered per lane
        lane_dq = screen.group[p] * C + c if shared else k
        read = np.zeros(dq.shape[0], dtype=bool)
        read[lane_dq] = True
        at = np.flatnonzero(read)
        base, at_dq = screen.q[at // C] if shared else q_prev[pair_p[at]], dq[at]
        slot = (np.cumsum(read) - 1)[lane_dq]
        for s, qd_s, qdd_s in _interior_samples(_gather(dq, lane_dq), pv2_prev, pv2_next,
                                                dlam, check_count):
            sample = {"qd": qd_s, "qdd": qdd_s}
            if limits.tau is not None:
                terms = robot.rigid_terms(base + s * at_dq)
                sample["tau"] = robot.torque(
                    RigidTerms(*(_gather(a, slot) for a in (terms.H, terms.G, terms.gravity))),
                    qd_s, qdd_s)
            for order in _CHECK_POINT_ORDERS:
                if order in verdicts:
                    verdicts[order] &= _order_ok(sample[order], limits.bound(order))
    ok = np.all(list(verdicts.values()), axis=0) if verdicts else np.ones(p.size, bool)
    return StageEval(dt, p, lc, step, *stack, ok, verdicts, (P, L, C), candidates, with_step,
                     no_step)


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
