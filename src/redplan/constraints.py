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
each of its L pseudo-velocity levels, and answers lane by lane
(`StageEval`), with no P x L x C array. Its one input is a `Screen` of its
rows: each row's lanes that pass the joint-velocity bound, their velocity
work done. `velocity_screens` builds it for the lanes of an (L, C) mask
that every row shares, cut by each row's window (a level interval and a
lattice mask); the sweep screens each stage once and hands each block of
labels its part (`Screen.rows`). `lane_screen` builds it for a sorted list
of lane ids: a replay screens a chain of N edges as N lanes (rows stages
0..N-1, cells stages 1..N) and scores them in three calls, each fed the
samples of the one before, and so reproduces the sweep's numbers bit for
bit. The rigid-body terms (H, G and gravity) depend on the cell alone: the
grid holds them (StateGrid.terms), and the caller passes the next stage's
in.

An edge's time step, joint velocity and velocity-dependent torque
(`PlanarArm.bias_torque`) depend only on its two configurations and its
time step, and an interior edge's step is dlam / pv_next whatever the
predecessor's level. So velocity_screens takes each run of adjacent rows
whose configuration, time steps at the levels in use and lattice mask are
bitwise equal as one group (the sweep orders its rows by cell, then level,
which makes equal rows adjacent; equal rows apart only share less), runs
the velocity screen and the bias torque once per (group, candidate lane)
pair over its rows' levels, and hands each row the run of its group's
passed pairs at its own levels, in lane order. A closed-form table, the
shortest time step max_j |dq_j| / qd_max_j at which a (group, cell) pair
meets the velocity bound (the discrete maximum-velocity curve of TOPP,
Bobrow et al. 1985, and TOPP-RA), is compared with each level's time step
in one broadcast over the (group, level, cell) box, with a relative slack
that keeps it conservative, and drops the entries that cannot pass; the
exact velocity check runs on the rest. A lane reads its cell and time step
from its entry (only check points read its level), and StageEval hands them
to the sweep and replay. What reads a predecessor's history or level stays
per lane: acceleration, jerk, H qdd + bias, torque rate, the checks and the
check-point velocities and torques. A check point's configuration q_prev +
s * dq reads only its entry's row of dq, so its rigid-body terms are
computed once per row that an evaluated lane reads and gathered per lane. A
shared value is the same IEEE operation on bitwise-equal operands as the
lane's own, so a block gives what its rows would give one at a time, and a
screen's slices, chunks and blocks change no bit.

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
from functools import cached_property, partial, reduce

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
    read-only on first access (with the screen's candidates()), only for
    bench/tracing.py and tests until ROADMAP items 1 and 3 retire them; the
    sweep, replay and the oracle never read them.
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
    candidates: object
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
        failed = np.isfinite(self.dt)[:, :, None] & self.candidates()
        return {order: self._dense(~failed if order == "qd" else True, self.lanes, ok)
                for order, ok in self.verdicts.items()}


@dataclass(frozen=True)
class Screen:
    """The candidate lanes of rows 0..P-1 of predecessors that pass the
    joint-velocity bound, their velocity work done (velocity_screens,
    lane_screen): stage_transitions's one input. dt (P, L) holds the rows'
    time steps and cells (P, L) counts each row's candidate lanes at each
    level. Row p is handed counts[p] entries, first[p] on, in lane order;
    the rows of a group (P,) share its entries. An entry holds its lane
    within a row, lc = l * C + c, its cell c, its time step, its joint
    velocity qd and its bias torque ((K, n) each, joint-major), and dqrow,
    its row of dq: q_next[c] - q_prev[p] for each lane that reads it. Only
    check points read dq and a level, lc // C. candidates() builds the (P,
    L, C) candidate mask for StageEval's dense views alone.
    """

    dt: Array
    group: Array
    first: Array
    counts: Array
    cells: Array
    candidates: object
    dq: Array
    lc: Array
    cell: Array
    step: Array
    qd: Array
    bias: Array
    dqrow: Array

    def rows(self, a: int, b: int) -> "Screen":
        """The screen of rows a..b-1, renumbered from 0; the entries stay."""
        return Screen(self.dt[a:b], self.group[a:b], self.first[a:b], self.counts[a:b],
                      self.cells[a:b], lambda: self.candidates()[a:b], self.dq, self.lc,
                      self.cell, self.step, self.qd, self.bias, self.dqrow)


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
    levels (L',), box_mask (L', C) of them, or (G, L', C) under a window:
    the table runs as one broadcast over the (group, level, cell) box, and
    its kept entries, in (group, lane) order, go to the exact check.
    Returns each group's count of passed entries, then their lc, cell,
    step, qd, bias and dqrow (g * C + c) as Screen holds them."""
    G, C = dq.shape[:2]
    with np.errstate(invalid="ignore"):
        box = np.isfinite(step)[:, :, None] & box_mask
        if limits.qd is not None:
            box &= ~_table_drops(dq[:, None], step[:, :, None], limits.qd)
        gl, cell = np.divmod(np.flatnonzero(box), C)
        g, j = np.divmod(gl, levels.size)
        step, lc, dqrow = step.reshape(-1)[gl], levels[j] * C + cell, g * C + cell
        # free the box and its index arrays before the exact check builds
        # its own
        del box, gl, g, j
        qd, bias, step, cell, lc, dqrow = _velocity(
            robot, limits, terms_next, _gather(dq.reshape(G * C, -1), dqrow), step, cell, lc,
            dqrow)
    per_group = np.bincount(dqrow, minlength=G * C).reshape(G, C).sum(axis=1)
    return per_group, lc, cell, step, qd, bias, dqrow


def velocity_screens(robot: PlanarArm, limits: LimitSets, dlam: float, q_prev: Array,
                     pv_prev: Array, q_next: Array, terms_next: RigidTerms, pv_next: Array,
                     candidates: Array | None = None, max_entries: int | None = None,
                     bounds: tuple | None = None, lattice: Array | None = None):
    """Screen by joint velocity the candidate lanes of rows q_prev (P, n) at
    levels pv_prev, in chunks of consecutive rows: yields (a, the Screen of
    rows a..b-1) per chunk. Arguments are as for stage_transitions. The
    candidates are the lanes of an (L, C) mask at each row's levels
    bounds[0][p]..bounds[1][p] (two (P,) arrays in 0..L-1) and cells
    lattice[p] ((P, C) bool); each of the three is None for all.

    The rows go in slices of at most max_entries // L rows, whose time
    steps and groups are found per slice (a group that a slice edge cuts
    becomes two, which changes no bit). A group is a run of adjacent rows
    with bitwise-equal configuration, time steps at the levels the mask
    uses and lattice mask; its velocity work runs once over the union of
    its rows' levels, and a row takes the run of its group's entries at its
    own levels. A chunk holds whole groups of one slice. The table of a
    chunk is a (group, level, cell) box over the levels that the mask uses
    and every cell, so a chunk takes at most max_entries // (levels x C)
    groups (at least one), and its box stays within max_entries unless one
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
        rows = slice(r0, r0 + span)
        q, dt = q_prev[rows], edge_durations(pv_prev[rows, None], pv_next, dlam)
        used_dt = dt[:, levels]
        # each row's candidate cells per level, within its levels level_ok
        # and cells near (all of them without a window)
        key, cells = [q, used_dt], np.broadcast_to(mask.sum(axis=1), dt.shape)
        level_ok = near = np.ones((q.shape[0], 1), dtype=bool)
        if lattice is not None:
            near = lattice[rows]
            key.append(near)
            cells = np.matmul(near, mask.T, dtype=float).astype(np.intp)
        lo, hi = (None, None) if bounds is None else (b[rows] for b in bounds)
        # the level bounds bind a slice that leaves some row a used level out
        binding = lo is not None and levels.size > 0 and bool(
            np.any(lo > levels[0]) or np.any(hi < levels[-1]))
        if binding:
            level_ok = (lo[:, None] <= np.arange(L)) & (np.arange(L) <= hi[:, None])
            cells = cells * level_ok
        # each run of rows with bitwise-equal keys shares its velocity work
        group, first = _runs(np.concatenate(key, axis=1).view(np.int64))
        G = first.size
        per_chunk = max(1, G if max_entries is None else max_entries // max(box_mask.size, 1))
        for g0 in range(0, max(G, 1), per_chunk):
            g1 = min(g0 + per_chunk, G)
            at = first[g0:g1]
            a, b = (first[g0] if g0 < G else 0), (first[g1] if g1 < G else q.shape[0])
            group_mask, step = box_mask, used_dt[at]
            if binding:
                # a group's box spans its rows' levels: no time step at others
                step = np.where(np.logical_or.reduceat(level_ok[a:b], at - a)[:, levels],
                                step, np.inf)
            if lattice is not None:
                group_mask = group_mask & near[at][:, None, :]
            dq = q_next - q[at][:, None, :]
            per_group, *entries = _box_entries(robot, limits, terms_next, dq, step, levels,
                                               group_mask)
            local = group[a:b] - g0
            start, counts = (np.cumsum(per_group) - per_group)[local], per_group[local]
            if binding:
                # a row's levels are one run of its group's entries, which
                # come in (group, lane) order
                order = entries[-1] // C * (L * C) + entries[0]
                start = np.searchsorted(order, local * (L * C) + lo[a:b] * C)
                counts = np.searchsorted(order, local * (L * C) + (hi[a:b] + 1) * C) - start
            yield r0 + a, Screen(
                dt[a:b], local, start, counts, cells[a:b],
                partial(reduce, np.logical_and, (mask, level_ok[a:b, :, None],
                                                 near[a:b, None, :])),
                dq.reshape(-1, q_next.shape[1]), *entries)


def lane_screen(robot: PlanarArm, limits: LimitSets, dlam: float, q_prev: Array,
                pv_prev: Array, q_next: Array, terms_next: RigidTerms, pv_next: Array,
                lanes: Array) -> Screen:
    """The Screen of a sorted array of lane ids p * L * C + l * C + c over
    rows q_prev (P, n) at levels pv_prev; other arguments are as for
    stage_transitions. Each lane is its own entry, with its own row of dq,
    so N lanes over N rows and N cells (a replay) cost O(N), not N^2."""
    pv_prev, pv_next = (np.asarray(pv, dtype=float) for pv in (pv_prev, pv_next))
    P, L, C = q_prev.shape[0], pv_next.size, q_next.shape[0]
    dt = edge_durations(pv_prev[:, None], pv_next, dlam)
    pair_p, pair_u = np.divmod(lanes, L * C)
    pair_c, pair_step = pair_u % C, dt[pair_p, pair_u // C]
    cells = np.bincount(lanes // C, minlength=P * L).reshape(P, L)
    keep = np.isfinite(pair_step)
    dq = _gather(q_next, pair_c) - _gather(q_prev, pair_p)
    with np.errstate(invalid="ignore"):
        if limits.qd is not None:
            keep &= ~_table_drops(dq, pair_step, limits.qd)
        k = np.flatnonzero(keep)
        qd, bias, step, cell, p, lc, k = _velocity(robot, limits, terms_next, _gather(dq, k),
                                                   pair_step[k], pair_c[k], pair_p[k],
                                                   pair_u[k], k)
    counts = np.bincount(p, minlength=P)
    return Screen(dt, np.arange(P), np.cumsum(counts) - counts, counts, cells,
                  lambda: np.isin(np.arange(P * L * C), lanes).reshape(P, L, C), dq, lc, cell,
                  step, qd, bias, k)


def stage_transitions(robot: PlanarArm, limits: LimitSets, dlam: float,
                      q_prev: Array, pv_prev: Array, qd_prev: Array,
                      qdd_prev: Array, tau_prev: Array,
                      q_next: Array, terms_next: RigidTerms, pv_next: Array,
                      check_count: int = 0, candidates: Screen | None = None) -> StageEval:
    """Score the candidate transitions into one stage, lane by lane.

    q_prev (P, n) with chain samples qd/qdd/tau_prev (P, n); q_next (C, n)
    holds the next stage's cells, terms_next their rigid-body terms
    (robot.rigid_terms(q_next), a stage of StateGrid.terms), and pv_next
    (L,) its levels. Lane p * L * C + l * C + c is the edge from
    predecessor p to cell c at level l. candidates is the Screen of these
    rows (velocity_screens or lane_screen), whose velocity work is done;
    None screens every lane in one velocity_screens call. A lane without a
    time step has dt = +inf; only the candidates with a time step that pass
    the joint-velocity bound are evaluated, and each takes its cell, time
    step, joint velocity and bias torque from its screen entry.
    """
    pv_prev, pv_next = np.asarray(pv_prev, dtype=float), np.asarray(pv_next, dtype=float)
    P, L, C = q_prev.shape[0], pv_next.size, q_next.shape[0]
    screen = candidates if candidates is not None else next(velocity_screens(
        robot, limits, dlam, q_prev, pv_prev, q_next, terms_next, pv_next))[1]
    # each predecessor takes its run of entries, so the evaluated lanes come
    # in ascending order
    count = screen.counts
    row = np.arange(count.sum()) + np.repeat(screen.first - np.cumsum(count) + count, count)
    p, lc, c, step = (np.repeat(np.arange(P), count), screen.lc[row], screen.cell[row],
                      screen.step[row])
    with np.errstate(invalid="ignore"):
        qd = _gather(screen.qd, row)
        qd_prev, lane_step = _gather(qd_prev, p), step[:, None]
        qdd = (qd - qd_prev) / lane_step
        qddd = (qdd - _gather(qdd_prev, p)) / lane_step
        # H qdd from the cells' columns of H, gathered one at a time: no
        # (K, n, n) gather
        tau = _fold_columns(lambda b: _gather(terms_next.H[:, :, b], c), qdd)
        tau += _gather(screen.bias, row)
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
        # lane's row of dq alone, and every lane that reads a row has the
        # same q_prev bits: the row's rigid-body terms are computed once,
        # from one such lane's q_prev, and gathered per lane
        lane_dq = screen.dqrow[row]
        owner = np.full(screen.dq.shape[0], -1)
        owner[lane_dq] = np.arange(lane_dq.size)
        at = np.flatnonzero(owner >= 0)
        base, at_dq = q_prev[p[owner[at]]], screen.dq[at]
        slot = (np.cumsum(owner >= 0) - 1)[lane_dq]
        for s, qd_s, qdd_s in _interior_samples(_gather(screen.dq, lane_dq), pv2_prev, pv2_next,
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
    with_step = int((np.isfinite(screen.dt) * screen.cells).sum())
    return StageEval(screen.dt, p, lc, step, *stack, ok, verdicts, (P, L, C),
                     screen.candidates, with_step, int(screen.cells.sum()) - with_step)


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
