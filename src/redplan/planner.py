"""Forward dynamic programming over the state grid.

The sweep visits stages in order and carries labels: partial chains keyed
by the node ids of their last depth + 1 stages (fewer near the start), each
with its cost, its predecessor label and the cached qd/qdd/tau samples of
its last node. At each transition the constraint engine scores every label
against every admissible next node of every level (optionally restricted by
a level/lattice window), screening by joint velocity before the higher
orders. Key k followed by node f gives k[1:] + (f,) once k is full, k +
(f,) before; each next key keeps its cheapest predecessor label, on a tie
the one with the smallest key, so results are bit-reproducible. A rest
start node that cannot hold still within the torque bound starts no chain.
A chain's cost is its duration, the sum of its time steps. The sweep orders
each stage's labels once, by last cell, then last level, so that the labels
that share a configuration and time steps are adjacent. The velocity screen
(constraints.velocity_screens) then runs once per stage, over each run of
such labels and candidate lane, and hands each label the lanes in its
window that pass, each with its level, cell and time step; it is split into
slices of labels and chunks of runs only when a stage's labels times levels
or its (run, level, cell) box exceeds SCREEN_BUDGET. One engine call scores
the lanes handed to one block of labels, and a block takes at most
LANE_BUDGET of them: the evaluated lanes, not the candidates, bound its
memory. Each block reduces its feasible lanes, read by their row, next node
and time step (StageEval), to one entry per next key with a scatter-min
over the block's own keys, whose tail groups the cut keeps within
max(LANE_BUDGET, S) slots; one sort per stage then merges the blocks'
entries, so a stage holds no table over all next keys. The labels are the
search's whole record: extract() starts from the cheapest terminal label
and follows the predecessor rows. The rigid-body terms of the grid's cells
come from the grid (StateGrid.terms), computed once however many sweeps and
replays read them; a replay gathers its chain's rows and checks, as the
sweep does, that a rest start holds still.

plan() sweeps at depth 0, where a label is a node and ties keep the lowest
predecessor id, the lexicographically smallest (level, lattice index,
branch). Its orders above joint velocity see only the winning predecessor's
history, so for them it is a conservative approximation (exact when only
velocity-type constraints are enabled). The oracle sweeps at depth 2, which
keeps every history an edge reads and is exact. A sweep carries one or more
label sets, one per depth, in one label array: oracle.compare() sweeps
depths 0 and 2 together, so that every stage orders, screens, scores and
reduces the rows of both searches at once, and each search's labels come
out as its own sweep would give them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import (LimitSets, TrajectoryProfile, _order_ok, _runs, initial_samples,
                          lane_screen, saturation_percentage, stage_transitions,
                          velocity_screens)
from .errors import CorruptChain, NoFeasiblePlan, ScenarioError, as_int
from .grid import StateGrid

Array = np.ndarray

# the lanes an engine call evaluates (those the screen hands out) bound its
# memory, about 215 B each (3.5 MB at the budget, plan-dense): a block's
# rows take at most LANE_BUDGET lanes, unless one row alone takes more
LANE_BUDGET = 16384
# a screen slice's (row, level) time steps and a screen chunk's (group,
# level, cell) box over the levels its mask uses stay within SCREEN_BUDGET,
# unless one group alone exceeds it. A box entry peaks at about 30 B
# (plan-dense), so a full chunk costs about half a full block; with no
# velocity bound every entry with a time step passes and peaks at about
# 275 B
SCREEN_BUDGET = 4 * LANE_BUDGET
# above every position a label can have
_NO_POS = np.iinfo(np.intp).max


@dataclass(frozen=True)
class Window:
    """Optional per-stage candidate restriction (speed/optimality knob).

    Edges whose endpoints differ by more than max_dl levels or max_dj
    lattice steps (per parameter) are skipped: the velocity screen neither
    evaluates nor counts them, and shares its work over the labels of a
    configuration as without a window. None disables a bound; a bound is
    otherwise a nonnegative integer.
    """

    max_dl: int | None = None
    max_dj: int | None = None

    def __post_init__(self):
        for name in ("max_dl", "max_dj"):
            if getattr(self, name) is not None:
                bound = as_int(getattr(self, name), f"window {name}")
                if bound < 0:
                    raise ScenarioError(f"window {name} must be nonnegative, got {bound}")
                object.__setattr__(self, name, bound)


@dataclass(frozen=True)
class ReachedSets:
    """Per-stage node ids reached by at least one feasible chain."""

    node_ids: tuple

    def counts(self) -> list[int]:
        return [int(ids.size) for ids in self.node_ids]


@dataclass(frozen=True)
class ValueMap:
    """The sweep's labels, per stage and in key order: node[i] holds each
    label's node id, pred[i] its predecessor's row at stage i - 1 (-1 at
    stage 0) and cost[i] its chain's cost."""

    grid: StateGrid
    limits: LimitSets
    check_count: int
    node: tuple
    pred: tuple
    cost: tuple

    def reached_sets(self) -> ReachedSets:
        # bincount, not np.unique: see the grouping in _sweep
        S = self.grid.level_count * self.grid.cfg_count
        return ReachedSets(tuple(np.flatnonzero(np.bincount(ids, minlength=S))
                                 for ids in self.node))


@dataclass(frozen=True)
class PlanResult:
    """Extracted optimal trajectory and its bookkeeping.

    history_orders names the enabled constraint orders whose feasibility
    depended on back-pointer history (empty for velocity-only runs, where
    the search is exact). cost is the plan's duration. The producing limits
    and check-point count ride along so a result can be replayed or
    re-derived.
    """

    cost: float
    node_ids: Array
    profile: TrajectoryProfile
    saturation: object
    reached: ReachedSets
    history_orders: tuple
    grid: StateGrid
    limits: LimitSets
    check_count: int


def plan(grid: StateGrid, limits: LimitSets, check_count: int = 0,
         window: Window | None = None) -> PlanResult:
    """Run the full forward sweep and extract the time-optimal plan.

    Raises:
        NoFeasiblePlan: no feasible chain reaches the terminal set; carries
            the deepest stage reached and per-order counts of failed edge
            checks at the transition that died.
    """
    value, = _sweep(grid, limits, check_count, window)
    return extract(value)


def _sweep(grid, limits, check_count, window, depths=(0,)):
    """Forward sweep over labels keyed by their last depth + 1 nodes, one
    search per entry of depths, into a ValueMap each. Search k's labels are
    a contiguous range of each stage's rows and its tail groups follow
    those of the searches before it, so it keeps the labels, order and ties
    of a sweep on its own. NoFeasiblePlan is that of the first search in
    depths that dies, as if the searches ran in turn: the stage a
    transition left it no label from, and that transition's rejection
    histogram over its own labels; or stage 0 and {"tau": start nodes},
    when no start node can hold still."""
    L, C = grid.level_count, grid.cfg_count
    S = L * C
    start = grid.stage_ids(0)
    terms = grid.terms
    qd, qdd, tau = initial_samples(grid.robot, terms[0, start % C], grid.pv_values[start // C])
    if limits.tau is not None:
        # a rest start must hold still: one whose holding torque fails the
        # bound starts no chain (qd and qdd, zero or NaN, fail no bound)
        holds = _order_ok(tau, limits.tau)
        if not holds.any():
            raise NoFeasiblePlan(0, {"tau": holds.size})
        start, qd, qdd, tau = start[holds], qd[holds], qdd[holds], tau[holds]
    # every search starts from the same labels; search k holds rows
    # begin[k]..begin[k + 1] - 1 of a stage
    n = len(depths)
    begin = list(range(0, (n + 1) * start.size, start.size))
    node, cost = np.tile(start, n), np.zeros(begin[-1])
    qd, qdd, tau = (np.tile(x, (n, 1)) for x in (qd, qdd, tau))
    keys = [start[:, None]] * n
    labels = [([start], [np.full(start.size, -1)], [np.zeros(start.size)]) for _ in depths]
    failed = {}

    robot, dlam = grid.robot, grid.path.dlam
    max_groups = max(1, LANE_BUDGET // S)
    window, lattice = window or Window(), grid.cell_lattice()
    # near[c] holds the cells within max_dj lattice steps of cell c
    near = None if window.max_dj is None else np.all(
        np.abs(lattice[:, None] - lattice[None]) <= window.max_dj, axis=-1)

    def transition(i, node, group, cost, qd, qdd, tau):
        """The labels that stage i's labels lead to, each next key's
        cheapest in key order: key (group * S + s), cost, pos (its
        predecessor's row), qd, qdd and tau; then the transition's
        rejection histogram."""
        q_next, terms_next, admissible = grid.q_table[i + 1], terms[i + 1], grid.admissible[i + 1]
        histogram, winners = {}, []

        # the stage's labels by last cell, then last level, then tail group,
        # ties in key order: the rows that share a configuration and time
        # steps are then adjacent, and the screen runs their velocity part
        # once. A group's labels share their last node, so they stay
        # together, but for a depth-0 search's one group, which another
        # search's rows can split into runs. along numbers the runs of a
        # group in this order, local a block's own from 0: a block's keys
        # (local run, s) fit in max(LANE_BUDGET, S) slots, and the runs of
        # one group only reduce to more entries for the stage's merge
        by = np.lexsort((group, node // C, node % C))
        along, _ = _runs(group[by])
        # the labels' configurations and levels, in that order
        level, cell = np.divmod(node[by], C)
        q_prev, pv_prev = grid.q_table[i, cell], grid.pv_values[level]
        # a window bounds each row's levels and cells; the screen runs once
        # per chunk of the stage's rows and hands each row its lanes
        bounds = None if window.max_dl is None else (np.maximum(level - window.max_dl, 0),
                                                     np.minimum(level + window.max_dl, L - 1))
        screens = velocity_screens(robot, limits, dlam, q_prev, pv_prev, q_next, terms_next,
                                   grid.pv_values, admissible, SCREEN_BUDGET, bounds,
                                   None if near is None else near[cell])
        blocks = ((at + a, at + b, screen.rows(a, b)) for at, screen in screens
                  for a, b in _blocks(screen.counts, along[at:at + screen.counts.size],
                                      max_groups))
        for a, b, screen in blocks:
            rows, local = by[a:b], along[a:b] - along[a]
            ev = stage_transitions(robot, limits, dlam, q_prev[a:b], pv_prev[a:b], qd[rows],
                                   qdd[rows], tau[rows], q_next, terms_next, grid.pv_values,
                                   check_count=check_count, candidates=screen)
            for name, count in ev.rejections().items():
                histogram[name] = histogram.get(name, 0) + count
            # the feasible evaluated lanes (rows of the stack), each with
            # its row, next node s and time step from the engine, reduced
            # per block to each next key's cheapest over the block's own
            # keys (local run, s); only the winners' global key (group, s),
            # cost, label (its tie position) and samples are gathered
            ok = np.flatnonzero(ev.ok)
            p, s = ev.row[ok], ev.node[ok]
            pos = rows[p]
            lane_cost = cost[pos] + ev.step[ok]
            win = _scatter_cheapest(local[p] * S + s, lane_cost, pos, (local[-1] + 1) * S)
            pos, s, row = pos[win], s[win], ok[win]
            winners.append((group[pos] * S + s, lane_cost[win], pos,
                            ev.qd[row], ev.qdd[row], ev.tau[row]))
            # free this block's arrays, and its screen's once no block reads
            # it, before the next call or screen builds its own
            del ev, screen
        return (*_cheapest(*map(np.concatenate, zip(*winners))), histogram)

    for i in range(grid.n_stages):
        # Labels with the same tail (the key without its oldest node, once
        # full) compete for the same next keys; group g then node s is
        # search k's next key tails[k][g - first[k]] + (s,), in key order.
        # (np.unique imports numpy.ma on first use: +0.5 MB resident.)
        # Search 0's groups and rows start at 0, so a lone search shifts
        # none of its arrays
        groups, tails, first = [], [], [0]
        for depth, key in zip(depths, keys):
            tail = key[:, 1:] if key.shape[1] > depth else key
            group, first_label = _groups(tail)
            groups.append(group + first[-1] if first[-1] else group)
            tails.append(tail[first_label])
            first.append(first[-1] + first_label.size)
        group = np.concatenate(groups) if n > 1 else groups[0]
        key, next_cost, pos, next_qd, next_qdd, next_tau, histogram = transition(
            i, node, group, cost, qd, qdd, tau)
        ends = [0, *(int(np.searchsorted(key, f * S)) for f in first[1:-1]), key.size]
        g, s = np.divmod(key, S)
        for k in range(n):
            a, b = ends[k], ends[k + 1]
            if a == b and k not in failed:
                # among other searches, a search that dies counts the edges
                # of its own labels alone
                rows = slice(begin[k], begin[k + 1])
                failed[k] = NoFeasiblePlan(i, histogram if n == 1 else transition(
                    i, node[rows], group[rows], cost[rows], qd[rows], qdd[rows], tau[rows])[-1])
            keys[k] = np.concatenate([tails[k][g[a:b] - first[k] if k else g[:b]],
                                      s[a:b, None]], axis=1)
            for record, x in zip(labels[k], (s[a:b], pos[a:b] - begin[k] if k else pos[:b],
                                             next_cost[a:b])):
                record.append(x)
        if 0 in failed:
            raise failed[0]
        node, cost, qd, qdd, tau, begin = s, next_cost, next_qd, next_qdd, next_tau, ends
    if failed:
        raise failed[min(failed)]
    return tuple(ValueMap(grid, limits, check_count, *map(tuple, record)) for record in labels)


def _blocks(lanes: Array, along: Array, max_groups: int):
    """Cut consecutive rows into engine blocks: (a, b) for rows a..b-1. A
    block's rows take at most LANE_BUDGET lanes in all (lanes per row) and
    span at most max_groups groups (along numbers each row's, ascending); a
    row that alone breaks a bound is a block of its own."""
    # the end of the longest block from each row that the lane and group
    # bounds allow, found for every row at once
    end = np.concatenate(([0], np.cumsum(lanes)))
    stop = np.minimum(np.searchsorted(end, end[:-1] + LANE_BUDGET, "right") - 1,
                      np.searchsorted(along, along + max_groups))
    a = 0
    while a < lanes.size:
        b = max(int(stop[a]), a + 1)
        yield a, b
        a = b


def _groups(key: Array) -> tuple[Array, Array]:
    """Rows of key (N, m) with equal bits: (group, first). group numbers
    each row's group in lexicographic order of the rows, and first holds
    each group's first row."""
    at = np.lexsort((np.arange(key.shape[0]), *key.T[::-1]))
    run, first = _runs(key[at])
    group = np.empty_like(run)
    group[at] = run
    return group, at[first]


def _cheapest(key: Array, cost: Array, pos: Array, *rest: Array) -> tuple:
    """Each key's entry of lowest cost, on a tie the one of lowest pos, in
    key order: key, cost, pos and every array of rest at those entries."""
    at = np.lexsort((pos, cost, key))
    first = np.ones(at.size, dtype=bool)
    first[1:] = key[at[1:]] != key[at[:-1]]
    at = at[first]
    return key[at], cost[at], pos[at], *(a[at] for a in rest)


def _scatter_cheapest(key: Array, cost: Array, pos: Array, slots: int) -> Array:
    """The entries _cheapest keeps, for keys in range(slots) with pos
    distinct within a key, found by two scatter-mins instead of a sort:
    their indices, in entry order."""
    best = np.full(slots, np.inf)
    np.minimum.at(best, key, cost)
    tie = np.flatnonzero(cost == best[key])
    key, pos = key[tie], pos[tie]
    lowest = np.full(slots, _NO_POS)
    np.minimum.at(lowest, key, pos)
    return tie[pos == lowest[key]]


def extract(value: ValueMap) -> PlanResult:
    """Walk the predecessor rows backward from the cheapest terminal label
    and replay its chain. Ties go to the lowest node id, then to the first
    label in key order; at depth 0 that is the lowest node id.

    Raises:
        CorruptChain: dangling predecessor pointer, or a replayed edge that
            fails its own feasibility check.
    """
    grid = value.grid
    n_stages = grid.n_stages
    row = np.lexsort((value.node[-1], value.cost[-1]))[0]    # stable: then key order
    ids = np.empty(n_stages + 1, dtype=np.int64)
    ids[n_stages] = value.node[-1][row]
    cost = float(value.cost[-1][row])
    for i in range(n_stages, 0, -1):
        row = value.pred[i][row]
        if row < 0:
            raise CorruptChain(f"dangling predecessor at stage {i}")
        ids[i - 1] = value.node[i - 1][row]
    return replay(grid, value.limits, value.check_count, ids, cost, value.reached_sets())


def replay(grid: StateGrid, limits: LimitSets, check_count: int, node_ids,
           cost: float, reached: ReachedSets) -> PlanResult:
    """Re-evaluate a node chain into a PlanResult in three engine calls.

    A call's rows are stages 0..N-1, its cells stages 1..N and its levels
    the grid's; edge i is the lane from row i into cell i at stage i + 1's
    level. Each call is fed the samples of the one before, shifted by a
    stage: call 1 gives the time steps and joint velocities, call 2 the
    accelerations and torques, call 3 the jerks, torque rates, check points
    and verdicts. Each lane computes what the sweep did for its edge, bit
    for bit, so the last time is the chain's cost. The chain's rigid-body
    terms are rows of grid.terms: a replay computes no dynamics terms of
    its own but at its check points. cost and reached pass through from
    the search.

    Raises:
        CorruptChain: the chain's rest start cannot hold still within the
            torque bound, or an edge has no time step or fails a check; the
            message names the start or the first such edge, and its failed
            orders.
    """
    n_stages = grid.n_stages
    L, C = grid.pv_values.size, grid.cfg_count
    ids = np.asarray(node_ids, dtype=np.int64)
    cell = (np.arange(n_stages + 1), ids % C)
    q, terms = grid.q_table[cell], grid.terms[cell]
    level = ids // C
    pv = grid.pv_values[level].astype(float)
    # qd, qdd and tau of stages 0..N, as far as the calls so far give them
    samples = np.full((3, n_stages + 1, grid.robot.n), np.nan)
    samples[:, :1] = initial_samples(grid.robot, terms[:1], pv[:1])
    if limits.tau is not None and not _order_ok(samples[2, 0], limits.tau):
        # as in the sweep: a rest start must hold still
        raise CorruptChain("replayed start at stage 0 is infeasible: tau")
    edge = np.arange(n_stages)
    screen = lane_screen(grid.robot, limits, grid.path.dlam, q[:-1], pv[:-1], q[1:], terms[1:],
                         grid.pv_values, (edge * L + level[1:]) * n_stages + edge)
    for count in (0, 0, check_count):
        ev = stage_transitions(grid.robot, limits, grid.path.dlam, q[:-1], pv[:-1],
                               *samples[:, :-1], q[1:], terms[1:], grid.pv_values,
                               check_count=count, candidates=screen)
        edges = ev.row
        samples[:, edges + 1] = ev.qd, ev.qdd, ev.tau
    ok = np.zeros(n_stages, dtype=bool)
    ok[edges] = ev.ok
    dt = np.concatenate(([0.0], ev.dt[edge, level[1:]]))
    if not ok.all():
        k = int(np.argmin(ok))
        # the edges before k passed, so k, if evaluated, is row k; an edge
        # with a time step that was not evaluated failed the velocity bound
        failed = [o for o, v in ev.verdicts.items() if not v[k]] if k in edges else ["qd"]
        cause = (f"is infeasible: {', '.join(failed)}" if np.isfinite(dt[k + 1])
                 else "has no time step")
        raise CorruptChain(f"replayed edge into stage {k + 1} {cause}")
    rest = np.full((1, grid.robot.n), 0.0 if pv[0] == 0.0 else np.nan)
    profile = TrajectoryProfile(t=np.cumsum(dt), dt=dt, lam=grid.path.lam.copy(), pv=pv, q=q,
                                qd=samples[0], qdd=samples[1], tau=samples[2],
                                qddd=np.concatenate((rest, ev.qddd)),
                                taud=np.concatenate((rest, ev.taud)))
    return PlanResult(cost=float(cost), node_ids=ids, profile=profile,
                      saturation=saturation_percentage(profile, limits),
                      reached=reached, history_orders=limits.history_dependent_orders,
                      grid=grid, limits=limits, check_count=check_count)
