"""Forward dynamic programming over the state grid.

The sweep visits stages in order and carries labels: partial chains keyed
by the node ids of their last depth + 1 stages (fewer near the start), each
with its cost, its predecessor label and the cached qd/qdd/tau samples of
its last node. At each transition the constraint engine scores every label
against every admissible next node of every level (optionally restricted by
a level/lattice window before any evaluation), screening by joint velocity
before the higher orders. Key k followed by node f gives k[1:] + (f,) once
k is full, k + (f,) before; each next key keeps its cheapest predecessor
label, on a tie the one with the smallest key, so results are
bit-reproducible. A chain's cost is its duration, the sum of its time
steps. There is one engine call per stage and block of labels; the blocks
bound the engine's memory, and they take the labels cell by cell, so that
a block's labels end in few configurations and the engine shares each
one's velocity work among them. Each block's feasible lanes are reduced to one
entry per next key, and the blocks' entries once more, so a stage holds
no table over all next keys. The labels are the search's whole record:
extract() starts from the cheapest terminal label and follows the
predecessor rows.

plan() sweeps at depth 0, where a label is a node and ties keep the lowest
predecessor id, the lexicographically smallest (level, lattice index,
branch). Its orders above joint velocity see only the winning predecessor's
history, so for them it is a conservative approximation (exact when only
velocity-type constraints are enabled). The oracle sweeps at depth 2, which
keeps every history an edge reads and is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import (LimitSets, TrajectoryProfile, _groups, initial_samples,
                          saturation_percentage, stage_transitions)
from .errors import CorruptChain, NoFeasiblePlan, ScenarioError, as_int
from .grid import StateGrid

Array = np.ndarray

# candidate lanes (predecessor rows x next-stage nodes) of one engine call: they
# bound its (group, lane) pairs, evaluated lanes and lane lists, so its memory
LANE_BUDGET = 65536


@dataclass(frozen=True)
class Window:
    """Optional per-stage candidate restriction (speed/optimality knob).

    Edges whose endpoints differ by more than max_dl levels or max_dj
    lattice steps (per parameter) are skipped before they are evaluated,
    so a tighter window saves work. None disables a bound; a bound is
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
    return extract(_sweep(grid, limits, check_count, window))


def _sweep(grid, limits, check_count, window, depth=0):
    """Forward sweep over labels keyed by their last depth + 1 nodes into
    a ValueMap. NoFeasiblePlan carries the stage a transition left no label
    from, and that transition's rejection histogram."""
    L, C = grid.level_count, grid.cfg_count
    S = L * C
    start = grid.stage_ids(0)
    keys, cost = start[:, None], np.zeros(start.size)
    label_node, label_pred, label_cost = [start], [np.full(start.size, -1)], [cost]
    qd, qdd, tau = initial_samples(grid.robot, grid.q_table[0, start % C],
                                   grid.pv_values[start // C])

    lattice_rows = None
    if window is not None and window.max_dj is not None:
        lattice_rows = grid.cell_lattice()
    rows_per_block = max(1, LANE_BUDGET // S)
    # the rigid-body terms depend on the cell alone: once per grid
    terms = grid.robot.rigid_terms(grid.q_table)

    for i in range(grid.n_stages):
        # Labels with the same tail (the key without its oldest node, once
        # full) compete for the same next keys. order sorts by tail, then
        # key, so ties keep the smallest key; group g then node s is the
        # next key tails[g] + (s,), and reached (g, s) come in key order.
        # (np.unique imports numpy.ma on first use: +0.5 MB resident.)
        tail = keys[:, 1:] if keys.shape[1] > depth else keys
        group, first_label, order = _groups(tail)
        group, tails = group[order], tail[first_label]
        node = keys[:, -1]
        q_prev = grid.q_table[i, node % C]
        pv_prev = grid.pv_values[node // C]
        histogram, winners = {}, []

        # the window's level bound (P, L) and lattice bound (P, C)
        level_ok = lattice_ok = None
        if window is not None and window.max_dl is not None:
            level_ok = np.abs(node[:, None] // C - np.arange(L)) <= window.max_dl
        if lattice_rows is not None:
            dj = np.abs(lattice_rows[node % C][:, None, :] - lattice_rows[None, :, :])
            lattice_ok = np.all(dj <= window.max_dj, axis=-1)

        # the blocks take the labels cell by cell, in key order within a
        # cell: a block's labels then end in few configurations, which the
        # engine's velocity part runs once each. at holds positions in
        # order, the tie rule's pos
        by_cell = np.argsort(node[order] % C, kind="stable")
        for first in range(0, order.size, rows_per_block):
            at = by_cell[first:first + rows_per_block]
            rows = order[at]
            # a window's bounds differ from row to row: list the block's lanes
            candidates = grid.admissible[i + 1]
            if level_ok is not None or lattice_ok is not None:
                if level_ok is not None:
                    candidates = candidates & level_ok[rows, :, None]
                if lattice_ok is not None:
                    candidates = candidates & lattice_ok[rows, None, :]
                candidates = np.flatnonzero(candidates)
            ev = stage_transitions(grid.robot, limits, grid.path.dlam, q_prev[rows],
                                   pv_prev[rows], qd[rows], qdd[rows], tau[rows],
                                   grid.q_table[i + 1], terms[i + 1], grid.pv_values,
                                   check_count=check_count, candidates=candidates)
            for name, count in ev.rejections().items():
                histogram[name] = histogram.get(name, 0) + count
            # the feasible evaluated lanes (rows of the stack): next key
            # (group, s), cost and position in order, reduced per block to
            # each key's cheapest; only the winners' samples are gathered
            ok = np.flatnonzero(ev.ok)
            p, s = np.divmod(ev.lanes[ok], S)
            *best, row = _cheapest(group[at[p]] * S + s, cost[rows[p]] + ev.dt[p, s // C],
                                   at[p], ok)
            winners.append((*best, ev.qd[row], ev.qdd[row], ev.tau[row]))
            # free this block's arrays before the next block's call builds its own
            del ev

        key, cost, pos, qd, qdd, tau = _cheapest(*map(np.concatenate, zip(*winners)))
        if not key.size:
            raise NoFeasiblePlan(i, histogram)
        g, s = np.divmod(key, S)
        keys = np.concatenate([tails[g], s[:, None]], axis=1)
        label_node.append(s)
        label_pred.append(order[pos])
        label_cost.append(cost)

    return ValueMap(grid, limits, check_count, tuple(label_node), tuple(label_pred),
                    tuple(label_cost))


def _cheapest(key: Array, cost: Array, pos: Array, *rest: Array) -> tuple:
    """Each key's entry of lowest cost, on a tie the one of lowest pos, in
    key order: key, cost, pos and every array of rest at those entries."""
    at = np.lexsort((pos, cost, key))
    first = np.ones(at.size, dtype=bool)
    first[1:] = key[at[1:]] != key[at[:-1]]
    at = at[first]
    return key[at], cost[at], pos[at], *(a[at] for a in rest)


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
    for bit, so the last time is the chain's cost. cost and reached pass
    through from the search.

    Raises:
        CorruptChain: an edge has no time step or fails a check; the
            message names the first such edge and its failed orders.
    """
    n_stages = grid.n_stages
    L, C = grid.pv_values.size, grid.cfg_count
    ids = np.asarray(node_ids, dtype=np.int64)
    q = grid.q_table[np.arange(n_stages + 1), ids % C]
    level = ids // C
    pv = grid.pv_values[level].astype(float)
    # qd, qdd and tau of stages 0..N, as far as the calls so far give them
    samples = np.full((3, n_stages + 1, grid.robot.n), np.nan)
    samples[:, :1] = initial_samples(grid.robot, q[:1], pv[:1])
    terms = grid.robot.rigid_terms(q)
    edge = np.arange(n_stages)
    for count in (0, 0, check_count):
        ev = stage_transitions(grid.robot, limits, grid.path.dlam, q[:-1], pv[:-1],
                               *samples[:, :-1], q[1:], terms[1:], grid.pv_values,
                               check_count=count,
                               candidates=(edge * L + level[1:]) * n_stages + edge)
        edges = ev.lanes // (L * n_stages)
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
