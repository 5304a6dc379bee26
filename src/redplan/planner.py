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
bound the peak memory. The labels are the search's whole record: extract()
starts from the cheapest terminal label and follows the predecessor rows.

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

from .constraints import (LimitSets, TrajectoryProfile, evaluate_edge, initial_state,
                          saturation_percentage, stage_transitions)
from .errors import CorruptChain, InfeasibleEdge, NoFeasiblePlan, ScenarioError, as_int
from .grid import StateGrid

Array = np.ndarray

# lanes (predecessor rows x next-stage nodes) of one engine call; larger
# blocks raise the sweep's peak memory
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

    def __getitem__(self, i: int) -> Array:
        return self.node_ids[i]

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
    n = grid.robot.n
    start = grid.stage_ids(0)
    keys, cost = start[:, None], np.zeros(start.size)
    label_node, label_pred, label_cost = [start], [np.full(start.size, -1)], [cost]
    # stage-0 samples: exact zeros at rest, NaN for moving starts
    states = [initial_state(grid.robot, grid.q_table[0, f % C], grid.pv_values[f // C])
              for f in start]
    qd, qdd, tau = (np.array([getattr(st, k) for st in states]) for k in ("qd", "qdd", "tau"))

    lattice_rows = None
    if window is not None and window.max_dj is not None:
        lattice_rows = grid.cell_lattice()
    rows_per_block = max(1, LANE_BUDGET // S)

    for i in range(grid.n_stages):
        # Labels with the same tail (the key without its oldest node, once
        # full) compete for the same next keys. order sorts by tail, then
        # key, so ties keep the smallest key; group g then node s is the
        # next key tails[g] + (s,), and reached (g, s) come in key order.
        # (np.unique imports numpy.ma on first use: +0.5 MB resident.)
        tail = keys[:, 1:] if keys.shape[1] > depth else keys
        order = np.lexsort((np.arange(len(keys)), *tail.T[::-1]))
        tail = tail[order]
        new_tail = np.ones(len(tail), dtype=bool)
        new_tail[1:] = np.any(tail[1:] != tail[:-1], axis=1)
        group = np.cumsum(new_tail) - 1
        tails = tail[new_tail]
        node = keys[:, -1]
        q_prev = grid.q_table[i, node % C]
        pv_prev = grid.pv_values[node // C]
        best_cost = np.full((tails.shape[0], S), np.inf)
        best_row = np.full((tails.shape[0], S), -1)
        next_qd, next_qdd, next_tau = np.full((3, tails.shape[0], S, n), np.nan)
        histogram = {}

        # the window's level bound (P, L) and lattice bound (P, C)
        level_ok = lattice_ok = None
        if window is not None and window.max_dl is not None:
            level_ok = np.abs(node[:, None] // C - np.arange(L)) <= window.max_dl
        if lattice_rows is not None:
            dj = np.abs(lattice_rows[node % C][:, None, :] - lattice_rows[None, :, :])
            lattice_ok = np.all(dj <= window.max_dj, axis=-1)

        for first in range(0, order.size, rows_per_block):
            rows = order[first:first + rows_per_block]
            candidates = np.broadcast_to(grid.admissible[i + 1], (rows.size, L, C))
            if level_ok is not None:
                candidates = candidates & level_ok[rows, :, None]
            if lattice_ok is not None:
                candidates = candidates & lattice_ok[rows, None, :]
            ev = stage_transitions(grid.robot, limits, grid.path.dlam, q_prev[rows],
                                   pv_prev[rows], qd[rows], qdd[rows], tau[rows],
                                   grid.q_table[i + 1], grid.pv_values,
                                   check_count=check_count, candidates=candidates)
            for key, count in ev.rejections().items():
                histogram[key] = histogram.get(key, 0) + count
            cand = np.where(ev.feasible, (cost[rows, None] + ev.dt)[:, :, None], np.inf)
            cand = cand.reshape(rows.size, S)
            # the block's groups, consecutive ids, and the rows where each starts
            block = group[first:first + rows_per_block]
            g = np.arange(block[0], block[-1] + 1)
            win = _first_argmin(cand, np.searchsorted(block, g))
            win_cost = cand[win, np.arange(S)]
            # a later block holds later labels of a group: it wins a next key
            # only on a strictly lower cost, so ties keep the smallest key
            run, s = np.nonzero(win_cost < best_cost[g])
            if run.size:
                lane = ev.rows(win[run, s] * S + s)
                at = g[run], s
                best_cost[at] = win_cost[run, s]
                best_row[at] = rows[win[run, s]]
                next_qd[at], next_qdd[at], next_tau[at] = ev.qd[lane], ev.qdd[lane], ev.tau[lane]
            # free this block's arrays before the next block's call builds its own
            del ev, cand

        reached = np.flatnonzero(np.isfinite(best_cost))
        if not reached.size:
            raise NoFeasiblePlan(i, histogram)
        g, s = np.divmod(reached, S)
        keys = np.concatenate([tails[g], s[:, None]], axis=1)
        cost, pred = best_cost.ravel()[reached], best_row.ravel()[reached]
        qd, qdd, tau = (a.reshape(-1, n)[reached] for a in (next_qd, next_qdd, next_tau))
        label_node.append(s)
        label_pred.append(pred)
        label_cost.append(cost)

    return ValueMap(grid, limits, check_count, tuple(label_node), tuple(label_pred),
                    tuple(label_cost))


def _first_argmin(table: Array, runs: Array) -> Array:
    """(len(runs), columns): for each run of rows of table, starting at the
    row indices runs, the row of each column's first minimum."""
    if runs.size == 1:          # always at depth 0
        return np.argmin(table, axis=0)[None]
    low = np.repeat(np.minimum.reduceat(table, runs, axis=0),
                    np.diff(runs, append=len(table)), axis=0)
    hit = np.where(table == low, np.arange(len(table))[:, None], len(table))
    return np.minimum.reduceat(hit, runs, axis=0)


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
    """Re-evaluate a node chain edge by edge into a PlanResult.

    Each edge goes through the same engine as the sweep, so the times come
    out bit-identical and the last one equals the chain's cost. cost
    and reached are the producing search's own and are passed through.

    Raises:
        CorruptChain: an edge of the chain is infeasible or has no time step.
    """
    n_stages = grid.n_stages
    C = grid.cfg_count
    n = grid.robot.n
    ids = np.asarray(node_ids, dtype=np.int64)
    q = np.array([grid.q_table[i, ids[i] % C] for i in range(n_stages + 1)])
    pv = grid.pv_values[ids // C].astype(float)
    t = np.zeros(n_stages + 1)
    dt = np.zeros(n_stages + 1)
    qd, qdd, qddd, tau, taud = np.full((5, n_stages + 1, n), np.nan)

    state = initial_state(grid.robot, q[0], float(pv[0]))
    qd[0], qdd[0], tau[0] = state.qd, state.qdd, state.tau
    if pv[0] == 0.0:
        qddd[0] = 0.0
        taud[0] = 0.0
    for i in range(1, n_stages + 1):
        try:
            ev = evaluate_edge(grid.robot, limits, grid.path.dlam, state,
                               q[i], float(pv[i]), check_count=check_count)
        except InfeasibleEdge as exc:
            raise CorruptChain(f"replayed edge into stage {i}: {exc}") from exc
        if not ev.feasible:
            raise CorruptChain(f"replayed edge into stage {i} is infeasible")
        dt[i] = ev.dt
        t[i] = t[i - 1] + ev.dt
        qd[i], qdd[i], qddd[i] = ev.qd, ev.qdd, ev.qddd
        tau[i], taud[i] = ev.tau, ev.taud
        state = ev.next_state(q[i], float(pv[i]))

    profile = TrajectoryProfile(t=t, dt=dt, lam=grid.path.lam.copy(), pv=pv,
                                q=q, qd=qd, qdd=qdd, qddd=qddd, tau=tau, taud=taud)
    return PlanResult(cost=float(cost), node_ids=ids, profile=profile,
                      saturation=saturation_percentage(profile, limits),
                      reached=reached, history_orders=limits.history_dependent_orders,
                      grid=grid, limits=limits, check_count=check_count)


def pst(result: PlanResult) -> list:
    """Phase-space trajectory: one (lambda, v, pseudo-velocity) triple per
    stage, v scalar for a single redundancy parameter."""
    idx = list(range(result.grid.robot.r))
    triples = []
    for i in range(result.profile.n_stages + 1):
        v = result.profile.q[i, idx]
        v_out = float(v[0]) if len(idx) == 1 else tuple(float(x) for x in v)
        triples.append((float(result.profile.lam[i]), v_out, float(result.profile.pv[i])))
    return triples
