"""Forward dynamic programming over the state grid.

The sweep visits stages in order; at each transition every reached
predecessor is scored against every admissible next node (optionally
restricted by a level/lattice window), edge feasibility and time step come
from the constraint engine, and each next node keeps its cheapest
predecessor. The cost of a chain is its duration: the sum of its time
steps. Ties prefer the predecessor with the lexicographically
smallest (level, lattice index, branch), which ascending flat node ids
encode directly, so results are bit-reproducible. The sweep runs on one
thread, one vectorized call per (stage, level).

Joint-space quantities above first order are evaluated through the winning
predecessor's cached history; their feasibility is therefore
history-dependent and the search is a conservative approximation for those
orders (exact when only velocity-type constraints are enabled).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import (LimitSets, TrajectoryProfile, evaluate_edge, initial_state,
                          saturation_percentage, stage_transitions)
from .errors import CorruptChain, InfeasibleEdge, NoFeasiblePlan
from .grid import StateGrid

Array = np.ndarray


@dataclass(frozen=True)
class Window:
    """Optional per-stage candidate restriction (speed/optimality knob).

    Edges whose endpoints differ by more than max_dl levels or max_dj
    lattice steps (per parameter) are skipped. None disables a bound.
    """

    max_dl: int | None = None
    max_dj: int | None = None


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
    """Cumulative cost and predecessor id for every node of every stage."""

    grid: StateGrid
    limits: LimitSets
    check_count: int
    cost: Array        # (N_i + 1, L * C), +inf where unreached
    pred: Array        # (N_i + 1, L * C), -1 where no predecessor

    def reached(self, i: int) -> Array:
        return np.flatnonzero(np.isfinite(self.cost[i]))

    def reached_sets(self) -> ReachedSets:
        n = self.grid.n_stages
        return ReachedSets(tuple(self.reached(i) for i in range(n + 1)))


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

    @property
    def timestamps(self) -> Array:
        return self.profile.t


def _initial_chain_state(grid: StateGrid, node_ids: Array):
    """Stage-0 cached samples: exact zeros at rest, NaN for moving starts."""
    C = grid.cfg_count
    n = grid.robot.n
    qd = np.full((node_ids.size, n), np.nan)
    qdd = np.full((node_ids.size, n), np.nan)
    tau = np.full((node_ids.size, n), np.nan)
    for k, f in enumerate(node_ids):
        state = initial_state(grid.robot, grid.q_table[0, f % C], grid.pv_values[f // C])
        qd[k], qdd[k], tau[k] = state.qd, state.qdd, state.tau
    return qd, qdd, tau


def plan(grid: StateGrid, limits: LimitSets, check_count: int = 0,
         window: Window | None = None) -> PlanResult:
    """Run the full forward sweep and extract the time-optimal plan.

    Raises:
        NoFeasiblePlan: no feasible chain reaches the terminal set; carries
            the deepest stage reached and per-order counts of failed edge
            checks at the transition that died.
    """
    value, histogram = _sweep(grid, limits, check_count, window)
    n = grid.n_stages
    terminal = grid.stage_ids(n)
    finite = np.isfinite(value.cost[n, terminal])
    if not np.any(finite):
        raise NoFeasiblePlan(n, histogram)
    candidates = terminal[finite]
    best = candidates[np.argmin(value.cost[n, candidates])]
    return extract(value, int(best))


def _sweep(grid, limits, check_count, window):
    n_stages = grid.n_stages
    C = grid.cfg_count
    S = grid.level_count * C
    cost = np.full((n_stages + 1, S), np.inf)
    pred = np.full((n_stages + 1, S), -1, dtype=np.int64)

    start = grid.stage_ids(0)
    cost[0, start] = 0.0
    qd_cur, qdd_cur, tau_cur = np.full((3, S, grid.robot.n), np.nan)
    chain0 = _initial_chain_state(grid, start)
    qd_cur[start], qdd_cur[start], tau_cur[start] = chain0

    lattice_rows = None
    if window is not None and window.max_dj is not None:
        lattice_rows = grid.cell_lattice()

    histogram: dict = {}
    for i in range(n_stages):
        prev_ids = np.flatnonzero(np.isfinite(cost[i]))
        q_prev = grid.q_table[i, prev_ids % C]
        pv_prev = grid.pv_values[prev_ids // C]
        qd_p, qdd_p, tau_p = qd_cur[prev_ids], qdd_cur[prev_ids], tau_cur[prev_ids]
        cost_p = cost[i, prev_ids]
        qd_cur, qdd_cur, tau_cur = np.full((3, S, grid.robot.n), np.nan)
        histogram = {}
        reached_any = False

        for l_next in range(grid.level_count):
            cols = np.flatnonzero(grid.admissible[i + 1, l_next])
            if cols.size == 0:
                continue
            pv_next = float(grid.pv_values[l_next])
            q_next = grid.q_table[i + 1, cols]
            ev = stage_transitions(grid.robot, limits, grid.path.dlam, q_prev, pv_prev,
                                   qd_p, qdd_p, tau_p, q_next, pv_next,
                                   check_count=check_count)
            for key, count in ev.rejections().items():
                histogram[key] = histogram.get(key, 0) + count
            feasible = ev.feasible
            if window is not None and window.max_dl is not None:
                row_ok = np.abs(prev_ids // C - l_next) <= window.max_dl
                feasible = feasible & row_ok[:, None]
            if lattice_rows is not None:
                dj = np.abs(lattice_rows[prev_ids % C][:, None, :]
                            - lattice_rows[cols][None, :, :])
                feasible = feasible & np.all(dj <= window.max_dj, axis=-1)
            cand = np.where(feasible, cost_p[:, None] + ev.dt[:, None], np.inf)
            best_p = np.argmin(cand, axis=0)
            best_cost = cand[best_p, np.arange(cols.size)]
            hit = np.flatnonzero(np.isfinite(best_cost))
            if hit.size:
                reached_any = True
                f = l_next * C + cols[hit]
                win = (best_p[hit], hit)
                cost[i + 1, f] = best_cost[hit]
                pred[i + 1, f] = prev_ids[best_p[hit]]
                qd_cur[f], qdd_cur[f], tau_cur[f] = ev.qd[win], ev.qdd[win], ev.tau[win]

        if not reached_any:
            raise NoFeasiblePlan(i, histogram)

    value = ValueMap(grid=grid, limits=limits, check_count=check_count,
                     cost=cost, pred=pred)
    return value, histogram


def extract(value: ValueMap, terminal: int) -> PlanResult:
    """Walk the predecessor map backward and replay the winning chain.

    Raises:
        CorruptChain: unreached terminal, dangling predecessor pointer, or
            a replayed edge that fails its own feasibility check.
    """
    grid = value.grid
    n_stages = grid.n_stages
    if not np.isfinite(value.cost[n_stages, terminal]):
        raise CorruptChain(f"terminal node {terminal} was never reached")
    ids = np.empty(n_stages + 1, dtype=np.int64)
    ids[n_stages] = terminal
    for i in range(n_stages, 0, -1):
        p = value.pred[i, ids[i]]
        if p < 0:
            raise CorruptChain(f"dangling predecessor at stage {i}")
        ids[i - 1] = p
    return replay(grid, value.limits, value.check_count, ids,
                  float(value.cost[n_stages, terminal]), value.reached_sets())


def replay(grid: StateGrid, limits: LimitSets, check_count: int, node_ids,
           cost: float, reached: ReachedSets) -> PlanResult:
    """Re-evaluate a node chain edge by edge into a PlanResult.

    Each edge goes through the same engine as the sweep, so the timestamps
    come out bit-identical and the last one equals the chain's cost. cost
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
    robot = result.grid.robot
    idx = list(robot.chain.redundancy_indices)
    triples = []
    for i in range(result.profile.n_stages + 1):
        v = result.profile.q[i, idx]
        v_out = float(v[0]) if len(idx) == 1 else tuple(float(x) for x in v)
        triples.append((float(result.profile.lam[i]), v_out, float(result.profile.pv[i])))
    return triples
