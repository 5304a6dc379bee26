"""Brute-force ground truth: depth-first enumeration of every admissible
node chain with full (per-chain) history, plus gap measurement against the
DP result.

The DP search pins each node's derivative history to its cheapest
predecessor; enumeration carries every chain's own history, so its optimum
is exact. On velocity-only runs the two must agree; with history-dependent
orders enabled the DP cost can only be higher (it explores a subset of
histories), and compare() quantifies and attributes that gap. Both searches
score edges with the same stage engine and turn their winning chain into a
result with the same replay, so they differ only in the histories they keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import ORDERS, LimitSets, NodeState, initial_state, stage_transitions
from .errors import BudgetExceeded, ContractViolation, NoFeasiblePlan, ScenarioError
from .grid import StateGrid
from .planner import PlanResult, ReachedSets, plan, replay

Array = np.ndarray


@dataclass(frozen=True)
class OracleBudget:
    """Enumeration guard rails; exceeded budgets abort before any work."""

    max_chains: float = 2e6
    max_cells: int = 20000

    def __post_init__(self):
        if self.max_chains <= 0 or self.max_cells <= 0:
            raise ScenarioError("oracle budget must be positive")


@dataclass(frozen=True)
class GapReport:
    """DP-vs-enumeration comparison on one shared instance.

    attribution maps each enabled constraint order to the gap increment it
    introduces when added cumulatively (edge-local orders contribute 0);
    the increments telescope to the total gap.
    """

    oracle_cost: float
    dp_cost: float
    gap: float
    relative_gap: float
    attribution: dict

    def to_dict(self) -> dict:
        return {"oracle_cost": self.oracle_cost, "dp_cost": self.dp_cost,
                "gap": self.gap, "relative_gap": self.relative_gap,
                "attribution": dict(self.attribution)}


def _chain_count(grid: StateGrid) -> float:
    return math.prod(map(float, grid.admissible_counts))


def _by_level(grid: StateGrid, stage: int, ids: Array) -> list:
    """One stage's nodes as (pv, flat ids, configurations) per level, with
    levels and ids ascending, so visiting them in turn is ascending id order."""
    C = grid.cfg_count
    out = []
    for level in np.unique(ids // C):
        at = ids[ids // C == level]
        out.append((float(grid.pv_values[level]), at, grid.q_table[stage, at % C]))
    return out


def exhaustive_plan(grid: StateGrid, limits: LimitSets,
                    budget: OracleBudget | None = None,
                    check_count: int = 0, prune: bool = True) -> PlanResult:
    """Minimum-duration feasible chain by depth-first enumeration.

    Every chain carries its own full derivative history (no back-pointer
    approximation). A node's children are scored with the sweep's engine,
    one stage_transitions call (P = 1) per next-stage level, and visited in
    ascending node id. On cost ties the first chain in that depth-first
    order wins, which is the lexicographically smallest chain. The winner is
    replayed edge by edge like a DP result.

    Cost-bound pruning (each remaining edge takes at least dlam / pv_max)
    preserves the optimum and the tie-break, but subtrees it cuts are not
    explored, so the reached sets are then a subset of all feasible-prefix
    nodes; pass prune=False for exact sets.

    Raises:
        BudgetExceeded: the instance is too large to enumerate.
        NoFeasiblePlan: no admissible chain satisfies the constraints.
    """
    budget = budget if budget is not None else OracleBudget()
    if grid.total_admissible > budget.max_cells:
        raise BudgetExceeded(f"grid has {grid.total_admissible} admissible nodes, "
                             f"budget allows {budget.max_cells}")
    count = _chain_count(grid)
    if count > budget.max_chains:
        raise BudgetExceeded(f"instance has {count:.3g} chains, "
                             f"budget allows {budget.max_chains:.3g}")

    n = grid.n_stages
    C = grid.cfg_count
    robot = grid.robot
    dlam = grid.path.dlam
    levels = [_by_level(grid, i, grid.stage_ids(i)) for i in range(n + 1)]
    lb_step = dlam / float(grid.pv_values[-1])

    best_cost = np.inf
    best_chain: list | None = None
    reached = [set() for _ in range(n + 1)]
    histogram: dict = {}
    deepest = 0

    def descend(i, state, partial, chain):
        nonlocal best_cost, best_chain, deepest
        if i == n:
            if partial < best_cost:
                best_cost = partial
                best_chain = chain.copy()
            return
        q_prev = state.q[None, :]
        pv_prev = np.array([state.pv])
        for pv_next, ids, q_next in levels[i + 1]:
            ev = stage_transitions(robot, limits, dlam, q_prev, pv_prev, state.qd[None, :],
                                   state.qdd[None, :], state.tau[None, :], q_next, pv_next,
                                   check_count=check_count)
            for key, count in ev.rejections().items():
                histogram[key] = histogram.get(key, 0) + count
            new_cost = partial + float(ev.dt[0])
            for c in np.flatnonzero(ev.feasible[0]):
                f = int(ids[c])
                reached[i + 1].add(f)
                deepest = max(deepest, i + 1)
                if prune and new_cost + (n - (i + 1)) * lb_step >= best_cost:
                    continue
                chain.append(f)
                descend(i + 1, NodeState(q=q_next[c], pv=pv_next, qd=ev.qd[0, c],
                                         qdd=ev.qdd[0, c], tau=ev.tau[0, c]),
                        new_cost, chain)
                chain.pop()

    for f0 in grid.stage_ids(0):
        q0 = grid.q_table[0, f0 % C]
        pv0 = float(grid.pv_values[f0 // C])
        reached[0].add(int(f0))
        descend(0, initial_state(robot, q0, pv0), 0.0, [int(f0)])

    if best_chain is None:
        raise NoFeasiblePlan(deepest, histogram)
    reached_sets = ReachedSets(tuple(np.array(sorted(s), dtype=np.int64) for s in reached))
    return replay(grid, limits, check_count, best_chain, best_cost, reached_sets)


def _same_limits(a: LimitSets, b: LimitSets) -> bool:
    for order in ORDERS:
        x, y = a.bound(order), b.bound(order)
        if (x is None) != (y is None):
            return False
        if x is not None and not np.array_equal(x, y):
            return False
    return True


def compare(dp_result: PlanResult, oracle_result: PlanResult,
            budget: OracleBudget | None = None, attribute: bool = True,
            tolerance: float = 1e-12) -> GapReport:
    """Measure the DP approximation gap against the enumeration optimum.

    Both results must come from the same grid, limits, and check-point
    count; their costs are plan durations. When
    the gap is positive and attribute is set, the enabled orders are added
    back one at a time (cheapest first) and each one's gap increment is
    recorded.

    Raises:
        ScenarioError: results from different instances.
        ContractViolation: DP cost below the oracle cost beyond tolerance
            (one of the two searches is broken).
    """
    if dp_result.grid.signature() != oracle_result.grid.signature():
        raise ScenarioError("gap comparison needs results from the same grid")
    if not _same_limits(dp_result.limits, oracle_result.limits):
        raise ScenarioError("gap comparison needs identical limit sets")
    if dp_result.check_count != oracle_result.check_count:
        raise ScenarioError("gap comparison needs the same check-point count")

    gap = dp_result.cost - oracle_result.cost
    if gap < -tolerance:
        raise ContractViolation(
            f"DP cost {dp_result.cost!r} beats the exhaustive optimum "
            f"{oracle_result.cost!r}; one of the searches is unsound")
    relative = gap / oracle_result.cost if oracle_result.cost > 0 else 0.0

    enabled = dp_result.limits.enabled_orders
    attribution = {order: 0.0 for order in enabled}
    if attribute and gap > tolerance:
        grid = dp_result.grid
        check_count = dp_result.check_count
        prev_gap = 0.0
        for k, order in enumerate(enabled):
            subset = dp_result.limits.disable(*enabled[k + 1:])
            if order == enabled[-1]:
                gap_k = gap
            else:
                dp_k = plan(grid, subset, check_count=check_count)
                oracle_k = exhaustive_plan(grid, subset, budget=budget,
                                           check_count=check_count)
                gap_k = dp_k.cost - oracle_k.cost
            attribution[order] = gap_k - prev_gap
            prev_gap = gap_k
    return GapReport(oracle_cost=oracle_result.cost, dp_cost=dp_result.cost,
                     gap=gap, relative_gap=relative, attribution=attribution)
