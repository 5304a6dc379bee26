"""Exact ground truth, plus gap measurement against the DP result.

The DP search pins each node's derivative history to its cheapest
predecessor. The oracle runs the same forward sweep with labels keyed by a
chain's last three nodes (depth 2), state augmentation for a cost and a
feasibility test of higher Markov order (Bertsekas, Dynamic Programming
and Optimal Control, Vol. I). That is exact: the edge into stage i + 1
reads qd_i (nodes i - 1 and i), qdd_i and tau_i (nodes i - 2 to i), and
the Coulomb exemption reads qd_i, while the check points are edge-local.
So chains that share their last three nodes carry bitwise the same samples
and meet the same future edges, and since IEEE addition is monotone the
cheapest label equals the cheapest feasible chain, bit for bit.

On velocity-only runs the two searches must agree; with history-dependent
orders enabled the DP cost can only be higher, and compare() quantifies
and attributes that gap. Both searches run the same sweep and replay, so
they differ only in the histories they keep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import ORDERS, LimitSets
from .errors import BudgetExceeded, ContractViolation, ScenarioError, as_int
from .grid import StateGrid
from .planner import PlanResult, _sweep, extract, plan

# keys of HISTORY_DEPTH + 1 nodes carry every sample an edge reads
HISTORY_DEPTH = 2


@dataclass(frozen=True)
class OracleBudget:
    """Guard rails of the exact search, checked before any work.

    max_labels caps the labels the sweep could keep, bounded above by the
    sum over stages i of the product of the admissible counts of stages
    max(0, i - 2) to i; max_cells caps the grid's admissible nodes. Both
    must be positive; max_labels may be infinite (no cap).
    """

    max_labels: float = 2e6
    max_cells: int = 20000

    def __post_init__(self):
        object.__setattr__(self, "max_cells", as_int(self.max_cells, "oracle max_cells"))
        if not (self.max_labels > 0 and self.max_cells > 0):    # NaN fails
            raise ScenarioError(f"oracle budget must be positive, got max_labels "
                                f"{self.max_labels!r} and max_cells {self.max_cells!r}")


@dataclass(frozen=True)
class GapReport:
    """DP-vs-oracle comparison on one shared instance.

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


def exhaustive_plan(grid: StateGrid, limits: LimitSets,
                    budget: OracleBudget | None = None,
                    check_count: int = 0) -> PlanResult:
    """Minimum-duration feasible chain over every history: plan()'s sweep
    with labels keyed by a chain's last three nodes.

    The cost equals the cheapest feasible chain's bit for bit, and the
    reached sets are the exact feasible-prefix sets. The chain ends at the
    cheapest terminal label (the lowest node id, then the smallest key, on
    ties) and follows predecessor labels back; ties keep the predecessor
    label with the smallest key.

    Raises:
        BudgetExceeded: the grid has more admissible nodes than
            budget.max_cells, or the label bound exceeds budget.max_labels.
        NoFeasiblePlan: no admissible chain satisfies the constraints; as
            from plan(), it carries the stage where the sweep died and the
            rejection histogram of the transition out of it.
    """
    budget = budget if budget is not None else OracleBudget()
    if grid.total_admissible > budget.max_cells:
        raise BudgetExceeded(f"grid has {grid.total_admissible} admissible nodes, "
                             f"budget allows {budget.max_cells}")
    counts = grid.admissible_counts
    bound = sum(math.prod(counts[max(0, i - HISTORY_DEPTH):i + 1])
                for i in range(len(counts)))
    if bound > budget.max_labels:
        raise BudgetExceeded(f"the search may keep up to {bound:.3g} labels, "
                             f"budget allows {budget.max_labels:.3g}")
    return extract(_sweep(grid, limits, check_count, None, depth=HISTORY_DEPTH))


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
    """Measure the DP approximation gap against the exact optimum.

    Both results must come from the same grid, limits, and check-point
    count; their costs are plan durations. When the gap is positive and
    attribute is set, the enabled orders are added back one at a time
    (cheapest first) and each one's gap increment is recorded.

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
            f"DP cost {dp_result.cost!r} beats the exact optimum "
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
