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
they differ only in the histories they keep. The attribution searches
again only the subsets of orders whose gap it cannot derive: an order
bounded by +inf on every joint rejects nothing, so adding it changes no
search; a subset with no finite bound after it searches like the full set;
and a subset without a finite history-dependent bound has no gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import HISTORY_DEPENDENT_ORDERS, ORDERS, LimitSets
from .errors import BudgetExceeded, ContractViolation, ScenarioError
from .grid import StateGrid
from .planner import PlanResult, _sweep, extract, plan

# keys of HISTORY_DEPTH + 1 nodes carry every sample an edge reads
HISTORY_DEPTH = 2

# a DP cost below the exact optimum by more than this breaks the contract;
# a gap above it is attributed
GAP_TOLERANCE = 1e-12


@dataclass(frozen=True)
class OracleBudget:
    """Guard rail of the exact search, checked before any work.

    max_labels caps the labels the sweep could keep, bounded above by the
    sum over stages i of the product of the admissible counts of stages
    max(0, i - 2) to i. It must be positive and may be infinite (no cap).
    """

    max_labels: float = 2e6

    def __post_init__(self):
        if not self.max_labels > 0:    # NaN fails
            raise ScenarioError(f"oracle budget must be positive, got max_labels "
                                f"{self.max_labels!r}")


@dataclass(frozen=True)
class GapReport:
    """DP-vs-oracle comparison on one shared instance.

    attribution maps each enabled constraint order to the gap increment it
    introduces when added cumulatively (edge-local orders contribute 0);
    the increments telescope to the total gap. Each increment has the bits
    that searching every cumulative subset would give, though compare()
    derives most subsets' gaps without a search.
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
        BudgetExceeded: the label bound exceeds budget.max_labels.
        NoFeasiblePlan: no admissible chain satisfies the constraints; as
            from plan(), it carries the stage where the sweep died and the
            rejection histogram of the transition out of it.
    """
    budget = budget if budget is not None else OracleBudget()
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
            budget: OracleBudget | None = None) -> GapReport:
    """Measure the DP approximation gap against the exact optimum.

    Both results must come from the same grid, limits, and check-point
    count; their costs are plan durations. When the gap exceeds
    GAP_TOLERANCE, the enabled orders are added back one at a time
    (cheapest first) and each one's gap increment is recorded.

    An order binds when its bound has a finite entry; one that does not
    rejects no edge (|v| > inf is false for every sample, and the velocity
    table's shortest step is 0). The gap of a cumulative subset is derived
    without a search, with the bits its search would give:
    - its last order does not bind: the gap of the subset before it;
    - no later order binds: the total gap, the subset being the full set;
    - none of its binding orders is history-dependent: 0.0, since the DP
      is exact there.
    Only a subset with a binding history-dependent order and a binding
    order after it runs plan() and exhaustive_plan(), budget guarding the
    latter. With the budget of oracle_result's search, no derived subset
    could have raised: each is looser than the full instance, whose
    searches succeeded, and the budget check reads the grid alone.

    Raises:
        ScenarioError: results from different instances.
        ContractViolation: DP cost below the oracle cost by more than
            GAP_TOLERANCE (one of the two searches is broken).
    """
    if dp_result.grid.signature() != oracle_result.grid.signature():
        raise ScenarioError("gap comparison needs results from the same grid")
    if not _same_limits(dp_result.limits, oracle_result.limits):
        raise ScenarioError("gap comparison needs identical limit sets")
    if dp_result.check_count != oracle_result.check_count:
        raise ScenarioError("gap comparison needs the same check-point count")

    gap = dp_result.cost - oracle_result.cost
    if gap < -GAP_TOLERANCE:
        raise ContractViolation(
            f"DP cost {dp_result.cost!r} beats the exact optimum "
            f"{oracle_result.cost!r}; one of the searches is unsound")
    relative = gap / oracle_result.cost if oracle_result.cost > 0 else 0.0

    limits = dp_result.limits
    enabled = limits.enabled_orders
    attribution = {order: 0.0 for order in enabled}
    if gap > GAP_TOLERANCE:
        grid = dp_result.grid
        check_count = dp_result.check_count
        binds = {order: bool(np.isfinite(limits.bound(order)).any()) for order in enabled}
        prev_gap = 0.0
        for k, order in enumerate(enabled):
            if not binds[order]:
                gap_k = prev_gap        # the same searches as subset k - 1
            elif not any(binds[o] for o in enabled[k + 1:]):
                gap_k = gap             # the same searches as the full set
            elif not any(binds[o] for o in enabled[:k + 1] if o in HISTORY_DEPENDENT_ORDERS):
                gap_k = 0.0             # the DP is exact without history
            else:
                subset = limits.disable(*enabled[k + 1:])
                dp_k = plan(grid, subset, check_count=check_count)
                oracle_k = exhaustive_plan(grid, subset, budget=budget,
                                           check_count=check_count)
                gap_k = dp_k.cost - oracle_k.cost
            attribution[order] = gap_k - prev_gap
            prev_gap = gap_k
    return GapReport(oracle_cost=oracle_result.cost, dp_cost=dp_result.cost,
                     gap=gap, relative_gap=relative, attribution=attribution)
