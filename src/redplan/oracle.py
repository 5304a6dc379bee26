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
orders enabled the DP cost can only be higher, and compare() runs both on
one instance to quantify and attribute that gap. Both searches run the
same sweep and replay, so they differ only in the histories they keep.
The attribution searches again only the subsets of orders whose gap it
cannot derive: an order bounded by +inf on every joint rejects nothing, so
adding it changes no search; a subset with no finite bound after it
searches like the full set; and a subset without a finite
history-dependent bound has no gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constraints import HISTORY_DEPENDENT_ORDERS, LimitSets
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

    dp and oracle are the instance's two searches. attribution maps each
    enabled constraint order to the gap increment it introduces when added
    cumulatively (edge-local orders contribute 0); the increments telescope
    to the total gap. Each increment has the bits that searching every
    cumulative subset would give, though compare() derives most subsets'
    gaps without a search.
    """

    dp: PlanResult
    oracle: PlanResult
    gap: float
    relative_gap: float
    attribution: dict

    def to_dict(self) -> dict:
        return {"oracle_cost": self.oracle.cost, "dp_cost": self.dp.cost,
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


def compare(grid: StateGrid, limits: LimitSets, check_count: int = 0,
            budget: OracleBudget | None = None) -> GapReport:
    """Measure the DP approximation gap against the exact optimum.

    Runs plan() and then exhaustive_plan() on the whole grid; their costs
    are plan durations. When the gap exceeds GAP_TOLERANCE, the enabled
    orders are added back one at a time (cheapest first) and each one's
    gap increment is recorded.

    An order binds when its bound has a finite entry; one that does not
    rejects no edge (|v| > inf is false for every sample, and the velocity
    table's shortest step is 0). The gap of a cumulative subset is derived
    without a search, with the bits its search would give:
    - its last order does not bind: the gap of the subset before it;
    - no later order binds: the total gap, the subset being the full set;
    - none of its binding orders is history-dependent: 0.0, since the DP
      is exact there.
    Only a subset with a binding history-dependent order and a binding
    order after it runs plan() and exhaustive_plan(). budget guards every
    exact search.

    Raises:
        NoFeasiblePlan: from plan(), before the exact search runs.
        BudgetExceeded: the exact search's label bound exceeds budget.
        ContractViolation: DP cost below the oracle cost by more than
            GAP_TOLERANCE (one of the two searches is broken).
    """
    dp = plan(grid, limits, check_count=check_count)
    oracle = exhaustive_plan(grid, limits, budget=budget, check_count=check_count)
    gap = dp.cost - oracle.cost
    if gap < -GAP_TOLERANCE:
        raise ContractViolation(
            f"DP cost {dp.cost!r} beats the exact optimum "
            f"{oracle.cost!r}; one of the searches is unsound")
    relative = gap / oracle.cost if oracle.cost > 0 else 0.0

    enabled = limits.enabled_orders
    attribution = {order: 0.0 for order in enabled}
    if gap > GAP_TOLERANCE:
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
    return GapReport(dp=dp, oracle=oracle, gap=gap, relative_gap=relative,
                     attribution=attribution)
