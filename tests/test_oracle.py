"""Exhaustive-search oracle and DP gap measurement.

The frozen adversarial instance below was found by sweeping the jerk bound
downward on a small rest-to-rest grid: for caps in roughly [85, 112] the
pinned-history DP picks a start node whose aggressive acceleration history
kills the fast continuation, while a full-history chain through the other
start node stays feasible.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import enumerate_chains, make_toy_grid

from redplan.constraints import LimitSets, edge_durations
from redplan.errors import (BudgetExceeded, ContractViolation, NoFeasiblePlan,
                            ScenarioError)
from redplan.oracle import GapReport, OracleBudget, compare, exhaustive_plan
from redplan.planner import Objective, TimeObjective, plan

INF3 = np.full(3, np.inf)


def qd_only(cap=3.0):
    return LimitSets(qd=np.full(3, cap))


def jerk_instance(cap=100.0):
    """Rest-to-rest toy whose DP cost strictly exceeds the true optimum."""
    grid = make_toy_grid(n_stages=3, pv_levels=2, rest=True, v_values=(0.7, 1.0))
    limits = LimitSets(qd=INF3, qdd=INF3, qddd=np.full(3, cap), tau=INF3, taud=INF3)
    return grid, limits


class ScaledTime(Objective):
    """Doubled traversal time; exercises the general-objective path."""

    def initial_cost(self, q, pv):
        return np.zeros(np.shape(pv))

    def edge_cost(self, dt, q_prev, pv_prev, q_next, pv_next):
        return 2.0 * dt[:, None]


# --- exhaustive search ---------------------------------------------------


def test_single_chain_cost_is_duration_sum():
    # one node per stage: rest boundaries pin l=0, the single interior
    # stage pins l=pv_levels, one lattice cell
    grid = make_toy_grid(n_stages=2, pv_levels=1, rest=True, v_values=(0.9,))
    assert [ids.size for ids in
            (grid.stage_set(i).node_ids for i in range(3))] == [1, 1, 1]
    result = exhaustive_plan(grid, qd_only())
    dlam = grid.path.dlam
    expected = 0.0 + float(edge_durations(0.0, 1.0, dlam)) + float(edge_durations(1.0, 0.0, dlam))
    assert result.cost == expected
    assert result.node_ids.tolist() == [0, 1, 0]
    assert result.profile.t[-1] == result.cost


@pytest.mark.parametrize("rest,n_stages", [(True, 3), (False, 3), (True, 4)])
def test_velocity_only_matches_dp_exactly(rest, n_stages):
    grid = make_toy_grid(n_stages=n_stages, pv_levels=2, rest=rest)
    limits = qd_only()
    dp = plan(grid, limits)
    oracle = exhaustive_plan(grid, limits, prune=False)
    # cost is the contract; on ties the chains may differ (the DP breaks
    # ties backward from the terminal, the enumeration forward from the
    # start), so chain equality is only checked implicitly via both replays
    assert oracle.cost == dp.cost
    assert oracle.profile.t[-1] == dp.profile.t[-1]
    assert oracle.history_orders == ()
    # velocity feasibility has no history, so the feasible-prefix sets agree
    for i in range(n_stages + 1):
        assert np.array_equal(oracle.reached[i], dp.reached[i])


@pytest.mark.parametrize("check_count", [0, 2])
def test_pruning_preserves_cost_chain_and_enumeration(check_count):
    grid = make_toy_grid(n_stages=3, pv_levels=2, rest=True)
    limits = LimitSets(qd=np.full(3, 3.0), qdd=np.full(3, 40.0),
                       qddd=np.full(3, 400.0), tau=np.full(3, 60.0),
                       taud=np.full(3, 2000.0))
    pruned = exhaustive_plan(grid, limits, check_count=check_count)
    full = exhaustive_plan(grid, limits, prune=False, check_count=check_count)
    assert pruned.cost == full.cost
    assert np.array_equal(pruned.node_ids, full.node_ids)
    best_cost, best_chain, n_feasible = enumerate_chains(grid, limits, check_count)
    assert n_feasible > 1
    assert full.cost == best_cost
    assert full.node_ids.tolist() == [int(f) for f in best_chain]


def test_general_objective_disables_pruning_but_agrees():
    grid = make_toy_grid(n_stages=3, pv_levels=2, rest=True)
    limits = qd_only()
    timed = exhaustive_plan(grid, limits)
    scaled = exhaustive_plan(grid, limits, objective=ScaledTime())
    assert scaled.cost == pytest.approx(2.0 * timed.cost, rel=1e-15)
    assert np.array_equal(scaled.node_ids, timed.node_ids)
    dp_scaled = plan(grid, limits, objective=ScaledTime())
    assert dp_scaled.cost == scaled.cost


def test_budget_guards():
    grid = make_toy_grid(n_stages=3, pv_levels=2, rest=True)
    with pytest.raises(BudgetExceeded, match="admissible nodes"):
        exhaustive_plan(grid, qd_only(), budget=OracleBudget(max_cells=3))
    with pytest.raises(BudgetExceeded, match="chains"):
        exhaustive_plan(grid, qd_only(), budget=OracleBudget(max_chains=2))
    with pytest.raises(ScenarioError):
        OracleBudget(max_chains=0)
    with pytest.raises(ScenarioError):
        OracleBudget(max_cells=-1)


def test_no_feasible_plan_reports_orders():
    grid = make_toy_grid(n_stages=3, pv_levels=2, rest=True)
    with pytest.raises(NoFeasiblePlan) as exc:
        exhaustive_plan(grid, qd_only(cap=1e-6))
    assert exc.value.deepest_stage == 0
    assert exc.value.violation_histogram.get("qd", 0) > 0


def test_no_feasible_plan_duration_histogram():
    # one interior-free stage: the only edge is rest-to-rest, which diverges
    grid = make_toy_grid(n_stages=1, pv_levels=1, rest=True, v_values=(0.9,))
    with pytest.raises(NoFeasiblePlan) as exc:
        exhaustive_plan(grid, qd_only())
    assert exc.value.violation_histogram.get("duration", 0) > 0


# --- gap measurement -----------------------------------------------------


def test_compare_identical_results_zero_gap():
    grid = make_toy_grid(n_stages=3, pv_levels=2, rest=True)
    limits = qd_only()
    dp = plan(grid, limits)
    oracle = exhaustive_plan(grid, limits)
    report = compare(dp, oracle)
    assert isinstance(report, GapReport)
    assert report.gap == 0.0
    assert report.relative_gap == 0.0
    assert report.dp_cost == report.oracle_cost == dp.cost
    assert set(report.attribution) == {"qd"}
    assert report.attribution["qd"] == 0.0
    d = report.to_dict()
    assert d["gap"] == 0.0 and d["attribution"] == {"qd": 0.0}


def test_compare_rejects_mismatched_instances():
    limits = qd_only()
    a = plan(make_toy_grid(n_stages=3, pv_levels=2, rest=True), limits)
    b = exhaustive_plan(make_toy_grid(n_stages=4, pv_levels=2, rest=True), limits)
    with pytest.raises(ScenarioError, match="same grid"):
        compare(a, b)

    grid = make_toy_grid(n_stages=3, pv_levels=2, rest=True)
    dp = plan(grid, limits)
    with pytest.raises(ScenarioError, match="limit sets"):
        compare(dp, exhaustive_plan(grid, qd_only(cap=2.5)))
    with pytest.raises(ScenarioError, match="objective"):
        compare(dp, exhaustive_plan(grid, limits, objective=ScaledTime()))
    with pytest.raises(ScenarioError, match="check-point"):
        compare(dp, exhaustive_plan(grid, limits, check_count=2))


def test_adversarial_jerk_instance_positive_gap():
    grid, limits = jerk_instance()
    dp = plan(grid, limits)
    oracle = exhaustive_plan(grid, limits)
    assert oracle.cost < dp.cost
    report = compare(dp, oracle)
    # the DP loses exactly the two-stage ramp advantage: 2 * dlam here
    assert report.gap == pytest.approx(2.0 * grid.path.dlam, rel=1e-12)
    assert report.relative_gap == pytest.approx(0.4, rel=1e-12)
    assert report.attribution["qddd"] == report.gap
    for order in ("qd", "qdd", "tau", "taud"):
        assert report.attribution[order] == 0.0
    assert sum(report.attribution.values()) == report.gap
    # frozen optimal chains: DP start is tie-broken to the slow branch,
    # the true optimum starts on the fast one and ramps in a single edge
    assert dp.node_ids.tolist() == [0, 3, 5, 1]
    assert oracle.node_ids.tolist() == [1, 5, 5, 1]


def test_adversarial_gap_window_edges():
    # outside the window the two searches agree again
    for cap in (70.0, 130.0):
        grid, limits = jerk_instance(cap)
        report = compare(plan(grid, limits), exhaustive_plan(grid, limits))
        assert report.gap == 0.0


def test_swapped_arguments_raise_contract_violation():
    grid, limits = jerk_instance()
    dp = plan(grid, limits)
    oracle = exhaustive_plan(grid, limits)
    with pytest.raises(ContractViolation):
        compare(oracle, dp)


def test_dp_reached_subset_of_full_history_reached():
    grid, limits = jerk_instance()
    dp = plan(grid, limits)
    oracle = exhaustive_plan(grid, limits, prune=False)
    for i in range(grid.n_stages + 1):
        assert set(dp.reached[i]) <= set(oracle.reached[i])


def test_oracle_profile_replay_consistency():
    grid, limits = jerk_instance()
    result = exhaustive_plan(grid, limits)
    t = result.profile.t
    assert t[0] == 0.0
    assert np.all(np.diff(t) > 0)
    assert t[-1] == result.cost
    assert result.profile.pv[0] == 0.0 and result.profile.pv[-1] == 0.0
    assert np.all(np.isfinite(result.profile.qddd[1:]))
