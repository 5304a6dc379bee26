"""Exhaustive-search oracle and DP gap measurement.

The frozen adversarial instance below was found by sweeping the jerk bound
downward on a small rest-to-rest grid: for caps in roughly [85, 112] the
pinned-history DP picks a start node whose aggressive acceleration history
kills the fast continuation, while a full-history chain through the other
start node stays feasible.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import enumerate_chains, feasible_prefixes, make_toy_grid, sweep_record

from redplan import planner
from redplan.constraints import LimitSets, edge_durations
from redplan.errors import (BudgetExceeded, ContractViolation, NoFeasiblePlan,
                            ScenarioError)
from redplan.oracle import GapReport, OracleBudget, compare, exhaustive_plan
from redplan.planner import plan
from redplan.scenario import bundled_scenario

INF3 = np.full(3, np.inf)


def qd_only(cap=3.0):
    return LimitSets(qd=np.full(3, cap))


def jerk_instance(cap=100.0):
    """Rest-to-rest toy whose DP cost strictly exceeds the true optimum."""
    grid = make_toy_grid(n_stages=3, pv_levels=2, rest=True, v_values=(0.7, 1.0))
    limits = LimitSets(qd=INF3, qdd=INF3, qddd=np.full(3, cap), tau=INF3, taud=INF3)
    return grid, limits


# --- exhaustive search ---------------------------------------------------


def test_single_chain_cost_is_duration_sum():
    # one node per stage: rest boundaries pin l=0, the single interior
    # stage pins l=pv_levels, one lattice cell
    grid = make_toy_grid(n_stages=2, pv_levels=1, rest=True, v_values=(0.9,))
    assert grid.admissible_counts == [1, 1, 1]
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
    oracle = exhaustive_plan(grid, limits)
    # cost is the contract; on ties the chains may differ (the DP keys a
    # tie by the predecessor node, the oracle by the predecessor's last
    # three nodes), so chain equality is only checked implicitly via both
    # replays
    assert oracle.cost == dp.cost
    assert oracle.profile.t[-1] == dp.profile.t[-1]
    assert oracle.history_orders == ()
    # velocity feasibility has no history, so the feasible-prefix sets agree
    for i in range(n_stages + 1):
        assert np.array_equal(oracle.reached[i], dp.reached[i])


@pytest.mark.parametrize("check_count", [0, 2])
def test_all_orders_cost_and_chain_match_enumeration(check_count):
    grid = make_toy_grid(n_stages=3, pv_levels=2, rest=True)
    limits = LimitSets(qd=np.full(3, 3.0), qdd=np.full(3, 40.0),
                       qddd=np.full(3, 400.0), tau=np.full(3, 60.0),
                       taud=np.full(3, 2000.0))
    result = exhaustive_plan(grid, limits, check_count=check_count)
    best_cost, best_chain, n_feasible = enumerate_chains(grid, limits, check_count)
    assert n_feasible > 1
    assert result.cost == best_cost
    assert result.node_ids.tolist() == [int(f) for f in best_chain]


def test_budget_guards():
    grid = make_toy_grid(n_stages=3, pv_levels=2, rest=True)
    assert grid.admissible_counts == [2, 4, 4, 2]
    with pytest.raises(BudgetExceeded, match="admissible nodes"):
        exhaustive_plan(grid, qd_only(), budget=OracleBudget(max_cells=3))
    # label bound 2 + 2*4 + 2*4*4 + 4*4*2 = 74
    with pytest.raises(BudgetExceeded, match="74 labels"):
        exhaustive_plan(grid, qd_only(), budget=OracleBudget(max_labels=73))
    exhaustive_plan(grid, qd_only(), budget=OracleBudget(max_labels=74, max_cells=12))
    exhaustive_plan(grid, qd_only(), budget=OracleBudget(max_labels=np.inf))
    for bad in ({"max_labels": 0}, {"max_labels": -1.0}, {"max_labels": np.nan},
                {"max_labels": -np.inf}, {"max_cells": -1}, {"max_cells": 0},
                {"max_cells": 2.5}, {"max_cells": np.nan}, {"max_cells": True}):
        with pytest.raises(ScenarioError):
            OracleBudget(**bad)


def test_no_feasible_plan_reports_orders():
    grid = make_toy_grid(n_stages=3, pv_levels=2, rest=True)
    with pytest.raises(NoFeasiblePlan) as exc:
        exhaustive_plan(grid, qd_only(cap=1e-6))
    assert exc.value.deepest_stage == 0
    assert exc.value.violation_histogram.get("qd", 0) > 0


def test_no_feasible_plan_reports_the_dying_transition():
    # velocity only: the sweep reaches stage 2 and dies on the way to 3.
    # Each velocity-rejected edge counts once, so the histogram covers
    # exactly the edges out of stage 2's labels, one per feasible
    # (n0, n1, n2) prefix, as plan() counts the edges out of its nodes
    grid = make_toy_grid(n_stages=4, pv_levels=2, rest=True)
    limits = qd_only(cap=1.55)
    with pytest.raises(NoFeasiblePlan) as dp:
        plan(grid, limits)
    with pytest.raises(NoFeasiblePlan) as exc:
        exhaustive_plan(grid, limits)
    assert exc.value.deepest_stage == dp.value.deepest_stage == 2
    labels = len(feasible_prefixes(grid, limits)[2])
    edges = labels * grid.admissible_counts[3]
    assert exc.value.violation_histogram == {"qd": edges}


def test_no_feasible_plan_duration_histogram():
    # one interior-free stage: the only edge is rest-to-rest, which diverges
    grid = make_toy_grid(n_stages=1, pv_levels=1, rest=True, v_values=(0.9,))
    with pytest.raises(NoFeasiblePlan) as exc:
        exhaustive_plan(grid, qd_only())
    assert exc.value.violation_histogram.get("duration", 0) > 0


@st.composite
def toy_instances(draw):
    """A small rest-to-rest or free toy grid with random bounds, small
    enough for enumerate_chains."""
    grid = make_toy_grid(n_stages=draw(st.integers(2, 4)),
                         pv_levels=draw(st.integers(1, 3)), rest=draw(st.booleans()),
                         v_values=draw(st.sampled_from([(0.7, 1.0), (0.75, 0.9),
                                                        (0.7, 0.85, 1.0)])))
    assume(math.prod(grid.admissible_counts) <= 600)
    caps = {"qd": np.full(3, draw(st.just(np.inf) | st.floats(1.0, 4.0)))}
    for order, low, high in (("qddd", 40.0, 160.0), ("tau", 15.0, 40.0)):
        if draw(st.booleans()):
            caps[order] = np.full(3, draw(st.floats(low, high)))
    return grid, LimitSets(**caps), draw(st.sampled_from([0, 2]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(instance=toy_instances())
# pinned: a gap that keys of two nodes still miss, and the adversarial jerk
# toy, where the DP loses
@example(instance=(make_toy_grid(n_stages=3, pv_levels=1, rest=False),
                   LimitSets(qd=INF3, qddd=np.full(3, 80.0)), 0))
@example(instance=(*jerk_instance(), 0))
def test_oracle_is_exact_on_random_toys(instance):
    grid, limits, check_count = instance
    best_cost, _, n_feasible = enumerate_chains(grid, limits, check_count)
    if n_feasible == 0:
        with pytest.raises(NoFeasiblePlan):
            exhaustive_plan(grid, limits, check_count=check_count)
        with pytest.raises(NoFeasiblePlan):
            plan(grid, limits, check_count=check_count)
        return
    oracle = exhaustive_plan(grid, limits, check_count=check_count)
    assert oracle.cost == best_cost
    for i, stage in enumerate(feasible_prefixes(grid, limits, check_count)):
        assert oracle.reached[i].tolist() == sorted({p[-1] for p in stage})
    try:
        dp_cost = plan(grid, limits, check_count=check_count).cost
    except NoFeasiblePlan:
        dp_cost = np.inf
    assert dp_cost >= oracle.cost
    if limits.enabled_orders == ("qd",):
        assert dp_cost == oracle.cost


@pytest.mark.parametrize("name", ["toy_jerk", "toy_full", "ties"])
def test_label_blocks_do_not_change_the_sweep(monkeypatch, name):
    # the depth-2 sweep scores its labels in blocks of at most LANE_BUDGET
    # lanes; a group of competing labels may span blocks. "ties" has two
    # cells with the same configuration, so every next key has tied
    # predecessors, which one-row blocks put apart
    if name == "ties":
        grid = make_toy_grid(n_stages=4, pv_levels=2, rest=False, v_values=(0.8, 0.8))
        limits, check_count = qd_only(), 0
    else:
        sc = bundled_scenario(name)
        grid, limits, check_count = sc.build(), sc.limits, sc.check_count

    monkeypatch.setattr(planner, "LANE_BUDGET", 2 ** 62)
    whole = sweep_record(grid, limits, check_count, depth=2)
    assert whole[0] is not None
    S = grid.level_count * grid.cfg_count
    for budget in (1, 3 * S - 1):             # one and two labels per block
        monkeypatch.setattr(planner, "LANE_BUDGET", budget)
        assert sweep_record(grid, limits, check_count, depth=2) == whole


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
    oracle = exhaustive_plan(grid, limits)
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
