"""Exhaustive-search oracle and DP gap measurement.

The frozen adversarial instance below was found by sweeping the jerk bound
downward on a small rest-to-rest grid: for caps in roughly [85, 112] the
pinned-history DP picks a start node whose aggressive acceleration history
kills the fast continuation, while a full-history chain through the other
start node stays feasible.
"""

from __future__ import annotations

import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import enumerate_chains, feasible_prefixes, make_toy_grid, sweep_blocks

from redplan import oracle as oracle_module
from redplan.constraints import ORDERS, LimitSets, edge_durations
from redplan.errors import (BudgetExceeded, ContractViolation, NoFeasiblePlan,
                            ScenarioError)
from redplan.grid import grid_from_configurations
from redplan.oracle import (GAP_TOLERANCE, GapReport, OracleBudget, compare,
                            exhaustive_plan)
from redplan.planner import Window, plan
from redplan.robot import PlanarArm
from redplan.scenario import bundled_scenario, load_scenario, trajectory_csv

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
        assert np.array_equal(oracle.reached.node_ids[i], dp.reached.node_ids[i])


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


def test_budget_guards(monkeypatch):
    grid = make_toy_grid(n_stages=3, pv_levels=2, rest=True)
    assert grid.admissible_counts == [2, 4, 4, 2]
    # label bound 2 + 2*4 + 2*4*4 + 4*4*2 = 74
    with pytest.raises(BudgetExceeded, match="74 labels"):
        exhaustive_plan(grid, qd_only(), budget=OracleBudget(max_labels=73))
    exhaustive_plan(grid, qd_only(), budget=OracleBudget(max_labels=74))
    exhaustive_plan(grid, qd_only(), budget=OracleBudget(max_labels=np.inf))
    for bad in (0, -1.0, np.nan, -np.inf):
        with pytest.raises(ScenarioError):
            OracleBudget(max_labels=bad)
    # a wide grid: the toy's cells repeated 2,501 times give 30,012
    # admissible nodes, and the default label budget refuses it before any
    # search
    wide = grid_from_configurations(grid.robot, grid.path, np.tile(grid.q_table, (1, 2501, 1)),
                                    grid.spec)
    assert wide.total_admissible == 30012
    monkeypatch.setattr("redplan.oracle._sweep", None)
    with pytest.raises(BudgetExceeded, match="1e\\+12 labels, budget allows 2e\\+06"):
        exhaustive_plan(wide, qd_only())


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
        kind = draw(st.sampled_from(("off", "inf", "finite")))
        if kind != "off":
            caps[order] = np.full(3, np.inf if kind == "inf" else draw(st.floats(low, high)))
    return grid, LimitSets(**caps), draw(st.sampled_from([0, 2]))


def one_joint(j, cap):
    """A bound that is cap on joint j and +inf on the others."""
    bound = INF3.copy()
    bound[j] = cap
    return bound


def binds(limits, order):
    """True when the order's bound has a finite entry (it can reject)."""
    return bool(np.isfinite(limits.bound(order)).any())


def assert_emitted_within_bounds(result):
    """An emitted profile's last time is the plan's cost, bit for bit, and
    each stage value of each enabled order is NaN (the chain is too
    shallow for it) or within its bound; the torque rate is exempt at a
    stage where some joint velocity changes sign from the stage before.
    The values checked are the ones trajectory.csv shows."""
    profile = result.profile
    assert profile.t[-1] == result.cost
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in trajectory_csv(profile).splitlines()[1:]])
    assert rows[:, 0].tobytes() == profile.t.tobytes()
    shown = dict(zip(("q", *ORDERS), np.split(rows[:, 1:], 6, axis=1)))
    flip = np.zeros(profile.n_stages + 1, dtype=bool)
    flip[1:] = (profile.qd[1:] * profile.qd[:-1] < 0.0).any(axis=1)
    for order in result.limits.enabled_orders:
        value = getattr(profile, order)
        assert np.array_equal(shown[order], value, equal_nan=True)
        within = np.isnan(value) | (np.abs(value) <= result.limits.bound(order))
        if order == "taud":
            within |= flip[:, None]
        assert within.all(), (order, np.argwhere(~within).tolist())


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
    assert_emitted_within_bounds(oracle)
    for i, stage in enumerate(feasible_prefixes(grid, limits, check_count)):
        assert oracle.reached.node_ids[i].tolist() == sorted({p[-1] for p in stage})
    try:
        dp = plan(grid, limits, check_count=check_count)
    except NoFeasiblePlan:
        dp_cost = np.inf
    else:
        assert_emitted_within_bounds(dp)
        dp_cost = dp.cost
    assert dp_cost >= oracle.cost
    # an order bounded by +inf rejects nothing, so without a finite history
    # bound the search is velocity-only, where the DP is exact
    if not any(binds(limits, o) for o in limits.history_dependent_orders):
        assert dp_cost == oracle.cost


def test_sweep_memory_is_bounded_by_its_labels():
    # toy_jerk at 3 stages, 4 levels and a 0.02 lattice step: admissible
    # counts 16-64-64-16, a label bound of 1.32e5. Its tracemalloc peak
    # was 69-72 MB when the sweep filled dense (tails, L * C) stage tables,
    # and 26-28 MB with the per-key reduction; 45 MB sits between the two,
    # about the geometric mean, so it fails on dense tables and leaves the
    # sparse sweep 1.6x headroom.
    doc = bundled_scenario("toy_jerk").to_dict()
    doc["n_stages"] = 3
    doc["grid"].update(pv_levels=4, v_step=[0.02])
    sc = load_scenario(doc)
    grid = sc.build()
    assert grid.admissible_counts == [16, 64, 64, 16]
    tracemalloc.start()
    try:
        result = exhaustive_plan(grid, sc.limits, budget=OracleBudget(max_labels=np.inf),
                                 check_count=sc.check_count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.cost == 0.6666666666666667
    assert peak < 45e6


@pytest.mark.parametrize("name", ["toy_jerk", "toy_full", "ties"])
def test_label_blocks_do_not_change_the_sweep(monkeypatch, name):
    # the sweep screens a stage's labels in chunks of at most SCREEN_BUDGET
    # (group, level, cell) entries and scores them in blocks of at most LANE_BUDGET
    # evaluated (or, under a window, listed) lanes; a group of competing
    # labels may span blocks, and so may the labels that end in one cell.
    # One lane and one entry give one-row blocks and one screen group per
    # chunk, 97 lanes a few rows under one screen per stage or chunks of a
    # few groups. "ties" has two cells with the same configuration, so
    # every next key has tied predecessors, which one-row blocks put apart.
    # Windowed sweeps give the blocks ragged candidate lists
    if name == "ties":
        grid = make_toy_grid(n_stages=4, pv_levels=2, rest=False, v_values=(0.8, 0.8))
        limits, check_count = qd_only(), 0
    else:
        sc = bundled_scenario(name)
        grid, limits, check_count = sc.build(), sc.limits, sc.check_count

    S = grid.level_count * grid.cfg_count
    for window in (None, Window(max_dl=1), Window(max_dl=1, max_dj=0)):
        for depth in (0, 2):
            whole, _ = sweep_blocks(monkeypatch, grid, (2 ** 62, 2 ** 62), limits,
                                    check_count, window, depth)
            assert whole[0] is not None
            for budgets in ((1, 1), (97, 2 ** 62), (97, 97), (3 * S - 1, S)):
                assert sweep_blocks(monkeypatch, grid, budgets, limits, check_count, window,
                                    depth)[0] == whole


# --- gap measurement -----------------------------------------------------


def test_compare_identical_results_zero_gap():
    grid = make_toy_grid(n_stages=3, pv_levels=2, rest=True)
    limits = qd_only()
    dp, oracle = plan(grid, limits), exhaustive_plan(grid, limits)
    report = compare(grid, limits)
    assert isinstance(report, GapReport)
    assert report.gap == 0.0
    assert report.relative_gap == 0.0
    assert report.dp.cost == report.oracle.cost == dp.cost
    assert report.dp.node_ids.tolist() == dp.node_ids.tolist()
    assert report.oracle.node_ids.tolist() == oracle.node_ids.tolist()
    assert set(report.attribution) == {"qd"}
    assert report.attribution["qd"] == 0.0
    d = report.to_dict()
    assert d["gap"] == 0.0 and d["attribution"] == {"qd": 0.0}


def test_adversarial_jerk_instance_positive_gap():
    grid, limits = jerk_instance()
    report = compare(grid, limits)
    dp, oracle = report.dp, report.oracle
    assert oracle.cost < dp.cost
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
        report = compare(grid, limits)
        assert report.gap == 0.0


def test_swapped_arguments_raise_contract_violation(monkeypatch):
    # the two searches swapped: the DP reads cheaper than the exact optimum
    grid, limits = jerk_instance()
    dp, oracle = plan(grid, limits), exhaustive_plan(grid, limits)
    monkeypatch.setattr(oracle_module, "plan", lambda *args, **kwargs: oracle)
    monkeypatch.setattr(oracle_module, "exhaustive_plan", lambda *args, **kwargs: dp)
    with pytest.raises(ContractViolation):
        compare(grid, limits)


def test_one_budget_guards_every_exact_search(monkeypatch):
    grid, limits = all_finite_jerk_instance()
    budget = OracleBudget(max_labels=1e9)
    budgets = []
    search = oracle_module.exhaustive_plan

    def recorded(grid, limits, budget=None, check_count=0):
        budgets.append(budget)
        return search(grid, limits, budget=budget, check_count=check_count)

    monkeypatch.setattr(oracle_module, "exhaustive_plan", recorded)
    assert compare(grid, limits, budget=budget).gap > 0
    # the full search and the three searched subsets
    assert len(budgets) == 4
    assert all(b is budget for b in budgets)


def test_compare_makes_one_rigid_body_pass(monkeypatch):
    # eight searches (the full set and three searched subsets, each by the
    # DP and the exact search) and their replays read the grid's terms
    grid, limits = all_finite_jerk_instance()
    shapes = []
    rigid_terms = PlanarArm.rigid_terms

    def recorded(robot, q):
        shapes.append(np.shape(q))
        return rigid_terms(robot, q)

    monkeypatch.setattr(PlanarArm, "rigid_terms", recorded)
    assert len(searches_of_compare(monkeypatch, grid, limits)) == 3
    assert shapes == [grid.q_table.shape]


def test_dp_reached_subset_of_full_history_reached():
    grid, limits = jerk_instance()
    dp = plan(grid, limits)
    oracle = exhaustive_plan(grid, limits)
    for i in range(grid.n_stages + 1):
        assert set(dp.reached.node_ids[i]) <= set(oracle.reached.node_ids[i])


def test_oracle_profile_replay_consistency():
    grid, limits = jerk_instance()
    result = exhaustive_plan(grid, limits)
    t = result.profile.t
    assert t[0] == 0.0
    assert np.all(np.diff(t) > 0)
    assert t[-1] == result.cost
    assert result.profile.pv[0] == 0.0 and result.profile.pv[-1] == 0.0
    assert np.all(np.isfinite(result.profile.qddd[1:]))


# --- attribution: derived subsets against searched ones --------------------


def rerun_attribution(dp, oracle):
    """compare()'s attribution with a search of every cumulative subset
    but the full one, the reference for the subsets compare() derives."""
    enabled = dp.limits.enabled_orders
    attribution = {order: 0.0 for order in enabled}
    gap = dp.cost - oracle.cost
    if gap > GAP_TOLERANCE:
        prev_gap = 0.0
        for k, order in enumerate(enabled):
            if order == enabled[-1]:
                gap_k = gap
            else:
                subset = dp.limits.disable(*enabled[k + 1:])
                gap_k = (plan(dp.grid, subset, check_count=dp.check_count).cost
                         - exhaustive_plan(dp.grid, subset, check_count=dp.check_count).cost)
            attribution[order] = gap_k - prev_gap
            prev_gap = gap_k
    return attribution


def assert_attribution_bitwise(grid, limits, check_count):
    report = compare(grid, limits, check_count)
    dp, oracle = report.dp, report.oracle
    derived = report.attribution
    reference = rerun_attribution(dp, oracle)
    assert {o: v.hex() for o, v in derived.items()} == {o: v.hex() for o, v in reference.items()}
    return dp.cost - oracle.cost


def all_finite_jerk_instance():
    """jerk_instance with every order bounded, and still a positive gap."""
    grid, limits = jerk_instance()
    return grid, LimitSets(qd=np.full(3, 10.0), qdd=np.full(3, 40.0), qddd=limits.qddd,
                           tau=np.full(3, 60.0), taud=np.full(3, 2000.0))


def searched_qdd_instance():
    """A positive gap that the searched {qd, qdd} subset carries whole,
    with qddd at +inf after it."""
    grid = make_toy_grid(n_stages=3, pv_levels=2, rest=False)
    return grid, LimitSets(qd=one_joint(0, 2.9), qdd=np.full(3, 20.3), qddd=INF3,
                           tau=np.full(3, 50.0), taud=np.full(3, 1793.1))


def verify_oracle_scenario(tmp_path):
    """The benchmark's verify-oracle scenario at seed 0."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
    try:
        from workloads import write_scenario
    finally:
        sys.path.pop(0)
    return load_scenario(write_scenario("verify-oracle", 0, False, str(tmp_path)))


@pytest.mark.parametrize("name,check_count", [("toy_velocity", 0), ("toy_full", 0),
                                              ("toy_full", 2), ("toy_jerk", 0),
                                              ("toy_jerk", 2)])
def test_attribution_bitwise_on_bundled_toys(name, check_count):
    sc = bundled_scenario(name)
    assert_attribution_bitwise(sc.build(), sc.limits, check_count)


def test_attribution_bitwise_on_jerk_instances():
    assert assert_attribution_bitwise(*jerk_instance(), 0) > 0
    assert assert_attribution_bitwise(*all_finite_jerk_instance(), 0) > 0


# typical finite bounds on the toy grids, per order
ATTRIBUTION_RANGES = {"qd": (1.5, 4.0), "qdd": (15.0, 60.0), "qddd": (60.0, 140.0),
                      "tau": (10.0, 60.0), "taud": (100.0, 2000.0)}


@st.composite
def attribution_instances(draw):
    """Toys near the adversarial jerk instance, each order disabled, +inf
    on every joint, or finite (on every joint or on one)."""
    grid = make_toy_grid(n_stages=draw(st.integers(3, 4)), pv_levels=draw(st.integers(1, 2)),
                         rest=draw(st.booleans()),
                         v_values=draw(st.sampled_from([(0.7, 1.0), (0.75, 0.9)])))
    caps = {}
    for order, (low, high) in ATTRIBUTION_RANGES.items():
        kind = draw(st.sampled_from(("off", "inf", "finite", "one joint")))
        if kind == "inf":
            caps[order] = INF3
        elif kind == "finite":
            caps[order] = np.full(3, draw(st.floats(low, high)))
        elif kind == "one joint":
            caps[order] = one_joint(draw(st.integers(0, 2)), draw(st.floats(low, high)))
    assume(caps)
    return grid, LimitSets(**caps), draw(st.sampled_from([0, 2]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(instance=attribution_instances())
# pinned positive gaps, the last with single-joint bounds and check points
@example(instance=(*searched_qdd_instance(), 0))
@example(instance=(make_toy_grid(n_stages=3, pv_levels=1, rest=False),
                   LimitSets(qdd=one_joint(2, 31.6), qddd=one_joint(1, 71.8),
                             tau=np.full(3, 59.6), taud=one_joint(2, 1905.0)), 2))
@example(instance=(*all_finite_jerk_instance(), 2))
def test_attribution_bitwise_on_random_toys(instance):
    grid, limits, check_count = instance
    try:
        assert_attribution_bitwise(grid, limits, check_count)
    except NoFeasiblePlan:
        assume(False)


def searches_of_compare(monkeypatch, grid, limits, check_count=0):
    """The enabled orders of every plan() call compare() makes on a
    positive-gap instance after its searches of the full set; it makes the
    same exhaustive_plan() calls."""
    calls = {"plan": [], "exhaustive_plan": []}
    for name in calls:
        search = getattr(oracle_module, name)

        def counted(grid, limits, *args, _search=search, _calls=calls[name], **kwargs):
            _calls.append(limits.enabled_orders)
            return _search(grid, limits, *args, **kwargs)

        monkeypatch.setattr(oracle_module, name, counted)
    report = compare(grid, limits, check_count)
    monkeypatch.undo()
    assert report.gap > 0
    assert calls["plan"] == calls["exhaustive_plan"]
    assert calls["plan"][0] == limits.enabled_orders
    return calls["plan"][1:]


def test_only_subsets_that_can_differ_are_searched(monkeypatch, tmp_path):
    # toy_jerk and the benchmark's verify-oracle: only qddd binds, so every
    # subset is derived although the gap is positive
    for sc in (bundled_scenario("toy_jerk"), verify_oracle_scenario(tmp_path)):
        assert searches_of_compare(monkeypatch, sc.build(), sc.limits, sc.check_count) == []
    # every order bounded: {qd} has no history and {qd, ..., taud} is the
    # full set; each subset between them is searched once
    assert searches_of_compare(monkeypatch, *all_finite_jerk_instance()) == [
        ORDERS[:2], ORDERS[:3], ORDERS[:4]]
    # qddd at +inf adds nothing to {qd, qdd}, which is searched, as is
    # {qd, ..., tau}, since taud binds after it
    assert searches_of_compare(monkeypatch, *searched_qdd_instance()) == [ORDERS[:2],
                                                                         ORDERS[:4]]
