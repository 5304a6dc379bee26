"""DP planner: exactness vs enumeration, determinism, extraction, PST."""

import functools
import hashlib
import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redplan import constraints, planner

from redplan.baseline import resolve_redundancy, time_parametrize
from redplan.constraints import (LimitSets, Screen, StageEval, initial_samples,
                                 lane_screen, stage_transitions)
from redplan.errors import CorruptChain, NoFeasiblePlan
from redplan.grid import GridSpec, build_grid, grid_from_configurations
from redplan.oracle import HISTORY_DEPTH, OracleBudget, _dp_and_exact, exhaustive_plan
from redplan.planner import ReachedSets, Window, extract, plan, replay
from redplan.scenario import bundled_scenario, load_scenario, pst_csv


from conftest import make_inf_limits as inf_limits
from conftest import make_line_path as line_path
from conftest import make_toy_grid as toy_grid
from conftest import (edge, enumerate_chains, feasible_chains, node_state, start_state,
                      sweep_blocks, sweep_record)


class TestExactnessVsEnumeration:
    @pytest.mark.parametrize("qd_cap", [0.6, 0.9, 1.5])
    def test_velocity_only_equals_exhaustive(self, qd_cap):
        grid = toy_grid(rest=True)
        limits = LimitSets(qd=np.full(3, qd_cap))
        want_cost, want_chain, n_feasible = enumerate_chains(grid, limits)
        if n_feasible == 0:
            with pytest.raises(NoFeasiblePlan):
                plan(grid, limits)
            return
        result = plan(grid, limits)
        assert result.cost == want_cost

    def test_velocity_only_free_boundaries(self):
        grid = toy_grid(rest=False)
        limits = LimitSets(qd=np.full(3, 0.8))
        want_cost, _, n_feasible = enumerate_chains(grid, limits)
        assert n_feasible > 0
        result = plan(grid, limits)
        assert result.cost == want_cost

    def test_full_orders_conservative(self, arm):
        grid = build_grid(arm, line_path(3),
                          GridSpec(pv_max=1.0, pv_levels=3, v_min=[0.6],
                                   v_max=[1.2], v_step=[0.3]))
        limits = LimitSets.from_joint_limits(arm.limits)
        want_cost, _, n_feasible = enumerate_chains(grid, limits)
        assert n_feasible > 0
        result = plan(grid, limits)
        assert result.cost >= want_cost - 1e-12

    def test_value_fixed_point(self):
        # at depth 0 a label is a node: every label's cost equals the best
        # over the previous stage's labels, re-derived edge by edge from each
        # predecessor's stored chain
        grid = toy_grid(n_stages=3, rest=True)
        limits = LimitSets(qd=np.full(3, 3.0))
        value, = planner._sweep(grid, limits, 0, None)

        def replay_state(i, row):
            ids = []
            for k in range(i, -1, -1):
                ids.insert(0, int(value.node[k][row]))
                row = value.pred[k][row]
            state = start_state(grid.robot, *node_state(grid, 0, ids[0]))
            for k in range(1, i + 1):
                _, state = edge(grid.robot, limits, grid.path.dlam, state,
                                *node_state(grid, k, ids[k]))
            return state

        for i in range(grid.n_stages):
            assert len(set(value.node[i + 1].tolist())) == value.node[i + 1].size
            for f, cost in zip(value.node[i + 1], value.cost[i + 1]):
                best = np.inf
                for p in range(value.node[i].size):
                    ev, after = edge(grid.robot, limits, grid.path.dlam, replay_state(i, p),
                                     *node_state(grid, i + 1, f))
                    if after is not None:
                        best = min(best, value.cost[i][p] + ev.dt[0, 0])
                assert cost == best


class TestUnconstrained:
    def test_free_boundaries_saturate_pv_cap(self, arm):
        n_stages = 4
        spec = GridSpec(pv_max=1.5, pv_levels=3, v_min=[0.6], v_max=[1.2],
                        v_step=[0.3], rest_to_rest=False)
        grid = build_grid(arm, line_path(n_stages), spec)
        result = plan(grid, inf_limits())
        dlam = grid.path.dlam
        expected = 0.0
        for _ in range(n_stages):
            expected = expected + dlam / 1.5
        assert result.cost == expected
        levels = result.node_ids // grid.cfg_count
        assert np.all(levels[1:] == 3)

    def test_rest_to_rest_boundary_corrections(self, arm):
        n_stages = 5
        spec = GridSpec(pv_max=1.5, pv_levels=3, v_min=[0.6], v_max=[1.2],
                        v_step=[0.3], rest_to_rest=True)
        grid = build_grid(arm, line_path(n_stages), spec)
        result = plan(grid, inf_limits())
        dlam = grid.path.dlam
        expected = 2.0 * dlam / (0.0 + 1.5)
        for _ in range(n_stages - 2):
            expected = expected + dlam / 1.5
        expected = expected + 2.0 * dlam / (1.5 + 0.0)
        assert result.cost == expected
        levels = result.node_ids // grid.cfg_count
        assert levels[0] == 0 and levels[-1] == 0
        assert np.all(levels[1:-1] == 3)


class TestDeterminism:
    def test_repeat_runs_bit_identical(self, arm):
        grid = build_grid(arm, line_path(3),
                          GridSpec(pv_max=1.0, pv_levels=3, v_min=[0.6],
                                   v_max=[1.2], v_step=[0.3]))
        limits = LimitSets.from_joint_limits(arm.limits)
        a, b = plan(grid, limits), plan(grid, limits)
        assert a.cost == b.cost and np.array_equal(a.node_ids, b.node_ids)


class TestExtraction:
    def test_timestamps_and_cost(self, arm):
        grid = build_grid(arm, line_path(4),
                          GridSpec(pv_max=1.2, pv_levels=4, v_min=[0.3],
                                   v_max=[1.2], v_step=[0.3]))
        result = plan(grid, LimitSets.from_joint_limits(arm.limits))
        t = result.profile.t
        assert np.all(np.diff(t) > 0)
        assert t[-1] == result.cost           # same fold as the sweep
        assert t[0] == 0.0

    def test_replay_matches_search(self, arm):
        grid = build_grid(arm, line_path(4),
                          GridSpec(pv_max=1.2, pv_levels=4, v_min=[0.3],
                                   v_max=[1.2], v_step=[0.3]))
        limits = LimitSets.from_joint_limits(arm.limits)
        result = plan(grid, limits)
        state = start_state(grid.robot, result.profile.q[0], result.profile.pv[0])
        for i in range(1, grid.n_stages + 1):
            ev, state = edge(grid.robot, limits, grid.path.dlam, state,
                             result.profile.q[i], result.profile.pv[i])
            assert state is not None
            assert ev.dt[0, 0] == result.profile.dt[i]
            assert np.array_equal(ev.qd[0], result.profile.qd[i])
            assert np.array_equal(ev.tau[0], result.profile.tau[i])

    def test_single_segment(self, arm):
        spec = GridSpec(pv_max=1.0, pv_levels=2, v_min=[0.9], v_max=[0.9],
                        v_step=[0.3], rest_to_rest=False)
        grid = build_grid(arm, line_path(1), spec)
        result = plan(grid, inf_limits())
        assert result.profile.t.shape == (2,)
        assert result.cost == result.profile.dt[1]

    def test_dangling_predecessor_rejected(self, arm):
        grid = build_grid(arm, line_path(2),
                          GridSpec(pv_max=1.0, pv_levels=2, v_min=[0.6],
                                   v_max=[1.2], v_step=[0.3]))
        value, = planner._sweep(grid, inf_limits(), 0, None)
        pred = value.pred[-1].copy()
        pred[np.lexsort((value.node[-1], value.cost[-1]))[0]] = -1
        corrupt = replace(value, pred=value.pred[:-1] + (pred,))
        with pytest.raises(CorruptChain, match="dangling"):
            extract((corrupt,))

    @pytest.mark.parametrize("search", [plan, exhaustive_plan])
    @pytest.mark.parametrize("cells,qd_cap,pv_levels,n_stages", [
        # the same configuration in both cells: terminals (l, 0) and (l, 1)
        # tie along mirrored chains
        ((0.8, 0.8), 3.0, 2, 3),
        # terminals 0 and 6 tie, and at depth 2 the first cheapest label in
        # key order, (1, 7, 6), ends at the higher id
        ((0.6, 0.8), 1.92, 3, 2),
    ], ids=["tied_cells", "tied_levels"])
    def test_terminal_tie_keeps_lowest_node(self, search, cells, qd_cap, pv_levels,
                                            n_stages):
        grid = toy_grid(n_stages=n_stages, pv_levels=pv_levels, rest=False,
                        v_values=cells)
        limits = LimitSets(qd=np.full(3, qd_cap))
        cheapest = {}
        for chain, cost in feasible_chains(grid, limits):
            cheapest[chain[-1]] = min(cost, cheapest.get(chain[-1], np.inf))
        best = min(cheapest.values())
        tied = sorted(f for f, cost in cheapest.items() if cost == best)
        assert len(tied) > 1
        result = search(grid, limits)
        assert result.cost == best
        assert result.node_ids[-1] == tied[0]

    def test_replay_rejects_infeasible_chain(self, arm):
        grid = build_grid(arm, line_path(3),
                          GridSpec(pv_max=1.2, pv_levels=4, v_min=[0.3],
                                   v_max=[1.2], v_step=[0.3]))
        limits = LimitSets.from_joint_limits(arm.limits)
        result = plan(grid, limits)
        args = (0, [result.node_ids], [result.cost], [result.reached])
        again, = replay(grid, limits, *args)
        assert np.array_equal(again.profile.t, result.profile.t)
        # the same chain under a velocity cap it breaks: the message names
        # the failed order
        with pytest.raises(CorruptChain, match="stage 1 is infeasible: qd$"):
            replay(grid, LimitSets(qd=np.full(3, 1e-6)), *args)
        # pv 0 -> 0: a rest-to-rest edge has no time step
        stalled = result.node_ids.copy()
        stalled[1] = stalled[1] % grid.cfg_count           # level 0 at stage 1
        assert grid.pv_values[stalled[0] // grid.cfg_count] == 0.0
        with pytest.raises(CorruptChain, match="stage 1 has no time step"):
            replay(grid, limits, 0, [stalled], [result.cost], [result.reached])

    def test_reached_sets(self, arm):
        grid = build_grid(arm, line_path(3),
                          GridSpec(pv_max=1.0, pv_levels=3, v_min=[0.6],
                                   v_max=[1.2], v_step=[0.3]))
        result = plan(grid, inf_limits())
        assert np.array_equal(result.reached.node_ids[0], grid.stage_ids(0))
        for i in range(4):
            assert np.all(np.isin(result.reached.node_ids[i], grid.stage_ids(i)))

    def test_history_orders_tag(self, arm):
        grid = toy_grid()
        assert plan(grid, LimitSets(qd=arm.limits.qd_max)).history_orders == ()
        full = plan(grid, LimitSets.from_joint_limits(arm.limits))
        assert full.history_orders == ("qdd", "qddd", "tau", "taud")


def edge_by_edge(grid, limits, check_count, node_ids):
    """A node chain folded through the engine one 1 x 1 x 1 call per edge:
    each edge's StageEval, up to and including the first infeasible one."""
    C = grid.cfg_count
    state = start_state(grid.robot, *node_state(grid, 0, node_ids[0]))
    evals = []
    for i in range(1, grid.n_stages + 1):
        q, pv = grid.q_table[i, node_ids[i] % C], grid.pv_values[node_ids[i] // C]
        ev, state = edge(grid.robot, limits, grid.path.dlam, state, q, pv, check_count)
        evals.append(ev)
        if state is None:
            break
    return evals


@functools.cache
def dp_and_exact(name, check_count):
    """The bundled scenario's grid and limits, then its DP and exact-search
    results (one sweep, one replay of both chains), with no label budget."""
    sc = bundled_scenario(name)
    grid = sc.build()
    return (grid, sc.limits,
            *_dp_and_exact(grid, sc.limits, OracleBudget(math.inf), check_count))


def chain_rows(value):
    """The rows of a ValueMap's extracted chain, stage by stage."""
    rows = [np.lexsort((value.node[-1], value.cost[-1]))[0]]
    for pred in value.pred[:0:-1]:
        rows.append(pred[rows[-1]])
    return rows[::-1]


def extracted(values):
    """extract(values), or the message of the CorruptChain it raises."""
    try:
        return extract(values)
    except CorruptChain as err:
        return str(err)


def reference_profile(result):
    """dt, t, qd, qdd and qddd of a replayed chain, recomputed in plain
    Python floats from its configurations, levels and dlam: the time step
    of each edge (trapezoid into or out of rest, backward Euler
    otherwise), their running sum and backward differences."""
    grid = result.grid
    dlam = float(grid.path.dlam)
    pv = [float(grid.pv_values[f // grid.cfg_count]) for f in result.node_ids]
    q = result.profile.q.tolist()
    start = [0.0 if pv[0] == 0.0 else math.nan] * len(q[0])
    dt, t, qd, qdd, qddd = [0.0], [0.0], [start], [start], [start]
    for i in range(1, len(q)):
        a, b = pv[i - 1], pv[i]
        step = 2.0 * dlam / (a + b) if a == 0.0 or b == 0.0 else dlam / b
        dt.append(step)
        t.append(t[-1] + step)
        for x, dx in ((q, qd), (qd, qdd), (qdd, qddd)):
            dx.append([(new - old) / step for new, old in zip(x[i], x[i - 1])])
    return {name: np.array(x) for name, x in
            zip(("dt", "t", "qd", "qdd", "qddd"), (dt, t, qd, qdd, qddd))}


def assert_same_results(got, want):
    """PlanResults equal bit for bit: chain, cost, every profile field,
    reached sets and saturation."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.node_ids.tobytes() == b.node_ids.tobytes()
        assert a.cost == b.cost
        for field in ("t", "dt", "lam", "pv", "q", "qd", "qdd", "qddd", "tau", "taud"):
            assert getattr(a.profile, field).tobytes() == getattr(b.profile, field).tobytes()
        assert [x.tobytes() for x in a.reached.node_ids] == [
            x.tobytes() for x in b.reached.node_ids]
        sa, sb = a.saturation, b.saturation
        assert (sa.percentage, sa.active_order, list(sa.per_order)) == (
            sb.percentage, sb.active_order, list(sb.per_order))
        assert sa.stage_ratio.tobytes() == sb.stage_ratio.tobytes()
        assert all(sa.per_order[o].tobytes() == sb.per_order[o].tobytes()
                   for o in sa.per_order)


class TestChainReplay:
    """replay scores a stack of chains in one lane screen and two engine
    calls of one lane per edge; it must give what one call per edge gives
    and what replaying the chains one at a time gives, and raise the error
    of the first bad chain, naming its first bad edge."""

    @pytest.mark.parametrize("check_count", [0, 2])
    @pytest.mark.parametrize("name", ["ellipse", "line", "toy_full", "toy_jerk",
                                      "toy_velocity"])
    def test_matches_edge_by_edge(self, name, check_count):
        sc = bundled_scenario(name)
        grid = sc.build()
        result = plan(grid, sc.limits, check_count=check_count, window=sc.window)
        profile = result.profile
        evals = edge_by_edge(grid, sc.limits, check_count, result.node_ids)
        assert len(evals) == grid.n_stages and all(ev.ok.tolist() == [True] for ev in evals)
        dt = np.concatenate(([0.0], [ev.dt[0, 0] for ev in evals]))
        assert profile.dt.tobytes() == dt.tobytes()
        first = start_state(grid.robot, profile.q[0], profile.pv[0])
        assert profile.qd[0].tobytes() == first[2].tobytes()
        assert profile.qdd[0].tobytes() == first[3].tobytes()
        assert profile.tau[0].tobytes() == first[4].tobytes()
        for field in ("qd", "qdd", "qddd", "tau", "taud"):
            want = np.concatenate([getattr(ev, field) for ev in evals])
            assert getattr(profile, field)[1:].tobytes() == want.tobytes()
        assert profile.t[-1] == result.cost

    def test_corrupt_middle_node_names_its_edge(self):
        # every other node of the middle stage in place of the plan's: where
        # the edge into it is the chain's first infeasible edge, replay must
        # name that stage and the orders the edge-by-edge reference fails
        sc = bundled_scenario("line")
        grid = sc.build()
        result = plan(grid, sc.limits)
        m = grid.n_stages // 2
        named = []
        for f in grid.stage_ids(m):
            ids = result.node_ids.copy()
            ids[m] = f
            evals = edge_by_edge(grid, sc.limits, 0, ids)
            failed = list(evals[-1].rejections())
            if len(evals) != m or evals[-1].ok.any() or "duration" in failed:
                continue
            with pytest.raises(CorruptChain) as err:
                replay(grid, sc.limits, 0, [ids], [result.cost], [result.reached])
            assert str(err.value) == (f"replayed edge into stage {m} is infeasible: "
                                      f"{', '.join(failed)}")
            named.append(failed)
        # the velocity bound alone, and orders above it
        assert ["qd"] in named and any("qd" not in failed for failed in named)

    def test_middle_edge_without_time_step(self):
        # two consecutive interior nodes at rest: the edge between them has
        # no time step, and no bound rejects anything else
        sc = bundled_scenario("line")
        grid = sc.build()
        result = plan(grid, sc.limits)
        m = grid.n_stages // 2
        ids = result.node_ids.copy()
        ids[m:m + 2] %= grid.cfg_count
        with pytest.raises(CorruptChain, match=f"^replayed edge into stage {m + 1} "
                                               "has no time step$"):
            replay(grid, inf_limits(), 0, [ids], [result.cost], [result.reached])

    @pytest.mark.parametrize("check_count", [0, 2])
    @pytest.mark.parametrize("name", ["ellipse", "line", "toy_full", "toy_jerk",
                                      "toy_velocity"])
    def test_stack_equals_single_replays(self, name, check_count):
        # the DP's and the exact search's chains, extracted together, then
        # restacked in another order with a chain repeated
        grid, limits, dp, exact = dp_and_exact(name, check_count)
        stack = (exact, dp, exact)
        got = replay(grid, limits, check_count, [r.node_ids for r in stack],
                     [r.cost for r in stack], [r.reached for r in stack])
        want = [replay(grid, limits, check_count, [r.node_ids], [r.cost], [r.reached])[0]
                for r in stack]
        assert_same_results(got, want)
        assert_same_results((dp, exact), want[1:])

    @pytest.mark.parametrize("check_count", [0, 2])
    @pytest.mark.parametrize("name", ["ellipse", "line", "toy_full", "toy_jerk",
                                      "toy_velocity"])
    def test_matches_a_plain_float_reference(self, name, check_count):
        # the kinematic fields of a replay, recomputed without the engine
        grid, limits, dp, exact = dp_and_exact(name, check_count)
        for result in (dp, exact):
            assert result.profile.pv.tolist() == [
                float(grid.pv_values[f // grid.cfg_count]) for f in result.node_ids]
            for field, want in reference_profile(result).items():
                assert getattr(result.profile, field).tobytes() == want.tobytes(), field
            assert result.profile.t[-1] == result.cost

    def test_duration_must_equal_the_search_cost(self):
        sc = bundled_scenario("line")
        grid = sc.build()
        result = plan(grid, sc.limits)
        off = float(np.nextafter(result.cost, np.inf))
        with pytest.raises(CorruptChain) as err:
            replay(grid, sc.limits, 0, [result.node_ids] * 2, [result.cost, off],
                   [result.reached] * 2)
        assert str(err.value) == (f"replayed duration {result.cost!r} differs from the "
                                  f"search's cost {off!r}")

    KINDS = (None, "dangling pointer", "bad edge", "stalled start")

    @pytest.mark.parametrize("second", KINDS)
    @pytest.mark.parametrize("first", KINDS)
    def test_corrupt_pair_raises_as_extracting_in_turn(self, first, second):
        # the DP's and the exact search's ValueMaps of one sweep, each left
        # whole or corrupted
        sc = bundled_scenario("toy_jerk")
        grid = sc.build()
        values = planner._sweep(grid, sc.limits, 0, None, (0, HISTORY_DEPTH))
        pair = tuple(self.corrupted(grid, value, kind) for value, kind in
                     zip(values, (first, second)))
        in_turn = [extracted((value,)) for value in pair]
        for kind, single in zip((first, second), in_turn):
            assert isinstance(single, str) == (kind is not None)
        errors = [single for single in in_turn if isinstance(single, str)]
        stacked = extracted(pair)
        if errors:
            assert stacked == errors[0]
        else:
            assert_same_results(stacked, [single[0] for single in in_turn])

    @staticmethod
    def corrupted(grid, value, kind):
        """value with its extracted chain broken: a dangling predecessor
        at the last stage; another node at the middle stage, one that makes
        an edge pass the velocity bound but fail a higher order; or stage 1
        at rest, so that the edge from the rest start has no time step."""
        if kind is None:
            return value
        rows, C = chain_rows(value), grid.cfg_count
        if kind == "dangling pointer":
            pred = value.pred[-1].copy()
            pred[rows[-1]] = -1
            return replace(value, pred=value.pred[:-1] + (pred,))

        def with_node(i, f):
            node = list(value.node)
            node[i] = node[i].copy()
            node[i][rows[i]] = f
            return replace(value, node=tuple(node))

        if kind == "stalled start":
            broken = with_node(1, value.node[1][rows[1]] % C)
            assert extracted((broken,)) == "replayed edge into stage 1 has no time step"
            return broken
        # the first node of the middle stage that does
        m = grid.n_stages // 2
        for f in grid.stage_ids(m):
            broken = with_node(m, f)
            error = extracted((broken,))
            if (isinstance(error, str) and " is infeasible: " in error
                    and not error.endswith(": qd")):
                return broken
        raise AssertionError("no middle node breaks the chain")


class TestLaneSparseHotPaths:
    """The sweep, replay, the exact search and the baseline read the
    engine's lane fields only: with the dense (P, L, C) views made to raise,
    each still reaches its pinned cost."""

    @pytest.fixture(autouse=True)
    def no_dense_views(self, monkeypatch):
        def dense(ev):
            raise AssertionError("a dense (P, L, C) view was read")

        for name in ("feasible", "order_ok"):
            monkeypatch.setattr(StageEval, name, property(dense))

    @pytest.mark.parametrize("name,check_count,cost,baseline", [
        ("line", 0, 0.6811343418486278, 1.0155573593073597),
        ("ellipse", 0, 2.256789291904326, 2.7536970259016083),
        ("ellipse", 2, 2.360311736487093, 2.795106003734715),
        ("toy_jerk", 0, 0.9333333333333333, None),
    ])
    def test_plan_and_baseline(self, name, check_count, cost, baseline):
        sc = bundled_scenario(name)
        assert plan(sc.build(), sc.limits, check_count=check_count).cost == cost
        if baseline is not None:
            path = sc.sample()
            joint_path = resolve_redundancy(sc.robot, path, sc.baseline)
            pinned = time_parametrize(sc.robot, path, joint_path, sc.limits, sc.grid,
                                      check_count=check_count)
            assert pinned.cost == baseline

    def test_windowed_plan(self):
        sc = bundled_scenario("line")
        assert plan(sc.build(), sc.limits, window=Window(max_dj=1)).cost == 0.6811343418486278

    def test_exact_search(self):
        sc = bundled_scenario("toy_jerk")
        assert exhaustive_plan(sc.build(), sc.limits).cost == 0.6666666666666667

    @pytest.mark.parametrize("window", [None, Window(), Window(max_dl=1), Window(max_dj=1)])
    def test_every_sweep_call_gets_a_screen(self, monkeypatch, window):
        # the sweep screens the stage's admissible (L, C) mask, which every
        # row shares, with each row's window, and passes each block its
        # rows' Screen
        engine, forms = planner.stage_transitions, set()

        def spy(*args, candidates=None, **kwargs):
            forms.add(type(candidates))
            return engine(*args, candidates=candidates, **kwargs)

        monkeypatch.setattr(planner, "stage_transitions", spy)
        sc = bundled_scenario("line")
        planner._sweep(sc.build(), sc.limits, 0, window)
        assert forms == {Screen}


class TestInfeasibility:
    def test_impossible_velocity_bound(self):
        grid = toy_grid()
        with pytest.raises(NoFeasiblePlan) as err:
            plan(grid, LimitSets(qd=np.full(3, 1e-6)))
        assert err.value.deepest_stage == 0
        assert err.value.violation_histogram.get("qd", 0) > 0

    def test_rest_single_segment_has_no_plan(self, arm):
        spec = GridSpec(pv_max=1.0, pv_levels=2, v_min=[0.9], v_max=[0.9],
                        v_step=[0.3], rest_to_rest=True)
        grid = build_grid(arm, line_path(1), spec)
        with pytest.raises(NoFeasiblePlan) as err:
            plan(grid, inf_limits())
        assert err.value.violation_histogram.get("duration", 0) > 0

    @pytest.mark.parametrize("search", [plan, exhaustive_plan])
    def test_edges_without_time_step_count_under_duration_alone(self, arm, search):
        # 4 cells (2 redundancy values x 2 branches): every edge of a
        # rest-to-rest single segment stops from rest, so none has a time
        # step, and a unit step would break this velocity bound
        spec = GridSpec(pv_max=1.0, pv_levels=2, v_min=[0.7], v_max=[1.0],
                        v_step=[0.3], rest_to_rest=True)
        grid = build_grid(arm, line_path(1), spec)
        assert grid.admissible_counts == [4, 4]
        with pytest.raises(NoFeasiblePlan) as err:
            search(grid, LimitSets(qd=np.full(3, 0.05)))
        assert err.value.deepest_stage == 0
        assert err.value.violation_histogram == {"duration": 16}

    def test_check_points_can_kill_all_chains(self):
        # gravity peaks mid-edge; endpoint checks alone miss it
        from conftest import inverse_dynamics, make_reference_arm
        arm = make_reference_arm()
        path = line_path(1)
        q_table = np.array([[[-0.5, 0.0, 0.0]], [[0.5, 0.0, 0.0]]])
        spec = GridSpec(pv_max=0.05, pv_levels=1, v_min=[0.0], v_max=[0.0],
                        v_step=[1.0], rest_to_rest=False)
        grid = grid_from_configurations(arm, path, q_table, spec)
        slope = (q_table[1, 0] - q_table[0, 0]) / path.dlam
        taus = [np.abs(inverse_dynamics(arm, q_table[0, 0] + s * (q_table[1, 0] - q_table[0, 0]),
                                        slope * 0.05, np.zeros(3)))[0]
                for s in np.linspace(0, 1, 101)]
        bound = np.array([(max(taus) + taus[0]) / 2.0, 50.0, 50.0])
        limits = LimitSets(tau=bound)
        assert plan(grid, limits, check_count=0).cost > 0
        with pytest.raises(NoFeasiblePlan):
            plan(grid, limits, check_count=3)


# sha256 of sweep_record's JSON for a search that dies at stage 0 with an
# empty histogram
DIED_AT_STAGE_0 = "1e1d58d7d7f320c64c015a3913f0e30fe6fe7a895d475d0a1ab0f8a24a5a6ed9"


class TestWindow:
    def test_window_restricts_level_jumps(self, arm):
        grid = build_grid(arm, line_path(5),
                          GridSpec(pv_max=1.5, pv_levels=3, v_min=[0.6],
                                   v_max=[1.2], v_step=[0.3]))
        free = plan(grid, inf_limits())
        ramped = plan(grid, inf_limits(), window=Window(max_dl=1))
        levels = ramped.node_ids // grid.cfg_count
        assert np.all(np.abs(np.diff(levels)) <= 1)
        assert ramped.cost >= free.cost

    def test_lattice_window(self, arm):
        grid = build_grid(arm, line_path(4),
                          GridSpec(pv_max=1.2, pv_levels=3, v_min=[0.3],
                                   v_max=[1.2], v_step=[0.3]))
        pinned = plan(grid, inf_limits(), window=Window(max_dj=0))
        rows = (pinned.node_ids % grid.cfg_count) // grid.branch_count
        assert np.all(rows == rows[0])

    # plans of the bundled line under a window; the window restricts the
    # candidate lanes before they are evaluated, which must not move them
    @pytest.mark.parametrize("window,cost,node_ids", [
        (Window(max_dl=1), 3.9464285714285716, [4, 22, 38, 56, 72, 90, 72, 54, 36, 18, 0]),
        (Window(max_dj=1), 0.6811343418486278,
         [17, 213, 175, 209, 243, 259, 257, 237, 199, 109, 1]),
    ])
    def test_windowed_line_plans_pinned(self, window, cost, node_ids):
        sc = bundled_scenario("line")
        result = plan(sc.build(), sc.limits, check_count=sc.check_count, window=window)
        assert result.cost == cost
        assert result.node_ids.tolist() == node_ids

    def test_windowed_sweep_scores_each_rows_own_window(self):
        # cells 0 and 1 have bitwise-equal configurations on lattice rows 0
        # and 1 (a configuration-table grid numbers its cells' rows), so the
        # sweep's last row of cell 0 and first row of cell 1 share their
        # configuration and time steps; under max_dj=0 each must keep its
        # own cell. The reference scores each label's own window through
        # lane_screen, one label at a time, and keeps each next node's
        # cheapest lane, on a tie the first label's. Of the 4 levels, a
        # level bound of 2 leaves some stages' rows every level in use, and
        # one of 3 leaves every row all of them
        grid = toy_grid(n_stages=3, pv_levels=3, rest=False, v_values=(0.8, 0.8, 1.0))
        assert grid.q_table[:, 0].tobytes() == grid.q_table[:, 1].tobytes()
        limits = LimitSets(qd=np.full(3, 3.0), qdd=np.full(3, 40.0))
        L, C, lattice = grid.level_count, grid.cfg_count, grid.cell_lattice()
        for window in (Window(max_dj=0), *(Window(max_dl=k, max_dj=0) for k in (1, 2, 3))):
            node = grid.stage_ids(0)
            cost = np.zeros(node.size)
            qd, qdd, tau = initial_samples(grid.robot, grid.terms[0, node % C],
                                           grid.pv_values[node // C])
            record = [(node.tolist(), [-1] * node.size, cost.tolist())]
            for i in range(grid.n_stages):
                best = {}
                for p, (level, cell) in enumerate(zip(*np.divmod(node, C))):
                    lanes = grid.admissible[i + 1] & np.all(
                        np.abs(lattice - lattice[cell]) <= window.max_dj, axis=-1)
                    if window.max_dl is not None:
                        lanes &= (np.abs(np.arange(L) - level) <= window.max_dl)[:, None]
                    args = (grid.robot, limits, grid.path.dlam, grid.q_table[i, cell][None],
                            grid.pv_values[level][None])
                    nxt = (grid.q_table[i + 1], grid.terms[i + 1], grid.pv_values)
                    ev = stage_transitions(*args, qd[p:p + 1], qdd[p:p + 1], tau[p:p + 1], *nxt,
                                           candidates=lane_screen(*args, *nxt,
                                                                  np.flatnonzero(lanes)))
                    for k in np.flatnonzero(ev.ok):
                        s, c = int(ev.node[k]), cost[p] + ev.step[k]
                        if s not in best or c < best[s][0]:
                            best[s] = (c, p, ev.qd[k], ev.qdd[k], ev.tau[k])
                node = np.array(sorted(best))
                cost, pred, qd, qdd, tau = map(np.array, zip(*(best[s] for s in node)))
                record.append((node.tolist(), pred.tolist(), cost.tolist()))
            # the cells 0 and 1 both stay reached
            assert all({0, 1} <= {f % C for f in stage[0]} for stage in record)
            assert sweep_record(grid, limits, 0, window) == (record, None, None)

    # sha256 of the JSON of sweep_record under each window, per (scenario,
    # window, depths). The digests were taken at commit 86ca006, where a
    # windowed block listed its lanes and scored each on its own, before
    # windows went through the velocity screen. A rest start's level-0
    # window reaches no candidate lane: every search dies at stage 0 with
    # an empty histogram
    WINDOWS = {"dl0": Window(max_dl=0), "dl1": Window(max_dl=1), "dj1": Window(max_dj=1),
               "dl1dj0": Window(max_dl=1, max_dj=0)}
    SWEEP_DIGESTS = {
        ("ellipse", "dl1", 0): "2f1d5c5b1c7e04ef54fa907f9cfaa4a502c7e20c03f6830967d2dc0e1ca16227",
        ("ellipse", "dj1", 0): "7bdff50569b14b65954fa05cd8e636214400296fea6960eeb3d0483d791394ea",
        ("ellipse", "dl1dj0", 0):
            "f4d40ce73c013b6f0cd3670469ad48c3dd4e14dc7edbef9f12839a127a869b8a",
        ("line", "dl1", 0): "e2aaf28c3d114a4ae6221300b703d3d4d71a396c130a6937e78038cfe2180196",
        ("line", "dj1", 0): "be39aeee8d1ce1f01adaaca1bf62b2896e6dfad09ffb160d596d606896f50ede",
        ("line", "dl1dj0", 0): "b61ba2806f474840fe8e82788be26759a496659e83914df6006e3e27d9963e68",
        ("toy_full", "dl1", 0): "b4a1578836aafa44e053250bf83fd2e208189584aee35abbf023d466ed07cc8a",
        ("toy_full", "dl1", 2): "24e3260429acd61c3d2a4fd5518a46e177c18f769a0c01530c77218ae7e4d5c9",
        ("toy_full", "dl1", (0, 2)):
            "aa3aea2e061ea5fc95a9bb3cd831bb547b88b8a326724e695e85870048f635a3",
        ("toy_full", "dj1", 0): "60456608c0b015bd907213e48bac7499b1ef420fbd26c85c830cb0f5ae6df602",
        ("toy_full", "dj1", 2): "23127b648404990e3c9ce1667f921f3a6a31f5cd60a264d23508430b8f3c42bc",
        ("toy_full", "dj1", (0, 2)):
            "65f0eccc42d591c177faa924629228a4e33debe23a8327808033f930136a3361",
        ("toy_full", "dl1dj0", 0):
            "759dbcf2212a36c52bf48f6024fd2d6d7b4dcc67aaa416d344f092ad5584f8cf",
        ("toy_full", "dl1dj0", 2):
            "759dbcf2212a36c52bf48f6024fd2d6d7b4dcc67aaa416d344f092ad5584f8cf",
        ("toy_full", "dl1dj0", (0, 2)):
            "57322cc46b43d85487661dcae20ebe4353f522996b69bac85adaecbee3a54165",
        ("toy_jerk", "dl1", 0): "8f6dcc3d233f9b50fde6525fd5a9673222f1cfcfb85adecd5e844e55ae97d766",
        ("toy_jerk", "dl1", 2): "38c5db825bd3fdf40e7478d7bceb3d582ee8ca07449aadb7708f2b87032b3b88",
        ("toy_jerk", "dl1", (0, 2)):
            "096c02236c648ccebd2a1f1f4af1b12cf7ee73e76765a59653fdfc8da7f316c1",
        ("toy_jerk", "dj1", 0): "624e863fd321379e9726c3986f7510899c5ea6db3d6fd4c0236f221a87bd24a1",
        ("toy_jerk", "dj1", 2): "b3a1d19653dfb4b7701c90c0f34b576a304645cf064b8e1683b5e8532fee900c",
        ("toy_jerk", "dj1", (0, 2)):
            "3d39f9aa99fe9aba80688908152ed95e5f201463f91131f7b11c6210ac9f00b4",
        ("toy_jerk", "dl1dj0", 0):
            "ebaf0aa5f679bf470eb9f3c538cdd377ccf6317e16e172ab12bd97a829ca521d",
        ("toy_jerk", "dl1dj0", 2):
            "ebaf0aa5f679bf470eb9f3c538cdd377ccf6317e16e172ab12bd97a829ca521d",
        ("toy_jerk", "dl1dj0", (0, 2)):
            "fbdc8822671bfea18826c9a65cc2453d3dd69482d4ebd3613d99a21224b1b8cf",
        ("toy_velocity", "dl1", 0):
            "fd4ac073f76f80c5e77e8645ae2203b310c6b4a7f686ed486e07fe453eeb7d71",
        ("toy_velocity", "dl1", 2):
            "2312cc1d1c37f157d680a73b1533c771f099991a35fb97169c2c3a1f0395ad19",
        ("toy_velocity", "dl1", (0, 2)):
            "05bc0127badd3cdaf99c23754a0b8ea8495a8c8ec226f4d7ca692de75602e9d1",
        ("toy_velocity", "dj1", 0):
            "a14cdd73da83322402a98034203db73d74a339ee07c3b9c6239ad2ff4a352839",
        ("toy_velocity", "dj1", 2):
            "bb5f83c223bcd5a49c86f451e18a7b0c892fceb9a6a830066413f9ef14e74d0e",
        ("toy_velocity", "dj1", (0, 2)):
            "b4251e68415d4c057cc08037b9a3f31d435faa858eda2671cf05e2496bafdc66",
        ("toy_velocity", "dl1dj0", 0):
            "1a7f059022251b3384ce596ca63a0001e66800ccbd478ea64c46399affe48850",
        ("toy_velocity", "dl1dj0", 2):
            "d95f9140aecf6c710fba2a748b6040f2261158e56aafae09f1440cfc1f42781e",
        ("toy_velocity", "dl1dj0", (0, 2)):
            "f42e6429a5f6a6b50faaef8b4251130ac144505d63541441f455ed715cb69731",
        **{(name, "dl0", depth): DIED_AT_STAGE_0 for name in ("ellipse", "line") for depth in (0,)},
        **{(name, "dl0", depth): DIED_AT_STAGE_0 for name in ("toy_full", "toy_jerk", "toy_velocity")
           for depth in (0, 2, (0, 2))},
    }

    @pytest.mark.parametrize("name", ["ellipse", "line", "toy_full", "toy_jerk",
                                      "toy_velocity"])
    def test_windowed_sweeps_pinned(self, name):
        sc = bundled_scenario(name)
        grid = sc.build()
        cases = [key for key in self.SWEEP_DIGESTS if key[0] == name]
        assert len(cases) == (12 if name.startswith("toy") else 4)
        for key in cases:
            _, window, depth = key
            record = sweep_record(grid, sc.limits, sc.check_count, self.WINDOWS[window], depth)
            digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
            assert digest == self.SWEEP_DIGESTS[key], key
        if name == "line":
            # at half the torque bound the windowed search dies; the edges
            # outside the window count nowhere in its histogram
            record = sweep_record(grid, replace(sc.limits, tau=0.5 * sc.limits.tau),
                                  sc.check_count, Window(max_dl=1))
            assert record == (None, 3, {"qd": 151, "tau": 47})


class TestPredecessorBlocks:
    """The sweep screens each stage's predecessors in chunks of at most
    SCREEN_BUDGET entries, scores them in blocks of at most LANE_BUDGET
    evaluated (or listed) lanes and merges the blocks; the result must not
    depend on either budget."""

    def assert_block_free(self, monkeypatch, grid, *args, logs=None):
        whole, _ = sweep_blocks(monkeypatch, grid, (2 ** 62, 2 ** 62), *args)
        S = grid.level_count * grid.cfg_count
        # (lane, screen) budgets: one row per block and per screen slice;
        # one row per block under a whole-stage screen, which splits its
        # groups between blocks; a whole-stage screen whose groups' rows go
        # to several blocks; slices of C rows, a few groups per chunk and
        # rows per block
        for budgets in ((1, 1), (1, 2 ** 62), (97, 2 ** 62), (3 * S - 1, S)):
            record, log = sweep_blocks(monkeypatch, grid, budgets, *args)
            assert record == whole
            if logs is not None:
                logs.append(log)
        return whole

    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize("window", [None, Window(max_dl=1, max_dj=1)])
    def test_budgets_cut_screens_groups_and_rows(self, monkeypatch, window, depth):
        # toy_full as bundled and at 0.4 times its velocity bound, where
        # some screen groups pass no lane: the budgets above give one-row
        # blocks and blocks that evaluate no lane, and with or without a
        # window they split a stage's screen between its groups and a
        # group's rows between blocks
        sc = bundled_scenario("toy_full")
        grid, logs = sc.build(), []
        for limits in (sc.limits, replace(sc.limits, qd=0.4 * sc.limits.qd)):
            whole = self.assert_block_free(monkeypatch, grid, limits, sc.check_count, window,
                                           depth, logs=logs)
            assert whole[0] is not None
        calls = [call for log in logs for call in log["calls"]]
        assert any(rows == 1 for rows, _ in calls)
        assert any(lanes == 0 for _, lanes in calls)
        screens = [chunks for log in logs for chunks in log["screens"]]
        assert any(len(chunks) > 1 for chunks in screens)
        # a level window from a rest start leaves the depth-0 search one
        # label per screen group on this grid, so nothing is there to split
        assert (sum(log["split"] for log in logs) > 0) == (window is None or depth == 2)

    # a screen chunk's tracemalloc peak per SCREEN_BUDGET entry with the
    # velocity bound off: the figure of the SCREEN_BUDGET comment
    NO_QD_ENTRY_PEAK_B = 275

    def test_a_chunk_without_a_velocity_bound_stays_within_its_memory(self, monkeypatch):
        # with the velocity bound off every (group, level, cell) entry with
        # a time step passes the screen and keeps its qd and bias torque.
        # The bundled line with 66 cells and three stages fills chunks to
        # near SCREEN_BUDGET entries; each chunk's peak, from the call that
        # builds it to its Screen, stays within NO_QD_ENTRY_PEAK_B bytes per
        # budget entry
        doc = bundled_scenario("line").to_dict()
        doc["n_stages"] = 3
        doc["grid"]["v_step"] = [0.0125]
        sc = load_scenario(doc)
        grid = sc.build()
        grid.terms
        screens, chunks = planner.velocity_screens, []

        def measured(*args, **kwargs):
            mask = args[8]
            box = np.count_nonzero(mask.any(axis=1)) * mask.shape[1]
            chunk = screens(*args, **kwargs)
            while True:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    at, screen = next(chunk)
                except StopIteration:
                    return
                chunks.append(((screen.group[-1] + 1) * box, tracemalloc.get_traced_memory()[1] - base))
                yield at, screen

        monkeypatch.setattr(planner, "velocity_screens", measured)
        tracemalloc.start()
        try:
            planner._sweep(grid, sc.limits.disable("qd"), sc.check_count, None)
        finally:
            tracemalloc.stop()
        assert max(entries for entries, _ in chunks) > 0.9 * planner.SCREEN_BUDGET
        for entries, peak in chunks:
            assert entries <= planner.SCREEN_BUDGET
            assert peak <= self.NO_QD_ENTRY_PEAK_B * planner.SCREEN_BUDGET

    @pytest.mark.parametrize("window", [None, Window(max_dl=8)])
    def test_calls_stay_within_the_budgets(self, monkeypatch, window):
        # the bundled line over 4 stages with the velocity bound off: every
        # candidate with a time step (in the window) is evaluated, up to 288
        # x 288 lanes a stage. At the module's budgets each engine call
        # evaluates at most LANE_BUDGET lanes and each screen chunk's
        # (group, level, cell) box holds at most SCREEN_BUDGET entries,
        # unless one row or group alone takes more
        doc = bundled_scenario("line").to_dict()
        doc["n_stages"] = 4
        sc = load_scenario(doc)
        grid = sc.build()
        budgets = planner.LANE_BUDGET, planner.SCREEN_BUDGET
        record, log = sweep_blocks(monkeypatch, grid, budgets, sc.limits.disable("qd"),
                                   sc.check_count, window)
        assert record[0] is not None
        for rows, lanes in log["calls"]:
            assert rows == 1 or lanes <= budgets[0]
        work = [lanes for _, lanes in log["calls"]]
        assert max(work) > budgets[0] // 2 and sum(work) > 3 * budgets[0]
        assert log["screens"]
        for groups, box in (chunk for stage in log["screens"] for chunk in stage):
            assert groups == 1 or groups * box <= budgets[1]

    @pytest.mark.parametrize("name", ["ellipse", "line", "toy_full", "toy_jerk",
                                      "toy_velocity"])
    def test_bundled_scenarios(self, monkeypatch, name):
        sc = bundled_scenario(name)
        self.assert_block_free(monkeypatch, sc.build(), sc.limits, sc.check_count,
                               sc.window)

    def test_windowed(self, monkeypatch):
        # a windowed sweep screens its stages too, and the budgets split its
        # screens and their groups
        sc = bundled_scenario("line")
        logs = []
        self.assert_block_free(monkeypatch, sc.build(), sc.limits, sc.check_count,
                               Window(max_dl=1, max_dj=1), logs=logs)
        assert any(len(chunks) > 1 for log in logs for chunks in log["screens"])
        assert sum(log["split"] for log in logs) > 0

    def test_infeasible_histogram(self, monkeypatch):
        sc = bundled_scenario("line")
        limits = replace(sc.limits, tau=0.5 * sc.limits.tau)
        labels, deepest, histogram = self.assert_block_free(monkeypatch, sc.build(),
                                                            limits)
        # 10 of the 14 start cells cannot hold still at half the torque
        # bound and start no chain; the chains from the other 4 die a
        # stage earlier than the 14 did
        assert labels is None and deepest == 3 and histogram["tau"] > 0

    def test_a_rest_start_must_hold_its_torque(self):
        # every start cell of line needs at least 12.7668 N m on joint 1 to
        # hold still, so a 12.7541 bound leaves no start node
        sc = bundled_scenario("line")
        limits = LimitSets(qd=sc.limits.qd, tau=[12.7541, 1e9, 1e9])
        with pytest.raises(NoFeasiblePlan) as err:
            plan(sc.build(), limits, check_count=sc.check_count)
        assert (err.value.deepest_stage, err.value.violation_histogram) == (0, {"tau": 14})
        # at 12.7669 the start holds, and the plan's torque stays in bounds
        result = plan(sc.build(), replace(limits, tau=np.array([12.7669, 1e9, 1e9])),
                      check_count=sc.check_count)
        assert np.nanmax(np.abs(result.profile.tau[:, 0])) <= 12.7669

    def test_replay_rejects_a_start_that_cannot_hold_still(self):
        # a chain the sweep emitted before it checked rest starts: its edges
        # pass at both bounds, but its start needs 12.7668 N m on joint 1
        sc = bundled_scenario("line")
        grid = sc.build()
        chain = [16, 214, 142, 160, 142, 212, 192, 172, 170, 168, 0]
        limits = LimitSets(qd=sc.limits.qd, tau=[12.7669, 1e9, 1e9])
        # the chain's duration, folded edge by edge as the sweep does
        cost = 0.0
        for ev in edge_by_edge(grid, limits, 0, chain):
            cost = cost + float(ev.dt[0, 0])
        result, = replay(grid, limits, 0, [chain], [cost], [ReachedSets(())])
        assert 12.7668 <= result.profile.tau[0, 0] <= 12.7669
        with pytest.raises(CorruptChain, match="^replayed start at stage 0 is infeasible: tau$"):
            replay(grid, replace(limits, tau=np.array([12.7541, 1e9, 1e9])), 0, [chain], [cost],
                   [ReachedSets(())])

    def test_depth_two(self, monkeypatch):
        # a block's keys are numbered by its own tail groups, which only
        # depth 2 has more than one of
        sc = bundled_scenario("toy_jerk")
        labels, _, _ = self.assert_block_free(monkeypatch, sc.build(), sc.limits,
                                              sc.check_count, sc.window, 2)
        assert labels is not None

    @pytest.mark.parametrize("depth", [0, 2])
    def test_block_keys_fit_the_budget(self, monkeypatch, depth):
        # a block's scatter spans its own tail groups times S slots, which
        # its rows bound: a group's labels are never split over a block
        sc = bundled_scenario("toy_jerk")
        grid = sc.build()
        S = grid.level_count * grid.cfg_count
        reduce, slots = planner._scatter_cheapest, []
        monkeypatch.setattr(planner, "_scatter_cheapest",
                            lambda *args: slots.append(args[-1]) or reduce(*args))
        for budget in (1, S - 1, 3 * S - 1, 97, 2 ** 62):
            monkeypatch.setattr(planner, "LANE_BUDGET", budget)
            slots.clear()
            sweep_record(grid, sc.limits, sc.check_count, sc.window, depth)
            assert slots and max(slots) <= max(budget, S)

    def test_tie_across_blocks_keeps_lowest_predecessor(self, monkeypatch):
        # two cells with the same configuration at every stage: node (l, 0)
        # and node (l, 1) always tie, and one-row blocks put them apart
        grid = toy_grid(n_stages=3, pv_levels=3, rest=False, v_values=(0.8, 0.8))
        labels, _, _ = self.assert_block_free(monkeypatch, grid,
                                              LimitSets(qd=np.full(3, 3.0)))
        C = grid.cfg_count
        for i, (node, pred, cost) in enumerate(labels):
            cost_of = dict(zip(node, cost))     # f ^ 1: the other cell of f's level
            assert all(cost_of.get(f ^ 1) == c for f, c in cost_of.items())
            if i:
                assert all(labels[i - 1][0][p] % C == 0 for p in pred)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scatter_reduce_equals_cheapest(data):
    # a block's reduce keeps the entries the stage merge would: per key the
    # lowest cost, on a tie the lowest pos; few distinct costs make many ties
    slots = data.draw(st.integers(1, 12))
    entries = data.draw(st.lists(st.tuples(st.integers(0, slots - 1), st.integers(0, 30)),
                                 unique=True, max_size=40))
    cost = data.draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 3.0]),
                              min_size=len(entries), max_size=len(entries)))
    key, pos = np.array(entries, dtype=np.intp).reshape(-1, 2).T
    cost = np.array(cost, dtype=float)
    win = planner._scatter_cheapest(key, cost, pos, slots)
    *_, want = planner._cheapest(key, cost, pos, np.arange(key.size))
    assert np.all(np.diff(win) > 0)
    assert np.array_equal(win, np.sort(want))


class TestEngineTallies:
    """What a sweep's engine calls did, summed over the calls: the lanes
    evaluated (ev.lanes), the feasible lanes and the rejections per order.
    bench/tracing.py derives its constraints.* counters from these fields,
    so a change in how the sweep forms its blocks, or in how the engine
    computes a lane, must leave these sums as they are."""

    @pytest.mark.parametrize("name,depth,expect", [
        ("line", 0, {"lanes": 43499, "feasible": 24934, "qd": 278605, "qdd": 8746,
                     "qddd": 10201, "tau": 8855, "taud": 3650}),
        ("ellipse", 0, {"lanes": 19433, "feasible": 7653, "qd": 238617, "qdd": 10659,
                        "qddd": 9937, "tau": 999, "taud": 1806}),
        ("toy_jerk", 0, {"lanes": 30, "feasible": 22, "qddd": 8}),
        ("toy_jerk", 2, {"lanes": 76, "feasible": 60, "qddd": 16}),
    ])
    def test_bundled_sweeps(self, monkeypatch, name, depth, expect):
        engine = planner.stage_transitions
        tally = {"lanes": 0, "feasible": 0}

        def counting(*args, **kwargs):
            ev = engine(*args, **kwargs)
            tally["lanes"] += ev.lanes.size
            tally["feasible"] += int(np.count_nonzero(ev.ok))
            for key, count in ev.rejections().items():
                tally[key] = tally.get(key, 0) + count
            return ev

        monkeypatch.setattr(planner, "stage_transitions", counting)
        sc = bundled_scenario(name)
        planner._sweep(sc.build(), sc.limits, sc.check_count, sc.window, (depth,))
        assert tally == expect

    @pytest.mark.parametrize("name,depth", [
        ("ellipse", 0), ("line", 0), ("toy_full", 0), ("toy_jerk", 0), ("toy_velocity", 0),
        ("ellipse", 2), ("toy_full", 2), ("toy_jerk", 2), ("toy_velocity", 2),
    ])
    def test_equal_rows_are_adjacent(self, monkeypatch, name, depth):
        # the engine shares a mask's velocity work over runs of adjacent
        # rows with equal (q_prev, dt) bits; the sweep orders its rows so
        # that all equal rows of a block form one run, which an order that
        # split them would not show in any result, only in the work done
        runs, calls = constraints._runs, []

        def spy(key):
            run, first = runs(key)
            calls.append((first.size, np.unique(key, axis=0).shape[0]))
            return run, first

        monkeypatch.setattr(constraints, "_runs", spy)
        sc = bundled_scenario(name)
        planner._sweep(sc.build(), sc.limits, sc.check_count, sc.window, (depth,))
        assert calls and all(found == distinct for found, distinct in calls)


def pst_rows(result):
    """The rows of a plan's pst.csv: lambda, the redundancy parameters, pv."""
    lines = pst_csv(result).splitlines()
    assert lines[0] == "lam,v1,pv"
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


class TestPst:
    def test_rest_to_rest_endpoints(self, arm):
        grid = build_grid(arm, line_path(4),
                          GridSpec(pv_max=1.2, pv_levels=4, v_min=[0.3],
                                   v_max=[1.2], v_step=[0.3]))
        result = plan(grid, LimitSets.from_joint_limits(arm.limits))
        rows = pst_rows(result)
        assert rows[0, 2] == 0.0 and rows[-1, 2] == 0.0
        assert np.array_equal(rows[:, 2], result.profile.pv)

    def test_lambda_column_exact(self, arm):
        grid = build_grid(arm, line_path(4),
                          GridSpec(pv_max=1.2, pv_levels=4, v_min=[0.3],
                                   v_max=[1.2], v_step=[0.3]))
        result = plan(grid, inf_limits())
        assert np.array_equal(pst_rows(result)[:, 0], np.arange(5) * grid.path.dlam)

    def test_fixed_v_degenerates_to_phase_plane(self, arm):
        spec = GridSpec(pv_max=1.2, pv_levels=4, v_min=[0.9], v_max=[0.9],
                        v_step=[0.3], rest_to_rest=True)
        grid = build_grid(arm, line_path(4), spec)
        result = plan(grid, inf_limits())
        assert np.all(pst_rows(result)[:, 1] == 0.9)
        assert np.all(result.profile.q[:, 0] == 0.9)
