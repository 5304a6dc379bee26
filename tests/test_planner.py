"""DP planner: exactness vs enumeration, determinism, extraction, PST."""

import itertools

import numpy as np
import pytest

from redplan.constraints import LimitSets, evaluate_edge, initial_state
from redplan.errors import CorruptChain, InfeasibleEdge, NoFeasiblePlan
from redplan.grid import GridSpec, build_grid, grid_from_configurations
from redplan.planner import Window, extract, plan, pst, replay


from conftest import make_inf_limits as inf_limits
from conftest import make_line_path as line_path
from conftest import make_toy_grid as toy_grid
from conftest import enumerate_chains


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
        # every stored cost equals the best over stored predecessor chains,
        # re-derived through the scalar engine
        grid = toy_grid(n_stages=3, rest=True)
        limits = LimitSets(qd=np.full(3, 3.0))
        from redplan.planner import _sweep
        value, _ = _sweep(grid, limits, 0, None)
        C = grid.cfg_count

        def replay_state(i, f):
            ids = [f]
            for k in range(i, 0, -1):
                ids.insert(0, int(value.pred[k, ids[0]]))
            state = initial_state(grid.robot, grid.q_table[0, ids[0] % C],
                                  float(grid.pv_values[ids[0] // C]))
            for k in range(1, i + 1):
                ev = evaluate_edge(grid.robot, limits, grid.path.dlam, state,
                                   grid.q_table[k, ids[k] % C],
                                   float(grid.pv_values[ids[k] // C]))
                state = ev.next_state(grid.q_table[k, ids[k] % C],
                                      float(grid.pv_values[ids[k] // C]))
            return state

        for i in range(grid.n_stages):
            for f in value.reached(i + 1):
                best = np.inf
                for p in value.reached(i):
                    state = replay_state(i, int(p))
                    try:
                        ev = evaluate_edge(grid.robot, limits, grid.path.dlam, state,
                                           grid.q_table[i + 1, f % C],
                                           float(grid.pv_values[f // C]))
                    except InfeasibleEdge:
                        continue
                    if ev.feasible:
                        best = min(best, value.cost[i, p] + ev.dt)
                assert value.cost[i + 1, f] == best


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
        C = grid.cfg_count
        state = initial_state(grid.robot, result.profile.q[0], float(result.profile.pv[0]))
        for i in range(1, grid.n_stages + 1):
            ev = evaluate_edge(grid.robot, limits, grid.path.dlam, state,
                               result.profile.q[i], float(result.profile.pv[i]))
            assert ev.feasible
            assert ev.dt == result.profile.dt[i]
            assert np.array_equal(ev.qd, result.profile.qd[i])
            assert np.array_equal(ev.tau, result.profile.tau[i])
            state = ev.next_state(result.profile.q[i], float(result.profile.pv[i]))

    def test_single_segment(self, arm):
        spec = GridSpec(pv_max=1.0, pv_levels=2, v_min=[0.9], v_max=[0.9],
                        v_step=[0.3], rest_to_rest=False)
        grid = build_grid(arm, line_path(1), spec)
        result = plan(grid, inf_limits())
        assert result.profile.t.shape == (2,)
        assert result.cost == result.profile.dt[1]

    def test_unreached_terminal_rejected(self, arm):
        from redplan.planner import _sweep
        grid = build_grid(arm, line_path(2),
                          GridSpec(pv_max=1.0, pv_levels=2, v_min=[0.6],
                                   v_max=[1.2], v_step=[0.3]))
        value, _ = _sweep(grid, inf_limits(), 0, None)
        dead = int(np.flatnonzero(~np.isfinite(value.cost[2]))[0])
        with pytest.raises(CorruptChain):
            extract(value, dead)

    def test_replay_rejects_infeasible_chain(self, arm):
        grid = build_grid(arm, line_path(3),
                          GridSpec(pv_max=1.2, pv_levels=4, v_min=[0.3],
                                   v_max=[1.2], v_step=[0.3]))
        limits = LimitSets.from_joint_limits(arm.limits)
        result = plan(grid, limits)
        args = (0, result.node_ids, result.cost, result.reached)
        again = replay(grid, limits, *args)
        assert np.array_equal(again.profile.t, result.profile.t)
        # the same chain under a velocity cap it breaks
        with pytest.raises(CorruptChain, match="infeasible"):
            replay(grid, LimitSets(qd=np.full(3, 1e-6)), *args)
        # a rest-to-rest edge has no time step
        stalled = result.node_ids.copy()
        stalled[1] = stalled[1] % grid.cfg_count           # level 0 at stage 1
        with pytest.raises(CorruptChain):
            replay(grid, limits, 0, stalled, result.cost, result.reached)

    def test_reached_sets(self, arm):
        grid = build_grid(arm, line_path(3),
                          GridSpec(pv_max=1.0, pv_levels=3, v_min=[0.6],
                                   v_max=[1.2], v_step=[0.3]))
        result = plan(grid, inf_limits())
        assert np.array_equal(result.reached[0], grid.stage_ids(0))
        for i in range(4):
            assert np.all(np.isin(result.reached[i], grid.stage_ids(i)))

    def test_history_orders_tag(self, arm):
        grid = toy_grid()
        assert plan(grid, LimitSets(qd=arm.limits.qd_max)).history_orders == ()
        full = plan(grid, LimitSets.from_joint_limits(arm.limits))
        assert full.history_orders == ("qdd", "qddd", "tau", "taud")


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

    def test_check_points_can_kill_all_chains(self):
        # gravity peaks mid-edge; endpoint checks alone miss it
        from conftest import make_reference_arm
        arm = make_reference_arm()
        path = line_path(1)
        q_table = np.array([[[-0.5, 0.0, 0.0]], [[0.5, 0.0, 0.0]]])
        spec = GridSpec(pv_max=0.05, pv_levels=1, v_min=[0.0], v_max=[0.0],
                        v_step=[1.0], rest_to_rest=False)
        grid = grid_from_configurations(arm, path, q_table, spec)
        slope = (q_table[1, 0] - q_table[0, 0]) / path.dlam
        taus = [np.abs(arm.inverse_dynamics(q_table[0, 0] + s * (q_table[1, 0] - q_table[0, 0]),
                                            slope * 0.05, np.zeros(3)))[0]
                for s in np.linspace(0, 1, 101)]
        bound = np.array([(max(taus) + taus[0]) / 2.0, 50.0, 50.0])
        limits = LimitSets(tau=bound)
        assert plan(grid, limits, check_count=0).cost > 0
        with pytest.raises(NoFeasiblePlan):
            plan(grid, limits, check_count=3)


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


class TestPst:
    def test_rest_to_rest_endpoints(self, arm):
        grid = build_grid(arm, line_path(4),
                          GridSpec(pv_max=1.2, pv_levels=4, v_min=[0.3],
                                   v_max=[1.2], v_step=[0.3]))
        triples = pst(plan(grid, LimitSets.from_joint_limits(arm.limits)))
        assert triples[0][2] == 0.0 and triples[-1][2] == 0.0

    def test_lambda_column_exact(self, arm):
        grid = build_grid(arm, line_path(4),
                          GridSpec(pv_max=1.2, pv_levels=4, v_min=[0.3],
                                   v_max=[1.2], v_step=[0.3]))
        result = plan(grid, inf_limits())
        lams = np.array([tr[0] for tr in pst(result)])
        assert np.array_equal(lams, np.arange(5) * grid.path.dlam)

    def test_fixed_v_degenerates_to_phase_plane(self, arm):
        spec = GridSpec(pv_max=1.2, pv_levels=4, v_min=[0.9], v_max=[0.9],
                        v_step=[0.3], rest_to_rest=True)
        grid = build_grid(arm, line_path(4), spec)
        triples = pst(plan(grid, inf_limits()))
        assert all(tr[1] == 0.9 for tr in triples)
