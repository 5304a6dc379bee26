"""Constraint engine: time steps, difference stacks, checks, saturation."""

import numpy as np
import pytest

from redplan.constraints import (LimitSets, NodeState, TrajectoryProfile, edge_durations,
                                 evaluate_edge, initial_state, saturation_percentage,
                                 stage_transitions)
from redplan.errors import InfeasibleEdge, ScenarioError

from conftest import make_reference_arm


def inf_limits(n=3):
    inf = np.full(n, np.inf)
    return LimitSets(qd=inf, qdd=inf, qddd=inf, tau=inf, taud=inf)


def chain_oracle(robot, q_seq, pv_seq, dlam):
    """Independent sequence differentiation for a scripted chain."""
    N = len(pv_seq) - 1
    n = q_seq.shape[1]
    dt = np.zeros(N + 1)
    for k in range(1, N + 1):
        a, b = pv_seq[k - 1], pv_seq[k]
        dt[k] = 2.0 * dlam / (a + b) if (a == 0.0 or b == 0.0) else dlam / b
    qd = np.zeros((N + 1, n))
    qdd = np.zeros((N + 1, n))
    qddd = np.zeros((N + 1, n))
    tau = np.zeros((N + 1, n))
    taud = np.zeros((N + 1, n))
    tau[0] = robot.inverse_dynamics(q_seq[0], qd[0], qdd[0])
    for k in range(1, N + 1):
        qd[k] = (q_seq[k] - q_seq[k - 1]) / dt[k]
        qdd[k] = (qd[k] - qd[k - 1]) / dt[k]
        qddd[k] = (qdd[k] - qdd[k - 1]) / dt[k]
        tau[k] = robot.inverse_dynamics(q_seq[k], qd[k], qdd[k])
        taud[k] = (tau[k] - tau[k - 1]) / dt[k]
    return dt, qd, qdd, qddd, tau, taud


def run_chain(robot, limits, q_seq, pv_seq, dlam):
    """Fold evaluate_edge along a scripted chain; returns the evaluations."""
    state = initial_state(robot, q_seq[0], pv_seq[0])
    evals = []
    for k in range(1, len(pv_seq)):
        ev = evaluate_edge(robot, limits, dlam, state, q_seq[k], pv_seq[k])
        evals.append(ev)
        state = ev.next_state(q_seq[k], pv_seq[k])
    return evals


class TestEdgeDuration:
    def test_interior_backward_euler(self):
        assert edge_durations(0.3, 0.5, 0.1) == 0.2
        assert np.array_equal(edge_durations(np.array([0.2, 0.3]), 0.5, 0.1), [0.2, 0.2])

    def test_start_trapezoid(self):
        assert edge_durations(0.0, 0.4, 0.1) == 0.5

    def test_stop_trapezoid(self):
        assert edge_durations(0.4, 0.0, 0.1) == 0.5

    def test_both_zero_infeasible(self, arm):
        assert np.isinf(edge_durations(0.0, 0.0, 0.1))
        prev = initial_state(arm, np.zeros(3), 0.0)
        with pytest.raises(InfeasibleEdge):
            evaluate_edge(arm, inf_limits(), 0.1, prev, np.zeros(3), 0.0)


class TestScriptedChain:
    def test_matches_sequence_oracle(self, arm):
        rng = np.random.default_rng(11)
        q_seq = np.cumsum(rng.uniform(-0.05, 0.05, size=(6, 3)), axis=0) + [0.3, 0.8, -0.4]
        pv_seq = [0.0, 0.4, 0.8, 1.0, 0.6, 0.3]
        dlam = 0.1
        dt_o, qd_o, qdd_o, qddd_o, tau_o, taud_o = chain_oracle(arm, q_seq, pv_seq, dlam)
        evals = run_chain(arm, inf_limits(), q_seq, pv_seq, dlam)
        for k, ev in enumerate(evals, start=1):
            assert abs(ev.dt - dt_o[k]) <= 1e-12
            for got, want in ((ev.qd, qd_o[k]), (ev.qdd, qdd_o[k]), (ev.qddd, qddd_o[k]),
                              (ev.tau, tau_o[k]), (ev.taud, taud_o[k])):
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_torque_recompute_identity(self, arm):
        rng = np.random.default_rng(3)
        q_seq = rng.uniform(-0.5, 0.5, size=(4, 3))
        evals = run_chain(arm, inf_limits(), q_seq, [0.0, 0.5, 0.9, 0.7], 0.1)
        for k, ev in enumerate(evals, start=1):
            assert np.array_equal(ev.tau, arm.inverse_dynamics(q_seq[k], ev.qd, ev.qdd))

    def test_velocity_consistency(self, arm):
        rng = np.random.default_rng(4)
        q_seq = rng.uniform(-0.5, 0.5, size=(4, 3))
        evals = run_chain(arm, inf_limits(), q_seq, [0.0, 0.5, 0.9, 0.7], 0.1)
        for k, ev in enumerate(evals, start=1):
            dq = q_seq[k] - q_seq[k - 1]
            assert np.all(np.abs(ev.qd * ev.dt - dq) <= 4e-16 * np.maximum(1.0, np.abs(dq)))


class TestInitialState:
    def test_rest_is_static(self, arm):
        q = np.array([0.4, -0.3, 0.2])
        s = initial_state(arm, q, 0.0)
        assert np.array_equal(s.qd, np.zeros(3))
        assert np.array_equal(s.qdd, np.zeros(3))
        assert np.array_equal(s.tau, arm.gravity_torque(q))

    def test_moving_start_has_no_history(self, arm):
        s = initial_state(arm, np.zeros(3), 0.6)
        assert np.all(np.isnan(s.qd)) and np.all(np.isnan(s.qdd)) and np.all(np.isnan(s.tau))

    def test_missing_history_availability_ladder(self, arm):
        rng = np.random.default_rng(7)
        q_seq = rng.uniform(-0.4, 0.4, size=(4, 3))
        evals = run_chain(arm, inf_limits(), q_seq, [0.5, 0.6, 0.7, 0.8], 0.1)
        e1, e2, e3 = evals
        assert np.all(np.isfinite(e1.qd))
        assert np.all(np.isnan(e1.qdd)) and np.all(np.isnan(e1.tau))
        assert np.all(np.isfinite(e2.qdd)) and np.all(np.isfinite(e2.tau))
        assert np.all(np.isnan(e2.qddd)) and np.all(np.isnan(e2.taud))
        assert np.all(np.isfinite(e3.qddd)) and np.all(np.isfinite(e3.taud))
        # checks skip the missing orders, so these edges stay feasible
        assert e1.feasible and e2.feasible and e3.feasible


class TestEvaluateEdge:
    def test_forced_velocity_violation_tag(self, arm):
        prev = initial_state(arm, np.zeros(3), 0.0)
        q_next = np.array([1.0, 0.0, 0.0])      # large shoulder jump
        ev = evaluate_edge(arm, LimitSets(qd=arm.limits.qd_max), 0.05, prev, q_next, 1.0)
        assert not ev.feasible
        assert ev.violations[0].order == "qd"
        assert ev.violations[0].joint == 0
        assert ev.violations[0].excess > 0.0

    def test_identical_endpoints(self, arm):
        q = np.array([0.3, -0.2, 0.5])
        w = np.array([0.4, -0.1, 0.2])
        prev = NodeState(q=q, pv=0.5, qd=w, qdd=np.zeros(3), tau=arm.inverse_dynamics(q, w, np.zeros(3)))
        ev = evaluate_edge(arm, inf_limits(), 0.1, prev, q, 0.5)
        assert np.array_equal(ev.qd, np.zeros(3))
        assert np.array_equal(ev.qdd, -w / ev.dt)
        from redplan.robot import _matvec
        expect = _matvec(arm.inertia_matrix(q), ev.qdd) + arm.gravity_torque(q)
        assert np.allclose(ev.tau, expect, atol=1e-13)

    def test_zero_pv_edge_raises(self, arm):
        prev = initial_state(arm, np.zeros(3), 0.0)
        with pytest.raises(InfeasibleEdge):
            evaluate_edge(arm, inf_limits(), 0.1, prev, np.zeros(3), 0.0)

    def test_coulomb_crossing_skips_torque_rate(self, arm):
        q = np.zeros(3)
        qd_prev = np.array([0.5, 0.3, 0.2])
        prev = NodeState(q=q, pv=0.5, qd=qd_prev, qdd=np.zeros(3),
                         tau=arm.inverse_dynamics(q, qd_prev, np.zeros(3)))
        limits = LimitSets(taud=np.full(3, 1e-6))
        q_back = q - np.array([0.05, 0.03, 0.02])   # reverses every joint
        ev = evaluate_edge(arm, limits, 0.1, prev, q_back, 0.5)
        assert all(v.order != "taud" for v in ev.violations)
        assert ev.feasible
        q_fwd = q + np.array([0.05, 0.03, 0.02])    # same signs, no crossing
        ev2 = evaluate_edge(arm, limits, 0.1, prev, q_fwd, 0.5)
        assert not ev2.feasible
        assert any(v.order == "taud" for v in ev2.violations)

    def test_disabling_orders_is_monotone(self, arm):
        rng = np.random.default_rng(21)
        full = LimitSets.from_joint_limits(arm.limits)
        for _ in range(200):
            q_prev = rng.uniform(-1.0, 1.0, 3)
            prev = NodeState(q=q_prev, pv=rng.uniform(0.1, 1.0),
                             qd=rng.normal(0, 1, 3), qdd=rng.normal(0, 3, 3),
                             tau=rng.normal(0, 10, 3))
            q_next = q_prev + rng.uniform(-0.2, 0.2, 3)
            pv_next = rng.uniform(0.05, 1.0)
            ev_full = evaluate_edge(arm, full, 0.1, prev, q_next, pv_next)
            drop = tuple(rng.choice(list(full.enabled_orders),
                                    size=rng.integers(1, 5), replace=False))
            ev_sub = evaluate_edge(arm, full.disable(*drop), 0.1, prev, q_next, pv_next)
            if ev_full.feasible:
                assert ev_sub.feasible

    def test_unbounded_limits_always_feasible(self, arm):
        rng = np.random.default_rng(22)
        for _ in range(100):
            prev = NodeState(q=rng.uniform(-1, 1, 3), pv=rng.uniform(0, 1),
                             qd=rng.normal(0, 2, 3), qdd=rng.normal(0, 5, 3),
                             tau=rng.normal(0, 20, 3))
            ev = evaluate_edge(arm, inf_limits(), 0.1, prev,
                               rng.uniform(-1, 1, 3), rng.uniform(0.05, 1.0))
            assert ev.feasible and ev.dt > 0


class TestCheckPoints:
    def test_count_zero_is_endpoint_only(self, arm):
        prev = initial_state(arm, np.zeros(3), 0.0)
        a = evaluate_edge(arm, inf_limits(), 0.1, prev, np.full(3, 0.02), 0.5, check_count=0)
        b = evaluate_edge(arm, inf_limits(), 0.1, prev, np.full(3, 0.02), 0.5)
        assert a.dt == b.dt and a.feasible == b.feasible and a.violations == b.violations
        for field in ("qd", "qdd", "qddd", "tau", "taud"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_constant_edge_samples_match_endpoints(self, arm):
        # no joint motion at constant pseudo-velocity: interior states equal
        # the endpoint state, so any endpoint-feasible bound stays feasible
        q = np.array([0.3, 0.4, -0.2])
        tau_hold = np.abs(arm.gravity_torque(q)) + 0.5
        limits = LimitSets(qd=np.full(3, 1e-9), qdd=np.full(3, 1e-9), tau=tau_hold)
        prev = NodeState(q=q, pv=0.5, qd=np.zeros(3), qdd=np.zeros(3),
                         tau=arm.inverse_dynamics(q, np.zeros(3), np.zeros(3)))
        ev = evaluate_edge(arm, limits, 0.1, prev, q, 0.5, check_count=7)
        assert ev.feasible

    def test_midpoint_torque_violation_caught(self, arm):
        # slow swing through the horizontal: gravity torque peaks mid-edge
        q_prev = np.array([-0.5, 0.0, 0.0])
        q_next = np.array([0.5, 0.0, 0.0])
        pv = 0.05
        dlam = 0.1
        # dense sampling along the interpolated profile (independent check)
        slope = (q_next - q_prev) / dlam
        qdd_edge = slope * ((pv ** 2 - pv ** 2) / (2 * dlam))
        taus = []
        for s in np.linspace(0.0, 1.0, 101):
            q_s = q_prev + s * (q_next - q_prev)
            taus.append(np.abs(arm.inverse_dynamics(q_s, slope * pv, qdd_edge)))
        taus = np.array(taus)
        mid_peak = taus[40:60, 0].max()
        end_peak = max(taus[0, 0], taus[-1, 0])
        assert mid_peak > end_peak + 1.0
        bound = np.array([(mid_peak + end_peak) / 2.0, 50.0, 50.0])
        prev = NodeState(q=q_prev, pv=pv, qd=slope * pv, qdd=np.zeros(3),
                         tau=arm.inverse_dynamics(q_prev, slope * pv, np.zeros(3)))
        limits = LimitSets(tau=bound)
        assert evaluate_edge(arm, limits, dlam, prev, q_next, pv, check_count=0).feasible
        ev = evaluate_edge(arm, limits, dlam, prev, q_next, pv, check_count=3)
        assert not ev.feasible
        assert ev.violations[0].order == "tau"
        assert ev.violations[0].where.startswith("check_point")


class TestStageTransitions:
    def build_prev(self, arm, rng, P):
        q = rng.uniform(-0.8, 0.8, (P, 3))
        pv = rng.choice([0.0, 0.25, 0.5, 0.75], size=P)
        qd = rng.normal(0, 0.8, (P, 3))
        qdd = rng.normal(0, 2.0, (P, 3))
        tau = rng.normal(0, 10.0, (P, 3))
        # rows 0..1: rest nodes; row 2: free start with no history
        pv[0] = pv[1] = 0.0
        qd[:2] = 0.0
        qdd[:2] = 0.0
        for p in (0, 1):
            tau[p] = arm.inverse_dynamics(q[p], qd[p], qdd[p])
        qd[2] = qdd[2] = tau[2] = np.nan
        return q, pv, qd, qdd, tau

    @pytest.mark.parametrize("pv_next,check_count", [(0.5, 0), (0.0, 0), (0.4, 2)])
    def test_bitwise_match_with_scalar(self, arm, pv_next, check_count):
        rng = np.random.default_rng(31)
        P, C = 7, 5
        q, pv, qd, qdd, tau = self.build_prev(arm, rng, P)
        q_next = rng.uniform(-0.8, 0.8, (C, 3))
        limits = LimitSets.from_joint_limits(arm.limits)
        ev = stage_transitions(arm, limits, 0.1, q, pv, qd, qdd, tau, q_next, pv_next,
                               check_count=check_count)
        for p in range(P):
            prev = NodeState(q=q[p], pv=pv[p], qd=qd[p], qdd=qdd[p], tau=tau[p])
            for c in range(C):
                if pv[p] == 0.0 and pv_next == 0.0:
                    assert np.isinf(ev.dt[p]) and not ev.feasible[p, c]
                    continue
                s = evaluate_edge(arm, limits, 0.1, prev, q_next[c], pv_next,
                                  check_count=check_count)
                assert ev.dt[p] == s.dt
                assert np.array_equal(ev.qd[p, c], s.qd, equal_nan=True)
                assert np.array_equal(ev.qdd[p, c], s.qdd, equal_nan=True)
                assert np.array_equal(ev.qddd[p, c], s.qddd, equal_nan=True)
                assert np.array_equal(ev.tau[p, c], s.tau, equal_nan=True)
                assert np.array_equal(ev.taud[p, c], s.taud, equal_nan=True)
                assert bool(ev.feasible[p, c]) == s.feasible

    def test_order_masks_cover_failures(self, arm):
        rng = np.random.default_rng(32)
        q, pv, qd, qdd, tau = self.build_prev(arm, rng, 6)
        q_next = rng.uniform(-0.8, 0.8, (4, 3))
        limits = LimitSets.from_joint_limits(arm.limits)
        ev = stage_transitions(arm, limits, 0.1, q, pv, qd, qdd, tau, q_next, 0.6)
        folded = np.isfinite(ev.dt)[:, None] & np.ones(4, dtype=bool)
        for mask in ev.order_ok.values():
            folded = folded & mask
        assert np.array_equal(folded, ev.feasible)


class TestLimitSets:
    def test_validation(self):
        with pytest.raises(ScenarioError):
            LimitSets(qd=np.array([1.0, -2.0, 3.0]))
        with pytest.raises(ScenarioError):
            LimitSets(tau=np.array([0.0, 1.0, 1.0]))
        with pytest.raises(ScenarioError):
            LimitSets(qd=np.array([1.0, np.nan, 3.0]))
        with pytest.raises(ScenarioError):
            LimitSets(taud=np.array([np.nan, np.nan, np.nan]))
        assert LimitSets(qd=np.full(3, np.inf)).enabled_orders == ("qd",)

    def test_from_joint_limits_subsets(self, arm):
        velocity_only = LimitSets.from_joint_limits(arm.limits, orders=("qd",))
        assert velocity_only.enabled_orders == ("qd",)
        assert velocity_only.history_dependent_orders == ()
        full = LimitSets.from_joint_limits(arm.limits)
        assert full.enabled_orders == ("qd", "qdd", "qddd", "tau", "taud")
        assert full.history_dependent_orders == ("qdd", "qddd", "tau", "taud")

    def test_disable(self, arm):
        full = LimitSets.from_joint_limits(arm.limits)
        sub = full.disable("tau", "taud")
        assert sub.enabled_orders == ("qd", "qdd", "qddd")
        assert np.array_equal(sub.qd, full.qd)


def build_profile(robot, q_seq, pv_seq, dlam, scale=1.0):
    """Profile via independent differencing, with optional time scaling."""
    N = len(pv_seq) - 1
    dt, qd, qdd, qddd, tau, taud = chain_oracle(robot, q_seq, np.asarray(pv_seq) / scale, dlam)
    t = np.cumsum(dt)
    return TrajectoryProfile(t=t, dt=dt, lam=np.arange(N + 1) * dlam,
                             pv=np.asarray(pv_seq, dtype=float) / scale, q=q_seq,
                             qd=qd, qdd=qdd, qddd=qddd, tau=tau, taud=taud)


class TestSaturation:
    def test_everything_at_velocity_bound(self, arm):
        N, n = 6, 3
        qd = np.tile(arm.limits.qd_max, (N + 1, 1))
        prof = TrajectoryProfile(t=np.arange(N + 1.0), dt=np.ones(N + 1), lam=np.arange(N + 1.0),
                                 pv=np.ones(N + 1), q=np.zeros((N + 1, n)), qd=qd,
                                 qdd=np.zeros((N + 1, n)), qddd=np.zeros((N + 1, n)),
                                 tau=np.zeros((N + 1, n)), taud=np.zeros((N + 1, n)))
        report = saturation_percentage(prof, LimitSets.from_joint_limits(arm.limits))
        assert report.percentage == 100.0
        assert all(o == "qd" for o in report.active_order)

    def test_time_scaling_clears_saturation(self):
        # without gravity or Coulomb terms every profile quantity shrinks at
        # least linearly when the motion slows down
        arm = make_reference_arm(coulomb=(0.0, 0.0, 0.0), gravity=(0.0, 0.0))
        rng = np.random.default_rng(41)
        q_seq = np.cumsum(rng.uniform(-0.08, 0.08, (7, 3)), axis=0)
        pv_seq = [0.0, 0.5, 0.9, 1.1, 0.9, 0.6, 0.3]
        fast = build_profile(arm, q_seq, pv_seq, 0.1)
        # bounds sit exactly on the fast profile's worst ratios
        limits = LimitSets(
            qd=np.max(np.abs(fast.qd), axis=0),
            qdd=np.max(np.abs(fast.qdd), axis=0),
            tau=np.max(np.abs(fast.tau), axis=0))
        assert saturation_percentage(fast, limits).percentage > 0.0
        slow = build_profile(arm, q_seq, pv_seq, 0.1, scale=2.0)
        assert saturation_percentage(slow, limits).percentage == 0.0

    def test_first_waypoint_excluded(self, arm):
        N, n = 4, 3
        qd = np.zeros((N + 1, n))
        qd[0] = arm.limits.qd_max          # only the start saturates
        prof = TrajectoryProfile(t=np.arange(N + 1.0), dt=np.ones(N + 1), lam=np.arange(N + 1.0),
                                 pv=np.ones(N + 1), q=np.zeros((N + 1, n)), qd=qd,
                                 qdd=np.zeros((N + 1, n)), qddd=np.zeros((N + 1, n)),
                                 tau=np.zeros((N + 1, n)), taud=np.zeros((N + 1, n)))
        report = saturation_percentage(prof, LimitSets.from_joint_limits(arm.limits))
        assert report.percentage == 0.0

    def test_per_order_breakdown(self, arm):
        rng = np.random.default_rng(42)
        q_seq = np.cumsum(rng.uniform(-0.05, 0.05, (5, 3)), axis=0)
        prof = build_profile(arm, q_seq, [0.0, 0.4, 0.7, 0.5, 0.2], 0.1)
        limits = LimitSets.from_joint_limits(arm.limits)
        report = saturation_percentage(prof, limits)
        for order in limits.enabled_orders:
            vals = {"qd": prof.qd, "qdd": prof.qdd, "qddd": prof.qddd,
                    "tau": prof.tau, "taud": prof.taud}[order]
            want = np.max(np.abs(vals) / limits.bound(order), axis=-1)
            assert np.allclose(report.per_order[order], want)

    def test_nan_rows_ignored(self, arm):
        N, n = 3, 3
        qd = np.full((N + 1, n), np.nan)
        qd[2] = arm.limits.qd_max
        prof = TrajectoryProfile(t=np.arange(N + 1.0), dt=np.ones(N + 1), lam=np.arange(N + 1.0),
                                 pv=np.ones(N + 1), q=np.zeros((N + 1, n)), qd=qd,
                                 qdd=np.full((N + 1, n), np.nan), qddd=np.full((N + 1, n), np.nan),
                                 tau=np.full((N + 1, n), np.nan), taud=np.full((N + 1, n), np.nan))
        report = saturation_percentage(prof, LimitSets.from_joint_limits(arm.limits))
        assert report.percentage == pytest.approx(100.0 / 3.0)
