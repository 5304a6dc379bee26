"""Constraint engine: time steps, difference stacks, checks, saturation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from redplan import constraints, planner
from redplan.constraints import (ORDERS, LimitSets, TrajectoryProfile, _order_ok,
                                 edge_durations, initial_samples, saturation_percentage,
                                 stage_transitions)
from redplan.errors import ScenarioError
from redplan.robot import PlanarArm, RigidTerms

from conftest import (edge, inverse_dynamics, make_reference_arm, make_toy_grid, start_state,
                      transitions)


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
    tau[0] = inverse_dynamics(robot, q_seq[0], qd[0], qdd[0])
    for k in range(1, N + 1):
        qd[k] = (q_seq[k] - q_seq[k - 1]) / dt[k]
        qdd[k] = (qd[k] - qd[k - 1]) / dt[k]
        qddd[k] = (qdd[k] - qdd[k - 1]) / dt[k]
        tau[k] = inverse_dynamics(robot, q_seq[k], qd[k], qdd[k])
        taud[k] = (tau[k] - tau[k - 1]) / dt[k]
    return dt, qd, qdd, qddd, tau, taud


def run_chain(robot, limits, q_seq, pv_seq, dlam):
    """Fold the engine along a scripted chain, one 1 x 1 x 1 call per edge;
    returns the StageEvals."""
    state = start_state(robot, q_seq[0], pv_seq[0])
    evals = []
    for k in range(1, len(pv_seq)):
        ev, state = edge(robot, limits, dlam, state, q_seq[k], pv_seq[k])
        evals.append(ev)
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
        ev, after = edge(arm, inf_limits(), 0.1, start_state(arm, np.zeros(3), 0.0),
                         np.zeros(3), 0.0)
        assert after is None and np.isinf(ev.dt[0, 0])
        assert ev.no_step == 1 and ev.rejections() == {"duration": 1}


class TestScriptedChain:
    def test_matches_sequence_oracle(self, arm):
        rng = np.random.default_rng(11)
        q_seq = np.cumsum(rng.uniform(-0.05, 0.05, size=(6, 3)), axis=0) + [0.3, 0.8, -0.4]
        pv_seq = [0.0, 0.4, 0.8, 1.0, 0.6, 0.3]
        dlam = 0.1
        dt_o, qd_o, qdd_o, qddd_o, tau_o, taud_o = chain_oracle(arm, q_seq, pv_seq, dlam)
        evals = run_chain(arm, inf_limits(), q_seq, pv_seq, dlam)
        for k, ev in enumerate(evals, start=1):
            assert abs(ev.dt[0, 0] - dt_o[k]) <= 1e-12
            for got, want in ((ev.qd[0], qd_o[k]), (ev.qdd[0], qdd_o[k]),
                              (ev.qddd[0], qddd_o[k]), (ev.tau[0], tau_o[k]),
                              (ev.taud[0], taud_o[k])):
                assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_torque_recompute_identity(self, arm):
        rng = np.random.default_rng(3)
        q_seq = rng.uniform(-0.5, 0.5, size=(4, 3))
        evals = run_chain(arm, inf_limits(), q_seq, [0.0, 0.5, 0.9, 0.7], 0.1)
        for k, ev in enumerate(evals, start=1):
            assert np.array_equal(ev.tau[0], inverse_dynamics(arm, q_seq[k], ev.qd[0], ev.qdd[0]))

    def test_velocity_consistency(self, arm):
        rng = np.random.default_rng(4)
        q_seq = rng.uniform(-0.5, 0.5, size=(4, 3))
        evals = run_chain(arm, inf_limits(), q_seq, [0.0, 0.5, 0.9, 0.7], 0.1)
        for k, ev in enumerate(evals, start=1):
            dq = q_seq[k] - q_seq[k - 1]
            assert np.all(np.abs(ev.qd[0] * ev.dt[0, 0] - dq)
                          <= 4e-16 * np.maximum(1.0, np.abs(dq)))


class TestInitialState:
    """Stage-0 chain samples from initial_samples."""

    def test_rest_is_static(self, arm):
        q = np.array([[0.4, -0.3, 0.2]])
        qd, qdd, tau = initial_samples(arm, arm.rigid_terms(q), np.zeros(1))
        assert np.array_equal(qd, np.zeros((1, 3)))
        assert np.array_equal(qdd, np.zeros((1, 3)))
        assert np.array_equal(tau[0], arm.rigid_terms(q[0]).gravity)

    def test_moving_start_has_no_history(self, arm):
        qd, qdd, tau = initial_samples(arm, arm.rigid_terms(np.zeros((1, 3))),
                                       np.array([0.6]))
        assert np.all(np.isnan(qd)) and np.all(np.isnan(qdd)) and np.all(np.isnan(tau))

    def test_mixed_rest_and_moving_rows(self, arm):
        rng = np.random.default_rng(8)
        q = rng.uniform(-1.0, 1.0, (6, 3))
        pv = np.array([0.0, 0.6, 0.0, 0.3, 1.0, 0.0])
        qd, qdd, tau = initial_samples(arm, arm.rigid_terms(q), pv)
        zero = np.zeros(3)
        for p in range(6):
            if pv[p] == 0.0:
                assert np.array_equal(qd[p], zero) and np.array_equal(qdd[p], zero)
                # bitwise: the per-node inverse dynamics and the hold torque
                assert tau[p].tobytes() == inverse_dynamics(arm, q[p], zero, zero).tobytes()
                assert tau[p].tobytes() == arm.rigid_terms(q[p]).gravity.tobytes()
            else:
                assert np.all(np.isnan(qd[p])) and np.all(np.isnan(qdd[p]))
                assert np.all(np.isnan(tau[p]))

    def test_missing_history_availability_ladder(self, arm):
        rng = np.random.default_rng(7)
        q_seq = rng.uniform(-0.4, 0.4, size=(4, 3))
        evals = run_chain(arm, inf_limits(), q_seq, [0.5, 0.6, 0.7, 0.8], 0.1)
        e1, e2, e3 = evals
        assert np.all(np.isfinite(e1.qd[0]))
        assert np.all(np.isnan(e1.qdd[0])) and np.all(np.isnan(e1.tau[0]))
        assert np.all(np.isfinite(e2.qdd[0])) and np.all(np.isfinite(e2.tau[0]))
        assert np.all(np.isnan(e2.qddd[0])) and np.all(np.isnan(e2.taud[0]))
        assert np.all(np.isfinite(e3.qddd[0])) and np.all(np.isfinite(e3.taud[0]))
        # checks skip the missing orders, so these edges stay feasible
        assert all(ev.feasible[0, 0, 0] for ev in evals)


class TestEvaluateEdge:
    """One edge, the 1 x 1 x 1 case of stage_transitions."""

    def test_forced_velocity_violation_tag(self, arm):
        prev = start_state(arm, np.zeros(3), 0.0)
        q_next = np.array([1.0, 0.0, 0.0])      # large shoulder jump
        limits = LimitSets(qd=arm.limits.qd_max)
        ev, after = edge(arm, limits, 0.05, prev, q_next, 1.0)
        assert after is None
        assert ev.rejections() == {"qd": 1}
        assert ev.lanes.size == 0               # nothing above qd was evaluated
        # the unscreened velocity breaks the bound at the shoulder alone
        free, _ = edge(arm, limits.disable("qd"), 0.05, prev, q_next, 1.0)
        assert np.array_equal(np.abs(free.qd[0]) > limits.qd, [True, False, False])

    def test_identical_endpoints(self, arm):
        q = np.array([0.3, -0.2, 0.5])
        w = np.array([0.4, -0.1, 0.2])
        prev = (q, 0.5, w, np.zeros(3), inverse_dynamics(arm, q, w, np.zeros(3)))
        ev, _ = edge(arm, inf_limits(), 0.1, prev, q, 0.5)
        assert np.array_equal(ev.qd[0], np.zeros(3))
        assert np.array_equal(ev.qdd[0], -w / ev.dt[0, 0])
        from redplan.robot import _matvec
        terms = arm.rigid_terms(q)
        expect = _matvec(terms.H, ev.qdd[0]) + terms.gravity
        assert np.allclose(ev.tau[0], expect, atol=1e-13)

    def test_zero_pv_edge_has_no_time_step(self, arm):
        prev = start_state(arm, np.zeros(3), 0.0)
        ev, after = edge(arm, inf_limits(), 0.1, prev, np.zeros(3), 0.0)
        assert after is None and not ev.feasible[0, 0, 0] and ev.lanes.size == 0
        assert ev.no_step == 1 and ev.rejections() == {"duration": 1}
        # its velocity check reads as passed: it counts under duration alone
        assert ev.order_ok["qd"][0, 0, 0]

    def test_coulomb_crossing_skips_torque_rate(self, arm):
        q = np.zeros(3)
        qd_prev = np.array([0.5, 0.3, 0.2])
        prev = (q, 0.5, qd_prev, np.zeros(3), inverse_dynamics(arm, q, qd_prev, np.zeros(3)))
        limits = LimitSets(taud=np.full(3, 1e-6))
        q_back = q - np.array([0.05, 0.03, 0.02])   # reverses every joint
        ev, _ = edge(arm, limits, 0.1, prev, q_back, 0.5)
        # the torque rate breaks its bound, and the exemption lets it pass
        assert np.any(np.abs(ev.taud[0]) > limits.taud)
        assert ev.order_ok["taud"][0, 0, 0] and ev.rejections() == {}
        assert ev.feasible[0, 0, 0]
        q_fwd = q + np.array([0.05, 0.03, 0.02])    # same signs, no crossing
        ev2, _ = edge(arm, limits, 0.1, prev, q_fwd, 0.5)
        assert not ev2.feasible[0, 0, 0]
        assert ev2.rejections() == {"taud": 1}

    def test_disabling_orders_is_monotone(self, arm):
        rng = np.random.default_rng(21)
        full = LimitSets.from_joint_limits(arm.limits)
        for _ in range(200):
            q_prev = rng.uniform(-1.0, 1.0, 3)
            prev = (q_prev, rng.uniform(0.1, 1.0), rng.normal(0, 1, 3), rng.normal(0, 3, 3),
                    rng.normal(0, 10, 3))
            q_next = q_prev + rng.uniform(-0.2, 0.2, 3)
            pv_next = rng.uniform(0.05, 1.0)
            ev_full, _ = edge(arm, full, 0.1, prev, q_next, pv_next)
            drop = tuple(rng.choice(list(full.enabled_orders),
                                    size=rng.integers(1, 5), replace=False))
            ev_sub, _ = edge(arm, full.disable(*drop), 0.1, prev, q_next, pv_next)
            if ev_full.feasible[0, 0, 0]:
                assert ev_sub.feasible[0, 0, 0]

    def test_unbounded_limits_always_feasible(self, arm):
        rng = np.random.default_rng(22)
        for _ in range(100):
            prev = (rng.uniform(-1, 1, 3), rng.uniform(0, 1), rng.normal(0, 2, 3),
                    rng.normal(0, 5, 3), rng.normal(0, 20, 3))
            ev, _ = edge(arm, inf_limits(), 0.1, prev,
                         rng.uniform(-1, 1, 3), rng.uniform(0.05, 1.0))
            assert ev.feasible[0, 0, 0] and ev.dt[0, 0] > 0


class TestCheckPoints:
    def test_count_zero_is_endpoint_only(self, arm):
        prev = start_state(arm, np.zeros(3), 0.0)
        a, _ = edge(arm, inf_limits(), 0.1, prev, np.full(3, 0.02), 0.5, check_count=0)
        b, _ = edge(arm, inf_limits(), 0.1, prev, np.full(3, 0.02), 0.5)
        assert np.array_equal(a.dt, b.dt) and np.array_equal(a.feasible, b.feasible)
        assert a.order_ok.keys() == b.order_ok.keys()
        assert all(np.array_equal(a.order_ok[o], b.order_ok[o]) for o in a.order_ok)
        assert np.array_equal(a.lanes, b.lanes)
        for field in ORDERS:
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_constant_edge_samples_match_endpoints(self, arm):
        # no joint motion at constant pseudo-velocity: interior states equal
        # the endpoint state, so any endpoint-feasible bound stays feasible
        q = np.array([0.3, 0.4, -0.2])
        tau_hold = np.abs(arm.rigid_terms(q).gravity) + 0.5
        limits = LimitSets(qd=np.full(3, 1e-9), qdd=np.full(3, 1e-9), tau=tau_hold)
        prev = (q, 0.5, np.zeros(3), np.zeros(3),
                inverse_dynamics(arm, q, np.zeros(3), np.zeros(3)))
        ev, _ = edge(arm, limits, 0.1, prev, q, 0.5, check_count=7)
        assert ev.feasible[0, 0, 0]

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
            taus.append(np.abs(inverse_dynamics(arm, q_s, slope * pv, qdd_edge)))
        taus = np.array(taus)
        mid_peak = taus[40:60, 0].max()
        end_peak = max(taus[0, 0], taus[-1, 0])
        assert mid_peak > end_peak + 1.0
        bound = np.array([(mid_peak + end_peak) / 2.0, 50.0, 50.0])
        prev = (q_prev, pv, slope * pv, np.zeros(3),
                inverse_dynamics(arm, q_prev, slope * pv, np.zeros(3)))
        limits = LimitSets(tau=bound)
        endpoint, _ = edge(arm, limits, dlam, prev, q_next, pv, check_count=0)
        assert endpoint.feasible[0, 0, 0]
        ev, _ = edge(arm, limits, dlam, prev, q_next, pv, check_count=3)
        assert not ev.feasible[0, 0, 0]
        assert ev.rejections() == {"tau": 1}
        # the endpoint torque is the one that passed: a check point failed
        assert np.array_equal(ev.tau, endpoint.tau)


def joint_table(rows, scale):
    """A (rows, 3) table of joint values in [-scale, scale]."""
    return st.lists(st.floats(-scale, scale), min_size=3 * rows,
                    max_size=3 * rows).map(lambda v: np.reshape(v, (rows, 3)))


class TestStageTransitions:
    def build_prev(self, arm, rng, P, center=0.0, spread=0.8):
        q = center + rng.uniform(-spread, spread, (P, 3))
        pv = rng.choice([0.0, 0.25, 0.5, 0.75], size=P)
        qd = rng.normal(0, 0.8, (P, 3))
        qdd = rng.normal(0, 2.0, (P, 3))
        tau = rng.normal(0, 10.0, (P, 3))
        # rows 0..1: rest nodes; row 2: free start with no history
        pv[0] = pv[1] = 0.0
        qd[:2] = 0.0
        qdd[:2] = 0.0
        for p in (0, 1):
            tau[p] = inverse_dynamics(arm, q[p], qd[p], qdd[p])
        qd[2] = qdd[2] = tau[2] = np.nan
        return q, pv, qd, qdd, tau

    def match_scalar(self, arm, limits, prev, q_next, pv_next, check_count):
        """Check a stage evaluation lane by lane against two references.

        pv_next holds several levels. The first reference is one 1 x 1 x 1
        call per lane: dt, feasible, order_ok and every evaluated row must
        be bitwise equal to it. The second is one call with the velocity
        bound disabled, which screens nothing beyond the time step: it
        supplies qd and the higher orders on the lanes the velocity screen
        drops, and the velocity verdict |dq| / dt <= qd_max is computed
        here. Velocity screening must never drop a feasible edge: a lane is
        evaluated exactly when it has a time step and its endpoint velocity
        passes. A lane without a time step counts under duration alone: its
        velocity check reads as passed.
        """
        q, pv, qd, qdd, tau = prev
        ev = stage_transitions(arm, limits, 0.1, q, pv, qd, qdd, tau, q_next,
                               arm.rigid_terms(q_next), pv_next, check_count=check_count)
        P, L, C = ev.feasible.shape
        assert ev.dt.shape == (P, L) and L == len(pv_next)
        free = stage_transitions(arm, limits.disable("qd"), 0.1, q, pv, qd, qdd, tau,
                                 q_next, arm.rigid_terms(q_next), pv_next,
                                 check_count=check_count)
        evaluated = np.zeros(P * L * C, dtype=bool)
        evaluated[ev.lanes] = True
        evaluated = evaluated.reshape(P, L, C)
        for p in range(P):
            state = (q[p], pv[p], qd[p], qdd[p], tau[p])
            for l, level in enumerate(pv_next):
                for c in range(C):
                    lane = (p * L + l) * C + c
                    s, _ = edge(arm, limits, 0.1, state, q_next[c], level,
                                check_count=check_count)
                    assert np.array_equal(ev.dt[p, l], s.dt[0, 0])
                    assert ev.feasible[p, l, c] == s.feasible[0, 0, 0]
                    assert ev.order_ok.keys() == s.order_ok.keys()
                    for order, ok in ev.order_ok.items():
                        assert ok[p, l, c] == s.order_ok[order][0, 0, 0]
                    assert evaluated[p, l, c] == (s.lanes.size == 1)
                    if pv[p] == 0.0 and level == 0.0:
                        assert np.isinf(ev.dt[p, l]) and not ev.feasible[p, l, c]
                        assert not evaluated[p, l, c]
                        if "qd" in ev.order_ok:
                            assert ev.order_ok["qd"][p, l, c]
                        continue
                    # the unscreened lane: its velocity, bitwise, and its verdict
                    ref = np.searchsorted(free.lanes, lane)
                    assert free.lanes[ref] == lane
                    dq = q_next[c] - q[p]
                    assert np.array_equal(free.qd[ref], dq / ev.dt[p, l])
                    passed = limits.qd is None or np.all(np.abs(dq) / ev.dt[p, l] <= limits.qd)
                    assert evaluated[p, l, c] == passed
                    if not evaluated[p, l, c]:
                        assert not ev.feasible[p, l, c]
                        for order, ok in ev.order_ok.items():
                            assert ok[p, l, c] == (order != "qd")
                        continue
                    row = np.searchsorted(ev.lanes, lane)
                    for field in ORDERS:
                        got = getattr(ev, field)[row]
                        assert np.array_equal(got, getattr(s, field)[0], equal_nan=True)
                        assert np.array_equal(got, getattr(free, field)[ref], equal_nan=True)
                    # the orders above qd see the same values, so the same verdicts
                    for order, ok in free.order_ok.items():
                        assert ev.order_ok[order][p, l, c] == ok[p, l, c]
                    with_qd = ev.order_ok["qd"][p, l, c] if "qd" in ev.order_ok else True
                    assert ev.feasible[p, l, c] == (free.feasible[p, l, c] and with_qd)
        return ev

    @pytest.mark.parametrize("pv_next,check_count", [(0.5, 0), (0.0, 0), (0.4, 2)])
    def test_bitwise_match_with_scalar(self, arm, pv_next, check_count):
        # pv_next joins the zero level (start, stop and no-step lanes) and a
        # fast level in one call
        rng = np.random.default_rng(31)
        P, C = 7, 5
        prev = self.build_prev(arm, rng, P)
        q_next = rng.uniform(-0.8, 0.8, (C, 3))
        limits = LimitSets.from_joint_limits(arm.limits)
        levels = np.unique([0.0, pv_next, 0.8])
        self.match_scalar(arm, limits, prev, q_next, levels, check_count)

    @pytest.mark.parametrize("check_count", [0, 2])
    def test_randomized_screening_matches_scalar(self, arm, check_count):
        # configurations close together, so that many lanes pass the
        # velocity bound and every higher order rejects some of them
        rng = np.random.default_rng(41)
        center = np.array([0.3, -0.6, 0.9])
        prev = self.build_prev(arm, rng, 16, center=center, spread=0.06)
        q_next = center + rng.uniform(-0.06, 0.06, (10, 3))
        limits = LimitSets(qd=np.full(3, 0.25), qdd=np.full(3, 5.0),
                           qddd=np.full(3, 40.0), tau=np.array([30.0, 10.0, 1.8]),
                           taud=np.full(3, 100.0))
        ev = self.match_scalar(arm, limits, prev, q_next, np.array([0.0, 0.3, 0.5]),
                               check_count)
        rejected = ev.rejections()
        for order in ("qd", "qdd", "tau", "taud"):
            assert rejected[order] > 0
        assert rejected["duration"] == np.count_nonzero(prev[1] == 0.0) * 10
        assert 0 < np.count_nonzero(ev.feasible) < ev.lanes.size < ev.feasible.size

    def test_velocity_table_keeps_edges_at_the_bound(self, arm):
        # |dq_j| = qd_max_j * dt to within one ulp either side, for every
        # predecessor, level and joint: the velocity table must keep every
        # edge the exact check keeps, and the exact check decides
        dlam = 0.1
        levels = np.array([0.0, 0.3, 0.7])
        pv = np.array([0.5, 0.0])
        qd_max = arm.limits.qd_max
        cells = []
        for pv_prev in pv:
            for level in levels:
                dt = float(edge_durations(pv_prev, level, dlam))
                if not np.isfinite(dt):
                    continue
                for j in range(3):
                    at = qd_max[j] * dt
                    for d in (np.nextafter(at, 0.0), at, np.nextafter(at, np.inf)):
                        step = 0.5 * qd_max * dt
                        step[j] = d
                        cells.append(step * (-1.0) ** j)
        q_next = np.array(cells)
        q = np.zeros((2, 3))
        qd = np.array([[0.1, 0.1, 0.1], [0.0, 0.0, 0.0]])
        qdd = np.zeros((2, 3))
        tau = np.array([inverse_dynamics(arm, q[p], qd[p], qdd[p]) for p in range(2)])
        limits = LimitSets(qd=qd_max)
        ev = self.match_scalar(arm, limits, (q, pv, qd, qdd, tau), q_next, levels, 0)
        # the grid straddles the bound: some of these edges pass, some fail
        with_step = np.count_nonzero(np.isfinite(ev.dt)) * len(cells)
        assert 0 < np.count_nonzero(ev.feasible) < with_step

    @pytest.mark.parametrize("pv_next", [0.5, 0.0])
    def test_candidates_restrict_evaluation(self, arm, pv_next):
        rng = np.random.default_rng(42)
        center = np.array([0.3, -0.6, 0.9])
        q, pv, qd, qdd, tau = self.build_prev(arm, rng, 8, center=center, spread=0.06)
        q_next = center + rng.uniform(-0.06, 0.06, (6, 3))
        levels = np.unique([0.0, pv_next, 0.3])
        L = levels.size
        limits = LimitSets(qd=np.full(3, 0.25), qdd=np.full(3, 5.0))
        terms = arm.rigid_terms(q_next)
        full = stage_transitions(arm, limits, 0.1, q, pv, qd, qdd, tau, q_next, terms, levels)
        candidates = rng.random((8, L, 6)) < 0.5
        ev = transitions(arm, limits, 0.1, q, pv, qd, qdd, tau, q_next, terms, levels,
                         candidates=np.flatnonzero(candidates))
        assert np.array_equal(ev.feasible, full.feasible & candidates)
        # a stop from rest has no time step; only candidate lanes count
        no_step = (pv[:, None] == 0.0) & (levels == 0.0)
        assert full.rejections()["duration"] == 6 * np.count_nonzero(no_step)
        assert ev.rejections()["duration"] == np.count_nonzero(candidates[no_step])
        assert np.all(np.isin(ev.lanes, np.flatnonzero(candidates)))
        for order in ev.order_ok:
            assert np.array_equal(ev.order_ok[order], full.order_ok[order] | ~candidates)
        rows = np.searchsorted(full.lanes, ev.lanes)
        for field in ORDERS:
            assert np.array_equal(getattr(ev, field), getattr(full, field)[rows],
                                  equal_nan=True)

    def test_order_masks_cover_failures(self, arm):
        rng = np.random.default_rng(32)
        q, pv, qd, qdd, tau = self.build_prev(arm, rng, 6)
        q_next = rng.uniform(-0.8, 0.8, (4, 3))
        limits = LimitSets.from_joint_limits(arm.limits)
        ev = stage_transitions(arm, limits, 0.1, q, pv, qd, qdd, tau, q_next,
                               arm.rigid_terms(q_next), np.array([0.0, 0.6]))
        folded = np.isfinite(ev.dt)[:, :, None] & np.ones(4, dtype=bool)
        for mask in ev.order_ok.values():
            folded = folded & mask
        assert np.array_equal(folded, ev.feasible)

    # The engine computes H, G and gravity once per next-stage cell and the
    # torque per evaluated lane; that split must not change a single bit.

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(P=st.integers(1, 4), C=st.integers(1, 5), data=st.data())
    def test_lane_torque_is_inverse_dynamics_of_its_cell(self, P, C, data):
        arm = make_reference_arm()
        q, qd, qdd = (data.draw(joint_table(P, scale)) for scale in (0.2, 1.0, 4.0))
        pv = np.full(P, 0.5)
        pv[0], qd[0], qdd[0] = 0.0, 0.0, 0.0                 # a rest node
        tau = inverse_dynamics(arm, q, qd, qdd)
        if P > 1:
            qd[1] = qdd[1] = tau[1] = np.nan                  # a free start
        q_next = data.draw(joint_table(C, 0.2))
        # tied duplicate cells: some cells repeat an earlier one exactly
        for c in range(1, C):
            source = data.draw(st.integers(-1, c - 1))
            if source >= 0:
                q_next[c] = q_next[source]
        check_count = data.draw(st.sampled_from([0, 2]))
        limits = LimitSets(qd=np.full(3, 20.0), tau=np.full(3, 100.0))
        ev = stage_transitions(arm, limits, 0.1, q, pv, qd, qdd, tau, q_next,
                               arm.rigid_terms(q_next), np.array([0.0, 0.4, 1.0]),
                               check_count=check_count)
        assert ev.lanes.size > 0
        # each evaluated lane once, in order: exactly the lanes with a time
        # step whose endpoint velocity passes
        assert np.all(np.diff(ev.lanes) > 0)
        dq = np.abs(q_next[None, :, :] - q[:, None, :])
        passed = np.all(dq[:, None] / ev.dt[:, :, None, None] <= limits.qd, axis=-1)
        assert ev.lanes.size == np.count_nonzero(np.isfinite(ev.dt)[:, :, None] & passed)
        c = np.unravel_index(ev.lanes, ev.feasible.shape)[2]
        for row in range(ev.lanes.size):
            ref = inverse_dynamics(arm, q_next[c[row]], ev.qd[row], ev.qdd[row])
            assert ev.tau[row].tobytes() == ref.tobytes()

    @pytest.mark.parametrize("check_count", [0, 2])
    def test_rigid_terms_once_per_cell(self, arm, monkeypatch, check_count):
        # the grid computes the rigid-body terms of all its cells in one
        # pass, on first use; the sweep and replay gather them. An engine
        # call adds one pass per check point, over the rows of dq that its
        # evaluated lanes read: one per (group, cell) for a mask, one per
        # lane for a lane list
        shapes = []
        kinematics = PlanarArm._kinematics

        def recording(robot, q, **kwargs):
            shapes.append(np.shape(q))
            return kinematics(robot, q, **kwargs)

        rng = np.random.default_rng(43)
        center = np.array([0.3, -0.6, 0.9])
        # each row twice: the pairs of equal adjacent rows share their dq rows
        prev = [np.repeat(a, 2, axis=0)
                for a in self.build_prev(arm, rng, 9, center=center, spread=0.06)]
        C = 7
        q_next = center + rng.uniform(-0.06, 0.06, (C, 3))
        terms = arm.rigid_terms(q_next)
        limits = LimitSets(qd=np.full(3, 0.25), tau=np.full(3, 100.0))
        levels = np.array([0.0, 0.3, 0.5])
        monkeypatch.setattr(PlanarArm, "_kinematics", recording)
        ev = stage_transitions(arm, limits, 0.1, *prev, q_next, terms, levels,
                               check_count=check_count)
        K = ev.lanes.size
        p, _, c = np.unravel_index(ev.lanes, ev.shape)
        read = np.unique((p // 2) * C + c).size
        assert K > read > C
        assert shapes == [(read, 3)] * check_count
        shapes.clear()
        listed = transitions(arm, limits, 0.1, *prev, q_next, terms, levels,
                             check_count=check_count, candidates=ev.lanes)
        assert listed.lanes.size == K
        assert shapes == [(K, 3)] * check_count

        grid = make_toy_grid(n_stages=3, pv_levels=3, v_values=(0.7, 0.8, 0.9, 1.0))
        N, C = grid.n_stages, grid.cfg_count
        limits = LimitSets(qd=np.full(3, 20.0), tau=np.full(3, 100.0))
        shapes.clear()
        value, = planner._sweep(grid, limits, check_count, None)
        # the grid's terms, then each stage's check points
        assert shapes[0] == (N + 1, C, 3)
        assert len(shapes) == 1 + N * check_count
        assert all(len(shape) == 2 for shape in shapes[1:])
        # a second sweep on the same grid reuses the terms
        shapes.clear()
        again, = planner._sweep(grid, limits, check_count, None)
        assert len(shapes) == N * check_count
        assert all(len(shape) == 2 for shape in shapes)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(again.cost, value.cost))
        # replay: only the check points of its last call, one lane per edge
        shapes.clear()
        planner.extract((value,))
        assert shapes == [(N, 3)] * check_count
        # a replace() copy starts without the terms
        shapes.clear()
        copy = dataclasses.replace(grid)
        assert copy.terms.H.tobytes() == grid.terms.H.tobytes()
        assert shapes == [(N + 1, C, 3)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_check_point_torque_is_inverse_dynamics_per_lane(self, data):
        # the engine computes a check point's rigid-body terms once per row
        # of dq; each lane's torque verdict must be the one that inverse
        # dynamics at the lane's own interpolated state gives, for a shared
        # mask (some rows repeat, so groups share rows) and for a lane list
        arm = make_reference_arm()
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        center = np.array([0.3, -0.6, 0.9])
        P = data.draw(st.integers(1, 8))
        prev = self.build_prev(arm, rng, 3, center=center, spread=0.3)
        q, pv, qd, qdd, tau = (a[np.sort(rng.integers(0, 3, P))] for a in prev)
        C = data.draw(st.integers(1, 5))
        q_next = center + rng.uniform(-0.3, 0.3, (C, 3))
        levels = np.array([0.0, 0.3, 0.5])
        L = levels.size
        candidates = (np.flatnonzero(rng.random((P, L, C)) < 0.7) if data.draw(st.booleans())
                      else rng.random((L, C)) < 0.7)
        check_count = data.draw(st.integers(1, 3))

        def run(tau_max):
            return transitions(arm, LimitSets(qd=np.full(3, 20.0), tau=tau_max), 0.1,
                               q, pv, qd, qdd, tau, q_next, arm.rigid_terms(q_next),
                               levels, check_count=check_count, candidates=candidates)

        # the torques at each evaluated lane's endpoint and check points
        ev = run(np.full(3, np.inf))
        assume(ev.lanes.size > 0)
        p, l, c = np.unravel_index(ev.lanes, ev.shape)
        ref = np.empty((ev.lanes.size, check_count + 1, 3))
        for row in range(ev.lanes.size):
            a, b = q[p[row]], q_next[c[row]]
            pv2_prev, pv2_next = pv[p[row]] ** 2, float(levels[l[row]]) ** 2
            slope = (b - a) / 0.1
            qdd_edge = slope * ((pv2_next - pv2_prev) / (2.0 * 0.1))
            ref[row, 0] = ev.tau[row]
            for k in range(1, check_count + 1):
                s = k / (check_count + 1.0)
                pv_s = np.sqrt((1.0 - s) * pv2_prev + s * pv2_next)
                ref[row, k] = inverse_dynamics(arm, a + s * (b - a), slope * pv_s, qdd_edge)
        # each joint's bound is exactly one of its samples, so a sample one
        # ulp off its reference can flip its lane's verdict
        ref = np.abs(ref)
        pick = [data.draw(st.integers(0, ref[..., j].size - 1)) for j in range(3)]
        tau_max = np.array([np.sort(ref[..., j], axis=None)[pick[j]] for j in range(3)])
        assume(np.all(tau_max > 0.0))
        assert run(tau_max).verdicts["tau"].tolist() == (~(ref > tau_max).any(axis=(1, 2))).tolist()

    @pytest.mark.parametrize("check_count", [0, 2])
    def test_layout_independence(self, arm, check_count):
        # the engine gathers its lanes joint-major; C-ordered, Fortran-ordered
        # and strided inputs must give the same bytes
        rng = np.random.default_rng(44)
        center = np.array([0.3, -0.6, 0.9])
        q, pv, qd, qdd, tau = self.build_prev(arm, rng, 12, center=center, spread=0.06)
        q_next = center + rng.uniform(-0.06, 0.06, (8, 3))
        terms = arm.rigid_terms(q_next)
        levels = np.array([0.0, 0.3, 0.5])
        limits = LimitSets(qd=np.full(3, 0.25), qdd=np.full(3, 5.0),
                           qddd=np.full(3, 40.0), tau=np.array([30.0, 10.0, 1.8]),
                           taud=np.full(3, 100.0))

        def run(layout):
            tables = [layout(a) for a in (q, qd, qdd, tau, q_next, terms.H, terms.G,
                                          terms.gravity)]
            ev = stage_transitions(arm, limits, 0.1, tables[0], pv, *tables[1:4],
                                   tables[4], RigidTerms(*tables[5:]), levels,
                                   check_count=check_count)
            stack = [getattr(ev, field) for field in ORDERS]
            masks = [ev.order_ok[order] for order in sorted(ev.order_ok)]
            return [a.tobytes() for a in (ev.dt, ev.lanes, *stack, ev.feasible, *masks)]

        def strided(a):
            return np.stack([a, np.zeros_like(a)], axis=-1)[..., 0]

        expect = run(np.ascontiguousarray)
        assert run(np.asfortranarray) == expect
        assert run(strided) == expect


    # typical magnitudes of each order on build_prev's lanes at dt 0.1-0.3
    FINITE_SCALE = {"qd": 0.25, "qdd": 5.0, "qddd": 40.0, "tau": np.array([30.0, 10.0, 1.8]),
                    "taud": 100.0}

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_block_is_its_rows_stacked(self, data):
        # a block must give the bytes of its rows' one-row calls, stacked:
        # the engine may share work between predecessors, never change it.
        # The rows repeat three configurations, the last two equal but for
        # the sign of a zero joint, at rest and moving levels; rest rows and
        # the zero level take the trapezoid step, and some rows have no
        # history
        arm = make_reference_arm()
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        center = np.array([0.0, -0.6, 0.9])
        configs = center + rng.uniform(-0.06, 0.06, (3, 3))
        configs[1, 0] = 0.0
        configs[2] = configs[1]
        configs[2, 0] = -0.0
        P = data.draw(st.integers(1, 8))
        rows = st.lists(st.integers(0, 2), min_size=P, max_size=P)
        q = configs[data.draw(rows)]
        pv = rng.choice([0.0, 0.25, 0.5], size=P)
        qd = rng.normal(0, 0.8, (P, 3))
        qdd = rng.normal(0, 2.0, (P, 3))
        tau = rng.normal(0, 10.0, (P, 3))
        rest = pv == 0.0
        qd[rest] = qdd[rest] = 0.0
        tau[rest] = inverse_dynamics(arm, q[rest], qd[rest], qdd[rest])
        free = rng.random(P) < 0.25
        qd[free] = qdd[free] = tau[free] = np.nan
        C = 5
        q_next = center + rng.uniform(-0.06, 0.06, (C, 3))
        levels = np.array([0.0, 0.3, 0.5])
        L = levels.size
        candidates = None
        if data.draw(st.booleans()):
            # a window's masks: a level band around each row's own level,
            # and cells that differ from row to row
            band = np.abs(rng.integers(0, L, P)[:, None] - np.arange(L)) <= 1
            candidates = band[:, :, None] & (rng.random((P, L, C)) < 0.7)
        kinds = data.draw(st.lists(st.sampled_from(("off", "finite")), min_size=5,
                                   max_size=5))
        limits = LimitSets(**{o: self.FINITE_SCALE[o] * rng.uniform(0.5, 2.0, 3)
                              for o, kind in zip(ORDERS, kinds) if kind == "finite"})
        check_count = data.draw(st.sampled_from([0, 2]))
        terms = arm.rigid_terms(q_next)

        def run(at):
            return transitions(arm, limits, 0.1, q[at], pv[at], qd[at], qdd[at],
                               tau[at], q_next, terms, levels, check_count=check_count,
                               candidates=None if candidates is None
                               else np.flatnonzero(candidates[at]))

        block = run(slice(None))
        parts = [run(slice(p, p + 1)) for p in range(P)]

        def stacked(field):
            return np.concatenate([getattr(part, field) for part in parts]).tobytes()

        for field in ("dt", *ORDERS, "ok", "feasible"):
            assert getattr(block, field).tobytes() == stacked(field)
        lanes = np.concatenate([p * L * C + part.lanes for p, part in enumerate(parts)])
        assert block.lanes.tobytes() == lanes.tobytes()
        assert all(part.verdicts.keys() == block.verdicts.keys() for part in parts)
        for order, ok in block.verdicts.items():
            assert ok.tobytes() == np.concatenate([part.verdicts[order]
                                                   for part in parts]).tobytes()
            assert block.order_ok[order].tobytes() == np.concatenate(
                [part.order_ok[order] for part in parts]).tobytes()
        assert block.no_step == sum(part.no_step for part in parts)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(order=st.sampled_from(ORDERS),
           kinds=st.lists(st.sampled_from(("off", "inf", "finite")), min_size=5, max_size=5),
           seed=st.integers(0, 2 ** 32 - 1), check_count=st.sampled_from([0, 2]),
           windowed=st.booleans())
    def test_inf_bound_rejects_nothing(self, order, kinds, seed, check_count, windowed):
        # an order bounded by +inf on every joint leaves every lane, sample
        # and other order's verdict as they are with the order disabled: the
        # premise on which compare() derives a subset's gap from the one
        # before it
        arm = make_reference_arm()
        rng = np.random.default_rng(seed)
        center = np.array([0.3, -0.6, 0.9])
        prev = self.build_prev(arm, rng, 6, center=center, spread=0.06)
        q_next = center + rng.uniform(-0.06, 0.06, (5, 3))
        levels = np.array([0.0, 0.3, 0.5])
        candidates = np.flatnonzero(rng.random((6, 3, 5)) < 0.7) if windowed else None
        caps = {o: np.full(3, np.inf) if kind == "inf"
                else self.FINITE_SCALE[o] * rng.uniform(0.5, 2.0, 3)
                for o, kind in zip(ORDERS, kinds) if kind != "off"}
        unbounded = LimitSets(**{**caps, order: np.full(3, np.inf)})

        def run(limits):
            return transitions(arm, limits, 0.1, *prev, q_next, arm.rigid_terms(q_next),
                               levels, check_count=check_count, candidates=candidates)

        a, b = run(unbounded), run(unbounded.disable(order))
        fields = ("dt", "lanes", *ORDERS, "ok", "feasible")
        assert [getattr(a, f).tobytes() for f in fields] == [getattr(b, f).tobytes()
                                                              for f in fields]
        assert set(a.order_ok) == set(b.order_ok) | {order}
        for other, ok in b.order_ok.items():
            assert a.order_ok[other].tobytes() == ok.tobytes()
        assert a.order_ok[order].all()
        assert a.rejections() == b.rejections()

    def test_screen_slices_bound_their_row_arrays(self, monkeypatch):
        # velocity_screens finds the time steps and groups of at most
        # max_entries // L rows at a time and cuts its chunks of whole
        # groups within those slices; every row is handed the lanes,
        # velocities and bias torques that one unsliced screen hands it
        arm = make_reference_arm()
        rng = np.random.default_rng(67)
        P, L, C = 300, 10, 7
        # runs of ten equal configurations, levels ascending within a run
        q = np.repeat(rng.uniform(-0.8, 0.8, (P // 10, 3)), 10, axis=0)
        pv = np.sort(rng.choice([0.0, 0.25, 0.5], (P // 10, 10)), axis=1).ravel()
        q_next = rng.uniform(-0.8, 0.8, (C, 3))
        mask = rng.random((L, C)) < 0.7
        args = (arm, LimitSets.from_joint_limits(arm.limits), 0.1, q, pv, q_next,
                arm.rigid_terms(q_next), np.linspace(0.0, 1.0, L), mask)

        def handed(screen):
            out = []
            for r in range(screen.group.size):
                at = slice(screen.first[r], screen.first[r] + screen.counts[r])
                out.append(tuple(getattr(screen, f)[at] for f in
                                 ("lc", "cell", "step", "qd", "bias")))
            return out

        (_, whole), = constraints.velocity_screens(*args)
        expect = handed(whole)
        # a chunk's table is a (group, level, cell) box over the levels
        # that the mask uses
        box = np.count_nonzero(mask.any(axis=1)) * C
        assert whole.group[-1] + 1 < P and sum(whole.counts) > 0
        rows, durations, runs = [], constraints.edge_durations, constraints._runs
        monkeypatch.setattr(constraints, "edge_durations",
                            lambda *a: rows.append(a[0].shape[0]) or durations(*a))
        monkeypatch.setattr(constraints, "_runs", lambda key: rows.append(key.shape[0])
                            or runs(key))
        for max_entries in (1, 25, 97, 3 * L * C):
            rows.clear()
            got, at = [], 0
            for a, screen in constraints.velocity_screens(*args, max_entries=max_entries):
                assert a == at
                at += screen.group.size
                groups = screen.group[-1] + 1
                assert groups == 1 or groups * box <= max_entries
                assert screen.dt.tobytes() == whole.dt[a:at].tobytes()
                got += handed(screen)
            assert at == P and max(rows) <= max(1, max_entries // L)
            assert sum(rows) == 2 * P
            for mine, theirs in zip(got, expect):
                assert all(x.tobytes() == y.tobytes() for x, y in zip(mine, theirs))


class TestLaneContract:
    """The engine answers lane by lane: ok and the per-order verdicts on its
    evaluated lanes, and tallies for the rest. The dense (P, L, C) views are
    built from those fields; each must agree with the other, and a shared
    (L, C) mask must give what the same candidates listed as lane ids give.
    """

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_lanes_match_dense_views(self, data):
        arm = make_reference_arm()
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        P, C = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 6))
        center = np.array([0.3, -0.6, 0.9])
        q = center + rng.uniform(-0.06, 0.06, (P, 3))
        pv = rng.choice([0.0, 0.25, 0.5], size=P)
        qd = rng.normal(0, 0.8, (P, 3))
        qdd = rng.normal(0, 2.0, (P, 3))
        tau = rng.normal(0, 10.0, (P, 3))
        free = rng.random(P) < 0.25
        qd[free] = qdd[free] = tau[free] = np.nan
        q_next = center + rng.uniform(-0.06, 0.06, (C, 3))
        levels = np.array([0.0, 0.3, 0.5])
        L = levels.size
        kinds = data.draw(st.lists(st.booleans(), min_size=5, max_size=5))
        limits = LimitSets(**{o: TestStageTransitions.FINITE_SCALE[o] * rng.uniform(0.5, 2.0, 3)
                              for o, on in zip(ORDERS, kinds) if on})
        check_count = data.draw(st.sampled_from([0, 2]))
        form = data.draw(st.sampled_from(("all", "mask", "lanes")))
        mask = rng.random((L, C)) < 0.7
        dense = {"all": np.ones((P, L, C), dtype=bool),
                 "mask": np.broadcast_to(mask, (P, L, C)),
                 "lanes": rng.random((P, L, C)) < 0.6}[form]
        candidates = {"all": None, "mask": mask, "lanes": np.flatnonzero(dense)}[form]

        def run(candidates):
            return transitions(arm, limits, 0.1, q, pv, qd, qdd, tau, q_next,
                               arm.rigid_terms(q_next), levels,
                               check_count=check_count, candidates=candidates)

        ev = run(candidates)
        # each evaluated lane once, in order, and only candidates
        assert np.all(np.diff(ev.lanes) > 0)
        assert dense.reshape(-1)[ev.lanes].all()
        assert ev.ok.shape == ev.lanes.shape
        folded = np.ones(ev.lanes.size, dtype=bool)
        for order, ok in ev.verdicts.items():
            assert ok.shape == ev.lanes.shape
            assert np.array_equal(ev.order_ok[order].reshape(-1)[ev.lanes], ok)
            folded &= ok
        assert np.array_equal(ev.ok, folded)
        assert np.array_equal(ev.feasible.reshape(-1)[ev.lanes], ev.ok)
        assert np.count_nonzero(ev.feasible) == np.count_nonzero(ev.ok)
        assert not ev.feasible.flags.writeable
        assert not any(view.flags.writeable for view in ev.order_ok.values())
        # the tallies count what the dense views hold
        with_step = dense & np.isfinite(ev.dt)[:, :, None]
        assert ev.no_step == np.count_nonzero(dense) - np.count_nonzero(with_step)
        expect = {order: int(np.count_nonzero(~view)) for order, view in ev.order_ok.items()}
        expect["duration"] = ev.no_step
        assert ev.rejections() == {key: count for key, count in expect.items() if count}
        if "qd" in ev.order_ok:
            # off the evaluated lanes, only candidates with a time step fail qd
            unevaluated = np.ones(P * L * C, dtype=bool)
            unevaluated[ev.lanes] = False
            failed = ~ev.order_ok["qd"].reshape(-1) & unevaluated
            assert np.array_equal(failed, with_step.reshape(-1) & unevaluated)
        if form == "lanes":
            return
        # the same candidates listed as lane ids
        listed = run(np.flatnonzero(dense))
        for field in ("dt", "lanes", *ORDERS, "ok"):
            assert getattr(ev, field).tobytes() == getattr(listed, field).tobytes()
        assert ev.verdicts.keys() == listed.verdicts.keys()
        assert all(ok.tobytes() == listed.verdicts[o].tobytes()
                   for o, ok in ev.verdicts.items())
        assert ev.rejections() == listed.rejections()

    def test_only_a_mask_groups_its_rows(self, monkeypatch):
        # a mask's velocity work runs once per run of adjacent bitwise-
        # equal predecessors, found by one _runs call; a listed lane is
        # scored on its own and groups nothing
        arm = make_reference_arm()
        calls = []
        runs = constraints._runs
        monkeypatch.setattr(constraints, "_runs",
                            lambda key: calls.append(key.shape) or runs(key))
        rng = np.random.default_rng(7)
        q = np.repeat(0.3 + rng.uniform(-0.05, 0.05, (2, 3)), 3, axis=0)
        pv = np.tile([0.25, 0.5, 0.5], 2)
        hist = np.zeros((6, 3))
        q_next = 0.3 + rng.uniform(-0.05, 0.05, (4, 3))
        levels = np.array([0.25, 0.5])
        mask = rng.random((2, 4)) < 0.7

        def run(candidates):
            calls.clear()
            ev = transitions(arm, LimitSets.from_joint_limits(arm.limits), 0.1, q, pv,
                             hist, hist, hist, q_next, arm.rigid_terms(q_next), levels,
                             candidates=candidates)
            return ev, len(calls)

        (shared, shared_calls), (listed, listed_calls) = (
            run(mask), run(np.flatnonzero(np.broadcast_to(mask, (6, 2, 4)))))
        assert (shared_calls, listed_calls) == (1, 0)
        assert shared.lanes.size > 0
        for field in ("lanes", *ORDERS, "ok"):
            assert getattr(shared, field).tobytes() == getattr(listed, field).tobytes()

    def test_memory_does_not_grow_with_the_dense_shape(self):
        # a shared (L, C) mask costs memory per predecessor and level, not
        # per lane: ten times the cells leave the peak where it was. A
        # replay-shaped call, N listed lanes over N rows, N cells and a
        # grid's levels, costs O(N): twice the edges, about twice the peak,
        # not the four of an N^2 array
        arm = make_reference_arm()
        rng = np.random.default_rng(61)
        limits = LimitSets.from_joint_limits(arm.limits)

        def peak(*args, **kwargs):
            tracemalloc.start()
            try:
                ev = transitions(arm, *args, **kwargs)
                return tracemalloc.get_traced_memory()[1], ev
            finally:
                tracemalloc.stop()

        def shared(C):
            # 2,000 rows in one configuration, every lane failing qd
            P, L = 2000, 10
            q = np.tile([0.3, -0.6, 0.9], (P, 1))
            hist = np.zeros((P, 3))
            q_next = 0.3 + rng.uniform(-0.5, 0.5, (C, 3))
            return peak(LimitSets(qd=np.full(3, 1e-3)), 0.1, q, np.full(P, 0.5), hist, hist,
                        hist, q_next, arm.rigid_terms(q_next), np.linspace(0.1, 1.0, L),
                        candidates=np.ones((L, C), dtype=bool))

        (small, _), (large, ev) = shared(40), shared(400)
        assert ev.no_step == 0 and ev.rejections() == {"qd": 2000 * 10 * 400}
        assert large < 1.5 * small

        def chain(N):
            L = 10
            q = np.cumsum(rng.uniform(-0.01, 0.01, (N + 1, 3)), axis=0)
            levels = np.linspace(0.2, 1.0, L)
            level = rng.integers(0, L, N + 1)
            hist = np.full((N, 3), np.nan)
            edge = np.arange(N)
            return peak(limits, 0.1, q[:-1], levels[level[:-1]], hist, hist, hist, q[1:],
                        arm.rigid_terms(q[1:]), levels,
                        candidates=(edge * L + level[1:]) * N + edge)

        (small, _), (large, ev) = chain(1000), chain(2000)
        assert ev.lanes.size == 2000
        assert large < 3 * small


def per_pair_table(dq, dt, mask, qd_max):
    """The velocity table as one expression per (group, pair) entry: dq (G
    * C, n) the groups' configuration steps, dt (G, L) their time steps
    (+inf: none), mask the (L, C) candidates, qd_max None for no bound. The
    (group, level, cell) of each kept entry, in (group, lane) order."""
    C = mask.shape[1]
    pair_l, pair_c = np.divmod(np.flatnonzero(mask), C)
    has_step = np.isfinite(dt)
    step = np.where(has_step, dt, 1.0)
    keep = has_step[:, pair_l]
    if qd_max is not None:
        with np.errstate(invalid="ignore"):
            tmin = np.max(np.abs(dq) / qd_max, axis=-1)
            pair_dq = np.arange(dt.shape[0])[:, None] * C + pair_c
            keep &= ~(tmin[pair_dq] > step[:, pair_l] * (1.0 + constraints._TABLE_SLACK))
    g, k = np.divmod(np.flatnonzero(keep), pair_l.size)
    return g, pair_l[k], pair_c[k]


class TestScreenFields:
    """The screen works out each entry's level, cell and time step once;
    the engine hands them to its lanes, and the sweep and replay read them
    from StageEval instead of splitting lane ids again."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_box_table_keeps_what_the_per_pair_formula_keeps(self, data):
        # the table over the (group, level, cell) box keeps exactly the
        # entries of the per-pair formula, in the same order: cells without
        # IK (NaN rows), levels without a time step, masks with holes, no
        # velocity bound, and configuration steps that sit exactly on the
        # table's slack (q_prev = 0, one joint at step * (1 + slack))
        arm = make_reference_arm()
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        P, C = data.draw(st.integers(1, 12)), data.draw(st.integers(1, 6))
        levels = np.array([0.0, 0.25, 0.5, 1.0])
        L, dlam = levels.size, 0.1
        base = np.vstack([np.zeros(3), rng.uniform(-0.3, 0.3, (2, 3))])
        q = base[rng.integers(0, 3, P)]
        pv = rng.choice([0.0, 0.25, 0.5], P)
        q_next = rng.uniform(-0.3, 0.3, (C, 3))
        q_next[rng.random(C) < 0.2] = np.nan
        for c in np.flatnonzero(rng.random(C) < 0.4):
            q_next[c] = 0.0
            q_next[c, rng.integers(0, 3)] = (dlam / rng.choice(levels[1:])
                                             * (1.0 + constraints._TABLE_SLACK))
        mask = rng.random((L, C)) < data.draw(st.sampled_from([0.3, 0.8, 1.0]))
        qd_max = data.draw(st.sampled_from([None, np.ones(3), np.array([0.5, 2.0, 1.0])]))
        kept = []
        velocity = constraints._velocity

        def spy(robot, limits, terms_next, qd, step, cell, lc, dqrow):
            kept.append((dqrow // C, lc // C, cell.copy()))
            return velocity(robot, limits, terms_next, qd, step, cell, lc, dqrow)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(constraints, "_velocity", spy)
            (_, screen), = constraints.velocity_screens(
                arm, LimitSets(qd=qd_max), dlam, q, pv, q_next, arm.rigid_terms(q_next),
                levels, mask)
        (g, level, cell), = kept
        first = np.flatnonzero(np.diff(screen.group, prepend=-1))
        dq = (q_next - q[first][:, None, :]).reshape(-1, 3)
        dt = edge_durations(pv[first][:, None], levels, dlam)
        for got, want in zip((g, level, cell), per_pair_table(dq, dt, mask, qd_max)):
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_lane_fields_are_the_lane_ids_and_their_steps(self, data):
        # for a mask, its Screen cut into blocks and a lane list, each
        # evaluated lane's row, node and step are divmod(lane, S) and the
        # time step of its row and level, bit for bit; each screen entry's
        # cell is its lc's, and its step is each of its group's rows' time
        # step at its lc's level
        arm = make_reference_arm()
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        P, C = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 6))
        center = np.array([0.3, -0.6, 0.9])
        q = (center + rng.uniform(-0.06, 0.06, (3, 3)))[rng.integers(0, 3, P)]
        pv = rng.choice([0.0, 0.25, 0.5], P)
        hist = rng.normal(0, 0.5, (3, P, 3))
        q_next = center + rng.uniform(-0.06, 0.06, (C, 3))
        levels = np.array([0.0, 0.3, 0.5])
        L, S = levels.size, levels.size * C
        limits = LimitSets(qd=np.full(3, data.draw(st.sampled_from([0.3, 1.0, np.inf]))))
        check_count = data.draw(st.sampled_from([0, 2]))
        mask = rng.random((L, C)) < 0.8
        args = (arm, limits, 0.1, q, pv, q_next, arm.rigid_terms(q_next), levels)

        def run(candidates, a=0, b=P):
            return transitions(arm, limits, 0.1, q[a:b], pv[a:b], *hist[:, a:b], q_next,
                               arm.rigid_terms(q_next), levels,
                               check_count=check_count, candidates=candidates)

        def check(ev, at=0):
            row, node = np.divmod(ev.lanes, S)
            assert ev.row.tobytes() == row.tobytes() and ev.node.tobytes() == node.tobytes()
            assert ev.step.tobytes() == ev.dt[ev.row, ev.node // C].tobytes()
            want = edge_durations(pv[at + ev.row], levels[ev.node // C], 0.1)
            assert ev.step.tobytes() == want.tobytes()

        dense = run(mask)
        check(dense)
        listed = run(np.flatnonzero(np.broadcast_to(mask, (P, L, C))))
        check(listed)
        for field in ("row", "node", "step", "lanes"):
            assert getattr(dense, field).tobytes() == getattr(listed, field).tobytes()
        blocks = []
        for a, screen in constraints.velocity_screens(*args, mask, max_entries=2 * L * C):
            level, cell = np.divmod(screen.lc, C)
            assert screen.cell.tobytes() == cell.tobytes()
            for r in range(screen.group.size):
                at = slice(screen.first[r], screen.first[r] + screen.counts[r])
                assert screen.step[at].tobytes() == screen.dt[r, level[at]].tobytes()
            rows = screen.group.size
            for b0 in range(0, rows, 2):
                b1 = min(b0 + 2, rows)
                ev = run(screen.rows(b0, b1), a + b0, a + b1)
                check(ev, a + b0)
                blocks.append((ev.row + a + b0, ev.node, ev.step))
        for field, got in zip(("row", "node", "step"), map(np.concatenate, zip(*blocks))):
            assert got.tobytes() == getattr(dense, field).tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_order_ok_matches_the_nan_skipping_form(data):
    special = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 1.0, -1.0])
    value_floats = st.one_of(special, st.floats(allow_nan=True, allow_infinity=True))
    rows = data.draw(st.integers(0, 6))
    n = data.draw(st.integers(1, 4))
    value = np.reshape(data.draw(st.lists(value_floats, min_size=rows * n,
                                          max_size=rows * n)), (rows, n))
    bound = np.array(data.draw(st.lists(
        st.one_of(st.just(np.inf), st.just(1.0), st.floats(min_value=1e-300,
                                                           allow_infinity=True)),
        min_size=n, max_size=n)))
    with np.errstate(invalid="ignore"):
        old = np.all((np.abs(value) <= bound) | np.isnan(value), axis=-1)
    for layout in (np.ascontiguousarray, np.asfortranarray):
        assert np.array_equal(_order_ok(layout(value), bound), old)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_zero_width_key_is_one_group(n):
    # a depth-0 sweep groups its labels by an empty tail; that must give
    # what a key whose rows are all equal gives
    empty, equal = planner._groups(np.zeros((n, 0))), planner._groups(np.zeros((n, 1)))
    for a, b in zip(empty, equal):
        assert a.dtype == b.dtype and np.array_equal(a, b)


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
