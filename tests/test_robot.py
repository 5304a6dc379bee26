"""Robot-model tests: every kinematic/dynamic quantity is checked against an
independently coded oracle (homogeneous-transform chain, finite differences,
potential energy, kinetic-energy quadratic form)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from redplan.baseline import _linearize, _row_offsets
from redplan.errors import ScenarioError
from redplan.robot import DynamicParams, JointLimits, PlanarArm, load_robot

from conftest import (BranchDegenerate, Unreachable, inverse_dynamics, inverse_kinematics,
                      make_reference_arm)

# ---------------------------------------------------------------------------
# independent oracles


def transform_chain_fk(arm: PlanarArm, q):
    """End-effector position via explicit 3x3 homogeneous transforms."""
    T = np.eye(3)
    for angle, length in zip(q, arm.link_lengths):
        c, s = np.cos(angle), np.sin(angle)
        T = T @ np.array([[c, -s, length * c], [s, c, length * s], [0.0, 0.0, 1.0]])
    return T[:2, 2].copy()


def com_positions(arm: PlanarArm, q):
    """Link COM positions via the same transform chain, coded independently."""
    pts = []
    T = np.eye(3)
    for angle, length, lc in zip(q, arm.link_lengths, arm.dynamics.com):
        c, s = np.cos(angle), np.sin(angle)
        T = T @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        pts.append(T[:2, :2] @ np.array([lc, 0.0]) + T[:2, 2])
        T = T @ np.array([[1.0, 0.0, length], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    return np.array(pts)


def potential_energy(arm: PlanarArm, q):
    g = arm.dynamics.gravity
    return -sum(m * g @ p for m, p in zip(arm.dynamics.mass, com_positions(arm, q)))


def kinetic_energy(arm: PlanarArm, q, qd, h=1e-7):
    """KE from finite-difference COM velocities plus rotational terms."""
    vels = (com_positions(arm, q + h * qd) - com_positions(arm, q - h * qd)) / (2.0 * h)
    ke = 0.0
    for k in range(arm.n):
        ke += 0.5 * arm.dynamics.mass[k] * vels[k] @ vels[k]
        ke += 0.5 * arm.dynamics.inertia[k] * np.sum(qd[: k + 1]) ** 2
    return ke


def christoffel_bias(arm: PlanarArm, q, qd, h=1e-6):
    """Coriolis/centrifugal torque from finite differences of H(q)."""
    n = arm.n
    dH = np.empty((n, n, n))
    for c in range(n):
        e = np.zeros(n)
        e[c] = h
        dH[:, :, c] = (arm.rigid_terms(q + e).H - arm.rigid_terms(q - e).H) / (2.0 * h)
    bias = np.zeros(n)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                bias[a] += 0.5 * (dH[a, b, c] + dH[a, c, b] - dH[b, c, a]) * qd[b] * qd[c]
    return bias


def random_joint_vectors(arm: PlanarArm, count, rng):
    lim = arm.limits
    return rng.uniform(lim.q_min, lim.q_max, size=(count, arm.n))


# ---------------------------------------------------------------------------
# forward kinematics: the position the baseline reads off the Jacobian


def position(arm, q):
    return _linearize(arm, q, _row_offsets(arm.n, False))[0]


def test_fk_stretched_unit_arm(unit_arm):
    assert position(unit_arm, np.zeros(3)) == pytest.approx([3.0, 0.0])
    assert position(unit_arm, np.array([np.pi / 2, 0.0, 0.0])) == pytest.approx([0.0, 3.0])


def test_fk_matches_transform_chain(arm):
    rng = np.random.default_rng(7)
    for q in random_joint_vectors(arm, 200, rng):
        assert position(arm, q) == pytest.approx(transform_chain_fk(arm, q), abs=1e-12)


# ---------------------------------------------------------------------------
# inverse kinematics


def test_ik_stretched_solution_is_canonical(unit_arm):
    q = inverse_kinematics(unit_arm, np.array([3.0, 0.0]), np.array([0.0]), 0)
    assert q == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)
    with pytest.raises(BranchDegenerate):
        inverse_kinematics(unit_arm, np.array([3.0, 0.0]), np.array([0.0]), 1)


def test_ik_unreachable_beyond_annulus(unit_arm):
    with pytest.raises(Unreachable):
        inverse_kinematics(unit_arm, np.array([3.5, 0.0]), np.array([0.0]), 0)


def test_ik_round_trip_1000_poses(arm):
    # acceptance-scale round trip: q* -> (x, v, g) -> q* within 1e-10
    rng = np.random.default_rng(11)
    qs = random_joint_vectors(arm, 1000, rng)
    for q in qs:
        x = transform_chain_fk(arm, q)
        g = 0 if q[2] >= 0.0 else 1
        q_back = inverse_kinematics(arm, x, q[:1], g)
        assert np.max(np.abs(q_back - q)) < 1e-10


def test_ik_branches_distinct_off_degeneracy(arm):
    q0 = inverse_kinematics(arm, np.array([0.55, 0.2]), np.array([0.9]), 0)
    q1 = inverse_kinematics(arm, np.array([0.55, 0.2]), np.array([0.9]), 1)
    assert q0[2] > 0.0 > q1[2]
    assert transform_chain_fk(arm, q0) == pytest.approx([0.55, 0.2], abs=1e-12)
    assert transform_chain_fk(arm, q1) == pytest.approx([0.55, 0.2], abs=1e-12)


def test_ik_elbow_below_chord_on_branch_zero(arm):
    # elbow-down: distal elbow lies below the chord from subchain base to target
    v = np.array([0.2])
    target = np.array([0.6, 0.1])
    q = inverse_kinematics(arm, target, v, 0)
    base = 0.5 * np.array([np.cos(v[0]), np.sin(v[0])])
    elbow = base + 0.4 * np.array([np.cos(q[0] + q[1]), np.sin(q[0] + q[1])])
    chord = target - base
    cross = chord[0] * (elbow - base)[1] - chord[1] * (elbow - base)[0]
    assert cross < 0.0


def test_ik_table_matches_scalar_calls(arm):
    # a (W, 2) batch of targets: two in the workspace, one beyond every
    # row's reach, and one that stretches row 5's distal subchain, where the
    # branches coincide
    vs = np.linspace(-0.8, 0.9, 18).reshape(-1, 1)
    l0, l1, l2 = arm.link_lengths
    stretched = (l0 * np.array([np.cos(vs[5, 0]), np.sin(vs[5, 0])])
                 + (l1 + l2) * np.array([np.cos(0.3), np.sin(0.3)]))
    xs = np.array([[0.55, 0.15], [0.3, -0.4], [5.0, 5.0], stretched])
    table, reachable, degenerate = arm.ik_table(xs, vs)
    assert table.shape == (4, 18, 2, 3)
    assert reachable.shape == degenerate.shape == (4, 18)
    for w, x in enumerate(xs):
        # the batch equals one call per waypoint byte for byte
        for got, one in zip((table, reachable, degenerate), arm.ik_table(x[None], vs)):
            assert got[w].tobytes() == one[0].tobytes()
        for j, v in enumerate(vs):
            for g in range(2):
                try:
                    q = inverse_kinematics(arm, x, v, g)
                except Unreachable:
                    assert not reachable[w, j]
                    assert np.all(np.isnan(table[w, j, g]))
                    continue
                except BranchDegenerate:
                    assert degenerate[w, j]
                    assert np.all(np.isnan(table[w, j, g]))
                    continue
                assert reachable[w, j]
                assert table[w, j, g].tobytes() == q.tobytes()
    # the first targets are out of reach from some rows only
    assert reachable[:2].any(axis=1).all() and not reachable[:2].all()
    assert not reachable[2].any()
    assert np.flatnonzero(degenerate).tolist() == [3 * 18 + 5]


def test_branch_count_constant(arm):
    assert arm.branch_count == 2


# ---------------------------------------------------------------------------
# jacobian


def test_jacobian_lever_arms(unit_arm):
    J = unit_arm._kinematics(np.zeros(3))[0]
    assert J[1] == pytest.approx([3.0, 2.0, 1.0])
    assert J[0] == pytest.approx([0.0, 0.0, 0.0])


def test_jacobian_matches_central_differences(arm):
    rng = np.random.default_rng(12)
    h = 1e-6
    for q in random_joint_vectors(arm, 100, rng):
        J = arm._kinematics(q)[0]
        delta = rng.standard_normal(3)
        fd = (transform_chain_fk(arm, q + h * delta)
              - transform_chain_fk(arm, q - h * delta)) / (2 * h)
        assert J @ delta == pytest.approx(fd, abs=1e-6)


def test_jacobian_full_rank_generic(arm):
    q = np.array([0.3, -0.7, 1.1])
    assert np.linalg.matrix_rank(arm._kinematics(q)[0]) == 2


# ---------------------------------------------------------------------------
# dynamics


def test_static_unloaded_torque_zero():
    arm = make_reference_arm(coulomb=(0.0, 0.0, 0.0), gravity=(0.0, 0.0))
    tau = inverse_dynamics(arm, np.array([0.4, -0.8, 1.2]), np.zeros(3), np.zeros(3))
    assert np.array_equal(tau, np.zeros(3))


def test_gravity_torque_matches_potential_gradient(arm):
    rng = np.random.default_rng(13)
    h = 1e-6
    for q in random_joint_vectors(arm, 100, rng):
        tau = inverse_dynamics(arm, q, np.zeros(3), np.zeros(3))
        grad = np.array([
            (potential_energy(arm, q + h * e) - potential_energy(arm, q - h * e)) / (2 * h)
            for e in np.eye(3)
        ])
        assert tau == pytest.approx(grad, abs=1e-6)
        assert np.array_equal(arm.rigid_terms(q).gravity, tau)


def test_inertia_spd_1000_configurations(arm):
    rng = np.random.default_rng(14)
    qs = random_joint_vectors(arm, 1000, rng)
    H = arm.rigid_terms(qs).H
    assert np.array_equal(H, np.swapaxes(H, -1, -2))
    assert np.linalg.eigvalsh(H).min() > 0.0


def test_inertia_matches_kinetic_energy(arm):
    rng = np.random.default_rng(15)
    for q in random_joint_vectors(arm, 50, rng):
        qd = rng.standard_normal(3)
        ke = 0.5 * qd @ arm.rigid_terms(q).H @ qd
        assert ke == pytest.approx(kinetic_energy(arm, q, qd), rel=1e-6)


def test_bias_matches_christoffel_oracle():
    arm = make_reference_arm(coulomb=(0.0, 0.0, 0.0), gravity=(0.0, 0.0))
    rng = np.random.default_rng(16)
    for q in random_joint_vectors(arm, 50, rng):
        qd = rng.standard_normal(3)
        bias = inverse_dynamics(arm, q, qd, np.zeros(3)) - arm.dynamics.viscous * qd
        assert bias == pytest.approx(christoffel_bias(arm, q, qd), abs=1e-7)


def test_energy_balance_along_trajectory():
    # coulomb-free: d/dt(T + V) = qd . (tau - viscous qd), checked to O(h^2)
    arm = make_reference_arm(coulomb=(0.0, 0.0, 0.0))
    amp = np.array([0.8, 0.6, 0.9])
    freq = np.array([1.0, 1.7, 2.3])
    phase = np.array([0.1, -0.4, 0.9])

    def state(t):
        q = amp * np.sin(freq * t + phase)
        qd = amp * freq * np.cos(freq * t + phase)
        qdd = -amp * freq**2 * np.sin(freq * t + phase)
        return q, qd, qdd

    def energy(t):
        q, qd, _ = state(t)
        return 0.5 * qd @ arm.rigid_terms(q).H @ qd + potential_energy(arm, q)

    h = 1e-5
    for t in np.linspace(0.2, 2.8, 9):
        q, qd, qdd = state(t)
        tau = inverse_dynamics(arm, q, qd, qdd)
        power = qd @ (tau - arm.dynamics.viscous * qd)
        dE = (energy(t + h) - energy(t - h)) / (2 * h)
        assert dE == pytest.approx(power, rel=1e-5, abs=1e-7)


def test_coulomb_term_uses_sign_with_zero_at_rest(arm):
    q = np.array([0.3, 0.2, -0.5])
    qd = np.array([0.4, 0.0, -0.2])
    # centripetal torque is even in qd, so the odd part isolates friction exactly
    zero = np.zeros(3)
    odd = 0.5 * (inverse_dynamics(arm, q, qd, zero) - inverse_dynamics(arm, q, -qd, zero))
    expected = arm.dynamics.viscous * qd + arm.dynamics.coulomb * np.sign(qd)
    assert odd == pytest.approx(expected, abs=1e-13)
    assert odd[1] == pytest.approx(0.0, abs=1e-15)  # sign(0) = 0: no stiction


def test_batched_dynamics_bitwise_equal_scalar(arm):
    rng = np.random.default_rng(18)
    q = rng.standard_normal((4, 5, 3))
    qd = rng.standard_normal((4, 5, 3))
    qdd = rng.standard_normal((4, 5, 3))
    tau = inverse_dynamics(arm, q, qd, qdd)
    for i in range(4):
        for j in range(5):
            assert np.array_equal(tau[i, j], inverse_dynamics(arm, q[i, j], qd[i, j], qdd[i, j]))


def test_rigid_terms_split_bitwise_equal_inverse_dynamics(arm):
    # the engine computes the rigid-body terms once per configuration and
    # gathers them per lane, repeats included
    rng = np.random.default_rng(20)
    q = rng.standard_normal((5, 3))
    idx = np.array([3, 0, 3, 4, 1, 1, 2, 3])
    qd = rng.standard_normal((idx.size, 3))
    qdd = rng.standard_normal((idx.size, 3))
    qd[1] = 0.0                          # sign(0) = 0 in the Coulomb term
    qdd[2] = np.nan                      # a lane without enough history
    tau = arm.torque(arm.rigid_terms(q)[idx], qd, qdd)
    assert tau.tobytes() == inverse_dynamics(arm, q[idx], qd, qdd).tobytes()
    for k, i in enumerate(idx):
        one = arm.torque(arm.rigid_terms(q[i]), qd[k], qdd[k])
        assert one.tobytes() == tau[k].tobytes()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(stages=st.integers(1, 4), cells=st.integers(1, 5), data=st.data())
def test_rigid_terms_of_a_grid_bitwise_equal_per_stage(stages, cells, data):
    # the sweep computes the terms of every stage in one call and hands
    # stage i's slice to the engine
    arm = make_reference_arm()
    values = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=stages * cells * 3,
                                max_size=stages * cells * 3))
    q_table = np.reshape(values, (stages, cells, 3))
    unreachable = data.draw(st.lists(st.booleans(), min_size=stages * cells,
                                     max_size=stages * cells))
    q_table[np.reshape(unreachable, (stages, cells))] = np.nan
    whole = arm.rigid_terms(q_table)
    for i in range(stages):
        one = arm.rigid_terms(q_table[i])
        for got, expect in zip((whole[i].H, whole[i].G, whole[i].gravity),
                               (one.H, one.G, one.gravity)):
            assert got.tobytes() == expect.tobytes()


def test_broadcast_dynamics_bitwise_equal_tiled(arm):
    # engine passes q with broadcast shape (1, C, n) against (P, C, n) rates
    rng = np.random.default_rng(19)
    q = rng.standard_normal((1, 6, 3))
    qd = rng.standard_normal((4, 6, 3))
    qdd = rng.standard_normal((4, 6, 3))
    tau = inverse_dynamics(arm, q, qd, qdd)
    tau_tiled = inverse_dynamics(arm, np.broadcast_to(q, (4, 6, 3)).copy(), qd, qdd)
    assert np.array_equal(tau, tau_tiled)


# ---------------------------------------------------------------------------
# kernels against their scalar-index loop forms
#
# The kernels add each term to a slice of entries at once; these loops
# compute one entry at a time, with the same operations in the same order,
# so the two agree bit for bit, NaN payloads and zero signs included.


def loop_jacobian(arm, q):
    th = np.cumsum(q, axis=-1)
    st, ct = np.sin(th), np.cos(th)
    J = np.zeros(q.shape[:-1] + (2, arm.n))
    for b in range(arm.n):
        jx = np.zeros(q.shape[:-1])
        jy = np.zeros(q.shape[:-1])
        for a in range(b, arm.n):
            jx = jx - arm._L[a] * st[..., a]
            jy = jy + arm._L[a] * ct[..., a]
        J[..., 0, b] = jx
        J[..., 1, b] = jy
    return J


def loop_com_jacobian_components(arm, q):
    th = np.cumsum(q, axis=-1)
    ct, st = np.cos(th), np.sin(th)
    n, lc = arm.n, arm.dynamics.com
    Ax = np.zeros(q.shape[:-1] + (n, n))
    Ay = np.zeros(q.shape[:-1] + (n, n))
    for k in range(n):
        for b in range(k + 1):
            ax = -lc[k] * st[..., k]
            ay = lc[k] * ct[..., k]
            for a in range(b, k):
                ax = ax - arm._L[a] * st[..., a]
                ay = ay + arm._L[a] * ct[..., a]
            Ax[..., k, b] = ax
            Ay[..., k, b] = ay
    return Ax, Ay, ct, st


def loop_inertia(arm, components):
    Ax, Ay, _, _ = components
    n, mass, inertia = arm.n, arm.dynamics.mass, arm.dynamics.inertia
    H = np.zeros(Ax.shape[:-2] + (n, n))
    for a in range(n):
        for b in range(a, n):
            h = np.zeros(Ax.shape[:-2])
            for k in range(max(a, b), n):
                h = h + mass[k] * (Ax[..., k, a] * Ax[..., k, b]
                                   + Ay[..., k, a] * Ay[..., k, b])
                h = h + inertia[k]
            H[..., a, b] = h
            if b != a:
                H[..., b, a] = h
    return H


def loop_centripetal(arm, components):
    Ax, Ay, ct, st = components
    n, mass, lc = arm.n, arm.dynamics.mass, arm.dynamics.com
    G = np.zeros(Ax.shape[:-2] + (n, n))
    for b in range(n):
        for c in range(n):
            gv = np.zeros(Ax.shape[:-2])
            for k in range(max(b, c), n):
                w = lc[k] if c == k else arm._L[c]
                gv = gv - mass[k] * w * (Ax[..., k, b] * ct[..., c]
                                         + Ay[..., k, b] * st[..., c])
            G[..., b, c] = gv
    return G


def loop_gravity(arm, components):
    Ax, Ay, _, _ = components
    gx, gy = arm.dynamics.gravity
    n, mass = arm.n, arm.dynamics.mass
    tg = np.zeros(Ax.shape[:-2] + (n,))
    for b in range(n):
        t = np.zeros(Ax.shape[:-2])
        for k in range(b, n):
            t = t - mass[k] * (Ax[..., k, b] * gx + Ay[..., k, b] * gy)
        tg[..., b] = t
    return tg


def chain_arm(n):
    """An n-link arm with distinct, uneven parameters on every link."""
    k = np.arange(n)
    lengths = 0.5 - 0.05 * k
    limits = JointLimits(q_min=np.full(n, -3.0), q_max=np.full(n, 3.0),
                         qd_max=np.ones(n), qdd_max=np.ones(n), qddd_max=np.ones(n),
                         tau_max=np.ones(n), taud_max=np.ones(n))
    dynamics = DynamicParams(mass=2.0 - 0.25 * k, com=lengths * (0.3 + 0.07 * k),
                             inertia=0.03 + 0.011 * k, viscous=np.zeros(n),
                             coulomb=np.zeros(n), gravity=np.array([0.7, -9.81]))
    return PlanarArm(lengths, limits, dynamics)


CHAIN_ARMS = {n: chain_arm(n) for n in range(3, 8)}
ENTRIES = st.sampled_from([0.0, -0.0, np.nan, -np.nan]) | st.floats(-4.0, 4.0)


def bits(a):
    return np.asarray(a).view(np.int64)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(3, 7), batch=st.sampled_from([(), (1,), (7,), (5, 4)]),
       data=st.data())
def test_kernels_bitwise_equal_loop_forms(n, batch, data):
    arm = CHAIN_ARMS[n]
    size = int(np.prod(batch, dtype=int)) * n
    q = np.reshape(data.draw(st.lists(ENTRIES, min_size=size, max_size=size)), batch + (n,))
    J, components = arm._kinematics(q)
    reference = loop_com_jacobian_components(arm, q)
    for got, expect in zip(components, reference):
        assert np.array_equal(bits(got), bits(expect))
    pairs = [(J, loop_jacobian(arm, q)),
             (arm._inertia(components), loop_inertia(arm, reference)),
             (arm._centripetal(components), loop_centripetal(arm, reference)),
             (arm._gravity(components), loop_gravity(arm, reference))]
    for got, expect in pairs:
        assert got.shape == expect.shape
        assert np.array_equal(bits(got), bits(expect))


# signed zeros and multiples of pi/2: poses where some COM Jacobian entries
# and some of _inertia's terms off a link's block are -0.0
AXIS_ANGLES = [0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 1.5 * np.pi, -1.5 * np.pi]


@pytest.mark.parametrize("n", [3, 4])
def test_kernels_bitwise_equal_loop_forms_at_axis_poses(n):
    arm = CHAIN_ARMS[n]
    q = np.array(list(itertools.product(AXIS_ANGLES, repeat=n)))
    J, components = arm._kinematics(q)
    reference = loop_com_jacobian_components(arm, q)
    Ax, Ay = components[:2]
    term = Ax[..., :, :, None] * Ax[..., :, None, :] + Ay[..., :, :, None] * Ay[..., :, None, :]
    k, a, b = np.ogrid[:n, :n, :n]
    off_block = term[:, (a > k) | (b > k)]
    assert np.any((off_block == 0.0) & np.signbit(off_block))
    pairs = [(J, loop_jacobian(arm, q)), *zip(components, reference),
             (arm._inertia(components), loop_inertia(arm, reference))]
    for got, expect in pairs:
        assert got.shape == expect.shape
        assert np.array_equal(bits(got), bits(expect))


@pytest.mark.parametrize("n", range(3, 8))
def test_rigid_terms_skip_the_task_row_bitwise(n):
    # rigid_terms reads no task Jacobian, so its kinematics pass skips that
    # row; the COM Jacobians and the terms keep the bits of the full pass
    # and of the loop forms, at random poses with signed zeros and NaNs, and
    # at the axis poses
    arm = CHAIN_ARMS[n]
    rng = np.random.default_rng(n)
    q = rng.uniform(-4.0, 4.0, (60, n))
    q[rng.random(q.shape) < 0.1] = -0.0
    q[rng.random(q.shape) < 0.02] = np.nan
    if n <= 4:
        q = np.concatenate((q, list(itertools.product(AXIS_ANGLES, repeat=n))))
    for stack in (q, q.reshape(-1, 4, n), q[0]):
        J, components = arm._kinematics(stack, task=False)
        assert J is None
        for got, expect in zip(components, arm._kinematics(stack)[1]):
            assert got.shape == expect.shape
            assert np.array_equal(bits(got), bits(expect))
        reference = loop_com_jacobian_components(arm, stack)
        terms = arm.rigid_terms(stack)
        for got, expect in [(terms.H, loop_inertia(arm, reference)),
                            (terms.G, loop_centripetal(arm, reference)),
                            (terms.gravity, loop_gravity(arm, reference))]:
            assert got.shape == expect.shape
            assert np.array_equal(bits(got), bits(expect))


# ---------------------------------------------------------------------------
# serialization


def test_robot_round_trips_through_dict(arm):
    clone = load_robot(arm.to_dict())
    assert clone.to_dict() == arm.to_dict()
    q = np.array([0.2, -0.4, 0.9])
    assert np.array_equal(clone._kinematics(q)[0], arm._kinematics(q)[0])
    assert np.array_equal(clone.rigid_terms(q).H, arm.rigid_terms(q).H)


def test_load_robot_rejects_bad_descriptions(arm):
    with pytest.raises(ScenarioError):
        load_robot({"type": "delta"})
    bad = arm.to_dict()
    del bad["limits"]["qd_max"]
    with pytest.raises(ScenarioError):
        load_robot(bad)
    # the planar arm fixes the task dimension and the redundancy joints
    bad = arm.to_dict()
    bad["task_dim"] = 3
    with pytest.raises(ScenarioError, match="task_dim"):
        load_robot(bad)
    bad = arm.to_dict()
    bad["redundancy_indices"] = [1]
    with pytest.raises(ScenarioError, match="redundancy_indices"):
        load_robot(bad)
    bad = arm.to_dict()
    del bad["redundancy_indices"]
    with pytest.raises(ScenarioError, match="redundancy_indices"):
        load_robot(bad)
    doc = arm.to_dict()
    del doc["task_dim"]
    assert load_robot(doc).to_dict() == arm.to_dict()
    # a 2-link arm has no redundancy
    bad = arm.to_dict()
    bad["link_lengths"] = bad["link_lengths"][:2]
    bad["redundancy_indices"] = []
    for block in ("limits", "dynamics"):
        for name, values in bad[block].items():
            if name != "gravity":
                bad[block][name] = values[:2]
    with pytest.raises(ScenarioError, match="at least 3 links"):
        load_robot(bad)
    # a misspelled key must not fall back to its default
    for block, key in ((None, "tsak_dim"), ("dynamics", "masss"),
                       ("limits", "qd_mx")):
        bad = arm.to_dict()
        (bad if block is None else bad[block])[key] = 1.0
        with pytest.raises(ScenarioError, match=rf"unknown .*fields \['{key}'\]"):
            load_robot(bad)
