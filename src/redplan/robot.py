"""The planar redundant arm: the one manipulator the planner works with.

:class:`PlanarArm` is a planar n-R chain (n >= 3) in a vertical plane whose
task is the 2-D end-effector position, so the first n - 2 joints are the
redundancy parameters and the distal 2-R subchain is solved analytically on
two IK branches. Kinematics, the task Jacobian and the joint-space inverse
dynamics are closed form, which keeps every mechanism cheap to evaluate.

The dynamics API is three methods. :meth:`PlanarArm.rigid_terms` computes
the terms that depend on the configuration alone (inertia H, centripetal
matrix G, gravity torque), once per configuration; :meth:`PlanarArm.torque`
adds H qdd and the velocity-dependent part, :meth:`PlanarArm.bias_torque`.
The edge engine evaluates many lanes at few configurations: the state grid
holds its cells' rigid terms from one call (``StateGrid.terms``), the
engine calls bias_torque per configuration pair and time step, adds H qdd
per lane, and calls rigid_terms once per check point and configuration
pair.

All kinematics/dynamics methods broadcast over leading batch dimensions: a
joint vector argument of shape ``(..., n)`` yields results with the same
leading shape. One kernel, _kinematics, gives the task Jacobian and every
link's COM Jacobian from one cos/sin pass over the cumulative link angles:
it multiplies the trig values by the link levers into one table with a
column of +0.0, gathers each entry's terms into n + 1 slots and subtracts
the slots in order. A sum with fewer terms points its spare slots at the
zero column: the task Jacobian's first slot, so that it computes
0 - L_b s_b - ..., and the COM Jacobians' trailing ones, where x - (+0.0)
is x for every x, -0.0 and NaN included. The baseline's redundancy resolution takes the
position, the Jacobians and the inertia of its stacked rows from one such
pass. _inertia forms every link's term over every entry, with no mask, and
adds the links in increasing order with their inertias between them.
So every entry takes its terms in the same order as a one-entry loop
would, with only +0.0 added before its first term. Scalar, batched and
stacked calls therefore go through identical elementwise arithmetic and
agree bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ScenarioError, as_int, reject_booleans, reject_unknown

Array = np.ndarray

# Reachability slack for the IK annulus test and the threshold below which the
# two IK branches are reported as coincident.
_REACH_TOL = 1e-9
_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class JointLimits:
    """Per-joint bound table: position, velocity, acceleration, jerk,
    torque, and torque rate. Rate/effort bounds are symmetric about zero."""

    q_min: Array
    q_max: Array
    qd_max: Array
    qdd_max: Array
    qddd_max: Array
    tau_max: Array
    taud_max: Array

    def __post_init__(self):
        names = ("q_min", "q_max", "qd_max", "qdd_max", "qddd_max", "tau_max", "taud_max")
        for name in names:
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        n = self.q_min.shape[0]
        for name in names:
            if getattr(self, name).shape != (n,):
                raise ScenarioError(f"limit field {name} must have shape ({n},)")
        # written as "all ok" so that NaN entries fail the comparison
        if not np.all(self.q_min < self.q_max):
            raise ScenarioError("q_min must be strictly below q_max")
        for name in ("qd_max", "qdd_max", "qddd_max", "tau_max", "taud_max"):
            if not np.all(getattr(self, name) > 0):
                raise ScenarioError(f"{name} entries must be strictly positive")

    @property
    def n(self) -> int:
        return self.q_min.shape[0]


@dataclass(frozen=True)
class DynamicParams:
    """Per-link rigid-body parameters plus per-joint friction and gravity."""

    mass: Array
    com: Array           # distance of each link COM along the link (m)
    inertia: Array       # inertia about each COM (kg m^2)
    viscous: Array       # viscous friction coefficient (Nm s/rad)
    coulomb: Array       # Coulomb friction magnitude (Nm)
    gravity: Array = field(default_factory=lambda: np.array([0.0, -9.81]))

    def __post_init__(self):
        for name in ("mass", "com", "inertia", "viscous", "coulomb", "gravity"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
            if not np.all(np.isfinite(getattr(self, name))):
                raise ScenarioError(f"dynamic parameter {name} must be finite")
        if np.any(self.mass < 0) or np.any(self.inertia < 0):
            raise ScenarioError("masses and inertias must be nonnegative")
        if np.any(self.viscous < 0) or np.any(self.coulomb < 0):
            raise ScenarioError("friction coefficients must be nonnegative")
        if self.gravity.shape != (2,):
            raise ScenarioError("gravity must be a 2-vector for planar chains")


@dataclass(frozen=True)
class RigidTerms:
    """The velocity-independent dynamics of a batch of configurations:
    inertia H (..., n, n), centripetal matrix G (..., n, n) and gravity
    torque (..., n). Indexing selects configurations, as it would on q."""

    H: Array
    G: Array
    gravity: Array

    def __getitem__(self, index) -> "RigidTerms":
        return RigidTerms(self.H[index], self.G[index], self.gravity[index])


def _matvec(M: Array, v: Array) -> Array:
    """Matrix-vector product with a fixed left-to-right fold over columns.

    Broadcast-stable: scalar and batched calls run the same per-element
    additions in the same order, so results are bit-identical.
    """
    return _fold_columns(lambda b: M[..., :, b], v)


def _fold_columns(column, v: Array) -> Array:
    """The sum over b of column(b) * v[..., b], folded left to right: the
    fold of _matvec over a matrix whose columns (..., n) column(b) builds
    one at a time, as the fold reaches them (e.g. gathered per lane)."""
    out = column(0) * v[..., 0, None]
    for b in range(1, v.shape[-1]):
        out += column(b) * v[..., b, None]
    return out


def _wrap_angle(a: Array) -> Array:
    """Wrap to [-pi, pi)."""
    return (a + np.pi) % (2.0 * np.pi) - np.pi


class PlanarArm:
    """Planar n-R serial chain in a vertical plane, task = 2-D EE position.

    The redundancy parameters are the first r = n - 2 joints; given those,
    the distal 2-R subchain is solved analytically with two branches:

    * g = 0, elbow-down: the distal elbow lies below the chord from the
      subchain base to the target (relative elbow angle >= 0);
    * g = 1, elbow-up: the mirror solution (relative elbow angle <= 0).

    Dynamics are closed-form planar Lagrangian terms assembled from link COM
    Jacobians; Coulomb friction uses sign(qd) with sign(0) = 0.
    """

    m = 2              # task dimension
    branch_count = 2   # IK solution branches for fixed (x, v)

    def __init__(self, link_lengths, limits: JointLimits, dynamics: DynamicParams):
        self.link_lengths = tuple(float(l) for l in link_lengths)
        n = len(self.link_lengths)
        if n < 3:
            raise ScenarioError(f"PlanarArm needs at least 3 links, got {n}")
        if limits.n != n:
            raise ScenarioError("limit table size does not match joint count")
        for name in ("mass", "com", "inertia", "viscous", "coulomb"):
            if getattr(dynamics, name).shape != (n,):
                raise ScenarioError(f"dynamic parameter {name} must have length n")
        lengths = np.asarray(self.link_lengths)
        if not np.all((lengths > 0) & np.isfinite(lengths)):
            raise ScenarioError("link lengths must be positive and finite")
        if not np.all((dynamics.com >= 0.0) & (dynamics.com <= lengths)):
            raise ScenarioError("COM offsets must lie on their links")
        self.n = n
        self.r = n - 2
        self.limits = limits
        self.dynamics = dynamics
        self._L = lengths
        # Tables of the whole-stack kernels. Lever products: row x scales
        # sin, row y scales cos, the COM levers first and then the whole
        # links; _kinematics appends a column of +0.0.
        lc = dynamics.com
        self._lever_scale = np.array([np.concatenate([-lc, lengths]),
                                      np.concatenate([lc, -lengths])])
        # term j of entry (k, b): for a link k < n, link k's COM lever and
        # then the whole links b..k-1; for the tip k = n (the task
        # Jacobian), no lever and the whole links b..n-1; or the zero column
        j, k, b = np.ogrid[:n + 1, :n + 1, :n]
        self._lever_index = np.where(j == 0, np.where((b <= k) & (k < n), k, 2 * n),
                                     np.where(b + j - 1 < k, n + b + j - 1, 2 * n))
        # link k's inertia on its block of H (rows and columns 0..k), as a
        # (k, a, b) table with +0.0 elsewhere
        k, a, b = np.ogrid[:n, :n, :n]
        self._link_inertia = np.where((a <= k) & (b <= k),
                                      dynamics.inertia[:, None, None], 0.0)

    # ------------------------------------------------------------------
    # kinematics

    def _kinematics(self, q: Array, task: bool = True) -> tuple[Array | None, tuple]:
        """The task Jacobian dk/dq (..., 2, n; None without task) and the COM
        Jacobian components (Ax, Ay, ct, st) at q: Ax[..., k, b] is the x
        component of d(p_com_k)/d(q_b), and ct, st the cos and sin of the
        cumulative link angles, the one transcendental pass that both read."""
        th = np.cumsum(np.asarray(q, dtype=float), axis=-1)
        ct, st = np.cos(th), np.sin(th)
        # entry (k, b) is t0 - t1 - ... - tn over its slots: in x the
        # products with sin, in y those with cos, whose levers are negated
        # for the whole links, so that y adds L c; for b > k every slot is
        # the zero column and the entry is +0.0
        n, shape = self.n, th.shape[:-1]
        table = np.zeros(shape + (2, 2 * n + 1))
        np.multiply(np.concatenate((st, st, ct, ct), axis=-1).reshape(shape + (2, 2 * n)),
                    self._lever_scale, out=table[..., :2 * n])
        terms = table.take(self._lever_index if task else self._lever_index[:, :n], axis=-1)
        A = terms[..., 0, :, :] - terms[..., 1, :, :]
        for j in range(2, n + 1):
            A -= terms[..., j, :, :]
        return A[..., n, :] if task else None, (A[..., 0, :n, :], A[..., 1, :n, :], ct, st)

    def _distal_geometry(self, x: Array, v: Array) -> tuple[Array, Array, Array, Array]:
        """Per-query quantities of the distal 2-R subproblem.

        Returns (wx, wy, cos_elbow_raw, base_angle) where (wx, wy) is the
        target relative to the subchain base and base_angle is the absolute
        orientation of the last proximal link (0 if r joints = none proximal).
        """
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        r = self.r
        thp = np.cumsum(v, axis=-1)
        bx = np.zeros(v.shape[:-1])
        by = np.zeros(v.shape[:-1])
        for a in range(r):
            bx = bx + self._L[a] * np.cos(thp[..., a])
            by = by + self._L[a] * np.sin(thp[..., a])
        wx = x[..., 0] - bx
        wy = x[..., 1] - by
        l2, l3 = self._L[self.n - 2], self._L[self.n - 1]
        d2 = wx * wx + wy * wy
        cos_elbow = (d2 - l2 * l2 - l3 * l3) / (2.0 * l2 * l3)
        return wx, wy, cos_elbow, thp[..., r - 1]

    def ik_table(self, x: Array, v_values: Array) -> tuple[Array, Array, Array]:
        """The joint vectors that reach each row of a (W, 2) batch of
        targets x on both branches, with the redundancy joints pinned to
        each row of a (J, r) batch v.

        Returns (q, reachable, degenerate): q of shape (W, J, 2, n), NaN
        where unreachable; (W, J) masks of reachable and of coincident-branch
        rows (whose solution is kept on branch 0 only).
        """
        x = np.asarray(x, dtype=float)
        v_values = np.asarray(v_values, dtype=float)
        wx, wy, ce, base = self._distal_geometry(x[:, None, :], v_values)
        reachable = (ce <= 1.0 + _REACH_TOL) & (ce >= -1.0 - _REACH_TOL)
        ce_c = np.clip(ce, -1.0, 1.0)
        degenerate = reachable & ((1.0 - np.abs(ce_c)) <= _DEGENERATE_TOL)
        gamma = np.arccos(ce_c)
        l2, l3 = self._L[self.n - 2], self._L[self.n - 1]
        phi = np.arctan2(wy, wx)
        q = np.full(ce.shape + (2, self.n), np.nan)
        for g, q_elbow in ((0, gamma), (1, -gamma)):
            psi = np.arctan2(l3 * np.sin(q_elbow), l2 + l3 * np.cos(q_elbow))
            q[..., g, : self.r] = v_values
            q[..., g, self.n - 2] = _wrap_angle(phi - psi - base)
            q[..., g, self.n - 1] = q_elbow
        q[~reachable] = np.nan
        q[degenerate, 1] = np.nan
        return q, reachable, degenerate

    # ------------------------------------------------------------------
    # dynamics

    def rigid_terms(self, q: Array) -> RigidTerms:
        """The velocity-independent terms H, G and gravity torque at q, from
        one pass over the COM Jacobians."""
        components = self._kinematics(q, task=False)[1]
        return RigidTerms(self._inertia(components), self._centripetal(components),
                          self._gravity(components))

    def torque(self, terms: RigidTerms, qd: Array, qdd: Array) -> Array:
        """tau = H qdd + f(qd) from precomputed rigid-body terms."""
        return _matvec(terms.H, qdd) + self.bias_torque(terms.G, terms.gravity, qd)

    def bias_torque(self, G: Array, gravity: Array, qd: Array) -> Array:
        """f(qd): the centripetal, viscous, Coulomb and gravity torques from
        the centripetal matrix G and gravity torque of rigid_terms."""
        qd = np.asarray(qd, dtype=float)
        thd = np.cumsum(qd, axis=-1)
        tau = _matvec(G, thd * thd)
        tau = tau + self.dynamics.viscous * qd
        tau = tau + self.dynamics.coulomb * np.sign(qd)
        return tau + gravity

    # _inertia, _centripetal and _gravity take the COM Jacobian components
    # of _kinematics, so one pass derives all three; bias_torque
    # takes G and the gravity torque. Each adds link k's term to every entry it
    # reaches in increasing k, so an entry sums its terms in increasing k.

    def _inertia(self, components) -> Array:
        Ax, Ay, _, _ = components
        n = self.n
        # every link's term T_k = m_k (ax_a ax_b + ay_a ay_b) on every
        # entry, (..., k, a, b); the lower triangle's products take their
        # factors in swapped order, which IEEE multiplication does not
        # notice, so H is symmetric
        term = Ax[..., :, :, None] * Ax[..., :, None, :]
        term += Ay[..., :, :, None] * Ay[..., :, None, :]
        term *= self.dynamics.mass[:, None, None]
        # off link k's block one factor is +0.0, so T_k is +-0.0 there (or
        # NaN, where a NaN angle makes link max(a, b)'s term NaN as well),
        # and +0.0 plus +-0.0 stays +0.0: in 0 + T_0 + I_0 + T_1 + I_1 + ...
        # entry (a, b) meets only +0.0 before its first link max(a, b), and
        # from there it sums as a loop would
        H = 0.0 + term[..., 0, :, :]
        H += self._link_inertia[0]
        for k in range(1, n):
            H += term[..., k, :, :]
            H += self._link_inertia[k]
        return H

    def _centripetal(self, components) -> Array:
        """Matrix G(q) with bias torque contribution G @ (cumulative qd)^2.

        Column c holds the torque produced by a unit squared angular rate of
        link c's absolute angle (centripetal acceleration of every COM that
        link c carries).
        """
        Ax, Ay, ct, st = components
        n = self.n
        mass = self.dynamics.mass
        G = np.zeros(Ax.shape[:-2] + (n, n))
        for k in range(n):
            # link c < k swings COM k on its whole length, link k on its COM offset
            lever = np.append(self._L[:k], self.dynamics.com[k])
            term = Ax[..., k, :k + 1, None] * ct[..., None, :k + 1]
            term += Ay[..., k, :k + 1, None] * st[..., None, :k + 1]
            G[..., :k + 1, :k + 1] -= np.multiply(mass[k] * lever, term, out=term)
        return G

    def _gravity(self, components) -> Array:
        Ax, Ay, _, _ = components
        gx, gy = self.dynamics.gravity
        mass = self.dynamics.mass
        tg = np.zeros(Ax.shape[:-2] + (self.n,))
        for k in range(self.n):
            tg[..., :k + 1] -= mass[k] * (Ax[..., k, :k + 1] * gx + Ay[..., k, :k + 1] * gy)
        return tg

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        lim, dyn = self.limits, self.dynamics
        return {
            "type": "planar",
            "link_lengths": list(self.link_lengths),
            "task_dim": self.m,
            "redundancy_indices": list(range(self.r)),
            "limits": {
                "q_min": lim.q_min.tolist(), "q_max": lim.q_max.tolist(),
                "qd_max": lim.qd_max.tolist(), "qdd_max": lim.qdd_max.tolist(),
                "qddd_max": lim.qddd_max.tolist(), "tau_max": lim.tau_max.tolist(),
                "taud_max": lim.taud_max.tolist(),
            },
            "dynamics": {
                "mass": dyn.mass.tolist(), "com": dyn.com.tolist(),
                "inertia": dyn.inertia.tolist(), "viscous": dyn.viscous.tolist(),
                "coulomb": dyn.coulomb.tolist(), "gravity": dyn.gravity.tolist(),
            },
        }


def load_robot(source: dict | str) -> PlanarArm:
    """Build a robot from a description dict or a JSON file path.

    The description carries the keys of :meth:`PlanarArm.to_dict`; task_dim
    (optional) must be 2 and redundancy_indices must list the first n - 2
    joints, the only layout a planar arm has.
    """
    if isinstance(source, str):
        try:
            with open(source) as fh:
                source = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot read robot description: {exc}") from exc
    if not isinstance(source, dict):
        raise ScenarioError("robot description must be a JSON object")
    kind = source.get("type", "planar")
    if kind != "planar":
        raise ScenarioError(f"unknown robot type {kind!r}")
    reject_unknown(source, ("type", "link_lengths", "task_dim", "redundancy_indices",
                            "limits", "dynamics"), "robot")
    try:
        link_lengths = [float(l) for l in source["link_lengths"]]
        if as_int(source.get("task_dim", 2), "task_dim") != 2:
            raise ScenarioError("a planar arm has a 2-D task space (task_dim 2)")
        if list(source["redundancy_indices"]) != list(range(len(link_lengths) - 2)):
            raise ScenarioError("a planar arm's redundancy_indices are the first "
                                "n-2 joints")
        lim, dyn = source["limits"], source["dynamics"]
        reject_unknown(lim, [f.name for f in fields(JointLimits)], "robot limits")
        reject_unknown(dyn, [f.name for f in fields(DynamicParams)], "robot dynamics")
        limits = JointLimits(**lim)
        dynamics = DynamicParams(**dyn)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid robot description: {exc}") from exc
    reject_booleans(source, "robot")
    return PlanarArm(link_lengths, limits, dynamics)
