"""Discrete (r+3)-dimensional state grid: stages x pseudo-velocity levels x
redundancy lattice x IK branches.

Node content is [pseudo-velocity value, joint vector] (the joint vector is
shared by every level of the same stage/lattice/branch cell, so IK runs once
per cell). Admissibility folds together IK reachability, joint position
limits, boundary conditions, and user exclusions.

Flat node ids are level-major: id = l * C + c with c = (lattice index,
branch) row-major, so ascending id order is exactly the lexicographic
(l, j, g) order used for deterministic tie-breaking.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import EmptyStage, ScenarioError
from .path import WorkspacePath
from .robot import PlanarArm

Array = np.ndarray


@dataclass(frozen=True)
class GridSpec:
    """Lattice parameters of the state grid.

    Attributes:
        pv_max: pseudo-velocity cap (level N_l maps to this value).
        pv_levels: number of positive levels N_l; levels run 0..N_l with
            step pv_max / pv_levels.
        v_min, v_max: per-parameter redundancy bounds (length r).
        v_step: per-parameter lattice step (length r).
        rest_to_rest: keep only the zero level at the first and last stage.
    """

    pv_max: float
    pv_levels: int
    v_min: Array
    v_max: Array
    v_step: Array
    rest_to_rest: bool = True

    def __post_init__(self):
        for name in ("v_min", "v_max", "v_step"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        if self.pv_max <= 0.0:
            raise ScenarioError("pv_max must be positive")
        if self.pv_levels < 1:
            raise ScenarioError("pv_levels must be >= 1")
        if self.v_min.shape != self.v_max.shape or self.v_min.shape != self.v_step.shape:
            raise ScenarioError("v_min, v_max, v_step must share a shape")
        if np.any(self.v_min > self.v_max):
            raise ScenarioError("v_min must not exceed v_max")
        if np.any(self.v_step <= 0.0):
            raise ScenarioError("v_step must be positive")
        span = self.v_max - self.v_min
        counts = np.rint(span / self.v_step)
        if np.any(np.abs(counts * self.v_step - span) > 1e-9 * np.maximum(1.0, span)):
            raise ScenarioError("redundancy span must be an integral number of steps")

    @property
    def r(self) -> int:
        return self.v_min.shape[0]

    @property
    def pv_step(self) -> float:
        return self.pv_max / self.pv_levels

    @property
    def v_counts(self) -> tuple[int, ...]:
        """Number of lattice steps N_j per redundancy parameter."""
        return tuple(int(c) for c in np.rint((self.v_max - self.v_min) / self.v_step))

    def v_lattice(self) -> Array:
        """All redundancy-parameter combinations, shape (J, r), row-major."""
        axes = [self.v_min[k] + np.arange(nj + 1) * self.v_step[k]
                for k, nj in enumerate(self.v_counts)]
        rows = list(product(*axes))
        return np.array(rows, dtype=float).reshape(len(rows), self.r)

    def lattice_indices(self) -> Array:
        """Integer index vectors j for every lattice row, shape (J, r)."""
        axes = [np.arange(nj + 1) for nj in self.v_counts]
        return np.array(list(product(*axes)), dtype=int).reshape(-1, self.r)


@dataclass(frozen=True)
class StateGrid:
    """Immutable state grid shared by the planner, engine, and oracle."""

    robot: PlanarArm
    path: WorkspacePath
    spec: GridSpec
    pv_values: Array          # (N_l + 1,)
    q_table: Array            # (N_i + 1, C, n), NaN where IK failed
    cfg_ok: Array             # (N_i + 1, C) bool
    admissible: Array         # (N_i + 1, N_l + 1, C) bool
    degenerate: Array         # (N_i + 1, C) bool: flagged coincident branches
    branch_count: int = field(default=2)

    @property
    def n_stages(self) -> int:
        return self.q_table.shape[0] - 1

    @property
    def cfg_count(self) -> int:
        return self.q_table.shape[1]

    @property
    def level_count(self) -> int:
        return self.pv_values.shape[0]

    def stage_ids(self, i: int) -> Array:
        """Admissible node ids of stage i (flat, ascending = lex (l, j, g))."""
        return np.flatnonzero(self.admissible[i].ravel())

    def cell_lattice(self) -> Array:
        """Lattice index vector of every cell, shape (C, r). The cells of a
        configuration-table grid carry no lattice structure; they get one
        index per (C / G) row instead, shape (C, 1)."""
        G = self.branch_count
        lattice = self.spec.lattice_indices()
        if lattice.shape[0] * G != self.cfg_count:
            lattice = np.arange(self.cfg_count // G, dtype=int)[:, None]
        return np.repeat(lattice, G, axis=0)

    @property
    def admissible_counts(self) -> list[int]:
        return [int(self.admissible[i].sum()) for i in range(self.n_stages + 1)]

    @property
    def total_admissible(self) -> int:
        return int(self.admissible.sum())

    def node_coords(self, node_id: int) -> tuple[int, int, int]:
        """Split a flat id into (level, lattice row, branch)."""
        l, c = divmod(int(node_id), self.cfg_count)
        j, g = divmod(c, self.branch_count)
        return l, j, g

    def signature(self) -> str:
        """Digest identifying robot, path, lattice, and admissibility."""
        h = hashlib.sha256()
        h.update(json.dumps(self.robot.to_dict(), sort_keys=True).encode())
        for arr in (self.path.waypoints, self.pv_values, self.q_table,
                    self.cfg_ok, self.admissible):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(b"rest" if self.spec.rest_to_rest else b"free")
        return h.hexdigest()


def _level_mask(n_stages: int, n_levels: int, rest_to_rest: bool) -> Array:
    """(N_i + 1, N_l + 1) admissible-level mask from the boundary rules."""
    mask = np.ones((n_stages + 1, n_levels), dtype=bool)
    # interior zero level excluded: its backward-Euler time step diverges
    if n_stages >= 2:
        mask[1:n_stages, 0] = False
    if rest_to_rest:
        mask[0, :] = False
        mask[0, 0] = True
        mask[n_stages, :] = False
        mask[n_stages, 0] = True
    return mask


def _finalize(grid_fields: dict) -> StateGrid:
    grid = StateGrid(**grid_fields)
    for i in range(grid.n_stages + 1):
        if not grid.admissible[i].any():
            raise EmptyStage(i)
    return grid


def build_grid(robot: PlanarArm, path: WorkspacePath, spec: GridSpec) -> StateGrid:
    """Populate the full lattice via inverse kinematics (once per cell).

    Raises:
        EmptyStage: some waypoint is unreachable for every (v, g).
        ScenarioError: spec inconsistent with robot or path.
    """
    if spec.r != robot.r:
        raise ScenarioError(f"grid has {spec.r} redundancy parameters, robot expects {robot.r}")
    if path.m != robot.m:
        raise ScenarioError("path dimension does not match the robot task space")
    n_stages = path.n_stages
    G = robot.branch_count
    v_rows = spec.v_lattice()
    J = v_rows.shape[0]
    C = J * G
    pv_values = np.arange(spec.pv_levels + 1) * spec.pv_step

    q_table = np.full((n_stages + 1, C, robot.n), np.nan)
    cfg_ok = np.zeros((n_stages + 1, C), dtype=bool)
    degenerate = np.zeros((n_stages + 1, C), dtype=bool)
    lim = robot.limits
    for i in range(n_stages + 1):
        q, reachable, degen = robot.ik_table(path.waypoints[i], v_rows)
        q = q.reshape(C, robot.n)
        ok = np.all(np.isfinite(q), axis=1)
        ok &= np.all((q >= lim.q_min) & (q <= lim.q_max), axis=1)
        q_table[i] = q
        cfg_ok[i] = ok
        degenerate[i] = np.repeat(degen, G)

    level_mask = _level_mask(n_stages, spec.pv_levels + 1, spec.rest_to_rest)
    admissible = level_mask[:, :, None] & cfg_ok[:, None, :]
    return _finalize(dict(
        robot=robot, path=path, spec=spec, pv_values=pv_values,
        q_table=q_table, cfg_ok=cfg_ok, admissible=admissible,
        degenerate=degenerate, branch_count=G,
    ))


def grid_from_configurations(robot: PlanarArm, path: WorkspacePath, q_table: Array,
                             spec: GridSpec, cfg_ok: Array | None = None,
                             branch_count: int = 1) -> StateGrid:
    """Build a grid from explicit per-stage joint tables (no IK).

    Used for fixed-path phase-plane grids (one cell per stage) and synthetic
    test grids. q_table has shape (N_i + 1, C, n); rows of NaN are marked
    inadmissible.
    """
    q_table = np.asarray(q_table, dtype=float)
    if q_table.ndim != 3 or q_table.shape[0] != path.n_stages + 1:
        raise ScenarioError("q_table must have shape (N_i + 1, C, n)")
    if q_table.shape[2] != robot.n:
        raise ScenarioError("q_table joint dimension does not match the robot")
    finite = np.all(np.isfinite(q_table), axis=2)
    if cfg_ok is None:
        cfg_ok = finite
    else:
        cfg_ok = np.asarray(cfg_ok, dtype=bool) & finite
    pv_values = np.arange(spec.pv_levels + 1) * spec.pv_step
    level_mask = _level_mask(path.n_stages, spec.pv_levels + 1, spec.rest_to_rest)
    admissible = level_mask[:, :, None] & cfg_ok[:, None, :]
    return _finalize(dict(
        robot=robot, path=path, spec=spec, pv_values=pv_values,
        q_table=q_table, cfg_ok=cfg_ok, admissible=admissible,
        degenerate=np.zeros_like(cfg_ok), branch_count=branch_count,
    ))


def exclude(grid: StateGrid, node=None, config=None) -> StateGrid:
    """Remove nodes matching a predicate; returns a new grid.

    Args:
        node: vectorized predicate (stage, l, j, g) -> bool. Receives, per
            stage, integer arrays l (K,), j (K, r), g (K,) covering the full
            lattice; True marks a node for removal.
        config: vectorized predicate q -> bool over joint vectors (..., n);
            True removes every level of the matching cell at that stage.

    Raises:
        EmptyStage: the exclusion empties a stage.
    """
    if node is None and config is None:
        return grid
    admissible = grid.admissible.copy()
    n_stages = grid.n_stages
    C = grid.cfg_count
    G = grid.branch_count
    L = grid.level_count
    j_rows = grid.cell_lattice()
    g_rows = np.tile(np.arange(G), C // G)
    for i in range(n_stages + 1):
        drop = np.zeros((L, C), dtype=bool)
        if node is not None:
            l_all = np.repeat(np.arange(L), C)
            j_all = np.tile(j_rows, (L, 1))
            g_all = np.tile(g_rows, L)
            hit = np.asarray(node(i, l_all, j_all, g_all), dtype=bool)
            drop |= np.broadcast_to(hit, l_all.shape).reshape(L, C)
        if config is not None:
            cfg_drop = np.zeros(C, dtype=bool)
            ok = grid.cfg_ok[i]
            if ok.any():
                cfg_drop[ok] = np.asarray(config(grid.q_table[i][ok]), dtype=bool)
            drop |= cfg_drop[None, :]
        admissible[i] &= ~drop
    fields = dict(
        robot=grid.robot, path=grid.path, spec=grid.spec, pv_values=grid.pv_values,
        q_table=grid.q_table, cfg_ok=grid.cfg_ok, admissible=admissible,
        degenerate=grid.degenerate, branch_count=grid.branch_count,
    )
    return _finalize(fields)
