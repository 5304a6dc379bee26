"""Discrete (r+3)-dimensional state grid: stages x pseudo-velocity levels x
redundancy lattice x IK branches.

Node content is [pseudo-velocity value, joint vector] (the joint vector is
shared by every level of the same stage/lattice/branch cell, so IK runs once
per cell). Admissibility folds together IK reachability, joint position
limits, boundary conditions, and the scenario's branch filter.

Flat node ids are level-major: id = l * C + c with c = (lattice index,
branch) row-major, so ascending id order is exactly the lexicographic
(l, j, g) order used for deterministic tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import product

import numpy as np

from .errors import EmptyStage, ScenarioError
from .path import WorkspacePath
from .robot import PlanarArm, RigidTerms

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
        # written as "all ok" so that NaN fails every comparison
        if not 0.0 < self.pv_max < np.inf:
            raise ScenarioError("pv_max must be finite and positive")
        if not self.pv_levels >= 1:
            raise ScenarioError("pv_levels must be >= 1")
        if self.v_min.shape != self.v_max.shape or self.v_min.shape != self.v_step.shape:
            raise ScenarioError("v_min, v_max, v_step must share a shape")
        if not np.all(np.isfinite(self.v_min) & np.isfinite(self.v_max)):
            raise ScenarioError("v_min and v_max must be finite")
        if not np.all(self.v_min <= self.v_max):
            raise ScenarioError("v_min must not exceed v_max")
        if not np.all((self.v_step > 0.0) & (self.v_step < np.inf)):
            raise ScenarioError("v_step must be finite and positive")
        span = self.v_max - self.v_min
        counts = np.rint(span / self.v_step)
        if not np.all(np.abs(counts * self.v_step - span) <= 1e-9 * np.maximum(1.0, span)):
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
        return self.v_min + self.lattice_indices() * self.v_step

    def lattice_indices(self) -> Array:
        """Integer index vectors j for every lattice row, shape (J, r)."""
        axes = [np.arange(nj + 1) for nj in self.v_counts]
        return np.array(list(product(*axes)), dtype=int).reshape(-1, self.r)


@dataclass(frozen=True)
class StateGrid:
    """Immutable state grid shared by the planner, engine, and oracle.

    Construction raises EmptyStage at the first stage without an admissible
    node, so every way to a grid (the builders, replace) checks it. The
    grid holds its cells' rigid-body terms (`terms`), computed on first use
    and shared by every search and replay on it; a replace() copy starts
    without them.
    """

    robot: PlanarArm
    path: WorkspacePath
    spec: GridSpec
    pv_values: Array          # (N_l + 1,)
    q_table: Array            # (N_i + 1, C, n), NaN where IK failed
    admissible: Array         # (N_i + 1, N_l + 1, C) bool
    degenerate: Array         # (N_i + 1, C) bool: flagged coincident branches
    branch_count: int = field(default=2)

    def __post_init__(self):
        for i in range(self.n_stages + 1):
            if not self.admissible[i].any():
                raise EmptyStage(i)

    @property
    def n_stages(self) -> int:
        return self.q_table.shape[0] - 1

    @cached_property
    def terms(self) -> RigidTerms:
        """H, G and gravity torque of every cell, (N_i + 1, C, ...), in one
        rigid_terms pass on first use (NaN where IK failed)."""
        return self.robot.rigid_terms(self.q_table)

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


def _level_mask(n_stages: int, n_levels: int, rest_to_rest: bool) -> Array:
    """(N_i + 1, N_l + 1) admissible-level mask from the boundary rules."""
    mask = np.ones((n_stages + 1, n_levels), dtype=bool)
    # interior zero level excluded: its backward-Euler time step diverges
    mask[1:n_stages, 0] = False
    if rest_to_rest:
        mask[0, :] = False
        mask[0, 0] = True
        mask[n_stages, :] = False
        mask[n_stages, 0] = True
    return mask


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
    G = robot.branch_count
    v_rows = spec.v_lattice()
    tables = [robot.ik_table(x, v_rows) for x in path.waypoints]
    q_table = np.stack([q.reshape(-1, robot.n) for q, _, _ in tables])
    in_limits = np.all((q_table >= robot.limits.q_min) & (q_table <= robot.limits.q_max), axis=2)
    grid = grid_from_configurations(robot, path, q_table, spec, cfg_ok=in_limits,
                                    branch_count=G)
    return replace(grid, degenerate=np.stack([np.repeat(degen, G) for _, _, degen in tables]))


def grid_from_configurations(robot: PlanarArm, path: WorkspacePath, q_table: Array,
                             spec: GridSpec, cfg_ok: Array | None = None,
                             branch_count: int = 1) -> StateGrid:
    """Build a grid from explicit per-stage joint tables (no IK).

    Used for fixed-path phase-plane grids (one cell per stage), by
    build_grid with its IK table, and for synthetic test grids. q_table has
    shape (N_i + 1, C, n); rows of NaN are marked inadmissible, and so are
    the cells that cfg_ok (N_i + 1, C) rules out.

    Raises:
        EmptyStage: a stage has no admissible node.
        ScenarioError: q_table inconsistent with robot or path.
    """
    q_table = np.asarray(q_table, dtype=float)
    if q_table.ndim != 3 or q_table.shape[0] != path.n_stages + 1:
        raise ScenarioError("q_table must have shape (N_i + 1, C, n)")
    if q_table.shape[2] != robot.n:
        raise ScenarioError("q_table joint dimension does not match the robot")
    finite = np.all(np.isfinite(q_table), axis=2)
    cfg_ok = finite if cfg_ok is None else np.asarray(cfg_ok, dtype=bool) & finite
    pv_values = np.arange(spec.pv_levels + 1) * spec.pv_step
    level_mask = _level_mask(path.n_stages, spec.pv_levels + 1, spec.rest_to_rest)
    return StateGrid(robot=robot, path=path, spec=spec, pv_values=pv_values,
                     q_table=q_table,
                     admissible=level_mask[:, :, None] & cfg_ok[:, None, :],
                     degenerate=np.zeros_like(cfg_ok), branch_count=branch_count)
