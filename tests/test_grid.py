"""State-grid construction, admissibility rules, exclusion, refinement."""

import itertools

import numpy as np
import pytest

from redplan.errors import EmptyStage, PlanningError, ScenarioError
from redplan.grid import GridSpec, StateGrid, build_grid, exclude, grid_from_configurations
from redplan.path import CurveSpec, sample_path
from redplan.robot import JointLimits, PlanarArm

from conftest import make_reference_arm, make_toy_grid


def line_path(n_stages, p0=(0.5, 0.2), p1=(0.5, -0.2)):
    return sample_path(CurveSpec(kind="line", start=tuple(p0), end=tuple(p1)), n_stages)


def spec_1d(pv_max=1.5, pv_levels=6, v_min=-0.6, v_max=0.6, v_step=0.3, rest=True):
    return GridSpec(pv_max=pv_max, pv_levels=pv_levels, v_min=[v_min],
                    v_max=[v_max], v_step=[v_step], rest_to_rest=rest)


def admissible_cells_by_sweep(robot, path, spec):
    """Oracle: per-stage admissible cell count via scalar IK calls."""
    axes = [spec.v_min[k] + np.arange(nj + 1) * spec.v_step[k]
            for k, nj in enumerate(spec.v_counts)]
    lim = robot.limits
    counts = []
    for i in range(path.n_stages + 1):
        cells = 0
        for combo in itertools.product(*axes):
            for g in range(robot.branch_count):
                try:
                    q = robot.inverse_kinematics(path.waypoints[i], np.array(combo), g)
                except PlanningError:
                    continue
                if np.all(q >= lim.q_min) and np.all(q <= lim.q_max):
                    cells += 1
        counts.append(cells)
    return counts


class TestGridSpec:
    def test_level_values(self):
        spec = spec_1d(pv_max=1.2, pv_levels=4)
        assert spec.pv_step == 0.3
        assert spec.v_counts == (4,)

    def test_non_integral_span_rejected(self):
        with pytest.raises(ScenarioError):
            spec_1d(v_min=-0.5, v_max=0.6, v_step=0.3)

    def test_lattice_rows_exact(self):
        spec = spec_1d(v_min=-0.6, v_max=0.6, v_step=0.3)
        rows = spec.v_lattice()
        expected = -0.6 + np.arange(5) * 0.3
        assert np.array_equal(rows[:, 0], expected)

    def test_multi_parameter_lattice_row_major(self):
        spec = GridSpec(pv_max=1.0, pv_levels=2, v_min=[0.0, 0.0],
                        v_max=[1.0, 2.0], v_step=[0.5, 1.0])
        rows = spec.v_lattice()
        assert rows.shape == (9, 2)
        # last axis varies fastest
        assert np.array_equal(rows[0], [0.0, 0.0])
        assert np.array_equal(rows[1], [0.0, 1.0])
        assert np.array_equal(rows[3], [0.5, 0.0])

    def test_validation(self):
        with pytest.raises(ScenarioError):
            spec_1d(pv_max=-1.0)
        with pytest.raises(ScenarioError):
            spec_1d(pv_levels=0)
        with pytest.raises(ScenarioError):
            spec_1d(v_min=0.9, v_max=0.6)
        with pytest.raises(ScenarioError):
            GridSpec(pv_max=1.0, pv_levels=2, v_min=[0.0], v_max=[1.0], v_step=[-0.5])
        # zero-span lattices (single fixed v) are legal
        assert spec_1d(v_min=0.9, v_max=0.9).v_counts == (0,)


class TestBuildGrid:
    def test_counts_match_scalar_ik_sweep(self, arm):
        path = line_path(4)
        spec = spec_1d()
        grid = build_grid(arm, path, spec)
        cells = admissible_cells_by_sweep(arm, path, spec)
        expected = []
        for i in range(5):
            if i in (0, 4):
                expected.append(cells[i])                   # l = 0 only
            else:
                expected.append(cells[i] * spec.pv_levels)  # l = 1..N_l
        assert grid.admissible_counts == expected

    def test_node_q_matches_scalar_ik_bitwise(self, arm):
        path = line_path(3)
        spec = spec_1d()
        grid = build_grid(arm, path, spec)
        rows = spec.v_lattice()
        for i in (0, 2):
            for j in range(rows.shape[0]):
                for g in range(2):
                    c = j * 2 + g
                    if not grid.cfg_ok[i, c]:
                        continue
                    q = arm.inverse_kinematics(path.waypoints[i], rows[j], g)
                    assert np.array_equal(grid.q_table[i, c], q)

    def test_levels_are_multiples_of_step(self, arm):
        grid = build_grid(arm, line_path(2), spec_1d(pv_max=1.5, pv_levels=6))
        assert np.array_equal(grid.pv_values, np.arange(7) * 0.25)

    @pytest.mark.parametrize("builder", ["build_grid", "grid_from_configurations", "exclude"])
    def test_rest_to_rest_boundary_levels(self, arm, builder):
        # the planner and the oracle take stage_ids(n) as the terminal set
        # as it is, so every builder must leave only level 0 at both ends
        if builder == "grid_from_configurations":
            grid = make_toy_grid(n_stages=4, pv_levels=3, rest=True)
        else:
            grid = build_grid(arm, line_path(4), spec_1d(rest=True))
        if builder == "exclude":
            grid = exclude(grid, node=lambda i, l, j, g: (l == 2) | (g == 1))
        for i in (0, 4):
            ids = grid.stage_ids(i)
            assert ids.size > 0
            assert np.all(ids < grid.cfg_count)               # level 0
        for i in (1, 2, 3):
            levels = {grid.node_coords(f)[0] for f in grid.stage_ids(i)}
            assert 0 not in levels

    def test_free_boundaries_keep_all_levels(self, arm):
        grid = build_grid(arm, line_path(4), spec_1d(rest=False))
        levels0 = {grid.node_coords(f)[0] for f in grid.stage_ids(0)}
        assert levels0 == set(range(7))
        for i in (1, 2, 3):
            levels = {grid.node_coords(f)[0] for f in grid.stage_ids(i)}
            assert 0 not in levels

    def test_node_ids_sorted_lexicographically(self, arm):
        grid = build_grid(arm, line_path(4), spec_1d())
        ids = grid.stage_ids(2)
        coords = [grid.node_coords(f) for f in ids]
        assert coords == sorted(coords)
        assert np.all(np.diff(ids) > 0)

    def test_joint_limit_masking(self):
        arm = make_reference_arm()
        # forbid negative shoulder angles: every cell with q0 < 0 must vanish
        tight = JointLimits(
            q_min=np.array([0.0, -2.9, -2.9]), q_max=arm.limits.q_max,
            qd_max=arm.limits.qd_max, qdd_max=arm.limits.qdd_max,
            qddd_max=arm.limits.qddd_max, tau_max=arm.limits.tau_max,
            taud_max=arm.limits.taud_max)
        clamped = PlanarArm(chain=arm.chain, limits=tight, dynamics=arm.dynamics)
        path = line_path(3)
        spec = spec_1d()
        grid = build_grid(clamped, path, spec)
        assert np.all(grid.q_table[grid.cfg_ok][:, 0] >= 0.0)
        cells = admissible_cells_by_sweep(clamped, path, spec)
        expected = [cells[0], cells[1] * 6, cells[2] * 6, cells[3]]
        assert grid.admissible_counts == expected

    def test_unreachable_stage_raises_empty_stage(self, arm):
        # second half of the line leaves the reachable disk
        path = line_path(4, p0=(0.9, 0.0), p1=(1.6, 0.0))
        with pytest.raises(EmptyStage) as err:
            build_grid(arm, path, spec_1d(v_min=-0.3, v_max=0.3))
        assert err.value.stage > 0

    def test_degenerate_branch_kept_once(self, unit_arm):
        # with v = 0 the distal subchain target sits at full stretch at stage 0
        path = line_path(1, p0=(3.0, 0.0), p1=(2.9, 0.0))
        spec = spec_1d(v_min=0.0, v_max=0.4, v_step=0.4, rest=False)
        grid = build_grid(unit_arm, path, spec)
        assert grid.degenerate[0, 0] and grid.degenerate[0, 1]
        assert grid.cfg_ok[0, 0] and not grid.cfg_ok[0, 1]
        assert np.array_equal(grid.q_table[0, 0], np.zeros(3))

    def test_mismatched_redundancy_dimension(self, arm):
        spec = GridSpec(pv_max=1.0, pv_levels=2, v_min=[0.0, 0.0],
                        v_max=[1.0, 1.0], v_step=[0.5, 0.5])
        with pytest.raises(ScenarioError):
            build_grid(arm, line_path(2), spec)


class TestExclude:
    def test_node_predicate_set_difference(self, arm):
        path = line_path(4)
        grid = build_grid(arm, path, spec_1d())

        def fast_at_stage_2(stage, l, j, g):
            return (stage == 2) & (l >= 4)

        trimmed = exclude(grid, node=fast_at_stage_2)
        before = set(grid.stage_ids(2).tolist())
        after = set(trimmed.stage_ids(2).tolist())
        removed = {f for f in before if grid.node_coords(f)[0] >= 4}
        assert after == before - removed
        for i in (0, 1, 3, 4):
            assert np.array_equal(trimmed.admissible[i], grid.admissible[i])
        # original untouched
        assert set(grid.stage_ids(2).tolist()) == before

    def test_branch_predicate(self, arm):
        grid = build_grid(arm, line_path(3), spec_1d())
        only_down = exclude(grid, node=lambda i, l, j, g: g == 1)
        for i in range(4):
            for f in only_down.stage_ids(i):
                assert only_down.node_coords(f)[2] == 0

    def test_config_predicate(self, arm):
        grid = build_grid(arm, line_path(3), spec_1d())
        trimmed = exclude(grid, config=lambda q: q[:, 0] > 0.3)
        for i in range(4):
            kept = trimmed.q_table[i][trimmed.cfg_ok[i] & trimmed.admissible[i].any(axis=0)]
            assert np.all(kept[:, 0] <= 0.3)

    def test_exclusion_emptying_stage_raises(self, arm):
        grid = build_grid(arm, line_path(3), spec_1d())
        with pytest.raises(EmptyStage) as err:
            exclude(grid, node=lambda i, l, j, g: i == 1)
        assert err.value.stage == 1

    def test_no_predicates_returns_same_grid(self, arm):
        grid = build_grid(arm, line_path(2), spec_1d())
        assert exclude(grid) is grid


class TestRefinement:
    def test_halved_step_contains_coarse_lattice(self, arm):
        path = line_path(4)
        coarse_spec = spec_1d(v_step=0.3)
        fine_spec = spec_1d(v_step=0.15)
        coarse = build_grid(arm, path, coarse_spec)
        fine = build_grid(arm, path, fine_spec)
        # coarse row j lands on fine row 2j bit-exactly
        cv = coarse_spec.v_lattice()[:, 0]
        fv = fine_spec.v_lattice()[:, 0]
        assert np.array_equal(cv, fv[::2])
        G = 2
        for i in range(5):
            for j in range(cv.size):
                for g in range(G):
                    cc, fc = j * G + g, 2 * j * G + g
                    if coarse.cfg_ok[i, cc]:
                        assert fine.cfg_ok[i, fc]
                        assert np.array_equal(coarse.q_table[i, cc], fine.q_table[i, fc])
                        assert np.array_equal(coarse.admissible[i, :, cc], fine.admissible[i, :, fc])


class TestConfigurationGrid:
    def test_fixed_path_grid(self, arm):
        path = line_path(3)
        q_table = np.zeros((4, 1, 3))
        for i in range(4):
            q_table[i, 0] = arm.inverse_kinematics(path.waypoints[i], np.array([0.9]), 0)
        spec = spec_1d()
        grid = grid_from_configurations(arm, path, q_table, spec)
        assert grid.cfg_count == 1
        assert grid.admissible_counts == [1, 6, 6, 1]

    def test_nan_rows_inadmissible(self, arm):
        path = line_path(2)
        q_table = np.zeros((3, 2, 3))
        q_table[1, 1] = np.nan
        grid = grid_from_configurations(arm, path, q_table, spec_1d())
        assert not grid.cfg_ok[1, 1]
        assert grid.cfg_ok[1, 0]

    def test_signature_changes_with_admissibility(self, arm):
        grid = build_grid(arm, line_path(3), spec_1d())
        trimmed = exclude(grid, node=lambda i, l, j, g: (i == 1) & (l == 3))
        assert grid.signature() != trimmed.signature()
        assert grid.signature() == build_grid(arm, line_path(3), spec_1d()).signature()
