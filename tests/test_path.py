"""Path sampling and tangent tests, checked against dense-rectification and
analytic-circle oracles."""

from __future__ import annotations

import numpy as np
import pytest

from redplan.errors import DegenerateCurve, ScenarioError
from redplan.path import CurveSpec, WorkspacePath, load_path, sample_path, tangent


def dense_arc_length(spec: CurveSpec, samples=262144):
    """Rectification oracle at a much finer resolution than the library's."""
    if spec.kind == "line":
        return float(np.linalg.norm(np.array(spec.end) - np.array(spec.start)))
    a, b = spec.semi_axes
    t = np.linspace(0.0, 2.0 * np.pi, samples + 1)
    pts = np.stack([a * np.cos(t), b * np.sin(t)], axis=-1)
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def test_line_sampling_matches_pinned_example():
    spec = CurveSpec(kind="line", start=(0.55, 0.25), end=(0.55, -0.25))
    path = sample_path(spec, 10)
    assert path.dlam == pytest.approx(0.05)
    assert path.waypoints.shape == (11, 2)
    assert path.waypoints[0] == pytest.approx([0.55, 0.25])
    assert path.waypoints[-1] == pytest.approx([0.55, -0.25])


def test_lambda_stamps_are_multiples_of_dlam():
    spec = CurveSpec(kind="line", start=(0.0, 0.0), end=(0.7, 0.0))
    path = sample_path(spec, 7)
    assert np.array_equal(path.lam, np.arange(8) * path.dlam)
    assert np.all(np.diff(path.lam) > 0)


def test_ellipse_arc_length_against_dense_oracle():
    spec = CurveSpec(kind="ellipse", center=(0.45, 0.05), semi_axes=(0.28, 0.18))
    path = sample_path(spec, 60)
    oracle = dense_arc_length(spec)
    assert path.lam[-1] == pytest.approx(oracle, rel=1e-6)
    assert path.dlam == pytest.approx(oracle / 60, rel=1e-6)
    assert path.waypoints[0] == pytest.approx(path.waypoints[-1], abs=0.0)


def test_chord_sum_within_half_percent_on_smooth_curves():
    cases = [
        (CurveSpec(kind="ellipse", center=(0.0, 0.0), semi_axes=(0.25, 0.25)), 20),
        (CurveSpec(kind="ellipse", center=(0.0, 0.0), semi_axes=(0.25, 0.25)), 50),
        (CurveSpec(kind="ellipse", center=(0.45, 0.05), semi_axes=(0.28, 0.18)), 60),
        (CurveSpec(kind="line", start=(0.0, 0.0), end=(0.5, 0.0)), 20),
    ]
    for spec, n in cases:
        path = sample_path(spec, n)
        chords = np.linalg.norm(np.diff(path.waypoints, axis=0), axis=1).sum()
        assert abs(chords - dense_arc_length(spec)) <= 0.005 * dense_arc_length(spec)


def test_chords_uniform_within_one_percent():
    spec = CurveSpec(kind="ellipse", center=(0.4, 0.1), semi_axes=(0.3, 0.2), rotation=0.4)
    path = sample_path(spec, 60)
    chords = np.linalg.norm(np.diff(path.waypoints, axis=0), axis=1)
    assert np.all(np.abs(chords - chords.mean()) <= 0.01 * chords.mean())


def test_uniform_waypoint_list_accepted_as_is():
    pts = tuple((0.1 * i, 0.0) for i in range(6))
    path = sample_path(CurveSpec(kind="waypoints", points=pts), 5)
    assert np.array_equal(path.waypoints, np.asarray(pts))


def test_nonuniform_waypoint_list_is_resampled():
    pts = ((0.0, 0.0), (0.05, 0.0), (0.5, 0.0))
    path = sample_path(CurveSpec(kind="waypoints", points=pts), 5)
    chords = np.linalg.norm(np.diff(path.waypoints, axis=0), axis=1)
    assert chords == pytest.approx(np.full(5, 0.1), rel=1e-12)


def test_degenerate_curves_raise():
    with pytest.raises(DegenerateCurve):
        sample_path(CurveSpec(kind="line", start=(0.1, 0.2), end=(0.1, 0.2)), 4)
    with pytest.raises(DegenerateCurve):
        sample_path(CurveSpec(kind="waypoints", points=((0.3, 0.3),)), 3)
    with pytest.raises(ScenarioError):
        sample_path(CurveSpec(kind="line", start=(0.0, 0.0), end=(1.0, 0.0)), 0)


def test_line_tangent_constant():
    spec = CurveSpec(kind="line", start=(0.55, 0.25), end=(0.55, -0.25))
    path = sample_path(spec, 10)
    for i in range(11):
        assert tangent(path, i) == pytest.approx([0.0, -1.0])


def test_circle_tangent_perpendicular_to_radius():
    spec = CurveSpec(kind="ellipse", center=(0.1, -0.2), semi_axes=(0.3, 0.3))
    path = sample_path(spec, 4000)
    ts = np.stack([tangent(path, i) for i in range(path.n_stages + 1)])
    radial = path.waypoints - np.array([0.1, -0.2])
    dots = np.abs(np.sum(ts * radial, axis=1)) / 0.3
    assert dots.max() < 1e-3
    assert np.linalg.norm(ts, axis=1) == pytest.approx(np.ones(4001))


def test_tangent_rejects_coincident_waypoints():
    dup = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    bad = WorkspacePath(waypoints=dup, dlam=0.5, lam=np.array([0.0, 0.5, 1.0]))
    with pytest.raises(DegenerateCurve):
        tangent(bad, 0)


def test_load_path_json_and_csv(tmp_path):
    jf = tmp_path / "curve.json"
    jf.write_text('{"kind": "ellipse", "center": [0.4, 0.0], "semi_axes": [0.3, 0.2], "rotation": 0.1}')
    spec = load_path(str(jf))
    assert spec.kind == "ellipse" and spec.rotation == 0.1
    cf = tmp_path / "pts.csv"
    cf.write_text("# task-space waypoints\n0.0,0.0\n0.1,0.0\n0.2,0.0\n")
    spec = load_path(str(cf))
    assert spec.kind == "waypoints"
    assert spec.points == ((0.0, 0.0), (0.1, 0.0), (0.2, 0.0))
    with pytest.raises(ScenarioError):
        load_path(str(tmp_path / "missing.json"))
