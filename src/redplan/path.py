"""Prescribed task-space paths: uniform arc-length sampling and tangents.

A path is a discrete set of task-space waypoints at equal arc-length spacing,
stamped with lambda(i) = i * dlam. Curves are described by a small spec
(straight line, ellipse, or an explicit waypoint list) and rectified
numerically before sampling.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCurve, ScenarioError, reject_booleans, reject_unknown

Array = np.ndarray

# presample density used to rectify parametric curves
_RECTIFY_SAMPLES = 16384

# the keys of CurveSpec.to_dict() besides "kind", per curve kind; a path
# block may carry no other (an ellipse may leave out its rotation)
_CURVE_KEYS = {"line": ("start", "end"),
               "ellipse": ("center", "semi_axes", "rotation"),
               "waypoints": ("points",)}


@dataclass(frozen=True)
class CurveSpec:
    """Geometric description of a task-space curve.

    kind is one of:
        "line": segment from `start` to `end`;
        "ellipse": closed loop, `center`, `semi_axes` (a, b), optional
            `rotation` of the axes in radians;
        "waypoints": explicit ordered `points`, polyline geometry.
    """

    kind: str
    start: tuple[float, ...] | None = None
    end: tuple[float, ...] | None = None
    center: tuple[float, ...] | None = None
    semi_axes: tuple[float, float] | None = None
    rotation: float = 0.0
    points: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.kind == "line":
            if self.start is None or self.end is None:
                raise ScenarioError("line spec needs start and end")
            if len(self.start) != len(self.end):
                raise ScenarioError("line endpoints must share a dimension")
            numbers = (*self.start, *self.end)
        elif self.kind == "ellipse":
            if self.center is None or self.semi_axes is None:
                raise ScenarioError("ellipse spec needs center and semi_axes")
            if len(self.center) != 2 or len(self.semi_axes) != 2:
                raise ScenarioError("ellipse specs are planar (2-D)")
            numbers = (*self.center, *self.semi_axes, self.rotation)
        elif self.kind == "waypoints":
            if self.points is None or len(self.points) < 1:
                raise ScenarioError("waypoint spec needs at least one point")
            if len({len(point) for point in self.points}) != 1:
                raise ScenarioError("waypoints must share a dimension")
            numbers = tuple(x for point in self.points for x in point)
        else:
            raise ScenarioError(f"unknown curve kind {self.kind!r}")
        # written as "all ok" so that NaN fails every comparison
        if not all(-np.inf < x < np.inf for x in numbers):
            raise ScenarioError(f"{self.kind} spec numbers must be finite")
        if self.kind == "ellipse" and not all(a > 0.0 for a in self.semi_axes):
            raise ScenarioError("ellipse semi-axes must be positive")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "line":
            out["start"] = list(self.start)
            out["end"] = list(self.end)
        elif self.kind == "ellipse":
            out["center"] = list(self.center)
            out["semi_axes"] = list(self.semi_axes)
            out["rotation"] = self.rotation
        else:
            out["points"] = [list(p) for p in self.points]
        return out


@dataclass(frozen=True)
class WorkspacePath:
    """Waypoints x(i) at uniform arc length with stamps lambda(i) = i * dlam.

    Attributes:
        waypoints: array (N_i + 1, m).
        dlam: arc-length step L / N_i.
        lam: stamps, lam[i] = i * dlam; the stored arc length is lam[-1].
    """

    waypoints: Array
    dlam: float
    lam: Array

    @property
    def n_stages(self) -> int:
        return self.waypoints.shape[0] - 1

    @property
    def m(self) -> int:
        return self.waypoints.shape[1]


def _path_from_waypoints(points: Array, L: float) -> WorkspacePath:
    n_stages = points.shape[0] - 1
    dlam = L / n_stages
    return WorkspacePath(waypoints=points, dlam=dlam, lam=np.arange(n_stages + 1) * dlam)


def _ellipse_points(spec: CurveSpec, t: Array) -> Array:
    a, b = spec.semi_axes
    c, s = np.cos(spec.rotation), np.sin(spec.rotation)
    px = a * np.cos(t)
    py = b * np.sin(t)
    return np.stack([
        spec.center[0] + c * px - s * py,
        spec.center[1] + s * px + c * py,
    ], axis=-1)


def _resample_polyline(points: Array, n_stages: int) -> tuple[Array, float]:
    """Uniform arc-length resampling of a polyline; returns (points, length)."""
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    L = float(s[-1])
    if L <= 0.0:
        raise DegenerateCurve("curve has zero length")
    targets = np.linspace(0.0, L, n_stages + 1)
    out = np.empty((n_stages + 1, points.shape[1]))
    for d in range(points.shape[1]):
        out[:, d] = np.interp(targets, s, points[:, d])
    out[0] = points[0]
    out[-1] = points[-1]
    return out, L


def sample_path(spec: CurveSpec, n_stages: int) -> WorkspacePath:
    """Sample a curve at N_i + 1 waypoints of uniform arc length.

    Raises:
        DegenerateCurve: the curve has zero length.
        ScenarioError: n_stages < 1.
    """
    if n_stages < 1:
        raise ScenarioError("n_stages must be >= 1")
    if spec.kind == "line":
        start = np.asarray(spec.start, dtype=float)
        end = np.asarray(spec.end, dtype=float)
        L = float(np.linalg.norm(end - start))
        if L <= 0.0:
            raise DegenerateCurve("line start and end coincide")
        u = np.linspace(0.0, 1.0, n_stages + 1)[:, None]
        return _path_from_waypoints(start + u * (end - start), L)
    if spec.kind == "ellipse":
        t = np.linspace(0.0, 2.0 * np.pi, _RECTIFY_SAMPLES + 1)
        dense = _ellipse_points(spec, t)
        seg = np.linalg.norm(np.diff(dense, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        L = float(s[-1])
        if L <= 0.0:
            raise DegenerateCurve("ellipse has zero circumference")
        t_at = np.interp(np.linspace(0.0, L, n_stages + 1), s, t)
        pts = _ellipse_points(spec, t_at)
        pts[-1] = pts[0]  # closed loop
        return _path_from_waypoints(pts, L)
    # explicit waypoint list
    points = np.asarray(spec.points, dtype=float)
    if points.shape[0] == 1:
        raise DegenerateCurve("single waypoint has zero length")
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    L = float(seg.sum())
    if L <= 0.0:
        raise DegenerateCurve("waypoint list has zero length")
    if points.shape[0] == n_stages + 1 and seg.size > 0:
        mean = L / n_stages
        if np.all(np.abs(seg - mean) <= 0.01 * mean):
            return _path_from_waypoints(points, L)
    pts, L = _resample_polyline(points, n_stages)
    return _path_from_waypoints(pts, L)


def tangent(path: WorkspacePath, i: int) -> Array:
    """Unit tangent at waypoint i: central difference interior, one-sided ends.

    Raises:
        DegenerateCurve: the waypoints spanning index i coincide.
    """
    pts = path.waypoints
    n = path.n_stages
    if not (0 <= i <= n):
        raise ScenarioError(f"waypoint index {i} out of range")
    if i == 0:
        d = pts[1] - pts[0]
    elif i == n:
        d = pts[n] - pts[n - 1]
    else:
        d = pts[i + 1] - pts[i - 1]
    norm = float(np.linalg.norm(d))
    if norm <= 0.0:
        raise DegenerateCurve(f"coincident waypoints around index {i}")
    return d / norm


def load_path(source: str | dict) -> CurveSpec:
    """Load a curve spec from JSON (spec fields) or CSV (waypoint rows)."""
    if isinstance(source, dict):
        return _spec_from_dict(source)
    try:
        if source.endswith(".csv"):
            with open(source, newline="") as fh:
                rows = [row for row in csv.reader(fh)
                        if row and not row[0].lstrip().startswith("#")]
            pts = tuple(tuple(float(c) for c in row) for row in rows)
            return CurveSpec(kind="waypoints", points=pts)
        with open(source) as fh:
            return _spec_from_dict(json.load(fh))
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"cannot read path file {source!r}: {exc}") from exc


def _spec_from_dict(data: dict) -> CurveSpec:
    if "kind" not in data:
        raise ScenarioError("path spec needs a 'kind' field")
    kw = {"kind": data["kind"]}
    if kw["kind"] in _CURVE_KEYS:
        reject_unknown(data, ("kind",) + _CURVE_KEYS[kw["kind"]], "path")
    reject_booleans(data, "path")
    for name in ("start", "end", "center", "semi_axes"):
        if data.get(name) is not None:
            kw[name] = tuple(float(v) for v in data[name])
    if data.get("rotation") is not None:
        kw["rotation"] = float(data["rotation"])
    if data.get("points") is not None:
        kw["points"] = tuple(tuple(float(c) for c in p) for p in data["points"])
    return CurveSpec(**kw)
