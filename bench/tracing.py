"""Outside-in layer tracing for the redplan benchmark.

A Tracer replaces public functions with timing wrappers at the place the
caller looks the name up (a module global such as
`redplan.planner.stage_transitions`, or a method on `PlanarArm`), for the
duration of one job only, so untraced jobs run the unmodified program.
Spans (name, start, end, parent, job) stay in memory; per-layer metrics are
derived from them when the run ends. A layer's self time is its span minus
its direct child spans.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

JOB = "cli.job"
COUNT = "trace.count"     # time spent deriving counts from a call's result


def _stage_counts(args, kwargs, out):
    """Edge tallies of one stage_transitions call, as the planner's
    infeasibility histogram counts them."""
    cells = out.feasible.shape[1]                    # feasible is (P, C)
    counts = {"constraints.edges_evaluated": int(out.feasible.size),
              "constraints.edges_feasible": int(np.count_nonzero(out.feasible)),
              "constraints.rejected.duration":
                  int(np.count_nonzero(~np.isfinite(out.dt))) * cells}
    for order, ok in out.order_ok.items():
        counts["constraints.rejected." + order] = int(np.count_nonzero(~ok))
    return counts


def _dynamics_lanes(args, kwargs, out):
    return {"robot.inverse_dynamics.lanes": int(np.prod(out.shape[:-1]))}


def _reached(args, kwargs, out):
    return {"planner.reached_nodes": sum(out.reached.counts())}


def _iterations(args, kwargs, out):
    return {"baseline.resolve.iterations": int(out.iterations.sum())}


def _admissible(args, kwargs, out):
    return {"grid.admissible_nodes": int(out.total_admissible)}


def _written(args, kwargs, out):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return {"scenario.write_bytes": len(text.encode())}


# (owner, attribute, layer, measure): owner is where the caller looks the
# name up; measure derives counts from one call's arguments and result
SPANS = (
    ("redplan.cli", "load_scenario", "scenario.load", None),
    ("redplan.scenario", "sample_path", "path.sample", None),
    ("redplan.scenario", "build_grid", "grid.build", _admissible),
    ("redplan.baseline", "grid_from_configurations", "grid.build", _admissible),
    ("redplan.cli", "plan", "planner.plan", _reached),
    ("redplan.baseline", "plan", "planner.plan", _reached),
    ("redplan.oracle", "plan", "planner.plan", _reached),
    ("redplan.planner", "stage_transitions", "constraints.stage_transitions",
     _stage_counts),
    ("redplan.planner", "evaluate_edge", "constraints.evaluate_edge", None),
    ("redplan.oracle", "evaluate_edge", "constraints.evaluate_edge", None),
    ("redplan.robot:PlanarArm", "inverse_dynamics", "robot.inverse_dynamics",
     _dynamics_lanes),
    ("redplan.cli", "resolve_redundancy", "baseline.resolve", _iterations),
    ("redplan.cli", "time_parametrize", "baseline.time_parametrize", None),
    ("redplan.cli", "exhaustive_plan", "oracle.exhaustive", None),
    ("redplan.oracle", "exhaustive_plan", "oracle.exhaustive", None),
    ("redplan.cli", "compare", "oracle.compare", None),
    ("redplan.cli", "plan_report", "scenario.report", None),
    ("redplan.cli", "baseline_report", "scenario.report", None),
    ("redplan.cli", "verify_report", "scenario.report", None),
    ("redplan.cli", "atomic_write_text", "scenario.write", _written),
)

# calls counted without a span: too many, and always inside a traced span
CALLS = (
    ("redplan.robot:PlanarArm", "inertia_matrix", "robot.inertia_matrix.calls"),
    ("redplan.robot:PlanarArm", "bias_forces", "robot.bias_forces.calls"),
    ("redplan.robot:PlanarArm", "jacobian", "robot.jacobian.calls"),
    ("redplan.baseline", "dynamic_manipulability_cost",
     "baseline.manipulability_cost.calls"),
)

# per-layer metrics: (name, unit, source); source is ("span", layer)
# for a layer's total span time per job, ("self", layer) for its self time,
# ("calls", layer) for its span count, ("count", key) for a tally
LAYER_METRICS = (
    ("cli.job_s", "s", ("span", JOB)),
    ("scenario.load_s", "s", ("span", "scenario.load")),
    ("path.sample_s", "s", ("span", "path.sample")),
    ("grid.build_s", "s", ("span", "grid.build")),
    ("grid.admissible_nodes", "count", ("count", "grid.admissible_nodes")),
    ("planner.plan_s", "s", ("span", "planner.plan")),
    ("planner.self_s", "s", ("self", "planner.plan")),
    ("planner.reached_nodes", "count", ("count", "planner.reached_nodes")),
    ("constraints.stage_transitions_s", "s",
     ("span", "constraints.stage_transitions")),
    ("constraints.stage_transitions.calls", "count",
     ("calls", "constraints.stage_transitions")),
    ("constraints.edges_evaluated", "count",
     ("count", "constraints.edges_evaluated")),
    ("constraints.edges_feasible", "count",
     ("count", "constraints.edges_feasible")),
    ("constraints.feasible_ratio", "ratio", ("ratio", None)),
    *((f"constraints.rejected.{key}", "count",
       ("count", f"constraints.rejected.{key}"))
      for key in ("qd", "qdd", "qddd", "tau", "taud", "duration")),
    ("robot.inverse_dynamics_s", "s", ("span", "robot.inverse_dynamics")),
    ("robot.inverse_dynamics.calls", "count",
     ("calls", "robot.inverse_dynamics")),
    ("robot.inverse_dynamics.lanes", "count",
     ("count", "robot.inverse_dynamics.lanes")),
    ("robot.inertia_matrix.calls", "count",
     ("count", "robot.inertia_matrix.calls")),
    ("robot.bias_forces.calls", "count", ("count", "robot.bias_forces.calls")),
    ("robot.jacobian.calls", "count", ("count", "robot.jacobian.calls")),
    ("baseline.resolve_s", "s", ("span", "baseline.resolve")),
    ("baseline.resolve.iterations", "count",
     ("count", "baseline.resolve.iterations")),
    ("baseline.manipulability_cost.calls", "count",
     ("count", "baseline.manipulability_cost.calls")),
    ("baseline.time_parametrize_s", "s",
     ("span", "baseline.time_parametrize")),
    ("constraints.evaluate_edge_s", "s", ("span", "constraints.evaluate_edge")),
    ("constraints.evaluate_edge.calls", "count",
     ("calls", "constraints.evaluate_edge")),
    ("oracle.exhaustive_s", "s", ("span", "oracle.exhaustive")),
    ("oracle.compare_s", "s", ("span", "oracle.compare")),
    ("scenario.report_s", "s", ("span", "scenario.report")),
    ("scenario.write_s", "s", ("span", "scenario.write")),
    ("scenario.write_bytes", "bytes", ("count", "scenario.write_bytes")),
)


def _resolve_owner(spec: str):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Span and count recorder for traced jobs of one benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []       # [name id, start, end, parent, job]
        self.counts: dict[int, dict] = {}  # job -> {key: total}
        self.missing: list[str] = []      # hook points the program no longer has
        self._stack: list[int] = []
        self._job = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _add(self, key: str, amount: int) -> None:
        tally = self.counts[self._job]
        tally[key] = tally.get(key, 0) + amount

    def _open(self, name_id: int) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name_id, 0.0, 0.0, parent, self._job])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[1], span[2] = start, end

    def _span_wrapper(self, fn, layer: str, measure):
        name_id = self._name_id(layer)
        count_id = self._name_id(COUNT)

        def traced(*args, **kwargs):
            index = self._open(name_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index, start, time.perf_counter())
            if measure is not None:
                index = self._open(count_id)
                start = time.perf_counter()
                for key, amount in measure(args, kwargs, out).items():
                    self._add(key, amount)
                self._close(index, start, time.perf_counter())
            return out
        return traced

    def _call_wrapper(self, fn, key: str):
        def counted(*args, **kwargs):
            self._add(key, 1)
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def job(self, job_id: int):
        """Patch every hook point for one job; yield a callable that runs
        the job inside its root span; restore the program afterwards."""
        self._job = job_id
        self.counts[job_id] = {}
        patches = []
        hooks = [(o, a, self._span_wrapper, (layer, measure))
                 for o, a, layer, measure in SPANS]
        hooks += [(o, a, self._call_wrapper, (key,)) for o, a, key in CALLS]
        try:
            for owner_spec, attr, make, extra in hooks:
                owner = _resolve_owner(owner_spec)
                original = owner.__dict__.get(attr)
                fn = getattr(owner, attr, None)
                if fn is None:
                    point = f"{owner_spec}.{attr}"
                    if point not in self.missing:
                        self.missing.append(point)
                    continue
                patches.append((owner, attr, original))
                setattr(owner, attr, make(fn, *extra))
            root = self._name_id(JOB)

            def run(fn, *args):
                index = self._open(root)
                start = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    self._close(index, start, time.perf_counter())
            yield run
        finally:
            for owner, attr, original in reversed(patches):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
            self._stack.clear()

    def layer_table(self) -> dict:
        """Per-job span totals, self times and tallies, keyed by job id."""
        if not self.spans:
            return {}
        arr = np.array(self.spans, dtype=float)
        name = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        job = arr[:, 4].astype(int)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        table = {}
        for j in np.unique(job):
            in_job = job == j
            span_s = {}
            self_s = {}
            calls = {}
            for k, layer in enumerate(self.names):
                sel = in_job & (name == k)
                if np.any(sel):
                    span_s[layer] = float(dur[sel].sum())
                    self_s[layer] = float(self_time[sel].sum())
                    calls[layer] = int(np.count_nonzero(sel))
            table[int(j)] = {"span_s": span_s, "self_s": self_s, "calls": calls,
                             "counts": dict(self.counts.get(int(j), {}))}
        return table

    def write(self, path: str, extra: dict) -> None:
        """Write every span plus the derived tables as one JSON document."""
        doc = dict(extra)
        doc["span_names"] = self.names
        doc["spans"] = {"columns": ["name", "start", "end", "parent", "job"],
                        "rows": self.spans}
        doc["missing_hooks"] = self.missing
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def per_layer_metrics(table: dict, untraced_job_s: list) -> dict:
    """Median over traced jobs of each per-layer metric, plus the tracing
    overhead against the untraced jobs of the same run."""
    def value(row, source):
        kind, key = source
        if kind == "span":
            return row["span_s"].get(key, 0.0)
        if kind == "self":
            return row["self_s"].get(key, 0.0)
        if kind == "calls":
            return row["calls"].get(key, 0)
        if kind == "count":
            return row["counts"].get(key, 0)
        evaluated = row["counts"].get("constraints.edges_evaluated", 0)
        feasible = row["counts"].get("constraints.edges_feasible", 0)
        return feasible / evaluated if evaluated else 0.0

    rows = list(table.values())
    metrics = {}
    for name, unit, source in LAYER_METRICS:
        # tallies stay whole numbers; they repeat exactly from job to job
        median = statistics.median if unit in ("s", "ratio") else statistics.median_low
        metrics[name] = {"value": median(value(r, source) for r in rows), "unit": unit}
    untraced = statistics.median(untraced_job_s)
    metrics["trace.untraced_job_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": metrics["cli.job_s"]["value"] / untraced, "unit": "ratio"}
    return metrics


def nesting_check(spans: list) -> bool:
    """True when every span lies inside its parent's interval."""
    return all(s[1] >= spans[s[3]][1] and s[2] <= spans[s[3]][2]
               for s in spans if s[3] >= 0)


def self_time_excess(table: dict) -> float:
    """Largest amount by which a job's summed self times exceed its root
    span; zero up to rounding when every span nests inside the job."""
    return max(sum(row["self_s"].values()) - row["span_s"].get(JOB, 0.0)
               for row in table.values())
