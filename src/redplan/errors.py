"""Exception types shared across the planning stack, plus the input checks
that the scenario, robot and path loaders share."""

from __future__ import annotations


class PlanningError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateCurve(PlanningError):
    """The requested curve has zero length or coincident waypoints."""


class EmptyStage(PlanningError):
    """A stage of the state grid has no admissible node.

    Attributes:
        stage: index of the first empty stage.
    """

    def __init__(self, stage: int, message: str | None = None):
        self.stage = stage
        super().__init__(message or f"stage {stage} has no admissible node")


class NoFeasiblePlan(PlanningError):
    """No feasible chain connects the start stage to the terminal set.

    Attributes:
        deepest_stage: last stage index with at least one reached node.
        violation_histogram: per-order counts of rejected edges, keyed by
            constraint-order name, plus "duration" for the edges without a
            time step, which count there alone. Only candidate edges
            count (a search window keeps the others out). Joint velocity
            ("qd") is checked on every candidate with a time step; the
            orders above it only on the edges that pass the velocity bound,
            so an edge that fails the velocity bound counts under "qd"
            alone.
    """

    def __init__(self, deepest_stage: int, violation_histogram: dict[str, int] | None = None):
        self.deepest_stage = deepest_stage
        self.violation_histogram = dict(violation_histogram or {})
        detail = ", ".join(f"{k}={v}" for k, v in sorted(self.violation_histogram.items()))
        super().__init__(
            f"no feasible plan; deepest reached stage {deepest_stage}"
            + (f" (rejected edges: {detail})" if detail else "")
        )


class CorruptChain(PlanningError):
    """A plan's chain is broken: its back-pointers do not terminate at
    stage 0 (``planner.extract``), or a replayed edge, scored as the sweep
    scored it, has no time step or fails a check (``planner.replay``; the
    message names the first such edge and its failed orders)."""


class NoConvergence(PlanningError):
    """Redundancy resolution failed to converge at a waypoint.

    Attributes:
        waypoint: index of the waypoint that failed.
        residual: task residual norm at the last iterate.
    """

    def __init__(self, waypoint: int, residual: float):
        self.waypoint = waypoint
        self.residual = residual
        super().__init__(f"no convergence at waypoint {waypoint} (residual {residual:.3e})")


class SingularJacobian(PlanningError):
    """The task Jacobian condition number exceeded the configured cap."""


class BudgetExceeded(PlanningError):
    """The exact search's budget would be exceeded."""


class ContractViolation(PlanningError):
    """An internal consistency contract failed (e.g. planner beats the oracle)."""


class ScenarioError(PlanningError):
    """A scenario or robot description file failed validation."""


def reject_unknown(data: dict, allowed, block: str) -> None:
    """Raise ScenarioError naming every key of data outside allowed, so a
    misspelled optional key never falls back to its default."""
    unknown = set(data) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown {block} fields {sorted(unknown)}")


def reject_booleans(data, name: str, allowed=()) -> None:
    """Raise ScenarioError at the first boolean in data, searched through
    nested objects and arrays, except at the dotted paths in allowed.

    Python reads true as 1, so a JSON boolean where a number belongs would
    otherwise load as 1 or 1.0.
    """
    if isinstance(data, bool):
        if name not in allowed:
            raise ScenarioError(f"{name} must not be a boolean, got {str(data).lower()}")
    elif isinstance(data, dict):
        for key, value in data.items():
            reject_booleans(value, f"{name}.{key}", allowed)
    elif isinstance(data, (list, tuple)):
        for k, value in enumerate(data):
            reject_booleans(value, f"{name}[{k}]", allowed)


def as_int(value, name: str) -> int:
    """value as an int; ScenarioError unless it is an integral number (or a
    string that int() parses) and not a boolean."""
    try:
        out = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (not isinstance(value, str) and out != value):
        raise ScenarioError(f"{name} must be an integer, got {value!r}")
    return out
