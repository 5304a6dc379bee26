"""Public API guard: the package exports only names it defines, and its
surface is pinned, so a retired name cannot come back unnoticed."""

import redplan

PUBLIC = [
    "BudgetExceeded", "ContractViolation", "CorruptChain", "CurveSpec",
    "DegenerateCurve", "DynamicParams", "EmptyStage", "GapReport", "GridSpec",
    "HISTORY_DEPENDENT_ORDERS", "JointLimits", "JointPath", "LimitSets",
    "NoConvergence", "NoFeasiblePlan", "ORDERS", "OracleBudget", "PlanResult",
    "PlanarArm", "PlanningError", "ReachedSets", "ResolutionConfig",
    "SaturationReport", "Scenario", "ScenarioError", "SingularJacobian",
    "StateGrid", "TrajectoryProfile", "ValueMap", "Window",
    "WorkspacePath", "build_grid", "bundled_scenario", "bundled_scenario_names",
    "compare", "dumps_canonical", "exhaustive_plan", "grid_from_configurations",
    "initial_samples", "load_path", "load_robot", "load_scenario", "plan",
    "resample_export", "resolve_redundancy", "sample_path", "saturation_percentage",
    "stage_transitions", "tangent", "time_parametrize",
]


def test_every_exported_name_resolves():
    missing = [name for name in redplan.__all__ if not hasattr(redplan, name)]
    assert missing == []
    assert len(set(redplan.__all__)) == len(redplan.__all__)


def test_public_surface_is_pinned():
    # a new export, or a retired one put back, needs a reviewed edit here
    assert sorted(redplan.__all__) == PUBLIC
