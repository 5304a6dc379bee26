"""Time-optimal trajectory planning along prescribed task-space paths for
kinematically redundant manipulators.

The unified planner searches timing, redundancy resolution, and IK branch
selection in one dynamic program over a discretized state grid; a classic
two-stage pipeline and an exact-search oracle ship alongside it for
comparison and verification.
"""

from .baseline import (JointPath, ResolutionConfig, resolve_redundancy,
                       time_parametrize)
from .constraints import (HISTORY_DEPENDENT_ORDERS, ORDERS, LimitSets,
                          SaturationReport, TrajectoryProfile,
                          initial_samples, saturation_percentage,
                          stage_transitions)
from .errors import (BudgetExceeded, ContractViolation, CorruptChain,
                     DegenerateCurve, EmptyStage, NoConvergence,
                     NoFeasiblePlan, PlanningError, ScenarioError,
                     SingularJacobian)
from .grid import GridSpec, StateGrid, build_grid, grid_from_configurations
from .oracle import GapReport, OracleBudget, compare, exhaustive_plan
from .path import CurveSpec, WorkspacePath, load_path, sample_path, tangent
from .planner import PlanResult, ReachedSets, ValueMap, Window, plan
from .robot import DynamicParams, JointLimits, PlanarArm, load_robot
from .scenario import (Scenario, bundled_scenario, bundled_scenario_names,
                       dumps_canonical, load_scenario, resample_export)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "ContractViolation", "CorruptChain", "CurveSpec",
    "DegenerateCurve", "DynamicParams", "EmptyStage",
    "GapReport", "GridSpec", "HISTORY_DEPENDENT_ORDERS",
    "JointLimits", "JointPath", "LimitSets", "NoConvergence",
    "NoFeasiblePlan", "ORDERS", "OracleBudget",
    "PlanResult", "PlanarArm", "PlanningError", "ReachedSets",
    "ResolutionConfig", "SaturationReport", "Scenario",
    "ScenarioError", "SingularJacobian", "StateGrid",
    "TrajectoryProfile", "ValueMap",
    "Window", "WorkspacePath", "build_grid", "bundled_scenario",
    "bundled_scenario_names", "compare", "dumps_canonical",
    "exhaustive_plan", "grid_from_configurations", "initial_samples", "load_path",
    "load_robot", "load_scenario", "plan",
    "resample_export", "resolve_redundancy", "sample_path",
    "saturation_percentage", "stage_transitions", "tangent",
    "time_parametrize",
]
