"""Time-optimal trajectory planning along prescribed task-space paths for
kinematically redundant manipulators.

The unified planner searches timing, redundancy resolution, and IK branch
selection in one dynamic program over a discretized state grid; a classic
two-stage pipeline and an exhaustive-search oracle ship alongside it for
comparison and verification.
"""

from .baseline import (JointPath, ResolutionConfig, baseline_plan,
                       dynamic_manipulability_cost, pseudo_inverse,
                       resolve_redundancy, time_parametrize)
from .constraints import (HISTORY_DEPENDENT_ORDERS, ORDERS, EdgeEvaluation,
                          LimitSets, NodeState, SaturationReport,
                          TrajectoryProfile, evaluate_edge,
                          initial_state, saturation_percentage,
                          stage_transitions)
from .errors import (BudgetExceeded, ContractViolation, CorruptChain,
                     DegenerateCurve, EmptyStage, InfeasibleEdge,
                     NoConvergence, NoFeasiblePlan, PlanningError,
                     ScenarioError, SingularJacobian, Unreachable)
from .grid import (GridSpec, StateGrid, build_grid, exclude,
                   grid_from_configurations)
from .oracle import GapReport, OracleBudget, compare, exhaustive_plan
from .path import (CurveSpec, WorkspacePath, load_path, sample_path, tangent,
                   tangents, trivial_path)
from .planner import PlanResult, ReachedSets, ValueMap, Window, plan, pst
from .robot import (DynamicParams, JointLimits, KinematicChain, PlanarArm,
                    RobotModel, load_robot)
from .scenario import (Scenario, bundled_scenario, bundled_scenario_names,
                       dumps_canonical, load_scenario, resample_export)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceeded", "ContractViolation", "CorruptChain", "CurveSpec",
    "DegenerateCurve", "DynamicParams", "EdgeEvaluation", "EmptyStage",
    "GapReport", "GridSpec", "HISTORY_DEPENDENT_ORDERS", "InfeasibleEdge",
    "JointLimits", "JointPath", "KinematicChain", "LimitSets", "NoConvergence",
    "NoFeasiblePlan", "NodeState", "ORDERS", "OracleBudget",
    "PlanResult", "PlanarArm", "PlanningError", "ReachedSets",
    "ResolutionConfig", "RobotModel", "SaturationReport", "Scenario",
    "ScenarioError", "SingularJacobian", "StateGrid",
    "TrajectoryProfile", "Unreachable", "ValueMap",
    "Window", "WorkspacePath", "baseline_plan", "build_grid", "bundled_scenario",
    "bundled_scenario_names", "compare", "dumps_canonical",
    "dynamic_manipulability_cost", "evaluate_edge", "exclude",
    "exhaustive_plan", "grid_from_configurations", "initial_state", "load_path",
    "load_robot", "load_scenario", "plan", "pseudo_inverse", "pst",
    "resample_export", "resolve_redundancy", "sample_path",
    "saturation_percentage", "stage_transitions", "tangent", "tangents",
    "time_parametrize", "trivial_path",
]
