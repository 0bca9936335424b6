"""Solver toolkit for fuel-constrained multi-vehicle routing under uncertainty."""

from .model import (
    Instance,
    Scenario,
    ScenarioSet,
    RouteSet,
    RecoursePlan,
    RouteStructureError,
    make_instance,
    validate_instance,
    check_route_structure,
    route_cost,
    nominal_feasibility,
)
from .instgen import GenConfig, QuadrantMap, generate_instance, assign_quadrants, sample_scenarios
from .recourse import BestDepotTable, evaluate_recourse, recourse_oracle
from .detsolve import (
    DetProblem,
    DetSolution,
    optimal_depot_insertion,
    solve_deterministic_exact,
    solve_deterministic_greedy,
)
from .heuristics import (
    ConstructionWeights,
    ConstructionResult,
    TabuParams,
    TabuResult,
    TwoStageEvaluator,
    construction_weights,
    construct_detailed,
    tabu_improve,
)
from .stochsolve import (
    SaaConfig,
    SaaSolution,
    SaaReport,
    BoundEstimate,
    LowerBoundResult,
    UpperBoundResult,
    gamma_seed,
    lambda_seed,
    solve_saa_problem,
    saa_lower_bound,
    saa_upper_bound,
    solve_evp,
)

__version__ = "0.1.0"
