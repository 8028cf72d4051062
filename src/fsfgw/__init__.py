"""Feature-selected fused Gromov-Wasserstein distances.

Compares attributed structured objects (graphs with node features) by a
transport objective that blends feature costs with structure distortion,
while learning per-feature suppression weights that expose which features
drive the distance.  Includes an exact transportation LP, a conditional
gradient solver, closed-form suppression updates, synthetic recovery and
redistricting pipelines, and a CLI.
"""

__version__ = "0.1.0"

from .core import (
    FEATURE_NORMS,
    MODES,
    AsymmetricCost,
    DimensionMismatch,
    FsFgwConfig,
    FsfgwError,
    InvalidConfig,
    InvalidMeasure,
    InvalidPartition,
    ShapeMismatch,
    SolveResult,
    StructuredObject,
    SuppressionWeights,
    TraceEntry,
    TransportPlan,
    feature_cost_stack,
    feature_scores,
    validate_pair,
)
from .fgw import (
    DIRECT_CONTRACTION_CAP,
    FgwProblem,
    FgwSolve,
    InstanceTooLarge,
    gw_gradient,
    gw_value,
    solve_fgw,
)
from .pipelines import (
    DisconnectedAfterRetries,
    DisconnectedDistrict,
    DistrictCountMismatch,
    EmptySet,
    InvalidMatrix,
    InvalidObjectFile,
    Merge,
    PairRecord,
    PairwiseSolveError,
    PlanComparison,
    PrecinctGraph,
    PrecinctUniverseMismatch,
    RedistrictingPlan,
    RocPoint,
    RocSweep,
    SyntheticSpec,
    compare_plans,
    complete_linkage_cluster,
    district_object,
    generate_synthetic_pair,
    geodesic_structure,
    load_plan_csv,
    load_precinct_graph,
    load_structured_object,
    match_districts,
    pairwise_distance_matrix,
    roc_sweep,
    separation_metric,
    structured_object_to_dict,
)
from .suppression import InvalidFraction, calibrate_lambda, solve_fsfgw
from .transport import (
    Infeasible,
    InvalidBasis,
    LpSolution,
    NumericalFailure,
    line_search_quadratic,
    random_coupling,
    solve_emd,
)

__all__ = [name for name in dir() if not name.startswith("_")]
