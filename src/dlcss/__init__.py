"""Lightweight route similarity matching for shared rides.

The package scores how well a transport request fits an existing vehicle
route using a distance-based variant of the longest common subsequence over
GPS polylines, then verifies verdicts against an exact shortest-path oracle
on a synthetic road grid.
"""

from .core import (
    NO_OVERLAP,
    DlcssResult,
    DlcssSegment,
    compute_dlcss,
    metric_sweep,
    similarity_metric,
)
from .errors import DomainError, GenerationError, NoRouteError, ParseError
from .evaluation import (
    EvalReport,
    PairOutcome,
    calibrate_threshold,
    cross_validated_eval,
    emit_report,
    read_report,
    run_eval,
)
from .geo import (
    EARTH_RADIUS_M,
    Coordinate,
    Route,
    arc_length_between,
    distance,
    route_length,
)
from .matching import (
    DEFAULT_THRESHOLD_M,
    MatchDecision,
    filter_pool,
    rank_candidates,
    score_pair,
)
from .meeting_points import (
    MeetingMatch,
    MeetingPoint,
    evaluate_meeting_points,
    load_meeting_points,
)
from .pools import RoutePool, generate_pool, read_geojson, write_geojson
from .routing import (
    DETOUR_LIMIT_FRACTION,
    GridGraph,
    OracleAssessment,
    assess_shared_ride,
    shortest_route,
)

__version__ = "0.1.0"

__all__ = [
    "EARTH_RADIUS_M",
    "NO_OVERLAP",
    "DEFAULT_THRESHOLD_M",
    "DETOUR_LIMIT_FRACTION",
    "Coordinate",
    "Route",
    "DlcssSegment",
    "DlcssResult",
    "MatchDecision",
    "MeetingPoint",
    "MeetingMatch",
    "GridGraph",
    "OracleAssessment",
    "RoutePool",
    "PairOutcome",
    "EvalReport",
    "DomainError",
    "NoRouteError",
    "GenerationError",
    "ParseError",
    "distance",
    "route_length",
    "arc_length_between",
    "similarity_metric",
    "compute_dlcss",
    "metric_sweep",
    "score_pair",
    "filter_pool",
    "rank_candidates",
    "evaluate_meeting_points",
    "load_meeting_points",
    "shortest_route",
    "assess_shared_ride",
    "generate_pool",
    "write_geojson",
    "read_geojson",
    "calibrate_threshold",
    "run_eval",
    "cross_validated_eval",
    "emit_report",
    "read_report",
    "__version__",
]
