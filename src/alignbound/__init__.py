"""Proxy-set approximation of alignment costs with a-priori error bounds.

The package aligns event-log traces against a process model without paying
for one optimal alignment per variant: a small proxy set of reference
traces is aligned exactly, and the trace distance to the nearest reference
brackets every other cost.  The worst-case absolute error of the whole
approximation is known before any alignment is computed.
"""

from .aligner import (
    Alignment,
    AlignmentResult,
    Move,
    MoveKind,
    alignment_cost,
    optimal_alignment,
    optimal_cost,
)
from .bounds import (
    ApproxReport,
    BoundsResult,
    approximate_cost,
    approximate_log,
)
from .distance import distance_matrix, edit_distance
from .errors import (
    AlignboundError,
    BoundsError,
    ExperimentError,
    LogParseError,
    ModelError,
    OutputError,
    ProxyError,
    ReportError,
    StateBoundError,
)
from .harness import (
    ExperimentRow,
    SyntheticSpec,
    generate_synthetic,
    pearson,
    performance_improvement,
    run_experiment,
)
from .log import EventLog, Trace, parse_csv, parse_xes
from .model import (
    ExplicitLanguageModel,
    PetriNetModel,
    parse_explicit_language,
    parse_pnml,
)
from .proxy import (
    DistanceTable,
    ProxySet,
    StrategyParams,
    brute_force_k_primal,
    cluster_kcenter,
    cluster_kmedoids,
    epsilon_max_error,
    generate_proxy,
    sample_frequency,
    sample_random,
)
from .report import read_report_json, write_report

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "AlignmentResult",
    "AlignboundError",
    "ApproxReport",
    "BoundsError",
    "BoundsResult",
    "DistanceTable",
    "EventLog",
    "ExperimentError",
    "ExperimentRow",
    "ExplicitLanguageModel",
    "LogParseError",
    "ModelError",
    "Move",
    "MoveKind",
    "OutputError",
    "PetriNetModel",
    "ProxyError",
    "ProxySet",
    "ReportError",
    "StateBoundError",
    "StrategyParams",
    "SyntheticSpec",
    "Trace",
    "alignment_cost",
    "approximate_cost",
    "approximate_log",
    "brute_force_k_primal",
    "cluster_kcenter",
    "cluster_kmedoids",
    "distance_matrix",
    "edit_distance",
    "epsilon_max_error",
    "generate_proxy",
    "generate_synthetic",
    "optimal_alignment",
    "optimal_cost",
    "parse_csv",
    "parse_explicit_language",
    "parse_pnml",
    "parse_xes",
    "pearson",
    "performance_improvement",
    "read_report_json",
    "run_experiment",
    "sample_frequency",
    "sample_random",
    "write_report",
]
