"""Proxy-set approximation of alignment costs with a-priori error bounds.

The package aligns event-log traces against a process model without paying
for one optimal alignment per variant: a small proxy set of reference
traces is aligned exactly, and the trace distance to the nearest reference
brackets every other cost.  The worst-case absolute error of the whole
approximation is known before any alignment is computed.

Importing the package loads none of its modules.  Each name in ``__all__``
is imported from the module that defines it when it is first read (PEP 562),
so ``from alignbound import parse_csv`` loads ``alignbound.log`` and the
modules it imports, and nothing else.  The modules named in ``_EXPORTS``
resolve as attributes too, so ``alignbound.harness`` works after a bare
``import alignbound``.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name once, under the module that defines it
_EXPORTS = {
    "aligner": (
        "Alignment",
        "AlignmentResult",
        "Move",
        "MoveKind",
        "alignment_cost",
        "optimal_alignment",
        "optimal_cost",
    ),
    "bounds": (
        "ApproxReport",
        "BoundsResult",
        "approximate_cost",
        "approximate_log",
    ),
    "distance": (
        "distance_matrix",
        "edit_distance",
    ),
    "errors": (
        "AlignboundError",
        "BoundsError",
        "ExperimentError",
        "LogParseError",
        "ModelError",
        "OutputError",
        "ProxyError",
        "ReportError",
        "StateBoundError",
    ),
    "harness": (
        "ExperimentRow",
        "SyntheticSpec",
        "generate_synthetic",
        "pearson",
        "performance_improvement",
        "run_experiment",
    ),
    "log": (
        "EventLog",
        "Trace",
        "parse_csv",
        "parse_xes",
    ),
    "model": (
        "ExplicitLanguageModel",
        "PetriNetModel",
        "parse_explicit_language",
        "parse_pnml",
    ),
    "proxy": (
        "DistanceTable",
        "ProxySet",
        "StrategyParams",
        "brute_force_k_primal",
        "cluster_kcenter",
        "cluster_kmedoids",
        "epsilon_max_error",
        "generate_proxy",
        "sample_frequency",
        "sample_random",
    ),
    "report": (
        "read_report_json",
        "write_report",
    ),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
