"""Alignment cost bounds and estimates driven by a proxy set.

For every proxy member the exact model cost is known; the triangle
inequality of the trace distance then brackets the unknown cost of any
other trace sigma between

    max over members (refCost - dist(sigma, member))   and
    min over members (refCost + dist(sigma, member)),

and the lower bracket competes against a structural floor that needs no
alignment at all: missing length up to the shortest model run plus the
count of activities the model cannot mirror.  Each candidate lower bound is
floored at zero because no alignment costs less than nothing.  All
estimates are exact rationals.
"""

import time
from dataclasses import dataclass
from fractions import Fraction

from .aligner import optimal_alignment
from .distance import DistanceMatrix, MatchMasks, edit_distance
from .errors import BoundsError
from .log import EventLog, Trace, format_trace
from .proxy import ProxySet, StrategyParams, generate_proxy

LOWER_STRUCTURAL = "structural"
LOWER_PROXY = "proxy"
LOWER_BOTH = "both"

ESTIMATOR_MIDPOINT = "midpoint"
ESTIMATOR_HALF_DISTANCE = "half-distance"
ESTIMATORS = (ESTIMATOR_MIDPOINT, ESTIMATOR_HALF_DISTANCE)


@dataclass(frozen=True)
class BoundsResult:
    trace: Trace
    lower: int
    upper: int
    estimate: Fraction
    nearest_proxy: Trace
    proxy_distance: int
    lower_source: str


def _ref_cost(proxy: ProxySet, member: Trace) -> int:
    try:
        return proxy.ref_costs[member]
    except KeyError:
        raise BoundsError(
            f"missing reference cost for proxy member {format_trace(member)}"
        ) from None


def approximate_cost(
    trace,
    proxy: ProxySet,
    model,
    estimator: str = ESTIMATOR_MIDPOINT,
    upper_weight: Fraction = Fraction(1, 2),
) -> BoundsResult:
    """Certified bracket plus a point estimate for one trace.

    This is the one routine that brackets a trace.  ``model`` supplies the
    two facts of the structural floor, ``alphabet`` and
    ``min_visible_length``, which both backends expose.  The alphabet holds
    every visible label, dead transitions included, so an activity outside
    it can never be a synchronous move and always costs one log move.

    The default estimator interpolates between the bounds with
    ``upper_weight`` (0.5 is the midpoint, which halves the worst-case
    error of either bound alone).  The ``half-distance`` estimator is only
    valid when every reference cost is zero, i.e. the proxy members fit the
    model perfectly; it reads half the nearest-member distance as the
    estimate, clamped into the bounds.
    """
    trace = tuple(trace)
    if estimator not in ESTIMATORS:
        raise BoundsError(f"unknown estimator {estimator!r}; expected {ESTIMATORS}")
    weight = Fraction(upper_weight)
    if not 0 <= weight <= 1:
        raise BoundsError(f"upper weight must be within [0, 1], got {weight}")

    masks = MatchMasks(trace)
    # (member, distance, reference cost) in canonical member order, so the
    # first minimum is the canonical nearest member
    table = [
        (member, edit_distance(masks, member), _ref_cost(proxy, member))
        for member in proxy.members
    ]
    proxy_distance = min(d for _, d, _ in table)
    nearest = next(m for m, d, _ in table if d == proxy_distance)

    upper = min(cost + d for _, d, cost in table)
    outside = sum(1 for a in trace if a not in model.alphabet)
    structural = max(0, model.min_visible_length - len(trace)) + outside
    proxy_term = max(0, max(cost - d for _, d, cost in table))
    lower = max(structural, proxy_term)
    if structural == proxy_term:
        source = LOWER_BOTH
    elif structural == lower:
        source = LOWER_STRUCTURAL
    else:
        source = LOWER_PROXY

    if estimator == ESTIMATOR_MIDPOINT:
        estimate = (1 - weight) * lower + weight * upper
    else:
        for member, _, cost in table:
            if cost != 0:
                raise BoundsError(
                    "half-distance estimator needs all reference costs to be zero; "
                    f"{format_trace(member)} has cost {cost}"
                )
        estimate = Fraction(proxy_distance, 2)
        estimate = min(max(estimate, Fraction(lower)), Fraction(upper))

    return BoundsResult(
        trace=trace,
        lower=lower,
        upper=upper,
        estimate=Fraction(estimate),
        nearest_proxy=nearest,
        proxy_distance=proxy_distance,
        lower_source=source,
    )


TIMING_PROXY_GENERATION = "proxy_generation"
TIMING_REFERENCE_ALIGNMENT = "reference_alignment"
TIMING_BOUND_COMPUTATION = "bound_computation"


@dataclass
class ApproxReport:
    """Per-variant bounds for a whole log plus exact-rational aggregates.

    ``per_variant`` rows pair a :class:`BoundsResult` with the variant
    multiplicity, in canonical variant order.  Timings are wall clock in
    integer microseconds; ``aligner_invocations`` counts exactly one
    alignment per proxy member.
    """

    per_variant: list[tuple[BoundsResult, int]]
    epsilon_max: int
    total_estimate: Fraction
    total_traces: int
    aligner_invocations: int
    timings_us: dict[str, int]
    proxy: ProxySet


def _now_us() -> int:
    return time.perf_counter_ns() // 1000


def compute_ref_costs(proxy: ProxySet, model, heuristic: bool = False) -> int:
    """Align every member once against ``model``, filling ``ref_costs``.

    Always recomputes, so a proxy set carried over from another model
    cannot leak stale costs.  Returns the number of aligner invocations,
    which is exactly the member count.
    """
    invocations = 0
    for member in proxy.members:
        result = optimal_alignment(member, model, heuristic=heuristic)
        proxy.ref_costs[member] = result.cost
        invocations += 1
    return invocations


def approximate_log(
    log: EventLog,
    model,
    params: StrategyParams | None = None,
    proxy: ProxySet | None = None,
    estimator: str = ESTIMATOR_MIDPOINT,
    upper_weight: Fraction = Fraction(1, 2),
    heuristic: bool = False,
    matrix: DistanceMatrix | None = None,
) -> ApproxReport:
    """Approximate the alignment cost of every variant in ``log``.

    Either ``params`` selects a generation strategy or ``proxy`` supplies a
    ready-made set (its reference costs are recomputed here either way).
    """
    if (params is None) == (proxy is None):
        raise BoundsError("provide exactly one of params or proxy")
    if log.total_traces == 0:
        raise BoundsError("cannot approximate an empty log")

    t0 = _now_us()
    if proxy is None:
        proxy = generate_proxy(log, params, matrix=matrix)
    t_generated = _now_us()

    invocations = compute_ref_costs(proxy, model, heuristic=heuristic)
    t_aligned = _now_us()

    rows = []
    epsilon = 0
    total_estimate = Fraction(0)
    for trace in log.variant_traces:
        result = approximate_cost(
            trace, proxy, model, estimator=estimator, upper_weight=upper_weight
        )
        mult = log.variants[trace]
        rows.append((result, mult))
        epsilon += mult * result.proxy_distance
        total_estimate += mult * result.estimate
    t_bounded = _now_us()

    return ApproxReport(
        per_variant=rows,
        epsilon_max=epsilon,
        total_estimate=total_estimate,
        total_traces=log.total_traces,
        aligner_invocations=invocations,
        timings_us={
            TIMING_PROXY_GENERATION: t_generated - t0,
            TIMING_REFERENCE_ALIGNMENT: t_aligned - t_generated,
            TIMING_BOUND_COMPUTATION: t_bounded - t_aligned,
        },
        proxy=proxy,
    )
