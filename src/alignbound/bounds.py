"""Alignment cost bounds and estimates driven by a proxy set.

For every proxy member the exact model cost is known; the triangle
inequality of the trace distance then brackets the unknown cost of any
other trace sigma between

    max over members (refCost - dist(sigma, member))   and
    min over members (refCost + dist(sigma, member)),

and the lower bracket competes against a structural floor that needs no
alignment at all: missing length up to the shortest model run plus the
count of activities the model cannot mirror.  Each candidate lower bound is
floored at zero because no alignment costs less than nothing.  A trace's
estimate is its bracket's midpoint, an exact rational.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from .aligner import optimal_alignment
# edit_distance stays importable: perfbench/tracer.py wraps it here to count LCS calls
from .distance import edit_distance  # noqa: F401
from .errors import BoundsError
from .log import EventLog, Trace
from .model import structural_floor
from .proxy import DistanceTable, ProxySet, StrategyParams, generate_proxy

LOWER_STRUCTURAL = "structural"
LOWER_PROXY = "proxy"
LOWER_BOTH = "both"
# every lower-bound source a bracket reports; the harness's percentages
# and its pct_<source> columns follow this order
LOWER_SOURCES = (LOWER_STRUCTURAL, LOWER_PROXY, LOWER_BOTH)

TIMING_PROXY_GENERATION = "proxy_generation"
TIMING_REFERENCE_ALIGNMENT = "reference_alignment"
TIMING_BOUND_COMPUTATION = "bound_computation"
TIMING_KEYS = (
    TIMING_PROXY_GENERATION,
    TIMING_REFERENCE_ALIGNMENT,
    TIMING_BOUND_COMPUTATION,
)


@dataclass(frozen=True)
class BoundsResult:
    trace: Trace
    lower: int
    upper: int
    nearest_proxy: Trace
    proxy_distance: int
    lower_source: str

    @property
    def estimate(self) -> Fraction:
        """The point estimate, the bracket's midpoint: derived, so a row
        cannot hold an estimate its bracket contradicts."""
        return Fraction(self.lower + self.upper, 2)


def weighted_total(pairs) -> Fraction:
    """Sum of value x weight over ``pairs`` of a rational value (a Fraction
    or an int) and an integer weight, exact: integer numerators over the
    values' least common denominator, one Fraction built at the end."""
    pairs = list(pairs)
    scale = math.lcm(*{value.denominator for value, _ in pairs})
    numerator = sum(w * v.numerator * (scale // v.denominator) for v, w in pairs)
    return Fraction(numerator, scale)


def check_log(log: EventLog) -> None:
    """A ``BoundsError`` when ``log`` holds no trace to approximate."""
    if log.total_traces == 0:
        raise BoundsError("cannot approximate an empty log")


def approximate_cost(
    trace,
    proxy: ProxySet,
    costs,
    model,
    distances=None,
) -> BoundsResult:
    """Certified bracket, and with it the midpoint estimate, for one trace.

    This is the one routine that brackets a trace.  ``costs`` holds each
    member's exact cost on ``model`` in member order, as
    :func:`compute_ref_costs` returns them.  ``model`` supplies the two
    facts of the structural floor (:func:`model.structural_floor`, which
    the explicit search also stops on), ``alphabet`` and
    ``min_visible_length``, which both backends expose.  The alphabet holds
    every visible label, dead transitions included, so an activity outside
    it can never be a synchronous move and always costs one log move.

    The bracket is at most twice the nearest-member distance wide, so its
    midpoint, the row's estimate, errs by at most that distance, and
    epsilon bounds the error of the whole report before any alignment runs.

    ``distances`` is the trace's row of the run's variant x member table
    (:class:`proxy.DistanceTable`), one distance per member of ``proxy``
    in its order.  When omitted, a table over this one trace computes it.
    """
    trace = tuple(trace)
    if distances is None:
        [distances] = zip(*DistanceTable((trace,)).columns(proxy.members))
    for what, row in (("reference costs", costs), ("distances", distances)):
        if len(row) != len(proxy.members):
            raise BoundsError(
                f"expected {len(proxy.members)} {what}, one per proxy member, "
                f"got {len(row)}"
            )
    proxy_distance = min(distances)
    # members are in canonical order, so the first minimum is the canonical
    # nearest member
    nearest = proxy.members[distances.index(proxy_distance)]

    upper = min(map(add, costs, distances))
    structural = structural_floor(trace, model)
    proxy_term = max(0, max(map(sub, costs, distances)))
    lower = max(structural, proxy_term)
    if structural == proxy_term:
        source = LOWER_BOTH
    elif structural == lower:
        source = LOWER_STRUCTURAL
    else:
        source = LOWER_PROXY

    return BoundsResult(
        trace=trace,
        lower=lower,
        upper=upper,
        nearest_proxy=nearest,
        proxy_distance=proxy_distance,
        lower_source=source,
    )


@dataclass
class ApproxReport:
    """Per-variant bounds for a whole log plus exact-rational aggregates.

    ``per_variant`` rows pair a :class:`BoundsResult` with the variant
    multiplicity, in canonical variant order.  Timings are wall clock in
    integer microseconds.  ``ref_costs`` holds each member's exact cost on
    the run's model, in member order.  The aggregates are read-only
    properties over the rows and costs, so a report cannot contradict them.
    """

    per_variant: list[tuple[BoundsResult, int]]
    timings_us: dict[str, int]
    proxy: ProxySet
    ref_costs: tuple[int, ...]

    @property
    def epsilon_max(self) -> int:
        """The a-priori error bound: multiplicity times nearest distance, summed."""
        return sum(mult * result.proxy_distance for result, mult in self.per_variant)

    @property
    def total_estimate(self) -> Fraction:
        return weighted_total((r.estimate, mult) for r, mult in self.per_variant)

    @property
    def total_traces(self) -> int:
        return sum(mult for _, mult in self.per_variant)

    @property
    def aligner_invocations(self) -> int:
        """One reference alignment per proxy member."""
        return len(self.ref_costs)


def _now_us() -> int:
    return time.perf_counter_ns() // 1000


def compute_ref_costs(proxy: ProxySet, model) -> tuple[int, ...]:
    """Each member's exact cost on ``model``, in member order: one
    alignment per member."""
    return tuple(optimal_alignment(member, model).cost for member in proxy.members)


def approximate_log(
    log: EventLog,
    model,
    params: StrategyParams | None = None,
    proxy: ProxySet | None = None,
) -> ApproxReport:
    """Approximate the alignment cost of every variant in ``log``.

    Either ``params`` selects a generation strategy or ``proxy`` supplies a
    ready-made set, which the run leaves as it is: the members' costs on
    ``model`` go into the report.
    The member distances come from one :class:`proxy.DistanceTable`, so
    the bracket reuses what generation computed, inside its time.  Each
    variant gets one :func:`approximate_cost` row, and the report derives
    its aggregates from those rows.  The log (:func:`check_log`) is checked
    before any proxy is generated or member aligned.
    """
    if (params is None) == (proxy is None):
        raise BoundsError("provide exactly one of params or proxy")
    check_log(log)

    table = DistanceTable(log.variant_traces)
    t0 = _now_us()
    if proxy is None:
        proxy = generate_proxy(log, params, table)
    t_generated = _now_us()

    costs = compute_ref_costs(proxy, model)
    t_aligned = _now_us()

    columns = table.columns(proxy.members)
    rows = [
        (approximate_cost(trace, proxy, costs, model, distances=distances), mult)
        for (trace, mult), distances in zip(log.variants.items(), zip(*columns))
    ]
    t_bounded = _now_us()

    return ApproxReport(
        per_variant=rows,
        timings_us={
            TIMING_PROXY_GENERATION: t_generated - t0,
            TIMING_REFERENCE_ALIGNMENT: t_aligned - t_generated,
            TIMING_BOUND_COMPUTATION: t_bounded - t_aligned,
        },
        proxy=proxy,
        ref_costs=costs,
    )
