"""Synthetic evaluation harness.

Generates (model, log) pairs whose exact alignment costs are cheap to
obtain, then sweeps strategies, proxy sizes and seeds, recording for every
cell the a-priori error bound, the realized weighted error of the estimate,
and the measured performance improvement over exact alignment with and
without the proxy generation time.  All error aggregates are exact
rationals; timings are integer microseconds on the monotonic clock.
"""

import itertools
import random
import string
import time
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction

from .bounds import (
    LOWER_SOURCES,
    TIMING_KEYS,
    TIMING_PROXY_GENERATION,
    approximate_log,
    weighted_total,
)
from .aligner import optimal_cost
from .errors import ExperimentError, ProxyError
from .log import EventLog, csv_text, is_int
from .model import ExplicitLanguageModel
from .proxy import SEEDED_STRATEGIES, STRATEGIES, StrategyParams

DEFAULT_SIZE_PERCENTS = (5, 10, 20, 30, 50)
DEFAULT_REPETITIONS = 4


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for one synthetic (model, log) pair.

    The log is built by sampling model traces and disturbing each with a
    number of single-activity inserts or deletes drawn from ``noise_ops``;
    zero noise therefore keeps every variant inside the model language.
    Deletes never empty a trace.
    """

    alphabet_size: int = 8
    model_trace_count: int = 6
    model_trace_length: tuple[int, int] = (4, 8)
    log_variant_count: int = 40
    noise_ops: tuple[int, int] = (0, 2)
    multiplicity: tuple[int, int] = (1, 5)
    seed: int = 0

    def __post_init__(self):
        if self.alphabet_size < 1 or self.model_trace_count < 1:
            raise ExperimentError("alphabet and model trace count must be positive")
        if self.log_variant_count < 1:
            raise ExperimentError("log variant count must be positive")
        for lo, hi in (self.model_trace_length, self.noise_ops, self.multiplicity):
            if lo > hi or lo < 0:
                raise ExperimentError(f"bad range ({lo}, {hi})")
        if self.model_trace_length[0] < 1:
            raise ExperimentError("model traces must have length at least 1")
        if self.multiplicity[0] < 1:
            raise ExperimentError("multiplicities start at 1")

    def to_dict(self) -> dict:
        """The JSON form, one entry per field; ranges become lists."""
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(self).items()
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SyntheticSpec":
        """Spec from its JSON form; every field is an integer except the
        ranges, the fields with a tuple default, which are ``[lo, hi]``
        pairs of integers."""
        if not isinstance(raw, dict):
            raise ExperimentError(
                f"synthetic spec must be a JSON object, not {type(raw).__name__}"
            )
        defaults = {f.name: f.default for f in fields(cls)}
        extra = set(raw) - set(defaults)
        if extra:
            raise ExperimentError(f"unknown synthetic spec fields {sorted(extra)}")
        kwargs = {}
        for key, value in raw.items():
            if isinstance(defaults[key], tuple):
                if not (
                    isinstance(value, (list, tuple))
                    and len(value) == 2
                    and all(is_int(x) for x in value)
                ):
                    raise ExperimentError(
                        f"spec field {key} must be a pair of integers, not {value!r}"
                    )
                value = tuple(value)
            elif not is_int(value):
                raise ExperimentError(f"spec field {key} must be an integer, not {value!r}")
            kwargs[key] = value
        return cls(**kwargs)


def _labels(n: int) -> list[str]:
    # a..z, then aa, ab, ... spreadsheet style
    labels = (
        "".join(letters)
        for size in itertools.count(1)
        for letters in itertools.product(string.ascii_lowercase, repeat=size)
    )
    return list(itertools.islice(labels, n))


def generate_synthetic(spec: SyntheticSpec):
    """Deterministic (model, log) pair for ``spec.seed``."""
    rng = random.Random(spec.seed)
    alphabet = _labels(spec.alphabet_size)

    model_traces = set()
    attempts = 0
    while len(model_traces) < spec.model_trace_count:
        attempts += 1
        if attempts > 1000 * spec.model_trace_count:
            raise ExperimentError(
                "cannot draw enough distinct model traces; widen the spec"
            )
        length = rng.randint(*spec.model_trace_length)
        model_traces.add(tuple(rng.choice(alphabet) for _ in range(length)))
    model = ExplicitLanguageModel(model_traces)
    base_traces = sorted(model_traces)

    variants: dict[tuple, int] = {}
    for _ in range(spec.log_variant_count):
        trace = list(rng.choice(base_traces))
        for _ in range(rng.randint(*spec.noise_ops)):
            if len(trace) > 1 and rng.random() < 0.5:
                del trace[rng.randrange(len(trace))]
            else:
                trace.insert(rng.randrange(len(trace) + 1), rng.choice(alphabet))
        key = tuple(trace)
        variants[key] = variants.get(key, 0) + rng.randint(*spec.multiplicity)
    return model, EventLog(variants)


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient.

    :raises ExperimentError: length mismatch, fewer than two points, or a
        constant input (the correlation is undefined then).
    """
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys):
        raise ExperimentError("correlation inputs must have equal length")
    if len(xs) < 2:
        raise ExperimentError("correlation needs at least two points")
    # constancy is tested on the values: n copies of a float such as 5/3
    # need not average to it, so their deviations from the mean need not be 0
    if len(set(xs)) > 1 and len(set(ys)) > 1:
        # imported here: only ``evaluate`` reads a correlation
        import statistics

        try:
            return statistics.correlation(xs, ys)
        except statistics.StatisticsError:  # its sums of squares underflowed
            pass
    raise ExperimentError("undefined correlation for constant input")


def performance_improvement(t_exact_us, t_with_us, t_without_us):
    """Speedup ratios of approximation over exact alignment, with and
    without counting the proxy generation time."""
    for value in (t_exact_us, t_with_us, t_without_us):
        if value <= 0:
            raise ExperimentError(f"durations must be positive, got {value}")
    return (
        Fraction(t_exact_us, t_with_us),
        Fraction(t_exact_us, t_without_us),
    )


@dataclass(frozen=True)
class ExperimentRow:
    strategy: str
    size_percent: Fraction
    seed: int
    epsilon_max: int
    realized_error: Fraction
    pi_with: Fraction
    pi_without: Fraction
    pct_structural: Fraction
    pct_proxy: Fraction
    pct_both: Fraction


def exact_costs(log: EventLog, model):
    """Exact alignment cost per variant plus the wall time in microseconds."""
    started = time.perf_counter_ns()
    costs = {trace: optimal_cost(trace, model)[0] for trace in log.variant_traces}
    elapsed = max(1, (time.perf_counter_ns() - started) // 1000)
    return costs, int(elapsed)


def realized_error(report, costs) -> Fraction:
    """Multiplicity-weighted absolute estimate error against exact costs."""
    rows = report.per_variant
    return weighted_total((abs(r.estimate - costs[r.trace]), m) for r, m in rows)


def lower_source_percentages(report):
    """Share of variants per lower bound source, exact and summing to 100."""
    counts = dict.fromkeys(LOWER_SOURCES, 0)
    for result, _ in report.per_variant:
        counts[result.lower_source] += 1
    n = len(report.per_variant)
    if n == 0:
        raise ExperimentError("no variants to attribute")
    return {key: Fraction(100 * counts[key], n) for key in counts}


def run_experiment(
    spec: SyntheticSpec,
    strategies=STRATEGIES,
    size_percents=DEFAULT_SIZE_PERCENTS,
    repetitions: int = DEFAULT_REPETITIONS,
) -> list[ExperimentRow]:
    """Sweep the grid on one synthetic pair, in deterministic grid order.

    Cell seeds derive from the master seed as ``master * 1_000_003 + rep``.
    Only a seeded strategy runs once per repetition; any other gives the
    same proxy set at every seed, so it runs once per size and its row is
    repeated under each cell seed (its timings, and so both pi columns,
    repeat that one run).  The exact-alignment time is measured once per
    pair and shared by every row.  Each cell runs ``approximate_log`` as the
    ``approximate`` command does, so its timings cover the same stages,
    including the distance matrix kmedoids clusters on.  An empty grid
    axis, a cell that ``StrategyParams`` rejects, a cell given twice (such
    as sizes 20 and 40/2) or fewer than one repetition is an
    ``ExperimentError``, raised before anything is generated.
    """
    if not strategies or not size_percents:
        raise ExperimentError("the grid needs at least one strategy and one size")
    if repetitions < 1:
        raise ExperimentError(f"repetitions must be at least 1, got {repetitions}")
    master = spec.seed * 1_000_003
    try:
        grid = [
            StrategyParams(strategy=strategy, size_percent=size, seed=master)
            for strategy in strategies
            for size in size_percents
        ]
    except ProxyError as exc:
        raise ExperimentError(str(exc)) from None
    for i, params in enumerate(grid):
        if params in grid[:i]:
            raise ExperimentError(
                f"the grid repeats {params.strategy} at size {params.size_percent}"
            )
    if any(params.strategy == "kmedoids" for params in grid):
        # kmedoids imports numpy on first use; importing it here keeps that
        # one-off cost out of the first kmedoids cell's generation time
        import numpy  # noqa: F401
    model, log = generate_synthetic(spec)
    costs, t_exact = exact_costs(log, model)

    rows = []
    for params in grid:
        row = None
        for rep in range(repetitions):
            if row is None or params.strategy in SEEDED_STRATEGIES:
                cell = replace(params, seed=master + rep)
                report = approximate_log(log, model, params=cell)
                row = _experiment_row(report, cell, costs, t_exact)
            rows.append(replace(row, seed=master + rep))
    return rows


def _experiment_row(report, params, costs, t_exact) -> ExperimentRow:
    total = sum(report.timings_us[key] for key in TIMING_KEYS)
    t_with = max(1, total)
    t_without = max(1, total - report.timings_us[TIMING_PROXY_GENERATION])
    pi_with, pi_without = performance_improvement(t_exact, t_with, t_without)
    pcts = lower_source_percentages(report)
    return ExperimentRow(
        strategy=params.strategy,
        size_percent=params.size_percent,
        seed=params.seed,
        epsilon_max=report.epsilon_max,
        realized_error=realized_error(report, costs),
        pi_with=pi_with,
        pi_without=pi_without,
        **{f"pct_{source}": pct for source, pct in pcts.items()},
    )


def pearson_by_strategy(rows):
    """Correlation of the a-priori bound with the realized error, per
    strategy; None where undefined (constant or too few points)."""
    grouped: dict[str, list] = {}
    for row in rows:
        grouped.setdefault(row.strategy, []).append(
            (row.epsilon_max, row.realized_error)
        )
    out = {}
    for strategy, points in grouped.items():
        try:
            out[strategy] = pearson(*zip(*points))
        except ExperimentError:
            out[strategy] = None
    return out


ROW_HEADER = tuple(f.name for f in fields(ExperimentRow))


def rows_to_csv(rows) -> str:
    cells = ([str(getattr(row, name)) for name in ROW_HEADER] for row in rows)
    return csv_text([ROW_HEADER, *cells])


def rows_to_long_csv(rows) -> str:
    """Long format for plotting: one (strategy, size, seed, metric) per row,
    with per-strategy correlation summary lines at the end."""
    lines = [["strategy", "size_percent", "seed", "metric", "value"]]
    for row in rows:
        for metric in ROW_HEADER[3:]:
            lines.append(
                [
                    row.strategy,
                    str(row.size_percent),
                    row.seed,
                    metric,
                    str(getattr(row, metric)),
                ]
            )
    for strategy, r in sorted(pearson_by_strategy(rows).items()):
        lines.append([strategy, "", "", "pearson", "" if r is None else repr(r)])
    return csv_text(lines)
