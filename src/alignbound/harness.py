"""Synthetic evaluation harness.

Generates (model, log) pairs whose exact alignment costs are cheap to
obtain, then sweeps strategies, proxy sizes and seeds, recording for every
cell the a-priori error bound, the realized weighted error of the estimate,
and the measured performance improvement over exact alignment with and
without the proxy generation time.  All error aggregates are exact
rationals; timings are integer microseconds on the monotonic clock.
"""

import csv
import io
import math
import random
import string
import time
from dataclasses import dataclass, replace
from fractions import Fraction

from .bounds import (
    ESTIMATOR_MIDPOINT,
    LOWER_BOTH,
    LOWER_PROXY,
    LOWER_STRUCTURAL,
    TIMING_BOUND_COMPUTATION,
    TIMING_PROXY_GENERATION,
    TIMING_REFERENCE_ALIGNMENT,
    approximate_log,
)
from .aligner import optimal_alignment
from .distance import distance_matrix
from .errors import ExperimentError
from .log import EventLog
from .model import ExplicitLanguageModel
from .proxy import SEEDED_STRATEGIES, STRATEGIES, StrategyParams


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
        return {
            "alphabet_size": self.alphabet_size,
            "model_trace_count": self.model_trace_count,
            "model_trace_length": list(self.model_trace_length),
            "log_variant_count": self.log_variant_count,
            "noise_ops": list(self.noise_ops),
            "multiplicity": list(self.multiplicity),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "SyntheticSpec":
        """Spec from its JSON form; every field is an integer except the
        ranges, which are ``[lo, hi]`` pairs of integers."""
        if not isinstance(raw, dict):
            raise ExperimentError(
                f"synthetic spec must be a JSON object, not {type(raw).__name__}"
            )
        known = {f for f in cls.__dataclass_fields__}
        extra = set(raw) - known
        if extra:
            raise ExperimentError(f"unknown synthetic spec fields {sorted(extra)}")
        kwargs = {}
        for key, value in raw.items():
            if key in ("model_trace_length", "noise_ops", "multiplicity"):
                if not (
                    isinstance(value, (list, tuple))
                    and len(value) == 2
                    and all(_is_int(x) for x in value)
                ):
                    raise ExperimentError(
                        f"spec field {key} must be a pair of integers, not {value!r}"
                    )
                value = tuple(value)
            elif not _is_int(value):
                raise ExperimentError(f"spec field {key} must be an integer, not {value!r}")
            kwargs[key] = value
        return cls(**kwargs)


def _is_int(value) -> bool:
    # JSON true/false load as bools, which Python counts as ints
    return isinstance(value, int) and not isinstance(value, bool)


def _labels(n: int) -> list[str]:
    # a..z, then aa, ab, ... spreadsheet style
    letters = string.ascii_lowercase
    out = []
    size = 1
    while len(out) < n:
        for combo in range(len(letters) ** size):
            label = ""
            x = combo
            for _ in range(size):
                label = letters[x % 26] + label
                x //= 26
            out.append(label)
            if len(out) == n:
                break
        size += 1
    return out


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
    mx = math.fsum(xs) / len(xs)
    my = math.fsum(ys) / len(ys)
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        raise ExperimentError("undefined correlation for constant input")
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


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

    @property
    def pearson_inputs(self):
        return (self.epsilon_max, self.realized_error)


def exact_costs(log: EventLog, model, heuristic: bool = False):
    """Exact alignment cost per variant plus the wall time in microseconds."""
    started = time.perf_counter_ns()
    costs = {
        trace: optimal_alignment(trace, model, heuristic=heuristic).cost
        for trace in log.variant_traces
    }
    elapsed = max(1, (time.perf_counter_ns() - started) // 1000)
    return costs, int(elapsed)


def realized_error(report, costs) -> Fraction:
    """Multiplicity-weighted absolute estimate error against exact costs."""
    total = Fraction(0)
    for result, mult in report.per_variant:
        total += mult * abs(result.estimate - costs[result.trace])
    return total


def lower_source_percentages(report):
    """Share of variants per lower bound source, exact and summing to 100."""
    counts = {LOWER_STRUCTURAL: 0, LOWER_PROXY: 0, LOWER_BOTH: 0}
    for result, _ in report.per_variant:
        counts[result.lower_source] += 1
    n = len(report.per_variant)
    if n == 0:
        raise ExperimentError("no variants to attribute")
    return {key: Fraction(100 * counts[key], n) for key in counts}


def run_experiment(
    spec: SyntheticSpec,
    strategies=STRATEGIES,
    size_percents=(5, 10, 20, 30, 50),
    repetitions: int = 4,
    estimator: str = ESTIMATOR_MIDPOINT,
) -> list[ExperimentRow]:
    """Sweep the grid on one synthetic pair, in deterministic grid order.

    Cell seeds derive from the master seed as ``master * 1_000_003 + rep``.
    Only a seeded strategy runs once per repetition; any other gives the
    same proxy set at every seed, so it runs once per size and its row is
    repeated under each cell seed (its timings, and so both pi columns,
    repeat that one run).  The exact-alignment time is measured once per
    pair and shared by every row, as is the variant distance matrix handed
    to the clustering strategies.
    """
    model, log = generate_synthetic(spec)
    costs, t_exact = exact_costs(log, model)
    matrix = distance_matrix(log.variant_traces)

    rows = []
    for strategy in strategies:
        for size in size_percents:
            row = None
            for rep in range(repetitions):
                cell_seed = spec.seed * 1_000_003 + rep
                if row is None or strategy in SEEDED_STRATEGIES:
                    params = StrategyParams(
                        strategy=strategy, size_percent=size, seed=cell_seed
                    )
                    report = approximate_log(
                        log, model, params=params, estimator=estimator, matrix=matrix
                    )
                    row = _experiment_row(report, params, costs, t_exact)
                rows.append(replace(row, seed=cell_seed))
    return rows


def _experiment_row(report, params, costs, t_exact) -> ExperimentRow:
    t_with = max(
        1,
        report.timings_us[TIMING_PROXY_GENERATION]
        + report.timings_us[TIMING_REFERENCE_ALIGNMENT]
        + report.timings_us[TIMING_BOUND_COMPUTATION],
    )
    t_without = max(
        1,
        report.timings_us[TIMING_REFERENCE_ALIGNMENT]
        + report.timings_us[TIMING_BOUND_COMPUTATION],
    )
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
        pct_structural=pcts[LOWER_STRUCTURAL],
        pct_proxy=pcts[LOWER_PROXY],
        pct_both=pcts[LOWER_BOTH],
    )


def pearson_by_strategy(rows):
    """Correlation of the a-priori bound with the realized error, per
    strategy; None where undefined (constant or too few points)."""
    grouped: dict[str, list] = {}
    for row in rows:
        grouped.setdefault(row.strategy, []).append(row.pearson_inputs)
    out = {}
    for strategy, points in grouped.items():
        try:
            out[strategy] = pearson(
                [p[0] for p in points], [p[1] for p in points]
            )
        except ExperimentError:
            out[strategy] = None
    return out


ROW_HEADER = (
    "strategy",
    "size_percent",
    "seed",
    "epsilon_max",
    "realized_error",
    "pi_with",
    "pi_without",
    "pct_structural",
    "pct_proxy",
    "pct_both",
)


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(ROW_HEADER)
    for row in rows:
        writer.writerow(
            [
                row.strategy,
                str(row.size_percent),
                row.seed,
                row.epsilon_max,
                str(row.realized_error),
                str(row.pi_with),
                str(row.pi_without),
                str(row.pct_structural),
                str(row.pct_proxy),
                str(row.pct_both),
            ]
        )
    return buf.getvalue()


def rows_to_long_csv(rows) -> str:
    """Long format for plotting: one (strategy, size, seed, metric) per row,
    with per-strategy correlation summary lines at the end."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["strategy", "size_percent", "seed", "metric", "value"])
    for row in rows:
        for metric in ROW_HEADER[3:]:
            writer.writerow(
                [
                    row.strategy,
                    str(row.size_percent),
                    row.seed,
                    metric,
                    str(getattr(row, metric)),
                ]
            )
    for strategy, r in sorted(pearson_by_strategy(rows).items()):
        writer.writerow(
            [strategy, "", "", "pearson", "" if r is None else repr(r)]
        )
    return buf.getvalue()
