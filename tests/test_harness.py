"""Tests for the synthetic evaluation harness."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

from alignbound.bounds import approximate_log
from alignbound.errors import ExperimentError
from alignbound.harness import (
    ExperimentRow,
    ROW_HEADER,
    SyntheticSpec,
    exact_costs,
    generate_synthetic,
    lower_source_percentages,
    pearson,
    pearson_by_strategy,
    performance_improvement,
    realized_error,
    rows_to_csv,
    rows_to_long_csv,
    run_experiment,
)
from alignbound.proxy import ProxySet


def test_generate_synthetic_deterministic():
    spec = SyntheticSpec(seed=7)
    model_a, log_a = generate_synthetic(spec)
    model_b, log_b = generate_synthetic(spec)
    assert model_a.traces == model_b.traces
    assert log_a.variants == log_b.variants


def test_different_seeds_differ():
    _, log_a = generate_synthetic(SyntheticSpec(seed=1))
    _, log_b = generate_synthetic(SyntheticSpec(seed=2))
    assert log_a.variants != log_b.variants


def test_noise_free_log_stays_inside_language():
    spec = SyntheticSpec(noise_ops=(0, 0), log_variant_count=30, seed=11)
    model, log = generate_synthetic(spec)
    for trace in log.variant_traces:
        assert trace in model


def test_noise_never_empties_a_trace():
    spec = SyntheticSpec(
        alphabet_size=3,
        model_trace_count=2,
        model_trace_length=(1, 2),
        log_variant_count=60,
        noise_ops=(4, 6),
        seed=3,
    )
    _, log = generate_synthetic(spec)
    assert all(len(trace) >= 1 for trace in log.variant_traces)


def test_spec_validation():
    with pytest.raises(ExperimentError):
        SyntheticSpec(alphabet_size=0)
    with pytest.raises(ExperimentError):
        SyntheticSpec(model_trace_length=(5, 3))
    with pytest.raises(ExperimentError):
        SyntheticSpec(model_trace_length=(0, 3))
    with pytest.raises(ExperimentError):
        SyntheticSpec(multiplicity=(0, 2))
    with pytest.raises(ExperimentError):
        SyntheticSpec(log_variant_count=0)


def test_spec_dict_round_trip():
    spec = SyntheticSpec(alphabet_size=5, noise_ops=(1, 3), seed=9)
    assert SyntheticSpec.from_dict(spec.to_dict()) == spec


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(ExperimentError, match="unknown synthetic spec fields"):
        SyntheticSpec.from_dict({"seed": 1, "typo_field": 2})


@pytest.mark.parametrize(
    "raw",
    [
        {"seed": True},
        {"alphabet_size": 8.0},
        {"noise_ops": [0, 1, 2]},
        {"multiplicity": [1, 2.5]},
        {"model_trace_length": "4-8"},
    ],
)
def test_spec_from_dict_rejects_wrong_types(raw):
    with pytest.raises(ExperimentError, match="must be"):
        SyntheticSpec.from_dict(raw)


def test_pearson_known_value():
    assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)


def test_pearson_perfect_and_inverse():
    assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)


def test_pearson_errors():
    with pytest.raises(ExperimentError, match="equal length"):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ExperimentError, match="two points"):
        pearson([1], [2])
    with pytest.raises(ExperimentError, match="constant"):
        pearson([4, 4, 4], [1, 2, 3])


def test_performance_improvement_exact_ratios():
    pi_with, pi_without = performance_improvement(100, 50, 25)
    assert pi_with == Fraction(2)
    assert pi_without == Fraction(4)
    with pytest.raises(ExperimentError, match="positive"):
        performance_improvement(100, 0, 25)


def test_full_proxy_reproduces_exact_costs():
    # with every variant in the proxy set, the estimate is the exact cost
    model, log = generate_synthetic(SyntheticSpec(seed=5, log_variant_count=15))
    costs, elapsed = exact_costs(log, model)
    assert elapsed >= 1
    proxy = ProxySet(members=tuple(log.variant_traces))
    report = approximate_log(log, model, proxy=proxy)
    assert realized_error(report, costs) == 0
    assert report.epsilon_max == 0


def test_lower_source_percentages_sum_to_100():
    model, log = generate_synthetic(SyntheticSpec(seed=5, log_variant_count=15))
    proxy = ProxySet(members=tuple(log.variant_traces[:3]))
    report = approximate_log(log, model, proxy=proxy)
    pcts = lower_source_percentages(report)
    assert sum(pcts.values()) == Fraction(100)


def small_grid(seed=13):
    spec = SyntheticSpec(
        alphabet_size=5,
        model_trace_count=3,
        model_trace_length=(3, 5),
        log_variant_count=12,
        noise_ops=(0, 2),
        seed=seed,
    )
    return run_experiment(
        spec, size_percents=(10, 50), repetitions=2
    )


def test_run_experiment_grid_shape_and_bounds():
    rows = small_grid()
    assert len(rows) == 4 * 2 * 2
    for row in rows:
        # the realized weighted error never exceeds the a-priori bound
        assert row.realized_error <= row.epsilon_max
        assert row.pi_with > 0 and row.pi_without > 0
        assert row.pct_structural + row.pct_proxy + row.pct_both == Fraction(100)


def test_run_experiment_error_columns_deterministic():
    first = small_grid()
    second = small_grid()
    for a, b in zip(first, second):
        assert (a.strategy, a.size_percent, a.seed) == (
            b.strategy,
            b.size_percent,
            b.seed,
        )
        assert a.epsilon_max == b.epsilon_max
        assert a.realized_error == b.realized_error
        assert (a.pct_structural, a.pct_proxy, a.pct_both) == (
            b.pct_structural,
            b.pct_proxy,
            b.pct_both,
        )


def test_run_experiment_runs_seed_blind_strategies_once_per_size(monkeypatch):
    import alignbound.harness as harness

    seeds = []
    real = harness.approximate_log

    def counting(log, model, params, **kwargs):
        seeds.append((params.strategy, params.size_percent, params.seed))
        return real(log, model, params=params, **kwargs)

    monkeypatch.setattr(harness, "approximate_log", counting)
    rows = small_grid()
    master = 13 * 1_000_003
    # rows keep grid order, one per repetition, each with its cell seed
    assert [(r.strategy, r.size_percent, r.seed) for r in rows] == [
        (strategy, Fraction(size), master + rep)
        for strategy in ("random", "frequency", "kmedoids", "kcenter")
        for size in (10, 50)
        for rep in range(2)
    ]
    # only random reads the seed; the others run once per size
    assert seeds == [
        ("random", 10, master),
        ("random", 10, master + 1),
        ("random", 50, master),
        ("random", 50, master + 1),
        *(
            (strategy, size, master)
            for strategy in ("frequency", "kmedoids", "kcenter")
            for size in (10, 50)
        ),
    ]
    for first, second in zip(rows[4::2], rows[5::2]):
        assert replace(first, seed=second.seed) == second


def test_rows_to_csv_shape():
    rows = small_grid()
    lines = rows_to_csv(rows).splitlines()
    assert lines[0] == ",".join(ROW_HEADER)
    assert len(lines) == 1 + len(rows)


def test_rows_to_long_csv_shape():
    rows = small_grid()
    lines = rows_to_long_csv(rows).splitlines()
    metrics_per_row = len(ROW_HEADER) - 3
    strategies = {row.strategy for row in rows}
    assert len(lines) == 1 + metrics_per_row * len(rows) + len(strategies)
    for line in lines[-len(strategies):]:
        assert ",pearson," in line


def test_pearson_by_strategy_handles_constant_input():
    rows = [
        ExperimentRow(
            strategy="random",
            size_percent=Fraction(10),
            seed=i,
            epsilon_max=4,
            realized_error=Fraction(i),
            pi_with=Fraction(2),
            pi_without=Fraction(3),
            pct_structural=Fraction(0),
            pct_proxy=Fraction(100),
            pct_both=Fraction(0),
        )
        for i in range(3)
    ]
    assert pearson_by_strategy(rows) == {"random": None}


def test_pearson_by_strategy_on_varied_rows():
    rows = [
        ExperimentRow(
            strategy="random",
            size_percent=Fraction(10),
            seed=i,
            epsilon_max=eps,
            realized_error=Fraction(err),
            pi_with=Fraction(2),
            pi_without=Fraction(3),
            pct_structural=Fraction(0),
            pct_proxy=Fraction(100),
            pct_both=Fraction(0),
        )
        for i, (eps, err) in enumerate([(1, 1), (2, 3), (3, 2)])
    ]
    result = pearson_by_strategy(rows)
    assert result["random"] == pytest.approx(0.5)
    assert not math.isnan(result["random"])
