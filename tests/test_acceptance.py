"""Acceptance suite: nine criteria, one summary line each.

Run with ``-s`` to see the per-criterion lines as they pass:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import csv
import io
import itertools
import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from alignbound.aligner import optimal_alignment
from alignbound.bounds import (
    LOWER_BOTH,
    LOWER_PROXY,
    TIMING_BOUND_COMPUTATION,
    TIMING_PROXY_GENERATION,
    TIMING_REFERENCE_ALIGNMENT,
    approximate_cost,
    approximate_log,
    compute_ref_costs,
)
from alignbound.cli import main
from alignbound.distance import distance_matrix
from alignbound.fixtures import copy_fixture_files
from alignbound.harness import (
    SyntheticSpec,
    exact_costs,
    generate_synthetic,
    pearson_by_strategy,
    performance_improvement,
    realized_error,
    run_experiment,
)
from alignbound.log import EventLog
from alignbound.model import ExplicitLanguageModel
from alignbound.proxy import (
    STRATEGIES,
    ProxySet,
    StrategyParams,
    brute_force_k_primal,
    cluster_kcenter,
    cluster_kmedoids,
    epsilon_max_error,
)

from conftest import (
    brute_force_epsilon,
    kcenter_optimal_radius,
    kmedoids_optimal_objective,
    naive_edit_distance,
    random_trace,
)

SMART_STRATEGIES = ("frequency", "kmedoids", "kcenter")


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - started
        print(f"[criterion {number}] FAIL {description} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - started
    print(f"[criterion {number}] PASS {description} ({elapsed:.2f}s)")


def random_log(rng, n_variants, alphabet, lo, hi, max_mult=4) -> EventLog:
    variants = set()
    while len(variants) < n_variants:
        variants.add(random_trace(rng, alphabet, lo, hi))
    return EventLog(
        {trace: rng.randint(1, max_mult) for trace in sorted(variants)}
    )


def random_language(rng, max_traces, alphabet, lo, hi) -> ExplicitLanguageModel:
    count = rng.randint(1, max_traces)
    traces = {random_trace(rng, alphabet, lo, hi) for _ in range(count)}
    return ExplicitLanguageModel(traces)


def test_criterion_1_worked_example(tmp_path, capsys, loop_language):
    with criterion(1, "shipped fixture: exact cost 2, bounds [1, 3]"):
        started = time.perf_counter()
        paths = copy_fixture_files(tmp_path)
        log_path = tmp_path / "one_case.csv"
        rows = ["case,activity,order"]
        rows += [f"c1,{act},{i}" for i, act in enumerate("accbde", start=1)]
        log_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        rc = main(
            [
                "exact",
                "--log",
                str(log_path),
                "--model",
                str(paths["parallel_loop.lang"]),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.splitlines()[1] == "a|c|c|b|d|e,1,2"

        proxy = ProxySet(members=(("a", "c", "c", "b", "d", "e"),))
        compute_ref_costs(proxy, loop_language)
        assert proxy.ref_costs[("a", "c", "c", "b", "d", "e")] == 2
        result = approximate_cost(("a", "c", "b", "d", "e"), proxy, loop_language)
        assert (result.lower, result.upper) == (1, 3)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_alignment_cost_equals_language_distance():
    with criterion(2, "1000 instances: aligner == nearest-language distance"):
        started = time.perf_counter()
        rng = random.Random(22001)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(1000):
            model = random_language(rng, 10, alphabet, 1, 8)
            trace = random_trace(rng, alphabet, 0, 12)
            result = optimal_alignment(trace, model)
            oracle = min(naive_edit_distance(trace, t) for t in model.traces)
            assert result.cost == oracle
            projection = result.alignment.model_projection
            assert projection in model
            assert naive_edit_distance(trace, projection) == result.cost
        assert time.perf_counter() - started < 30.0


def test_criterion_3_reference_traces_bracket_the_cost():
    with criterion(3, "1000 triples + 1000 proxy sets: bounds always contain z"):
        started = time.perf_counter()
        rng = random.Random(33001)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(1000):
            model = random_language(rng, 6, alphabet, 1, 7)
            sigma = random_trace(rng, alphabet, 0, 10)
            sigma_ref = random_trace(rng, alphabet, 0, 10)
            z = optimal_alignment(sigma, model).cost
            z_ref = optimal_alignment(sigma_ref, model).cost
            d = naive_edit_distance(sigma, sigma_ref)
            assert z_ref - d <= z <= z_ref + d

        for i in range(1000):
            model = random_language(rng, 6, alphabet, 1, 7)
            sigma = random_trace(rng, alphabet, 0, 10)
            members = {
                random_trace(rng, alphabet, 0, 8) for _ in range((i % 5) + 1)
            }
            proxy = ProxySet(members=tuple(members))
            compute_ref_costs(proxy, model)
            result = approximate_cost(sigma, proxy, model)
            z = optimal_alignment(sigma, model).cost
            assert result.lower <= z <= result.upper
        assert time.perf_counter() - started < 60.0


def test_criterion_4_realized_error_within_budget():
    with criterion(4, "50 synthetic pairs x 4 strategies: error <= budget"):
        for seed in range(50):
            spec = SyntheticSpec(
                alphabet_size=6,
                model_trace_count=4,
                model_trace_length=(3, 6),
                log_variant_count=20,
                noise_ops=(0, 2),
                multiplicity=(1, 4),
                seed=seed,
            )
            model, log = generate_synthetic(spec)
            costs, _ = exact_costs(log, model)
            matrix = distance_matrix(log.variant_traces)
            for strategy in STRATEGIES:
                params = StrategyParams(
                    strategy=strategy, size_percent=20, seed=seed
                )
                report = approximate_log(
                    log, model, params=params, matrix=matrix
                )
                assert realized_error(report, costs) <= report.epsilon_max


def test_criterion_5_brute_force_sets_are_undominated():
    with criterion(5, "20 logs: no strictly smaller subset matches the error"):
        rng = random.Random(55001)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(20):
            log = random_log(rng, rng.randint(4, 10), alphabet, 1, 5)
            universe = log.variant_traces
            k = rng.randint(1, 3)
            primal = brute_force_k_primal(log, k, universe)
            eps_primal = brute_force_epsilon(log, primal.members)
            assert epsilon_max_error(log, primal).value == eps_primal
            for smaller in range(1, len(primal.members)):
                for combo in itertools.combinations(universe, smaller):
                    assert brute_force_epsilon(log, combo) > eps_primal


def test_criterion_6_clustering_quality():
    with criterion(6, "kcenter <= 2x optimal; kmedoids hits optimum >= 95/100"):
        rng = random.Random(66001)
        alphabet = ["a", "b", "c", "d"]
        for case in range(20):
            log = random_log(rng, rng.randint(5, 12), alphabet, 1, 5)
            variants = log.variant_traces
            k = rng.randint(2, 4)
            cache = {}

            def dist(i, j):
                key = (min(i, j), max(i, j))
                if key not in cache:
                    cache[key] = naive_edit_distance(variants[key[0]], variants[key[1]])
                return cache[key]

            optimal = kcenter_optimal_radius(variants, k, dist)
            centers = cluster_kcenter(log, k, seed=case).members
            achieved = max(
                min(naive_edit_distance(v, c) for c in centers) for v in variants
            )
            assert achieved <= 2 * optimal

        hits = 0
        for seed in range(100):
            rng = random.Random(88000 + seed)
            log = random_log(rng, rng.randint(4, 8), alphabet, 1, 5, max_mult=5)
            variants = log.variant_traces
            k = rng.randint(1, min(3, len(variants)))
            cache = {}

            def dist(i, j):
                key = (min(i, j), max(i, j))
                if key not in cache:
                    cache[key] = naive_edit_distance(variants[key[0]], variants[key[1]])
                return cache[key]

            result = cluster_kmedoids(log, k, seed)
            achieved = brute_force_epsilon(log, result.members)
            optimal = kmedoids_optimal_objective(log, k, dist)
            assert achieved >= optimal
            if achieved == optimal:
                hits += 1
        assert hits >= 95


def test_criterion_7_bound_tracks_error_and_informed_beats_random():
    with criterion(7, "10 grids: pearson >= 0; informed <= random in >= 8/10"):
        started = time.perf_counter()
        all_rows = []
        wins = {s: 0 for s in SMART_STRATEGIES}
        for master in range(10):
            spec = SyntheticSpec(
                alphabet_size=6,
                model_trace_count=5,
                model_trace_length=(3, 6),
                log_variant_count=30,
                noise_ops=(0, 3),
                multiplicity=(1, 5),
                seed=master,
            )
            rows = run_experiment(spec)
            all_rows.extend(rows)

            def mean_error_at_ten(strategy):
                errors = [
                    row.realized_error
                    for row in rows
                    if row.strategy == strategy
                    and row.size_percent == Fraction(10)
                ]
                return sum(errors, Fraction(0)) / len(errors)

            random_mean = mean_error_at_ten("random")
            for strategy in SMART_STRATEGIES:
                if mean_error_at_ten(strategy) <= random_mean:
                    wins[strategy] += 1

        correlations = pearson_by_strategy(all_rows)
        for strategy in STRATEGIES:
            assert correlations[strategy] is not None
            assert correlations[strategy] >= 0
        for strategy in SMART_STRATEGIES:
            assert wins[strategy] >= 8
        assert time.perf_counter() - started < 300.0


# where exact alignment is expensive: 80 model traces, >= 500 variants
CRITERION_8_SPEC = SyntheticSpec(
    alphabet_size=12,
    model_trace_count=80,
    model_trace_length=(6, 10),
    log_variant_count=850,
    noise_ops=(0, 2),
    multiplicity=(1, 3),
    seed=42,
)


def test_criterion_8_invocation_count_and_speedup(monkeypatch):
    with criterion(8, "invocations == |proxy|; speedup > 1 in >= 9/10 runs"):
        import alignbound.bounds as bounds_module

        real_align = optimal_alignment
        calls = {"n": 0}

        def counting_align(*args, **kwargs):
            calls["n"] += 1
            return real_align(*args, **kwargs)

        monkeypatch.setattr(bounds_module, "optimal_alignment", counting_align)
        model, log = generate_synthetic(SyntheticSpec(seed=8))
        for strategy, size in (("frequency", 30), ("random", 10)):
            calls["n"] = 0
            report = approximate_log(
                log,
                model,
                params=StrategyParams(strategy=strategy, size_percent=size, seed=8),
            )
            assert calls["n"] == len(report.proxy.members)
            assert report.aligner_invocations == len(report.proxy.members)
        monkeypatch.setattr(bounds_module, "optimal_alignment", real_align)

        model, log = generate_synthetic(CRITERION_8_SPEC)
        assert len(log.variants) >= 500
        _, t_exact = exact_costs(log, model)
        faster = 0
        for seed in range(10):
            report = approximate_log(
                log,
                model,
                params=StrategyParams(strategy="random", size_percent=5, seed=seed),
            )
            t_with = max(1, sum(report.timings_us.values()))
            t_without = max(
                1,
                report.timings_us[TIMING_REFERENCE_ALIGNMENT]
                + report.timings_us[TIMING_BOUND_COMPUTATION],
            )
            _, pi_without = performance_improvement(t_exact, t_with, t_without)
            if pi_without > 1:
                faster += 1
        assert faster >= 9


def test_criterion_8_distance_work_count(monkeypatch):
    # the work-count twin of the wall-clock speedup above: the distances
    # evaluated by reference alignment plus bracketing (what pi_without
    # times) against those of exact alignment, which repeat exactly.  The
    # bracket's variant x member table scans each member once over the
    # packed variants, which counts one distance per lane; every scalar
    # edit_distance call counts one.
    with criterion(8, "approximate evaluates fewer distances than exact"):
        import alignbound.aligner as aligner_module
        import alignbound.proxy as proxy_module
        from alignbound.distance import MatchMasks, edit_distance

        calls = {"n": 0}

        def counting_distance(*args, **kwargs):
            calls["n"] += 1
            return edit_distance(*args, **kwargs)

        packed = MatchMasks.distances

        def counting_packed(masks, other):
            calls["n"] += len(masks.traces)
            return packed(masks, other)

        for module in (aligner_module, proxy_module):
            monkeypatch.setattr(module, "edit_distance", counting_distance)
        monkeypatch.setattr(MatchMasks, "distances", counting_packed)
        model, log = generate_synthetic(CRITERION_8_SPEC)
        exact_costs(log, model)
        exact_calls = calls["n"]
        assert exact_calls > 0
        for seed in range(10):
            calls["n"] = 0
            report = approximate_log(
                log,
                model,
                params=StrategyParams(strategy="random", size_percent=5, seed=seed),
            )
            # every variant x member distance of the bracket is counted
            assert len(log.variants) * len(report.proxy) <= calls["n"] < exact_calls


def test_criterion_9_lower_bound_source_statistics(tmp_path, capsys):
    with criterion(9, "source shares sum to 100; noise-free logs favor proxy"):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "alphabet_size": 5,
                    "model_trace_count": 3,
                    "model_trace_length": [3, 5],
                    "log_variant_count": 10,
                    "noise_ops": [0, 2],
                    "multiplicity": [1, 3],
                    "seed": 9,
                }
            ),
            encoding="utf-8",
        )
        rc = main(
            [
                "evaluate",
                "--spec",
                str(spec_path),
                "--sizes",
                "10,50",
                "--repetitions",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        reader = csv.DictReader(io.StringIO(captured.out))
        data_rows = list(reader)
        assert len(data_rows) == len(STRATEGIES) * 2 * 2
        for row in data_rows:
            total = (
                Fraction(row["pct_structural"])
                + Fraction(row["pct_proxy"])
                + Fraction(row["pct_both"])
            )
            assert total == Fraction(100)

        for seed in range(5):
            spec = SyntheticSpec(
                alphabet_size=6,
                model_trace_count=4,
                model_trace_length=(3, 6),
                log_variant_count=20,
                noise_ops=(0, 0),
                multiplicity=(1, 4),
                seed=seed,
            )
            model, log = generate_synthetic(spec)
            for trace in log.variant_traces:
                assert trace in model
            for strategy in STRATEGIES:
                params = StrategyParams(
                    strategy=strategy, size_percent=20, seed=seed
                )
                report = approximate_log(log, model, params=params)
                assert set(report.proxy.members) <= set(log.variant_traces)
                for result, _ in report.per_variant:
                    assert result.lower_source in (LOWER_PROXY, LOWER_BOTH)
