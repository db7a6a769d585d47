import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignbound import proxy as proxy_module
from alignbound.distance import distance_matrix, edit_distance
from alignbound.errors import ProxyError
from alignbound.log import EventLog
from alignbound.proxy import (
    STRATEGIES,
    DistanceTable,
    ProxySet,
    StrategyParams,
    _pam_build,
    _pam_swap,
    brute_force_k_primal,
    cluster_kcenter,
    cluster_kmedoids,
    epsilon_max_error,
    generate_proxy,
    sample_frequency,
    sample_random,
)

from conftest import (
    brute_force_epsilon,
    kcenter_optimal_radius,
    kmedoids_optimal_objective,
    pam_build_loop,
    pam_swap_loop,
    random_trace,
)


def _random_log(rng, n_variants, alphabet=("a", "b", "c", "d"), lo=1, hi=6, max_mult=5):
    variants = {}
    while len(variants) < n_variants:
        t = random_trace(rng, list(alphabet), lo, hi)
        if t not in variants:
            variants[t] = rng.randint(1, max_mult)
    return EventLog(variants)


def test_proxy_set_normalizes_members():
    proxy = ProxySet(members=(("b",), ("a", "b"), ("b",)))
    assert proxy.members == (("b",), ("a", "b"))
    assert len(proxy) == 2
    assert ("b",) in proxy


def test_proxy_set_rejects_empty():
    with pytest.raises(ProxyError):
        ProxySet(members=())


small_traces = st.lists(st.sampled_from("abc"), max_size=6).map(tuple)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(small_traces, min_size=1, max_size=8, unique=True),
    st.lists(small_traces, max_size=5),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
def test_distance_table_matrix_columns_equal_scanned_columns(
    variants, extra, calls, rng
):
    # members: variants (matrix slices once the matrix exists) and traces
    # that may lie outside them (scanned), in any order and repeated; the
    # matrix is built before one of the calls or never
    variants = tuple(variants)
    pool = list(variants) + extra
    table = DistanceTable(variants)
    matrix_at = rng.randint(0, calls)
    for call in range(calls):
        if call == matrix_at:
            assert table.matrix() is table.matrix()
        members = [rng.choice(pool) for _ in range(rng.randint(0, 2 * len(pool)))]
        columns = table.columns(members)
        assert columns == [[edit_distance(t, m) for t in variants] for m in members]
        # a second call hands out the same columns
        assert all(a is b for a, b in zip(table.columns(members), columns))


def test_a_table_over_other_variants_is_rejected_at_each_entry_point():
    log = EventLog({("a",): 2, ("b",): 1})
    calls = [
        lambda table: cluster_kmedoids(log, 1, table),
        lambda table: cluster_kcenter(log, 1, table),
        lambda table: epsilon_max_error(log, ProxySet(members=(("a",),)), table),
        *(
            lambda table, s=strategy: generate_proxy(log, StrategyParams(s, 50), table)
            for strategy in STRATEGIES
        ),
    ]
    for call in calls:
        # the log's variants in another order
        with pytest.raises(ValueError, match="variants"):
            call(DistanceTable((("b",), ("a",))))


def test_strategy_params_k_rounding():
    # round half up with a floor of one
    params = StrategyParams(strategy="random", size_percent=Fraction(10), seed=1)
    assert params.k_for(4) == 1   # 0.4 -> 1 via floor
    assert params.k_for(5) == 1   # 0.5 rounds up to 1
    assert params.k_for(15) == 2  # 1.5 rounds up
    assert params.k_for(14) == 1  # 1.4 rounds down
    assert StrategyParams("random", Fraction(100), 0).k_for(7) == 7
    # a float is read through its decimal spelling, not its binary value
    assert StrategyParams("random", 12.5).size_percent == Fraction(25, 2)
    assert StrategyParams("random", 0.1).size_percent == Fraction(1, 10)
    with pytest.raises(ProxyError):
        StrategyParams(strategy="nope", size_percent=Fraction(10), seed=0)
    with pytest.raises(ProxyError):
        StrategyParams(strategy="random", size_percent=Fraction(0), seed=0)
    with pytest.raises(ProxyError):
        StrategyParams(strategy="random", size_percent=Fraction(101), seed=0)


def test_sample_random_deterministic_and_in_log():
    log = _random_log(random.Random(3), 10)
    first = sample_random(log, 4, seed=9)
    again = sample_random(log, 4, seed=9)
    assert first.members == again.members
    assert set(first.members) <= set(log.variants)
    assert len(first) == 4
    other = sample_random(log, 4, seed=10)
    assert other.members != first.members  # overwhelmingly likely, fixed seeds


def test_sample_random_is_uniform():
    # k=1 over three variants: each variant near one third over 10k seeds
    log = EventLog({("a",): 1, ("b",): 1, ("c",): 1})
    counts = Counter()
    trials = 10_000
    for seed in range(trials):
        counts[sample_random(log, 1, seed).members[0]] += 1
    for trace in log.variants:
        assert abs(counts[trace] / trials - 1 / 3) < 0.02


def test_sample_frequency_order_and_ties():
    log = EventLog(
        {
            ("a", "a"): 5,
            ("b",): 5,
            ("c", "c", "c"): 5,
            ("a",): 2,
            ("z",): 9,
        }
    )
    proxy = sample_frequency(log, 3)
    # z at 9 enters first; among the multiplicity-5 ties the shorter trace
    # wins, so b beats the longer candidates (members store canonically)
    assert set(proxy.members) == {("z",), ("b",), ("a", "a")}
    assert sample_frequency(log, 5).members == log.variant_traces
    # the tie loser is the three-activity trace
    assert ("c", "c", "c") not in proxy.members


def test_kcenter_picks_outlier():
    log = EventLog({("a",): 1, ("a", "b"): 1, ("x", "y", "z", "w"): 1})
    proxy = cluster_kcenter(log, 2)
    assert ("x", "y", "z", "w") in proxy.members
    # seed center: all frequencies tie, shortest wins
    assert ("a",) in proxy.members


def test_kcenter_radius_within_twice_optimal():
    rng = random.Random(101)
    for _ in range(15):
        log = _random_log(rng, rng.randint(4, 7))
        variants = log.variant_traces
        table = DistanceTable(variants)

        def dist(i, j):
            return int(table.matrix()[i, j])

        for k in (2, 3):
            proxy = cluster_kcenter(log, k, table)
            centers = [variants.index(m) for m in proxy.members]
            radius = max(
                min(dist(i, c) for c in centers) for i in range(len(variants))
            )
            assert radius <= 2 * kcenter_optimal_radius(variants, k, dist)


def test_kmedoids_matches_exhaustive_on_small_instances():
    rng = random.Random(103)
    hits = 0
    runs = 0
    for _ in range(10):
        log = _random_log(rng, rng.randint(4, 6))
        variants = log.variant_traces
        table = DistanceTable(variants)

        def dist(i, j):
            return int(table.matrix()[i, j])

        for k in (2, 3):
            optimum = kmedoids_optimal_objective(log, k, dist)
            runs += 1
            proxy = cluster_kmedoids(log, k, table)
            got = epsilon_max_error(log, proxy).value
            assert got >= optimum
            hits += got == optimum
    assert hits / runs >= 0.95


def test_pam_swap_matches_one_swap_at_a_time_loop():
    rng = random.Random(109)
    checked = set()
    for trial in range(40):
        log = _random_log(rng, rng.randint(2, 24), hi=8, max_mult=rng.choice((1, 1, 4)))
        variants = log.variant_traces
        n = len(variants)
        cells = distance_matrix(variants)
        weights = np.array([log.variants[t] for t in variants], dtype=np.int64)
        for k in {1, n - 1, rng.randint(1, n)} - {0}:
            starts = [_pam_build(cells, weights, k), sorted(rng.sample(range(n), k))]
            for start in starts:
                expected = pam_swap_loop(cells, weights, list(start))
                assert _pam_swap(cells, weights, list(start)) == expected
            checked.add((k == 1, k == n - 1, bool((weights == 1).all())))
    # k = 1, k = n - 1 and all-equal weights (every swap delta tied) all ran
    assert {c[0] for c in checked} == {True, False}
    assert {c[1] for c in checked} == {True, False}
    assert {c[2] for c in checked} == {True, False}


def test_pam_swap_tie_break_matches_loop():
    # swapping medoid 0 for 4 and medoid 1 for 2 tie as the best first swap;
    # the first medoid wins and leads to another local optimum than the
    # first candidate would
    cells = np.array(
        [
            [0, 1, 2, 1, 1],
            [1, 0, 3, 2, 1],
            [2, 3, 0, 2, 1],
            [1, 2, 2, 0, 1],
            [1, 1, 1, 1, 0],
        ]
    )
    weights = np.ones(5, dtype=np.int64)
    assert _pam_swap(cells, weights, [0, 1]) == pam_swap_loop(cells, weights, [0, 1])
    # small symmetric matrices with entries 0..3 tie many deltas, and their
    # zeros put two points at distance zero from one medoid
    rng = np.random.default_rng(113)
    for trial in range(200):
        n = int(rng.integers(3, 12))
        upper = np.triu(rng.integers(0, 4, size=(n, n)), 1)
        cells = upper + upper.T
        weights = np.ones(n, dtype=np.int64) if trial % 2 else rng.integers(1, 3, size=n)
        for k in (1, n - 1, int(rng.integers(1, n))):
            start = sorted(rng.choice(n, k, replace=False).tolist())
            expected = pam_swap_loop(cells, weights, list(start))
            assert _pam_swap(cells, weights, list(start)) == expected


def test_pam_build_matches_clip_and_sum_loop():
    # small symmetric int32 matrices with entries 0..3 tie many gains; the
    # first maximum must win, as in the loop
    rng = np.random.default_rng(127)
    for trial in range(300):
        n = int(rng.integers(2, 14))
        upper = np.triu(rng.integers(0, 4, size=(n, n)), 1)
        cells = (upper + upper.T).astype(np.int32)
        weights = np.ones(n, dtype=np.int64) if trial % 2 else rng.integers(1, 4, size=n)
        for k in (1, n - 1, int(rng.integers(1, n + 1))):
            assert _pam_build(cells, weights, k) == pam_build_loop(cells, weights, k)
    # and real distance matrices
    rng = random.Random(131)
    for _ in range(20):
        log = _random_log(rng, rng.randint(2, 30), hi=8)
        variants = log.variant_traces
        cells = distance_matrix(variants)
        weights = np.array([log.variants[t] for t in variants], dtype=np.int64)
        for k in {1, len(variants) - 1, rng.randint(1, len(variants))} - {0}:
            assert _pam_build(cells, weights, k) == pam_build_loop(cells, weights, k)


def test_kmedoids_runs_one_build_and_one_swap(monkeypatch):
    calls = Counter()

    def counting(name):
        original = getattr(proxy_module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return counted

    for name in ("_pam_build", "_pam_swap"):
        monkeypatch.setattr(proxy_module, name, counting(name))
    log = _random_log(random.Random(137), 30, hi=8)
    cluster_kmedoids(log, 4, DistanceTable(log.variant_traces))
    assert calls == {"_pam_build": 1, "_pam_swap": 1}


def test_kmedoids_weights_matter():
    # a heavy variant pulls the single medoid toward itself
    log = EventLog({("a", "a", "a", "a"): 50, ("b",): 1, ("b", "c"): 1})
    proxy = cluster_kmedoids(log, 1)
    assert proxy.members == (("a", "a", "a", "a"),)


def test_kmedoids_not_worse_than_random():
    rng = random.Random(107)
    log = _random_log(rng, 12)
    med = epsilon_max_error(log, cluster_kmedoids(log, 3))
    wins = 0
    for seed in range(100):
        rnd = epsilon_max_error(log, sample_random(log, 3, seed))
        wins += med.value <= rnd.value
    assert wins >= 90


def test_epsilon_examples():
    log = EventLog({("a", "b"): 2, ("a", "b", "c"): 3})
    eps = epsilon_max_error(log, ProxySet(members=(("a", "b"),)))
    assert eps.value == 3
    assert eps.per_variant == {("a", "b"): 0, ("a", "b", "c"): 1}
    # covering every variant zeroes the error
    full = ProxySet(members=tuple(log.variants))
    assert epsilon_max_error(log, full).value == 0


def test_epsilon_zero_iff_members_cover_variants():
    rng = random.Random(109)
    for _ in range(20):
        log = _random_log(rng, 5)
        members = tuple(log.variant_traces[:3])
        eps = epsilon_max_error(log, ProxySet(members=members))
        covered = set(log.variants) <= set(members)
        assert (eps.value == 0) == covered


def test_epsilon_matches_brute_force():
    rng = random.Random(113)
    for _ in range(20):
        log = _random_log(rng, 6)
        members = tuple(
            random_trace(rng, ["a", "b", "c", "d"], 1, 5) for _ in range(3)
        )
        proxy = ProxySet(members=members)
        assert epsilon_max_error(log, proxy).value == brute_force_epsilon(
            log, proxy.members
        )


def test_brute_force_k_primal_minimizes_epsilon():
    rng = random.Random(127)
    for _ in range(5):
        log = _random_log(rng, 6)
        universe = log.variant_traces
        best = brute_force_k_primal(log, 2, universe)
        best_eps = epsilon_max_error(log, best).value
        for combo in itertools.combinations(universe, 2):
            assert best_eps <= epsilon_max_error(log, ProxySet(members=combo)).value


def test_brute_force_k_primal_rejects_large_universe():
    log = EventLog({(chr(97 + i),): 1 for i in range(16)})
    with pytest.raises(ProxyError, match="15"):
        brute_force_k_primal(log, 2, log.variant_traces)


def test_k_primal_never_dominated_by_smaller_subset():
    # non-redundancy: no strictly smaller subset of the universe reaches the
    # same a-priori error
    rng = random.Random(131)
    for _ in range(5):
        log = _random_log(rng, 6)
        universe = log.variant_traces
        k = 3
        primal = brute_force_k_primal(log, k, universe)
        primal_eps = epsilon_max_error(log, primal).value
        for size in range(1, k):
            for combo in itertools.combinations(universe, size):
                candidate = ProxySet(members=combo)
                assert epsilon_max_error(log, candidate).value > primal_eps


def test_generate_proxy_dispatch():
    log = _random_log(random.Random(137), 10)
    for strategy in ("random", "frequency", "kmedoids", "kcenter"):
        params = StrategyParams(strategy=strategy, size_percent=Fraction(30), seed=5)
        proxy = generate_proxy(log, params)
        assert len(proxy) == params.k_for(10) == 3
        assert strategy in proxy.provenance
        again = generate_proxy(log, params)
        assert proxy.members == again.members


def test_cluster_k_equals_variant_count():
    log = _random_log(random.Random(139), 5)
    assert cluster_kmedoids(log, 5).members == log.variant_traces
    assert set(cluster_kcenter(log, 5).members) == set(log.variant_traces)


def test_k_out_of_range():
    log = _random_log(random.Random(149), 4)
    for bad in (0, 5):
        with pytest.raises(ProxyError):
            sample_random(log, bad, seed=0)
        with pytest.raises(ProxyError):
            sample_frequency(log, bad)
        with pytest.raises(ProxyError):
            cluster_kmedoids(log, bad)
        with pytest.raises(ProxyError):
            cluster_kcenter(log, bad)
