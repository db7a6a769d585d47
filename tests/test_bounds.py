import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignbound.aligner import optimal_alignment
from alignbound.bounds import (
    LOWER_BOTH,
    LOWER_PROXY,
    LOWER_STRUCTURAL,
    approximate_cost,
    approximate_log,
    compute_ref_costs,
    weighted_total,
)
from alignbound.errors import BoundsError
from alignbound.harness import SyntheticSpec, generate_synthetic, realized_error
from alignbound.log import EventLog
from alignbound.model import ExplicitLanguageModel, PetriNetModel, Transition
from alignbound.proxy import STRATEGIES, ProxySet, StrategyParams

from conftest import noisy_walk, random_trace, search_nets, with_x_runs


def test_bracket_example(loop_language):
    proxy = ProxySet(members=(("a", "c", "c", "b", "d", "e"),))
    result = approximate_cost(("a", "c", "b", "d", "e"), proxy, (2,), loop_language)
    assert result.lower == 1
    assert result.upper == 3
    assert result.estimate == Fraction(2)
    assert result.proxy_distance == 1
    assert result.nearest_proxy == ("a", "c", "c", "b", "d", "e")
    assert result.lower_source == LOWER_PROXY
    # the true cost sits inside the bracket
    assert result.lower <= optimal_alignment(("a", "c", "b", "d", "e"), loop_language).cost <= result.upper


def test_two_references_pin_the_value():
    # one reference costs 7 at distance 2, another costs 2 at distance 3:
    # the brackets intersect in the single point 5
    from alignbound.distance import edit_distance

    trace = ("t", "r", "a", "c", "e")
    near = ("t", "r", "a")
    far = ("t", "r")
    assert edit_distance(trace, near) == 2
    assert edit_distance(trace, far) == 3
    proxy = ProxySet(members=(near, far))
    # members in canonical order: far, the shorter, comes first
    assert proxy.members == (far, near)
    # the empty run and a full-alphabet run keep the structural floor at 0
    model = ExplicitLanguageModel([(), trace])
    result = approximate_cost(trace, proxy, (2, 7), model)
    assert result.proxy_distance == 2
    assert result.upper == 5
    assert result.lower == 5
    assert result.estimate == Fraction(5)
    assert result.lower_source == LOWER_PROXY


def test_nearest_proxy_tie_break_is_canonical():
    # tied members given out of canonical order: the shorter one is the
    # nearest, then at equal length the lexicographically smaller one, on
    # the single-trace path and on the whole-log table alike
    trace = ("a", "b")
    model = ExplicitLanguageModel([trace])
    log = EventLog({trace: 1})
    for members, nearest, d in (
        ([("a", "b", "c"), ("a",)], ("a",), 1),
        ([("a", "x"), ("a", "c")], ("a", "c"), 2),
        ([("a", "c"), ("a", "x")], ("a", "c"), 2),
    ):
        proxy = ProxySet(members=tuple(members))
        result = approximate_cost(trace, proxy, (0, 0), model)
        assert (result.proxy_distance, result.nearest_proxy) == (d, nearest)
        [(row, _)] = approximate_log(log, model, proxy=proxy).per_variant
        assert (row.proxy_distance, row.nearest_proxy) == (d, nearest)


def test_missing_reference_cost_errors():
    # one cost per member, in member order, or none is read
    proxy = ProxySet(members=(("u", "1"), ("u", "2", "3")))
    model = ExplicitLanguageModel([("t",)])
    for costs in ((0,), (0, 1, 2)):
        message = f"expected 2 reference costs, one per proxy member, got {len(costs)}"
        with pytest.raises(BoundsError, match=message):
            approximate_cost(("t",), proxy, costs, model)
    # so is one distance per member: zip would pair a short row with the
    # wrong members, and (3,) would give upper 3 where the true row gives 0
    proxy = ProxySet(members=(("c",), ("a", "b")))
    for distances in ((3,), (0, 2, 1)):
        message = f"expected 2 distances, one per proxy member, got {len(distances)}"
        with pytest.raises(BoundsError, match=message):
            approximate_cost(("c",), proxy, (0, 0), model, distances=distances)


def test_upper_lower_bracket_random_instances():
    rng = random.Random(211)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(150):
        model = ExplicitLanguageModel(
            {random_trace(rng, alphabet, 1, 6) for _ in range(rng.randint(1, 6))}
        )
        members = {
            random_trace(rng, alphabet, 0, 6) for _ in range(rng.randint(1, 4))
        }
        proxy = ProxySet(members=tuple(members))
        costs = compute_ref_costs(proxy, model)
        trace = random_trace(rng, alphabet + ["z"], 0, 7)
        exact = optimal_alignment(trace, model).cost
        result = approximate_cost(trace, proxy, costs, model)
        assert result.lower <= exact <= result.upper
        assert result.lower <= result.estimate <= result.upper
        # the bracket width never exceeds twice the nearest-member distance
        assert result.upper - result.lower <= 2 * result.proxy_distance


def test_member_costs_are_exact():
    # a trace that is itself a member gets a zero-width bracket
    model = ExplicitLanguageModel([("a", "b"), ("c",)])
    proxy = ProxySet(members=(("a", "b"), ("c", "c")))
    costs = compute_ref_costs(proxy, model)
    assert costs == (0, 1)
    for member, cost in zip(proxy.members, costs):
        result = approximate_cost(member, proxy, costs, model)
        assert result.lower == result.upper == result.estimate == cost


def test_structural_lower_bound_off_alphabet():
    # two activities the model cannot mirror push the floor above the proxy
    model = ExplicitLanguageModel([("a", "b", "c")])
    proxy = ProxySet(members=(("a", "b", "c"),))
    costs = compute_ref_costs(proxy, model)
    result = approximate_cost(("a", "x", "y"), proxy, costs, model)
    assert result.lower == 2
    assert result.lower_source == LOWER_STRUCTURAL


def _dead_transition_net():
    """``a``, then ``b`` or a silent skip.  A visible ``d`` waits on a place
    that never holds a token, so ``d`` is in the alphabet but never fires."""
    return PetriNetModel(
        places=("p_start", "p_mid", "p_end", "p_orphan"),
        transitions=(
            Transition("t_a", "a"),
            Transition("t_b", "b"),
            Transition("t_skip", None),
            Transition("t_dead", "d"),
        ),
        inputs=((0,), (1,), (1,), (3,)),
        outputs=((1,), (2,), (2,), (2,)),
        initial_marking=(1, 0, 0, 0),
        final_marking=(0, 0, 1, 0),
    )


def test_off_alphabet_floor_is_sound_on_nets(loop_net):
    # the out-of-alphabet term needs no liveness check: a dead transition
    # still puts its label in the alphabet, and an activity outside the
    # alphabet can never be a synchronous move
    dead = _dead_transition_net()
    fired, complete = dead.probe_fired()
    assert complete and "t_dead" not in fired
    assert dead.alphabet == {"a", "b", "d"}
    rng = random.Random(227)
    for model in (dead, loop_net):
        alphabet = sorted(model.alphabet)
        structural = 0
        for _ in range(40):
            members = {random_trace(rng, alphabet, 0, 5) for _ in range(3)}
            proxy = ProxySet(members=tuple(members))
            costs = compute_ref_costs(proxy, model)
            trace = random_trace(rng, alphabet + ["x", "y"], 0, 5)
            cut = rng.randint(0, len(trace))
            trace = trace[:cut] + (rng.choice("xy"),) + trace[cut:]
            result = approximate_cost(trace, proxy, costs, model)
            assert result.lower <= optimal_alignment(trace, model).cost <= result.upper
            structural += result.lower_source == LOWER_STRUCTURAL
        # the term is live: it alone sets the floor for some traces
        assert structural > 0


@search_nets
def test_brackets_and_epsilon_are_sound_on_nets(make_net, alphabet):
    # every bracket holds the exact cost, so its midpoint errs by at most
    # the nearest-member distance (the bracket is at most twice that wide),
    # and each report's realized error stays within epsilon
    rng = random.Random(229)
    net = make_net()
    pool = [noisy_walk(rng, net, alphabet, 3) for _ in range(40)]
    pool += [with_x_runs(rng, t) for t in pool[:12]]
    exact = {t: optimal_alignment(t, net).cost for t in sorted(set(pool))}
    brackets = 0
    for _ in range(40):
        variants = rng.sample(sorted(exact), rng.randint(4, 14))
        log = EventLog({t: rng.randint(1, 4) for t in variants})
        members = rng.sample(variants, rng.randint(0, 3))
        members += [random_trace(rng, alphabet, 0, 8) for _ in range(rng.randint(1, 3))]
        report = approximate_log(log, net, proxy=ProxySet(members))
        for result, _ in report.per_variant:
            cost = exact[result.trace]
            assert result.lower <= cost <= result.upper
            assert abs(result.estimate - cost) <= result.proxy_distance
            brackets += 1
        assert realized_error(report, exact) <= report.epsilon_max
    assert brackets > 300


def test_structural_lower_bound_short_trace():
    model = ExplicitLanguageModel([("a", "b", "c")])
    proxy = ProxySet(members=(("a", "b", "c"),))
    costs = compute_ref_costs(proxy, model)
    result = approximate_cost((), proxy, costs, model)
    # three visible activities are unavoidable; the proxy floor clamps at 0
    assert result.lower == 3
    assert result.upper == 3
    assert result.lower_source == LOWER_STRUCTURAL


def test_lower_source_both_on_perfect_members():
    # members inside the model language: the proxy floor and the structural
    # floor both sit at zero for fitting traces
    model = ExplicitLanguageModel([("a", "b"), ("a", "c", "b")])
    proxy = ProxySet(members=(("a", "b"),))
    costs = compute_ref_costs(proxy, model)
    assert costs == (0,)
    result = approximate_cost(("a", "c", "b"), proxy, costs, model)
    assert result.lower == 0
    assert result.lower_source == LOWER_BOTH


def test_midpoint_estimate_on_a_fitting_member():
    model = ExplicitLanguageModel([("a", "b", "c", "d"), ("x", "y")])
    proxy = ProxySet(members=(("a", "b", "c", "d"),))
    costs = compute_ref_costs(proxy, model)
    assert costs == (0,)
    # in-alphabet deviations: bracket [0, 2], estimate its midpoint
    trace = ("a", "b", "x", "y", "c", "d")
    result = approximate_cost(trace, proxy, costs, model)
    assert result.proxy_distance == 2
    assert (result.lower, result.upper) == (0, 2)
    assert result.estimate == Fraction(1)
    # off-alphabet deviations raise the floor to the ceiling
    closed = approximate_cost(("a", "b", "q", "r", "c", "d"), proxy, costs, model)
    assert closed.lower == closed.upper == 2
    assert closed.estimate == Fraction(2)


def test_midpoint_estimate_of_a_wide_bracket_is_a_half():
    model = ExplicitLanguageModel([("a", "b", "c")])
    proxy = ProxySet(members=(("a", "b", "c", "d", "e"),))
    costs = compute_ref_costs(proxy, model)
    trace = ("a", "q", "c")
    result = approximate_cost(trace, proxy, costs, model)
    assert (result.lower, result.upper) == (1, 6)
    assert result.estimate == Fraction(7, 2)
    assert result.lower <= optimal_alignment(trace, model).cost <= result.upper


short_traces = st.lists(st.sampled_from("abcd"), max_size=6).map(tuple)


@settings(max_examples=60, deadline=None)
@given(
    model_traces=st.lists(short_traces.filter(bool), min_size=1, max_size=4),
    variants=st.dictionaries(short_traces, st.integers(1, 5), min_size=1, max_size=8),
    members=st.lists(short_traces, min_size=1, max_size=3),
)
def test_estimates_and_total_are_exact(model_traces, variants, members):
    model = ExplicitLanguageModel(model_traces)
    log = EventLog(variants)
    report = approximate_log(log, model, proxy=ProxySet(members=tuple(members)))
    for result, _ in report.per_variant:
        assert isinstance(result.estimate, Fraction)
        assert result.estimate == Fraction(result.lower + result.upper, 2)
    assert report.total_estimate == sum(
        mult * r.estimate for r, mult in report.per_variant
    )


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60)),
            st.integers(0, 10**6),
        ),
        max_size=8,
    )
)
def test_weighted_total_is_the_exact_weighted_sum(pairs):
    total = weighted_total(iter(pairs))
    assert isinstance(total, Fraction)
    assert total == sum((Fraction(value) * w for value, w in pairs), Fraction(0))


def test_bigger_proxy_never_loosens_the_bracket():
    rng = random.Random(223)
    alphabet = ["a", "b", "c"]
    for _ in range(40):
        model = ExplicitLanguageModel(
            {random_trace(rng, alphabet, 1, 5) for _ in range(3)}
        )
        base_members = [random_trace(rng, alphabet, 0, 5) for _ in range(2)]
        extra = base_members + [random_trace(rng, alphabet, 0, 5)]
        small = ProxySet(members=tuple(base_members))
        big = ProxySet(members=tuple(extra))
        small_costs = compute_ref_costs(small, model)
        big_costs = compute_ref_costs(big, model)
        trace = random_trace(rng, alphabet, 0, 6)
        wide = approximate_cost(trace, small, small_costs, model)
        narrow = approximate_cost(trace, big, big_costs, model)
        assert narrow.upper <= wide.upper
        assert narrow.lower >= wide.lower


def test_approximate_log_whole_log(loop_language):
    log = EventLog(
        {
            ("a", "b", "e"): 3,
            ("a", "c", "b", "d", "e"): 2,
            ("a", "c", "c", "b", "d", "e"): 1,
        }
    )
    params = StrategyParams(strategy="frequency", size_percent=Fraction(40), seed=0)
    report = approximate_log(log, loop_language, params=params)
    assert report.total_traces == 6
    assert report.aligner_invocations == len(report.proxy)
    assert len(report.per_variant) == 3
    # rows follow canonical variant order
    assert [r.trace for r, _ in report.per_variant] == list(log.variant_traces)
    assert report.epsilon_max == sum(
        mult * r.proxy_distance for r, mult in report.per_variant
    )
    assert report.total_estimate == sum(
        mult * r.estimate for r, mult in report.per_variant
    )
    assert set(report.timings_us) == {
        "proxy_generation",
        "reference_alignment",
        "bound_computation",
    }


def test_approximate_log_with_full_coverage_is_exact(loop_language):
    log = EventLog({("a", "b", "e"): 2, ("a", "b", "c", "e"): 1})
    proxy = ProxySet(members=tuple(log.variants))
    report = approximate_log(log, loop_language, proxy=proxy)
    assert report.epsilon_max == 0
    for result, _ in report.per_variant:
        exact = optimal_alignment(result.trace, loop_language).cost
        assert result.lower == result.upper == result.estimate == exact


def test_one_proxy_set_serves_two_models(loop_language, loop_net):
    # the language unrolls the redo loop twice, the net loops freely, so
    # the members cost differently on the two models
    log = EventLog.from_traces(
        map(tuple, ("abe", "acbe", "axbe", "abdbdbdbe", "abdbdbdbdbe", "acbdbdbdbxe"))
    )
    members = (tuple("abdbdbdbe"), tuple("abe"))
    p = ProxySet(members=members, provenance="shared")
    models = (loop_language, loop_net)
    reports = [approximate_log(log, model, proxy=p) for model in models]
    assert p == ProxySet(members=members, provenance="shared")
    # members in canonical order: abe, the shorter, comes first
    assert [r.ref_costs for r in reports] == [(0, 2), (0, 0)]
    for model, report in zip(models, reports):
        assert report.proxy is p
        assert report.ref_costs == compute_ref_costs(p, model)
        for result, _ in report.per_variant:
            exact = optimal_alignment(result.trace, model).cost
            assert result.lower <= exact <= result.upper
    with pytest.raises(FrozenInstanceError):
        p.members = ()


def test_approximate_log_argument_validation(loop_language):
    log = EventLog({("a",): 1})
    with pytest.raises(BoundsError):
        approximate_log(log, loop_language)
    with pytest.raises(BoundsError):
        approximate_log(
            log,
            loop_language,
            params=StrategyParams("random", Fraction(50), 0),
            proxy=ProxySet(members=(("a",),)),
        )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_approximate_log_rows_equal_the_single_trace_bracket(strategy):
    spec = SyntheticSpec(
        alphabet_size=5,
        model_trace_count=4,
        model_trace_length=(3, 7),
        log_variant_count=30,
        noise_ops=(0, 3),
        seed=13,
    )
    model, log = generate_synthetic(spec)
    params = StrategyParams(strategy=strategy, size_percent=Fraction(20), seed=3)
    report = approximate_log(log, model, params=params)
    # the table rows (matrix columns for kmedoids) give what the
    # single-trace bracket computes itself
    for result, _ in report.per_variant:
        costs = report.ref_costs
        assert approximate_cost(result.trace, report.proxy, costs, model) == result
