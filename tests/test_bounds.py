import random
from fractions import Fraction

import pytest

from alignbound.aligner import optimal_alignment
from alignbound.bounds import (
    ESTIMATOR_HALF_DISTANCE,
    LOWER_BOTH,
    LOWER_PROXY,
    LOWER_STRUCTURAL,
    approximate_cost,
    approximate_log,
    compute_ref_costs,
)
from alignbound.distance import distance_matrix
from alignbound.errors import BoundsError
from alignbound.harness import SyntheticSpec, generate_synthetic
from alignbound.log import EventLog
from alignbound.model import ExplicitLanguageModel, PetriNetModel, Transition
from alignbound.proxy import STRATEGIES, ProxySet, StrategyParams
from alignbound.report import strip_timings, write_report

from conftest import random_trace


def _ref(members, costs):
    proxy = ProxySet(members=tuple(members))
    for member, cost in zip(proxy.members, (costs[m] for m in proxy.members)):
        proxy.ref_costs[member] = cost
    return proxy


def test_bracket_example(loop_language):
    proxy = _ref([("a", "c", "c", "b", "d", "e")], {("a", "c", "c", "b", "d", "e"): 2})
    result = approximate_cost(("a", "c", "b", "d", "e"), proxy, loop_language)
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
    proxy.ref_costs[near] = 7
    proxy.ref_costs[far] = 2
    # the empty run and a full-alphabet run keep the structural floor at 0
    model = ExplicitLanguageModel([(), trace])
    result = approximate_cost(trace, proxy, model)
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
        proxy = _ref(members, {m: 0 for m in members})
        result = approximate_cost(trace, proxy, model)
        assert (result.proxy_distance, result.nearest_proxy) == (d, nearest)
        [(row, _)] = approximate_log(log, model, proxy=proxy).per_variant
        assert (row.proxy_distance, row.nearest_proxy) == (d, nearest)


def test_missing_reference_cost_errors():
    proxy = ProxySet(members=(("u", "1"), ("u", "2", "3")))
    proxy.ref_costs[("u", "1")] = 0
    model = ExplicitLanguageModel([("t",)])
    with pytest.raises(BoundsError, match="missing reference cost"):
        approximate_cost(("t",), proxy, model)


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
        compute_ref_costs(proxy, model)
        trace = random_trace(rng, alphabet + ["z"], 0, 7)
        exact = optimal_alignment(trace, model).cost
        result = approximate_cost(trace, proxy, model)
        assert result.lower <= exact <= result.upper
        assert result.lower <= result.estimate <= result.upper
        # the bracket width never exceeds twice the nearest-member distance
        assert result.upper - result.lower <= 2 * result.proxy_distance


def test_member_costs_are_exact():
    # a trace that is itself a member gets a zero-width bracket
    model = ExplicitLanguageModel([("a", "b"), ("c",)])
    proxy = ProxySet(members=(("a", "b"), ("c", "c")))
    compute_ref_costs(proxy, model)
    for member in proxy.members:
        result = approximate_cost(member, proxy, model)
        assert result.lower == result.upper == result.estimate
        assert result.estimate == proxy.ref_costs[member]


def test_structural_lower_bound_off_alphabet():
    # two activities the model cannot mirror push the floor above the proxy
    model = ExplicitLanguageModel([("a", "b", "c")])
    proxy = ProxySet(members=(("a", "b", "c"),))
    compute_ref_costs(proxy, model)
    result = approximate_cost(("a", "x", "y"), proxy, model)
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
            compute_ref_costs(proxy, model)
            trace = random_trace(rng, alphabet + ["x", "y"], 0, 5)
            cut = rng.randint(0, len(trace))
            trace = trace[:cut] + (rng.choice("xy"),) + trace[cut:]
            result = approximate_cost(trace, proxy, model)
            assert result.lower <= optimal_alignment(trace, model).cost <= result.upper
            structural += result.lower_source == LOWER_STRUCTURAL
        # the term is live: it alone sets the floor for some traces
        assert structural > 0


def test_structural_lower_bound_short_trace():
    model = ExplicitLanguageModel([("a", "b", "c")])
    proxy = ProxySet(members=(("a", "b", "c"),))
    compute_ref_costs(proxy, model)
    result = approximate_cost((), proxy, model)
    # three visible activities are unavoidable; the proxy floor clamps at 0
    assert result.lower == 3
    assert result.upper == 3
    assert result.lower_source == LOWER_STRUCTURAL


def test_lower_source_both_on_perfect_members():
    # members inside the model language: the proxy floor and the structural
    # floor both sit at zero for fitting traces
    model = ExplicitLanguageModel([("a", "b"), ("a", "c", "b")])
    proxy = ProxySet(members=(("a", "b"),))
    compute_ref_costs(proxy, model)
    assert proxy.ref_costs[("a", "b")] == 0
    result = approximate_cost(("a", "c", "b"), proxy, model)
    assert result.lower == 0
    assert result.lower_source == LOWER_BOTH


def test_half_distance_estimator():
    model = ExplicitLanguageModel([("a", "b", "c", "d"), ("x", "y")])
    proxy = ProxySet(members=(("a", "b", "c", "d"),))
    compute_ref_costs(proxy, model)
    # in-alphabet deviations: bracket [0, 2], estimate half the distance
    trace = ("a", "b", "x", "y", "c", "d")
    result = approximate_cost(trace, proxy, model, estimator=ESTIMATOR_HALF_DISTANCE)
    assert result.proxy_distance == 2
    assert result.estimate == Fraction(1)
    assert result.lower <= result.estimate <= result.upper
    # off-alphabet deviations raise the floor; the estimate clamps into it
    clamped = approximate_cost(
        ("a", "b", "q", "r", "c", "d"), proxy, model, estimator=ESTIMATOR_HALF_DISTANCE
    )
    assert clamped.lower == clamped.upper == 2
    assert clamped.estimate == Fraction(2)


def test_half_distance_requires_zero_costs():
    model = ExplicitLanguageModel([("a", "b")])
    proxy = ProxySet(members=(("a", "b", "c"),))
    compute_ref_costs(proxy, model)
    assert proxy.ref_costs[("a", "b", "c")] == 1
    with pytest.raises(BoundsError, match="zero"):
        approximate_cost(("a",), proxy, model, estimator=ESTIMATOR_HALF_DISTANCE)


def test_weighted_estimator_moves_inside_bracket():
    model = ExplicitLanguageModel([("a", "b", "c")])
    proxy = ProxySet(members=(("a", "b", "c", "d", "e"),))
    compute_ref_costs(proxy, model)
    trace = ("a", "q", "c")
    low = approximate_cost(trace, proxy, model, upper_weight=Fraction(0))
    mid = approximate_cost(trace, proxy, model)
    high = approximate_cost(trace, proxy, model, upper_weight=Fraction(1))
    assert low.estimate == low.lower
    assert high.estimate == high.upper
    assert mid.estimate == Fraction(low.lower + high.upper, 2)
    with pytest.raises(BoundsError):
        approximate_cost(trace, proxy, model, upper_weight=Fraction(3, 2))


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
        compute_ref_costs(small, model)
        compute_ref_costs(big, model)
        trace = random_trace(rng, alphabet, 0, 6)
        wide = approximate_cost(trace, small, model)
        narrow = approximate_cost(trace, big, model)
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
def test_approximate_log_same_bytes_with_and_without_a_matrix(strategy):
    spec = SyntheticSpec(
        alphabet_size=5,
        model_trace_count=4,
        model_trace_length=(3, 7),
        log_variant_count=30,
        noise_ops=(0, 3),
        seed=13,
    )
    model, log = generate_synthetic(spec)
    matrix = distance_matrix(log.variant_traces)
    params = StrategyParams(strategy=strategy, size_percent=Fraction(20), seed=3)
    reports = [
        approximate_log(log, model, params=params, matrix=m) for m in (None, matrix)
    ]
    blobs = [write_report(strip_timings(r)) for r in reports]
    assert blobs[0] == blobs[1]
    # the table rows give what the single-trace bracket computes itself
    for result, _ in reports[1].per_variant:
        assert approximate_cost(result.trace, reports[1].proxy, model) == result
    # members outside the matrix labels are scanned, not looked up
    proxy = ProxySet(members=(("z",), *reports[0].proxy.members))
    blobs = [
        write_report(strip_timings(approximate_log(log, model, proxy=proxy, matrix=m)))
        for m in (None, matrix)
    ]
    assert blobs[0] == blobs[1]
