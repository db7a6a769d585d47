import random
from itertools import zip_longest

import pytest

from alignbound import fixtures
from alignbound.aligner import (
    Alignment,
    Move,
    MoveKind,
    _edit_moves,
    alignment_cost,
    optimal_alignment,
    optimal_cost,
)
from alignbound.distance import MatchMasks, edit_distance
from alignbound.errors import StateBoundError
from alignbound.model import (
    DEFAULT_STATE_BOUND,
    ExplicitLanguageModel,
    PetriNetModel,
    Transition,
    parse_pnml,
)

from conftest import (
    align_petri_reference,
    edit_moves_table,
    enumerate_alignment_cost,
    naive_edit_distance,
    noisy_walk,
    random_trace,
    search_nets,
    split_escaped,
    with_x_runs,
)


def test_perfect_fit_costs_nothing(loop_language):
    result = optimal_alignment(("a", "c", "b", "d", "b", "e"), loop_language)
    assert result.cost == 0
    assert all(m.kind is MoveKind.SYNC for m in result.alignment.moves)


def test_known_cost_on_loop_language(loop_language):
    result = optimal_alignment(("a", "c", "c", "b", "d", "e"), loop_language)
    assert result.cost == 2


def test_known_cost_on_loop_net(loop_net):
    result = optimal_alignment(("a", "c", "c", "b", "d", "e"), loop_net)
    assert result.cost == 2


def test_missing_head_and_spurious_activity(loop_net):
    # starts without a, and d fires without a following b
    result = optimal_alignment(("b", "d", "e"), loop_net)
    assert result.cost == 2
    # of the cost-2 alignments, the deepest-first order keeps d synchronised:
    # it inserts a, and a second b after d loops back (tau skips c)
    tokens = [m.token() for m in result.alignment.moves]
    assert tokens == ["model:a", "sync:b", "sync:d", "tau", "model:b", "sync:e"]
    _assert_replays(result.alignment, ("b", "d", "e"), loop_net)


def test_move_tokens_split_back_at_unescaped_spaces():
    # labels over a space, a backslash and a letter, joined as exact
    # --dump-moves joins them
    rng = random.Random(43)
    for _ in range(200):
        labels = ["".join(rng.choices(" \\a", k=rng.randint(0, 4))) for _ in range(4)]
        moves = [Move(rng.choice(list(MoveKind)), label) for label in labels]
        tokens = split_escaped(" ".join(m.token() for m in moves), " ")
        expected = [
            "tau" if m.kind is MoveKind.SILENT else f"{m.kind.value}:{m.activity}"
            for m in moves
        ]
        assert tokens == expected, moves
    assert Move(MoveKind.MODEL, "Create Order").token() == r"model:Create\ Order"
    assert Move(MoveKind.LOG, "a\\b").token() == r"log:a\\b"


def test_unsupported_model_type_is_a_type_error():
    with pytest.raises(TypeError, match="^unsupported model type object$"):
        optimal_alignment(("a",), object())


def test_empty_trace_cost_is_min_visible_length(loop_language, loop_net):
    assert optimal_alignment((), loop_language).cost == 3
    assert optimal_alignment((), loop_net).cost == 3


def test_cost_equals_projection_distance(loop_language, loop_net):
    # the model-side projection explains the cost exactly
    rng = random.Random(23)
    alphabet = ["a", "b", "c", "d", "e", "x"]
    for model in (loop_language, loop_net):
        for _ in range(40):
            trace = random_trace(rng, alphabet, 0, 7)
            result = optimal_alignment(trace, model)
            projection = result.alignment.model_projection
            assert result.cost == alignment_cost(result.alignment)
            assert result.cost == edit_distance(trace, projection)


def drawn_explicit_cases(seed, count):
    """``(model, trace)`` pairs over the labels a-d, the trace drawn in turn
    at random, from the language, with labels x or y outside the alphabet,
    and shorter than every model trace."""
    rng = random.Random(seed)
    alphabet = ["a", "b", "c", "d"]
    for n in range(count):
        traces = {random_trace(rng, alphabet, 1, 6) for _ in range(rng.randint(1, 6))}
        model = ExplicitLanguageModel(traces)
        kind = n % 4
        if kind == 0:
            trace = random_trace(rng, alphabet, 0, 6)
        elif kind == 1:
            trace = rng.choice(model.traces)
        elif kind == 2:
            trace = list(random_trace(rng, [*alphabet, "x", "y"], 0, 5))
            trace.insert(rng.randint(0, len(trace)), rng.choice("xy"))
            trace = tuple(trace)
        else:
            trace = random_trace(rng, alphabet, 0, model.min_visible_length - 1)
        yield model, trace


def test_explicit_backend_is_minimum_over_language():
    for model, trace in drawn_explicit_cases(29, 120):
        result = optimal_alignment(trace, model)
        distances = [naive_edit_distance(trace, t) for t in model.traces]
        expected = min(distances)
        assert result.cost == expected
        # the canonical representative: the first model trace at the minimum
        first = model.traces[distances.index(expected)]
        assert result.alignment.model_projection == first


def test_explicit_search_stops_at_the_certificate(monkeypatch):
    # a trace of the language is found without a distance; any other trace
    # is at least max(1, events outside the alphabet + missing length) from
    # every model trace, so the scan ends at the first model trace there
    import alignbound.aligner as aligner_module

    calls = []

    def counting_distance(*args, **kwargs):
        calls.append(args)
        return edit_distance(*args, **kwargs)

    monkeypatch.setattr(aligner_module, "edit_distance", counting_distance)
    seen = set()
    for model, trace in drawn_explicit_cases(37, 160):
        distances = [naive_edit_distance(trace, t) for t in model.traces]
        outside = sum(a not in model.alphabet for a in trace)
        certificate = max(1, outside + max(0, model.min_visible_length - len(trace)))
        if trace in model.traces:
            expected, case = 0, "member"
        elif min(distances) == certificate:
            expected, case = distances.index(certificate) + 1, "at certificate"
        else:
            expected, case = len(model.traces), "full scan"
        seen.add(case)
        for search in (optimal_alignment, optimal_cost):
            calls.clear()
            search(trace, model)
            assert len(calls) == expected, (case, trace, model.traces)
        # the work count is the number of model traces compared
        assert optimal_cost(trace, model) == (min(distances), expected)
    assert seen == {"member", "at certificate", "full scan"}


def test_matches_exhaustive_edit_script_enumeration():
    rng = random.Random(31)
    alphabet = ["a", "b", "c"]
    for _ in range(25):
        traces = {random_trace(rng, alphabet, 1, 5) for _ in range(rng.randint(1, 6))}
        model = ExplicitLanguageModel(traces)
        trace = random_trace(rng, alphabet, 0, 6)
        result = optimal_alignment(trace, model)
        assert result.cost == enumerate_alignment_cost(trace, model.traces)


def test_backends_agree_on_loop_free_net():
    pnml = """<?xml version="1.0"?>
    <pnml><net id="n"><page id="pg">
      <place id="p0"><initialMarking><text>1</text></initialMarking></place>
      <place id="p1"/><place id="p2"/>
      <transition id="t_a"><name><text>a</text></name></transition>
      <transition id="t_b"><name><text>b</text></name></transition>
      <transition id="t_c"><name><text>c</text></name></transition>
      <transition id="t_skip"/>
      <arc id="a1" source="p0" target="t_a"/>
      <arc id="a2" source="t_a" target="p1"/>
      <arc id="a3" source="p1" target="t_b"/>
      <arc id="a4" source="p1" target="t_c"/>
      <arc id="a5" source="t_b" target="p2"/>
      <arc id="a6" source="t_c" target="p2"/>
      <arc id="a7" source="p1" target="t_skip"/>
      <arc id="a8" source="t_skip" target="p2"/>
    </page></net></pnml>"""
    net = parse_pnml(pnml, final_marking={"p2": 1})
    twin = ExplicitLanguageModel([("a", "b"), ("a", "c"), ("a",)])
    rng = random.Random(37)
    alphabet = ["a", "b", "c", "x"]
    for _ in range(50):
        trace = random_trace(rng, alphabet, 0, 5)
        assert (
            optimal_alignment(trace, net).cost == optimal_alignment(trace, twin).cost
        )


def _assert_replays(alignment, trace, net):
    """The model side of ``alignment`` fires on ``net`` from the initial to
    the final marking, each visible move under its transition's label, and
    its log side is ``trace``."""
    tids = {t.tid: i for i, t in enumerate(net.transitions)}
    marking = net.initial_marking
    for move in alignment.moves:
        if move.kind is MoveKind.LOG:
            continue
        ti = tids[move.transition]
        if move.kind is not MoveKind.SILENT:
            assert move.activity == net.transitions[ti].label, (trace, move)
        assert net.enabled(marking, ti), (trace, move)
        marking = net.fire(marking, ti)
    assert marking == net.final_marking, trace
    assert alignment.log_projection == trace


@search_nets
def test_net_replay_reaches_final_marking(make_net, alphabet):
    # whichever optimal alignment the search order picks, it replays on the
    # net and its log and model moves add up to the optimal cost
    net = make_net()
    for trace in _cost_traces(random.Random(41), make_net, alphabet):
        result = optimal_alignment(trace, net)
        _assert_replays(result.alignment, trace, net)
        assert alignment_cost(result.alignment) == result.cost, trace
        assert result.cost == optimal_cost(trace, net)[0], trace


def test_deterministic_representative(loop_net):
    first = optimal_alignment(("a", "c", "c", "b", "d", "e"), loop_net)
    for _ in range(3):
        again = optimal_alignment(("a", "c", "c", "b", "d", "e"), loop_net)
        assert again.alignment == first.alignment


def test_state_bound_aborts_alignment():
    # the same net with a tiny bound must refuse instead of degrading; the
    # off-alphabet trace forces the search through many costly layers
    trace = tuple(f"z{i}" for i in range(8))
    # the bound counts expanded states, not successor-memo misses: a net
    # whose memo already holds every reachable marking stops at the same point
    warmed = fixtures.parallel_loop_petri(state_bound=20)
    assert warmed.probe_fired(1000)[1]
    for net in (fixtures.parallel_loop_petri(state_bound=20), warmed):
        # the message names the bound, the states expanded and the trace
        with pytest.raises(
            StateBoundError,
            match=r"state bound 20 exceeded after expanding 21 states while "
            r"aligning <z0,z1,z2,z3,z4,z5,z6,z7>",
        ):
            optimal_alignment(trace, net)


def _search_outcome(alignment, cost, states):
    return (
        cost,
        tuple(m.token() for m in alignment.moves),
        tuple(m.transition for m in alignment.moves),
        states,
    )


@search_nets
def test_net_search_matches_reference(make_net, alphabet):
    # equal cost, moves, transitions and work as the three-scan search;
    # the successor memo must not change any of them, so every trace is
    # also aligned on a net whose memo every other trace has filled
    rng = random.Random(53)
    short = [(), ("x",)]
    short += [random_trace(rng, alphabet, 0, 8) for _ in range(20)]
    short += [noisy_walk(rng, make_net(), alphabet, 3) for _ in range(30)]
    # long traces fill large cost levels over many trace positions; runs of the
    # off-alphabet x are log moves, each one level up
    long = [random_trace(rng, alphabet, 15, 25) for _ in range(6)]
    long += [
        with_x_runs(rng, noisy_walk(rng, make_net(), alphabet, 3)) for _ in range(6)
    ]
    # long and short in turn, so the warmed net's memo serves one marking
    # id to searches with different strides
    traces = [t for pair in zip_longest(short, long) for t in pair if t is not None]
    assert any("x" in t and len(t) > 1 for t in traces)
    warmed = make_net()
    for trace in traces:
        optimal_alignment(trace, warmed)
    for trace in traces:
        expected = _search_outcome(*align_petri_reference(trace, make_net()))
        for net in (make_net(), warmed):
            result = optimal_alignment(trace, net)
            outcome = _search_outcome(
                result.alignment, result.cost, result.states_expanded
            )
            assert outcome == expected, trace


@search_nets
def test_state_bound_allows_exactly_the_states_a_search_expands(make_net, alphabet):
    # a search that expands s states succeeds under a bound of s, with the
    # same result, and fails on its s-th state under a bound of s - 1
    rng = random.Random(59)
    traces = [random_trace(rng, alphabet, 0, 10) for _ in range(15)]
    traces += [noisy_walk(rng, make_net(), alphabet, 3) for _ in range(15)]
    net = make_net()
    for trace in traces:
        net.state_bound = DEFAULT_STATE_BOUND
        free = optimal_alignment(trace, net)
        states = free.states_expanded
        assert states >= 2, trace
        net.state_bound = states
        bounded = optimal_alignment(trace, net)
        assert _search_outcome(
            bounded.alignment, bounded.cost, bounded.states_expanded
        ) == _search_outcome(free.alignment, free.cost, states), trace
        net.state_bound = states - 1
        with pytest.raises(
            StateBoundError,
            match=f"^state bound {states - 1} exceeded after expanding {states} states",
        ):
            optimal_alignment(trace, net)


def _cost_and_work(trace, model):
    result = optimal_alignment(trace, model)
    return result.cost, result.states_expanded


def test_optimal_cost_matches_optimal_alignment_explicit():
    # the empty trace and off-alphabet labels (x, y) included
    rng = random.Random(61)
    for _ in range(80):
        traces = {random_trace(rng, "abcd", 0, 6) for _ in range(rng.randint(1, 6))}
        model = ExplicitLanguageModel(traces)
        for trace in ((), ("x",), random_trace(rng, "abcdxy", 0, 8)):
            assert optimal_cost(trace, model) == _cost_and_work(trace, model), trace


def _cost_traces(rng, make_net, alphabet):
    traces = [(), ("x",), ("x", "x", "x")]
    traces += [random_trace(rng, alphabet, 0, 10) for _ in range(15)]
    traces += [noisy_walk(rng, make_net(), alphabet, 3) for _ in range(15)]
    traces += [
        with_x_runs(rng, noisy_walk(rng, make_net(), alphabet, 2)) for _ in range(4)
    ]
    return traces


@search_nets
def test_optimal_cost_matches_optimal_alignment_on_nets(make_net, alphabet):
    # the cost-only search is the traced one without its traceback: equal
    # cost and work on a fresh net and on one whose memo every other trace
    # has filled, and the same state bound message one state short
    traces = _cost_traces(random.Random(67), make_net, alphabet)
    warmed = make_net()
    for trace in traces:
        optimal_cost(trace, warmed)
    for trace in traces:
        expected = _cost_and_work(trace, make_net())
        assert optimal_cost(trace, make_net()) == expected, trace
        assert optimal_cost(trace, warmed) == expected, trace
        assert _cost_and_work(trace, warmed) == expected, trace
        states = expected[1]
        bounded = make_net()
        bounded.state_bound = states - 1
        messages = []
        for search in (optimal_alignment, optimal_cost):
            with pytest.raises(StateBoundError) as raised:
                search(trace, bounded)
            messages.append(str(raised.value))
        assert messages[0] == messages[1], trace
        assert messages[0].startswith(
            f"state bound {states - 1} exceeded after expanding {states} states"
        )


def twin_move_net():
    """p0 -> p1 -> p2 with a visible self-loop t_a on p0, a silent t_skip
    and a visible t_b both from p0 to p1, t_c from p1 to p2, and a silent
    t_redo from p1 back to p0.  A sync move of t_a and the log move of a
    lead to the same state, and so do t_skip and a model move of t_b."""
    transitions = [
        Transition("t_a", "a"),
        Transition("t_skip", None),
        Transition("t_b", "b"),
        Transition("t_c", "c"),
        Transition("t_redo", None),
    ]
    inputs = [[0], [0], [0], [1], [1]]
    outputs = [[0], [1], [1], [2], [0]]
    return PetriNetModel(
        ["p0", "p1", "p2"], transitions, inputs, outputs, [1, 0, 0], [0, 0, 1]
    )


def test_traceback_tells_moves_apart_by_transition_and_position():
    # the rebuilt moves name the transition fired and tell a sync move from
    # a log or model move by whether the trace position advanced
    rng = random.Random(73)
    traces = [(), ("a",), ("b",), ("a", "a"), ("c", "a")]
    traces += [random_trace(rng, "abcx", 0, 8) for _ in range(60)]
    seen = set()
    for trace in traces:
        expected = _search_outcome(*align_petri_reference(trace, twin_move_net()))
        result = optimal_alignment(trace, twin_move_net())
        assert (
            _search_outcome(result.alignment, result.cost, result.states_expanded)
            == expected
        ), trace
        seen.update(zip(expected[1], expected[2]))
    for move in [
        ("sync:a", "t_a"),
        ("log:a", None),
        ("tau", "t_skip"),
        ("sync:b", "t_b"),
        ("model:c", "t_c"),
        ("tau", "t_redo"),
    ]:
        assert move in seen, move


# summed states_expanded of the seeded trace set of the test below, per net;
# a breadth-first last cost level expanded 943 and 10,221
PINNED_WORK = {"parallel_loop_petri": 774, "three_branch_net": 8260}


@search_nets
def test_net_search_work_count_is_pinned(make_net, alphabet):
    # a change of search order or tie-break moves the sum of the states the
    # searches expand, which a timing cannot show on a noisy machine
    traces = _cost_traces(random.Random(71), make_net, alphabet)
    net = make_net()
    costs = sum(optimal_cost(trace, net)[1] for trace in traces)
    net = make_net()
    alignments = sum(optimal_alignment(trace, net).states_expanded for trace in traces)
    assert costs == alignments == PINNED_WORK[make_net.__name__]


@search_nets
def test_min_visible_length_is_the_empty_trace_cost(make_net, alphabet):
    # the net takes it from the aligner, so the reference search checks it
    net = make_net()
    assert net.min_visible_length == align_petri_reference((), net)[1]
    assert net.min_visible_length > 0


def test_alignment_cost_counts_visible_moves_only():
    alignment = Alignment(
        moves=(
            Move(MoveKind.SYNC, "a"),
            Move(MoveKind.SILENT, None),
            Move(MoveKind.MODEL, "b"),
            Move(MoveKind.LOG, "c"),
        )
    )
    assert alignment_cost(alignment) == 2
    assert alignment.model_projection == ("a", "b")
    assert alignment.log_projection == ("a", "c")


def test_naive_oracle_agreement_explicit():
    rng = random.Random(47)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(100):
        traces = {random_trace(rng, alphabet, 1, 8) for _ in range(rng.randint(1, 8))}
        model = ExplicitLanguageModel(traces)
        trace = random_trace(rng, alphabet, 0, 8)
        assert optimal_alignment(trace, model).cost == min(
            naive_edit_distance(trace, t) for t in model.traces
        )


def test_edit_moves_match_the_table_traceback():
    # the walk back on the LCS state vectors against the full LCS table:
    # empty traces, a two-letter alphabet for long runs of repeated labels,
    # and both sides longer than a byte
    rng = random.Random(53)
    pairs = [((), ()), ((), ("a",)), (("a",), ()), (("a", "a", "a"), ("a",))]
    for alphabet, hi in ((["a", "b"], 12), (["a", "b", "c", "d", "e"], 20)):
        for _ in range(300):
            pairs.append(
                (random_trace(rng, alphabet, 0, hi), random_trace(rng, alphabet, 0, hi))
            )
    for log_trace, model_trace in pairs:
        expected = edit_moves_table(log_trace, model_trace)
        assert _edit_moves(MatchMasks(log_trace), model_trace) == expected
