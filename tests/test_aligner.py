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
)
from alignbound.distance import MatchMasks, edit_distance
from alignbound.errors import StateBoundError
from alignbound.model import (
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
    random_trace,
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
    kinds = [(m.kind, m.activity) for m in result.alignment.moves]
    assert (MoveKind.MODEL, "a") in kinds
    assert (MoveKind.LOG, "d") in kinds


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


def test_explicit_backend_is_minimum_over_language():
    rng = random.Random(29)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(60):
        traces = {random_trace(rng, alphabet, 1, 6) for _ in range(rng.randint(1, 6))}
        model = ExplicitLanguageModel(traces)
        trace = random_trace(rng, alphabet, 0, 6)
        result = optimal_alignment(trace, model)
        expected = min(edit_distance(trace, t) for t in model.traces)
        assert result.cost == expected
        assert result.alignment.model_projection in model


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


def test_net_replay_reaches_final_marking(loop_net):
    rng = random.Random(41)
    alphabet = ["a", "b", "c", "d", "e", "z"]
    for _ in range(30):
        trace = random_trace(rng, alphabet, 0, 6)
        result = optimal_alignment(trace, loop_net)
        marking = loop_net.initial_marking
        tids = {t.tid: i for i, t in enumerate(loop_net.transitions)}
        for move in result.alignment.moves:
            if move.kind is MoveKind.LOG:
                continue
            ti = tids[move.transition]
            assert loop_net.enabled(marking, ti)
            marking = loop_net.fire(marking, ti)
        assert marking == loop_net.final_marking
        assert result.alignment.log_projection == trace


def test_deterministic_representative(loop_net):
    first = optimal_alignment(("a", "c", "c", "b", "d", "e"), loop_net)
    for _ in range(3):
        again = optimal_alignment(("a", "c", "c", "b", "d", "e"), loop_net)
        assert again.alignment == first.alignment


def test_heuristic_never_changes_cost(loop_net):
    rng = random.Random(43)
    alphabet = ["a", "b", "c", "d", "e", "q", "r"]
    for _ in range(30):
        trace = random_trace(rng, alphabet, 0, 6)
        plain = optimal_alignment(trace, loop_net, heuristic=False)
        guided = optimal_alignment(trace, loop_net, heuristic=True)
        assert plain.cost == guided.cost
    # off-alphabet activities make the heuristic informative
    trace = ("q", "r", "q", "r")
    assert (
        optimal_alignment(trace, loop_net, heuristic=True).states_expanded
        <= optimal_alignment(trace, loop_net, heuristic=False).states_expanded
    )


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


def three_branch_net():
    """a, then an AND-split into three branches, then z.  Branch i runs
    three activities, the middle one skippable by a silent transition, and
    a silent redo returns it to its start.  Labels c and b occur in two
    branches each, so one label can enable several transitions at once."""
    branches = (("b", "c", "d"), ("e", "c", "g"), ("h", "i", "b"))
    places = ["start", "end"]
    transitions = [Transition("t_a", "a"), Transition("t_z", "z")]
    inputs = [[0], []]
    outputs = [[], [1]]
    for i, (first, middle, last) in enumerate(branches, start=1):
        q = list(range(len(places), len(places) + 4))
        places.extend(f"q{i}_{s}" for s in range(4))
        outputs[0].append(q[0])
        inputs[1].append(q[3])
        for tid, label, src, dst in (
            (f"t{i}_{first}", first, q[0], q[1]),
            (f"t{i}_{middle}", middle, q[1], q[2]),
            (f"t{i}_skip", None, q[1], q[2]),
            (f"t{i}_{last}", last, q[2], q[3]),
            (f"t{i}_redo", None, q[3], q[0]),
        ):
            transitions.append(Transition(tid, label))
            inputs.append([src])
            outputs.append([dst])
    initial = [1] + [0] * (len(places) - 1)
    final = [0, 1] + [0] * (len(places) - 2)
    return PetriNetModel(places, transitions, inputs, outputs, initial, final)


def _search_outcome(alignment, cost, states):
    return (
        cost,
        tuple(m.token() for m in alignment.moves),
        tuple(m.transition for m in alignment.moves),
        states,
    )


def noisy_walk(rng, net, alphabet, max_ops):
    """The visible labels of a random firing sequence from the initial to
    the final marking, then up to ``max_ops`` random deletions and
    insertions drawn from ``alphabet``."""
    while True:
        marking, trace = net.initial_marking, []
        while marking != net.final_marking and len(trace) < 12:
            ti = rng.choice(
                [i for i in range(len(net.transitions)) if net.enabled(marking, i)]
            )
            marking = net.fire(marking, ti)
            if not net.transitions[ti].silent:
                trace.append(net.transitions[ti].label)
        if marking == net.final_marking:
            break
    for _ in range(rng.randint(0, max_ops)):
        if trace and rng.random() < 0.5:
            del trace[rng.randrange(len(trace))]
        else:
            trace.insert(rng.randint(0, len(trace)), rng.choice(alphabet))
    return tuple(trace)


def with_x_runs(rng, trace):
    """``trace`` with two runs of two to four off-alphabet ``x`` inserted."""
    trace = list(trace)
    for _ in range(2):
        at = rng.randint(0, len(trace))
        trace[at:at] = ["x"] * rng.randint(2, 4)
    return tuple(trace)


# the nets the search is checked on, each with the alphabet its random
# traces are drawn from (x is outside both nets' alphabets)
search_nets = pytest.mark.parametrize(
    "make_net, alphabet",
    [(fixtures.parallel_loop_petri, "abcdex"), (three_branch_net, "abcdeghizx")],
    ids=["loop_net", "three_branch_net"],
)


@pytest.mark.parametrize("heuristic", [False, True])
@search_nets
def test_net_search_matches_reference(make_net, alphabet, heuristic):
    # equal cost, moves, transitions and work as the three-scan search;
    # the successor memo must not change any of them, so every trace is
    # also aligned on a net whose memo every other trace has filled
    rng = random.Random(53)
    short = [(), ("x",)]
    short += [random_trace(rng, alphabet, 0, 8) for _ in range(20)]
    short += [noisy_walk(rng, make_net(), alphabet, 3) for _ in range(30)]
    # long traces fill large buckets over many f levels; runs of the
    # off-alphabet x are log moves that keep f under the heuristic
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
        optimal_alignment(trace, warmed, heuristic=heuristic)
    for trace in traces:
        expected = _search_outcome(*align_petri_reference(trace, make_net(), heuristic))
        for net in (make_net(), warmed):
            result = optimal_alignment(trace, net, heuristic=heuristic)
            outcome = _search_outcome(
                result.alignment, result.cost, result.states_expanded
            )
            assert outcome == expected, trace


@pytest.mark.parametrize("heuristic", [False, True])
@search_nets
def test_min_visible_length_is_the_empty_trace_cost(make_net, alphabet, heuristic):
    # the model's own search and the aligner compute this number separately
    net = make_net()
    assert net.min_visible_length == optimal_alignment((), net, heuristic).cost
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
