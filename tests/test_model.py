import re

import pytest

from alignbound import fixtures
from alignbound.aligner import optimal_cost
from alignbound.errors import ModelError, StateBoundError
from alignbound.model import (
    ExplicitLanguageModel,
    PetriNetModel,
    Transition,
    parse_explicit_language,
    parse_final_marking_json,
    parse_pnml,
    serialize_explicit_language,
)
from conftest import successors_reference, three_branch_net


def test_parse_explicit_language_basics():
    model = parse_explicit_language("a,b\n-\n\na,b\nc\n")
    assert model.traces == ((), ("c",), ("a", "b"))
    assert model.alphabet == {"a", "b", "c"}
    assert model.min_visible_length == 0
    assert ("a", "b") in model
    assert ("b",) not in model


def test_parse_explicit_language_drops_byte_order_mark():
    model = parse_explicit_language(b"\xef\xbb\xbfa,b\n")
    assert model.traces == (("a", "b"),)
    assert model.alphabet == {"a", "b"}


def test_parse_explicit_language_invalid_utf8_is_a_model_error():
    with pytest.raises(ModelError, match="^language file is not valid UTF-8: "):
        parse_explicit_language(b"a,\xff\n")


def test_parse_explicit_language_rejects_empty_file():
    with pytest.raises(ModelError):
        parse_explicit_language("\n\n")
    with pytest.raises(ModelError, match="^model language must contain at least one trace$"):
        ExplicitLanguageModel(())


def test_parse_explicit_language_rejects_empty_label():
    with pytest.raises(ModelError, match="line 1"):
        parse_explicit_language("a,,b\n")


def test_serialize_round_trip():
    model = parse_explicit_language("b,a\n-\nc\n")
    text = serialize_explicit_language(model.traces)
    assert parse_explicit_language(text).traces == model.traces
    assert text.splitlines()[0] == "-"


def test_serialize_rejects_a_lone_dash_label():
    # the line "-" reads back as the empty trace; "-" beside another label
    # does not
    with pytest.raises(ValueError, match="^label '-' cannot be carried alone "):
        serialize_explicit_language([("a",), ("-",)])
    text = serialize_explicit_language([("-", "a"), ("a", "-")])
    assert parse_explicit_language(text).traces == (("-", "a"), ("a", "-"))


def test_serialize_rejects_a_label_holding_a_line_boundary():
    # parse_explicit_language splits lines where str.splitlines does
    for boundary in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        label = f"a{boundary}b"
        message = f"^label {re.escape(repr(label))} cannot be carried by "
        with pytest.raises(ValueError, match=message):
            serialize_explicit_language([("c",), ("c", label)])


def test_min_visible_length_explicit():
    assert ExplicitLanguageModel([("a", "b"), ("c",)]).min_visible_length == 1


PNML_SEQUENCE = """<?xml version="1.0"?>
<pnml><net id="n"><page id="p">
  <place id="p0"><initialMarking><text>1</text></initialMarking></place>
  <place id="p1"/>
  <place id="p2"/>
  <place id="p3"/>
  <transition id="t_a"><name><text>a</text></name></transition>
  <transition id="t_b"><name><text>b</text></name></transition>
  <transition id="t_skip"/>
  <transition id="t_c"><name><text>c</text></name></transition>
  <arc id="a1" source="p0" target="t_a"/>
  <arc id="a2" source="t_a" target="p1"/>
  <arc id="a3" source="p1" target="t_b"/>
  <arc id="a4" source="t_b" target="p2"/>
  <arc id="a5" source="p1" target="t_skip"/>
  <arc id="a6" source="t_skip" target="p2"/>
  <arc id="a7" source="p2" target="t_c"/>
  <arc id="a8" source="t_c" target="p3"/>
</page></net></pnml>
"""


def test_parse_pnml_silent_skip_shortens_visible_path():
    net = parse_pnml(PNML_SEQUENCE, final_marking={"p3": 1})
    assert net.alphabet == {"a", "b", "c"}
    # a-skip-c beats a-b-c on visible length
    assert net.min_visible_length == 2


def test_parse_pnml_silent_label_sentinel():
    data = PNML_SEQUENCE.replace(
        "<transition id=\"t_skip\"/>",
        "<transition id=\"t_skip\"><name><text>tau</text></name></transition>",
    )
    net_plain = parse_pnml(data, final_marking={"p3": 1})
    assert net_plain.min_visible_length == 3  # tau is a visible label here
    net = parse_pnml(data, final_marking={"p3": 1}, silent_label="tau")
    assert net.min_visible_length == 2


def test_parse_pnml_dangling_arc_named():
    data = PNML_SEQUENCE.replace('source="p0"', 'source="missing"', 1)
    with pytest.raises(ModelError, match="a1"):
        parse_pnml(data, final_marking={"p3": 1})


@pytest.mark.parametrize(
    "encoding, message",
    [
        ("latin-9", "unknown encoding: latin-9"),
        ("shift_jis", "multi-byte encodings are not supported"),
    ],
)
def test_parse_pnml_unreadable_encoding(encoding, message):
    data = PNML_SEQUENCE.replace("?>", f' encoding="{encoding}"?>', 1)
    with pytest.raises(ModelError, match=f"^malformed PNML: {message}"):
        parse_pnml(data, final_marking={"p3": 1})


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('<place id="p3"/>', "<place/>", "^place without an id$"),
        ('<place id="p3"/>', '<place id="p2"/>', "^duplicate place id 'p2'$"),
        ("<text>1</text>", "<text>one</text>", "^place 'p0' has a non-integer initial marking$"),
        ('<transition id="t_skip"/>', "<transition/>", "^transition without an id$"),
        ('<transition id="t_skip"/>', '<transition id="t_b"/>', "^duplicate transition ids$"),
        (
            '<arc id="a8" source="t_c" target="p3"/>',
            '<arc id="a8" source="p0" target="t_a"/>',
            r"^duplicate arc 'a8' \(p0 -> t_a\)$",
        ),
    ],
)
def test_parse_pnml_rejects_a_malformed_element(old, new, message):
    assert old in PNML_SEQUENCE
    with pytest.raises(ModelError, match=message):
        parse_pnml(PNML_SEQUENCE.replace(old, new, 1), final_marking={"p3": 1})


# p0 -> t(a) -> p1 and p0 -> u(b) -> p1; INSCRIPTION goes into arc w1
PNML_WEIGHTED = """<pnml><net id="n"><page id="p">
  <place id="p0"><initialMarking><text>1</text></initialMarking></place>
  <place id="p1"/>
  <transition id="t"><name><text>a</text></name></transition>
  <transition id="u"><name><text>b</text></name></transition>
  <arc id="w1" source="p0" target="t">INSCRIPTION</arc>
  <arc id="w2" source="t" target="p1"/>
  <arc id="w3" source="p0" target="u"/>
  <arc id="w4" source="u" target="p1"/>
</page></net></pnml>
"""


def test_parse_pnml_rejects_a_weighted_arc():
    # a weight-2 arc from a one-token place leaves t dead, so <a> costs 2;
    # read as a unit arc it would cost 0
    data = PNML_WEIGHTED.replace("INSCRIPTION", "<inscription><text>2</text></inscription>")
    with pytest.raises(ModelError, match="^arc 'w1' has inscription '2'") as info:
        parse_pnml(data, final_marking={"p1": 1})
    assert info.value.code == "model"


def test_parse_pnml_unit_inscription_is_a_plain_arc():
    plain = parse_pnml(PNML_WEIGHTED.replace("INSCRIPTION", ""), final_marking={"p1": 1})
    unit = parse_pnml(
        PNML_WEIGHTED.replace("INSCRIPTION", "<inscription><text> 1 </text></inscription>"),
        final_marking={"p1": 1},
    )
    for net in (plain, unit):
        assert (net.places, net.transitions) == (plain.places, plain.transitions)
        assert (net.inputs, net.outputs) == (plain.inputs, plain.outputs)
        costs = [optimal_cost(trace, net)[0] for trace in ((), ("a",), ("b",), ("a", "b"))]
        assert costs == [1, 0, 0, 1]


PNML_TYPED = """<pnml><net id="n"><page id="p">
  <place id="p0"><initialMarking><text>1</text></initialMarking></place>
  <place id="p1"/>
  <place id="q"><initialMarking><text>1</text></initialMarking></place>
  <transition id="t"><name><text>a</text></name></transition>
  <arc id="a1" source="p0" target="t"/>
  <arc id="a2" source="t" target="p1"/>
  <arc id="a3" source="q" target="t">TYPE</arc>
</page></net></pnml>
"""


def test_parse_pnml_rejects_an_inhibitor_arc():
    # an inhibitor arc from the marked place q leaves t dead; read as an
    # input arc, t would take q's token and align <a> at cost 0
    data = PNML_TYPED.replace("TYPE", '<type value="inhibitor"/>')
    with pytest.raises(ModelError, match="^arc 'a3' has type 'inhibitor'") as info:
        parse_pnml(data, final_marking={"p1": 1})
    assert info.value.code == "model"


def test_parse_pnml_normal_type_is_a_plain_arc():
    plain = parse_pnml(PNML_TYPED.replace("TYPE", ""), final_marking={"p1": 1})
    normal = parse_pnml(
        PNML_TYPED.replace("TYPE", '<type value="normal"/>'), final_marking={"p1": 1}
    )
    for net in (plain, normal):
        assert (net.places, net.transitions) == (plain.places, plain.transitions)
        assert (net.inputs, net.outputs) == (plain.inputs, plain.outputs)
        costs = [optimal_cost(trace, net)[0] for trace in ((), ("a",), ("b",), ("a", "a"))]
        assert costs == [1, 0, 2, 1]


def test_parse_pnml_rejects_an_id_naming_a_place_and_a_transition():
    # the arc p0 -> t would read as place -> transition only because of the
    # order of the checks
    data = PNML_TYPED.replace("TYPE", "").replace('<place id="q">', '<place id="t">')
    with pytest.raises(ModelError, match="^id 't' names both a place and a transition$") as info:
        parse_pnml(data, final_marking={"p1": 1})
    assert info.value.code == "model"


@pytest.mark.parametrize(
    "body, message",
    [
        ('<transition id="t"/>', "^net has no places$"),
        ('<place id="p"/>', "^net has no transitions$"),
    ],
)
def test_parse_pnml_rejects_a_net_without_places_or_transitions(body, message):
    data = f'<pnml><net id="n"><page id="p">{body}</page></net></pnml>'
    with pytest.raises(ModelError, match=message):
        parse_pnml(data, final_marking={})


def test_parse_pnml_needs_final_marking():
    with pytest.raises(ModelError, match="final marking"):
        parse_pnml(PNML_SEQUENCE)
    with pytest.raises(ModelError, match="unknown place"):
        parse_pnml(PNML_SEQUENCE, final_marking={"nope": 1})


def test_parse_pnml_unreachable_final_marking():
    # the empty-trace search runs out of markings: a model error, not a
    # state-bound one, as no bound was hit
    message = "^final marking is unreachable from the initial marking$"
    with pytest.raises(ModelError, match=message) as info:
        parse_pnml(PNML_SEQUENCE, final_marking={"p0": 2})
    assert info.value.code == "model"


def test_final_marking_json():
    assert parse_final_marking_json(b'{"p": 1}') == {"p": 1}
    with pytest.raises(ModelError):
        parse_final_marking_json(b"[1]")
    with pytest.raises(ModelError):
        parse_final_marking_json(b'{"p": -1}')
    assert parse_final_marking_json(b'\xef\xbb\xbf{"p": 1}') == {"p": 1}
    with pytest.raises(ModelError, match="^final marking JSON is not valid UTF-8: "):
        parse_final_marking_json(b'{"\xff": 1}')


@pytest.mark.parametrize("data", [b'{"p_end": true}', b'{"p_end": false}'])
def test_final_marking_json_rejects_boolean_counts(data):
    # JSON booleans load as Python bools, which are ints
    with pytest.raises(ModelError, match="must be a non-negative int") as info:
        parse_final_marking_json(data)
    assert info.value.code == "model"


@pytest.mark.parametrize("data", [b'{"p": ', b"", b"{'p': 1}"])
def test_final_marking_json_that_does_not_parse(data):
    with pytest.raises(ModelError, match="^malformed final marking JSON: "):
        parse_final_marking_json(data)


UNBOUNDED_PNML = """<?xml version="1.0"?>
<pnml><net id="n"><page id="p">
  <place id="p0"><initialMarking><text>1</text></initialMarking></place>
  <place id="p1"/>
  <transition id="t_grow"><name><text>g</text></name></transition>
  <arc id="a1" source="p0" target="t_grow"/>
  <arc id="a2" source="t_grow" target="p0"/>
  <arc id="a3" source="t_grow" target="p1"/>
</page></net></pnml>
"""


def test_state_bound_is_a_hard_error():
    with pytest.raises(
        StateBoundError,
        match=r"state bound 50 exceeded after expanding 51 states while "
        r"aligning <>",
    ):
        parse_pnml(UNBOUNDED_PNML, final_marking={"p1": 0}, state_bound=50)


@pytest.mark.parametrize("bound", [0, -5])
def test_state_bound_below_one_is_rejected(bound):
    # a plain model error, not the subclass that reports an exceeded bound
    message = f"state bound must be at least 1, got {bound}"
    with pytest.raises(ModelError, match=message) as info:
        parse_pnml(UNBOUNDED_PNML, final_marking={"p1": 0}, state_bound=bound)
    assert info.value.code == "model"


def two_step_net(**changes):
    """p -t(a)-> q -u(b)-> r, with ``changes`` to the constructor's
    arguments.  The defaults are a valid net."""
    args = dict(
        places=("p", "q", "r"),
        transitions=(Transition("t", "a"), Transition("u", "b")),
        inputs=[[0], [1]],
        outputs=[[1], [2]],
        initial_marking=[1, 0, 0],
        final_marking=[0, 0, 1],
    )
    return PetriNetModel(**{**args, **changes})


def test_petri_net_model_rejects_malformed_arguments():
    assert optimal_cost(("a", "b"), two_step_net())[0] == 0
    for changes, message in [
        (dict(inputs=[[0]]), "^arc lists must match the transition list$"),
        (dict(outputs=[[1], [2], [0]]), "^arc lists must match the transition list$"),
        (dict(initial_marking=[1, -1, 0]), "^markings must be non-negative"),
        (dict(final_marking=[0, 0]), "^markings must be non-negative"),
    ]:
        with pytest.raises(ModelError, match=message):
            two_step_net(**changes)


@pytest.mark.parametrize(
    "changes, tid",
    [
        # t takes two tokens from p, of which the initial marking has one;
        # read as one token per arc entry this gave optimal_cost(("a", "b"))
        # == (0, 2) through the marking (-1, 1, 0)
        (dict(inputs=[[0, 0], [1]], outputs=[[1], [0, 2]]), "t"),
        (dict(outputs=[[1], [2, 2]], final_marking=[0, 0, 2]), "u"),
    ],
    ids=["inputs", "outputs"],
)
def test_petri_net_model_rejects_a_place_named_twice_in_one_arc_list(changes, tid):
    with pytest.raises(
        ModelError, match=f"^transition '{tid}' names a place twice in one arc list"
    ):
        two_step_net(**changes)


@pytest.mark.parametrize(
    "changes, tid, index",
    [
        # -1 named r, the last place: the net built and gave
        # optimal_cost(("a", "b")) == (0, 2)
        (dict(outputs=[[1], [-1]]), "u", -1),
        # a bare ValueError (negative shift count) from the preset masks
        (dict(inputs=[[-1], [1]]), "t", -1),
        # an IndexError from the search
        (dict(outputs=[[1], [7]]), "u", 7),
        # a bare TypeError: a float is no list index
        (dict(outputs=[[1], [2.0]]), "u", 2.0),
    ],
    ids=["negative-output", "negative-input", "output-past-the-end", "float"],
)
def test_petri_net_model_rejects_an_arc_entry_that_is_not_a_place_index(
    changes, tid, index
):
    message = (
        rf"^transition '{tid}' names a place by {index}, "
        r"not by an index in range\(3\)$"
    )
    with pytest.raises(ModelError, match=message):
        two_step_net(**changes)


# p0 -a-> p1 directly, or p0 -tau-> p2 -tau-> p1 for free, then p1 -b-> p3.
# The silent path lowers p1's cost after the visible step already queued p1
# for cost 1, so that entry is stale when cost 1 comes up.
STALE_ENTRY_PNML = """<?xml version="1.0"?>
<pnml><net id="n"><page id="p">
  <place id="p0"><initialMarking><text>1</text></initialMarking></place>
  <place id="p1"/><place id="p2"/><place id="p3"/>
  <transition id="t_a"><name><text>a</text></name></transition>
  <transition id="t_s1"/><transition id="t_s2"/>
  <transition id="t_b"><name><text>b</text></name></transition>
  <arc id="a1" source="p0" target="t_a"/><arc id="a2" source="t_a" target="p1"/>
  <arc id="a3" source="p0" target="t_s1"/><arc id="a4" source="t_s1" target="p2"/>
  <arc id="a5" source="p2" target="t_s2"/><arc id="a6" source="t_s2" target="p1"/>
  <arc id="a7" source="p1" target="t_b"/><arc id="a8" source="t_b" target="p3"/>
</page></net></pnml>
"""


def test_min_visible_length_skips_stale_entries():
    # p0, p2 and p1 are explored once each; re-expanding the stale p1 entry
    # would count a fourth marking and exceed the bound
    net = parse_pnml(STALE_ENTRY_PNML, final_marking={"p3": 1}, state_bound=3)
    assert net.min_visible_length == 1
    with pytest.raises(StateBoundError, match="after expanding 3 states"):
        parse_pnml(STALE_ENTRY_PNML, final_marking={"p3": 1}, state_bound=2)


def test_probe_fired_finds_dead_transition(loop_net):
    fired, complete = loop_net.probe_fired(1000)
    assert complete
    assert fired == {t.tid for t in loop_net.transitions}

    # sever every arc into p2 so t_c can never become enabled
    data = PNML_SEQUENCE.replace('<arc id="a4" source="t_b" target="p2"/>', "").replace(
        '<arc id="a6" source="t_skip" target="p2"/>', ""
    )
    net = parse_pnml(data, final_marking={"p1": 1})
    fired, complete = net.probe_fired(1000)
    assert complete
    assert "t_c" not in fired
    assert {"t_a", "t_b", "t_skip"} <= fired


def test_loop_net_matches_unrolled_language(loop_language, loop_net):
    assert loop_net.alphabet == loop_language.alphabet
    assert loop_net.min_visible_length == loop_language.min_visible_length == 3


def counting_net():
    """Three tokens move from p0 to p2, through p1 by a then b or directly
    by a silent step, so places hold up to three tokens."""
    transitions = [Transition("t_a", "a"), Transition("t_b", "b"), Transition("t_s", None)]
    inputs, outputs = [[0], [1], [0]], [[1], [2], [2]]
    return PetriNetModel(["p0", "p1", "p2"], transitions, inputs, outputs, [3, 0, 0], [0, 0, 3])


@pytest.mark.parametrize(
    "make_net",
    [fixtures.parallel_loop_petri, three_branch_net, counting_net],
    ids=["loop_net", "three_branch_net", "counting_net"],
)
def test_successors_match_enabled_and_fire(make_net):
    net = make_net()
    markings = net._markings
    seen = {net.initial_id}
    queue = [net.initial_id]
    while queue:
        mid = queue.pop()
        succ = net.successors(mid)

        def steps(pairs):
            return [(ti, markings[after]) for ti, after in pairs]

        silent, visible, by_label = successors_reference(net, markings[mid])
        assert steps(succ.silent) == silent
        assert steps(succ.visible) == visible
        assert list(succ.by_label) == list(by_label)
        assert {label: steps(p) for label, p in succ.by_label.items()} == by_label
        for _, after in succ.silent + succ.visible:
            if after not in seen:
                seen.add(after)
                queue.append(after)
    if make_net is counting_net:
        # every split of three tokens over three places
        assert len(seen) == 10
