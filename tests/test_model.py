import pytest

from alignbound.errors import ModelError, StateBoundError
from alignbound.model import (
    ExplicitLanguageModel,
    parse_explicit_language,
    parse_final_marking_json,
    parse_pnml,
    serialize_explicit_language,
)


def test_parse_explicit_language_basics():
    model = parse_explicit_language("a,b\n-\n\na,b\nc\n")
    assert model.traces == ((), ("c",), ("a", "b"))
    assert model.alphabet == {"a", "b", "c"}
    assert model.min_visible_length == 0
    assert ("a", "b") in model
    assert ("b",) not in model


def test_parse_explicit_language_rejects_empty_file():
    with pytest.raises(ModelError):
        parse_explicit_language("\n\n")


def test_parse_explicit_language_rejects_empty_label():
    with pytest.raises(ModelError, match="line 1"):
        parse_explicit_language("a,,b\n")


def test_serialize_round_trip():
    model = parse_explicit_language("b,a\n-\nc\n")
    text = serialize_explicit_language(model.traces)
    assert parse_explicit_language(text).traces == model.traces
    assert text.splitlines()[0] == "-"


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


def test_parse_pnml_needs_final_marking():
    with pytest.raises(ModelError, match="final marking"):
        parse_pnml(PNML_SEQUENCE)
    with pytest.raises(ModelError, match="unknown place"):
        parse_pnml(PNML_SEQUENCE, final_marking={"nope": 1})


def test_parse_pnml_unreachable_final_marking():
    with pytest.raises(ModelError, match="unreachable"):
        parse_pnml(PNML_SEQUENCE, final_marking={"p0": 2})


def test_final_marking_json():
    assert parse_final_marking_json(b'{"p": 1}') == {"p": 1}
    with pytest.raises(ModelError):
        parse_final_marking_json(b"[1]")
    with pytest.raises(ModelError):
        parse_final_marking_json(b'{"p": -1}')


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
        match=r"state bound 50 exceeded after exploring 51 markings while "
        r"searching for the final marking",
    ):
        parse_pnml(UNBOUNDED_PNML, final_marking={"p1": 0}, state_bound=50)


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
