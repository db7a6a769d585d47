import csv
import io
import re
import sys
import tracemalloc
import unicodedata
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace
from unittest.mock import patch
from xml.sax.saxutils import escape, quoteattr

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alignbound import log as log_module
from alignbound.errors import LogParseError
from alignbound.log import (
    CONCEPT_NAME,
    EventLog,
    _parse_flat_xes,
    _parse_xes_with_handlers,
    canonical_traces,
    join_trace,
    parse_csv,
    parse_xes,
    trace_sort_key,
    write_log_csv,
    write_log_xes,
)
from conftest import (
    parse_csv_reference,
    parse_xes_reference,
    read_trace_cell,
    write_log_csv_reference,
    write_log_xes_reference,
)

XES_SAMPLE = b"""<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
  <trace>
    <string key="concept:name" value="c1"/>
    <event><string key="concept:name" value="a"/></event>
    <event>
      <string key="lifecycle:transition" value="complete"/>
      <string key="concept:name" value="b"/>
    </event>
  </trace>
  <trace>
    <event><string key="concept:name" value="a"/></event>
    <event><string key="concept:name" value="b"/></event>
  </trace>
  <trace>
    <event><string key="concept:name" value="a"/></event>
  </trace>
</log>
"""


def test_parse_xes_groups_variants():
    log = parse_xes(XES_SAMPLE)
    assert log.variants == {("a", "b"): 2, ("a",): 1}
    assert log.total_traces == 3


def test_parse_xes_namespaced():
    data = XES_SAMPLE.replace(
        b'<log xes.version="1.0">',
        b'<log xmlns="http://www.xes-standard.org/" xes.version="1.0">',
    )
    assert parse_xes(data).variants == {("a", "b"): 2, ("a",): 1}


def test_parse_xes_empty_log():
    log = parse_xes(b'<log xes.version="1.0"></log>')
    assert log.variants == {}
    assert log.total_traces == 0


def test_parse_xes_malformed_reports_position():
    with pytest.raises(LogParseError, match="line"):
        parse_xes(b"<log><trace></log>")


@pytest.mark.parametrize(
    "encoding, message",
    [
        ("latin-9", "unknown encoding: latin-9"),
        ("hex", "'hex' is not a text encoding"),
        ("shift_jis", "multi-byte encodings are not supported"),
    ],
)
def test_parse_xes_unreadable_encoding(encoding, message):
    data = f'<?xml version="1.0" encoding="{encoding}"?><log/>'.encode()
    with pytest.raises(LogParseError, match=f"^malformed XES: {message}"):
        parse_xes(data)


def test_parse_xes_event_without_name():
    data = b'<log><trace><event/></trace></log>'
    with pytest.raises(LogParseError, match="trace 0"):
        parse_xes(data)


CSV_SAMPLE = b"""case,activity,order
c1,a,1
c2,a,1
c1,b,2
c2,b,2
c3,b,2
c3,a,1
"""


def _csv(*rows: str) -> bytes:
    return "\n".join(["case,activity,order", *rows, ""]).encode()


def csv_chunk(rows: int):
    """Make parse_csv read ``rows`` rows per chunk."""
    return patch.object(log_module, "_CSV_CHUNK", rows)


def test_parse_csv_orders_within_case():
    log = parse_csv(CSV_SAMPLE)
    assert log.variants == {("a", "b"): 3}
    assert log.total_traces == 3


def test_parse_csv_numeric_vs_lexicographic_order():
    # 10 after 9 only when every order value is an integer
    numeric = b"case,activity,order\nc,x,9\nc,y,10\n"
    assert parse_csv(numeric).variants == {("x", "y"): 1}
    lexi = b"case,activity,order\nc,x,t9\nc,y,t10\n"
    assert parse_csv(lexi).variants == {("y", "x"): 1}


def test_parse_csv_numeric_flag_is_decided_for_the_whole_file():
    # case a alone is all-integer, but case b's "x" makes every case sort
    # lexicographically, so "10" comes before "9"
    data = b"case,activity,order\na,p,10\nb,r,x\na,q,9\n"
    assert parse_csv(data).variants == {("p", "q"): 1, ("r",): 1}
    data = b"case,activity,order\na,p,9\nb,r,x\na,q,10\n"
    assert parse_csv(data).variants == {("q", "p"): 1, ("r",): 1}


def test_parse_csv_stable_on_order_ties():
    data = b"case,activity,order\nc,a,1\nc,b,1\nc,c,1\n"
    assert parse_csv(data).variants == {("a", "b", "c"): 1}


def test_parse_csv_custom_columns():
    data = b"id;who;ts\n".replace(b";", b",") + b"c1,a,1\n"
    log = parse_csv(data, case_column="id", activity_column="who", order_column="ts")
    assert log.variants == {("a",): 1}


def test_parse_csv_missing_column_named():
    with pytest.raises(LogParseError, match="'order'"):
        parse_csv(b"case,activity\nc,a\n")


def test_parse_csv_bad_row_numbered():
    data = b"case,activity,order\nc1,a,1\nc2\n"
    with pytest.raises(LogParseError, match="line 3"):
        parse_csv(data)


def test_parse_csv_line_numbers_skip_blank_lines():
    data = b"case,activity,order\n\nc1,a,1\n\n\nc2\n"
    with pytest.raises(LogParseError, match="line 3$"):
        parse_csv(data)


@pytest.mark.parametrize("chunk_rows", [2, 3])
def test_parse_csv_line_numbers_skip_blank_lines_at_chunk_edges(chunk_rows):
    # blank lines on either side of each chunk edge; c2 is the sixth
    # non-blank row
    data = _csv("c1,a,1", "", "c1,b,2", "", "c1,c,3", "", "", "c1,d,4", "", "c2", "")
    with csv_chunk(chunk_rows), pytest.raises(LogParseError, match="line 6$"):
        parse_csv(data)


def test_parse_csv_blank_first_line_is_no_header():
    with pytest.raises(LogParseError, match="no header row"):
        parse_csv(b"\ncase,activity,order\nc1,a,1\n")


def test_parse_csv_drops_byte_order_mark():
    data = b"case,activity,order\nc1,a,1\n"
    assert parse_csv(b"\xef\xbb\xbf" + data) == parse_csv(data)


def test_parse_csv_invalid_utf8_is_a_parse_error():
    with pytest.raises(LogParseError, match="^CSV log is not valid UTF-8: "):
        parse_csv(b"case,activity,order\nc1,\xff,1\n")


@pytest.mark.parametrize("where", ["header", "row", "later chunk"])
def test_parse_csv_field_over_the_csv_limit_is_a_parse_error(where):
    # the csv module rejects a field over 131,072 characters; the error
    # names the file line, blank lines included, also past chunk edges
    huge = "x" * (csv.field_size_limit() + 1)
    if where == "header":
        data, line = f"case,activity,{huge}\n".encode(), 1
    elif where == "row":
        data, line = f"case,activity,order\nc1,a,1\n\nc1,{huge},2\n".encode(), 4
    else:
        rows = ["c1,a,1", "", "c1,b,2", "c2,a,1", "", "", "c2,b,2", f"c3,{huge},1"]
        data, line = _csv(*rows), 9
    message = f"^malformed CSV at line {line}: field larger than field limit"
    with csv_chunk(2), pytest.raises(LogParseError, match=message):
        parse_csv(data)


def test_event_log_canonical_variant_order():
    log = EventLog.from_traces([("b",), ("a", "x"), ("a",), ("a", "b")])
    assert log.variant_traces == (("a",), ("b",), ("a", "b"), ("a", "x"))
    assert [trace_sort_key(t) for t in log.variant_traces] == sorted(
        trace_sort_key(t) for t in log.variant_traces
    )


def _order_xes(traces, nested: bool) -> bytes:
    """A document holding ``traces`` in the writer's layout, or, if
    ``nested``, each trace opened inside the one before it, so that traces
    close in reverse document order."""
    name = '<string key="concept:name" value="%s"/>'
    opens = [
        "<trace>" + name % f"c{i}" + "".join(f"<event>{name % a}</event>" for a in t)
        for i, t in enumerate(traces)
    ]
    if nested:
        body = "".join(opens) + "</trace>" * len(traces)
    else:
        body = "".join(o + "</trace>" for o in opens)
    return f"{FLAT_HEAD}{body}</log>".encode()


ORDER_TRACES = st.lists(
    st.lists(st.sampled_from(["a", "b", "ab", "B"]), max_size=3).map(tuple), max_size=10
)


@settings(max_examples=100, deadline=None)
@given(ORDER_TRACES)
def test_every_log_holds_its_variants_in_canonical_order(traces):
    # traces come in any order, duplicates included; each way of building a
    # log meets them in that order, and CSV cannot carry the empty ones
    nonempty = [t for t in traces if t]
    rows = [f"c{i},{a},{j}" for i, t in enumerate(nonempty) for j, a in enumerate(t)]
    built = [
        (EventLog(dict(Counter(traces))), traces),
        (EventLog.from_traces(traces), traces),
        (parse_csv("\n".join(["case,activity,order", *rows]).encode()), nonempty),
        (_parse_flat_xes(_order_xes(traces, nested=False)), traces),
        (_parse_xes_with_handlers(_order_xes(traces, nested=False)), traces),
        (_parse_xes_with_handlers(_order_xes(traces, nested=True)), traces),
    ]
    for log, expected in built:
        assert log.variants == Counter(expected)
        assert list(log.variants) == sorted(log.variants, key=trace_sort_key)
        assert log.variant_traces == tuple(log.variants)
    assert canonical_traces(traces) == tuple(sorted(set(traces), key=trace_sort_key))


def test_event_log_rejects_zero_multiplicity():
    with pytest.raises(ValueError):
        EventLog({("a",): 0})


@pytest.mark.parametrize("mult", [1.5, True], ids=["float", "bool"])
def test_event_log_rejects_a_multiplicity_that_is_not_an_int(mult):
    # 1.5 made total_estimate raise a bare TypeError; True was written as
    # "multiplicity": true, which the report reader rejects
    message = f"^multiplicity must be an int >= 1, got {mult} for <a,b>$"
    with pytest.raises(ValueError, match=message):
        EventLog({("a", "b"): mult, ("a",): 2})


def test_csv_round_trip_preserves_variants():
    log = EventLog({("a", "b"): 2, ("a",): 3, ("b", "a", "b"): 1})
    again = parse_csv(write_log_csv(log))
    assert again.variants == log.variants
    assert again.total_traces == log.total_traces


def test_csv_write_rejects_empty_trace():
    with pytest.raises(ValueError):
        write_log_csv(EventLog({(): 1}))


def test_csv_write_of_a_nul_label():
    log = EventLog({("a\x00b", "c"): 2, ("c",): 1})
    if sys.version_info < (3, 11):
        with pytest.raises(ValueError, match=r"'a\\x00b'"):
            write_log_csv(log)
    else:
        assert parse_csv(write_log_csv(log)).variants == log.variants


def test_xes_round_trip_with_empty_trace():
    log = EventLog({(): 2, ("a", "b"): 1})
    again = parse_xes(write_log_xes(log))
    assert again.variants == log.variants


# The writers against the per-event oracles in conftest: labels that XML
# and CSV must escape or quote, and variants repeated over many cases.
WRITER_LABEL = st.one_of(
    st.sampled_from(["a", "b", "&", "<", ">", '"', "'", ",", "x,y", '"q"', "\n", "\r\n"]),
    # csv.writer rejects a NUL before Python 3.11, in either writer; both
    # writers refuse an empty label, which the examples below cover
    st.text(max_size=4).map(lambda label: label.replace("\x00", "")).filter(bool),
)
WRITER_LOG = st.dictionaries(
    st.lists(WRITER_LABEL, max_size=5).map(tuple), st.integers(1, 4), max_size=6
).map(EventLog)


def _xml_carries(label: str) -> bool:
    """Whether every character of ``label`` is in XML 1.0's Char production."""
    return all(
        c in "\t\n\r"
        or " " <= c <= "\ud7ff"
        or "\ue000" <= c <= "\ufffd"
        or c >= "\U00010000"
        for c in label
    )


@settings(max_examples=150, deadline=None)
@given(WRITER_LOG)
@example(EventLog({(): 2, ("a", "&<>\"'"): 3}))
@example(EventLog({("a\x7f\x85\ud7ff\ue000\ufffd\U0010ffff",): 1}))
@example(EventLog({("a", ""): 1}))
def test_write_log_xes_matches_the_per_event_writer(log):
    # parse_xes rejects an empty label, so the writer refuses it too
    labels = [label for trace in log.variants for label in trace]
    if all(label and _xml_carries(label) for label in labels):
        assert write_log_xes(log) == write_log_xes_reference(log)
    else:
        with pytest.raises(ValueError, match="^XES cannot carry the label "):
            write_log_xes(log)


@pytest.mark.parametrize(
    "label",
    ["a\x01b", "a\ufffeb", "a\ud800b", ""],
    ids=["control", "ufffe", "lone-surrogate", "empty"],
)
def test_write_log_xes_rejects_a_label_xml_cannot_carry(label):
    # expat rejects the first two in the written document; the third cannot
    # be encoded as UTF-8; parse_xes rejects the empty one
    log = EventLog({("c",): 2, ("c", label): 1})
    message = f"^XES cannot carry the label {re.escape(repr(label))}$"
    with pytest.raises(ValueError, match=message):
        write_log_xes(log)


@settings(max_examples=150, deadline=None)
@given(WRITER_LOG)
@example(EventLog({("a,b", '"q"', "\n"): 3, ("a",): 1}))
@example(EventLog({(): 1, ("a",): 2}))
@example(EventLog({("a", ""): 1}))
def test_write_log_csv_matches_the_per_event_writer(log):
    if () in log.variants:
        with pytest.raises(ValueError):
            write_log_csv_reference(log)
        with pytest.raises(ValueError):
            write_log_csv(log)
    elif any("" in trace for trace in log.variants):
        # parse_csv rejects an empty label, so the writer refuses it
        with pytest.raises(ValueError, match="^CSV cannot carry the empty label ''$"):
            write_log_csv(log)
    else:
        assert write_log_csv(log) == write_log_csv_reference(log)


# Differential tests: the streaming parsers against the tree- and
# row-list-based oracles in conftest, on generated documents.

NAMESPACES = {
    "none": ("", ""),
    "default": ("", ' xmlns="http://www.xes-standard.org/"'),
    "prefixed": ("x:", ' xmlns:x="http://www.xes-standard.org/"'),
}
NAME = st.sampled_from(["a", "b", "c d", "&<\"'", "é"])
# mostly a non-empty name; sometimes an empty value or no value at all
VALUE = st.sampled_from(["a", "b", "é", "a", "b", "é", "", None])
ATTR_TAG = st.sampled_from(["string", "string", "string", "int", "date"])
ATTR_KEY = st.sampled_from(
    [CONCEPT_NAME, CONCEPT_NAME, "lifecycle:transition", "org:resource"]
)
SPACE = st.sampled_from(["", "\n", "\n  "])
ONE_IN_TEN = st.integers(0, 9).map(lambda n: n == 0)
POSITION = st.integers(0, 99)


def outcome(parse, data, *args):
    """The variants in insertion order, or the error message."""
    try:
        return list(parse(data, *args).variants.items())
    except LogParseError as exc:
        return "error", str(exc)


def render(node, prefix, space) -> str:
    tag, attrs, children = node
    head = prefix + tag + "".join(f" {k}={quoteattr(v)}" for k, v in attrs)
    if not children:
        return f"<{head}/>"
    inner = "".join(space + render(c, prefix, space) for c in children)
    return f"<{head}>{inner}{space}</{prefix}{tag}>"


def _attribute(tag, key, value):
    attrs = [("key", key)] if value is None else [("key", key), ("value", value)]
    return (tag, attrs, [])


def _insert(draw, children, extras):
    for extra in extras:
        children.insert(draw(POSITION) % (len(children) + 1), extra)
    return children


# (tag, [(attribute, value)], children) trees, built one nesting level at a
# time so every strategy object is made once
XES_ATTRIBUTE = st.builds(_attribute, ATTR_TAG, ATTR_KEY, VALUE)


def _xes_list(event):
    # neither a concept:name nor an event inside a list counts
    items = st.lists(XES_ATTRIBUTE, max_size=2)

    @st.composite
    def build(draw):
        children = draw(items)
        if draw(st.booleans()):
            children = [("values", [], children)]
        if event is not None and draw(ONE_IN_TEN):
            children.append(draw(event))
        return ("list", [("key", "l")], children)

    return build()


def _xes_event(part, trace):
    parts = st.lists(part, max_size=3)
    name = st.builds(_attribute, st.just("string"), st.just(CONCEPT_NAME), NAME)

    @st.composite
    def build(draw):
        children = draw(parts)
        if not draw(ONE_IN_TEN):
            children = _insert(draw, children, [draw(name)])
        if trace is not None and draw(ONE_IN_TEN):
            # a trace counts at any depth, even inside an event
            children = _insert(draw, children, [draw(trace)])
        return ("event", [], children)

    return build()


def _xes_trace(event, extra):
    events = st.lists(event, max_size=4)
    extras = st.lists(extra, max_size=2)

    @st.composite
    def build(draw):
        return ("trace", [], _insert(draw, draw(events), draw(extras)))

    return build()


LIST_0 = _xes_list(None)
EVENT_0 = _xes_event(st.one_of(XES_ATTRIBUTE, LIST_0), None)
TRACE_0 = _xes_trace(EVENT_0, st.one_of(XES_ATTRIBUTE, LIST_0))
LIST_1 = _xes_list(EVENT_0)
EVENT_1 = _xes_event(st.one_of(XES_ATTRIBUTE, LIST_1), TRACE_0)
TRACE_1 = _xes_trace(EVENT_1, st.one_of(XES_ATTRIBUTE, LIST_1, TRACE_0))
XES_TRACES = st.lists(TRACE_1, max_size=5)
# log-level attributes and stray events outside any trace
LOG_EXTRAS = st.lists(st.one_of(XES_ATTRIBUTE, EVENT_0, LIST_0), max_size=2)
XML_DECLARATION = st.sampled_from(["", '<?xml version="1.0" encoding="UTF-8"?>\n'])


@st.composite
def xes_documents(draw):
    prefix, declaration = NAMESPACES[draw(st.sampled_from(sorted(NAMESPACES)))]
    children = _insert(draw, draw(XES_TRACES), draw(LOG_EXTRAS))
    body = render(("log", [("xes.version", "1.0")], children), prefix, draw(SPACE))
    body = body.replace("<" + prefix + "log", "<" + prefix + "log" + declaration, 1)
    return (draw(XML_DECLARATION) + body).encode("utf-8")


BROKEN_EDIT = st.sampled_from(["cut", "drop", "add"])
BROKEN_BYTES = st.sampled_from([b"<", b"&", b">", b'"', b"</x>"])


@st.composite
def broken(draw, documents):
    """A generated document cut short, or with one byte dropped or added."""
    data = draw(documents)
    at = draw(st.integers(0, len(data)))
    edit = draw(BROKEN_EDIT)
    if edit == "cut":
        return data[:at]
    if edit == "drop":
        return data[:at] + data[at + 1:]
    return data[:at] + draw(BROKEN_BYTES) + data[at:]


@settings(max_examples=100, deadline=None)
@given(xes_documents())
def test_parse_xes_matches_tree_oracle(data):
    assert outcome(parse_xes, data) == outcome(parse_xes_reference, data)


@settings(max_examples=80, deadline=None)
@given(broken(xes_documents()))
# one byte dropped from the declaration leaves an encoding with no codec
@example(b'<?xml version="1.0" encoding="TF-8"?>\n<log xes.version="1.0"/>')
def test_parse_xes_matches_tree_oracle_on_broken_documents(data):
    assert outcome(parse_xes, data) == outcome(parse_xes_reference, data)


@pytest.mark.parametrize(
    "data",
    [
        b"<log><trace><event/></trace><trace><event>",
        b"<log><trace><event/></trace><trace></log>",
        b'<log><trace><event><string key="concept:name" value=""/></event></trace>junk',
        b"<log><trace><event/></trace></log>&",
        b'<!DOCTYPE log SYSTEM "log.dtd"><log><trace><event/></trace>&e;</log>',
        b'<!DOCTYPE log [<!ENTITY e SYSTEM "e.xml">]><log><trace><event/></trace>&e;</log>',
    ],
)
def test_parse_xes_malformed_document_wins_over_nameless_event(data):
    # a nameless event is reported only once the whole document parsed
    got = outcome(parse_xes, data)
    assert got == outcome(parse_xes_reference, data)
    assert got[1].startswith("malformed XES: ")


@pytest.mark.parametrize(
    "data, expected",
    [
        # a trace at any depth; events only as its direct children
        (b'<log><trace><list><event><string key="concept:name" value="a"/>'
         b"</event></list></trace></log>", {(): 1}),
        (b'<log><trace><event><string key="concept:name" value="a"/>'
         b'<string key="concept:name" value="b"/></event></trace></log>',
         {("b",): 1}),
        (b'<log><trace><event><string key="concept:name" value="a"/><trace><event>'
         b'<string key="concept:name" value="b"/></event></trace></event></trace>'
         b"</log>", {("a",): 1, ("b",): 1}),
        (b'<log><trace><trace><event><string key="concept:name" value="b"/></event>'
         b'</trace><event><string key="concept:name" value="a"/></event></trace>'
         b"</log>", {("a",): 1, ("b",): 1}),
        # internal entities expand as in the tree
        (b'<!DOCTYPE log [<!ENTITY e "<trace><event><string key=\'concept:name\' '
         b"value='q'/></event></trace>\">]><log>&e;&e;</log>", {("q",): 2}),
    ],
)
def test_parse_xes_matching_rules(data, expected):
    log = parse_xes(data)
    assert log.variants == expected
    assert list(log.variants) == list(parse_xes_reference(data).variants)


def test_parse_xes_reports_lowest_trace_with_a_nameless_event():
    # the inner trace (pre-order index 1) closes first, but trace 0 is named
    data = b"<log><trace><trace><event/></trace><event/></trace></log>"
    with pytest.raises(LogParseError, match="in trace 0$"):
        parse_xes(data)


# The writer's layout: documents parse_xes reads with byte patterns once
# inspecting their bytes proves them well-formed.
# Labels come in every quoting quoteattr writes and in an equal spelling it
# does not; an OFF_LAYOUT part sends a document to the handler parser.  Both
# paths must agree with the tree oracle.
FLAT_LABEL = st.sampled_from(
    ["a", "b", "c d", "é", "x'y>", 'q"t', "a\"'b", "&<", "t\tn\nr\r"]
)


def _respelled(label: str) -> str:
    # double quotes throughout, and > left bare
    escaped = escape(label, {'"': "&quot;", "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})
    return '"' + escaped.replace("&gt;", ">") + '"'


FLAT_QUOTED = st.one_of(FLAT_LABEL.map(quoteattr), FLAT_LABEL.map(_respelled))
FLAT_SPACE = st.sampled_from(["", "", "\n    ", " ", "\r\n\t"])
FLAT_HEAD = '<?xml version="1.0" encoding="UTF-8"?>\n<log xes.version="1.0">'
FLAT_EVENT = '<event><string key="concept:name" value=%s/></event>'
OFF_LAYOUT_HEADS = [
    "<log>",
    FLAT_HEAD.replace("UTF-8", "utf-8"),
    FLAT_HEAD.replace("<log", "<!-- a comment -->\n<log"),
    # an OpenXES-like header
    FLAT_HEAD + '<extension name="Concept" prefix="concept" '
    'uri="http://www.xes-standard.org/concept.xesext"/><global scope="event">'
    '<string key="concept:name" value="__INVALID__"/></global>',
]
OFF_LAYOUT_EVENTS = [
    '<event><string key="lifecycle:transition" value="complete"/>'
    '<string key="concept:name" value="a"/></event>',
    '<event><string key="concept:name" value=""/>'
    '<string key="concept:name" value="a"/></event>',
    '<event><string key="concept:name" value="a" /></event>',
    '<event>\n  <string key="concept:name" value="a"/>\n</event>',
    '<event><string key="concept:name" value="a"/>'
    '<list key="l"><string key="x" value="y"/></list></event>',
    FLAT_EVENT % '"a&#38;"',
    FLAT_EVENT % '""',
]


@st.composite
def flat_xes_documents(draw, off_layout: bool):
    traces = [
        [FLAT_EVENT % q for q in names]
        for names in draw(st.lists(st.lists(FLAT_QUOTED, max_size=4), max_size=5))
    ]
    head = FLAT_HEAD
    if off_layout:
        if draw(st.booleans()):
            head = draw(st.sampled_from(OFF_LAYOUT_HEADS))
        else:
            traces = traces or [[]]
            events = traces[draw(POSITION) % len(traces)]
            _insert(draw, events, [draw(st.sampled_from(OFF_LAYOUT_EVENTS))])
    return _flat_document(draw, head, [draw(FLAT_SPACE) for _ in traces], traces)


def _flat_document(draw, head: str, gaps, traces) -> bytes:
    """``head``, then each trace's events after its gap, with a drawn case
    name and drawn whitespace between elements, then the tail."""
    body = "".join(
        f'{gap}<trace>{draw(FLAT_SPACE)}'
        f'<string key="concept:name" value={draw(FLAT_QUOTED)}/>'
        + "".join(draw(FLAT_SPACE) + event for event in events)
        + f"{draw(FLAT_SPACE)}</trace>"
        for gap, events in zip(gaps, traces)
    )
    return f"{head}{body}{draw(FLAT_SPACE)}</log>{draw(FLAT_SPACE)}".encode()


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(lambda off: st.tuples(st.just(off), flat_xes_documents(off))))
def test_parse_xes_flat_path_matches_handler_parser_and_tree_oracle(case):
    off_layout, data = case
    expected = outcome(parse_xes_reference, data)
    assert outcome(_parse_xes_with_handlers, data) == expected
    log = _parse_flat_xes(data)
    assert (log is None) == off_layout
    assert outcome(parse_xes, data) == expected
    if log is not None:
        assert list(log.variants.items()) == expected


@settings(max_examples=150, deadline=None)
@given(broken(st.booleans().flatmap(flat_xes_documents)))
def test_parse_xes_flat_path_matches_both_on_broken_documents(data):
    expected = outcome(parse_xes_reference, data)
    assert outcome(parse_xes, data) == expected
    assert outcome(_parse_xes_with_handlers, data) == expected


def _flat_log(*quoted: bytes, head=FLAT_HEAD.encode(), case=b'"c"') -> bytes:
    traces = b"".join(
        b'<trace><string key="concept:name" value=%b/>' % case
        + FLAT_EVENT.encode() % q + b"</trace>"
        for q in quoted
    )
    return head + traces + b"</log>"


@pytest.mark.parametrize(
    "data, expected",
    [
        (_flat_log(b'"a&amp;b"', b"'q\"t'"), [(("a&b",), 1), (('q"t',), 1)]),
        # two spellings of one label count as one variant
        (_flat_log(b'"a&gt;"', b'"a>"', b"'a>'"), [(("a>",), 3)]),
        # so do two runs of events that differ only in whitespace
        (
            _flat_log(
                b'"a"/></event><event><string key="concept:name" value="b"',
                b'"a"/></event>\r\n\t<event><string key="concept:name" value=\'b\'',
            ),
            [(("a", "b"), 2)],
        ),
        (_flat_log(b'"\xff"'), None),
        (_flat_log(b'"a\x01"'), None),
    ],
)
def test_parse_xes_flat_path_gives_the_reference_result(data, expected):
    reference = outcome(parse_xes_reference, data)
    assert expected in (None, reference)
    if expected is None:
        # the flat path declines (a C0 control fails the value pattern, a
        # byte that is not UTF-8 the inspection), so the handler parser
        # gives the tree's error
        assert reference[0] == "error"
        assert _parse_flat_xes(data) is None
    else:
        assert list(_parse_flat_xes(data).variants.items()) == reference
    assert outcome(parse_xes, data) == reference


@pytest.mark.parametrize(
    "data, expected",
    [
        (_flat_log(b'"a&#38;"'), [(("a&",), 1)]),
        # XML reads a tab in a value as a space
        (_flat_log(b'"a\tb"'), [(("a b",), 1)]),
        (
            _flat_log(b'"a"', head=b'<log xes.version="1.0" xes.version="2.0">'),
            ("error", "malformed XES: duplicate attribute: line 1, column 23"),
        ),
        # the error names the lowest trace with a nameless event
        (
            _flat_log(b'"a"', b'""', b'"b"', b'""'),
            ("error", f"event without a non-empty {CONCEPT_NAME} in trace 1"),
        ),
    ],
)
def test_parse_xes_outside_the_flat_layout_takes_the_handler_path(data, expected):
    assert _parse_flat_xes(data) is None
    assert outcome(parse_xes, data) == expected
    assert outcome(parse_xes_reference, data) == expected


# The flat path splits a document in windows of about _CHUNK bytes, each
# ending where a trace closes.  Windows of a few bytes put window edges
# between most traces and inside the longer ones.
XES_WINDOW = st.sampled_from([1, 40, 200])
# bytes between two traces that leave the layout
OFF_LAYOUT_GAPS = ["<!-- a comment -->", "<x/>", "</trace>"]


def xes_window(size: int):
    """Make the flat path split ``size``-byte windows."""
    return patch.object(log_module, "_CHUNK", size)


@st.composite
def windowed_xes_documents(draw, off_layout: bool):
    """Documents in the writer's layout with up to a dozen traces, drawn from
    a few runs of events, so that runs repeat; one run is longer than a
    200-byte window, and runs may be empty.  Off the layout, one event or
    the bytes before one trace leave it."""
    runs = draw(st.lists(st.lists(FLAT_QUOTED, max_size=3), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(runs) - 1), max_size=11))
    runs.append(draw(st.lists(FLAT_QUOTED, min_size=5, max_size=6)))
    picks = _insert(draw, picks, [len(runs) - 1])
    traces = [[FLAT_EVENT % q for q in runs[i]] for i in picks]
    gaps = [draw(FLAT_SPACE) for _ in traces]
    if off_layout:
        at = draw(POSITION) % len(traces)
        if draw(st.booleans()):
            _insert(draw, traces[at], [draw(st.sampled_from(OFF_LAYOUT_EVENTS))])
        else:
            gaps[at] += draw(st.sampled_from(OFF_LAYOUT_GAPS))
    return _flat_document(draw, FLAT_HEAD, gaps, traces)


@settings(max_examples=150, deadline=None)
@given(
    st.booleans().flatmap(
        lambda off: st.tuples(st.just(off), windowed_xes_documents(off))
    ),
    XES_WINDOW,
)
# a comment between two windows of one trace each
@example(
    (True, _flat_log(b'"a"', b'"b"').replace(b"</trace><", b"</trace><!-- c --><", 1)), 1
)
def test_parse_xes_flat_path_across_window_edges(case, window):
    off_layout, data = case
    expected = outcome(parse_xes_reference, data)
    assert outcome(_parse_xes_with_handlers, data) == expected
    with xes_window(window):
        log = _parse_flat_xes(data)
        assert (log is None) == off_layout
        assert outcome(parse_xes, data) == expected
    if log is not None:
        assert list(log.variants.items()) == expected


def _writer_log(draws: int) -> EventLog:
    """A log of up to ``draws`` variants of 0 to 4 events over three labels,
    most of them holding several traces."""
    labels = ("a", "b", "c d")
    return EventLog(
        {
            tuple(labels[v // 3**i % 3] for i in range(v % 5)): 1 + v % 4
            for v in range(draws)
        }
    )


NESTED_LIST = b'<list key="l"><string key="x" value="y"/></list>'


@pytest.mark.parametrize("window", [1, 40, 200])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_parse_xes_leaving_the_layout_in_any_window(window, where):
    # a list after the case name of the first, a middle or the last trace
    # leaves the layout in the first, a middle or the last window
    data = write_log_xes(_writer_log(40))
    names = [m.end() for m in re.finditer(rb'value="case-[0-9]+"/>', data)]
    at = {"first": names[0], "middle": names[len(names) // 2], "last": names[-1]}[where]
    data = data[:at] + NESTED_LIST + data[at:]
    expected = outcome(parse_xes_reference, data)
    assert outcome(_parse_xes_with_handlers, data) == expected
    with xes_window(window):
        assert _parse_flat_xes(data) is None
        assert outcome(parse_xes, data) == expected


@contextmanager
def _counting_run_matches():
    """The runs of events the flat path fullmatches, one entry per call."""
    runs = []
    real = log_module._FLAT_RUN.fullmatch

    def fullmatch(run):
        runs.append(run)
        return real(run)

    with patch.object(log_module, "_FLAT_RUN", SimpleNamespace(fullmatch=fullmatch)):
        yield runs


@pytest.mark.parametrize("window", [40, log_module._CHUNK])
def test_parse_xes_flat_path_matches_each_distinct_run_once(window):
    log = _writer_log(40)
    data = write_log_xes(log)
    with xes_window(window), _counting_run_matches() as runs:
        assert _parse_flat_xes(data).variants == log.variants
    # one match per distinct run of events, not one per trace
    assert len(runs) == len(set(runs)) == len(log.variants) < log.total_traces
    # a list in the last event only: the flat path matches each distinct
    # run once, the last trace's changed run too, and declines there;
    # parse_xes gives the handler parser's log
    at = data.rfind(b"</event>")
    late = data[:at] + NESTED_LIST + data[at:]
    with xes_window(window), _counting_run_matches() as runs:
        assert _parse_flat_xes(late) is None
    last_seen_before = list(log.variants.values())[-1] > 1
    assert len(runs) == len(set(runs)) == len(log.variants) + last_seen_before
    assert NESTED_LIST in runs[-1]
    assert parse_xes(late).variants == _parse_xes_with_handlers(late).variants == log.variants


# Bytes XML may reject in a quoted value, and bytes it accepts; a C0 control
# or a bare "&" fails the value pattern itself, and what is above ASCII
# meets the UTF-8 inspection.  Each goes into one case name or label of a
# document in the writer's layout, sometimes at the end of a run of padding
# that makes it straddle the first 64 KiB chunk boundary.
SUSPECT = st.sampled_from(
    [
        b"\x00", b"\x01", b"\x0b", b"\x1f", b"\x7f",
        b"&", b"&amp", b"&#38;", b"&apos;", b"&e;",
        b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80",
        "\ufffe".encode(), "\uffff".encode(), "\ufffd".encode(),
        "\u00e9".encode(), "\uffef".encode(), "\U0010ffff".encode(),
    ]
)


@st.composite
def suspect_xes_documents(draw):
    data = draw(flat_xes_documents(False))
    # a case name follows <trace>, a label <event>
    element = draw(st.sampled_from([b"<trace>", b"<event>"]))
    name = rb"""[ \t\r\n]*<string key="concept:name" value=["']"""
    values = [m.end() for m in re.finditer(element + name, data)]
    assume(values)
    at = values[draw(POSITION) % len(values)]
    suspect = draw(SUSPECT)
    if draw(st.booleans()):
        suspect = b"x" * (log_module._CHUNK - draw(st.integers(1, 3)) - at) + suspect
    return data[:at] + suspect + data[at:]


@settings(max_examples=150, deadline=None)
@given(suspect_xes_documents())
@example(_flat_log(b'"a"', case=b'"case&#38;-1"'))
@example(_flat_log(b'"a"', case=b'"&apos;"'))
@example(_flat_log(b'"a"', case=b'"a&b"'))
@example(_flat_log(b'"a"', case=b'"&amp"'))
@example(_flat_log(b'"a"', case=b'"\xef\xbf\xbe"'))
@example(_flat_log(b'"a\xef\xbf\xbf"'))
@example(_flat_log(b'"a"', case=b'"\x01"'))
def test_parse_xes_suspect_bytes_match_handler_parser_and_tree_oracle(data):
    expected = outcome(parse_xes_reference, data)
    assert outcome(_parse_xes_with_handlers, data) == expected
    assert outcome(parse_xes, data) == expected


@pytest.mark.parametrize("quote", [b'"', b"'"])
@pytest.mark.parametrize(
    "inner, admitted",
    [
        *[
            (bad, False)
            for bad in (b"\x00", b"\x01", b"\x0b", b"\x1f", b"&", b"&amp", b"&#38;", b"&apos;", b"&e;")
        ],
        *[(ref.encode(), True) for ref in log_module._REFERENCES],
    ],
)
def test_flat_patterns_admit_no_control_and_only_the_references(inner, admitted, quote):
    # a case name or label holding a C0 control, or an "&" that starts none
    # of _REFERENCES, leaves the layout at the pattern; a reference does not
    for value in (inner, b"a" + inner + b"b"):
        value = quote + value + quote
        case = b'<trace><string key="concept:name" value=%b/>' % value
        event = FLAT_EVENT.encode() % value
        assert (log_module._FLAT_OPEN.fullmatch(case) is not None) == admitted
        assert (log_module._FLAT_RUN.fullmatch(event) is not None) == admitted


def _xml_text(label: str) -> str:
    """``label`` without the characters XML cannot carry."""
    return "".join(
        c for c in label
        if c in "\t\n\r"
        or not (unicodedata.category(c) in ("Cc", "Cs") or c in "\ufffe\uffff")
    )


@contextmanager
def _no_expat_pass(data: bytes):
    """Neither the handler parser nor an expat pass may run on ``data``."""
    refuse = AssertionError(data)
    with (
        patch.object(log_module, "_parse_xes_with_handlers", side_effect=refuse),
        patch.object(log_module.expat, "ParserCreate", side_effect=refuse),
    ):
        yield


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.lists(st.text(max_size=3).map(_xml_text).filter(bool), max_size=4).map(tuple),
        st.integers(1, 3),
        max_size=5,
    ).map(EventLog)
)
@example(EventLog({("a", "b"): 3, ("a",): 2}))
# quoteattr writes these as "a&amp;b", "&quot;q'&lt;&gt;" and "t&#9;&#10;&#13;"
@example(EventLog({("a&b", "\"q'<>"): 2, ("t\t\n\r",): 1}))
def test_writer_output_takes_the_flat_path(log):
    # neither the handler parser nor an expat pass runs on it
    data = write_log_xes(log)
    with _no_expat_pass(data):
        assert parse_xes(data).variants == log.variants


def test_every_character_xml_carries_is_proven_without_an_expat_pass():
    # one label holds every character of the Basic Multilingual Plane that
    # XML carries and the ends of every other plane; its 3-byte characters
    # straddle several 64 KiB chunk boundaries
    astral = [
        c for plane in range(0x10000, 0x110000, 0x10000)
        for c in (*range(plane, plane + 64), *range(plane + 0xFFC0, plane + 0x10000))
    ]
    label = "".join(map(chr, [*range(0x10000), *astral]))
    log = EventLog({(_xml_text(label), "a"): 2, ("a",): 1})
    data = write_log_xes(log)
    chunk = log_module._CHUNK
    # a continuation byte starts a chunk: a character straddles its boundary
    assert any(0x80 <= data[at] < 0xC0 for at in range(chunk, len(data), chunk))
    with _no_expat_pass(data):
        assert parse_xes(data).variants == log.variants


def test_parse_xes_peak_memory_stays_below_the_document_size():
    # a regex over the whole document or a decoded copy of it would exceed
    # the bytes; expat's own buffer stays near one 1 MiB chunk
    labels = [f"activity {i}" for i in range(12)]
    log = EventLog(
        {
            tuple(labels[v // 12**i % 12] for i in range(6 + v % 7)): 6 + v % 5
            for v in range(300)
        }
    )
    data = write_log_xes(log)
    assert 1_500_000 < len(data) < 1_900_000
    tracemalloc.start()
    try:
        parsed = parse_xes(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parsed.variants == log.variants
    assert peak < len(data)


def _peak(parse, data):
    tracemalloc.start()
    try:
        parsed = parse(data)
        return parsed, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_csv_peak_memory_stays_well_below_a_row_list():
    # the oracle keeps a dict of every row; parse_csv keeps no row past its
    # chunk, only an activity and an order column and each case's row
    # numbers.  On Python 3.10 to 3.13 its peak was 0.21-0.22 of the
    # oracle's; one chunk holding every row reached 0.72-0.73 and the row
    # loop parse_csv replaced 0.48-0.50, both over the bound
    labels = [f"activity {i}" for i in range(12)]
    log = EventLog(
        {
            tuple(labels[v // 12**i % 12] for i in range(6 + v % 7)): 15 + v % 9
            for v in range(400)
        }
    )
    data = write_log_csv(log)
    assert data.count(b"\n") > 50_000
    parsed, peak = _peak(parse_csv, data)
    oracle, oracle_peak = _peak(parse_csv_reference, data)
    assert parsed.variants == oracle.variants == log.variants
    assert peak < 0.3 * oracle_peak


def test_parse_csv_interns_every_label():
    data = _csv(*(f"c{i % 5},{'label ' * (1 + i % 3)}{i % 4},{i}" for i in range(40)))
    for chunk_rows in (2, log_module._CSV_CHUNK):
        with csv_chunk(chunk_rows):
            labels = [a for trace in parse_csv(data).variants for a in trace]
        assert len(set(labels)) == 12
        assert all(sys.intern(a) is a for a in labels)


CSV_CELL = st.sampled_from(
    ["c1", "c2", "c3", "a", "b", "b,c", 'q"t', "x\ny", "", "1", "2", "9", "10",
     "-3", " 4", "x"]
)
CSV_COLUMN = st.sampled_from(["case", "activity", "order", "extra"])
CSV_COLUMNS = st.lists(CSV_COLUMN, max_size=2)
# a row's width relative to the header; None is a blank line
CSV_ROW_SHAPES = st.lists(st.sampled_from([0, 0, 0, -1, 1, None]), max_size=8)
CSV_CELLS = st.lists(CSV_CELL, min_size=8, max_size=8)
CSV_LINE_END = st.sampled_from(["\r\n", "\n"])


@st.composite
def csv_documents(draw):
    header = draw(st.permutations(["case", "activity", "order"]))
    # extra and repeated column names on either side
    header = draw(CSV_COLUMNS) + list(header) + draw(CSV_COLUMNS)
    if draw(ONE_IN_TEN):
        del header[draw(POSITION) % len(header)]
    rows = [header]
    for shape in draw(CSV_ROW_SHAPES):
        rows.append([] if shape is None else draw(CSV_CELLS)[: len(header) + shape])
    buf = io.StringIO()
    csv.writer(buf, lineterminator=draw(CSV_LINE_END)).writerows(rows)
    text = buf.getvalue()
    if draw(ONE_IN_TEN):
        text = "\n" + text
    if draw(ONE_IN_TEN):
        text = "\ufeff" + text
    return text.encode("utf-8")


# parse_csv reads this many rows at a time; 2 and 3 put many chunk edges
# into the short documents drawn here
CSV_CHUNK_ROWS = st.sampled_from([2, 3, log_module._CSV_CHUNK])


@settings(max_examples=300, deadline=None)
@given(csv_documents(), CSV_CHUNK_ROWS)
def test_parse_csv_matches_row_list_oracle(data, chunk_rows):
    with csv_chunk(chunk_rows):
        assert outcome(parse_csv, data) == outcome(parse_csv_reference, data)


@settings(max_examples=60, deadline=None)
@given(csv_documents(), st.lists(CSV_COLUMN, min_size=3, max_size=3))
def test_parse_csv_matches_row_list_oracle_on_custom_columns(data, columns):
    assert outcome(parse_csv, data, *columns) == outcome(
        parse_csv_reference, data, *columns
    )


CSV_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["c1", "c2", "c3"]),
        st.sampled_from(["a", "b", "c"]),
        st.integers(-20, 20).map(str),
    ),
    max_size=12,
)
# order values int() reads and values it does not; "\u0663" (Arabic-Indic
# three) is a decimal digit, "\u00b2" (superscript two) is a digit but not
# a decimal one
ODD_ORDER = st.sampled_from([" 7 ", "+3", "1_0", "\u0663", "x", "1.5", "", "\u00b2"])


@settings(max_examples=250, deadline=None)
@given(CSV_EVENTS, st.lists(st.tuples(POSITION, ODD_ORDER), max_size=2), CSV_CHUNK_ROWS)
def test_parse_csv_mixed_orders_match_row_list_oracle(events, odd, chunk_rows):
    rows = [list(event) for event in events]
    for at, order in odd:
        if rows:
            rows[at % len(rows)][2] = order
    buf = io.StringIO()
    csv.writer(buf).writerows([("case", "activity", "order"), *rows])
    data = buf.getvalue().encode("utf-8")
    with csv_chunk(chunk_rows):
        assert outcome(parse_csv, data) == outcome(parse_csv_reference, data)


@pytest.mark.parametrize(
    "data, variants",
    [
        # cases interleave across chunk edges
        (_csv("c1,a,1", "c2,x,2", "c1,b,2", "c2,y,1", "c1,c,3", "c2,z,3", "c3,a,1"),
         {("a", "b", "c"): 1, ("y", "x", "z"): 1, ("a",): 1}),
        # one case continues across two edges, its rows out of order
        (_csv("c1,a,1", "c1,b,2", "c1,d,4", "c1,c,3", "c1,e,5", "c2,a,1"),
         {("a", "b", "c", "d", "e"): 1, ("a",): 1}),
        # "x" in the last chunk makes every case sort lexicographically,
        # also the cases of the chunks before it
        (_csv("c1,p,9", "c1,q,10", "c2,r,1", "c2,s,2", "c3,t,x"),
         {("q", "p"): 1, ("r", "s"): 1, ("t",): 1}),
        # in file order, the cells read 1 to n as write_log_csv writes them,
        # for c1 across an edge and for c2 interleaved with it
        (_csv("c1,a,1", "c2,x,1", "c1,b,2", "c1,c,3", "c2,y,2"),
         {("a", "b", "c"): 1, ("x", "y"): 1}),
        # the cells from c1's first row to its last read 1 to 3, as c3's
        # do, but the middle row is c2's
        (_csv("c1,a,1", "c2,x,2", "c1,b,3", "c3,p,1", "c3,q,2", "c3,r,3"),
         {("a", "b"): 1, ("x",): 1, ("p", "q", "r"): 1}),
    ],
)
@pytest.mark.parametrize("chunk_rows", [2, 3])
def test_parse_csv_groups_cases_across_chunk_edges(data, variants, chunk_rows):
    with csv_chunk(chunk_rows):
        assert parse_csv(data).variants == variants
        assert outcome(parse_csv, data) == outcome(parse_csv_reference, data)


@pytest.mark.parametrize("chunk_rows", [2, 3, 4, log_module._CSV_CHUNK])
def test_parse_csv_reports_a_short_row_before_a_later_field_over_the_limit(chunk_rows):
    # the csv module raises at line 5; the rows read before it in the same
    # chunk are checked first, so the short row at line 3 is reported
    huge = "x" * (csv.field_size_limit() + 1)
    data = _csv("c1,a,1", "c2", "c3,a,1", f"c1,{huge},2")
    with csv_chunk(chunk_rows), pytest.raises(
        LogParseError, match="^unparseable row at line 3$"
    ):
        parse_csv(data)


def test_parse_csv_ends_lines_only_at_line_feeds():
    # a carriage return alone does not end a line, as in a text reader with
    # newline="\n"; the csv module then rejects the row that holds it
    with pytest.raises(
        LogParseError, match="^malformed CSV at line 1: new-line character seen"
    ):
        parse_csv(b"case,activity,order\rc1,a,1\r")
    assert parse_csv(b'case,activity,order\nc1,"a\rb",1\n').variants == {("a\rb",): 1}


def test_parse_csv_reads_multibyte_labels_and_quoted_line_breaks_like_decoded_text():
    # labels of 2-, 3- and 4-byte characters, some holding quoted line
    # breaks, over many times the line reader's 8 KiB decode buffer, with a
    # byte-order mark; the oracle decodes the whole file first
    labels = ["\u00e9t\u00e9", "\u4e2d\u6587", "x\r\ny", "\U0001f600,\n", "plain"]
    log = EventLog(
        {tuple(labels[v // 5**i % 5] for i in range(1 + v % 6)): 1 + v % 7 for v in range(400)}
    )
    data = b"\xef\xbb\xbf" + write_log_csv(log)
    assert len(data) > 8 * 8192
    assert outcome(parse_csv, data) == outcome(parse_csv_reference, data)
    assert parse_csv(data).variants == log.variants


# labels over the characters a trace cell escapes, the letters around them
# and the empty label
CELL_LABELS = st.text(alphabet="ab|\\-", max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(CELL_LABELS, max_size=4).map(tuple))
@example(("a|b",))
@example(("a", "b"))
@example(("-",))
@example(("\\-",))
@example(("",))
def test_trace_cell_splits_back_into_its_trace(trace):
    cell = join_trace(trace)
    assert read_trace_cell(cell) == trace
    if not any("|" in a or "\\" in a for a in trace) and trace != ("-",):
        assert cell == ("|".join(trace) if trace else "-")
