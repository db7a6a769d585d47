import csv
import io
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignbound.errors import LogParseError
from alignbound.log import (
    CONCEPT_NAME,
    EventLog,
    parse_csv,
    parse_xes,
    trace_sort_key,
    write_log_csv,
    write_log_xes,
)
from conftest import parse_csv_reference, parse_xes_reference

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


def test_parse_csv_blank_first_line_is_no_header():
    with pytest.raises(LogParseError, match="no header row"):
        parse_csv(b"\ncase,activity,order\nc1,a,1\n")


def test_parse_csv_byte_order_mark_is_part_of_the_first_name():
    with pytest.raises(LogParseError, match="missing column 'case'"):
        parse_csv(b"\xef\xbb\xbfcase,activity,order\nc1,a,1\n")


def test_event_log_canonical_variant_order():
    log = EventLog.from_traces([("b",), ("a", "x"), ("a",), ("a", "b")])
    assert log.variant_traces == (("a",), ("b",), ("a", "b"), ("a", "x"))
    assert [trace_sort_key(t) for t in log.variant_traces] == sorted(
        trace_sort_key(t) for t in log.variant_traces
    )


def test_event_log_rejects_zero_multiplicity():
    with pytest.raises(ValueError):
        EventLog({("a",): 0})


def test_csv_round_trip_preserves_variants():
    log = EventLog({("a", "b"): 2, ("a",): 3, ("b", "a", "b"): 1})
    again = parse_csv(write_log_csv(log))
    assert again.variants == log.variants
    assert again.total_traces == log.total_traces


def test_csv_write_rejects_empty_trace():
    with pytest.raises(ValueError):
        write_log_csv(EventLog({(): 1}))


def test_xes_round_trip_with_empty_trace():
    log = EventLog({(): 2, ("a", "b"): 1})
    again = parse_xes(write_log_xes(log))
    assert again.variants == log.variants


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


@settings(max_examples=200, deadline=None)
@given(csv_documents())
def test_parse_csv_matches_row_list_oracle(data):
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
# order values int() reads and values it does not
ODD_ORDER = st.sampled_from([" 7 ", "+3", "1_0", "x", "1.5", ""])


@settings(max_examples=150, deadline=None)
@given(CSV_EVENTS, st.lists(st.tuples(POSITION, ODD_ORDER), max_size=2))
def test_parse_csv_mixed_orders_match_row_list_oracle(events, odd):
    rows = [list(event) for event in events]
    for at, order in odd:
        if rows:
            rows[at % len(rows)][2] = order
    buf = io.StringIO()
    csv.writer(buf).writerows([("case", "activity", "order"), *rows])
    data = buf.getvalue().encode("utf-8")
    assert outcome(parse_csv, data) == outcome(parse_csv_reference, data)
