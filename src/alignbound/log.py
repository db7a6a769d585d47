"""Event logs as variant multisets, plus XES and CSV parsing.

A trace is a tuple of activity labels (plain strings, interned on
construction).  An :class:`EventLog` stores each distinct trace (variant)
with its multiplicity; parsing order does not matter because every consumer
iterates variants in a canonical order (length first, then lexicographic).

Both parsers stream their input straight into variant counts: XES goes
through an expat handler that counts each trace as it closes, without
building an element tree, and CSV through one ``csv.reader`` pass that
keeps only each case's (order, activity) pairs.  The two writers work per
variant: a variant's text is built once and repeated for each of its
cases, with only the case name changed.
"""

import csv
import io
import json
import sys
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from types import SimpleNamespace
from xml.parsers import expat

from .errors import LogParseError

Activity = str
Trace = tuple[Activity, ...]

CONCEPT_NAME = "concept:name"


def make_trace(activities) -> Trace:
    return tuple(sys.intern(str(a)) for a in activities)


def trace_sort_key(trace: Trace):
    """Canonical trace order: shorter first, then lexicographic by labels."""
    return (len(trace), trace)


def format_trace(trace: Trace) -> str:
    return "<" + ",".join(trace) + ">"


@dataclass(frozen=True)
class EventLog:
    """Finite multiset of traces, stored as variant -> multiplicity."""

    variants: dict[Trace, int]

    def __post_init__(self):
        for trace, mult in self.variants.items():
            if mult < 1:
                raise ValueError(
                    f"multiplicity must be >= 1, got {mult} for {format_trace(trace)}"
                )

    @classmethod
    def from_traces(cls, traces) -> "EventLog":
        return cls(dict(Counter(make_trace(t) for t in traces)))

    @property
    def total_traces(self) -> int:
        return sum(self.variants.values())

    @property
    def variant_traces(self) -> tuple[Trace, ...]:
        """Distinct traces in canonical order."""
        return tuple(sorted(self.variants, key=trace_sort_key))


def decode_text(data: bytes, error: type[Exception], what: str) -> str:
    """Decode a UTF-8 text input, dropping a leading byte-order mark; bytes
    that are not UTF-8 raise ``error`` naming ``what``."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{what} is not valid UTF-8: {exc}") from None


def read_json(data, error: type[Exception], what: str):
    """Parse JSON bytes (decoded like ``decode_text``) or text; an input that
    is not UTF-8 or not JSON raises ``error`` naming ``what``."""
    if isinstance(data, bytes):
        data = decode_text(data, error, what)
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise error(f"malformed {what}: {exc}") from None


def is_int(value) -> bool:
    # JSON true/false load as bools, which Python counts as ints
    return isinstance(value, int) and not isinstance(value, bool)


def parse_xes(data: bytes) -> EventLog:
    """Parse the XES subset: trace elements holding events whose activity is
    the concept:name string attribute.  Lifecycle and other attributes are
    ignored.  An empty log element yields a log with zero variants.

    A ``<trace>`` counts at any depth; an ``<event>`` counts only as its
    direct child, named by its last direct ``<string key="concept:name">``
    child.  Traces are counted as they close, so no element tree is built.

    :raises LogParseError: on malformed XML (message includes the position),
        an XML declaration naming an encoding expat cannot read, or an event
        without a usable concept:name.
    """
    counts: Counter = Counter()
    # role of each open element: "trace", "event" for an event that is a
    # direct child of a trace, "" otherwise; the first entry is the document
    roles = [""]
    # one frame per open trace: [pre-order index, activities, event name]
    frames: list[list] = []
    closed: list[tuple[int, Trace]] = []  # traces nested in an open one
    n_traces = 0
    first_nameless = None  # lowest index of a trace with a nameless event
    external = set()  # names of the declared external general entities
    intern = sys.intern

    def start(tag, attrs):
        nonlocal n_traces
        name = tag.rpartition("}")[2]
        parent = roles[-1]
        role = ""
        if name == "string":
            if parent == "event" and attrs.get("key") == CONCEPT_NAME:
                frames[-1][2] = attrs.get("value")
        elif name == "trace":
            frames.append([n_traces, [], None])
            n_traces += 1
            role = "trace"
        elif name == "event" and parent == "trace":
            frames[-1][2] = None
            role = "event"
        roles.append(role)

    def end(tag):
        nonlocal first_nameless
        role = roles.pop()
        if role == "event":
            frame = frames[-1]
            if frame[2]:
                frame[1].append(intern(frame[2]))
            elif first_nameless is None or frame[0] < first_nameless:
                first_nameless = frame[0]
        elif role == "trace":
            index, activities, _ = frames.pop()
            closed.append((index, tuple(activities)))
            if not frames:
                # inner traces close first; count in pre-order
                closed.sort()
                counts.update(trace for _, trace in closed)
                closed.clear()

    def entity_decl(name, is_parameter, value, base, system_id, *_):
        if system_id is not None and not is_parameter:
            external.add(name)

    def undefined_entity(name):
        # an entity reference that cannot be expanded: the text and position
        # ElementTree reports for it
        ref = f"&{name};".encode()[:100].decode("utf-8", "replace")
        raise LogParseError(
            f"malformed XES: undefined entity {ref}: "
            f"line {parser.CurrentLineNumber}, column {parser.CurrentColumnNumber}"
        )

    def skipped_entity(name, is_parameter):
        if not is_parameter:
            undefined_entity(name)

    def external_entity(context, *_):
        # context lists the open entities; the external one is being entered
        undefined_entity(next(n for n in context.split("\f") if n in external))

    parser = expat.ParserCreate(namespace_separator="}")
    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.EntityDeclHandler = entity_decl
    parser.SkippedEntityHandler = skipped_entity
    parser.ExternalEntityRefHandler = external_entity
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise LogParseError(f"malformed XES: {exc}") from None
    except (LookupError, ValueError) as exc:
        # the XML declaration names an encoding expat cannot read: one
        # Python has no codec for, or a multi-byte one
        raise LogParseError(f"malformed XES: {exc}") from None
    if first_nameless is not None:
        raise LogParseError(
            f"event without a non-empty {CONCEPT_NAME} in trace {first_nameless}"
        )
    return EventLog(dict(counts))


def _csv_rows(text: str):
    """The rows of ``csv.reader`` over ``text``; a row the reader rejects
    raises ``LogParseError`` naming its line."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise LogParseError(f"malformed CSV at line {reader.line_num}: {exc}") from None


def parse_csv(
    data: bytes,
    case_column: str = "case",
    activity_column: str = "activity",
    order_column: str = "order",
) -> EventLog:
    """Parse a headered CSV into an event log in one pass over the rows.

    Rows are grouped by ``case_column`` and sorted within each case by
    ``order_column``; the sort is numeric when every order value in the file
    parses as an integer, lexicographic otherwise.  Ties keep file order
    (stable sort).  One case group becomes one trace.  Blank lines are
    skipped; a column named twice in the header is read from its last
    position.

    :raises LogParseError: input that is not UTF-8 (a leading byte-order
        mark is dropped), missing header or column (named in the message),
        a row with missing cells (reported with its line number, counting
        non-blank rows), or a row the csv module rejects, such as one with a
        field over its size limit (reported with its line number in the
        file).
    """
    reader = _csv_rows(decode_text(data, LogParseError, "CSV log"))
    header = next(reader, None)
    if not header:
        raise LogParseError("CSV input has no header row")
    last = {col: i for i, col in enumerate(header)}
    for col in (case_column, activity_column, order_column):
        if col not in last:
            raise LogParseError(f"missing column {col!r}; header has {header}")
    ci, ai, oi = last[case_column], last[activity_column], last[order_column]
    width = max(ci, ai, oi) + 1
    intern = sys.intern
    cases: dict[str, list] = {}
    numeric = True
    for line_no, row in enumerate(filter(None, reader), start=2):
        if len(row) < width or not row[ai]:
            raise LogParseError(f"unparseable row at line {line_no}")
        order = row[oi]
        if numeric:
            try:
                int(order)
            except ValueError:
                numeric = False
        cases.setdefault(row[ci], []).append((order, intern(row[ai])))

    key = (lambda e: int(e[0])) if numeric else itemgetter(0)
    counts: Counter = Counter()
    for events in cases.values():
        events.sort(key=key)
        counts[tuple(a for _, a in events)] += 1
    return EventLog(dict(counts))


def write_log_csv(log: EventLog) -> bytes:
    """Serialize a log to the CSV interchange format (columns ``case``,
    ``activity`` and ``order``, the defaults of :func:`parse_csv`), one case
    per trace instance (variants are repeated according to their
    multiplicity).

    Each variant's rows go through one ``csv.writer`` once, without their
    case cell; every case of the variant then repeats those rows behind its
    own ``case-N`` cell, which never needs quoting.

    Empty traces cannot be carried by CSV; use the XES writer for those.  A
    label the ``csv`` module cannot write raises ``ValueError``.
    """
    rows: list[str] = []
    # csv.writer calls write once per row, so rows holds one entry per row
    writer = csv.writer(SimpleNamespace(write=rows.append))
    out = ["case,activity,order\r\n"]
    case_no = 0
    for trace in sorted(log.variants, key=trace_sort_key):
        if not trace:
            raise ValueError("CSV interchange cannot represent an empty trace")
        rows.clear()
        for pos, activity in enumerate(trace, 1):
            try:
                writer.writerow(("", activity, pos))
            except csv.Error as exc:
                # Python 3.10's writer cannot quote a NUL; 3.11 and later can
                raise ValueError(
                    f"CSV cannot carry the label {activity!r}: {exc}"
                ) from None
        for _ in range(log.variants[trace]):
            case_no += 1
            case = f"case-{case_no}"
            out.append(case + case.join(rows))
    return "".join(out).encode("utf-8")


def write_log_xes(log: EventLog) -> bytes:
    """Serialize a log to the XES subset understood by :func:`parse_xes`.

    ``concept:name`` and each distinct label are quoted once; each variant's
    event lines are built once and repeated for every case of the variant,
    which changes only the case's name line.
    """
    # imported here: xml.sax.saxutils loads urllib.request, which no parser
    # or command but this writer needs
    from xml.sax.saxutils import quoteattr

    event = "\n    <event><string key=%s value=%%s/></event>" % quoteattr(CONCEPT_NAME)
    events: dict[str, str] = {}  # label -> its event line
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n<log xes.version="1.0">\n']
    case_no = 0
    for trace in sorted(log.variants, key=trace_sort_key):
        for activity in trace:
            if activity not in events:
                events[activity] = event % quoteattr(activity)
        body = "".join([events[a] for a in trace]) + "\n  </trace>\n"
        for _ in range(log.variants[trace]):
            case_no += 1
            out.append(
                f'  <trace>\n    <string key="{CONCEPT_NAME}" value="case-{case_no}"/>'
            )
            out.append(body)
    out.append("</log>\n")
    return "".join(out).encode("utf-8")
