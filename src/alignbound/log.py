"""Event logs as variant multisets, plus XES and CSV parsing.

A trace is a tuple of activity labels (plain strings, interned on
construction).  An :class:`EventLog` stores each distinct trace (variant)
with its multiplicity; parsing order does not matter because every consumer
iterates variants in a canonical order (length first, then lexicographic).

Both parsers stream their input straight into variant counts: XES goes
through an expat handler that counts each trace as it closes, without
building an element tree, and CSV through one ``csv.reader`` pass that
keeps only each case's (order, activity) pairs.
"""

import csv
import io
import sys
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from xml.parsers import expat
from xml.sax.saxutils import quoteattr

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


def parse_xes(data: bytes) -> EventLog:
    """Parse the XES subset: trace elements holding events whose activity is
    the concept:name string attribute.  Lifecycle and other attributes are
    ignored.  An empty log element yields a log with zero variants.

    A ``<trace>`` counts at any depth; an ``<event>`` counts only as its
    direct child, named by its last direct ``<string key="concept:name">``
    child.  Traces are counted as they close, so no element tree is built.

    :raises LogParseError: on malformed XML (message includes the position)
        or an event without a usable concept:name.
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
    if first_nameless is not None:
        raise LogParseError(
            f"event without a non-empty {CONCEPT_NAME} in trace {first_nameless}"
        )
    return EventLog(dict(counts))


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

    :raises LogParseError: missing header or column (named in the message),
        or a row with missing cells (reported with its line number, counting
        non-blank rows).
    """
    reader = csv.reader(io.StringIO(data.decode("utf-8")))
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


def write_log_csv(
    log: EventLog,
    case_column: str = "case",
    activity_column: str = "activity",
    order_column: str = "order",
) -> bytes:
    """Serialize a log to the CSV interchange format, one case per trace
    instance (variants are repeated according to their multiplicity).

    Empty traces cannot be carried by CSV; use the XES writer for those.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([case_column, activity_column, order_column])
    case_no = 0
    for trace in sorted(log.variants, key=trace_sort_key):
        if not trace:
            raise ValueError("CSV interchange cannot represent an empty trace")
        for _ in range(log.variants[trace]):
            case_no += 1
            for pos, activity in enumerate(trace, start=1):
                writer.writerow([f"case-{case_no}", activity, pos])
    return buf.getvalue().encode("utf-8")


def write_log_xes(log: EventLog) -> bytes:
    """Serialize a log to the XES subset understood by :func:`parse_xes`."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>', '<log xes.version="1.0">']
    case_no = 0
    for trace in sorted(log.variants, key=trace_sort_key):
        for _ in range(log.variants[trace]):
            case_no += 1
            out.append("  <trace>")
            out.append(
                f'    <string key="{CONCEPT_NAME}" value="case-{case_no}"/>'
            )
            for activity in trace:
                out.append(
                    "    <event><string key=%s value=%s/></event>"
                    % (quoteattr(CONCEPT_NAME), quoteattr(activity))
                )
            out.append("  </trace>")
    out.append("</log>")
    out.append("")
    return "\n".join(out).encode("utf-8")
