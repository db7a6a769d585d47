"""Event logs as variant multisets, plus XES and CSV parsing.

A trace is a tuple of activity labels (plain strings, interned on
construction).  An :class:`EventLog` stores each distinct trace (variant)
with its multiplicity, in canonical order (shorter first, then by labels)
whatever order it was built in, so no parser keeps an order and no reader
sorts; :func:`canonical_traces` orders every other trace set alike.

Neither parser builds an element tree or a list of every row.  XES has
two paths.  A document in the layout :func:`write_log_xes` emits is split
at its trace boundaries by one byte pattern and its traces counted by their
runs of events, each distinct run matched once, so no Python code runs per
element or per trace; the patterns hold XML's character rules, so only a
document holding non-ASCII bytes is checked further, for UTF-8.  Every
other document goes through an expat handler that counts each trace as it
closes.  CSV is read in chunks of a fixed number of rows, each split into
columns with no Python code per row; what is kept is the interned activity
column, the order column and each case's row numbers, and each case then
becomes one trace.  The two writers work per variant: a variant's text is
built once and repeated for each of its cases, with only the case name
changed.
"""

import codecs
import csv
import io
import json
import re
import sys
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import count, islice
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


def canonical_traces(traces) -> tuple[Trace, ...]:
    """The distinct traces of ``traces`` in canonical order."""
    return tuple(sorted({make_trace(t) for t in traces}, key=trace_sort_key))


def format_trace(trace: Trace) -> str:
    return "<" + ",".join(trace) + ">"


@dataclass(frozen=True)
class EventLog:
    """Finite multiset of traces, stored as variant -> multiplicity (an int
    of at least 1) with the variants in canonical order, whatever order
    ``variants`` has."""

    variants: dict[Trace, int]

    def __post_init__(self):
        for trace, mult in self.variants.items():
            if not is_int(mult) or mult < 1:
                raise ValueError(
                    f"multiplicity must be an int >= 1, got {mult!r} for "
                    f"{format_trace(trace)}"
                )
        order = sorted(self.variants, key=trace_sort_key)
        object.__setattr__(self, "variants", {t: self.variants[t] for t in order})

    @classmethod
    def from_traces(cls, traces) -> "EventLog":
        return cls(Counter(make_trace(t) for t in traces))

    @property
    def total_traces(self) -> int:
        return sum(self.variants.values())

    @property
    def variant_traces(self) -> tuple[Trace, ...]:
        """Distinct traces in canonical order."""
        return tuple(self.variants)


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
    child.  No element tree is built; the log's variants are in canonical
    order, as every :class:`EventLog`'s are.

    A document in the layout :func:`write_log_xes` emits is read without a
    Python call per element: its XML declaration and ``<log
    xes.version="1.0">``, then traces each holding a concept:name string
    and events of one non-empty concept:name string each, any whitespace
    between elements, and values quoted as ``quoteattr`` quotes them: no
    ``<``, no control character but through a reference, and ``&`` only in
    the references ``quoteattr`` writes.  One byte pattern splits it at its
    trace boundaries, a window of about 64 KiB at a time; its traces are
    counted by their runs of events, and each distinct run is matched once.
    Non-ASCII bytes must be UTF-8 without U+FFFE or U+FFFF.  Any other
    document goes to expat handlers that count each trace as it closes; if it
    leaves the layout only late, the split's work up to there is spent for
    nothing.  Both paths give the same log, and every error comes from the
    handler parser.

    :raises LogParseError: on malformed XML (message includes the position),
        an XML declaration naming an encoding expat cannot read, or an event
        without a usable concept:name.
    """
    log = _parse_flat_xes(data)
    return _parse_xes_with_handlers(data) if log is None else log


# The layout write_log_xes emits, as byte patterns: _FLAT_OPEN matches a
# trace's opening up to its case name, _FLAT_BOUNDARY one trace's close and
# the next one's opening, _FLAT_RUN the run of events between an opening and
# a close (events of one concept:name each, and the whitespace after them),
# and _FLAT_NAMES captures each event's name with its quotes.  A quoted value
# holds at least one character and only what XML admits in it: no "<", no C0
# control (XML would read a raw tab or line break as a space, and forbids the
# others), and "&" only as one of _REFERENCES, the references _label decodes.
# So "</trace>" occurs only where a trace closes, and what is left to
# _well_formed_by_inspection is above ASCII.  Each value is written in the
# unrolled-loop form, which matches in linear time.  Runs are matched and
# their names found once per distinct run, and names decoded once per
# distinct spelling.
_REFERENCES = {
    "&amp;": "&", "&lt;": "<", "&gt;": ">", "&quot;": '"',
    "&#10;": "\n", "&#13;": "\r", "&#9;": "\t",
}
_REFERENCE = re.compile("|".join(_REFERENCES))
_S = rb"[ \t\r\n]*"
_VALUE = b"|".join(
    rb"%b(?!%b)[^%b<&\x00-\x1f]*(?:(?:%b)[^%b<&\x00-\x1f]*)*%b"
    % (q, q, q, _REFERENCE.pattern.encode(), q, q)
    for q in (b'"', b"'")
)
_NAME = rb'<string key="concept:name" value=(%b' + _VALUE + rb")/>"
_FLAT_HEAD = re.compile(
    rb'<\?xml version="1\.0" encoding="UTF-8"\?>' + _S + rb'<log xes\.version="1\.0">'
)
_FLAT_OPEN = re.compile(_S + rb"<trace>" + _S + _NAME % b"?:")
_FLAT_BOUNDARY = re.compile(rb"</trace>" + _FLAT_OPEN.pattern)
_FLAT_RUN = re.compile(rb"(?:" + _S + rb"<event>" + _NAME % b"?:" + rb"</event>)*" + _S)
_FLAT_NAMES = re.compile(rb"<event>" + _NAME % b"")
_FLAT_TAIL = re.compile(_S + rb"</log>" + _S)
_CHUNK = 1 << 16


def _parse_flat_xes(data: bytes) -> EventLog | None:
    """The log of a document in the writer's layout that
    :func:`_well_formed_by_inspection` proves well-formed, or ``None`` for
    any other document.

    The head and the first trace's opening are anchored matches, and the
    bytes after the last ``</trace>`` must be the tail.  The bytes between
    are walked in windows that each end at the first ``</trace>`` at or
    after ``_CHUNK`` bytes, so a window holds whole traces; one split at
    the trace boundaries cuts it into runs of events, which a ``Counter``
    counts, and only the runs not seen before are matched.  The bytes
    between two windows must be one boundary, so every byte is pinned by a
    pattern.  Only after the whole document matched is it inspected.  Each
    distinct run then gives its quoted names in one ``findall``, and each
    distinct name is decoded once; two runs that differ only in whitespace
    or quoting give one variant.
    """
    head = _FLAT_HEAD.match(data)
    if head is None:
        return None
    counts: Counter = Counter()  # run of events -> its number of traces
    tail = head.end()
    if (first := _FLAT_OPEN.match(data, tail)) is not None:
        pos, last = first.end(), data.rfind(b"</trace>")
        if last < pos:
            return None
        split, run = _FLAT_BOUNDARY.split, _FLAT_RUN.fullmatch
        while True:
            end = data.find(b"</trace>", pos + _CHUNK, last)
            end = last if end < 0 else end
            known = len(counts)
            counts.update(split(data[pos:end]))
            if not all(map(run, islice(counts, known, None))):
                return None
            if end == last:
                break
            if (boundary := _FLAT_BOUNDARY.match(data, end)) is None:
                return None
            pos = boundary.end()
        tail = last + len(b"</trace>")
    if _FLAT_TAIL.fullmatch(data, tail) is None or not _well_formed_by_inspection(data):
        return None
    names = _FLAT_NAMES.findall
    runs = [(names(body), mult) for body, mult in counts.items()]
    distinct = {n for quoted, _ in runs for n in quoted}
    labels = {n: _label(n) for n in distinct}
    variants: Counter = Counter()
    for quoted, mult in runs:
        # two spellings of a label, such as "a&gt;" and "a>", are one label
        variants[tuple([labels[n] for n in quoted])] += mult
    return EventLog(variants)


def _well_formed_by_inspection(data: bytes) -> bool:
    """Whether a document the layout patterns matched is well-formed XML,
    decided without an XML parser; ``False`` means not proven, not
    malformed.

    The patterns pin the XML declaration, every element and attribute, the
    whitespace between elements, which is XML's own ``S``, and what a quoted
    value may hold: no ``<``, no C0 control, and ``&`` only as one of
    ``_REFERENCES``, the ones :func:`_label` decodes.  That rule is stricter
    than XML's: it sends a name such as ``case&#38;-1`` to the handler
    parser.  What XML can still reject is above ASCII: bytes that are not
    UTF-8 (this includes encoded surrogates and code points above
    U+10FFFF), and U+FFFE and U+FFFF.  An ASCII document is proven at once;
    any other is decoded 64 KiB at a time, so that no decoded copy of it is
    ever whole.
    """
    if data.isascii():
        return True
    decode = codecs.getincrementaldecoder("utf-8")().decode
    for start in range(0, len(data), _CHUNK):
        try:
            text = decode(data[start:start + _CHUNK], start + _CHUNK >= len(data))
        except UnicodeDecodeError:
            return False
        if "\ufffe" in text or "\uffff" in text:
            return False
    return True


def _label(quoted: bytes) -> Activity:
    """The label a quoted name stands for; the document was proven
    well-formed, so the bytes are UTF-8."""
    text = quoted[1:-1].decode("utf-8")
    if "&" in text:
        text = _REFERENCE.sub(lambda ref: _REFERENCES[ref[0]], text)
    return sys.intern(text)


def _parse_xes_with_handlers(data: bytes) -> EventLog:
    """``parse_xes`` for any document: expat handlers count each trace as
    it closes; XML that is not well-formed raises ``LogParseError`` with
    expat's message and position."""
    counts: Counter = Counter()
    # role of each open element: "trace", "event" for an event that is a
    # direct child of a trace, "" otherwise; the first entry is the document
    roles = [""]
    # one frame per open trace: [pre-order index, activities, event name]
    frames: list[list] = []
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
            counts[tuple(frames.pop()[1])] += 1

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
    # LookupError, ValueError: the XML declaration names an encoding expat
    # cannot read, one Python has no codec for or a multi-byte one
    except (expat.ExpatError, LookupError, ValueError) as exc:
        raise LogParseError(f"malformed XES: {exc}") from None
    if first_nameless is not None:
        raise LogParseError(
            f"event without a non-empty {CONCEPT_NAME} in trace {first_nameless}"
        )
    return EventLog(counts)


# rows of a CSV log read per chunk; only its columns outlive the chunk
_CSV_CHUNK = 256
# int() reads every decimal string of at most this many digits, whatever
# sys.set_int_max_str_digits allows; a longer one may exceed that limit
_INT_DIGITS = 640


def _malformed_csv(reader, exc: csv.Error) -> LogParseError:
    return LogParseError(f"malformed CSV at line {reader.line_num}: {exc}")


def parse_csv(
    data: bytes,
    case_column: str = "case",
    activity_column: str = "activity",
    order_column: str = "order",
) -> EventLog:
    """Parse a headered CSV into an event log, column-wise.

    Rows are grouped by ``case_column`` and sorted within each case by
    ``order_column``; the sort is numeric when every order value in the file
    parses as an integer, lexicographic otherwise.  Ties keep file order
    (stable sort).  One case group becomes one trace.  Blank lines are
    skipped; a column named twice in the header is read from its last
    position.

    Rows are read ``_CSV_CHUNK`` at a time from a text reader over ``data``
    that ends a line only at a line feed, so that the rows are read without
    a decoded copy of the whole file.  Only ``data`` holding non-ASCII
    bytes is decoded whole once up front, to reject bytes that are not
    UTF-8 before any row, and that copy is dropped at once.  Each chunk is
    checked and split into columns by C-level ``map`` calls, with no Python
    statement per row; all that outlives it is its interned activities, its
    order cells and each row's number in its case's list of rows.  A case
    whose rows are one run with the order cells ``1`` to ``n``, as
    :func:`write_log_csv` writes them, is a slice of the activity column;
    every other case sorts its rows.

    :raises LogParseError: input that is not UTF-8 (a leading byte-order
        mark is dropped), missing header or column (named in the message),
        a row with missing cells (reported with its line number, counting
        non-blank rows), or a row the csv module rejects, such as one with a
        field over its size limit (reported with its line number in the
        file).
    """
    if not data.isascii():
        # only to reject bytes that are not UTF-8 before any row is read;
        # the line reader decodes again, 8 KiB at a time
        decode_text(data, LogParseError, "CSV log")
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), "utf-8-sig", newline="\n"))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise _malformed_csv(reader, exc) from None
    if not header:
        raise LogParseError("CSV input has no header row")
    last = {col: i for i, col in enumerate(header)}
    for col in (case_column, activity_column, order_column):
        if col not in last:
            raise LogParseError(f"missing column {col!r}; header has {header}")
    ci, ai, oi = last[case_column], last[activity_column], last[order_column]
    width = max(ci, ai, oi) + 1
    rows = filter(None, reader)
    activities: list[Activity] = []
    orders: list[str] = []
    case_rows: defaultdict[str, list[int]] = defaultdict(list)
    numeric = True
    failure = None
    while True:
        chunk: list[list[str]] = []
        try:
            chunk.extend(islice(rows, _CSV_CHUNK))
        except csv.Error as exc:
            # the rows read before the bad one stay in chunk and are checked
            # first, as one row at a time would be
            failure = exc
        if chunk:
            short = min(map(len, chunk)) < width
            labels = [] if short else list(map(sys.intern, map(itemgetter(ai), chunk)))
            if short or not all(labels):
                bad = next(
                    i for i, row in enumerate(chunk) if len(row) < width or not row[ai]
                )
                raise LogParseError(f"unparseable row at line {len(orders) + bad + 2}")
            cells = list(map(itemgetter(oi), chunk))
            if numeric:
                # int() reads non-empty cells of decimal digits no longer
                # than _INT_DIGITS; only a chunk with another cell is parsed
                digits = "".join(cells)
                if not (
                    all(cells)
                    and digits.isdecimal()
                    and (len(digits) <= _INT_DIGITS or max(map(len, cells)) <= _INT_DIGITS)
                ):
                    try:
                        deque(map(int, cells), 0)
                    except ValueError:
                        numeric = False
            rows_of = map(case_rows.__getitem__, map(itemgetter(ci), chunk))
            deque(map(list.append, rows_of, count(len(orders))), 0)
            orders += cells
            activities += labels
        if failure is not None:
            raise _malformed_csv(reader, failure) from None
        if len(chunk) < _CSV_CHUNK:
            break

    longest = max(map(len, case_rows.values()), default=0)
    written = list(map(str, range(1, longest + 1)))  # write_log_csv's cells
    keys = None
    traces = []
    for indices in case_rows.values():
        first, end = indices[0], indices[-1] + 1
        one_run = end - first == len(indices)
        if numeric and one_run and orders[first:end] == written[: end - first]:
            traces.append(tuple(activities[first:end]))  # already in order
            continue
        if keys is None:
            keys = list(map(int, orders)) if numeric else orders
        indices = sorted(indices, key=keys.__getitem__)
        traces.append(tuple(map(activities.__getitem__, indices)))
    return EventLog(Counter(traces))


def escape_label(label: str, separator: str) -> str:
    r"""``label`` as a CSV cell that joins labels by ``separator`` spells
    it: ``\`` written ``\\`` and ``separator`` written ``\`` + ``separator``,
    so the cell splits back at each unescaped ``separator``."""
    return label.replace("\\", "\\\\").replace(separator, "\\" + separator)


def join_trace(trace) -> str:
    r"""CSV cell for a trace: activities joined by ``|``, ``-`` when empty.

    Each label is escaped by :func:`escape_label`, and the one-label trace
    ``("-",)`` is written ``\-``, so every cell splits back into its labels
    at each unescaped ``|``.  A cell whose labels hold neither ``\`` nor
    ``|`` is the plain join: the joined cell is checked once and escaped
    label by label only if a label needs it.
    """
    if not trace:
        return "-"
    cell = "|".join(trace)
    if "\\" in cell or cell.count("|") >= len(trace):
        cell = "|".join([escape_label(a, "|") for a in trace])
    return "\\-" if cell == "-" else cell


def csv_text(rows) -> str:
    """``rows`` as CSV text, each row ending in a line feed, as the report,
    ``exact`` and the distance-matrix dump write it.  A carriage return
    terminator makes ``csv`` quote a lone carriage return in a cell, which a
    reader would take for a line break, so rows are written ending in CR LF
    and each write call, one row, is cut to end in LF."""
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerows(rows)
    return "".join([line[:-2] + "\n" for line in lines])


def write_log_csv(log: EventLog) -> bytes:
    """Serialize a log to the CSV interchange format (columns ``case``,
    ``activity`` and ``order``, the defaults of :func:`parse_csv`), one case
    per trace instance (variants are repeated according to their
    multiplicity).

    Each variant's rows go through one ``csv.writer`` once, without their
    case cell; every case of the variant then repeats those rows behind its
    own ``case-N`` cell, which never needs quoting.

    Empty traces cannot be carried by CSV; use the XES writer for those.  An
    empty label, which :func:`parse_csv` rejects, or a label the ``csv``
    module cannot write raises ``ValueError``.
    """
    rows: list[str] = []
    # csv.writer calls write once per row, so rows holds one entry per row
    writer = csv.writer(SimpleNamespace(write=rows.append))
    out = ["case,activity,order\r\n"]
    case_no = 0
    for trace, mult in log.variants.items():
        if not trace:
            raise ValueError("CSV interchange cannot represent an empty trace")
        rows.clear()
        for pos, activity in enumerate(trace, 1):
            if not activity:
                raise ValueError("CSV cannot carry the empty label ''")
            try:
                writer.writerow(("", activity, pos))
            except csv.Error as exc:
                # Python 3.10's writer cannot quote a NUL; 3.11 and later can
                raise ValueError(
                    f"CSV cannot carry the label {activity!r}: {exc}"
                ) from None
        for _ in range(mult):
            case_no += 1
            case = f"case-{case_no}"
            out.append(case + case.join(rows))
    return "".join(out).encode("utf-8")


def write_log_xes(log: EventLog) -> bytes:
    """Serialize a log to the XES subset understood by :func:`parse_xes`.

    ``concept:name`` and each distinct label are quoted once; each variant's
    event lines are built once and repeated for every case of the variant,
    which changes only the case's name line.  :func:`parse_xes` reads this
    layout with byte patterns; a layout they do not match would send every
    log written here to the slower handler parser.  An empty label, which
    :func:`parse_xes` rejects, or a label holding a character XML 1.0 cannot
    carry raises ``ValueError``.
    """
    # imported here: xml.sax.saxutils loads urllib.request, which no parser
    # or command but this writer needs
    from xml.sax.saxutils import quoteattr

    # the characters outside XML 1.0's Char production, compiled here since
    # building its character set peaks near 130 KB, which no parser should pay
    not_xml = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
    event = "\n    <event><string key=%s value=%%s/></event>" % quoteattr(CONCEPT_NAME)
    events: dict[str, str] = {}  # label -> its event line
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n<log xes.version="1.0">\n']
    case_no = 0
    for trace, mult in log.variants.items():
        for activity in trace:
            if activity not in events:
                if not activity or not_xml.search(activity):
                    raise ValueError(f"XES cannot carry the label {activity!r}")
                events[activity] = event % quoteattr(activity)
        body = "".join([events[a] for a in trace]) + "\n  </trace>\n"
        for _ in range(mult):
            case_no += 1
            out.append(
                f'  <trace>\n    <string key="{CONCEPT_NAME}" value="case-{case_no}"/>'
            )
            out.append(body)
    out.append("</log>\n")
    return "".join(out).encode("utf-8")
