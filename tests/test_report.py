"""Round-trip and shape tests for report serialization."""

import csv
import io
import json
import re
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from alignbound import fixtures
from alignbound.bounds import (
    LOWER_SOURCES,
    ApproxReport,
    BoundsResult,
    approximate_log,
)
from alignbound.errors import ReportError
from alignbound.log import EventLog
from alignbound.model import ExplicitLanguageModel
from alignbound.proxy import ProxySet, StrategyParams
from alignbound.report import (
    CSV_HEADER,
    TIMING_KEYS,
    read_report_json,
    strip_timings,
    write_report,
)
from conftest import write_report_json_reference


def small_report():
    model = ExplicitLanguageModel([("a", "b", "c"), ("d",)])
    log = EventLog.from_traces(
        [("a", "b", "c"), ("a", "b", "c"), ("a", "c"), ()]
    )
    proxy = ProxySet(members=(("a", "b", "c"),), provenance="pinned")
    return approximate_log(log, model, proxy=proxy)


def test_json_round_trip_is_lossless():
    report = small_report()
    data = write_report(report, fmt="json")
    restored = read_report_json(data)
    assert restored == report
    # exact rationals survive the trip
    assert restored.total_estimate == report.total_estimate
    assert isinstance(restored.total_estimate, Fraction)


def test_json_reader_accepts_str_and_bytes():
    report = small_report()
    data = write_report(report, fmt="json")
    assert read_report_json(data.decode("utf-8")) == read_report_json(data)


def test_json_fractions_serialized_as_strings():
    report = small_report()
    # midpoint of [0, 1] on the a,c variant keeps a denominator
    text = write_report(report, fmt="json").decode("utf-8")
    assert '"estimate": "1/2"' in text


def test_csv_shape():
    report = small_report()
    lines = write_report(report, fmt="csv").decode("utf-8").splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    variant_rows = lines[1 : 1 + len(report.per_variant)]
    assert len(variant_rows) == 3
    # empty trace renders as a dash
    assert variant_rows[0].startswith("-,1,")
    assert lines[1 + len(report.per_variant)] == ""
    tail = lines[2 + len(report.per_variant) :]
    assert tail[0] == "aggregate,value"
    names = [row.split(",")[0] for row in tail[1:]]
    assert names == [
        "epsilon_max",
        "total_estimate",
        "total_traces",
        "aligner_invocations",
    ] + [f"timing_{key}_us" for key in TIMING_KEYS]


def test_csv_header_is_the_json_variant_layout():
    report = small_report()
    header = write_report(report, fmt="csv").decode("utf-8").splitlines()[0]
    rows = json.loads(write_report(report))["variants"]
    assert {tuple(row) for row in rows} == {tuple(header.split(","))}


def test_strip_timings_zeroes_every_key():
    report = small_report()
    stripped = strip_timings(report)
    assert set(stripped.timings_us) == set(TIMING_KEYS)
    assert all(value == 0 for value in stripped.timings_us.values())
    # everything else untouched
    assert stripped.per_variant == report.per_variant
    assert stripped.total_estimate == report.total_estimate


def test_stripped_reports_are_byte_identical_across_runs():
    first = write_report(strip_timings(small_report()), fmt="json")
    second = write_report(strip_timings(small_report()), fmt="json")
    assert first == second
    assert write_report(strip_timings(small_report()), fmt="csv") == write_report(
        strip_timings(small_report()), fmt="csv"
    )


def test_unknown_format_rejected():
    with pytest.raises(ReportError, match="unknown report format"):
        write_report(small_report(), fmt="yaml")


def test_malformed_json_rejected():
    with pytest.raises(ReportError, match="malformed"):
        read_report_json(b"{not json")


def test_missing_field_rejected():
    report = small_report()
    text = write_report(report, fmt="json").decode("utf-8")
    broken = text.replace('"aggregates"', '"aggregate_block"')
    with pytest.raises(ReportError, match="misses or mangles"):
        read_report_json(broken)


def test_non_utf8_report_is_a_report_error():
    with pytest.raises(ReportError, match="^report JSON is not valid UTF-8: "):
        read_report_json(b'{"variants": "\xff"}')


# well-typed rows that contradict their bracket (small_report's rows are
# [] in [1, 3], a c in [0, 1] and a b c in [0, 0], each nearest to a b c)
ROW_CONTRADICTIONS = [
    ("variants/2/multiplicity", -2),
    ("variants/1/lower", -1),
    ("variants/1/lower", 2),
    ("variants/0/estimate", "99"),
    ("variants/0/nearest_proxy", ["z"]),
    ("variants/0/proxy_distance", -7),
    ("variants/1/trace", []),
    # inside the bracket [1, 3] but not its midpoint, 2
    ("variants/0/estimate", "3"),
]


@pytest.mark.parametrize(
    "path, value",
    [
        ("variants/0/trace", "abc"),
        ("variants/0/trace", ["a", 1]),
        ("variants/0/nearest_proxy", "abc"),
        ("proxy/members/0", "abc"),
        ("variants/0/lower", 2.9),
        ("variants/0/upper", "3"),
        ("variants/0/multiplicity", True),
        ("variants/0/proxy_distance", 1.0),
        ("proxy/ref_costs/0", False),
        ("aggregates/epsilon_max", 2.5),
        ("aggregates/total_traces", "4"),
        ("aggregates/aligner_invocations", True),
        ("aggregates/timings_us/bound_computation", 0.5),
        ("variants/0/estimate", 2.9),
        ("aggregates/total_estimate", True),
        ("variants/0/lower_source", 7),
        ("variants/0/estimate", "6/4"),
        ("aggregates/total_estimate", " 3"),
        ("aggregates/total_estimate", "1/0"),
        ("variants/0/lower_source", "exact"),
        ("proxy/provenance", 1),
        ("proxy/ref_costs", []),
        ("proxy/members", []),
        # canonical order would drop the repeat, so the read report would
        # not write the same bytes
        ("proxy/members", [["a", "b", "c"], ["a", "b", "c"]]),
        # right-typed aggregates that contradict the rows (4, 4, 1 and "5/2")
        ("aggregates/epsilon_max", 5),
        ("aggregates/total_traces", 5),
        ("aggregates/aligner_invocations", 2),
        ("aggregates/total_estimate", "3"),
    ]
    + ROW_CONTRADICTIONS
    + [
        # a timings block that is not an object
        ("aggregates/timings_us", []),
        ("aggregates/timings_us", "x"),
        ("aggregates/timings_us", 3),
        ("aggregates/timings_us", None),
        ("aggregates/timings_us", True),
        ("aggregates/timings_us", 1.5),
    ],
)
def test_reader_rejects_mangled_traces_and_integers(path, value):
    # a string trace would split into letters and a float count truncate
    doc = json.loads(write_report(small_report(), fmt="json"))
    *parents, key = [int(p) if p.isdigit() else p for p in path.split("/")]
    target = doc
    for part in parents:
        target = target[part]
    target[key] = value
    contradiction = (path, value) in ROW_CONTRADICTIONS
    if contradiction:
        # aggregates that match the mangled rows, so only the row is wrong
        rows = doc["variants"]
        doc["aggregates"].update(
            epsilon_max=sum(r["multiplicity"] * r["proxy_distance"] for r in rows),
            total_estimate=str(
                sum(r["multiplicity"] * Fraction(r["estimate"]) for r in rows)
            ),
            total_traces=sum(r["multiplicity"] for r in rows),
        )
    with pytest.raises(
        ReportError, match="^report JSON misses or mangles a field: "
    ) as raised:
        read_report_json(json.dumps(doc))
    if contradiction:
        assert f"{path} " in str(raised.value)


def test_round_trip_preserves_provenance_and_ref_costs():
    report = small_report()
    restored = read_report_json(write_report(report, fmt="json"))
    assert restored.proxy.provenance == "pinned"
    assert restored.ref_costs == report.ref_costs == (0,)


# Reports built field by field: labels with every kind of character JSON
# escapes, empty traces, and counts far past any real log.
TRACE = st.lists(st.text(), max_size=4).map(tuple)
COUNT = st.integers(0, 10**12)
MULTIPLICITY = st.integers(1, 10**12)
LOWER_SOURCE = st.sampled_from(LOWER_SOURCES)


@st.composite
def sound_rows(draw, members):
    """A row the reader accepts: a known lower-bound source, lower <=
    upper and a member as the nearest proxy."""
    lower, upper = sorted((draw(COUNT), draw(COUNT)))
    result = BoundsResult(
        trace=draw(TRACE),
        lower=lower,
        upper=upper,
        nearest_proxy=draw(st.sampled_from(members)),
        proxy_distance=draw(COUNT),
        lower_source=draw(LOWER_SOURCE),
    )
    return result, draw(MULTIPLICITY)


@st.composite
def reports(draw, sound=False):
    """Any rows the writer must lay out, or with ``sound`` set only rows
    the reader accepts, no trace twice."""
    proxy = ProxySet(
        members=tuple(draw(st.lists(TRACE, min_size=1, max_size=4, unique=True))),
        provenance=draw(st.text()),
    )
    if sound:
        rows = st.lists(
            sound_rows(proxy.members), max_size=6, unique_by=lambda row: row[0].trace
        )
    else:
        row = st.tuples(
            st.builds(
                BoundsResult,
                trace=TRACE,
                lower=COUNT,
                upper=COUNT,
                nearest_proxy=TRACE,
                proxy_distance=COUNT,
                lower_source=st.one_of(LOWER_SOURCE, st.text()),
            ),
            MULTIPLICITY,
        )
        rows = st.lists(row, max_size=6)
    return ApproxReport(
        per_variant=draw(rows),
        timings_us={key: draw(COUNT) for key in TIMING_KEYS},
        proxy=proxy,
        ref_costs=tuple(draw(COUNT) for _ in proxy.members),
    )


@settings(max_examples=150, deadline=None)
@given(reports())
@example(small_report())
def test_json_report_is_json_dumps(report):
    assert write_report(report, fmt="json") == write_report_json_reference(report)


@settings(max_examples=100, deadline=None)
@given(reports(sound=True))
def test_json_round_trip_over_drawn_reports(report):
    assert read_report_json(write_report(report, fmt="json")) == report


def test_json_report_with_an_empty_proxy_is_json_dumps():
    # ProxySet rejects an empty member list, so empty the frozen set after
    # construction: the writer must still lay it out as json.dumps does
    proxy = ProxySet(members=(("a",),), provenance="none")
    object.__setattr__(proxy, "members", ())
    report = replace(small_report(), proxy=proxy, ref_costs=())
    data = write_report(report, fmt="json")
    assert data == write_report_json_reference(report)
    assert b'"members": [],' in data


def test_json_report_with_an_empty_member_trace_is_json_dumps():
    proxy = ProxySet(members=((), ("a", "b", "c")))
    report = replace(small_report(), proxy=proxy, ref_costs=(1, 0))
    data = write_report(report, fmt="json")
    assert data == write_report_json_reference(report)
    assert b'"members": [[], ["a", "b", "c"]]' in data
    assert read_report_json(data).proxy.members == proxy.members


def two_member_report():
    """The report of the empty-member-trace case above."""
    proxy = ProxySet(members=((), ("a", "b", "c")))
    return replace(small_report(), proxy=proxy, ref_costs=(1, 0))


def test_json_report_writes_the_reference_costs_in_member_order():
    doc = json.loads(write_report(two_member_report(), fmt="json"))
    assert doc["proxy"]["members"] == [[], ["a", "b", "c"]]
    assert doc["proxy"]["ref_costs"] == [1, 0]


@pytest.mark.parametrize(
    "key, value, message",
    [
        # the costs go by position, so a reordered list would not write the
        # same bytes back
        ("members", [["a", "b", "c"], []], "not distinct and in canonical order"),
        ("members", [[], []], "not distinct and in canonical order"),
        ("ref_costs", [1, 0, 0], "not one cost >= 0 per member"),
        ("ref_costs", [1], "not one cost >= 0 per member"),
        ("ref_costs", [-1, 0], "not one cost >= 0 per member"),
        ("ref_costs", [1.0, 0], "an integer field holds 1.0"),
        ("ref_costs", [True, 0], "an integer field holds True"),
        ("ref_costs", ["0", 0], "an integer field holds '0'"),
    ],
    ids=["swapped", "repeated", "long", "short", "-1", "1.0", "true", "string"],
)
def test_reader_rejects_a_proxy_block_it_would_not_write(key, value, message):
    report = two_member_report()
    doc = json.loads(write_report(report, fmt="json"))
    assert read_report_json(json.dumps(doc)) == report
    doc["proxy"][key] = value
    pattern = f"^report JSON misses or mangles a field: .*{re.escape(message)}"
    with pytest.raises(ReportError, match=pattern):
        read_report_json(json.dumps(doc))


def csv_lines_from_json(report):
    """The CSV report's lines as its JSON report gives them: each variant
    row's values under ``CSV_HEADER``, a trace's labels joined by ``|``
    with ``\\`` and ``|`` escaped by a backslash inside each, ``-`` when
    empty and ``\\-`` for the one label ``-``, then a blank line,
    ``aggregate,value``, the four aggregates and one ``timing_<key>_us``
    line per timing."""
    doc = json.loads(write_report(report, fmt="json"))
    assert all(list(row) == list(CSV_HEADER) for row in doc["variants"])

    def cell(value):
        if not isinstance(value, list):
            return str(value)
        if not value:
            return "-"
        labels = [a.replace("\\", "\\\\").replace("|", "\\|") for a in value]
        return "\\-" if labels == ["-"] else "|".join(labels)

    aggregates = doc["aggregates"]
    names = ("epsilon_max", "total_estimate", "total_traces", "aligner_invocations")
    return [
        list(CSV_HEADER),
        *([cell(row[key]) for key in CSV_HEADER] for row in doc["variants"]),
        [],
        ["aggregate", "value"],
        *([name, str(aggregates[name])] for name in names),
        *([f"timing_{key}_us", str(us)] for key, us in aggregates["timings_us"].items()),
    ]


def read_csv_report(report):
    text = write_report(report, fmt="csv").decode("utf-8")
    return list(csv.reader(io.StringIO(text, newline="")))


def carriage_return_report():
    """``small_report`` with a label holding a lone carriage return, which
    the CSV writer must quote for a reader to keep the row whole."""
    report = small_report()
    (row, mult), *rest = report.per_variant
    return replace(report, per_variant=[(replace(row, trace=("a\rb",)), mult), *rest])


@settings(max_examples=150, deadline=None)
@given(reports())
@example(small_report())
@example(carriage_return_report())
def test_csv_report_is_the_json_rows_and_aggregates(report):
    expected = csv_lines_from_json(report)
    # csv.writer rejects a NUL in a cell before Python 3.11
    assume(sys.version_info >= (3, 11) or all("\x00" not in c for r in expected for c in r))
    assert read_csv_report(report) == expected


@pytest.mark.parametrize(
    "make_model",
    [fixtures.parallel_loop_language, fixtures.parallel_loop_petri],
    ids=["language", "petri"],
)
def test_csv_report_of_each_backend_is_the_json_rows_and_aggregates(make_model):
    log = EventLog(
        {
            (): 1,
            ("a", "b", "e"): 3,
            ("a", "c", "b", "d", "e"): 2,
            ("a", "x", "b", "e"): 1,
        }
    )
    params = StrategyParams(strategy="kcenter", size_percent=Fraction(50), seed=0)
    report = approximate_log(log, make_model(), params=params)
    assert len(report.per_variant) == 4
    assert read_csv_report(report) == csv_lines_from_json(report)
