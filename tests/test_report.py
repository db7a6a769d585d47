"""Round-trip and shape tests for report serialization."""

import json
from fractions import Fraction

import pytest

from alignbound.bounds import approximate_log
from alignbound.errors import ReportError
from alignbound.log import EventLog
from alignbound.model import ExplicitLanguageModel
from alignbound.proxy import ProxySet
from alignbound.report import (
    CSV_HEADER,
    TIMING_KEYS,
    read_report_json,
    strip_timings,
    write_report,
)


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


def test_round_trip_preserves_provenance_and_ref_costs():
    report = small_report()
    restored = read_report_json(write_report(report, fmt="json"))
    assert restored.proxy.provenance == "pinned"
    assert restored.proxy.ref_costs == report.proxy.ref_costs
