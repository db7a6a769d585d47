"""Report serialization.

JSON is the lossless interchange format (exact rationals travel as
strings like ``"7/2"`` and round-trip bit for bit); CSV is a flat view:
the JSON report's rows, in the same column order with trace cells joined,
then an aggregate footer block.  Field order is fixed so identical runs
produce identical bytes once timings are zeroed.
The JSON bytes are those of ``json.dumps(doc)`` plus a newline: one line
with the default separators and every non-ASCII character escaped, which
``python -m json.tool`` pretty-prints.
"""

import json
from dataclasses import replace
from fractions import Fraction

from .bounds import (
    LOWER_SOURCES,
    TIMING_KEYS,
    ApproxReport,
    BoundsResult,
)
from .errors import ProxyError, ReportError
from .log import csv_text, is_int, join_trace, read_json
from .proxy import ProxySet

# one variant row, of the JSON report and the CSV report alike
CSV_HEADER = (
    "trace",
    "multiplicity",
    "lower",
    "upper",
    "estimate",
    "nearest_proxy",
    "proxy_distance",
    "lower_source",
)


def strip_timings(report: ApproxReport) -> ApproxReport:
    """Copy of the report with every timing zeroed, for reproducible bytes."""
    return replace(report, timings_us={key: 0 for key in TIMING_KEYS})


def _aggregates(report: ApproxReport) -> dict:
    """The aggregate block, in report order."""
    return {
        "epsilon_max": report.epsilon_max,
        "total_estimate": str(report.total_estimate),
        "total_traces": report.total_traces,
        "aligner_invocations": report.aligner_invocations,
        "timings_us": {key: report.timings_us.get(key, 0) for key in TIMING_KEYS},
    }


def _rows(report: ApproxReport) -> list[dict]:
    """The variant rows, keys in ``CSV_HEADER`` order: traces as the tuples
    they are, the estimate as its string."""
    return [
        {
            "trace": result.trace,
            "multiplicity": mult,
            "lower": result.lower,
            "upper": result.upper,
            "estimate": str(result.estimate),
            "nearest_proxy": result.nearest_proxy,
            "proxy_distance": result.proxy_distance,
            "lower_source": result.lower_source,
        }
        for result, mult in report.per_variant
    ]


def write_report(report: ApproxReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        return _write_json(report)
    if fmt == "csv":
        return _write_csv(report)
    raise ReportError(f"unknown report format {fmt!r}; expected json or csv")


def _write_json(report: ApproxReport) -> bytes:
    """The JSON report: ``json.dumps`` of the document with its default
    separators, which lets the stdlib's C encoder write it whole; it
    writes a trace tuple as an array and the reference costs as an array
    of integers in member order."""
    doc = {
        "variants": _rows(report),
        "proxy": {
            "members": report.proxy.members,
            "ref_costs": report.ref_costs,
            "provenance": report.proxy.provenance,
        },
        "aggregates": _aggregates(report),
    }
    return (json.dumps(doc) + "\n").encode("utf-8")


def _trace(value) -> tuple:
    if not (isinstance(value, list) and all(isinstance(a, str) for a in value)):
        raise TypeError(f"a trace must be a list of strings, not {value!r}")
    return tuple(value)


def _int(value) -> int:
    if not is_int(value):
        raise TypeError(f"an integer field holds {value!r}")
    return value


def _str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"a string field holds {value!r}")
    return value


def _fraction(value) -> Fraction:
    # only the writer's str(Fraction): a JSON float or bool would read as a
    # binary fraction or 1, and "6/4" or " 3" would not round-trip
    result = Fraction(_str(value))
    if str(result) != value:
        raise ValueError(f"a rational field holds {value!r}")
    return result


def read_report_json(data) -> ApproxReport:
    """Inverse of the JSON writer; used by tests and downstream tooling.
    Traces must be lists of strings, integer fields JSON integers, rationals
    strings in the writer's form (``"7/2"``, ``"-3"``), the provenance a
    string, the members distinct, at least one and in the canonical order
    :class:`ProxySet` keeps, the reference costs integers of at least 0, one
    per member in member order, and each lower-bound source one the bracket
    reports.  Each row must agree with its bracket: a multiplicity of at
    least 1, ``0 <= lower <= upper``, the estimate the bracket's midpoint, a
    member as the nearest proxy at a distance of at least 0, and no variant
    given twice.  The timings must be a JSON object.  The report is built
    from the rows, proxy, costs and timings; every other aggregate of the
    document must equal, in JSON type and value, what the writers derive
    from those."""
    doc = read_json(data, ReportError, "report JSON")
    try:
        members = tuple(_trace(t) for t in doc["proxy"]["members"])
        proxy = ProxySet(
            members=members, provenance=_str(doc["proxy"].get("provenance", ""))
        )
        if proxy.members != members:
            raise ValueError("proxy members are not distinct and in canonical order")
        ref_costs = tuple(_int(cost) for cost in doc["proxy"]["ref_costs"])
        if len(ref_costs) != len(members) or min(ref_costs) < 0:
            raise ValueError(f"ref_costs {ref_costs} are not one cost >= 0 per member")
        rows, traces = [], set()
        for i, item in enumerate(doc["variants"]):
            result = BoundsResult(
                trace=_trace(item["trace"]),
                lower=_int(item["lower"]),
                upper=_int(item["upper"]),
                nearest_proxy=_trace(item["nearest_proxy"]),
                proxy_distance=_int(item["proxy_distance"]),
                lower_source=_str(item["lower_source"]),
            )
            mult, estimate = _int(item["multiplicity"]), _fraction(item["estimate"])
            for name, holds, why in (
                ("trace", result.trace not in traces, "given twice"),
                ("lower_source", result.lower_source in LOWER_SOURCES, "unknown"),
                ("multiplicity", mult >= 1, "below 1"),
                ("lower", 0 <= result.lower <= result.upper, "outside [0, upper]"),
                ("estimate", estimate == result.estimate, "not the bracket's midpoint"),
                ("nearest_proxy", result.nearest_proxy in proxy, "not a member"),
                ("proxy_distance", result.proxy_distance >= 0, "below 0"),
            ):
                if not holds:
                    raise ValueError(f"variants/{i}/{name} {item[name]!r} is {why}")
            rows.append((result, mult))
            traces.add(result.trace)
        agg = doc["aggregates"]
        timings = agg["timings_us"]
        if not isinstance(timings, dict):
            raise TypeError(f"timings_us holds {timings!r}, not an object")
        report = ApproxReport(
            per_variant=rows,
            timings_us={key: _int(timings.get(key, 0)) for key in TIMING_KEYS},
            proxy=proxy,
            ref_costs=ref_costs,
        )
        derived = _aggregates(report)
        del derived["timings_us"]  # read from the document, not derived
        for name, value in derived.items():
            if type(agg[name]) is not type(value) or agg[name] != value:
                raise ValueError(f"{name} is {agg[name]!r}, the rows give {value!r}")
        return report
    # ZeroDivisionError: a rational such as "1/0"; ProxyError: no members
    except (KeyError, TypeError, ValueError, ZeroDivisionError, ProxyError) as exc:
        raise ReportError(f"report JSON misses or mangles a field: {exc}") from None


def _write_csv(report: ApproxReport) -> bytes:
    aggregates = _aggregates(report)
    timings = aggregates.pop("timings_us")
    rows = [
        CSV_HEADER,
        *(
            [join_trace(v) if isinstance(v, tuple) else v for v in row.values()]
            for row in _rows(report)
        ),
        [],
        ["aggregate", "value"],
        *aggregates.items(),
        *((f"timing_{key}_us", us) for key, us in timings.items()),
    ]
    return csv_text(rows).encode("utf-8")
