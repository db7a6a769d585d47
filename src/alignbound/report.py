"""Report serialization.

JSON is the lossless interchange format (exact rationals travel as
strings like ``"7/2"`` and round-trip bit for bit); CSV is a flat view
with one row per variant and an aggregate footer block.  Field order is
fixed so identical runs produce identical bytes once timings are zeroed.
The JSON bytes are those of ``json.dumps(doc, indent=2)``; the variant rows
are filled into a template of that layout rather than encoded one value
at a time.
"""

import csv
import io
import json
from dataclasses import replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .bounds import (
    LOWER_SOURCES,
    TIMING_KEYS,
    ApproxReport,
    BoundsResult,
)
from .errors import ProxyError, ReportError
from .log import is_int, read_json
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


def write_report(report: ApproxReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        return _write_json(report)
    if fmt == "csv":
        return _write_csv(report)
    raise ReportError(f"unknown report format {fmt!r}; expected json or csv")


# one variant object of the JSON report in json.dumps(indent=2)'s layout
# at its depth inside the "variants" list; the keys are CSV_HEADER's
_JSON_VARIANT = (
    "\n    {\n"
    + ",\n".join(f"      {encode_basestring_ascii(key)}: %s" for key in CSV_HEADER)
    + "\n    }"
)


# how json.dumps(indent=2) opens a document whose first key is "proxy"
_PROXY_HEAD = '{\n  "proxy": {\n'


def _json_trace(trace, texts: dict) -> str:
    """A trace as json.dumps(indent=2) lays out a list of strings whose
    items sit eight spaces deep; ``texts`` memoises each trace's text."""
    text = texts.get(trace)
    if text is None:
        items = ",\n        ".join(map(encode_basestring_ascii, trace))
        text = texts[trace] = "[\n        " + items + "\n      ]" if trace else "[]"
    return text


def _write_json(report: ApproxReport) -> bytes:
    """The JSON report, byte for byte ``json.dumps(doc, indent=2) + "\\n"``.

    Each variant row fills one fixed template, with strings escaped by the
    C escaper ``json.dumps`` itself uses, and the proxy members are laid
    out with the same trace texts, so the stdlib's pure-Python indenting
    encoder only lays out the reference costs and the aggregate block.  The
    template holds only while the stdlib keeps its ``indent=2`` layout,
    which the tests compare against on every supported Python.
    """
    texts: dict = {}
    rows = [
        _JSON_VARIANT
        % (
            _json_trace(result.trace, texts),
            mult,
            result.lower,
            result.upper,
            # a Fraction's str holds only digits, "-" and "/"
            f'"{result.estimate}"',
            _json_trace(result.nearest_proxy, texts),
            result.proxy_distance,
            encode_basestring_ascii(result.lower_source),
        )
        for result, mult in report.per_variant
    ]
    variants = "[" + ",".join(rows) + "\n  ]" if rows else "[]"
    # member traces sit at the depth of variant traces
    members = (
        "[\n      "
        + ",\n      ".join(_json_trace(t, texts) for t in report.proxy.members)
        + "\n    ]"
        if report.proxy.members
        else "[]"
    )
    rest = json.dumps(
        {
            "proxy": {
                "ref_costs": [
                    {"trace": list(t), "cost": cost}
                    for t, cost in zip(report.proxy.members, report.ref_costs)
                ],
                "provenance": report.proxy.provenance,
            },
            "aggregates": _aggregates(report),
        },
        indent=2,
    )
    # rest opens with _PROXY_HEAD; the variants block goes in as the first
    # key and the members as the proxy's first key
    return (
        '{\n  "variants": '
        + variants
        + ',\n  "proxy": {\n    "members": '
        + members
        + ",\n"
        + rest[len(_PROXY_HEAD) :]
        + "\n"
    ).encode("utf-8")


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
    string, the members distinct and at least one, the reference costs one
    per member in member order and each lower-bound source one the bracket
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
        if len(set(members)) < len(members):
            raise ValueError("proxy members repeat a trace")
        proxy = ProxySet(
            members=members, provenance=_str(doc["proxy"].get("provenance", ""))
        )
        entries = doc["proxy"]["ref_costs"]
        if tuple(_trace(entry["trace"]) for entry in entries) != proxy.members:
            raise ValueError("ref_costs do not name the proxy members in order")
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
            ref_costs=tuple(_int(entry["cost"]) for entry in entries),
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


def join_trace(trace) -> str:
    """CSV cell for a trace: activities joined by ``|``, ``-`` when empty."""
    return "|".join(trace) if trace else "-"


def _write_csv(report: ApproxReport) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(
        (
            join_trace(result.trace),
            mult,
            result.lower,
            result.upper,
            str(result.estimate),
            join_trace(result.nearest_proxy),
            result.proxy_distance,
            result.lower_source,
        )
        for result, mult in report.per_variant
    )
    writer.writerow([])
    writer.writerow(["aggregate", "value"])
    aggregates = _aggregates(report)
    timings = aggregates.pop("timings_us")
    writer.writerows(aggregates.items())
    writer.writerows((f"timing_{key}_us", us) for key, us in timings.items())
    return buf.getvalue().encode("utf-8")
