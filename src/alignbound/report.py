"""Report serialization.

JSON is the lossless interchange format (exact rationals travel as
strings like ``"7/2"`` and round-trip bit for bit); CSV is a flat view
with one row per variant and an aggregate footer block.  Field order is
fixed so identical runs produce identical bytes once timings are zeroed.
"""

import csv
import io
import json
from dataclasses import replace
from fractions import Fraction

from .bounds import (
    ApproxReport,
    BoundsResult,
    TIMING_BOUND_COMPUTATION,
    TIMING_PROXY_GENERATION,
    TIMING_REFERENCE_ALIGNMENT,
)
from .errors import ReportError
from .proxy import ProxySet

TIMING_KEYS = (
    TIMING_PROXY_GENERATION,
    TIMING_REFERENCE_ALIGNMENT,
    TIMING_BOUND_COMPUTATION,
)

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


def _variant_dict(result: BoundsResult, mult: int) -> dict:
    return {
        "trace": list(result.trace),
        "multiplicity": mult,
        "lower": result.lower,
        "upper": result.upper,
        "estimate": str(result.estimate),
        "nearest_proxy": list(result.nearest_proxy),
        "proxy_distance": result.proxy_distance,
        "lower_source": result.lower_source,
    }


def write_report(report: ApproxReport, fmt: str = "json") -> bytes:
    if fmt == "json":
        return _write_json(report)
    if fmt == "csv":
        return _write_csv(report)
    raise ReportError(f"unknown report format {fmt!r}; expected json or csv")


def _write_json(report: ApproxReport) -> bytes:
    doc = {
        "variants": [
            _variant_dict(result, mult) for result, mult in report.per_variant
        ],
        "proxy": {
            "members": [list(t) for t in report.proxy.members],
            "ref_costs": [
                {"trace": list(t), "cost": report.proxy.ref_costs[t]}
                for t in report.proxy.members
                if t in report.proxy.ref_costs
            ],
            "provenance": report.proxy.provenance,
        },
        "aggregates": {
            "epsilon_max": report.epsilon_max,
            "total_estimate": str(report.total_estimate),
            "total_traces": report.total_traces,
            "aligner_invocations": report.aligner_invocations,
            "timings_us": {key: report.timings_us.get(key, 0) for key in TIMING_KEYS},
        },
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def read_report_json(data) -> ApproxReport:
    """Inverse of the JSON writer; used by tests and downstream tooling."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ReportError(f"malformed report JSON: {exc}") from None
    try:
        proxy = ProxySet(
            members=tuple(tuple(t) for t in doc["proxy"]["members"]),
            ref_costs={
                tuple(entry["trace"]): int(entry["cost"])
                for entry in doc["proxy"]["ref_costs"]
            },
            provenance=doc["proxy"].get("provenance", ""),
        )
        rows = []
        for item in doc["variants"]:
            rows.append(
                (
                    BoundsResult(
                        trace=tuple(item["trace"]),
                        lower=int(item["lower"]),
                        upper=int(item["upper"]),
                        estimate=Fraction(item["estimate"]),
                        nearest_proxy=tuple(item["nearest_proxy"]),
                        proxy_distance=int(item["proxy_distance"]),
                        lower_source=item["lower_source"],
                    ),
                    int(item["multiplicity"]),
                )
            )
        agg = doc["aggregates"]
        return ApproxReport(
            per_variant=rows,
            epsilon_max=int(agg["epsilon_max"]),
            total_estimate=Fraction(agg["total_estimate"]),
            total_traces=int(agg["total_traces"]),
            aligner_invocations=int(agg["aligner_invocations"]),
            timings_us={
                key: int(agg["timings_us"].get(key, 0)) for key in TIMING_KEYS
            },
            proxy=proxy,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReportError(f"report JSON misses or mangles a field: {exc}") from None


def join_trace(trace) -> str:
    """CSV cell for a trace: activities joined by ``|``, ``-`` when empty."""
    return "|".join(trace) if trace else "-"


def _write_csv(report: ApproxReport) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for result, mult in report.per_variant:
        writer.writerow(
            [
                join_trace(result.trace),
                mult,
                result.lower,
                result.upper,
                str(result.estimate),
                join_trace(result.nearest_proxy),
                result.proxy_distance,
                result.lower_source,
            ]
        )
    writer.writerow([])
    writer.writerow(["aggregate", "value"])
    writer.writerow(["epsilon_max", report.epsilon_max])
    writer.writerow(["total_estimate", str(report.total_estimate)])
    writer.writerow(["total_traces", report.total_traces])
    writer.writerow(["aligner_invocations", report.aligner_invocations])
    for key in TIMING_KEYS:
        writer.writerow([f"timing_{key}_us", report.timings_us.get(key, 0)])
    return buf.getvalue().encode("utf-8")
