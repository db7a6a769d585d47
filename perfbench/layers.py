"""Per-layer metrics derived from the spans of traced invocations.

Layer times are self times: a span's duration minus the part its child
spans cover, so ``proxy.generate_s`` excludes the distance matrix it asks
for.  The runner takes the median of each value over the traced
invocations of one command.
"""

import importlib

from tracer import self_times

# spans the speedup pi is computed from
HARNESS_SPANS = (
    "proxy.generate",
    "distance.matrix",
    "aligner.ref_align",
    "bounds.bracket",
    "aligner.exact",
)

# metric name -> the span names (or harness functions) its value needs;
# the names and units of the metrics are the per_layer list of
# BENCHMARK.json
SOURCES = {
    "log.parse_s": ("log.parse",),
    "log.parse_peak_mb": ("log.parse",),
    "log.bytes": ("log.parse",),
    "model.parse_s": ("model.parse",),
    "model.probe_s": ("model.probe",),
    "distance.matrix_s": ("distance.matrix",),
    "distance.pairs": ("distance.matrix",),
    "distance.us_per_pair": ("distance.matrix",),
    "distance.edit_distance_calls": ("distance.edit_distance",),
    "proxy.generate_s": ("proxy.generate", "distance.matrix"),
    "proxy.k": ("proxy.generate",),
    "proxy.epsilon_s": ("proxy.generate", "proxy.epsilon"),
    "proxy.radius": ("proxy.generate", "proxy.epsilon"),
    "aligner.ref_align_s": ("aligner.ref_align",),
    "aligner.ref_calls": ("aligner.ref_align",),
    "aligner.exact_align_s": ("aligner.exact",),
    "aligner.exact_calls": ("aligner.exact",),
    "aligner.states_expanded": ("aligner.exact",),
    "aligner.states_expanded_max": ("aligner.exact",),
    "aligner.us_per_state": ("aligner.exact",),
    "aligner.states_per_move": ("aligner.exact",),
    "bounds.bracket_s": ("bounds.bracket",),
    "bounds.pairs": ("bounds.bracket",),
    "bounds.lower_proxy_pct": ("report.write", "harness.lower_source_percentages"),
    "bounds.lower_structural_pct": ("report.write", "harness.lower_source_percentages"),
    "bounds.lower_both_pct": ("report.write", "harness.lower_source_percentages"),
    "report.write_s": ("report.write",),
    "report.bytes": ("report.write",),
    "harness.pi_with": ("harness.performance_improvement", *HARNESS_SPANS),
    "harness.pi_without": ("harness.performance_improvement", *HARNESS_SPANS),
    "cli.other_s": ("*",),
    "bench.trace_overhead_s": (),
}

# harness functions the metrics are computed with
HARNESS_FUNCTIONS = ("performance_improvement", "lower_source_percentages")

# the layer each span name belongs to, for the share table
LAYER_OF_SPAN = {
    "log.parse": "log",
    "model.parse": "model",
    "model.probe": "model",
    "distance.matrix": "distance",
    "proxy.generate": "proxy",
    "aligner.ref_align": "aligner",
    "aligner.exact": "aligner",
    "bounds.bracket": "bounds",
    "report.write": "report",
    "cli.approximate": "cli",
    "cli.exact": "cli",
}

def absent_reasons(missing: dict[str, str], names) -> dict[str, str]:
    """Metric name -> why it cannot be measured, for the metrics among
    ``names`` that need a name that is gone."""
    # a span that is gone leaves its time in the caller's self time
    spans_gone = "; ".join(sorted(set(missing.values())))
    missing = dict(missing)
    harness = importlib.import_module("alignbound.harness")
    for function in HARNESS_FUNCTIONS:
        if not hasattr(harness, function):
            missing[f"harness.{function}"] = f"alignbound.harness.{function} no longer exists"
    out = {}
    for metric in names:
        for source in SOURCES.get(metric, ()):
            if source == "*" and spans_gone:
                out[metric] = spans_gone
            elif source in missing:
                out[metric] = missing[source]
    return out


def _values(spans, selfs, name, key=None) -> float:
    """Sum of the self times (or of attribute ``key``) of spans ``name``."""
    if key is None:
        return sum(selfs[s.id] for s in spans if s.name == name)
    return sum(s.attrs.get(key, 0) for s in spans if s.name == name)


def approximate_metrics(spans) -> dict:
    """Layer values of one traced ``approximate`` invocation."""
    selfs = self_times(spans)
    m = {}
    m["log.parse_s"] = _values(spans, selfs, "log.parse")
    m["log.bytes"] = _values(spans, selfs, "log.parse", "bytes")
    m["model.parse_s"] = _values(spans, selfs, "model.parse")
    m["model.probe_s"] = _values(spans, selfs, "model.probe")
    m["distance.matrix_s"] = _values(spans, selfs, "distance.matrix")
    m["distance.pairs"] = _values(spans, selfs, "distance.matrix", "pairs")
    m["distance.us_per_pair"] = (
        m["distance.matrix_s"] * 1e6 / m["distance.pairs"] if m["distance.pairs"] else 0.0
    )
    m["proxy.generate_s"] = _values(spans, selfs, "proxy.generate")
    m["proxy.k"] = _values(spans, selfs, "proxy.generate", "k")
    m["proxy.epsilon_s"] = _values(spans, selfs, "proxy.epsilon")
    m["aligner.ref_align_s"] = _values(spans, selfs, "aligner.ref_align")
    m["aligner.ref_calls"] = sum(1 for s in spans if s.name == "aligner.ref_align")
    m["bounds.bracket_s"] = _values(spans, selfs, "bounds.bracket")
    m["bounds.pairs"] = _values(spans, selfs, "bounds.bracket", "members")
    m["report.write_s"] = _values(spans, selfs, "report.write")
    m["report.bytes"] = _values(spans, selfs, "report.write", "bytes")
    m["cli.other_s"] = _values(spans, selfs, "cli.approximate")
    return m


def exact_metrics(spans) -> dict:
    """Layer values of one traced ``exact`` invocation.  Its alignments
    overlap on the CLI's thread pool, so the layer time is the wall time
    from the first call's start to the last call's end."""
    exact = [s for s in spans if s.name == "aligner.exact"]
    wall = max(s.end for s in exact) - min(s.start for s in exact) if exact else 0.0
    states = sum(s.attrs.get("states", 0) for s in exact)
    moves = sum(s.attrs.get("moves", 0) for s in exact)
    return {
        "aligner.exact_align_s": wall,
        "aligner.exact_calls": len(exact),
        "aligner.states_expanded": states,
        "aligner.states_expanded_max": max((s.attrs.get("states", 0) for s in exact), default=0),
        "aligner.us_per_state": wall * 1e6 / states if states else 0.0,
        "aligner.states_per_move": states / moves if moves else 0.0,
    }


def harness_metrics(m: dict) -> dict:
    """The paper's speedup pi, with and without proxy generation, from the
    median layer times; empty when a layer time is missing."""
    try:
        exact = m["aligner.exact_align_s"]
        generate = m["proxy.generate_s"] + m["distance.matrix_s"]
        without = m["aligner.ref_align_s"] + m["bounds.bracket_s"]
    except KeyError:
        return {}
    harness = importlib.import_module("alignbound.harness")
    us = [max(1, round(t * 1e6)) for t in (exact, generate + without, without)]
    pi_with, pi_without = harness.performance_improvement(*us)
    return {"harness.pi_with": float(pi_with), "harness.pi_without": float(pi_without)}


def shares(spans) -> dict:
    """Each layer's share of one invocation's wall time."""
    selfs = self_times(spans)
    total = sum(s.end - s.start for s in spans if s.parent is None and s.name.startswith("cli."))
    layers: dict[str, float] = {}
    for s in spans:
        layer = LAYER_OF_SPAN.get(s.name)
        if layer is not None:
            layers[layer] = layers.get(layer, 0.0) + selfs[s.id]
    exact = exact_metrics(spans)["aligner.exact_align_s"]
    if exact:
        layers["aligner"] = exact
    return {k: round(v / total, 3) for k, v in sorted(layers.items())} if total else {}
