"""The benchmark's tracer wraps program names by their dotted paths; a
renamed or moved name would silently drop its layer metrics.  These checks
read ``perfbench/tracer.py``, ``perfbench/layers.py`` and
``BENCHMARK.json`` and install nothing."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"
LAYERS_PATH = PERFBENCH / "layers.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(tracer):
    for module, path, name, _ in tracer.WRAPS:
        assert tracer._resolve(module, path) is not None, f"{name}: {module}.{path}"


def test_every_edit_distance_user_resolves(tracer):
    for module in tracer.EDIT_DISTANCE_USERS:
        assert tracer._resolve(module, "edit_distance") is not None, module


# program names the bench reads outside ``WRAPS``: the run checks and the
# layer metrics call them directly
BENCH_READS = (
    ("alignbound.proxy", "epsilon_max_error"),
    ("alignbound.harness", "realized_error"),
    ("alignbound.report", "read_report_json"),
)


def test_every_name_the_bench_reads_resolves(tracer, monkeypatch):
    # layers.py imports the tracer by its bare module name
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    names = [("alignbound.harness", f) for f in layers.HARNESS_FUNCTIONS]
    for module, path in names + list(BENCH_READS):
        assert tracer._resolve(module, path) is not None, f"{module}.{path}"


def test_every_declared_lower_source_metric_names_a_source():
    # the bench names these metrics after the keys of
    # harness.lower_source_percentages; a renamed source leaves one absent
    from alignbound.bounds import LOWER_SOURCES

    benchmark = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    declared = {
        metric["name"]
        for metric in benchmark["per_layer"]
        if metric["name"].startswith("bounds.lower_")
    }
    assert declared
    assert declared <= {f"bounds.lower_{source}_pct" for source in LOWER_SOURCES}
