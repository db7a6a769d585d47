"""The benchmark's tracer wraps program names by their dotted paths; a
renamed or moved name would silently drop its layer metrics.  These checks
read ``perfbench/tracer.py`` and install nothing."""

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
