"""Shipped example model: a parallel branch with a skippable activity and a
redo loop.

The process starts with ``a``, then runs two things in parallel: a ``b``
that can be redone (each ``d`` forces another ``b``) and a skippable ``c``;
``e`` closes the case.  The net encodes the full loop; the explicit
language unrolls it to two loop passes (15 traces), enough for every trace
the tests throw at it.
"""

from importlib import resources
from pathlib import Path

from .model import (
    ExplicitLanguageModel,
    PetriNetModel,
    parse_explicit_language,
    parse_final_marking_json,
    parse_pnml,
)

LANGUAGE_FILE = "parallel_loop.lang"
PNML_FILE = "parallel_loop.pnml"
FINAL_MARKING_FILE = "parallel_loop_final_marking.json"


def _read(name: str) -> bytes:
    return (resources.files(__package__) / "fixtures" / name).read_bytes()


def parallel_loop_final_marking() -> dict:
    return parse_final_marking_json(_read(FINAL_MARKING_FILE))


def parallel_loop_language() -> ExplicitLanguageModel:
    return parse_explicit_language(_read(LANGUAGE_FILE))


def parallel_loop_petri(**kwargs) -> PetriNetModel:
    return parse_pnml(
        _read(PNML_FILE), final_marking=parallel_loop_final_marking(), **kwargs
    )


def copy_fixture_files(dest_dir) -> dict[str, Path]:
    """Copy the fixture files somewhere real (for CLI runs); returns paths."""
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    out = {}
    for name in (LANGUAGE_FILE, PNML_FILE, FINAL_MARKING_FILE):
        target = dest / name
        target.write_bytes(_read(name))
        out[name] = target
    return out
