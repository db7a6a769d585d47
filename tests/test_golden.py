"""Golden-bytes oracle: SHA-256 digests of command outputs that must not
change under a refactor.

``approximate`` runs with ``--no-timings``, and ``exact`` and the proxy
file ``proxy-gen`` writes have no timing field, so their bytes are
reproducible.  ``generate`` is pinned by its model and XES log files, and
by the CSV interchange bytes of the same log.  The evaluation grid carries two
wall-clock ratios (``pi_with``, ``pi_without``); those two columns are
dropped before hashing.  A change that alters any digest in
``golden_digests.json`` must say why it changed the output.
"""

import csv
import hashlib
import io
import json
from pathlib import Path

import pytest

from alignbound.cli import main
from alignbound.fixtures import copy_fixture_files
from alignbound.log import parse_xes, write_log_csv
from alignbound.proxy import STRATEGIES

DIGESTS = Path(__file__).with_name("golden_digests.json")

# variants of the parallel-loop process: fitting runs, skips, swaps, and
# activities outside the model alphabet (x, y)
FIXTURE_LOG = [
    ("c1", "a b e"),
    ("c2", "a b e"),
    ("c3", "a c b e"),
    ("c4", "a b c d b e"),
    ("c5", "a c b d b d b e"),
    ("c6", "a x b e"),
    ("c7", "b a e"),
    ("c8", "a c c b d e"),
    ("c9", "a b d y e"),
    ("c10", "a c b d b e"),
    ("c11", "e"),
    ("c12", "a c x y b e"),
]

SYNTHETIC_SPEC = {
    "alphabet_size": 6,
    "model_trace_count": 8,
    "model_trace_length": [3, 7],
    "log_variant_count": 40,
    "noise_ops": [0, 3],
    "multiplicity": [1, 4],
    "seed": 11,
}

GRID_TIMING_COLUMNS = ("pi_with", "pi_without")


def build_inputs(root: Path) -> dict:
    """Write every input file under ``root``; returns the argv pieces."""
    paths = copy_fixture_files(root)
    log_path = root / "loop_log.csv"
    rows = ["case,activity,order"]
    for case, activities in FIXTURE_LOG:
        rows += [f"{case},{a},{i}" for i, a in enumerate(activities.split(), 1)]
    log_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SYNTHETIC_SPEC), encoding="utf-8")
    synth_model = root / "synth.lang"
    synth_log = root / "synth.xes"
    rc = main(
        [
            "generate",
            "--spec",
            str(spec_path),
            "--model-out",
            str(synth_model),
            "--log-out",
            str(synth_log),
        ]
    )
    assert rc == 0
    loop_log = ["--log", str(log_path)]
    return {
        "root": root,
        "spec": str(spec_path),
        "generated": {
            "generate-model": synth_model.read_bytes(),
            "generate-log-xes": synth_log.read_bytes(),
            "generate-log-csv": write_log_csv(parse_xes(synth_log.read_bytes())),
        },
        "inputs": {
            "loop-lang": loop_log + ["--model", str(paths["parallel_loop.lang"])],
            "loop-pnml": loop_log
            + [
                "--model",
                str(paths["parallel_loop.pnml"]),
                "--final-marking",
                str(paths["parallel_loop_final_marking.json"]),
            ],
            "synthetic": ["--log", str(synth_log), "--model", str(synth_model)],
            "synthetic-log": ["--log", str(synth_log)],
        },
    }


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return build_inputs(tmp_path_factory.mktemp("golden"))


def _cases():
    cases = {}
    for source in ("loop-lang", "loop-pnml", "synthetic"):
        for strategy in STRATEGIES:
            for fmt in ("json", "csv"):
                cases[f"approximate-{source}-{strategy}-{fmt}"] = (
                    "approximate",
                    source,
                    [
                        "--strategy",
                        strategy,
                        "--size-percent",
                        "30",
                        "--seed",
                        "3",
                        "--report",
                        fmt,
                        "--no-timings",
                    ],
                )
        cases[f"exact-{source}"] = ("exact", source, [])
        cases[f"exact-{source}-moves"] = ("exact", source, ["--dump-moves"])
    for strategy in STRATEGIES:
        cases[f"proxy-gen-synthetic-{strategy}"] = (
            "proxy-gen",
            "synthetic-log",
            ["--strategy", strategy, "--size-percent", "30", "--seed", "3"],
        )
    return cases


CASES = _cases()
GENERATED = ("generate-model", "generate-log-xes", "generate-log-csv")


def _output(inputs, name) -> bytes:
    command, source, extra = CASES[name]
    out = inputs["root"] / f"{name}.out"
    rc = main([command, *inputs["inputs"][source], *extra, "--out", str(out)])
    assert rc == 0
    return out.read_bytes()


def _grid_without_timings(inputs) -> bytes:
    out = inputs["root"] / "grid.csv"
    rc = main(
        [
            "evaluate",
            "--spec",
            inputs["spec"],
            "--sizes",
            "5,12.5,30",
            "--repetitions",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
    keep = [i for i, col in enumerate(rows[0]) if col not in GRID_TIMING_COLUMNS]
    assert len(keep) == len(rows[0]) - len(GRID_TIMING_COLUMNS)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([row[i] for i in keep])
    return buf.getvalue().encode("utf-8")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def current_digests(inputs) -> dict[str, str]:
    """Digests of this checkout's outputs, in the layout of the digest file."""
    digests = {name: _digest(_output(inputs, name)) for name in CASES}
    digests.update((name, _digest(inputs["generated"][name])) for name in GENERATED)
    digests["evaluate-grid"] = _digest(_grid_without_timings(inputs))
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_golden_cases_cover_the_digest_file(golden):
    assert sorted(golden) == sorted([*CASES, *GENERATED, "evaluate-grid"])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(inputs, golden, name):
    assert _digest(_output(inputs, name)) == golden[name]


@pytest.mark.parametrize("name", GENERATED)
def test_golden_generated_files(inputs, golden, name):
    assert _digest(inputs["generated"][name]) == golden[name]


def test_golden_evaluation_grid(inputs, golden):
    assert _digest(_grid_without_timings(inputs)) == golden["evaluate-grid"]
