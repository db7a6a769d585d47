"""End-to-end tests driving the CLI through main(argv)."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alignbound
import alignbound.aligner
import alignbound.bounds
import alignbound.cli
import alignbound.harness
import alignbound.proxy
from alignbound.cli import main
from alignbound.distance import MatchMasks
from alignbound.fixtures import copy_fixture_files
from alignbound.harness import SyntheticSpec, exact_costs, generate_synthetic
from alignbound.log import EventLog, parse_csv, parse_xes, write_log_csv, write_log_xes
from alignbound.model import (
    parse_explicit_language,
    parse_final_marking_json,
    parse_pnml,
    serialize_explicit_language,
)
from alignbound.proxy import DistanceTable, ProxySet, epsilon_max_error
from alignbound.report import join_trace, read_report_json
from conftest import read_trace_cell, split_escaped

LOG_CSV = """case,activity,order
c1,a,1
c1,c,2
c1,c,3
c1,b,4
c1,d,5
c1,e,6
c2,b,1
c2,d,2
c2,e,3
"""

DEAD_TRANSITION_PNML = """<?xml version="1.0" encoding="UTF-8"?>
<pnml>
  <net id="dead_branch" type="http://www.pnml.org/version-2009/grammar/ptnet">
    <page id="page0">
      <place id="p_start">
        <initialMarking><text>1</text></initialMarking>
      </place>
      <place id="p_orphan"/>
      <place id="p_end"/>
      <transition id="t_a">
        <name><text>a</text></name>
      </transition>
      <transition id="t_never">
        <name><text>b</text></name>
      </transition>
      <arc id="a1" source="p_start" target="t_a"/>
      <arc id="a2" source="t_a" target="p_end"/>
      <arc id="a3" source="p_orphan" target="t_never"/>
      <arc id="a4" source="t_never" target="p_end"/>
    </page>
  </net>
</pnml>
"""


@pytest.fixture
def workspace(tmp_path):
    paths = copy_fixture_files(tmp_path)
    log_path = tmp_path / "log.csv"
    log_path.write_text(LOG_CSV, encoding="utf-8")
    return {
        "log": str(log_path),
        "lang": str(paths["parallel_loop.lang"]),
        "pnml": str(paths["parallel_loop.pnml"]),
        "marking": str(paths["parallel_loop_final_marking.json"]),
        "dir": tmp_path,
    }


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_exact_csv_on_stdout(workspace, capsys):
    rc, out, err = run(
        ["exact", "--log", workspace["log"], "--model", workspace["lang"]], capsys
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "trace,multiplicity,cost"
    # canonical variant order: shorter trace first
    assert lines[1] == "b|d|e,1,2"
    assert lines[2] == "a|c|c|b|d|e,1,2"
    assert err.startswith("config: command=exact")


def test_exact_petri_matches_explicit(workspace, capsys):
    rc_lang, out_lang, _ = run(
        ["exact", "--log", workspace["log"], "--model", workspace["lang"]], capsys
    )
    rc_net, out_net, _ = run(
        [
            "exact",
            "--log",
            workspace["log"],
            "--model",
            workspace["pnml"],
            "--final-marking",
            workspace["marking"],
        ],
        capsys,
    )
    assert rc_lang == rc_net == 0
    assert out_lang == out_net


def test_exact_dump_moves_to_file(workspace, capsys):
    out_path = workspace["dir"] / "exact.csv"
    rc, out, _ = run(
        [
            "exact",
            "--log",
            workspace["log"],
            "--model",
            workspace["lang"],
            "--dump-moves",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert rc == 0
    assert out == ""
    text = out_path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "trace,multiplicity,cost,moves"
    assert "sync:" in text


@pytest.mark.parametrize("backend", ["lang", "pnml"])
def test_exact_costs_build_no_alignment(workspace, capsys, monkeypatch, backend):
    # plain exact, the harness's exact costs and a net's min_visible_length
    # read only costs, so they must run with optimal_alignment gone; the
    # moves column still needs it, once per variant
    argv = ["exact", "--log", workspace["log"], "--model", workspace[backend]]
    if backend == "pnml":
        argv += ["--final-marking", workspace["marking"]]
    plain = run(argv, capsys)
    with_moves = run([*argv, "--dump-moves"], capsys)
    assert plain[0] == with_moves[0] == 0
    real = alignbound.cli.optimal_alignment

    def no_alignment(*args, **kwargs):
        raise AssertionError("an alignment was built")

    # harness no longer imports optimal_alignment; the patch there would
    # still catch an import of it
    for module in (alignbound.aligner, alignbound.cli, alignbound.harness):
        monkeypatch.setattr(module, "optimal_alignment", no_alignment, raising=False)
    assert run(argv, capsys) == plain
    if backend == "pnml":
        marking = parse_final_marking_json(Path(workspace["marking"]).read_bytes())
        model = parse_pnml(Path(workspace["pnml"]).read_bytes(), final_marking=marking)
    else:
        model = parse_explicit_language(Path(workspace["lang"]).read_bytes())
    costs, _ = exact_costs(parse_csv(Path(workspace["log"]).read_bytes()), model)
    printed = [row.split(",") for row in plain[1].splitlines()[1:]]
    assert {join_trace(t): str(c) for t, c in costs.items()} == {
        trace: cost for trace, _, cost in printed
    }

    calls = []

    def counted(trace, model):
        calls.append(trace)
        return real(trace, model)

    monkeypatch.setattr(alignbound.cli, "optimal_alignment", counted)
    assert run([*argv, "--dump-moves"], capsys) == with_moves
    assert len(calls) == len(printed) == 2


def test_approximate_json_report(workspace, capsys):
    rc, out, err = run(
        [
            "approximate",
            "--log",
            workspace["log"],
            "--model",
            workspace["lang"],
            "--strategy",
            "frequency",
            "--size-percent",
            "50",
            "--seed",
            "0",
        ],
        capsys,
    )
    assert rc == 0
    report = read_report_json(out)
    assert len(report.per_variant) == 2
    assert report.total_traces == 2
    assert report.aligner_invocations == len(report.proxy.members) == 1
    for result, _ in report.per_variant:
        assert result.lower <= result.estimate <= result.upper
    assert "config: command=approximate" in err


def test_approximate_no_timings_reports_identical(workspace, capsys):
    argv = [
        "approximate",
        "--log",
        workspace["log"],
        "--model",
        workspace["lang"],
        "--seed",
        "1",
        "--no-timings",
    ]
    rc_a, out_a, _ = run(argv, capsys)
    rc_b, out_b, _ = run(argv, capsys)
    assert rc_a == rc_b == 0
    assert out_a == out_b


def test_approximate_csv_report(workspace, capsys):
    rc, out, _ = run(
        [
            "approximate",
            "--log",
            workspace["log"],
            "--model",
            workspace["lang"],
            "--seed",
            "0",
            "--report",
            "csv",
        ],
        capsys,
    )
    assert rc == 0
    assert out.splitlines()[0].startswith("trace,multiplicity,lower,upper")


# the log of LOG_CSV under the header id,event,ts, and the flags naming it
COLUMN_FLAGS = [
    "--case-column", "id", "--activity-column", "event", "--order-column", "ts"
]


def renamed_log(workspace) -> str:
    path = workspace["dir"] / "renamed.csv"
    text = LOG_CSV.replace("case,activity,order", "id,event,ts")
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_csv_column_flags_read_a_renamed_header(workspace, capsys):
    exact = ["exact", "--model", workspace["lang"], "--log"]
    rc, plain, _ = run(exact + [workspace["log"]], capsys)
    assert rc == 0
    rc, out, err = run(exact + [renamed_log(workspace), *COLUMN_FLAGS], capsys)
    assert rc == 0
    assert out == plain
    assert " case_column=id " in err


@pytest.mark.parametrize(
    "flag", ["--case-column", "--activity-column", "--order-column"]
)
def test_csv_column_flag_naming_an_absent_column_fails(workspace, capsys, flag):
    flags = COLUMN_FLAGS[:]
    flags[flags.index(flag) + 1] = "stage"
    argv = ["exact", "--model", workspace["lang"], "--log", renamed_log(workspace)]
    rc, out, err = run(argv + flags, capsys)
    assert rc == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        "error[parse]: missing column 'stage'; header has ['id', 'event', 'ts']"
    )


def test_approximate_proxy_round_trip(workspace, capsys):
    # proxy-gen writes the proxy set approximate generates with the same
    # flags, and approximate reads it back
    proxy_path = workspace["dir"] / "proxy.lang"
    argv = ["--log", workspace["log"], "--seed", "2"]
    rc, _, _ = run(["proxy-gen", *argv, "--out", str(proxy_path)], capsys)
    assert rc == 0
    assert proxy_path.exists()
    rc, out_gen, _ = run(
        ["approximate", *argv, "--model", workspace["lang"], "--no-timings"], capsys
    )
    assert rc == 0
    rc, out_in, _ = run(
        [
            "approximate",
            "--log",
            workspace["log"],
            "--model",
            workspace["lang"],
            "--proxy-in",
            str(proxy_path),
            "--no-timings",
        ],
        capsys,
    )
    assert rc == 0
    generated = read_report_json(out_gen)
    reused = read_report_json(out_in)
    assert reused.proxy.members == generated.proxy.members
    assert reused.proxy.provenance == f"file:{proxy_path}"
    assert [r for r, _ in reused.per_variant] == [r for r, _ in generated.per_variant]


def test_environment_does_not_set_the_seed(workspace, capsys, monkeypatch):
    argv = [
        "approximate", "--log", workspace["log"], "--model", workspace["lang"],
        "--strategy", "random", "--no-timings",
    ]
    rc, plain, _ = run(argv, capsys)
    assert rc == 0
    monkeypatch.setenv("ALIGNBOUND_SEED", "5")
    rc, out, err = run(argv, capsys)
    assert rc == 0
    assert " seed=0 " in err
    assert out == plain


def test_unknown_flag_is_a_usage_error(workspace, capsys):
    rc, _, err = run(
        ["exact", "--log", workspace["log"], "--model", workspace["lang"], "--nope"],
        capsys,
    )
    assert rc == 2
    assert "usage:" in err


@pytest.mark.parametrize(
    "command, extra",
    [
        ("exact", ["--jobs", "2"]),
        ("approximate", ["--jobs", "2"]),
        ("approximate", ["--strict-structural"]),
        ("exact", ["--heuristic"]),
        ("approximate", ["--estimator", "midpoint"]),
        ("approximate", ["--upper-weight", "1"]),
    ],
)
def test_removed_options_are_usage_errors(workspace, capsys, command, extra):
    argv = [command, "--log", workspace["log"], "--model", workspace["lang"]]
    rc, out, err = run(argv + extra, capsys)
    assert rc == 2
    assert out == ""
    assert "unrecognized arguments" in err


def test_proxy_out_is_a_usage_error(workspace, capsys):
    # proxy files are written by proxy-gen alone
    proxy_path = workspace["dir"] / "proxy.lang"
    argv = ["approximate", "--log", workspace["log"], "--model", workspace["lang"]]
    rc, out, err = run([*argv, "--proxy-out", str(proxy_path)], capsys)
    assert rc == 2
    assert out == ""
    assert "unrecognized arguments: --proxy-out" in err
    assert not proxy_path.exists()


def test_missing_subcommand_is_a_usage_error(capsys):
    assert run([], capsys)[0] == 2


def test_net_without_final_marking_fails(workspace, capsys):
    rc, _, err = run(
        ["exact", "--log", workspace["log"], "--model", workspace["pnml"]], capsys
    )
    assert rc == 1
    assert "error[model]" in err


def test_unreadable_log_fails(workspace, capsys):
    rc, _, err = run(
        ["exact", "--log", "no/such/file.csv", "--model", workspace["lang"]], capsys
    )
    assert rc == 1
    assert "error[" in err


@pytest.mark.parametrize("command", ["exact", "approximate"])
def test_out_of_memory_is_one_error_line(workspace, capsys, monkeypatch, command):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(alignbound.cli, "_load_log", exhausted)
    rc, out, err = run(
        [command, "--log", workspace["log"], "--model", workspace["lang"]], capsys
    )
    assert rc == 1
    assert out == ""
    assert err.splitlines()[-1] == f"error[memory]: {command} ran out of memory"


@pytest.mark.parametrize(
    "kind, code",
    [("log", "parse"), ("model", "model"), ("marking", "model"), ("proxy", "proxy")],
)
def test_unreadable_input_is_an_error_of_its_kind(workspace, capsys, kind, code):
    missing = str(workspace["dir"] / "no" / "such.file")
    inputs = {"log": workspace["log"], "model": workspace["pnml"]}
    inputs.update({"marking": workspace["marking"], "proxy": workspace["lang"]})
    inputs[kind] = missing
    argv = ["approximate", "--log", inputs["log"], "--model", inputs["model"]]
    argv += ["--final-marking", inputs["marking"], "--proxy-in", inputs["proxy"]]
    rc, out, err = run(argv, capsys)
    assert rc == 1
    assert out == ""
    assert f"error[{code}]: cannot read " in err
    assert missing in err


@pytest.mark.parametrize("kind", ["log", "model"])
def test_unknown_xml_encoding_fails_cleanly(workspace, capsys, kind):
    # a declared encoding Python has no codec for is a parse or model error,
    # not a traceback
    paths = {"log": workspace["log"], "model": workspace["pnml"]}
    bad = workspace["dir"] / ("bad.xes" if kind == "log" else "bad.pnml")
    bad.write_text('<?xml version="1.0" encoding="latin-9"?><log/>', encoding="utf-8")
    paths[kind] = str(bad)
    rc, out, err = run(
        [
            "exact",
            "--log",
            paths["log"],
            "--model",
            paths["model"],
            "--final-marking",
            workspace["marking"],
        ],
        capsys,
    )
    assert rc == 1
    assert out == ""
    code, fmt = ("parse", "XES") if kind == "log" else ("model", "PNML")
    assert f"error[{code}]: malformed {fmt}: unknown encoding: latin-9" in err


def test_byte_order_marks_in_inputs_are_dropped(workspace, capsys):
    model = workspace["dir"] / "bom.lang"
    model.write_bytes(b"\xef\xbb\xbfa,b\n")
    log = workspace["dir"] / "a.csv"
    log.write_bytes(b"\xef\xbb\xbfcase,activity,order\nc1,a,1\n")
    rc, out, _ = run(["exact", "--log", str(log), "--model", str(model)], capsys)
    assert rc == 0
    assert out.splitlines()[1] == "a,1,1"


@pytest.mark.parametrize(
    "kind, code, what",
    [
        ("log", "parse", "CSV log"),
        ("model", "model", "language file"),
        ("marking", "model", "final marking JSON"),
    ],
)
def test_invalid_utf8_input_fails_cleanly(workspace, capsys, kind, code, what):
    bad = workspace["dir"] / ("bad.csv" if kind == "log" else "bad.txt")
    bad.write_bytes(b"a,\xff\n")
    paths = {
        "log": workspace["log"],
        "model": workspace["pnml"] if kind == "marking" else workspace["lang"],
        "proxy": workspace["lang"],
        "marking": workspace["marking"],
    }
    paths[kind] = str(bad)
    rc, out, err = run(
        [
            "approximate",
            "--log",
            paths["log"],
            "--model",
            paths["model"],
            "--final-marking",
            paths["marking"],
            "--proxy-in",
            paths["proxy"],
        ],
        capsys,
    )
    assert rc == 1
    assert out == ""
    assert f"error[{code}]: {what} is not valid UTF-8: " in err


@pytest.mark.parametrize(
    "data, message",
    [
        (b"", "language file contains no traces"),
        (b"a,b\na,,b\n", "empty activity label on line 2"),
        (b"a,\xff\n", "language file is not valid UTF-8: "),
    ],
    ids=["empty-file", "empty-label", "not-utf8"],
)
def test_malformed_proxy_file_is_a_proxy_error(workspace, capsys, data, message):
    proxy = workspace["dir"] / "bad.lang"
    proxy.write_bytes(data)
    argv = ["approximate", "--log", workspace["log"], "--model", workspace["lang"]]
    rc, out, err = run([*argv, "--proxy-in", str(proxy)], capsys)
    assert rc == 1
    assert out == ""
    assert f"error[proxy]: proxy file {proxy}: {message}" in err


EMPTY_LOG_ERRORS = {
    "approximate": "error[bounds]: cannot approximate an empty log",
    "proxy-gen": "error[proxy]: cannot size a proxy set for an empty log",
}


@pytest.mark.parametrize("command", ["exact", "approximate", "proxy-gen"])
def test_empty_log(workspace, capsys, command):
    log = workspace["dir"] / "empty.csv"
    log.write_text("case,activity,order\n", encoding="utf-8")
    argv = [command, "--log", str(log)]
    if command == "proxy-gen":
        argv += ["--out", str(workspace["dir"] / "proxy.lang")]
    else:
        argv += ["--model", workspace["lang"]]
    rc, out, err = run(argv, capsys)
    if command == "exact":
        # no variants, so only the header row
        assert (rc, out) == (0, "trace,multiplicity,cost\n")
    else:
        assert (rc, out) == (1, "")
        assert EMPTY_LOG_ERRORS[command] in err


def test_proxy_gen_dumps_no_matrix_of_an_empty_log(workspace, capsys):
    log = workspace["dir"] / "empty.xes"
    log.write_text('<log xes.version="1.0"></log>', encoding="utf-8")
    matrix = workspace["dir"] / "m.csv"
    argv = ["proxy-gen", "--log", str(log), "--dump-distance-matrix", str(matrix)]
    rc, out, err = run([*argv, "--out", str(workspace["dir"] / "proxy.lang")], capsys)
    assert (rc, out) == (1, "")
    assert EMPTY_LOG_ERRORS["proxy-gen"] in err
    assert not matrix.exists()


@pytest.mark.parametrize(
    "extra, expected",
    [
        ([], [["c", "2", "0"], ["a\rb|c", "1", "1"]]),
        (
            ["--dump-moves"],
            [["c", "2", "0", "sync:c"], ["a\rb|c", "1", "1", "log:a\rb sync:c"]],
        ),
    ],
    ids=["exact", "dump-moves"],
)
def test_exact_quotes_a_lone_carriage_return(workspace, capsys, extra, expected):
    log = workspace["dir"] / "cr.csv"
    log.write_bytes(write_log_csv(EventLog({("a\rb", "c"): 1, ("c",): 2})))
    model = workspace["dir"] / "c.lang"
    model.write_text("c\n", encoding="utf-8")
    out = workspace["dir"] / "costs.csv"
    argv = ["exact", "--log", str(log), "--model", str(model), "--out", str(out)]
    assert run([*argv, *extra], capsys)[0] == 0
    with open(out, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[1:] == expected


def test_distance_matrix_quotes_a_lone_carriage_return(workspace, capsys):
    log = workspace["dir"] / "cr.csv"
    log.write_bytes(write_log_csv(EventLog({("a\rb", "c"): 1, ("c",): 2})))
    matrix = workspace["dir"] / "m.csv"
    argv = ["proxy-gen", "--log", str(log), "--dump-distance-matrix", str(matrix)]
    rc, _, _ = run([*argv, "--out", str(workspace["dir"] / "proxy.lang")], capsys)
    assert rc == 0
    with open(matrix, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    assert rows == [["trace", "c", "a\rb|c"], ["c", "0", "1"], ["a\rb|c", "1", "0"]]


def csv_rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.reader(f))


def test_trace_cells_split_back_into_distinct_variants(workspace, capsys):
    # a label holding |, the two labels it would join to, and the one label
    # -, which joined plainly reads as the empty trace
    variants = {("a|b",), ("a", "b"), ("-",)}
    tmp = workspace["dir"]
    log = tmp / "bars.csv"
    log.write_text(
        "case,activity,order\nc1,a|b,1\nc2,a,1\nc2,b,2\nc3,-,1\n", encoding="utf-8"
    )
    model = tmp / "ab.lang"
    model.write_text("a,b\n", encoding="utf-8")
    argv = ["--log", str(log), "--model", str(model)]
    assert run(["exact", *argv, "--out", str(tmp / "costs.csv")], capsys)[0] == 0
    approximate = ["approximate", *argv, "--report", "csv", "--size-percent", "100"]
    assert run([*approximate, "--out", str(tmp / "report.csv")], capsys)[0] == 0
    # proxy-gen cannot write the member ("-",) as a proxy file, so the
    # matrix it would dump is built here
    matrix = DistanceTable(parse_csv(log.read_bytes()).variant_traces).matrix_csv()

    costs = csv_rows(tmp / "costs.csv")[1:]
    report = csv_rows(tmp / "report.csv")
    report = report[1 : report.index([])]
    matrix_rows = list(csv.reader(io.StringIO(matrix, newline="")))
    columns = {
        "exact": [row[0] for row in costs],
        "report trace": [row[0] for row in report],
        # every variant is a member, so each is its own nearest member
        "report nearest_proxy": [row[5] for row in report],
        "matrix header": matrix_rows[0][1:],
        "matrix rows": [row[0] for row in matrix_rows[1:]],
    }
    for name, cells in columns.items():
        assert len(set(cells)) == len(cells) == 3, (name, cells)
        assert set(map(read_trace_cell, cells)) == variants, (name, cells)
    assert {c: cost for c, _, cost in costs} == {"a|b": "0", "a\\|b": "3", "\\-": "3"}


def test_move_cells_split_back_into_their_moves(workspace, capsys):
    # labels holding a space, and the labels that space would split them into
    tmp = workspace["dir"]
    log = tmp / "spaces.csv"
    log.write_bytes(
        write_log_csv(
            EventLog({("Create Order", "Pay"): 1, ("Create", "Order", "Pay"): 1})
        )
    )
    model = tmp / "order.lang"
    model.write_text("Create Order,Pay\n", encoding="utf-8")
    argv = ["exact", "--log", str(log), "--model", str(model), "--dump-moves"]
    assert run([*argv, "--out", str(tmp / "moves.csv")], capsys)[0] == 0
    rows = csv_rows(tmp / "moves.csv")[1:]
    assert [row[3] for row in rows] == [
        r"sync:Create\ Order sync:Pay",
        r"log:Create log:Order model:Create\ Order sync:Pay",
    ]
    for cell, _, cost, moves in rows:
        steps = [token.split(":", 1) for token in split_escaped(moves, " ")]
        assert all(kind in ("sync", "log", "model") for kind, _ in steps), moves
        logged = tuple(a for kind, a in steps if kind in ("sync", "log"))
        modelled = tuple(a for kind, a in steps if kind in ("sync", "model"))
        assert logged == read_trace_cell(cell), moves
        assert modelled == ("Create Order", "Pay"), moves
        assert sum(kind != "sync" for kind, _ in steps) == int(cost), moves


# Runs each argv through cli.main in this fresh process and prints, per
# command, its exit code and whether numpy and urllib.request are loaded.
LOADED_MODULES_CHILD = """
import contextlib, io, json, sys
from alignbound.cli import main
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    seen.append([rc, "numpy" in sys.modules, "urllib.request" in sys.modules])
print(json.dumps(seen))
"""


def fresh_python(code, *args):
    """The JSON that ``code`` prints, run in a fresh interpreter on this
    checkout's package: this test process has every module loaded already."""
    src = str(Path(alignbound.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_modules(argvs):
    return fresh_python(LOADED_MODULES_CHILD, json.dumps(argvs))


LAZY_IMPORT_CHILD = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.startswith("alignbound."))
import alignbound
bare = loaded()
from alignbound import parse_csv
after_parse_csv = loaded()
harness = alignbound.harness is sys.modules["alignbound.harness"]
print(json.dumps([bare, after_parse_csv, harness]))
"""


def test_package_import_loads_a_module_only_when_a_name_is_read():
    bare, after_parse_csv, harness = fresh_python(LAZY_IMPORT_CHILD)
    assert bare == []
    assert "alignbound.log" in after_parse_csv
    assert "alignbound.harness" not in after_parse_csv
    assert "alignbound.bounds" not in after_parse_csv
    # a module resolves as an attribute after a bare import
    assert harness is True


def test_only_distance_matrix_commands_load_numpy(workspace):
    xes = workspace["dir"] / "log.xes"
    xes.write_bytes(write_log_xes(parse_csv(LOG_CSV.encode())))
    proxy = str(workspace["dir"] / "proxy.lang")
    net = ["--model", workspace["pnml"], "--final-marking", workspace["marking"]]
    lang = ["--model", workspace["lang"]]
    log = ["--log", workspace["log"]]
    size = ["--size-percent", "50"]
    grid = ["evaluate", "--spec", spec_file(workspace["dir"]), "--sizes", "50"]
    lean = [
        ["exact", *log, *lang],
        ["exact", "--log", str(xes), *lang],
        ["exact", *log, *net],
        *(
            ["approximate", *log, *model, "--strategy", strategy, *size]
            for model in (lang, net)
            for strategy in ("random", "frequency", "kcenter")
        ),
        *(
            ["proxy-gen", *log, "--strategy", strategy, *size, "--out", proxy]
            for strategy in ("random", "frequency", "kcenter")
        ),
        ["approximate", *log, *lang, "--proxy-in", proxy],
        [*grid, "--strategies", "random,frequency,kcenter", "--repetitions", "1"],
    ]
    assert loaded_modules(lean) == [[0, False, False]] * len(lean)
    for kmedoids in (
        ["approximate", *log, *lang, "--strategy", "kmedoids", *size],
        [*grid, "--strategies", "kmedoids", "--repetitions", "1"],
    ):
        assert loaded_modules([kmedoids]) == [[0, True, False]]


SCAN_SPEC = SyntheticSpec(
    alphabet_size=6,
    model_trace_count=6,
    model_trace_length=(3, 8),
    log_variant_count=40,
    noise_ops=(0, 3),
    seed=17,
)


def _count_scans(monkeypatch):
    """Record every member distance computed outside the matrix: scalar
    ``edit_distance`` calls through ``alignbound.proxy`` and packed
    ``MatchMasks.distances`` scans."""
    calls = []
    scalar = alignbound.proxy.edit_distance
    monkeypatch.setattr(
        alignbound.proxy, "edit_distance", lambda *a: calls.append(a) or scalar(*a)
    )
    packed = MatchMasks.distances
    monkeypatch.setattr(
        MatchMasks, "distances", lambda *a: calls.append(a) or packed(*a)
    )
    return calls


@pytest.mark.parametrize(
    "extra",
    [
        ["--strategy", "kmedoids"],
        ["--strategy", "kcenter", "--dump-distance-matrix"],
        ["--strategy", "kcenter"],
    ],
)
def test_proxy_gen_reads_epsilon_from_the_matrix(workspace, capsys, monkeypatch, extra):
    _, log = generate_synthetic(SCAN_SPEC)
    log_path = workspace["dir"] / "synth.xes"
    log_path.write_bytes(write_log_xes(log))
    out_path = workspace["dir"] / "proxy.lang"
    if extra[-1] == "--dump-distance-matrix":
        extra = [*extra, str(workspace["dir"] / "matrix.csv")]
    calls = _count_scans(monkeypatch)
    argv = ["proxy-gen", "--log", str(log_path), *extra, "--size-percent", "20"]
    rc, _, err = run([*argv, "--out", str(out_path)], capsys)
    assert rc == 0
    members = parse_explicit_language(out_path.read_bytes()).traces
    # kmedoids and a dumped matrix build the matrix once; epsilon reads the
    # members' columns from it instead of scanning each member, packed or
    # scalar.  Without a matrix kcenter scans each member once, and epsilon
    # reads those columns.
    matrix = "kmedoids" in extra or "--dump-distance-matrix" in extra
    assert len(calls) == (0 if matrix else len(members))
    eps = epsilon_max_error(log, ProxySet(members=members))
    assert f"a-priori max error {eps.value}" in err


@pytest.mark.parametrize("strategy", ["kcenter", "kmedoids"])
def test_approximate_computes_each_member_column_once(
    workspace, capsys, monkeypatch, strategy
):
    model, log = generate_synthetic(SCAN_SPEC)
    log_path = workspace["dir"] / "synth.xes"
    log_path.write_bytes(write_log_xes(log))
    model_path = workspace["dir"] / "model.lang"
    model_path.write_text(serialize_explicit_language(model.traces), encoding="utf-8")
    calls = _count_scans(monkeypatch)
    argv = ["approximate", "--log", str(log_path), "--model", str(model_path)]
    rc, out, _ = run([*argv, "--strategy", strategy, "--size-percent", "20"], capsys)
    assert rc == 0
    k = len(json.loads(out)["proxy"]["members"])
    # kcenter scans each center once, and the bracket reads those columns;
    # kmedoids slices every column from its matrix
    assert len(calls) == (k if strategy == "kcenter" else 0)


def test_dead_transition_warning(workspace, capsys):
    pnml_path = workspace["dir"] / "dead.pnml"
    pnml_path.write_text(DEAD_TRANSITION_PNML, encoding="utf-8")
    marking_path = workspace["dir"] / "dead_final.json"
    marking_path.write_text(json.dumps({"p_end": 1}), encoding="utf-8")
    log_path = workspace["dir"] / "tiny.csv"
    log_path.write_text("case,activity,order\nc1,a,1\n", encoding="utf-8")
    rc, out, err = run(
        [
            "exact",
            "--log",
            str(log_path),
            "--model",
            str(pnml_path),
            "--final-marking",
            str(marking_path),
        ],
        capsys,
    )
    assert rc == 0
    assert "warning: transitions never fired" in err
    assert "t_never" in err
    assert "a,1,0" in out


# t_grow keeps p0 marked and adds a token to p_count each time it fires,
# so the reachability probe never runs out of markings
UNBOUNDED_DEAD_TRANSITION_PNML = """<pnml><net id="n"><page id="p">
  <place id="p0"><initialMarking><text>1</text></initialMarking></place>
  <place id="p_count"/>
  <place id="p_orphan"/>
  <place id="p_end"/>
  <transition id="t_grow"><name><text>g</text></name></transition>
  <transition id="t_end"><name><text>e</text></name></transition>
  <transition id="t_never"><name><text>b</text></name></transition>
  <arc id="a1" source="p0" target="t_grow"/>
  <arc id="a2" source="t_grow" target="p0"/>
  <arc id="a3" source="t_grow" target="p_count"/>
  <arc id="a4" source="p0" target="t_end"/>
  <arc id="a5" source="t_end" target="p_end"/>
  <arc id="a6" source="p_orphan" target="t_never"/>
  <arc id="a7" source="t_never" target="p_end"/>
</page></net></pnml>
"""


def test_dead_transition_warning_says_where_the_probe_stopped(workspace, capsys):
    pnml_path = workspace["dir"] / "unbounded.pnml"
    pnml_path.write_text(UNBOUNDED_DEAD_TRANSITION_PNML, encoding="utf-8")
    marking_path = workspace["dir"] / "end.json"
    marking_path.write_text(json.dumps({"p_end": 1}), encoding="utf-8")
    log_path = workspace["dir"] / "e.csv"
    log_path.write_text("case,activity,order\nc1,e,1\n", encoding="utf-8")
    argv = ["exact", "--log", str(log_path), "--model", str(pnml_path)]
    argv += ["--final-marking", str(marking_path), "--state-bound", "4"]
    rc, out, err = run(argv, capsys)
    assert rc == 0
    assert out == "trace,multiplicity,cost\ne,1,0\n"
    # the probe visits at most min(--state-bound, DEFAULT_PROBE_BOUND) markings
    assert (
        "warning: transitions never fired in reachability probe: t_never "
        "(probe stopped at 4 states)\n"
    ) in err


def test_proxy_gen_writes_language_file(workspace, capsys):
    out_path = workspace["dir"] / "proxy.lang"
    matrix_path = workspace["dir"] / "matrix.csv"
    rc, _, err = run(
        [
            "proxy-gen",
            "--log",
            workspace["log"],
            "--strategy",
            "kcenter",
            "--size-percent",
            "50",
            "--seed",
            "0",
            "--out",
            str(out_path),
            "--dump-distance-matrix",
            str(matrix_path),
        ],
        capsys,
    )
    assert rc == 0
    language = parse_explicit_language(out_path.read_bytes())
    assert len(language.traces) == 1
    assert "a-priori max error" in err
    assert matrix_path.read_text(encoding="utf-8").count("\n") >= 2


def spec_file(tmp_path, **overrides):
    raw = {
        "alphabet_size": 5,
        "model_trace_count": 3,
        "model_trace_length": [3, 5],
        "log_variant_count": 10,
        "noise_ops": [0, 2],
        "multiplicity": [1, 3],
        "seed": 4,
    }
    raw.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def test_generate_writes_model_and_log(tmp_path, capsys):
    model_out = tmp_path / "model.lang"
    log_out = tmp_path / "log.xes"
    rc, _, err = run(
        [
            "generate",
            "--spec",
            spec_file(tmp_path),
            "--model-out",
            str(model_out),
            "--log-out",
            str(log_out),
        ],
        capsys,
    )
    assert rc == 0
    model = parse_explicit_language(model_out.read_bytes())
    assert len(model.traces) == 3
    log = parse_xes(log_out.read_bytes())
    assert log.total_traces >= 10
    assert "generated:" in err


@pytest.mark.parametrize("name", ["log.csv", "log.CSV"])
def test_generate_writes_a_csv_log_by_its_name(tmp_path, capsys, name):
    # generate writes by the suffix rule exact reads by, so exact reads the
    # same table from the CSV log as from its XES twin
    spec = spec_file(tmp_path)
    model = str(tmp_path / "model.lang")
    tables = []
    for log in (tmp_path / name, tmp_path / "log.xes"):
        argv = ["generate", "--spec", spec, "--model-out", model, "--log-out", str(log)]
        assert run(argv, capsys)[0] == 0
        rc, out, _ = run(["exact", "--log", str(log), "--model", model], capsys)
        assert rc == 0
        tables.append(out)
    assert (tmp_path / name).read_bytes() == write_log_csv(
        parse_xes((tmp_path / "log.xes").read_bytes())
    )
    assert tables[0] == tables[1]
    assert tables[0].count("\n") > 1


@pytest.mark.parametrize("name", ["model.pnml", "model.PNML"])
def test_generate_refuses_a_pnml_model(tmp_path, capsys, monkeypatch, name):
    # the model is a language, which exact would read from a .pnml file as
    # PNML; the name is refused before anything is generated
    def no_generation(*args, **kwargs):
        raise AssertionError("a model and log were generated")

    monkeypatch.setattr(alignbound.cli, "generate_synthetic", no_generation)
    model, log = tmp_path / name, tmp_path / "log.xes"
    argv = ["generate", "--spec", spec_file(tmp_path), "--model-out", str(model)]
    rc, out, err = run([*argv, "--log-out", str(log)], capsys)
    assert (rc, out) == (1, "")
    assert f"error[output]: cannot write model {model}: a .pnml model is read as" in err
    assert not model.exists() and not log.exists()


def test_generate_seed_override_changes_output(tmp_path, capsys):
    spec = spec_file(tmp_path)
    outs = []
    for seed in ("4", "99"):
        model_out = tmp_path / f"model_{seed}.lang"
        log_out = tmp_path / f"log_{seed}.xes"
        rc, _, _ = run(
            [
                "generate",
                "--spec",
                spec,
                "--seed",
                seed,
                "--model-out",
                str(model_out),
                "--log-out",
                str(log_out),
            ],
            capsys,
        )
        assert rc == 0
        outs.append(log_out.read_bytes())
    assert outs[0] != outs[1]


def test_evaluate_grid_csv(tmp_path, capsys):
    long_out = tmp_path / "long.csv"
    rc, out, _ = run(
        [
            "evaluate",
            "--spec",
            spec_file(tmp_path),
            "--strategies",
            "random,frequency",
            "--sizes",
            "10,50",
            "--repetitions",
            "1",
            "--long-out",
            str(long_out),
        ],
        capsys,
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("strategy,size_percent,seed,epsilon_max")
    assert len(lines) == 1 + 2 * 2 * 1
    long_lines = long_out.read_text(encoding="utf-8").splitlines()
    assert len(long_lines) == 1 + 7 * 4 + 2
    assert long_lines[-1].count("pearson") == 1


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--strategies", "psychic"], "unknown strategy 'psychic'"),
        (["--strategies", "random,psychic"], "unknown strategy 'psychic'"),
        (["--strategies", ","], "the grid needs at least one strategy and one size"),
        (["--sizes", ""], "the grid needs at least one strategy and one size"),
        (["--repetitions", "0"], "repetitions must be at least 1, got 0"),
        (["--repetitions", "-2"], "repetitions must be at least 1, got -2"),
        (["--sizes", "0"], "size percent must be in (0, 100], got 0"),
        (["--sizes", "-5"], "size percent must be in (0, 100], got -5"),
        (["--sizes", "101"], "size percent must be in (0, 100], got 101"),
        (["--sizes", "20,40/2"], "the grid repeats random at size 20"),
        (["--strategies", "kcenter,kcenter"], "the grid repeats kcenter at size 5"),
    ],
    ids=[
        "unknown",
        "unknown-in-list",
        "no-strategy",
        "no-size",
        "zero-reps",
        "neg-reps",
        "zero-size",
        "neg-size",
        "big-size",
        "repeated-size",
        "repeated-strategy",
    ],
)
def test_evaluate_bad_grid_fails(tmp_path, capsys, monkeypatch, extra, message):
    # the grid is checked before the synthetic pair is generated
    def no_generation(spec):
        raise AssertionError("the synthetic pair was generated")

    monkeypatch.setattr(alignbound.harness, "generate_synthetic", no_generation)
    rc, out, err = run(["evaluate", "--spec", spec_file(tmp_path)] + extra, capsys)
    assert rc == 1
    assert out == ""
    assert f"error[experiment]: {message}" in err


def generate_argv(tmp_path, spec):
    return [
        "generate",
        "--spec",
        spec,
        "--model-out",
        str(tmp_path / "model.lang"),
        "--log-out",
        str(tmp_path / "log.xes"),
    ]


def test_spec_with_byte_order_mark_is_read(tmp_path, capsys):
    spec = Path(spec_file(tmp_path))
    assert run(generate_argv(tmp_path, str(spec)), capsys)[0] == 0
    plain = (tmp_path / "log.xes").read_bytes()
    spec.write_bytes(b"\xef\xbb\xbf" + spec.read_bytes())
    assert run(generate_argv(tmp_path, str(spec)), capsys)[0] == 0
    assert (tmp_path / "log.xes").read_bytes() == plain


@pytest.mark.parametrize("command", ["generate", "evaluate"])
@pytest.mark.parametrize(
    "data, message",
    [
        (b'{"seed": 1\xff}', "spec JSON is not valid UTF-8: "),
        (b'{"seed": ', "malformed spec JSON: "),
        (b"[1, 2]", "synthetic spec must be a JSON object, not list"),
        (
            b'{"model_trace_length": 5}',
            "spec field model_trace_length must be a pair of integers, not 5",
        ),
        (b'{"alphabet_size": "8"}', "spec field alphabet_size must be an integer, not '8'"),
    ],
    ids=["bad-byte", "truncated", "list", "int-range", "string-count"],
)
def test_bad_spec_is_an_experiment_error(tmp_path, capsys, command, data, message):
    spec = tmp_path / "spec.json"
    spec.write_bytes(data)
    if command == "generate":
        argv = generate_argv(tmp_path, str(spec))
    else:
        argv = ["evaluate", "--spec", str(spec)]
    rc, out, err = run(argv, capsys)
    assert rc == 1
    assert out == ""
    assert f"error[experiment]: {message}" in err


@pytest.mark.parametrize(
    "command, flag, value, code",
    [
        ("approximate", "--size-percent", "1/0", "proxy"),
        ("proxy-gen", "--size-percent", "1/0", "proxy"),
        ("evaluate", "--sizes", "5,1/0", "experiment"),
    ],
)
def test_zero_denominator_is_a_stable_error(workspace, capsys, command, flag, value, code):
    tmp_path = workspace["dir"]
    if command == "evaluate":
        argv = ["evaluate", "--spec", spec_file(tmp_path)]
    else:
        argv = [command, "--log", workspace["log"]]
        if command == "approximate":
            argv += ["--model", workspace["lang"]]
        else:
            argv += ["--out", str(tmp_path / "proxy.lang")]
    rc, out, err = run(argv + [flag, value], capsys)
    assert rc == 1
    assert out == ""
    assert f"error[{code}]: {flag} must be a number or a fraction, got '1/0'" in err
    assert "Traceback" not in err


def test_empty_log_is_checked_before_the_model_is_built(workspace, capsys, monkeypatch):
    # with t_grow silent, the empty trace's search would expand zero-cost
    # markings up to the default state bound of a million
    pnml_path = workspace["dir"] / "unbounded.pnml"
    pnml_path.write_text(UNBOUNDED_DEAD_TRANSITION_PNML, encoding="utf-8")
    marking_path = workspace["dir"] / "end.json"
    marking_path.write_text(json.dumps({"p_end": 1}), encoding="utf-8")
    log_path = workspace["dir"] / "empty.csv"
    log_path.write_text("case,activity,order\n", encoding="utf-8")
    calls = []

    def no_alignment(*args, **kwargs):
        calls.append(args)
        raise AssertionError("an alignment ran")

    for module in (alignbound.aligner, alignbound.bounds, alignbound.cli):
        monkeypatch.setattr(module, "optimal_alignment", no_alignment)
    argv = ["approximate", "--log", str(log_path), "--model", str(pnml_path)]
    argv += ["--final-marking", str(marking_path), "--silent-label", "g"]
    rc, out, err = run(argv, capsys)
    assert (rc, out) == (1, "")
    assert "error[bounds]: cannot approximate an empty log" in err
    assert calls == []


@pytest.mark.parametrize("command", ["approximate", "proxy-gen"])
def test_size_percent_is_checked_before_the_log_is_read(
    workspace, capsys, monkeypatch, command
):
    def no_parse(*args, **kwargs):
        raise AssertionError("the log was parsed")

    monkeypatch.setattr(alignbound.cli, "parse_csv", no_parse)
    argv = [command, "--log", workspace["log"], "--size-percent", "0"]
    if command == "approximate":
        argv += ["--model", workspace["lang"]]
    else:
        argv += ["--out", str(workspace["dir"] / "proxy.lang")]
    rc, out, err = run(argv, capsys)
    assert rc == 1
    assert out == ""
    assert "error[proxy]: size percent must be in (0, 100], got 0" in err


def test_label_the_language_format_cannot_carry_is_an_output_error(workspace, capsys):
    # a comma inside a label, a trace of the one label "-", whose line
    # would read back as the empty trace, and line boundaries inside a label
    for log_text, reason in [
        ('case,activity,order\nc1,"a,b",1\nc1,c,2\n', "label 'a,b' cannot be carried"),
        ("case,activity,order\nc1,-,1\nc2,a,1\n", "label '-' cannot be carried alone"),
        ('case,activity,order\nc1,"a\nb",1\nc1,c,2\n', r"label 'a\nb' cannot be carried"),
        (
            "case,activity,order\nc1,a\u2028b,1\nc1,c,2\n",
            r"label 'a\u2028b' cannot be carried",
        ),
    ]:
        log_path = workspace["dir"] / "uncarryable.csv"
        log_path.write_text(log_text, encoding="utf-8")
        out_path = workspace["dir"] / "proxy.lang"
        argv = ["proxy-gen", "--log", str(log_path), "--size-percent", "100"]
        rc, _, err = run([*argv, "--out", str(out_path)], capsys)
        assert rc == 1
        assert (
            f"error[output]: cannot write proxy file {out_path}: "
            f"{reason} by the language text format"
        ) in err
        assert not out_path.exists()


def test_proxy_gen_refusing_its_proxy_file_writes_no_matrix(workspace, capsys):
    # every variant is a member at 100%, and the member of the one label "-"
    # cannot be carried by the language text format: the proxy file is
    # refused before the matrix dump is written
    log_path = workspace["dir"] / "dash.csv"
    rows = "case,activity,order\nc1,a|b,1\nc2,a,1\nc2,b,2\nc3,-,1\n"
    log_path.write_text(rows, encoding="utf-8")
    out_path, matrix = workspace["dir"] / "p.lang", workspace["dir"] / "m.csv"
    argv = ["proxy-gen", "--log", str(log_path), "--size-percent", "100"]
    argv += ["--out", str(out_path), "--dump-distance-matrix", str(matrix)]
    rc, out, err = run(argv, capsys)
    assert (rc, out) == (1, "")
    assert (
        f"error[output]: cannot write proxy file {out_path}: "
        "label '-' cannot be carried alone by the language text format"
    ) in err
    assert not out_path.exists() and not matrix.exists()


@pytest.mark.parametrize(
    "command, flag, what",
    [
        ("exact", "--out", "cost table"),
        ("approximate", "--out", "report"),
        ("proxy-gen", "--out", "proxy file"),
        ("proxy-gen", "--dump-distance-matrix", "distance matrix"),
        ("generate", "--model-out", "model"),
        ("generate", "--log-out", "log"),
        ("evaluate", "--out", "grid"),
        ("evaluate", "--long-out", "long-format grid"),
    ],
)
def test_unwritable_output_is_a_stable_error(workspace, capsys, command, flag, what):
    tmp_path = workspace["dir"]
    log_and_model = ["--log", workspace["log"], "--model", workspace["lang"]]
    argv = {
        "exact": ["exact", *log_and_model],
        "approximate": ["approximate", *log_and_model],
        "proxy-gen": ["proxy-gen", "--log", workspace["log"]],
        "generate": generate_argv(tmp_path, spec_file(tmp_path)),
        "evaluate": [
            "evaluate",
            "--spec",
            spec_file(tmp_path),
            "--strategies",
            "random",
            "--sizes",
            "20",
            "--repetitions",
            "1",
        ],
    }[command]
    if command == "proxy-gen" and flag != "--out":
        argv += ["--out", str(tmp_path / "proxy.lang")]
    # a two-file command writes both or neither: the other output is left
    # unwritten, and no temporary is left beside either
    other = {
        ("proxy-gen", "--out"): "--dump-distance-matrix",
        ("evaluate", "--out"): "--long-out",
        ("evaluate", "--long-out"): "--out",
    }.get((command, flag))
    if other:
        argv += [other, str(tmp_path / "other.csv")]
    before = sorted(tmp_path.rglob("*"))
    bad = tmp_path / "missing" / "out.txt"
    rc, _, err = run(argv + [flag, str(bad)], capsys)
    assert rc == 1
    assert f"error[output]: cannot write {what} {bad}: " in err
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
