"""End-to-end tests driving the CLI through main(argv)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alignbound
import alignbound.proxy
from alignbound.cli import main
from alignbound.distance import MatchMasks
from alignbound.fixtures import copy_fixture_files
from alignbound.harness import SyntheticSpec, generate_synthetic
from alignbound.log import parse_csv, parse_xes, write_log_xes
from alignbound.model import parse_explicit_language
from alignbound.proxy import ProxySet, epsilon_max_error
from alignbound.report import read_report_json

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


def test_approximate_proxy_round_trip(workspace, capsys):
    proxy_path = workspace["dir"] / "proxy.lang"
    rc, out_gen, _ = run(
        [
            "approximate",
            "--log",
            workspace["log"],
            "--model",
            workspace["lang"],
            "--seed",
            "2",
            "--proxy-out",
            str(proxy_path),
            "--no-timings",
        ],
        capsys,
    )
    assert rc == 0
    assert proxy_path.exists()
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


def test_approximate_seed_from_environment(workspace, capsys, monkeypatch):
    monkeypatch.setenv("ALIGNBOUND_SEED", "5")
    rc, _, err = run(
        ["approximate", "--log", workspace["log"], "--model", workspace["lang"]],
        capsys,
    )
    assert rc == 0
    assert "seed=5" in err


def test_bad_environment_seed_is_a_computation_error(workspace, capsys, monkeypatch):
    monkeypatch.setenv("ALIGNBOUND_SEED", "not-a-number")
    rc, _, err = run(
        ["approximate", "--log", workspace["log"], "--model", workspace["lang"]],
        capsys,
    )
    assert rc == 1
    assert "error[internal]" in err


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
    ],
)
def test_removed_options_are_usage_errors(workspace, capsys, command, extra):
    argv = [command, "--log", workspace["log"], "--model", workspace["lang"]]
    rc, out, err = run(argv + extra, capsys)
    assert rc == 2
    assert out == ""
    assert "unrecognized arguments" in err


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
        ("proxy", "model", "language file"),
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


def loaded_modules(argvs):
    # a fresh interpreter: this test process has numpy loaded already
    src = str(Path(alignbound.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES_CHILD, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_distance_matrix_commands_load_numpy(workspace):
    xes = workspace["dir"] / "log.xes"
    xes.write_bytes(write_log_xes(parse_csv(LOG_CSV.encode())))
    proxy = str(workspace["dir"] / "proxy.lang")
    net = ["--model", workspace["pnml"], "--final-marking", workspace["marking"]]
    lang = ["--model", workspace["lang"]]
    log = ["--log", workspace["log"]]
    size = ["--size-percent", "50"]
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
    ]
    assert loaded_modules(lean) == [[0, False, False]] * len(lean)
    kmedoids = ["approximate", *log, *lang, "--strategy", "kmedoids", *size]
    assert loaded_modules([kmedoids]) == [[0, True, False]]


@pytest.mark.parametrize(
    "extra",
    [["--strategy", "kmedoids"], ["--strategy", "kcenter", "--dump-distance-matrix"]],
)
def test_proxy_gen_reads_epsilon_from_the_matrix(workspace, capsys, monkeypatch, extra):
    spec = SyntheticSpec(
        alphabet_size=6,
        model_trace_count=6,
        model_trace_length=(3, 8),
        log_variant_count=40,
        noise_ops=(0, 3),
        seed=17,
    )
    _, log = generate_synthetic(spec)
    log_path = workspace["dir"] / "synth.xes"
    log_path.write_bytes(write_log_xes(log))
    out_path = workspace["dir"] / "proxy.lang"
    if extra[-1] == "--dump-distance-matrix":
        extra = [*extra, str(workspace["dir"] / "matrix.csv")]
    calls = []
    scalar = alignbound.proxy.edit_distance
    monkeypatch.setattr(
        alignbound.proxy, "edit_distance", lambda *a: calls.append(a) or scalar(*a)
    )
    packed = MatchMasks.distances
    monkeypatch.setattr(
        MatchMasks, "distances", lambda *a: calls.append(a) or packed(*a)
    )
    argv = ["proxy-gen", "--log", str(log_path), *extra, "--size-percent", "20"]
    rc, _, err = run([*argv, "--out", str(out_path)], capsys)
    assert rc == 0
    # kmedoids and a dumped matrix build the matrix once; epsilon reads
    # the members' columns from it instead of scanning each member, packed
    # or scalar
    assert calls == []
    members = parse_explicit_language(out_path.read_bytes()).traces
    eps = epsilon_max_error(log, ProxySet(members=members))
    assert f"a-priori max error {eps.value}" in err


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


def test_evaluate_unknown_strategy_fails(tmp_path, capsys):
    rc, _, err = run(
        ["evaluate", "--spec", spec_file(tmp_path), "--strategies", "psychic"],
        capsys,
    )
    assert rc == 1
    assert "unknown strategy" in err


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
        ("approximate", "--upper-weight", "1/0", "bounds"),
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
