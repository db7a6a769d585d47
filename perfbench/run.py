"""Benchmark of the ``alignbound approximate`` and ``alignbound exact`` commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload net3-random --seed 1 --seconds 28 --trace 0

The workload's input files are generated from ``--seed`` under
``.perfbench_work/`` and removed afterwards.  Both commands then run
in-process through ``alignbound.cli.main`` in a closed loop from one client,
each invocation starting when the previous one returns.  Each command gets
a fixed number of invocations, planned so that the loop takes about
``--seconds`` at the reference host speed (see Loop).  Between
invocations the input generation is repeated, so that the set-up samples
are spread over the run like the command samples, and a fixed calibration
kernel is timed; the reported times are scaled by the host speed that
kernel shows (see calibrate.py).  Every invocation's output is checked; a
failed check counts as a failed operation.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` every other invocation runs with
spans around the program's public functions (see tracer.py) and the object
carries the per-layer metrics instead; the spans are written to
``.perfbench_out/`` when the run ends.  The line before the result holds
the environment, the sample counts and the layer shares.  Metric names
and units are the ones BENCHMARK.json declares.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

COMMANDS = ("approximate", "exact")
OUTPUT_FILE = {"approximate": "report.json", "exact": "exact.csv"}
# the tail reading needs ten samples above it; with 21 it is at or above
# the median, never a near-minimum
MIN_SAMPLES = 21
# stops the loop short of its planned invocations if the program has
# become many times slower than the workload's reference_s
HARD_CAP_S = 120.0
# shares of the commands' time spent repeating the set-up between them and
# timing the calibration kernel (calibrate.py)
SETUP_SHARE = 0.1
CALIBRATION_SHARE = 0.1
SIZE_PERCENT = "5"
# environment variables that would change what the CLI computes
SCRUBBED_ENV = ("ALIGNBOUND_SEED", "ALIGNBOUND_STATE_BOUND")


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as listed under ``section`` of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


class Ledger:
    """Counts operations and the ones whose checks failed."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError as exc:
        return f"unavailable ({exc})"


def cpu_ticks() -> list[int]:
    """The machine's CPU time counters (user ... steal) from /proc/stat."""
    try:
        return [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return []


def steal_pct(start: list[int], end: list[int]):
    """Share of all CPUs' time the hypervisor gave to other guests between
    two readings; on a virtual machine it slows every timing alike."""
    delta = [b - a for a, b in zip(start, end)]
    return round(100 * delta[7] / sum(delta), 1) if len(delta) == 8 and sum(delta) else None


def central(samples: list[tuple]) -> float:
    """Mean over the proxy seeds of the median time per seed; a command
    without proxy seeds has a single group, so this is its median."""
    groups: dict = {}
    for proxy_seed, seconds, *_ in samples:
        groups.setdefault(proxy_seed, []).append(seconds)
    return statistics.fmean(statistics.median(g) for g in groups.values())


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest order statistic with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"maximum of {n} samples (fewer than 11)"
    i = n - 11
    return ordered[i], f"p{100 * (i + 1) / n:.1f}: sample {i + 1} of {n}, 10 above it"


def cli_call(main, argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def exact_costs(data: bytes) -> dict[tuple, int]:
    """Cost per variant from the CSV ``alignbound exact`` writes."""
    rows = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return {
        tuple(r["trace"].split("|")) if r["trace"] != "-" else (): int(r["cost"])
        for r in rows
    }


def check_outputs(report_bytes: bytes, exact_bytes: bytes) -> tuple[list[str], dict]:
    """Soundness checks of one approximate report against exact costs, and
    the report's quality figures per trace."""
    from alignbound.errors import ReportError
    from alignbound.harness import realized_error
    from alignbound.report import read_report_json

    try:
        report = read_report_json(report_bytes)
        costs = exact_costs(exact_bytes)
    except (ReportError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"], {}
    variants = [result.trace for result, _ in report.per_variant]
    if set(variants) != set(costs) or len(variants) != len(costs):
        return [f"{len(costs)} exact rows for {len(variants)} variants"], {}
    problems = [
        f"cost {costs[r.trace]} of {r.trace} outside [{r.lower}, {r.upper}]"
        for r, _ in report.per_variant
        if not r.lower <= costs[r.trace] <= r.upper
    ]
    realized = realized_error(report, costs)
    if realized > report.epsilon_max:
        problems.append(f"realized error {realized} exceeds epsilon {report.epsilon_max}")
    if report.aligner_invocations != len(report.proxy.members):
        problems.append("aligner invocations differ from the proxy size")
    width = sum(mult * (r.upper - r.lower) for r, mult in report.per_variant)
    total = report.total_traces
    quality = {
        "epsilon_per_trace": report.epsilon_max / total,
        "realized_error_per_trace": float(realized / total),
        "bracket_width_per_trace": width / total,
    }
    return problems, quality


class Workload:
    """Generated inputs in a private directory plus the two command lines."""

    def __init__(self, name: str, seed: int, ledger: Ledger):
        import workloads

        self.dir = WORK / f"{name}-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True)
        self.seed = seed
        self.ledger = ledger
        self.generate = workloads.WORKLOADS[name]
        # (midpoint on the perf_counter clock, seconds) per set-up pass
        self.setup_times: list[tuple[float, float]] = []
        self.inputs = None
        inputs = self.inputs = self.setup_pass(self.dir)
        # later passes write here, so that the inputs in use stay untouched
        self.again = self.dir / "again"
        self.again.mkdir()
        flags = [str(self.dir / f) if f.endswith(".json") else f for f in inputs.model_flags]
        self.model_args = ["--model", str(self.dir / inputs.model), *flags]
        log = str(self.dir / inputs.log)
        self.args = {
            "approximate": [
                "approximate",
                "--log", log,
                *self.model_args,
                "--strategy", inputs.strategy,
                "--size-percent", SIZE_PERCENT,
                "--report", "json",
                "--no-timings",
            ],
            "exact": ["exact", "--log", log, *self.model_args],
        }
        draws = inputs.proxy_draws
        self.proxy_seeds = [seed * draws + j for j in range(draws)]

    def setup_pass(self, directory: Path):
        """Generate the inputs and write them to ``directory``, timed; every
        pass must give the first pass's bytes."""
        started = time.perf_counter()
        inputs = self.generate(self.seed)
        for file, data in inputs.files.items():
            (directory / file).write_bytes(data)
        ended = time.perf_counter()
        self.setup_times.append(((started + ended) / 2, ended - started))
        differ = self.inputs is not None and inputs.files != self.inputs.files
        self.ledger.record("setup", ["inputs differ for one seed"] if differ else [])
        return inputs

    def path(self, file: str) -> Path:
        return self.dir / file


def self_check(main, wl: Workload, ledger: Ledger) -> None:
    """net3: the net parses and every noise-free walk aligns at cost 0."""
    if wl.inputs.fitting_log is None:
        return
    out = wl.path("fitting_costs.csv")
    rc, err = cli_call(
        main, ["exact", "--log", str(wl.path(wl.inputs.fitting_log)), *wl.model_args, "--out", str(out)]
    )
    problems = [] if rc == 0 else [f"exit {rc}: {err.strip()[-300:]}"]
    if rc == 0:
        rows = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
        problems += [f"walk {r['trace']} costs {r['cost']}" for r in rows if r["cost"] != "0"]
        if not rows:
            problems.append("no walks aligned")
    ledger.record("generator self-check", problems)


def warm_up(main, wl: Workload, ledger: Ledger) -> None:
    """One untimed invocation of each command, so that no timed one pays
    for first-call costs (lazy imports, cold caches)."""
    for command in COMMANDS:
        argv = [*wl.args[command], "--out", str(wl.path("warm-up.out"))]
        if command == "approximate":
            argv += ["--seed", str(wl.proxy_seeds[0])]
        rc, err = cli_call(main, argv)
        ledger.record(f"warm-up {command}", [] if rc == 0 else [f"exit {rc}: {err.strip()[-300:]}"])


def peak_rss(wl: Workload, ledger: Ledger) -> tuple[float, bytes]:
    """Peak resident memory of a fresh process running one approximate."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    out = wl.path("rss_report.json")
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "rss_child.py"),
            *wl.args["approximate"],
            "--seed", str(wl.proxy_seeds[0]),
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=170,
    )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        result = {"rc": proc.returncode, "peak_rss_kb": 0}
    problems = [] if result["rc"] == 0 else [f"exit {result['rc']}: {proc.stderr[-300:]}"]
    ledger.record("peak-rss approximate", problems)
    return result["peak_rss_kb"] / 1024, out.read_bytes() if out.exists() else b""


class Loop:
    """Closed loop from one client over the two commands.

    The number of invocations of each command is fixed before the loop:
    the share of ``seconds`` the set-up and calibration passes leave,
    halved, over the workload's reference time of one invocation, in whole
    rounds and at least MIN_SAMPLES.  A round is one invocation per proxy
    seed for approximate (taken in turn), times two with a tracer, which
    traces every other invocation of each command, each kind taking the
    proxy seeds in turn on its own.  So a run takes about ``seconds`` on a
    host of the reference speed, and the tail readings are the same order
    statistic in every run.  The next invocation is the command furthest
    behind its count.  Untraced, the set-up is repeated between
    invocations for SETUP_SHARE of the commands' time, and the calibration
    kernel is timed for CALIBRATION_SHARE of it.
    """

    def __init__(self, main, wl: Workload, seconds: float, tracer=None):
        self.main = main
        self.wl = wl
        self.tracer = tracer
        kinds = 1 if tracer is None else 2
        per_command = seconds / (1 + SETUP_SHARE + CALIBRATION_SHARE) / len(COMMANDS)
        self.target = {}
        for command in COMMANDS:
            size = kinds * (len(wl.proxy_seeds) if command == "approximate" else 1)
            rounds = round(per_command / wl.inputs.reference_s[command] / size)
            self.target[command] = size * max(rounds, -(-MIN_SAMPLES // size))
        # (proxy seed, seconds, midpoint) per command, untraced and traced
        self.samples = {c: [] for c in COMMANDS}
        self.traced = {c: [] for c in COMMANDS}
        self.layers = {c: [] for c in COMMANDS}
        self.shares = {c: [] for c in COMMANDS}
        self.edit_distance_calls = {c: [] for c in COMMANDS}
        # first output per (command, proxy seed)
        self.reference: dict[tuple, bytes] = {}
        self.ops: list[tuple[tuple, list[str]]] = []
        self.invocations = 0
        # (midpoint, seconds) per calibration slice
        self.calibration: list[tuple[float, float]] = []

    def run(self) -> None:
        spent = {c: 0.0 for c in COMMANDS}
        setup_spent = calibration_spent = 0.0
        if self.tracer is None:
            calibrate.slice_s()  # warm-up
        started = time.perf_counter()
        while time.perf_counter() - started < HARD_CAP_S:
            pending = [c for c in COMMANDS if self.runs(c) < self.target[c]]
            if not pending:
                return
            command = min(pending, key=lambda c: self.runs(c) / self.target[c])
            spent[command] += self.invoke(command)
            if self.tracer is not None:
                continue
            while setup_spent < SETUP_SHARE * sum(spent.values()):
                self.wl.setup_pass(self.wl.again)
                setup_spent += self.wl.setup_times[-1][1]
            while calibration_spent < CALIBRATION_SHARE * sum(spent.values()):
                at = time.perf_counter()
                took = calibrate.slice_s()
                self.calibration.append((at + took / 2, took))
                calibration_spent += took

    def runs(self, command: str) -> int:
        return len(self.samples[command]) + len(self.traced[command])

    def invoke(self, command: str) -> float:
        run_id = self.invocations
        self.invocations += 1
        out = self.wl.path(OUTPUT_FILE[command])
        out.unlink(missing_ok=True)
        argv = [*self.wl.args[command], "--out", str(out)]
        traced = self.tracer is not None and self.runs(command) % 2 == 1
        kind = (self.traced if traced else self.samples)[command]
        proxy_seed = None
        if command == "approximate":
            proxy_seed = self.wl.proxy_seeds[len(kind) % len(self.wl.proxy_seeds)]
            argv += ["--seed", str(proxy_seed)]
        key = (command, proxy_seed)
        if traced:
            self.tracer.install()
            calls_before = self.tracer.edit_distance_calls
            started = time.perf_counter()
            rc, err = self.tracer.invocation(
                run_id, f"cli.{command}", lambda: cli_call(self.main, argv)
            )
            elapsed = time.perf_counter() - started
            self.tracer.uninstall()
        else:
            started = time.perf_counter()
            rc, err = cli_call(self.main, argv)
            elapsed = time.perf_counter() - started
        kind.append((proxy_seed, elapsed, started + elapsed / 2))

        problems = [] if rc == 0 else [f"exit {rc}: {err.strip()[-300:]}"]
        if rc == 0:
            data = out.read_bytes() if out.exists() else b""
            if data != self.reference.setdefault(key, data):
                problems.append("output bytes differ from the first invocation")
            if traced:
                calls = self.tracer.edit_distance_calls - calls_before
                problems += self.collect_layers(command, run_id, calls)
        self.ops.append((key, problems))
        return elapsed

    def collect_layers(self, command: str, run_id: int, calls: int) -> list[str]:
        """Layer values of one traced invocation; checks what tracing sees."""
        import layers
        from alignbound import harness
        from alignbound import proxy as proxy_module

        tracer = self.tracer
        problems = []
        epsilon = None
        generated = tracer.last.get("proxy.generate")
        if command == "approximate" and generated is not None:
            if hasattr(proxy_module, "epsilon_max_error"):
                (log, *_), proxy = generated
                epsilon = tracer.timed(
                    "proxy.epsilon", lambda: proxy_module.epsilon_max_error(log, proxy)
                )
            else:
                tracer.missing["proxy.epsilon"] = (
                    "alignbound.proxy.epsilon_max_error no longer exists"
                )
        spans = [s for s in tracer.spans if s.run == run_id]
        if command == "exact":
            values = layers.exact_metrics(spans)
        else:
            values = layers.approximate_metrics(spans)
            if "aligner.ref_align" not in tracer.missing and "proxy.generate" not in tracer.missing:
                if values["aligner.ref_calls"] != values["proxy.k"]:
                    problems.append(
                        f"{values['aligner.ref_calls']} reference alignments, k={values['proxy.k']}"
                    )
        written = tracer.last.get("report.write") if command == "approximate" else None
        if written is not None and hasattr(harness, "lower_source_percentages"):
            report = written[0][0]
            for source, pct in harness.lower_source_percentages(report).items():
                values[f"bounds.lower_{source}_pct"] = float(pct)
        if epsilon is not None:
            values["proxy.radius"] = max(epsilon.per_variant.values(), default=0)
            if written is not None and written[0][0].epsilon_max != epsilon.value:
                problems.append("a-priori epsilon differs from the report's")
        self.layers[command].append(values)
        self.shares[command].append(layers.shares(spans))
        self.edit_distance_calls[command].append(calls)
        return problems


def measure(args) -> dict:
    from alignbound import cli
    import numpy

    ledger = Ledger()
    ticks = cpu_ticks()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "loadavg_start": loadavg(),
        },
    }
    wl = Workload(args.workload, args.seed, ledger)
    try:
        self_check(cli.main, wl, ledger)
        rss_mb, rss_report = peak_rss(wl, ledger)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        loop = Loop(cli.main, wl, args.seconds, tracer)
        warm_up(cli.main, wl, ledger)
        loop.run()
        if any(loop.runs(c) < loop.target[c] for c in COMMANDS):
            info["stopped_at_hard_cap_s"] = HARD_CAP_S
        # every output equals the first one of its command and proxy seed,
        # so checking those first outputs checks them all
        exact = loop.reference.get(("exact", None), b"")
        soundness, qualities = {}, []
        for command, proxy_seed in loop.reference:
            if command == "approximate":
                report = loop.reference[command, proxy_seed]
                soundness[proxy_seed], quality = check_outputs(report, exact)
                qualities.append(quality)
        for (command, proxy_seed), problems in loop.ops:
            ledger.record(command, problems + soundness.get(proxy_seed, []))
        if rss_report != loop.reference.get(("approximate", wl.proxy_seeds[0])):
            ledger.record("peak-rss report", ["fresh-process report differs"])
        quality = {
            name: statistics.fmean(q[name] for q in qualities)
            for name in (qualities[0] if qualities else ())
            if all(name in q for q in qualities)
        }
        info["environment"]["loadavg_end"] = loadavg()
        info["environment"]["steal_pct"] = steal_pct(ticks, cpu_ticks())
        info["inputs"] = {**wl.inputs.notes, "setup_repeats": len(wl.setup_times)}
        info["invocations"] = loop.invocations
        info["problems"] = ledger.problems[:10]
        if tracer is None:
            metrics = end_to_end(loop, rss_mb, quality, info)
        else:
            metrics = per_layer(loop, wl, info)
    finally:
        shutil.rmtree(wl.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    print(json.dumps({"info": info}))
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def per_layer(loop: Loop, wl: Workload, info: dict) -> dict:
    import layers
    from alignbound import cli

    tracer = loop.tracer
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{info['workload']}-seed{info['seed']}.jsonl"
    tracer.write(spans_path)
    values = {}
    parse = getattr(cli, "parse_xes" if wl.inputs.log.endswith(".xes") else "parse_csv", None)
    if parse is not None:
        data = wl.path(wl.inputs.log).read_bytes()
        tracemalloc.start()
        try:
            parse(data)
            values["log.parse_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
    for command in COMMANDS:
        for name in {k for run in loop.layers[command] for k in run}:
            values[name] = statistics.median(run[name] for run in loop.layers[command] if name in run)
    calls = [loop.edit_distance_calls[c] for c in COMMANDS]
    if all(calls):
        values["distance.edit_distance_calls"] = sum(statistics.median(c) for c in calls)
    units = declared_units("per_layer")
    absent = layers.absent_reasons(tracer.missing, units)
    if "harness.pi_with" not in absent:
        values.update(layers.harness_metrics(values))
    if loop.traced["approximate"] and loop.samples["approximate"]:
        values["bench.trace_overhead_s"] = central(loop.traced["approximate"]) - central(
            loop.samples["approximate"]
        )
    metrics = {}
    for name, unit in units.items():
        if name in absent or name not in values:
            reason = absent.get(name, "no traced invocation produced it")
            metrics[name] = {"value": None, "unit": unit, "absent": reason}
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    info["traced_invocations"] = {c: len(loop.traced[c]) for c in COMMANDS}
    info["spans"] = str(spans_path.relative_to(ROOT))
    info["layer_shares"] = {
        c: loop.shares[c][len(loop.shares[c]) // 2] for c in COMMANDS if loop.shares[c]
    }
    return metrics


def end_to_end(loop: Loop, rss_mb, quality, info) -> dict:
    """The end-to-end values.  Every time sample is scaled to the reference
    host speed by the calibration slices around it (see calibrate.py); the
    line before the result keeps the measured wall times."""
    scaled = calibrate.Scaler(loop.calibration)
    # the first set-up pass ran before the loop, with no calibration near it
    setup = [(None, seconds, at) for at, seconds in loop.wl.setup_times[1:]]
    walls = {"setup_s": setup}
    for command, key in (("approximate", "approx"), ("exact", "exact")):
        walls[f"{key}_s"] = walls[f"{key}_tail_s"] = loop.samples[command]
        info[f"{key}_samples_s"] = [round(x, 4) for _, x, _ in loop.samples[command]]
    values = {"peak_rss_mb": rss_mb, **quality}
    wall = {}
    for name, samples in walls.items():
        if not samples:
            continue
        local = [(p, scaled(seconds, at), at) for p, seconds, at in samples]
        if name.endswith("_tail_s"):
            values[name], info[name.replace("_tail_s", "_tail")] = tail([x for _, x, _ in local])
            wall[name] = tail([x for _, x, _ in samples])[0]
        else:
            values[name] = central(local)
            wall[name] = central(samples)
    info["calibration"] = {
        "slices": len(loop.calibration),
        "median_slice_s": statistics.median(s for _, s in loop.calibration),
        "wall_s": wall,
    }
    return {
        name: {"value": values.get(name), "unit": unit}
        for name, unit in declared_units("end_to_end").items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "alignbound" / "cli.py").is_file():
        print(f"error: no alignbound sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
