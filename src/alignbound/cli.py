"""Command line interface.

Subcommands: exact, approximate, proxy-gen, generate, evaluate.  Reports go
to standard output (or --out); everything diagnostic, including the
resolved configuration echoed before each run, goes to standard error.
Exit codes: 0 on success, 2 on usage errors, 1 on computation errors,
which are printed as ``error[<code>]: message``.
"""

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .aligner import optimal_alignment
from .bounds import ESTIMATOR_HALF_DISTANCE, ESTIMATOR_MIDPOINT, approximate_log
from .distance import distance_matrix
from .errors import (
    AlignboundError,
    BoundsError,
    ExperimentError,
    LogParseError,
    ModelError,
    ProxyError,
)
from .harness import (
    SyntheticSpec,
    generate_synthetic,
    rows_to_csv,
    rows_to_long_csv,
    run_experiment,
)
from .log import EventLog, decode_text, parse_csv, parse_xes, write_log_xes
from .model import (
    DEFAULT_STATE_BOUND,
    PetriNetModel,
    parse_explicit_language,
    parse_final_marking_json,
    parse_pnml,
    serialize_explicit_language,
)
from .proxy import STRATEGIES, ProxySet, StrategyParams, epsilon_max_error, generate_proxy
from .report import join_trace, strip_timings, write_report

SEED_ENV = "ALIGNBOUND_SEED"
STATE_BOUND_ENV = "ALIGNBOUND_STATE_BOUND"


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise AlignboundError(f"environment variable {name} must be an integer") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alignbound",
        description="Approximate alignment costs through a proxy set with "
        "a-priori error bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_log_flags(p):
        p.add_argument("--log", required=True, help="event log (.xes or .csv)")
        p.add_argument("--case-column", default="case")
        p.add_argument("--activity-column", default="activity")
        p.add_argument("--order-column", default="order")

    def add_model_flags(p):
        p.add_argument(
            "--model", required=True, help="model (.pnml or explicit language text)"
        )
        p.add_argument(
            "--final-marking",
            help="JSON file mapping place ids to token counts (net models)",
        )
        p.add_argument("--silent-label", help="transition label treated as silent")
        p.add_argument(
            "--state-bound",
            type=int,
            default=None,
            help=f"marking cap for net searches (default {DEFAULT_STATE_BOUND}, "
            f"env {STATE_BOUND_ENV})",
        )
        p.add_argument(
            "--heuristic",
            action="store_true",
            help="enable the admissible search heuristic for net alignment",
        )

    def add_strategy_flags(p):
        p.add_argument("--strategy", choices=STRATEGIES, default="kcenter")
        p.add_argument(
            "--size-percent",
            default="10",
            help="proxy size as a percentage of the distinct variants",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help=f"sampling seed (default 0, env {SEED_ENV})",
        )

    p_exact = sub.add_parser("exact", help="exact alignment cost per variant")
    add_log_flags(p_exact)
    add_model_flags(p_exact)
    p_exact.add_argument(
        "--dump-moves", action="store_true", help="add a move-sequence column"
    )
    p_exact.add_argument("--out", help="write the CSV here instead of stdout")

    p_approx = sub.add_parser(
        "approximate", help="bounded approximation of all variant costs"
    )
    add_log_flags(p_approx)
    add_model_flags(p_approx)
    add_strategy_flags(p_approx)
    p_approx.add_argument(
        "--estimator",
        choices=[ESTIMATOR_MIDPOINT, ESTIMATOR_HALF_DISTANCE],
        default=ESTIMATOR_MIDPOINT,
    )
    p_approx.add_argument(
        "--upper-weight",
        default="1/2",
        help="weight of the upper bound in the midpoint estimator",
    )
    p_approx.add_argument("--report", choices=["json", "csv"], default="json")
    p_approx.add_argument("--proxy-in", help="use this proxy file instead of a strategy")
    p_approx.add_argument("--proxy-out", help="persist the proxy set here")
    p_approx.add_argument(
        "--no-timings",
        action="store_true",
        help="zero the timing fields for byte-identical reports",
    )
    p_approx.add_argument("--out", help="write the report here instead of stdout")

    p_gen = sub.add_parser("proxy-gen", help="generate and persist a proxy set")
    add_log_flags(p_gen)
    add_strategy_flags(p_gen)
    p_gen.add_argument("--out", required=True, help="proxy file to write")
    p_gen.add_argument(
        "--dump-distance-matrix", help="debug CSV of the variant distance matrix"
    )

    p_synth = sub.add_parser("generate", help="write a synthetic model and log")
    p_synth.add_argument("--spec", required=True, help="synthetic spec JSON file")
    p_synth.add_argument("--seed", type=int, default=None, help="override spec seed")
    p_synth.add_argument("--model-out", required=True)
    p_synth.add_argument("--log-out", required=True)

    p_eval = sub.add_parser("evaluate", help="strategy grid sweep on synthetic data")
    p_eval.add_argument("--spec", required=True, help="synthetic spec JSON file")
    p_eval.add_argument("--seed", type=int, default=None, help="override spec seed")
    p_eval.add_argument(
        "--strategies", default=",".join(STRATEGIES), help="comma-separated subset"
    )
    p_eval.add_argument("--sizes", default="5,10,20,30,50", help="percent list")
    p_eval.add_argument("--repetitions", type=int, default=4)
    p_eval.add_argument("--out", help="grid CSV (default stdout)")
    p_eval.add_argument("--long-out", help="also write the long-format CSV here")

    return parser


def _echo_config(args) -> None:
    pairs = sorted(vars(args).items())
    rendered = " ".join(f"{k}={v}" for k, v in pairs if k != "command" and v is not None)
    print(f"config: command={args.command} {rendered}", file=sys.stderr)


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    return _env_int(SEED_ENV, 0)


def _resolve_state_bound(args) -> int:
    if getattr(args, "state_bound", None) is not None:
        return args.state_bound
    return _env_int(STATE_BOUND_ENV, DEFAULT_STATE_BOUND)


def _fraction(text: str, error: type[AlignboundError], flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise error(f"{flag} must be a number or a fraction, got {text!r}") from None


def _read_input(path, error: type[AlignboundError], what: str) -> bytes:
    """Bytes of an input file; a file that cannot be read is an error of
    the input's kind."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def _load_log(args) -> EventLog:
    path = Path(args.log)
    data = _read_input(path, LogParseError, "log")
    if path.suffix.lower() == ".csv":
        return parse_csv(
            data,
            case_column=args.case_column,
            activity_column=args.activity_column,
            order_column=args.order_column,
        )
    return parse_xes(data)


def _load_model(args):
    path = Path(args.model)
    data = _read_input(path, ModelError, "model")
    if path.suffix.lower() == ".pnml":
        if not args.final_marking:
            raise ModelError("net models need --final-marking")
        marking = parse_final_marking_json(
            _read_input(args.final_marking, ModelError, "final marking")
        )
        return parse_pnml(
            data,
            final_marking=marking,
            silent_label=args.silent_label,
            state_bound=_resolve_state_bound(args),
        )
    return parse_explicit_language(data)


def _warn_dead_transitions(model) -> None:
    if not isinstance(model, PetriNetModel):
        return
    probe_cap = min(model.state_bound, 10_000)
    fired, complete = model.probe_fired(probe_cap)
    dead = sorted(t.tid for t in model.transitions if t.tid not in fired)
    if dead:
        suffix = "" if complete else f" (probe stopped at {probe_cap} states)"
        print(
            f"warning: transitions never fired in reachability probe: "
            f"{', '.join(dead)}{suffix}",
            file=sys.stderr,
        )


def _emit(payload: bytes, out: str | None) -> None:
    if out:
        Path(out).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))


def _cmd_exact(args) -> int:
    _echo_config(args)
    log = _load_log(args)
    model = _load_model(args)
    _warn_dead_transitions(model)
    variants = log.variant_traces
    results = [optimal_alignment(t, model, heuristic=args.heuristic) for t in variants]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["trace", "multiplicity", "cost"]
    if args.dump_moves:
        header.append("moves")
    writer.writerow(header)
    for trace, result in zip(variants, results):
        row = [join_trace(trace), log.variants[trace], result.cost]
        if args.dump_moves:
            row.append(" ".join(m.token() for m in result.alignment.moves))
        writer.writerow(row)
    _emit(buf.getvalue().encode("utf-8"), args.out)
    return 0


def _load_proxy_file(path: str) -> ProxySet:
    language = parse_explicit_language(_read_input(path, ProxyError, "proxy file"))
    return ProxySet(members=language.traces, provenance=f"file:{path}")


def _cmd_approximate(args) -> int:
    args.seed = _resolve_seed(args)
    _echo_config(args)
    log = _load_log(args)
    model = _load_model(args)
    _warn_dead_transitions(model)

    proxy = None
    params = None
    if args.proxy_in:
        proxy = _load_proxy_file(args.proxy_in)
    else:
        params = StrategyParams(
            strategy=args.strategy,
            size_percent=_fraction(args.size_percent, ProxyError, "--size-percent"),
            seed=args.seed,
        )

    report = approximate_log(
        log,
        model,
        params=params,
        proxy=proxy,
        estimator=args.estimator,
        upper_weight=_fraction(args.upper_weight, BoundsError, "--upper-weight"),
        heuristic=args.heuristic,
    )
    if args.proxy_out:
        Path(args.proxy_out).write_text(
            serialize_explicit_language(report.proxy.members), encoding="utf-8"
        )
    if args.no_timings:
        report = strip_timings(report)
    _emit(write_report(report, fmt=args.report), args.out)
    return 0


def _cmd_proxy_gen(args) -> int:
    args.seed = _resolve_seed(args)
    _echo_config(args)
    log = _load_log(args)
    params = StrategyParams(
        strategy=args.strategy,
        size_percent=_fraction(args.size_percent, ProxyError, "--size-percent"),
        seed=args.seed,
    )
    matrix = None
    if args.dump_distance_matrix:
        matrix = distance_matrix(log.variant_traces)
        Path(args.dump_distance_matrix).write_text(matrix.to_csv(), encoding="utf-8")
    proxy = generate_proxy(log, params, matrix=matrix)
    eps = epsilon_max_error(log, proxy)
    Path(args.out).write_text(
        serialize_explicit_language(proxy.members), encoding="utf-8"
    )
    print(
        f"proxy: {len(proxy)} members, a-priori max error {eps.value}",
        file=sys.stderr,
    )
    return 0


def _load_spec(args) -> SyntheticSpec:
    data = _read_input(args.spec, ExperimentError, "spec")
    try:
        raw = json.loads(decode_text(data, ExperimentError, "spec JSON"))
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"malformed spec JSON: {exc}") from None
    spec = SyntheticSpec.from_dict(raw)
    if args.seed is not None:
        spec = SyntheticSpec.from_dict({**raw, "seed": args.seed})
    return spec


def _cmd_generate(args) -> int:
    _echo_config(args)
    spec = _load_spec(args)
    model, log = generate_synthetic(spec)
    Path(args.model_out).write_text(
        serialize_explicit_language(model.traces), encoding="utf-8"
    )
    Path(args.log_out).write_bytes(write_log_xes(log))
    print(
        f"generated: {len(model.traces)} model traces, "
        f"{len(log.variants)} variants, {log.total_traces} traces",
        file=sys.stderr,
    )
    return 0


def _cmd_evaluate(args) -> int:
    _echo_config(args)
    spec = _load_spec(args)
    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    for s in strategies:
        if s not in STRATEGIES:
            raise AlignboundError(f"unknown strategy {s!r}; expected {STRATEGIES}")
    sizes = tuple(
        _fraction(part.strip(), ExperimentError, "--sizes")
        for part in args.sizes.split(",")
        if part.strip()
    )
    rows = run_experiment(
        spec,
        strategies=strategies,
        size_percents=sizes,
        repetitions=args.repetitions,
    )
    _emit(rows_to_csv(rows).encode("utf-8"), args.out)
    if args.long_out:
        Path(args.long_out).write_text(rows_to_long_csv(rows), encoding="utf-8")
    return 0


COMMANDS = {
    "exact": _cmd_exact,
    "approximate": _cmd_approximate,
    "proxy-gen": _cmd_proxy_gen,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except AlignboundError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error[value]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
