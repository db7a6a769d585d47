"""Command line interface.

Subcommands: exact, approximate, proxy-gen, generate, evaluate.  Reports go
to standard output (or --out); everything diagnostic, including the
resolved configuration echoed before each run, goes to standard error.
Exit codes: 0 on success, 2 on usage errors, 1 on computation errors,
which are printed as ``error[<code>]: message``.
"""

import argparse
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from .aligner import optimal_alignment, optimal_cost
from .bounds import approximate_log, check_log
from .errors import (
    AlignboundError,
    ExperimentError,
    LogParseError,
    ModelError,
    OutputError,
    ProxyError,
)
from .harness import (
    DEFAULT_REPETITIONS,
    DEFAULT_SIZE_PERCENTS,
    SyntheticSpec,
    generate_synthetic,
    rows_to_csv,
    rows_to_long_csv,
    run_experiment,
)
from .log import (
    EventLog,
    csv_text,
    join_trace,
    parse_csv,
    parse_xes,
    read_json,
    write_log_csv,
    write_log_xes,
)
from .model import (
    DEFAULT_PROBE_BOUND,
    DEFAULT_STATE_BOUND,
    PetriNetModel,
    parse_explicit_language,
    parse_final_marking_json,
    parse_pnml,
    serialize_explicit_language,
)
from .proxy import (
    STRATEGIES,
    DistanceTable,
    ProxySet,
    StrategyParams,
    epsilon_max_error,
    generate_proxy,
)
from .report import strip_timings, write_report

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
            default=DEFAULT_STATE_BOUND,
            help=f"marking cap for net searches (default {DEFAULT_STATE_BOUND})",
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
            default=0,
            help="seed of the random strategy, the only one that reads it "
            "(default 0)",
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
    p_approx.add_argument("--report", choices=["json", "csv"], default="json")
    p_approx.add_argument("--proxy-in", help="use this proxy file instead of a strategy")
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
    p_eval.add_argument(
        "--sizes", default=",".join(map(str, DEFAULT_SIZE_PERCENTS)), help="percent list"
    )
    p_eval.add_argument("--repetitions", type=int, default=DEFAULT_REPETITIONS)
    p_eval.add_argument("--out", help="grid CSV (default stdout)")
    p_eval.add_argument("--long-out", help="also write the long-format CSV here")

    return parser


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


def _is_csv(path) -> bool:
    """A log is read and written as CSV if its suffix is .csv in any case."""
    return Path(path).suffix.lower() == ".csv"


def _is_pnml(path) -> bool:
    """A model is read as a net if its suffix is .pnml in any case."""
    return Path(path).suffix.lower() == ".pnml"


def _load_log(args) -> EventLog:
    data = _read_input(args.log, LogParseError, "log")
    if _is_csv(args.log):
        columns = args.case_column, args.activity_column, args.order_column
        return parse_csv(data, *columns)
    return parse_xes(data)


def _load_model(args):
    data = _read_input(args.model, ModelError, "model")
    if _is_pnml(args.model):
        if not args.final_marking:
            raise ModelError("net models need --final-marking")
        marking = parse_final_marking_json(
            _read_input(args.final_marking, ModelError, "final marking")
        )
        return parse_pnml(
            data, marking, silent_label=args.silent_label, state_bound=args.state_bound
        )
    return parse_explicit_language(data)


def _warn_dead_transitions(model) -> None:
    if not isinstance(model, PetriNetModel):
        return
    probe_cap = min(model.state_bound, DEFAULT_PROBE_BOUND)
    fired, complete = model.probe_fired(probe_cap)
    dead = sorted(t.tid for t in model.transitions if t.tid not in fired)
    if dead:
        suffix = "" if complete else f" (probe stopped at {probe_cap} states)"
        print(
            f"warning: transitions never fired in reachability probe: "
            f"{', '.join(dead)}{suffix}",
            file=sys.stderr,
        )


def _write(path, payload: bytes | str, what: str) -> None:
    """Write an output to ``path``, or to standard output without one; a
    path that cannot be written is an ``OutputError``."""
    if path is None:
        sys.stdout.write(payload if isinstance(payload, str) else payload.decode())
        return
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    try:
        Path(path).write_bytes(payload)
    except OSError as exc:
        raise OutputError(f"cannot write {what} {path}: {exc}") from None


def _write_traces(path, traces, what: str) -> None:
    """Write traces in the language text format; a label the format cannot
    carry is an ``OutputError``."""
    try:
        text = serialize_explicit_language(traces)
    except ValueError as exc:
        raise OutputError(f"cannot write {what} {path}: {exc}") from None
    _write(path, text, what)


def _cmd_exact(args) -> int:
    log = _load_log(args)
    model = _load_model(args)
    _warn_dead_transitions(model)
    header = ["trace", "multiplicity", "cost", "moves"]
    rows = [header if args.dump_moves else header[:3]]
    for trace, mult in log.variants.items():
        row = [join_trace(trace), mult]
        if args.dump_moves:
            result = optimal_alignment(trace, model)
            row += [result.cost, " ".join(m.token() for m in result.alignment.moves)]
        else:
            # only the cost is printed, so no alignment is built
            row.append(optimal_cost(trace, model)[0])
        rows.append(row)
    _write(args.out, csv_text(rows), "cost table")
    return 0


def _load_proxy_file(path: str) -> ProxySet:
    try:
        language = parse_explicit_language(_read_input(path, ProxyError, "proxy file"))
    except ModelError as exc:
        raise ProxyError(f"proxy file {path}: {exc}") from None
    return ProxySet(members=language.traces, provenance=f"file:{path}")


def _strategy_params(args) -> StrategyParams:
    return StrategyParams(
        strategy=args.strategy,
        size_percent=_fraction(args.size_percent, ProxyError, "--size-percent"),
        seed=args.seed,
    )


def _cmd_approximate(args) -> int:
    params = None if args.proxy_in else _strategy_params(args)
    log = _load_log(args)
    check_log(log)
    model = _load_model(args)
    _warn_dead_transitions(model)
    proxy = _load_proxy_file(args.proxy_in) if args.proxy_in else None

    report = approximate_log(log, model, params=params, proxy=proxy)
    if args.no_timings:
        report = strip_timings(report)
    _write(args.out, write_report(report, fmt=args.report), "report")
    return 0


def _cmd_proxy_gen(args) -> int:
    params = _strategy_params(args)
    log = _load_log(args)
    table = DistanceTable(log.variant_traces)
    # built before the proxy set, so every strategy slices its columns from
    # the matrix; written only once the log has yielded a proxy set
    matrix = table.matrix_csv() if args.dump_distance_matrix else None
    proxy = generate_proxy(log, params, table)
    eps = epsilon_max_error(log, proxy, table)
    if matrix is not None:
        _write(args.dump_distance_matrix, matrix, "distance matrix")
    _write_traces(args.out, proxy.members, "proxy file")
    print(
        f"proxy: {len(proxy)} members, a-priori max error {eps.value}",
        file=sys.stderr,
    )
    return 0


def _load_spec(args) -> SyntheticSpec:
    data = _read_input(args.spec, ExperimentError, "spec")
    spec = SyntheticSpec.from_dict(read_json(data, ExperimentError, "spec JSON"))
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    return spec


def _cmd_generate(args) -> int:
    if _is_pnml(args.model_out):
        raise OutputError(
            f"cannot write model {args.model_out}: a .pnml model is read as a net, "
            "and generate writes the language text format"
        )
    spec = _load_spec(args)
    model, log = generate_synthetic(spec)
    _write_traces(args.model_out, model.traces, "model")
    write_log = write_log_csv if _is_csv(args.log_out) else write_log_xes
    _write(args.log_out, write_log(log), "log")
    print(
        f"generated: {len(model.traces)} model traces, "
        f"{len(log.variants)} variants, {log.total_traces} traces",
        file=sys.stderr,
    )
    return 0


def _cmd_evaluate(args) -> int:
    spec = _load_spec(args)
    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
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
    _write(args.out, rows_to_csv(rows), "grid")
    if args.long_out:
        _write(args.long_out, rows_to_long_csv(rows), "long-format grid")
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
    pairs = sorted(vars(args).items())
    rendered = " ".join(f"{k}={v}" for k, v in pairs if k != "command" and v is not None)
    print(f"config: command={args.command} {rendered}", file=sys.stderr)
    try:
        return COMMANDS[args.command](args)
    except AlignboundError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error[memory]: {args.command} ran out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
