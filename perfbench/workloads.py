"""Seeded input generators for the three benchmark workloads.

Each generator turns a seed into the files one workload hands to the
``alignbound`` command line: an event log and a model (plus a final
marking for the net).  Only these files reach the program; the generators
run in the benchmark process and their time is the benchmark's set-up.
"""

import json
import random
import string
from dataclasses import dataclass, field

from alignbound.harness import SyntheticSpec, generate_synthetic
from alignbound.log import EventLog, write_log_csv, write_log_xes
from alignbound.model import serialize_explicit_language


@dataclass
class Inputs:
    """Generated files (name -> bytes) plus the command-specific flags."""

    files: dict[str, bytes]
    log: str
    model: str
    strategy: str
    model_flags: tuple[str, ...] = ()
    # approximate cycles through this many proxy seeds, so that its time
    # and the quality figures average over that many proxy sets
    proxy_draws: int = 1
    # about how long one invocation of each command takes at the reference
    # host speed (calibrate.py); it sets how many invocations a run makes
    reference_s: dict = field(default_factory=dict)
    # net3 only: a log of the noise-free walks, every one of which must
    # align at cost 0
    fitting_log: str | None = None
    notes: dict = field(default_factory=dict)


def _disturb(rng, trace, ops, alphabet, inserts=None) -> tuple:
    """Apply ``ops`` single-activity deletes or inserts, as the synthetic
    harness does; a delete never empties the trace.  With ``inserts``
    given, that many of the ops are inserts instead of a coin flip each."""
    trace = list(trace)
    for i in range(ops):
        delete = rng.random() < 0.5 if inserts is None else i >= inserts
        if len(trace) > 1 and delete:
            del trace[rng.randrange(len(trace))]
        else:
            trace.insert(rng.randrange(len(trace) + 1), rng.choice(alphabet))
    return tuple(trace)


def _explicit_inputs(spec, seed, log_name, writer, strategy, proxy_draws, reference_s) -> Inputs:
    """The model language comes from ``spec`` (its own seed); the log is
    drawn from it with the run's seed.  Base traces and noise counts are
    not drawn but cycled, so that each model trace is disturbed equally
    often with each noise count of the spec's range.  With the model fixed
    and the log balanced, runs on different seeds do comparable work."""
    model, _ = generate_synthetic(spec)
    alphabet = string.ascii_lowercase[: spec.alphabet_size]
    rng = random.Random(seed)
    lo, hi = spec.noise_ops
    base = model.traces
    variants: dict[tuple, int] = {}
    for n in range(spec.log_variant_count):
        ops = lo + (n // len(base)) % (hi - lo + 1)
        trace = _disturb(rng, base[n % len(base)], ops, alphabet)
        variants[trace] = variants.get(trace, 0) + rng.randint(*spec.multiplicity)
    log = EventLog(variants)
    return Inputs(
        files={
            log_name: writer(log),
            "model.lang": serialize_explicit_language(model.traces).encode("utf-8"),
        },
        log=log_name,
        model="model.lang",
        strategy=strategy,
        proxy_draws=proxy_draws,
        reference_s=reference_s,
        notes={"variants": len(log.variants), "traces": log.total_traces},
    )


def w_kmedoids(seed: int) -> Inputs:
    # the ROADMAP's W650 model (spec seed 1) with a log of 120 drawn
    # variants instead of 800, so that one kmedoids run fits the sampling
    # window dozens of times; the seed only sets PAM's two extra random
    # starts, so a few proxy draws suffice
    spec = SyntheticSpec(
        alphabet_size=12,
        model_trace_count=20,
        model_trace_length=(8, 20),
        log_variant_count=120,
        noise_ops=(0, 4),
        seed=1,
    )
    return _explicit_inputs(
        spec, seed, "log.csv", write_log_csv, "kmedoids", 8,
        {"approximate": 0.225, "exact": 0.066},
    )


def c8_kcenter_xes(seed: int) -> Inputs:
    # acceptance criterion 8's model (spec seed 42) with 300 drawn variants
    # at multiplicities (6, 18): an XES file of about 1.8 MB whose parse
    # dominates both commands; kcenter ignores the seed, so one proxy draw
    spec = SyntheticSpec(
        alphabet_size=12,
        model_trace_count=80,
        model_trace_length=(6, 10),
        log_variant_count=300,
        noise_ops=(0, 2),
        multiplicity=(6, 18),
        seed=42,
    )
    return _explicit_inputs(
        spec, seed, "log.xes", write_log_xes, "kcenter", 1,
        {"approximate": 0.275, "exact": 0.294},
    )


# net3: a -> AND-split into three branches -> z.  Branch i runs x_i1, an
# optional x_i2 (silent skip) and x_i3, and a silent redo returns it to
# its start.
BRANCHES = (("b", "c", "d"), ("e", "f", "g"), ("h", "i", "j"))
OUTSIDE_ACTIVITY = "x"
NET_ALPHABET = ("a", *(act for branch in BRANCHES for act in branch), "z")
REDO_WEIGHT = 0.3
MAX_REDO = 1
NET3_WALKS = 60


def _net3_structure():
    """Places, transitions (id, label or None) and arcs of the net."""
    places = ["p_start", "p_end"]
    transitions = [("t_a", "a"), ("t_z", "z")]
    arcs = [("p_start", "t_a"), ("t_z", "p_end")]
    for i, (first, middle, last) in enumerate(BRANCHES, start=1):
        q = [f"q{i}_{s}" for s in range(4)]
        places.extend(q)
        arcs.append(("t_a", q[0]))
        arcs.append((q[3], "t_z"))
        for tid, label, src, dst in (
            (f"t_{first}", first, q[0], q[1]),
            (f"t_{middle}", middle, q[1], q[2]),
            (f"t_skip{i}", None, q[1], q[2]),
            (f"t_{last}", last, q[2], q[3]),
            (f"t_redo{i}", None, q[3], q[0]),
        ):
            transitions.append((tid, label))
            arcs.extend([(src, tid), (tid, dst)])
    return places, transitions, arcs


def _pnml(places, transitions, arcs) -> bytes:
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        "<pnml>",
        '  <net id="net3" type="http://www.pnml.org/version-2009/grammar/ptnet">',
        '    <page id="page0">',
    ]
    for pid in places:
        if pid == "p_start":
            out.append(
                f'      <place id="{pid}"><initialMarking><text>1</text>'
                "</initialMarking></place>"
            )
        else:
            out.append(f'      <place id="{pid}"/>')
    for tid, label in transitions:
        if label is None:
            out.append(f'      <transition id="{tid}"/>')
        else:
            out.append(
                f'      <transition id="{tid}"><name><text>{label}</text></name>'
                "</transition>"
            )
    for n, (src, dst) in enumerate(arcs, start=1):
        out.append(f'      <arc id="arc{n}" source="{src}" target="{dst}"/>')
    out.extend(["    </page>", "  </net>", "</pnml>", ""])
    return "\n".join(out).encode("utf-8")


def _walk(rng, places, transitions, arcs):
    """Random firing sequence from the initial to the final marking; the
    visible labels form the trace.  Redo transitions are down-weighted and
    fire at most MAX_REDO times per branch, which keeps the walk lengths
    (and the alignment work per variant) from having a long tail."""
    pre = {tid: [s for s, d in arcs if d == tid] for tid, _ in transitions}
    post = {tid: [d for s, d in arcs if s == tid] for tid, _ in transitions}
    marking = {p: 0 for p in places}
    marking["p_start"] = 1
    redone = {tid: 0 for tid, _ in transitions}
    trace = []
    while marking["p_end"] == 0:
        enabled = [
            (tid, label)
            for tid, label in transitions
            if all(marking[p] >= 1 for p in pre[tid]) and redone[tid] < MAX_REDO
        ]
        weights = [REDO_WEIGHT if tid.startswith("t_redo") else 1.0 for tid, _ in enabled]
        tid, label = rng.choices(enabled, weights=weights)[0]
        if tid.startswith("t_redo"):
            redone[tid] += 1
        for p in pre[tid]:
            marking[p] -= 1
        for p in post[tid]:
            marking[p] += 1
        if label is not None:
            trace.append(label)
    return tuple(trace)


def net3_random(seed: int) -> Inputs:
    rng = random.Random(seed)
    places, transitions, arcs = _net3_structure()
    noise_alphabet = (*NET_ALPHABET, OUTSIDE_ACTIVITY)
    fitting: dict[tuple, int] = {}
    noisy: dict[tuple, int] = {}
    for n in range(NET3_WALKS):
        walk = _walk(rng, places, transitions, arcs)
        fitting[walk] = fitting.get(walk, 0) + 1
        # noise counts 0..3 in equal shares, as for the explicit workloads,
        # and for each count every split into inserts and deletes in turn:
        # inserts cost A* more, so a drawn split would let the alignment
        # work swing between seeds
        ops = n % 4
        trace = _disturb(rng, walk, ops, noise_alphabet, inserts=(n // 4) % (ops + 1))
        noisy[trace] = noisy.get(trace, 0) + rng.randint(1, 4)
    log = EventLog(noisy)
    return Inputs(
        files={
            "log.csv": write_log_csv(log),
            "fitting.csv": write_log_csv(EventLog(fitting)),
            "net.pnml": _pnml(places, transitions, arcs),
            "final_marking.json": json.dumps({"p_end": 1}).encode("utf-8"),
        },
        log="log.csv",
        model="net.pnml",
        strategy="random",
        model_flags=("--final-marking", "final_marking.json"),
        # a random proxy of 3 variants swings with the draw; 128 draws keep
        # the mean alignment work of approximate steady across seeds
        proxy_draws=128,
        reference_s={"approximate": 0.048, "exact": 0.54},
        fitting_log="fitting.csv",
        notes={
            "variants": len(log.variants),
            "traces": log.total_traces,
            "mean_length": sum(len(t) for t in log.variants) / len(log.variants),
        },
    )


WORKLOADS = {
    "w120-kmedoids": w_kmedoids,
    "c8-kcenter-xes": c8_kcenter_xes,
    "net3-random": net3_random,
}
