"""Shared fixtures and independent oracles.

The oracles deliberately avoid the production code paths: distances come
from a plain recursion on the definition (delete from either side), the
alignment oracle enumerates every edit script, the explicit aligner's
moves are traced back on a full LCS table, the clustering optima
come from exhaustive subset scans, the distance matrix is built one row
at a time with the scalar kernel, the PAM swap phase evaluates one
swap at a time, and the net alignment search scans every transition with
``enabled``/``fire`` for each expanded state, and the log parsers build
a whole ElementTree or a ``DictReader`` row list.  The text writers
escape and format every event and every report cell on its own, and
the net's successor lists come from ``enabled``/``fire`` on every
transition.  Tests compare the fast implementations against these.
"""

import csv
import heapq
import io
import itertools
import json
import random
import xml.etree.ElementTree as ET
from functools import lru_cache

import numpy as np
import pytest

from alignbound import fixtures
from alignbound.aligner import Alignment, Move, MoveKind
from alignbound.bounds import TIMING_KEYS
from alignbound.distance import MatchMasks, edit_distance
from alignbound.errors import LogParseError, StateBoundError
from alignbound.log import CONCEPT_NAME, EventLog, trace_sort_key
from alignbound.model import PetriNetModel, Transition


def naive_edit_distance(a, b) -> int:
    """Definition-level recursion: strip matching heads for free, otherwise
    delete one activity from either side for cost one."""
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a):
            return len(b) - j
        if j == len(b):
            return len(a) - i
        best = 2 + len(a) + len(b)
        if a[i] == b[j]:
            best = go(i + 1, j + 1)
        best = min(best, 1 + go(i + 1, j), 1 + go(i, j + 1))
        return best

    return go(0, 0)


def enumerate_alignment_cost(trace, model_traces) -> int:
    """Exhaustive enumeration of all edit scripts against every model trace,
    without memoization; exponential, so keep inputs small."""
    trace = tuple(trace)

    def scripts(i, j, target):
        if i == len(trace) and j == len(target):
            return 0
        options = []
        if i < len(trace) and j < len(target) and trace[i] == target[j]:
            options.append(scripts(i + 1, j + 1, target))
        if i < len(trace):
            options.append(1 + scripts(i + 1, j, target))
        if j < len(target):
            options.append(1 + scripts(i, j + 1, target))
        return min(options)

    return min(scripts(0, 0, tuple(t)) for t in model_traces)


def edit_moves_table(log_trace, model_trace):
    """One longest-common-subsequence path as a move sequence, traced back
    on the full (|log| + 1) x (|model| + 1) LCS table: a sync move where
    the labels match and the LCS grows, else a model move where the LCS
    stays the same without the model event, else a log move."""
    la, lb = len(log_trace), len(model_trace)
    lcs = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(1, la + 1):
        row = lcs[i]
        prev = lcs[i - 1]
        ai = log_trace[i - 1]
        for j in range(1, lb + 1):
            if ai == model_trace[j - 1]:
                row[j] = prev[j - 1] + 1
            else:
                row[j] = max(prev[j], row[j - 1])
    moves = []
    i, j = la, lb
    while i > 0 or j > 0:
        if (
            i > 0
            and j > 0
            and log_trace[i - 1] == model_trace[j - 1]
            and lcs[i][j] == lcs[i - 1][j - 1] + 1
        ):
            moves.append(Move(MoveKind.SYNC, log_trace[i - 1]))
            i -= 1
            j -= 1
        elif j > 0 and lcs[i][j] == lcs[i][j - 1]:
            moves.append(Move(MoveKind.MODEL, model_trace[j - 1]))
            j -= 1
        else:
            moves.append(Move(MoveKind.LOG, log_trace[i - 1]))
            i -= 1
    moves.reverse()
    return moves


def brute_force_nearest(trace, candidates) -> int:
    return min(naive_edit_distance(trace, c) for c in candidates)


def brute_force_epsilon(log: EventLog, members) -> int:
    return sum(
        log.variants[t] * brute_force_nearest(t, members) for t in log.variants
    )


def kcenter_optimal_radius(variants, k, dist) -> int:
    best = None
    for combo in itertools.combinations(range(len(variants)), k):
        radius = max(min(dist(i, c) for c in combo) for i in range(len(variants)))
        if best is None or radius < best:
            best = radius
    return best


def kmedoids_optimal_objective(log: EventLog, k, dist) -> int:
    variants = log.variant_traces
    weights = [log.variants[t] for t in variants]
    best = None
    for combo in itertools.combinations(range(len(variants)), k):
        obj = sum(
            w * min(dist(i, c) for c in combo) for i, w in enumerate(weights)
        )
        if best is None or obj < best:
            best = obj
    return best


def distance_matrix_rows(variants):
    """Distance matrix cells built one row at a time: each variant's
    ``MatchMasks`` against every later variant, mirrored below the
    diagonal."""
    labels = tuple(tuple(v) for v in variants)
    n = len(labels)
    cells = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        masks = MatchMasks(labels[i])
        row = [edit_distance(masks, labels[j]) for j in range(i + 1, n)]
        cells[i, i + 1 :] = row
        cells[i + 1 :, i] = row
    return cells


def pam_build_loop(cells, weights, k):
    """PAM BUILD with fresh clip and sum temporaries at every step: start
    from the weighted 1-medoid, then add the candidate that removes the
    most weighted distance, the first one on ties."""
    totals = (cells * weights[:, None]).sum(axis=0)
    chosen = [int(np.argmin(totals))]
    nearest = cells[:, chosen[0]].copy()
    while len(chosen) < k:
        gains = (np.clip(nearest[:, None] - cells, 0, None) * weights[:, None]).sum(
            axis=0
        )
        gains[np.array(chosen)] = -1
        nxt = int(np.argmax(gains))
        chosen.append(nxt)
        np.minimum(nearest, cells[:, nxt], out=nearest)
    return sorted(chosen)


def pam_swap_loop(cells, weights, medoids):
    """PAM swap phase evaluating each of the k x (n-k) swaps on its own:
    take the most negative objective change, the first medoid and then
    the first candidate on ties, until no swap improves."""
    n = len(weights)
    medoids = sorted(medoids)
    rows = np.arange(n)
    while True:
        med = np.array(medoids)
        sub = cells[:, med]
        if len(medoids) == 1:
            nearest_d = sub[:, 0].copy()
            nearest_label = np.full(n, medoids[0])
            second_d = np.full(n, np.iinfo(np.int64).max // 4)
        else:
            order = np.argpartition(sub, 1, axis=1)
            nearest_d = sub[rows, order[:, 0]]
            second_d = sub[rows, order[:, 1]]
            nearest_label = med[order[:, 0]]
        best_delta = 0
        best_swap = None
        in_med = np.zeros(n, dtype=bool)
        in_med[med] = True
        candidates = np.where(~in_med)[0]
        for mi, m in enumerate(medoids):
            affected = nearest_label == m
            base = np.where(affected, second_d, nearest_d)
            for hcol in candidates:
                newd = np.minimum(base, cells[:, hcol])
                delta = int(((newd - nearest_d) * weights).sum())
                if delta < best_delta:
                    best_delta = delta
                    best_swap = (mi, int(hcol))
        if best_swap is None:
            return medoids
        medoids[best_swap[0]] = best_swap[1]
        medoids.sort()


def align_petri_reference(trace, model):
    """Dijkstra over (trace position, marking) that finds the enabled transitions
    of each expanded state by scanning the net three times, and keeps a
    settled set beside the cost map.  Returns ``(alignment, cost,
    states_expanded)`` with the expansion order ``optimal_alignment``
    promises, from one heap: a free push (sync or silent move) is keyed
    ``(g, 0, 0, -stamp)`` and a unit-cost push (visible model or log move)
    ``(g, 1, -position, -stamp)``, where the stamp counts pushes and one
    expansion pushes visible, log, silent and sync moves in that order, each
    in transition order.  So a level pops its free arrivals latest first,
    then its unit-cost arrivals by descending trace position, latest first."""
    trace = tuple(trace)
    n = len(trace)
    start = (0, model.initial_marking)
    best = {start: 0}
    came_from = {}
    heap = [(0, 0, 0, 0, start)]
    stamp = 0
    settled = set()
    expanded = 0

    def push(state, g, unit, parent, move):
        nonlocal stamp
        if state not in best or g < best[state]:
            best[state] = g
            came_from[state] = (parent, move)
            stamp += 1
            depth = -state[0] if unit else 0
            heapq.heappush(heap, (g, unit, depth, -stamp, state))

    while heap:
        g, _, _, _, state = heapq.heappop(heap)
        if state in settled or g > best[state]:
            continue
        pos, marking = state
        if pos == n and marking == model.final_marking:
            moves = []
            while state != start:
                state, move = came_from[state]
                moves.append(move)
            return Alignment(moves=tuple(reversed(moves))), g, expanded
        settled.add(state)
        expanded += 1
        if expanded > model.state_bound:
            raise StateBoundError(f"state bound {model.state_bound} exceeded")
        for ti, trans in enumerate(model.transitions):
            if not trans.silent and model.enabled(marking, ti):
                after = (pos, model.fire(marking, ti))
                move = Move(MoveKind.MODEL, trans.label, trans.tid)
                push(after, g + 1, 1, state, move)
        if pos < n:
            push((pos + 1, marking), g + 1, 1, state, Move(MoveKind.LOG, trace[pos]))
        for ti, trans in enumerate(model.transitions):
            if trans.silent and model.enabled(marking, ti):
                after = (pos, model.fire(marking, ti))
                push(after, g, 0, state, Move(MoveKind.SILENT, None, trans.tid))
        if pos < n:
            for ti, trans in enumerate(model.transitions):
                if trans.label == trace[pos] and model.enabled(marking, ti):
                    after = (pos + 1, model.fire(marking, ti))
                    move = Move(MoveKind.SYNC, trans.label, trans.tid)
                    push(after, g, 0, state, move)
    raise StateBoundError("search exhausted without reaching the final marking")


def parse_xes_reference(data: bytes) -> EventLog:
    """XES parsing over a whole ElementTree: every trace element at any
    depth, in pre-order; each direct event child named by its last direct
    string child keyed concept:name."""

    def local(tag):
        return tag.rsplit("}", 1)[-1]

    try:
        root = ET.fromstring(data)
    except (ET.ParseError, LookupError, ValueError) as exc:
        # LookupError and ValueError: a declared encoding with no codec, or
        # one expat cannot read
        raise LogParseError(f"malformed XES: {exc}") from None
    traces = []
    for elem in root.iter():
        if local(elem.tag) != "trace":
            continue
        activities = []
        for child in elem:
            if local(child.tag) != "event":
                continue
            name = None
            for attr in child:
                if local(attr.tag) == "string" and attr.get("key") == CONCEPT_NAME:
                    name = attr.get("value")
            if not name:
                raise LogParseError(
                    f"event without a non-empty {CONCEPT_NAME} in trace {len(traces)}"
                )
            activities.append(name)
        traces.append(activities)
    return EventLog.from_traces(traces)


def parse_csv_reference(
    data: bytes,
    case_column: str = "case",
    activity_column: str = "activity",
    order_column: str = "order",
) -> EventLog:
    """CSV parsing through a DictReader into a list of every row, then a
    second pass that decides the numeric order flag for the whole file and
    groups the rows by case."""
    reader = csv.DictReader(io.StringIO(data.decode("utf-8-sig")))
    if not reader.fieldnames:
        raise LogParseError("CSV input has no header row")
    for col in (case_column, activity_column, order_column):
        if col not in reader.fieldnames:
            raise LogParseError(
                f"missing column {col!r}; header has {reader.fieldnames}"
            )
    rows = []
    for line_no, row in enumerate(reader, start=2):
        case = row.get(case_column)
        activity = row.get(activity_column)
        order = row.get(order_column)
        if case is None or order is None or not activity:
            raise LogParseError(f"unparseable row at line {line_no}")
        rows.append((case, order, activity))

    numeric = True
    for _, order, _ in rows:
        try:
            int(order)
        except ValueError:
            numeric = False
            break

    cases: dict[str, list] = {}
    for idx, (case, order, activity) in enumerate(rows):
        key = int(order) if numeric else order
        cases.setdefault(case, []).append((key, idx, activity))

    traces = []
    for case in cases:
        events = sorted(cases[case], key=lambda e: e[0])
        traces.append([a for _, _, a in events])
    return EventLog.from_traces(traces)


def write_log_csv_reference(log: EventLog) -> bytes:
    """The CSV interchange bytes, one ``csv.writer`` row per event."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["case", "activity", "order"])
    case_no = 0
    for trace in sorted(log.variants, key=trace_sort_key):
        if not trace:
            raise ValueError("CSV interchange cannot represent an empty trace")
        for _ in range(log.variants[trace]):
            case_no += 1
            for pos, activity in enumerate(trace, start=1):
                writer.writerow([f"case-{case_no}", activity, pos])
    return buf.getvalue().encode("utf-8")


def write_log_xes_reference(log: EventLog) -> bytes:
    """The XES bytes, quoting both attributes of every event."""
    from xml.sax.saxutils import quoteattr

    out = ['<?xml version="1.0" encoding="UTF-8"?>', '<log xes.version="1.0">']
    case_no = 0
    for trace in sorted(log.variants, key=trace_sort_key):
        for _ in range(log.variants[trace]):
            case_no += 1
            out.append("  <trace>")
            out.append(f'    <string key="{CONCEPT_NAME}" value="case-{case_no}"/>')
            for activity in trace:
                out.append(
                    "    <event><string key=%s value=%s/></event>"
                    % (quoteattr(CONCEPT_NAME), quoteattr(activity))
                )
            out.append("  </trace>")
    out.append("</log>")
    out.append("")
    return "\n".join(out).encode("utf-8")


def write_report_json_reference(report) -> bytes:
    """The JSON report as one ``json.dumps(doc)`` line, built field by
    field."""
    doc = {
        "variants": [
            {
                "trace": list(result.trace),
                "multiplicity": mult,
                "lower": result.lower,
                "upper": result.upper,
                "estimate": str(result.estimate),
                "nearest_proxy": list(result.nearest_proxy),
                "proxy_distance": result.proxy_distance,
                "lower_source": result.lower_source,
            }
            for result, mult in report.per_variant
        ],
        "proxy": {
            "members": [list(t) for t in report.proxy.members],
            "ref_costs": list(report.ref_costs),
            "provenance": report.proxy.provenance,
        },
        "aggregates": {
            "epsilon_max": report.epsilon_max,
            "total_estimate": str(report.total_estimate),
            "total_traces": report.total_traces,
            "aligner_invocations": report.aligner_invocations,
            "timings_us": {key: report.timings_us.get(key, 0) for key in TIMING_KEYS},
        },
    }
    return (json.dumps(doc) + "\n").encode("utf-8")


def split_escaped(cell: str, sep: str) -> list[str]:
    """``cell`` split at each ``sep`` not escaped by a backslash, read one
    character at a time, a backslash and the character after it read as
    that character: the reader of the trace (``|``) and move (space) cells
    the CSV writers spell."""
    parts, part, chars = [], [], iter(cell)
    for ch in chars:
        if ch == "\\":
            part.append(next(chars))
        elif ch == sep:
            parts.append("".join(part))
            part = []
        else:
            part.append(ch)
    return [*parts, "".join(part)]


def read_trace_cell(cell: str) -> tuple:
    """The trace a trace cell spells: ``-`` is the empty trace, any other
    cell its labels split at each unescaped ``|``."""
    return () if cell == "-" else tuple(split_escaped(cell, "|"))


def successors_reference(model: PetriNetModel, marking):
    """The enabled transitions of ``marking`` as ``(silent, visible,
    by_label)``, each entry a ``(transition index, successor marking)``
    pair, found by calling ``enabled`` and ``fire`` on every transition."""
    silent, visible, by_label = [], [], {}
    for ti, trans in enumerate(model.transitions):
        if not model.enabled(marking, ti):
            continue
        step = (ti, model.fire(marking, ti))
        if trans.silent:
            silent.append(step)
        else:
            visible.append(step)
            by_label.setdefault(trans.label, []).append(step)
    return silent, visible, by_label


def random_trace(rng: random.Random, alphabet, lo, hi):
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def three_branch_net():
    """a, then an AND-split into three branches, then z.  Branch i runs
    three activities, the middle one skippable by a silent transition, and
    a silent redo returns it to its start.  Labels c and b occur in two
    branches each, so one label can enable several transitions at once."""
    branches = (("b", "c", "d"), ("e", "c", "g"), ("h", "i", "b"))
    places = ["start", "end"]
    transitions = [Transition("t_a", "a"), Transition("t_z", "z")]
    inputs = [[0], []]
    outputs = [[], [1]]
    for i, (first, middle, last) in enumerate(branches, start=1):
        q = list(range(len(places), len(places) + 4))
        places.extend(f"q{i}_{s}" for s in range(4))
        outputs[0].append(q[0])
        inputs[1].append(q[3])
        for tid, label, src, dst in (
            (f"t{i}_{first}", first, q[0], q[1]),
            (f"t{i}_{middle}", middle, q[1], q[2]),
            (f"t{i}_skip", None, q[1], q[2]),
            (f"t{i}_{last}", last, q[2], q[3]),
            (f"t{i}_redo", None, q[3], q[0]),
        ):
            transitions.append(Transition(tid, label))
            inputs.append([src])
            outputs.append([dst])
    initial = [1] + [0] * (len(places) - 1)
    final = [0, 1] + [0] * (len(places) - 2)
    return PetriNetModel(places, transitions, inputs, outputs, initial, final)


def noisy_walk(rng, net, alphabet, max_ops):
    """The visible labels of a random firing sequence from the initial to
    the final marking, then up to ``max_ops`` random deletions and
    insertions drawn from ``alphabet``."""
    while True:
        marking, trace = net.initial_marking, []
        while marking != net.final_marking and len(trace) < 12:
            ti = rng.choice(
                [i for i in range(len(net.transitions)) if net.enabled(marking, i)]
            )
            marking = net.fire(marking, ti)
            if not net.transitions[ti].silent:
                trace.append(net.transitions[ti].label)
        if marking == net.final_marking:
            break
    for _ in range(rng.randint(0, max_ops)):
        if trace and rng.random() < 0.5:
            del trace[rng.randrange(len(trace))]
        else:
            trace.insert(rng.randint(0, len(trace)), rng.choice(alphabet))
    return tuple(trace)


def with_x_runs(rng, trace):
    """``trace`` with two runs of two to four off-alphabet ``x`` inserted."""
    trace = list(trace)
    for _ in range(2):
        at = rng.randint(0, len(trace))
        trace[at:at] = ["x"] * rng.randint(2, 4)
    return tuple(trace)


# the nets the search is checked on, each with the alphabet its random
# traces are drawn from (x is outside both nets' alphabets)
search_nets = pytest.mark.parametrize(
    "make_net, alphabet",
    [(fixtures.parallel_loop_petri, "abcdex"), (three_branch_net, "abcdeghizx")],
    ids=["loop_net", "three_branch_net"],
)


@pytest.fixture(scope="session")
def loop_language():
    return fixtures.parallel_loop_language()


@pytest.fixture(scope="session")
def loop_net():
    return fixtures.parallel_loop_petri()
