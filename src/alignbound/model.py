"""Process model backends.

Two backends share the same informal surface (``alphabet``,
``min_visible_length``): an explicitly enumerated finite language and a
bounded labeled Petri net parsed from a PNML subset.  The minimal visible
length of a model is the smallest number of visible activities on any
complete model run; for a Petri net it is found by a least-cost search that
charges 1 per visible transition and 0 per silent one, which is exactly the
optimal alignment cost of the empty trace.
"""

import heapq
import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ModelError, StateBoundError
from .log import Trace, make_trace, trace_sort_key

DEFAULT_STATE_BOUND = 1_000_000


class ExplicitLanguageModel:
    """Finite model language given as an explicit set of traces."""

    def __init__(self, traces):
        deduped = {make_trace(t) for t in traces}
        if not deduped:
            raise ModelError("model language must contain at least one trace")
        self.traces: tuple[Trace, ...] = tuple(sorted(deduped, key=trace_sort_key))
        self._members = frozenset(self.traces)
        self.alphabet = frozenset(a for t in self.traces for a in t)
        self.min_visible_length = min(len(t) for t in self.traces)

    def __contains__(self, trace) -> bool:
        return tuple(trace) in self._members

    def __len__(self) -> int:
        return len(self.traces)

    def __repr__(self):
        return f"ExplicitLanguageModel({len(self.traces)} traces)"


def parse_explicit_language(text) -> ExplicitLanguageModel:
    """Parse the one-trace-per-line text format.

    Each non-blank line is a comma-separated activity sequence; the single
    character ``-`` stands for the empty trace.  Duplicate lines collapse.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    traces = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line == "-":
            traces.append(())
            continue
        items = [part.strip() for part in line.split(",")]
        if any(not item for item in items):
            raise ModelError(f"empty activity label on line {line_no}")
        traces.append(items)
    if not traces:
        raise ModelError("language file contains no traces")
    return ExplicitLanguageModel(traces)


def serialize_explicit_language(traces) -> str:
    """Inverse of :func:`parse_explicit_language`, canonical line order."""
    deduped = sorted({tuple(t) for t in traces}, key=trace_sort_key)
    lines = []
    for trace in deduped:
        for activity in trace:
            if "," in activity or activity.strip() != activity or not activity:
                raise ValueError(
                    f"label {activity!r} cannot be carried by the language text format"
                )
        lines.append(",".join(trace) if trace else "-")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Transition:
    tid: str
    label: str | None  # None marks a silent transition

    @property
    def silent(self) -> bool:
        return self.label is None


class Successors(NamedTuple):
    """The enabled transitions of one marking, as ``(transition index,
    successor marking)`` pairs, each group in ascending transition index.
    The memo hands the same instance to every caller, who must not modify
    ``by_label``."""

    silent: tuple
    visible: tuple
    by_label: dict  # visible label -> the pairs of ``visible`` with that label


class PetriNetModel:
    """Bounded labeled Petri net with one initial and one final marking.

    Markings are tuples of token counts indexed like ``places``.  All arcs
    have multiplicity one.  ``min_visible_length`` is computed eagerly so an
    unreachable final marking fails at construction time.

    ``successors`` memoises its answer per marking on the model, so the
    memo holds the part of the reachability graph that searches on this
    model have expanded.  On a bounded net it is finite; each search adds
    at most ``state_bound`` markings to it.
    """

    def __init__(
        self,
        places,
        transitions,
        inputs,
        outputs,
        initial_marking,
        final_marking,
        state_bound: int = DEFAULT_STATE_BOUND,
    ):
        self.places = tuple(places)
        self.transitions = tuple(transitions)
        self.inputs = tuple(tuple(p) for p in inputs)
        self.outputs = tuple(tuple(p) for p in outputs)
        self.initial_marking = tuple(initial_marking)
        self.final_marking = tuple(final_marking)
        self.state_bound = int(state_bound)
        if len(self.inputs) != len(self.transitions) or len(self.outputs) != len(
            self.transitions
        ):
            raise ModelError("arc lists must match the transition list")
        for marking in (self.initial_marking, self.final_marking):
            if len(marking) != len(self.places) or any(c < 0 for c in marking):
                raise ModelError("markings must be non-negative and cover all places")
        self.alphabet = frozenset(
            t.label for t in self.transitions if t.label is not None
        )
        self._successors: dict[tuple, Successors] = {}
        self.min_visible_length = self._min_visible_length()

    def __repr__(self):
        return (
            f"PetriNetModel({len(self.places)} places, "
            f"{len(self.transitions)} transitions)"
        )

    def enabled(self, marking, tindex: int) -> bool:
        return all(marking[p] >= 1 for p in self.inputs[tindex])

    def fire(self, marking, tindex: int):
        after = list(marking)
        for p in self.inputs[tindex]:
            after[p] -= 1
        for p in self.outputs[tindex]:
            after[p] += 1
        return tuple(after)

    def successors(self, marking) -> Successors:
        """The transitions enabled in ``marking`` with their successor
        markings, memoised per model (see the class docstring)."""
        succ = self._successors.get(marking)
        if succ is None:
            silent = []
            visible = []
            by_label: dict[str, list] = {}
            for ti, trans in enumerate(self.transitions):
                if not self.enabled(marking, ti):
                    continue
                step = (ti, self.fire(marking, ti))
                if trans.silent:
                    silent.append(step)
                else:
                    visible.append(step)
                    by_label.setdefault(trans.label, []).append(step)
            succ = Successors(
                tuple(silent),
                tuple(visible),
                {label: tuple(steps) for label, steps in by_label.items()},
            )
            self._successors[marking] = succ
        return succ

    def _min_visible_length(self) -> int:
        # least-cost search; silent transitions are free.  Every push lowers
        # a marking's cost, so an entry dearer than the best known is stale.
        start = self.initial_marking
        target = self.final_marking
        best = {start: 0}
        heap = [(0, 0, start)]
        seq = 0
        explored = 0
        while heap:
            cost, _, marking = heapq.heappop(heap)
            if cost > best[marking]:
                continue
            if marking == target:
                return cost
            explored += 1
            if explored > self.state_bound:
                raise StateBoundError(
                    f"state bound {self.state_bound} exceeded after exploring "
                    f"{explored} markings while searching for the final marking"
                )
            succ = self.successors(marking)
            for steps, step_cost in ((succ.silent, 0), (succ.visible, 1)):
                for _, after in steps:
                    if after not in best or cost + step_cost < best[after]:
                        best[after] = cost + step_cost
                        seq += 1
                        heapq.heappush(heap, (cost + step_cost, seq, after))
        raise ModelError("final marking is unreachable from the initial marking")

    def probe_fired(self, max_states: int = 10_000):
        """Breadth-first probe collecting transitions that fire at least once.

        Returns ``(fired_ids, complete)`` where ``complete`` is False when the
        probe stopped at ``max_states`` before exhausting the state space.
        """
        from collections import deque

        fired: set[str] = set()
        seen = {self.initial_marking}
        queue = deque([self.initial_marking])
        complete = True
        while queue:
            succ = self.successors(queue.popleft())
            for ti, after in sorted(succ.silent + succ.visible):
                fired.add(self.transitions[ti].tid)
                if after not in seen:
                    if len(seen) >= max_states:
                        complete = False
                        continue
                    seen.add(after)
                    queue.append(after)
        return fired, complete


def parse_pnml(
    data,
    final_marking: dict | None = None,
    silent_label: str | None = None,
    state_bound: int = DEFAULT_STATE_BOUND,
) -> PetriNetModel:
    """Parse the PNML subset: places with initial markings, labeled
    transitions, unit arcs.

    A transition with no name element, an empty name, or a name equal to
    ``silent_label`` is silent.  The final marking is not part of the file
    and must be supplied as a place-id -> token-count mapping.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise ModelError(f"malformed PNML: {exc}") from None

    def local(tag):
        return tag.rsplit("}", 1)[-1]

    place_ids = []
    initial = {}
    transitions = []
    arcs = []
    for elem in root.iter():
        tag = local(elem.tag)
        if tag == "place":
            pid = elem.get("id")
            if not pid:
                raise ModelError("place without an id")
            if pid in initial:
                raise ModelError(f"duplicate place id {pid!r}")
            place_ids.append(pid)
            tokens = 0
            for child in elem.iter():
                if local(child.tag) == "initialMarking":
                    text = "".join(
                        t.text or "" for t in child.iter() if local(t.tag) == "text"
                    )
                    try:
                        tokens = int(text.strip())
                    except ValueError:
                        raise ModelError(
                            f"place {pid!r} has a non-integer initial marking"
                        ) from None
            initial[pid] = tokens
        elif tag == "transition":
            tid = elem.get("id")
            if not tid:
                raise ModelError("transition without an id")
            label = None
            for child in elem.iter():
                if local(child.tag) == "name":
                    for t in child.iter():
                        if local(t.tag) == "text":
                            label = (t.text or "").strip()
            if not label or label == silent_label:
                label = None
            transitions.append(Transition(tid=tid, label=label))
        elif tag == "arc":
            arcs.append((elem.get("id") or "?", elem.get("source"), elem.get("target")))

    if not place_ids:
        raise ModelError("net has no places")
    if not transitions:
        raise ModelError("net has no transitions")
    tids = [t.tid for t in transitions]
    if len(set(tids)) != len(tids):
        raise ModelError("duplicate transition ids")
    place_index = {pid: i for i, pid in enumerate(place_ids)}
    trans_index = {tid: i for i, tid in enumerate(tids)}

    inputs: list[list[int]] = [[] for _ in transitions]
    outputs: list[list[int]] = [[] for _ in transitions]
    seen_arcs = set()
    for aid, source, target in arcs:
        if (source, target) in seen_arcs:
            raise ModelError(f"duplicate arc {aid!r} ({source} -> {target})")
        seen_arcs.add((source, target))
        if source in place_index and target in trans_index:
            inputs[trans_index[target]].append(place_index[source])
        elif source in trans_index and target in place_index:
            outputs[trans_index[source]].append(place_index[target])
        else:
            raise ModelError(
                f"arc {aid!r} does not connect a known place and transition"
            )

    if final_marking is None:
        raise ModelError("no final marking configured for the net")
    final = [0] * len(place_ids)
    for pid, count in final_marking.items():
        if pid not in place_index:
            raise ModelError(f"final marking names unknown place {pid!r}")
        final[place_index[pid]] = int(count)

    return PetriNetModel(
        places=place_ids,
        transitions=transitions,
        inputs=inputs,
        outputs=outputs,
        initial_marking=[initial[p] for p in place_ids],
        final_marking=final,
        state_bound=state_bound,
    )


def parse_final_marking_json(data) -> dict:
    """Read a place-id -> token-count mapping from JSON bytes or text."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        raw = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ModelError(f"malformed final marking JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ModelError("final marking JSON must be an object")
    marking = {}
    for key, value in raw.items():
        if not isinstance(value, int) or value < 0:
            raise ModelError(f"final marking for {key!r} must be a non-negative int")
        marking[str(key)] = value
    return marking

