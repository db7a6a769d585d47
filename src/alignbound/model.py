"""Process model backends.

Two backends share the same informal surface (``alphabet``,
``min_visible_length``): an explicitly enumerated finite language and a
bounded labeled Petri net parsed from a PNML subset.  The minimal visible
length of a model is the smallest number of visible activities on any
complete model run, which is exactly the optimal alignment cost of the
empty trace; a Petri net takes it from the aligner's cost-only search.
:func:`structural_floor` reads the two on either backend.
"""

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ModelError
from .log import Trace, canonical_traces, decode_text, is_int, read_json

DEFAULT_STATE_BOUND = 1_000_000
# markings the reachability probe of ``PetriNetModel.probe_fired`` visits
DEFAULT_PROBE_BOUND = 10_000


class ExplicitLanguageModel:
    """Finite model language given as an explicit set of traces."""

    def __init__(self, traces):
        self.traces: tuple[Trace, ...] = canonical_traces(traces)
        if not self.traces:
            raise ModelError("model language must contain at least one trace")
        self._members = frozenset(self.traces)
        self.alphabet = frozenset(a for t in self.traces for a in t)
        self.min_visible_length = min(len(t) for t in self.traces)

    def __contains__(self, trace) -> bool:
        return tuple(trace) in self._members

    def __len__(self) -> int:
        return len(self.traces)

    def __repr__(self):
        return f"ExplicitLanguageModel({len(self.traces)} traces)"


def structural_floor(trace, model) -> int:
    """The cost below which no alignment of ``trace`` on ``model`` goes,
    from the model's ``alphabet`` and ``min_visible_length`` alone: each
    event outside the alphabet is a log move, and a trace shorter than every
    model run needs at least the missing length in model moves.  The
    bracket's structural lower bound and the explicit search's stop both
    read it here."""
    outside = len(trace) - sum(map(model.alphabet.__contains__, trace))
    return max(0, model.min_visible_length - len(trace)) + outside


def parse_explicit_language(text) -> ExplicitLanguageModel:
    """Parse the one-trace-per-line text format.

    Each non-blank line is a comma-separated activity sequence; the single
    character ``-`` stands for the empty trace.  Duplicate lines collapse.
    Bytes are decoded as UTF-8 with a leading byte-order mark dropped.
    """
    if isinstance(text, bytes):
        text = decode_text(text, ModelError, "language file")
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
    lines = []
    for trace in canonical_traces(traces):
        for activity in trace:
            # an empty label splits into no line, one holding a line break
            # into two
            if "," in activity or activity.strip() != activity or (
                activity.splitlines() != [activity]
            ):
                raise ValueError(
                    f"label {activity!r} cannot be carried by the language text format"
                )
        if trace == ("-",):
            # its line would read back as the empty trace
            raise ValueError(
                "label '-' cannot be carried alone by the language text format"
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
    successor marking id)`` pairs, each group in ascending transition index.
    The memo hands the same instance to every caller, who must not modify
    ``by_label``."""

    silent: tuple
    visible: tuple
    by_label: dict  # visible label -> the pairs of ``visible`` with that label


class PetriNetModel:
    """Bounded labeled Petri net with one initial and one final marking.

    Markings are tuples of token counts indexed like ``places``, and arc
    lists name places by their index there.  All arcs are normal arcs (no
    inhibitor or reset arcs) of multiplicity one, so no transition names a
    place twice in one arc list.
    ``min_visible_length`` is the optimal alignment cost of the empty trace,
    computed eagerly by ``aligner.optimal_cost`` (no alignment is built) so
    that a net whose final marking is unreachable, or whose search passes
    ``state_bound``, fails at construction time.

    The searches carry markings as dense integer ids: a marking gets the
    next id the first time the model meets it (``initial_id`` is 0), and
    one dict maps each marking tuple to its id.  ``successors`` takes and
    returns ids and memoises its answer per id in ``successor_memo`` (None
    where it has not answered yet), so the memo holds the part of the
    reachability graph that searches on this model have expanded; the net
    search reads the list by index and calls ``successors`` on a miss.  On
    a bounded net the memo is finite; each search adds at most
    ``state_bound`` markings to it.  Each transition's preset is one
    bitmask over the places, built once per net, so a new marking's enabled
    transitions are found by testing each mask against the marking's
    marked places.
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
        if self.state_bound < 1:
            raise ModelError(f"state bound must be at least 1, got {self.state_bound}")
        if len(self.inputs) != len(self.transitions) or len(self.outputs) != len(
            self.transitions
        ):
            raise ModelError("arc lists must match the transition list")
        indices = range(len(self.places))
        for trans, ins, outs in zip(self.transitions, self.inputs, self.outputs):
            for p in ins + outs:
                if not is_int(p) or p not in indices:
                    raise ModelError(
                        f"transition {trans.tid!r} names a place by {p!r}, "
                        f"not by an index in range({len(self.places)})"
                    )
            if any(len(set(places)) < len(places) for places in (ins, outs)):
                raise ModelError(
                    f"transition {trans.tid!r} names a place twice in one arc list; "
                    "arcs have multiplicity one"
                )
        for marking in (self.initial_marking, self.final_marking):
            if len(marking) != len(self.places) or any(c < 0 for c in marking):
                raise ModelError("markings must be non-negative and cover all places")
        self.alphabet = frozenset(
            t.label for t in self.transitions if t.label is not None
        )
        # (transition index, preset bitmask, label) of every transition
        self._presets = tuple(
            (ti, sum(1 << p for p in places), trans.label)
            for ti, (trans, places) in enumerate(zip(self.transitions, self.inputs))
        )
        self._ids: dict[tuple, int] = {}
        self._markings: list[tuple] = []  # id -> marking
        # id -> memo entry, None until ``successors`` first answers for it
        self.successor_memo: list[Successors | None] = []
        self.initial_id = self._intern(self.initial_marking)
        self.final_id = self._intern(self.final_marking)
        # imported here because the aligner imports this module
        from .aligner import optimal_cost

        self.min_visible_length = optimal_cost((), self)[0]

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

    def _intern(self, marking) -> int:
        mid = self._ids.get(marking)
        if mid is None:
            mid = self._ids[marking] = len(self._markings)
            self._markings.append(marking)
            self.successor_memo.append(None)
        return mid

    def successors(self, mid: int) -> Successors:
        """The transitions enabled in the marking with id ``mid`` with the
        ids of their successor markings, memoised per model (see the class
        docstring).  A transition is enabled when its preset bitmask lies
        inside the mask of the marking's marked places."""
        succ = self.successor_memo[mid]
        if succ is None:
            marking = self._markings[mid]
            marked = 0
            for p, count in enumerate(marking):
                if count > 0:
                    marked |= 1 << p
            silent = []
            visible = []
            by_label: dict[str, list] = {}
            for ti, preset, label in self._presets:
                if preset & marked != preset:
                    continue
                step = (ti, self._intern(self.fire(marking, ti)))
                if label is None:
                    silent.append(step)
                else:
                    visible.append(step)
                    by_label.setdefault(label, []).append(step)
            succ = Successors(
                tuple(silent),
                tuple(visible),
                {label: tuple(steps) for label, steps in by_label.items()},
            )
            self.successor_memo[mid] = succ
        return succ

    def probe_fired(self, max_states: int = DEFAULT_PROBE_BOUND):
        """Breadth-first probe collecting transitions that fire at least once.

        Returns ``(fired_ids, complete)`` where ``complete`` is False when the
        probe stopped at ``max_states`` before exhausting the state space.
        """
        from collections import deque

        fired: set[str] = set()
        seen = {self.initial_id}
        queue = deque([self.initial_id])
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
    ``silent_label`` is silent.  An arc without an inscription has weight
    one; an arc whose inscription text is anything but ``1`` is rejected,
    as the net would fire it as a unit arc, and so is an arc whose ``type``
    (such as ``inhibitor`` or ``reset``) is anything but ``normal``, as the
    net would fire it as a normal arc.  An id naming both a place and a
    transition is rejected, as an arc to or from it would have no one
    reading.  The final marking is not part of the file and must be
    supplied as a place-id -> token-count mapping.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        root = ET.fromstring(data)
    except (ET.ParseError, LookupError, ValueError) as exc:
        # LookupError and ValueError: an encoding expat cannot read
        raise ModelError(f"malformed PNML: {exc}") from None

    def local(tag):
        return tag.rsplit("}", 1)[-1]

    def text(elem):
        """The stripped text of every ``text`` element within ``elem``."""
        texts = (t.text or "" for t in elem.iter() if local(t.tag) == "text")
        return "".join(texts).strip()

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
                    try:
                        tokens = int(text(child))
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
            aid = elem.get("id") or "?"
            for child in elem:
                part = local(child.tag)
                if part == "inscription" and text(child) != "1":
                    raise ModelError(
                        f"arc {aid!r} has inscription {text(child)!r}; "
                        "only unit arcs are supported"
                    )
                if part == "type" and (kind := child.get("value", text(child))) != "normal":
                    raise ModelError(
                        f"arc {aid!r} has type {kind!r}; only normal arcs are supported"
                    )
            arcs.append((aid, elem.get("source"), elem.get("target")))

    if not place_ids:
        raise ModelError("net has no places")
    if not transitions:
        raise ModelError("net has no transitions")
    tids = [t.tid for t in transitions]
    if len(set(tids)) != len(tids):
        raise ModelError("duplicate transition ids")
    place_index = {pid: i for i, pid in enumerate(place_ids)}
    trans_index = {tid: i for i, tid in enumerate(tids)}
    for pid in place_ids:
        if pid in trans_index:
            raise ModelError(f"id {pid!r} names both a place and a transition")

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
    raw = read_json(data, ModelError, "final marking JSON")
    if not isinstance(raw, dict):
        raise ModelError("final marking JSON must be an object")
    marking = {}
    for key, value in raw.items():
        if not is_int(value) or value < 0:
            raise ModelError(f"final marking for {key!r} must be a non-negative int")
        marking[str(key)] = value
    return marking

