"""Optimal alignments between a trace and a process model.

Moves follow the standard cost function: synchronous and silent model moves
are free, log moves and visible model moves cost one, and mismatched pairs
are never produced.  Under that cost function the optimal alignment cost
equals the insertion/deletion distance between the trace and the visible
model projection of the alignment, so for an explicit language the search
reduces to a minimum over the model traces while a Petri net needs a
least-cost search over the synchronous product.  The explicit scan goes in
canonical order: a trace of the language returns at once, and any other
stops at the first model trace at its certificate, max(1, structural
floor), the floor of the bracket's lower bound (``model.structural_floor``).
No model trace is nearer, so that one is the first closest, the
representative a full scan would pick.  The net search carries each
state as one int built from the marking's id (see ``PetriNetModel``) and the
trace position, and since every move costs 0 or 1 it expands one cost
level at a time (Dial, CACM 1969) in place of a heap, deepest-first: free
moves go onto the level's stack, and unit-cost moves wait for the next level
in one list per trace position, to be popped from the deepest one down.

A traced net search keeps each pushed state's predecessor and fired
transition index (None for a log move) and builds the moves from them on
the way back from the goal.  ``optimal_cost`` runs the same searches for the
cost and the work count alone, without the explicit move walk or the net
traceback, so a caller that reads only the cost pays for no alignment.
"""

from dataclasses import dataclass
from enum import Enum

from .distance import MatchMasks, edit_distance
from .errors import ModelError, StateBoundError
from .log import Trace, escape_label, format_trace
from .model import ExplicitLanguageModel, PetriNetModel, structural_floor


class MoveKind(Enum):
    SYNC = "sync"
    LOG = "log"
    MODEL = "model"
    SILENT = "silent"


@dataclass(frozen=True)
class Move:
    kind: MoveKind
    activity: str | None
    transition: str | None = None  # set by the net backend, for replay

    @property
    def cost(self) -> int:
        return 0 if self.kind in (MoveKind.SYNC, MoveKind.SILENT) else 1

    def token(self) -> str:
        """``kind:label``, or ``tau`` for a silent move; the label is
        escaped for a space-joined move sequence (:func:`log.escape_label`)."""
        if self.kind is MoveKind.SILENT:
            return "tau"
        return f"{self.kind.value}:{escape_label(self.activity, ' ')}"


@dataclass(frozen=True)
class Alignment:
    moves: tuple[Move, ...]

    @property
    def log_projection(self) -> Trace:
        return tuple(
            m.activity for m in self.moves if m.kind in (MoveKind.SYNC, MoveKind.LOG)
        )

    @property
    def model_projection(self) -> Trace:
        """Visible model side: synchronous and visible model moves, in order."""
        return tuple(
            m.activity for m in self.moves if m.kind in (MoveKind.SYNC, MoveKind.MODEL)
        )


def alignment_cost(alignment: Alignment) -> int:
    return sum(m.cost for m in alignment.moves)


@dataclass
class AlignmentResult:
    alignment: Alignment
    cost: int
    states_expanded: int


def optimal_alignment(trace, model) -> AlignmentResult:
    """Compute one optimal alignment of ``trace`` against ``model``.

    The result is deterministic: on a net, the first optimal alignment the
    search reaches.  A cost level expands its latest free arrival first (sync
    moves are pushed after silent ones, each in transition order), then its
    unit-cost arrivals by trace position, deepest first, latest first at a tie.
    """
    alignment, cost, states = _search(trace, model, traceback=True)
    return AlignmentResult(alignment=alignment, cost=cost, states_expanded=states)


def optimal_cost(trace, model) -> tuple[int, int]:
    """``(cost, states_expanded)`` of ``optimal_alignment(trace, model)``,
    from the same search in the same expansion order and under the same
    state bound, without building the alignment."""
    _, cost, states = _search(trace, model, traceback=False)
    return cost, states


def _search(trace, model, traceback):
    """``(alignment, cost, states_expanded)`` on either backend; the
    alignment is None unless ``traceback`` is set.  ``states_expanded``
    counts the states A* expanded on a net, and the model traces the trace
    was compared with on an explicit language (0 for a trace of it)."""
    trace = tuple(trace)
    if isinstance(model, ExplicitLanguageModel):
        masks, nearest, cost, compared = _nearest_model_trace(trace, model)
        alignment = None
        if traceback:
            alignment = Alignment(moves=tuple(_edit_moves(masks, nearest)))
        return alignment, cost, compared
    if isinstance(model, PetriNetModel):
        return _align_petri(trace, model, traceback)
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _nearest_model_trace(trace, model):
    """``(masks, nearest, distance, compared)``: the trace's ``MatchMasks``,
    the closest model trace with its distance, and the number of model
    traces the trace was compared with.  ``model.traces`` is canonically
    sorted, so a strict-less scan picks the canonical representative among
    the closest model traces.  A trace of the language is its own nearest.
    Any other is at least its certificate, max(1, structural floor), from
    every model trace, so the scan stops at the first model trace at it."""
    masks = MatchMasks(trace)
    if trace in model:
        return masks, trace, 0, 0
    certificate = max(1, structural_floor(trace, model))
    best_d = None
    best_t = None
    compared = 0
    for cand in model.traces:
        compared += 1
        d = edit_distance(masks, cand, cutoff=best_d)
        if best_d is None or d < best_d:
            best_d, best_t = d, cand
            if d == certificate:
                break
    return masks, best_t, best_d, compared


def _edit_moves(masks, model_trace):
    """Turn one longest-common-subsequence path into a move sequence.

    ``masks`` holds the log trace a.  Scanning the model trace b against it
    keeps the state v_j after each prefix b[:j] (see :mod:`.distance`), and

        L(i, j) = lcs(a[:i], b[:j]) = i - popcount(v_j & (2**i - 1)),

    so the walk back reads every L it needs from the states, with no
    (|a| + 1) x (|b| + 1) table.  At each step it takes a sync move if the
    labels match (matching labels always give L(i, j) = L(i - 1, j - 1) + 1),
    else a model move if L(i, j) = L(i, j - 1), else a log move.
    """
    log_trace = masks.trace
    states = [masks.full]
    masks.scan(model_trace, states)
    i, j = len(log_trace), len(model_trace)
    here = i - states[j].bit_count()
    moves = []
    while i > 0 or j > 0:
        if i > 0 and j > 0 and log_trace[i - 1] == model_trace[j - 1]:
            moves.append(Move(MoveKind.SYNC, log_trace[i - 1]))
            i -= 1
            j -= 1
            here -= 1
        elif j > 0 and here == i - (states[j - 1] & ((1 << i) - 1)).bit_count():
            moves.append(Move(MoveKind.MODEL, model_trace[j - 1]))
            j -= 1
        else:
            moves.append(Move(MoveKind.LOG, log_trace[i - 1]))
            i -= 1
            here = i - (states[j] & ((1 << i) - 1)).bit_count()
    moves.reverse()
    return moves


def _align_petri(trace, model, traceback):
    """``(alignment, cost, states_expanded)``; the alignment is None unless
    ``traceback`` is set, and only then are predecessors recorded."""
    n = len(trace)

    # a search state is the int mid * (n + 1) + pos for marking id mid
    stride = n + 1
    start = model.initial_id * stride
    goal = model.final_id * stride + n
    best = {start: 0}
    came_from = {}
    expanded = 0
    # a popped state reads the successor memo by index and calls
    # ``successors`` only on a miss; a memo entry is a non-empty tuple
    memo = model.successor_memo
    successors = model.successors
    state_bound = model.state_bound

    # Sync and silent moves add 0 to g, visible model and log moves add 1.
    # Level g is one stack; level g + 1 waits in ``later``, one list per
    # trace position, joined in ascending position so that the deepest pops
    # first.  Any order within a level keeps a popped g optimal; this one
    # reaches the goal before it drains the last level.  A state is only
    # ever pushed again with a smaller g: an entry dearer than best is stale.
    g = 0
    stack = [start]
    while stack:
        later = [[] for _ in range(stride)]
        g1 = g + 1
        while stack:
            state = stack.pop()
            if g > best[state]:
                continue
            if state == goal:
                if traceback:
                    return _rebuild(came_from, start, goal, trace, model), g, expanded
                return None, g, expanded
            expanded += 1
            if expanded > state_bound:
                raise StateBoundError(
                    f"state bound {state_bound} exceeded after expanding "
                    f"{expanded} states while aligning {format_trace(trace)}"
                )
            mid, pos = divmod(state, stride)
            silent, visible, by_label = memo[mid] or successors(mid)
            # four push loops over (transition index, marking id) pairs in
            # index order: silent then sync moves onto the stack, the log
            # move and visible model moves into their positions' lists
            for i, reached in silent:
                after = reached * stride + pos
                known = best.get(after)
                if known is None or g < known:
                    best[after] = g
                    if traceback:
                        came_from[after] = (state, i)
                    stack.append(after)
            if pos < n:
                at = pos + 1
                for i, reached in by_label.get(trace[pos], ()):
                    after = reached * stride + at
                    known = best.get(after)
                    if known is None or g < known:
                        best[after] = g
                        if traceback:
                            came_from[after] = (state, i)
                        stack.append(after)
                # the log move keeps the marking: its state is the next int
                after = state + 1
                known = best.get(after)
                if known is None or g1 < known:
                    best[after] = g1
                    if traceback:
                        came_from[after] = (state, None)
                    later[at].append(after)
            here = later[pos]
            for i, reached in visible:
                after = reached * stride + pos
                known = best.get(after)
                if known is None or g1 < known:
                    best[after] = g1
                    if traceback:
                        came_from[after] = (state, i)
                    here.append(after)
        g, stack = g1, [state for level in later for state in level]
    # a net whose empty trace aligns reaches the goal from every trace, so
    # only the empty-trace search of ``PetriNetModel.__init__`` gets here
    raise ModelError("final marking is unreachable from the initial marking")


def _rebuild(came_from, start, goal, trace, model):
    """The alignment that ``came_from`` traces from ``start`` to ``goal``."""
    stride = len(trace) + 1
    moves = []
    state = goal
    while state != start:
        before, ti = came_from[state]
        pos = before % stride
        if ti is None:
            moves.append(Move(MoveKind.LOG, trace[pos]))
        else:
            t = model.transitions[ti]
            if t.silent:
                kind = MoveKind.SILENT
            else:
                # a visible move that advanced the trace position is a sync move
                kind = MoveKind.SYNC if state % stride != pos else MoveKind.MODEL
            moves.append(Move(kind, t.label, t.tid))
        state = before
    moves.reverse()
    return Alignment(moves=tuple(moves))
