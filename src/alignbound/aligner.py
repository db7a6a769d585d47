"""Optimal alignments between a trace and a process model.

Moves follow the standard cost function: synchronous and silent model moves
are free, log moves and visible model moves cost one, and mismatched pairs
are never produced.  Under that cost function the optimal alignment cost
equals the insertion/deletion distance between the trace and the visible
model projection of the alignment, so for an explicit language the search
reduces to a minimum over the model traces while a Petri net needs a
least-cost search over the synchronous product.  That search carries each
state as one int built from the marking's id (see ``PetriNetModel``) and the
trace position, and since every move costs 0 or 1 it keeps its frontier in
two FIFO buckets, for the current f and for f + 1 (Dial, CACM 1969), in
place of a heap.
"""

from dataclasses import dataclass
from enum import Enum

from .distance import MatchMasks, edit_distance
from .errors import StateBoundError
from .log import Trace, format_trace
from .model import ExplicitLanguageModel, PetriNetModel


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
        if self.kind is MoveKind.SILENT:
            return "tau"
        return f"{self.kind.value}:{self.activity}"


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


def optimal_alignment(trace, model, heuristic: bool = False) -> AlignmentResult:
    """Compute one optimal alignment of ``trace`` against ``model``.

    The result is deterministic: at equal cost the search prefers
    synchronous moves, then silent moves, then visible model moves, then log
    moves, with stable transition order as the final tie-break.
    ``heuristic`` switches on an admissible lower bound (the count of
    remaining trace activities outside the model alphabet) for the net
    backend; it never changes the returned cost.
    """
    trace = tuple(trace)
    if isinstance(model, ExplicitLanguageModel):
        alignment, cost, states = _align_explicit(trace, model)
    elif isinstance(model, PetriNetModel):
        alignment, cost, states = _align_petri(trace, model, heuristic)
    else:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return AlignmentResult(alignment=alignment, cost=cost, states_expanded=states)


def _align_explicit(trace, model):
    # model.traces is canonically sorted, so a strict-less scan picks the
    # canonical representative among the closest model traces
    masks = MatchMasks(trace)
    best_d = None
    best_t = None
    for cand in model.traces:
        d = edit_distance(masks, cand, cutoff=best_d)
        if best_d is None or d < best_d:
            best_d, best_t = d, cand
    moves = _edit_moves(masks, best_t)
    return Alignment(moves=tuple(moves)), best_d, len(model.traces)


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


def _align_petri(trace, model, heuristic):
    n = len(trace)
    # suffix count of activities the net can never mirror; admissible since
    # each one forces a log move
    remaining_outside = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        remaining_outside[i] = remaining_outside[i + 1] + (
            0 if trace[i] in model.alphabet else 1
        )
    h = remaining_outside if heuristic else [0] * (n + 1)
    sync_moves = [Move(MoveKind.SYNC, t.label, t.tid) for t in model.transitions]
    silent_moves = [Move(MoveKind.SILENT, None, t.tid) for t in model.transitions]
    model_moves = [Move(MoveKind.MODEL, t.label, t.tid) for t in model.transitions]
    log_moves = [Move(MoveKind.LOG, a) for a in trace]

    # a search state is the int mid * (n + 1) + pos for marking id mid
    stride = n + 1
    start = model.initial_id * stride
    goal = model.final_id * stride + n
    best = {start: 0}
    came_from = {}
    expanded = 0
    successors = model.successors

    # Every move costs 0 or 1, and f = g + h grows by exactly 0 or 1 per
    # push: sync and silent moves add 0, visible model moves add 1, and a
    # log move adds 0 on an activity outside the alphabet (h drops by one
    # as g rises by one) and 1 on one inside it (h = 0 throughout when the
    # heuristic is off).  So two FIFO buckets, ``bucket`` for the current f
    # (scanned while it grows) and ``later`` for f + 1, pop states in
    # exactly the order of a heap keyed by (f, push order).  An entry's g
    # is f - h[pos].  h is consistent, so a popped state's g is optimal and
    # a state is only ever pushed again with a smaller g: an entry dearer
    # than best is stale.
    f = h[0]
    bucket = [start]
    later: list[int] = []
    while bucket:
        for state in bucket:
            mid, pos = divmod(state, stride)
            g = f - h[pos]
            if g > best[state]:
                continue
            if state == goal:
                return _rebuild(came_from, start, state), g, expanded
            expanded += 1
            if expanded > model.state_bound:
                raise StateBoundError(
                    f"state bound {model.state_bound} exceeded after expanding "
                    f"{expanded} states while aligning {format_trace(trace)}"
                )
            succ = successors(mid)
            # push order encodes the preference among equally cheap moves:
            # sync, then silent, then visible model moves, then the log move.
            # Each group pairs (index into its moves, marking id) for a position;
            # a log move's index is the trace position it consumes.
            if pos < n:
                groups = (
                    (pos + 1, g, succ.by_label.get(trace[pos], ()), sync_moves),
                    (pos, g, succ.silent, silent_moves),
                    (pos, g + 1, succ.visible, model_moves),
                    (pos + 1, g + 1, ((pos, mid),), log_moves),
                )
            else:
                groups = (
                    (pos, g, succ.silent, silent_moves),
                    (pos, g + 1, succ.visible, model_moves),
                )
            for at, cost, steps, moves in groups:
                queue = bucket if cost + h[at] == f else later
                for i, reached in steps:
                    after = reached * stride + at
                    known = best.get(after)
                    if known is None or cost < known:
                        best[after] = cost
                        came_from[after] = (state, moves[i])
                        queue.append(after)
        bucket, later = later, []
        f += 1
    raise StateBoundError(
        f"alignment search for {format_trace(trace)} exhausted without "
        "reaching the final marking"
    )


def _rebuild(came_from, start, goal):
    moves = []
    state = goal
    while state != start:
        state, move = came_from[state]
        moves.append(move)
    moves.reverse()
    return Alignment(moves=tuple(moves))
