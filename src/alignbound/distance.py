"""Edit distance over traces allowing only insertions and deletions.

The distance between two traces is the minimal number of single-activity
insertions plus deletions turning one into the other, which equals
len(a) + len(b) - 2 * lcs(a, b).  It is a metric and its parity always
matches len(a) + len(b).

Every distance in the package comes from one bit-parallel LCS kernel
(Allison & Dix, IPL 1986; Crochemore et al., IPL 2001; Hyyrö, "Bit-parallel
LCS-length computation revisited", 2004).  :class:`MatchMasks` turns one
trace ``a`` into a dict holding, per activity, the bitmask of the positions
where it occurs.  Scanning the other trace with

    u = v & mask[c];  v = ((v + u) | (v - u)) & full

starting from ``v = full`` (one set bit per event of ``a``) leaves exactly
lcs(a, b) zero bits in ``v``.  Python ints are unbounded, so traces of any
length fit and no word size is involved.  A caller whose trace meets many
others (a matrix row, the trace being aligned or bracketed) builds its
masks once and passes them to :func:`edit_distance` in place of the trace.

With ``cutoff`` set, :func:`edit_distance` returns ``min(distance,
cutoff)``; it may skip the scan when the length difference alone reaches
the cutoff.

numpy is imported inside :func:`distance_matrix`, its only user here, so a
command that builds no matrix never loads it.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .log import Trace, trace_sort_key

if TYPE_CHECKING:
    import numpy as np


class MatchMasks:
    """One trace prepared for many distance queries: activity -> bitmask of
    its positions in the trace."""

    __slots__ = ("trace", "full", "masks")

    def __init__(self, trace):
        self.trace = tuple(trace)
        self.full = (1 << len(self.trace)) - 1
        masks = {}
        bit = 1
        for activity in self.trace:
            masks[activity] = masks.get(activity, 0) | bit
            bit <<= 1
        self.masks = masks

    def lcs(self, other) -> int:
        """Length of a longest common subsequence with ``other``."""
        full = self.full
        mask = self.masks.get
        v = full
        for activity in other:
            m = mask(activity)
            if m:
                u = v & m
                v = ((v + u) | (v - u)) & full
        return len(self.trace) - v.bit_count()


def edit_distance(a, b, cutoff: int | None = None) -> int:
    """Insertion/deletion distance between traces ``a`` and ``b``.

    ``a`` may be given as its :class:`MatchMasks` to reuse them across
    calls.  With ``cutoff`` set the result is ``min(distance, cutoff)``.
    """
    masks = a if isinstance(a, MatchMasks) else MatchMasks(a)
    la, lb = len(masks.trace), len(b)
    if cutoff is not None and abs(la - lb) >= cutoff:
        return cutoff
    d = la + lb - 2 * masks.lcs(b)
    return d if cutoff is None or d < cutoff else cutoff


def distance_to_set(trace, traces) -> tuple[int, Trace]:
    """Minimal distance from ``trace`` to a non-empty collection of traces.

    Returns ``(distance, nearest)`` where ties on the distance are broken by
    the first trace in canonical order (length, then lexicographic), so the
    result does not depend on iteration order of ``traces``.
    """
    masks = MatchMasks(trace)
    best_d = None
    best_t = None
    for cand in traces:
        cand = tuple(cand)
        d = edit_distance(masks, cand)
        if (
            best_d is None
            or d < best_d
            or (d == best_d and trace_sort_key(cand) < trace_sort_key(best_t))
        ):
            best_d, best_t = d, cand
    if best_d is None:
        raise ValueError("distance_to_set needs a non-empty collection of traces")
    return best_d, best_t


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise distance matrix over a fixed variant order."""

    labels: tuple[Trace, ...]
    cells: "np.ndarray"

    def to_csv(self) -> str:
        """Debug dump: header row of traces, then one row per trace."""
        def fmt(t):
            return " ".join(t) if t else "-"

        lines = ["trace," + ",".join(fmt(t) for t in self.labels)]
        for i, t in enumerate(self.labels):
            lines.append(fmt(t) + "," + ",".join(str(int(x)) for x in self.cells[i]))
        return "\n".join(lines) + "\n"


def distance_matrix(variants) -> DistanceMatrix:
    """Pairwise distances over ``variants`` (each pair computed once)."""
    import numpy as np

    labels = tuple(tuple(v) for v in variants)
    n = len(labels)
    cells = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        masks = MatchMasks(labels[i])
        row = [edit_distance(masks, labels[j]) for j in range(i + 1, n)]
        cells[i, i + 1 :] = row
        cells[i + 1 :, i] = row
    return DistanceMatrix(labels=labels, cells=cells)
