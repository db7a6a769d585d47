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
lcs(a, b) zero bits in ``v``.  Python ints are unbounded, so in this scalar
form traces of any length fit and no word size is involved.  A caller whose trace meets many
others (a matrix row, the trace being aligned or bracketed) builds its
masks once and passes them to :func:`edit_distance` in place of the trace.

With ``cutoff`` set, :func:`edit_distance` returns ``min(distance,
cutoff)``; it may skip the scan when the length difference alone reaches
the cutoff.

:func:`distance_matrix` runs the same recurrence for every pair at once in
numpy.  Activities become small ints (0 is "no activity", the padding of
shorter traces), and each trace's masks are cut into 62-bit words of an
int64 table.  Because ``u = v & m`` is a subset of ``v``, ``v - u`` equals
``v ^ u`` (that is, ``v & ~m``) and never borrows; only the addition
carries, and its carry passes from each word into the next:

    u = v & m;  s = v + u + carry;  v = (s | (v ^ u)) & full

A padding event (code 0) matches only positions past the end of the row's
trace, where ``v`` has no bit set, so ``u = 0`` and ``v`` stays unchanged.
Rows go in blocks of at most :data:`MATRIX_BLOCK_CELLS` state words (one
row if a row alone has more), so the temporaries stay small at any number
of variants.  The scalar kernel still serves the one-against-many queries.

numpy is imported inside :func:`distance_matrix`, its only user here, so a
command that builds no matrix never loads it.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .log import Trace

if TYPE_CHECKING:
    import numpy as np

# bits per int64 word of the all-pairs kernel: a word plus an addend of at
# most the same size plus a carry stays below 2**63
WORD_BITS = 62
# state words of one row block (rows x columns x words); each temporary of
# the kernel holds at most this many int64 cells, 512 KiB, unless a single
# row is larger
MATRIX_BLOCK_CELLS = 1 << 16


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


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise distance matrix over a fixed variant order.

    ``cells`` is int32, half the memory of int64 (1.7 MB at 650 variants);
    a distance is at most the sum of two trace lengths.
    """

    labels: tuple[Trace, ...]
    cells: "np.ndarray"

    def to_csv(self) -> str:
        """Debug dump: header row of traces, then one row per trace."""
        def fmt(t):
            return " ".join(t) if t else "-"

        lines = ["trace," + ",".join(fmt(t) for t in self.labels)]
        for t, row in zip(self.labels, self.cells.tolist()):
            lines.append(fmt(t) + "," + ",".join(map(str, row)))
        return "\n".join(lines) + "\n"


def distance_matrix(variants) -> DistanceMatrix:
    """Pairwise distances over ``variants``, all pairs in one vectorised
    pass of the bit-parallel recurrence (see the module docstring)."""
    import numpy as np

    labels = tuple(tuple(v) for v in variants)
    n = len(labels)
    lengths = np.array([len(t) for t in labels], dtype=np.int64)
    longest = int(lengths.max()) if n else 0
    words = max(1, -(-longest // WORD_BITS))
    codes: dict = {}
    seq = np.zeros((n, longest), dtype=np.intp)
    for i, t in enumerate(labels):
        seq[i, : len(t)] = [codes.setdefault(a, len(codes) + 1) for a in t]
    # mask[w, i, c]: positions 62w..62w+61 of trace i holding activity c;
    # the padding code 0 only gets positions past the end of trace i
    mask = np.zeros((words, n, len(codes) + 1), dtype=np.int64)
    rows = np.arange(n)
    for p in range(longest):
        mask[p // WORD_BITS, rows, seq[:, p]] |= 1 << (p % WORD_BITS)
    bits = np.clip(lengths - WORD_BITS * np.arange(words)[:, None], 0, WORD_BITS)
    full = (np.left_shift(1, bits) - 1)[:, :, None]

    cells = np.zeros((n, n), dtype=np.int32)
    block = max(1, MATRIX_BLOCK_CELLS // (words * max(n, 1)))
    for r0 in range(0, n, block):
        r1 = min(n, r0 + block)
        # row i against every column j >= r0; the lower half is mirrored
        row_mask = mask[:, r0:r1]
        row_full = full[:, r0:r1]
        v = np.broadcast_to(row_full, (words, r1 - r0, n - r0)).copy()
        m = np.empty_like(v)
        u = np.empty_like(v)
        s = np.empty_like(v)
        for t in range(int(lengths[r0:].max())):
            np.take(row_mask, seq[r0:, t], axis=2, out=m)
            np.bitwise_and(v, m, out=u)
            np.add(v, u, out=s)
            for w in range(1, words):
                s[w] += s[w - 1] >> WORD_BITS
            np.bitwise_xor(v, u, out=u)
            np.bitwise_or(s, u, out=s)
            np.bitwise_and(s, row_full, out=v)
        unmatched = _popcount(v).sum(axis=0)
        lcs = lengths[r0:r1, None] - unmatched
        cells[r0:r1, r0:] = lengths[r0:r1, None] + lengths[None, r0:] - 2 * lcs
    cells = np.triu(cells, 1)
    cells += cells.T
    return DistanceMatrix(labels=labels, cells=cells)


def _popcount(words: "np.ndarray") -> "np.ndarray":
    """Set bits per non-negative int64 cell (SWAR; ``np.bitwise_count``
    needs numpy 2)."""
    import numpy as np

    x = words.view(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)
