"""Edit distance over traces allowing only insertions and deletions.

The distance between two traces is the minimal number of single-activity
insertions plus deletions turning one into the other, which equals
len(a) + len(b) - 2 * lcs(a, b).  It is a metric and its parity always
matches len(a) + len(b).

Every distance in the package comes from one bit-parallel LCS kernel
(Allison & Dix, IPL 1986; Crochemore et al., IPL 2001; Hyyrö, "Bit-parallel
LCS-length computation revisited", 2004).  :class:`MatchMasks` turns one
trace ``a`` into a dict holding, per activity, the bitmask of the positions
where it occurs.  Scanning the other trace with the update of
:meth:`MatchMasks.scan`, starting from ``v = full`` (one set bit per event
of ``a``), leaves exactly lcs(a, b) zero bits in ``v``.  More precisely,
after the first j events of ``b`` the state v_j has lcs(a[:i], b[:j]) zero
bits among its lowest i, for every i; the explicit aligner traces its moves
back on these states.  Python ints are unbounded, so traces of any length
fit and no word size is involved.  A caller whose trace meets many others
(the trace being aligned or bracketed) builds its masks once and passes
them to :func:`edit_distance` in place of the trace.

:class:`MatchMasks` also packs several traces into one int, one lane each,
so that one scan of ``b`` gives the distance from every packed trace to
``b`` (a column of the variant x member table).  A lane is the longest
trace's length plus at least one guard bit, rounded up to whole bytes;
trace ``a`` fills the low len(a) bits of its lane, and ``full`` and the
masks leave every bit above them zero.  No lane disturbs another:

- ``u`` is a subset of ``v``, so ``v - u`` never borrows.
- Within a lane, ``v + u`` is below 2 ** (len(a) + 1), so a carry out of
  the trace's top bit lands in that lane's guard bits, and ``& full``
  clears it before the next event.

Byte-aligned lanes let ``v.to_bytes(..., "little")`` and a 256-entry table
popcount the lanes without shifting.

With ``cutoff`` set, :func:`edit_distance` returns ``min(distance,
cutoff)``; it may skip the scan when the length difference alone reaches
the cutoff.

:func:`distance_matrix` packs every variant once and scans each variant
over the lanes from its own on, so each pair is scanned once and the lower
half is mirrored.  Rows go in blocks of about :data:`MATRIX_BLOCK_BYTES`
bytes of states, popcounted with the same table and summed per lane in
numpy.  numpy is imported inside :func:`distance_matrix`, its only user
here, so a command that builds no matrix never loads it.
"""

from operator import add

# bytes of row states in one block of the matrix (rows x columns x lane
# bytes); each temporary of a block stays near this size unless a single
# row is larger
MATRIX_BLOCK_BYTES = 1 << 16


# set bits of each byte value, to popcount packed lanes a byte at a time
_BYTE_BITS = bytes(bin(b).count("1") for b in range(256))


class MatchMasks:
    """Traces prepared for many distance queries, one lane each: activity ->
    bitmask of its positions in every lane.  ``MatchMasks(trace)`` is one
    lane starting at bit 0."""

    __slots__ = ("traces", "lane_bytes", "full", "masks")

    def __init__(self, *traces):
        self.traces = tuple(tuple(t) for t in traces)
        # at least one guard bit above the longest trace, in whole bytes
        self.lane_bytes = max(map(len, self.traces), default=0) // 8 + 1
        lane_bits = 8 * self.lane_bytes
        full = 0
        masks = {}
        for lane, trace in enumerate(self.traces):
            bit = 1 << (lane * lane_bits)
            full |= (bit << len(trace)) - bit
            for activity in trace:
                masks[activity] = masks.get(activity, 0) | bit
                bit <<= 1
        self.full = full
        self.masks = masks

    @property
    def trace(self):
        """The trace of a one-lane instance."""
        [trace] = self.traces
        return trace

    def lanes_from(self, first: int) -> "MatchMasks":
        """The lanes from ``first`` on as a pack of their own: ``full`` and
        every mask shifted down by ``first`` lanes, without packing again."""
        shift = 8 * self.lane_bytes * first
        lanes = MatchMasks.__new__(MatchMasks)
        lanes.traces = self.traces[first:]
        lanes.lane_bytes = self.lane_bytes
        lanes.full = self.full >> shift
        lanes.masks = {a: m >> shift for a, m in self.masks.items()}
        return lanes

    def scan(self, other, trail: list | None = None) -> int:
        """The state after scanning ``other`` from ``full`` with
        ``u = v & mask[c];  v = ((v + u) | (v - u)) & full`` per event c;
        ``trail``, if given, gets the state after each event of ``other``."""
        full = self.full
        mask = self.masks.get
        v = full
        for activity in other:
            m = mask(activity)
            if m:
                u = v & m
                v = ((v + u) | (v - u)) & full
            if trail is not None:
                trail.append(v)
        return v

    def distances(self, other) -> list[int]:
        """The distance from every packed trace to ``other``, in lane order,
        from one scan of ``other``."""
        width = self.lane_bytes
        v = self.scan(other)
        counts = v.to_bytes(width * len(self.traces), "little").translate(_BYTE_BITS)
        # lane sums of the byte counts: byte k of every lane is counts[k::width]
        unmatched = counts[::width]
        for k in range(1, width):
            unmatched = map(add, unmatched, counts[k::width])
        # a lane's unmatched events z give lcs = len(a) - z, so the
        # distance len(a) + len(b) - 2 * lcs is len(b) - len(a) + 2 * z
        lb = len(other)
        return [lb - len(a) + 2 * z for a, z in zip(self.traces, unmatched)]


def edit_distance(a, b, cutoff: int | None = None) -> int:
    """Insertion/deletion distance between traces ``a`` and ``b``.

    ``a`` may be given as its :class:`MatchMasks` to reuse them across
    calls.  With ``cutoff`` set the result is ``min(distance, cutoff)``.
    """
    masks = a if isinstance(a, MatchMasks) else MatchMasks(a)
    la, lb = len(masks.trace), len(b)
    if cutoff is not None and abs(la - lb) >= cutoff:
        return cutoff
    d = lb - la + 2 * masks.scan(b).bit_count()
    return d if cutoff is None or d < cutoff else cutoff


def distance_matrix(variants):
    """Pairwise distances over ``variants`` in their order as a symmetric
    int32 array, one packed scan per variant (see the module docstring).
    int32 takes half the memory of int64 (1.7 MB at 650 variants); a
    distance is at most the sum of two trace lengths."""
    import numpy as np

    pack = MatchMasks(*variants)
    traces = pack.traces
    n, width = len(traces), pack.lane_bytes
    lengths = np.array([len(t) for t in traces], dtype=np.int64)
    cells = np.zeros((n, n), dtype=np.int32)
    r0 = 0
    while r0 < n:
        # rows r0..r1 against every column j >= r0; the lower half is mirrored
        lanes = pack.lanes_from(r0)
        row_bytes = width * (n - r0)
        r1 = min(n, r0 + max(1, MATRIX_BLOCK_BYTES // row_bytes))
        states = b"".join(
            lanes.scan(t).to_bytes(row_bytes, "little") for t in traces[r0:r1]
        )
        counts = np.frombuffer(states.translate(_BYTE_BITS), dtype=np.uint8)
        unmatched = counts.reshape(r1 - r0, n - r0, width).sum(axis=2, dtype=np.int64)
        # as in MatchMasks.distances: len(row) - len(column) + 2 * unmatched
        cells[r0:r1, r0:] = lengths[r0:r1, None] - lengths[None, r0:] + 2 * unmatched
        r0 = r1
    cells = np.triu(cells, 1)
    cells += cells.T
    return cells
