"""Host-speed calibration for the end-to-end times.

On a shared virtual machine the speed of a CPU drifts by a third or more
over minutes (other guests on the same cores, frequency changes).  The
commands' times move with it, all alike, so runs minutes apart disagree
although the program did the same work.  The benchmark therefore times a
fixed kernel in slices interleaved with the commands and scales each time
sample by how fast the host ran the kernel around it:

    reported = measured * REFERENCE_SLICE_S / median slice time around it

where the median is over the slices within LOCAL_WINDOW_S of the sample,
so that bursts of a few seconds are scaled out as well as the slow drift.
That is the time the sample would have taken on a host that runs one slice
in REFERENCE_SLICE_S, a round figure inside the 13-25 ms one slice took on
the 2-vCPU VM the benchmark was written on.  The kernel is pure Python and
does what the program's hot loops do (a dynamic-programming table over
tuples, best-first search with a heap and dicts), so it slows down with
the host the way the commands do.  It uses nothing of the program, so a
change to the program cannot move it.
"""

import bisect
import heapq
import statistics
import time

REFERENCE_SLICE_S = 0.02
LOCAL_WINDOW_S = 2.0
# fewer slices than this in the window: take this many nearest ones
MIN_SLICES = 5

_A = tuple("abcadefbghijaklbcd" * 2)
_B = tuple("bacdefhgaijlkbcdax" * 2)


def _lcs(a, b) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def _search(n: int) -> int:
    """Best-first search over 4-tuples of counters, like A* over markings."""
    start = (0,) * 4
    best = {start: 0}
    heap = [(0, start)]
    seen = set()
    while heap:
        cost, m = heapq.heappop(heap)
        if m in seen:
            continue
        seen.add(m)
        for i in range(4):
            if m[i] < n:
                nxt = m[:i] + (m[i] + 1,) + m[i + 1:]
                c = cost + 1 + (i == m[0] % 4)
                if c < best.get(nxt, 1 << 30):
                    best[nxt] = c
                    heapq.heappush(heap, (c, nxt))
    return len(seen)


def slice_s() -> float:
    """Wall time of one slice of the kernel; the result is checked, so a
    broken kernel cannot pass as a fast one."""
    started = time.perf_counter()
    for _ in range(4):
        if _lcs(_A, _B) != 25 or _search(5) != 1296:
            raise RuntimeError("calibration kernel gave a wrong result")
    return time.perf_counter() - started


class Scaler:
    """Scales time samples by the calibration slices around them."""

    def __init__(self, slices: list[tuple[float, float]]):
        if not slices:
            raise ValueError("no calibration slices to scale by")
        ordered = sorted(slices)
        self.times = [at for at, _ in ordered]
        self.seconds = [s for _, s in ordered]

    def __call__(self, seconds: float, at: float) -> float:
        lo = bisect.bisect_left(self.times, at - LOCAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, at + LOCAL_WINDOW_S)
        if hi - lo < MIN_SLICES:
            nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - at))
            window = [self.seconds[i] for i in nearest[:MIN_SLICES]]
        else:
            window = self.seconds[lo:hi]
        return seconds * REFERENCE_SLICE_S / statistics.median(window)
