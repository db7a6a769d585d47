"""Proxy-set construction over the variants of an event log.

A proxy set is a small set of reference traces standing in for the whole
log during alignment approximation.  Its a-priori maximal absolute error on
any model is the multiplicity-weighted sum of each variant's distance to
its nearest proxy member, so the strategies below all try to keep that sum
small: plain random sampling, frequency-based selection, a PAM style
K-Medoids, and a greedy K-Center.  Only K-Medoids uses numpy, which its
functions import themselves, so the other strategies never load it.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

# edit_distance stays importable: perfbench/tracer.py wraps it here to count LCS calls
from .distance import MatchMasks, distance_matrix, edit_distance  # noqa: F401
from .errors import ProxyError
from .log import EventLog, Trace, canonical_traces, csv_text, join_trace

STRATEGIES = ("random", "frequency", "kmedoids", "kcenter")
# the strategies whose proxy set depends on ``StrategyParams.seed``
SEEDED_STRATEGIES = ("random",)


@dataclass(frozen=True)
class ProxySet:
    """Reference traces in canonical order.  A proxy set depends on the log
    alone, so one set serves any model; each model's reference costs belong
    to the run that aligns the members (:func:`bounds.compute_ref_costs`)."""

    members: tuple[Trace, ...]
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "members", canonical_traces(self.members))
        if not self.members:
            raise ProxyError("proxy set must contain at least one trace")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, trace) -> bool:
        return tuple(trace) in self.members


@dataclass(frozen=True)
class StrategyParams:
    """Which strategy to run and how large the proxy set should be.

    ``size_percent`` is relative to the number of distinct variants; the
    member count is round-half-up with a floor of one.
    """

    strategy: str
    size_percent: Fraction
    seed: int = 0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ProxyError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        percent = _as_fraction(self.size_percent)
        object.__setattr__(self, "size_percent", percent)
        if not 0 < percent <= 100:
            raise ProxyError(f"size percent must be in (0, 100], got {percent}")

    def k_for(self, n_variants: int) -> int:
        if n_variants < 1:
            raise ProxyError("cannot size a proxy set for an empty log")
        k = int(self.size_percent * n_variants / 100 + Fraction(1, 2))
        return max(1, k)


def _as_fraction(value) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    return Fraction(str(value))


def _check_k(k: int, n: int) -> None:
    if not 1 <= k <= n:
        raise ProxyError(f"k must be between 1 and {n}, got {k}")


def sample_random(log: EventLog, k: int, seed: int) -> ProxySet:
    """Uniform sample of ``k`` distinct variants, deterministic per seed."""
    variants = log.variant_traces
    _check_k(k, len(variants))
    rng = random.Random(seed)
    chosen = rng.sample(variants, k)
    return ProxySet(members=tuple(chosen), provenance=f"random(k={k}, seed={seed})")


def sample_frequency(log: EventLog, k: int) -> ProxySet:
    """The ``k`` most frequent variants; ties prefer shorter, then
    lexicographically smaller traces."""
    # a stable sort of the canonically ordered variants
    variants = sorted(log.variants, key=lambda t: -log.variants[t])
    _check_k(k, len(variants))
    return ProxySet(members=tuple(variants[:k]), provenance=f"frequency(k={k})")


class DistanceTable:
    """The variant x member distance table of one run: every distance from
    a variant to a proxy member (bracket, epsilon, k-center step, brute
    force) is read from one table over ``variants``."""

    def __init__(self, variants):
        self.variants = tuple(variants)
        self._index = {t: j for j, t in enumerate(self.variants)}
        self._matrix = self._pack = None
        self._columns = {}

    def matrix(self):
        """The all-pairs distances over the variants in their order, an
        int32 array built on the first call."""
        if self._matrix is None:
            self._matrix = distance_matrix(self.variants)
        return self._matrix

    def matrix_csv(self) -> str:
        """Debug dump of :meth:`matrix`: a header row of the variants, then
        one row per variant, each trace spelled by :func:`log.join_trace`
        as in every other CSV."""
        labels = list(map(join_trace, self.variants))
        rows = zip(labels, self.matrix().tolist())
        return csv_text([["trace", *labels], *([label, *row] for label, row in rows)])

    def columns(self, members) -> list[list[int]]:
        """Each member's distances to the variants, computed once per table:
        a matrix slice once the matrix exists, else one scan of the member
        over the variants packed into one :class:`MatchMasks`, one lane
        each.  Columns are shared lists, which callers must not mutate."""
        out = []
        for member in members:
            if member not in self._columns:
                if self._matrix is not None and member in self._index:
                    column = self._matrix[:, self._index[member]].tolist()
                else:
                    self._pack = self._pack or MatchMasks(*self.variants)
                    column = self._pack.distances(member)
                self._columns[member] = column
            out.append(self._columns[member])
        return out


def _log_table(log: EventLog, table: DistanceTable | None) -> DistanceTable:
    """``table`` checked against the variants of ``log``, or a new one."""
    if table is None:
        return DistanceTable(log.variant_traces)
    if table.variants != log.variant_traces:
        raise ValueError("distance table variants do not match the log variants")
    return table


def _pam_build(cells, weights, k):
    import numpy as np

    # greedy init: start from the weighted 1-medoid, then add whichever
    # candidate removes the most weighted distance.  Candidate j's gain is
    # sum_i w_i * max(nearest_i - cells[i, j], 0): one n x n int64 buffer
    # holds the clipped differences and one product sums them.  The product
    # takes int64 operands, as a mixed one would copy the whole int32
    # matrix to int64 first.
    n = len(weights)
    buf = np.empty((n, n), dtype=np.int64)
    np.copyto(buf, cells)
    chosen = [int(np.argmin(weights @ buf))]
    nearest = cells[:, chosen[0]].astype(np.int64)
    while len(chosen) < k:
        np.subtract(nearest[:, None], cells, out=buf)
        np.maximum(buf, 0, out=buf)
        gains = weights @ buf
        gains[chosen] = -1
        nxt = int(np.argmax(gains))
        chosen.append(nxt)
        np.minimum(nearest, cells[:, nxt], out=nearest)
    return sorted(chosen)


def _pam_swap(cells, weights, medoids):
    # Swap until no swap lowers the objective, taking each round the swap
    # with the smallest (most negative) delta; ties go to the first medoid,
    # then the first candidate, which is the first minimum of the
    # medoid-major delta table below.
    #
    # FastPAM1 (Schubert & Rousseeuw, SISAP 2019) evaluates all k x (n-k)
    # swaps at once.  With nearest(o), second(o) the two smallest distances
    # from point o to the medoids and d_h(o) its distance to candidate h,
    # swapping medoid m for h changes the cost of o by
    #
    #   min(d_h, second) - nearest   if o is assigned to m, else
    #   min(d_h - nearest, 0).
    #
    # So delta(m, h) = shared(h) + correction(m, h), where shared(h) sums
    # min(d_h - nearest, 0) * w over all points and correction(m, h) sums
    # (min(d_h, second) - nearest) * w - min(d_h - nearest, 0) * w over the
    # points assigned to m.  Which of two equally near medoids a point is
    # assigned to does not matter: then second == nearest and both formulas
    # agree.  All terms are int64, so the deltas are exact.
    import numpy as np

    n = len(weights)
    medoids = sorted(medoids)
    k = len(medoids)
    while k < n:
        med = np.array(medoids)
        sub = cells[:, med]
        if k == 1:
            nearest = sub[:, 0]
            second = np.full(n, np.iinfo(np.int64).max // 4)
        else:
            two = np.partition(sub, 1, axis=1)
            nearest, second = two[:, 0], two[:, 1]
        assigned = np.argmin(sub, axis=1)
        # a medoid sits at distance zero from itself, so every medoid gets
        # at least its own point and no group below is empty
        assigned[med] = np.arange(k)
        in_med = np.zeros(n, dtype=bool)
        in_med[med] = True
        candidates = np.flatnonzero(~in_med)
        dh = cells[:, candidates]
        w = weights[:, None]
        gain = np.minimum(dh - nearest[:, None], 0) * w
        correction = (np.minimum(dh, second[:, None]) - nearest[:, None]) * w - gain
        order = np.argsort(assigned, kind="stable")
        starts = np.searchsorted(assigned[order], np.arange(k))
        delta = gain.sum(axis=0) + np.add.reduceat(correction[order], starts, axis=0)
        best = int(np.argmin(delta))
        if delta.flat[best] >= 0:
            return medoids
        mi, hi = divmod(best, len(candidates))
        medoids[mi] = int(candidates[hi])
        medoids.sort()
    return medoids


def cluster_kmedoids(
    log: EventLog, k: int, table: DistanceTable | None = None
) -> ProxySet:
    """Frequency-weighted K-Medoids over the variants.

    Greedy BUILD, then swap until no swap lowers the objective.  Both
    phases are deterministic.
    """
    table = _log_table(log, table)
    variants = table.variants
    _check_k(k, len(variants))
    if k == len(variants):
        return ProxySet(members=variants, provenance=f"kmedoids(k={k})")
    import numpy as np

    cells = table.matrix()
    weights = np.fromiter(log.variants.values(), dtype=np.int64, count=len(variants))
    medoids = _pam_swap(cells, weights, _pam_build(cells, weights, k))
    members = tuple(variants[i] for i in medoids)
    return ProxySet(members=members, provenance=f"kmedoids(k={k})")


def cluster_kcenter(
    log: EventLog, k: int, table: DistanceTable | None = None
) -> ProxySet:
    """Greedy farthest-first K-Center over the variants.

    The first center is the most frequent variant (frequency tie-break);
    afterwards frequencies are ignored and each step takes the variant
    farthest from the chosen centers, ties broken canonically.  The greedy
    covering radius is at most twice the optimal one.
    """
    table = _log_table(log, table)
    variants = table.variants
    n = len(variants)
    _check_k(k, n)
    weights = list(log.variants.values())
    # variants are canonically sorted, so the first maximum is also the
    # canonical tie-break
    first = weights.index(max(weights))
    centers = [first]
    [min_dist] = table.columns([variants[first]])
    while len(centers) < k:
        far = min_dist.index(max(min_dist))
        centers.append(far)
        [column] = table.columns([variants[far]])
        min_dist = list(map(min, min_dist, column))
    members = tuple(variants[i] for i in centers)
    return ProxySet(members=members, provenance=f"kcenter(k={k})")


@dataclass(frozen=True)
class EpsilonResult:
    value: int
    per_variant: dict[Trace, int]


def epsilon_max_error(
    log: EventLog, proxy: ProxySet, table: DistanceTable | None = None
) -> EpsilonResult:
    """A-priori maximal absolute error of ``proxy`` on ``log``: the
    multiplicity-weighted sum of nearest-member distances, read from
    ``table``.  Zero exactly when the members cover every variant."""
    table = _log_table(log, table)
    rows = zip(*table.columns(proxy.members))
    per_variant = {t: min(row) for t, row in zip(table.variants, rows)}
    total = sum(log.variants[t] * d for t, d in per_variant.items())
    return EpsilonResult(value=total, per_variant=per_variant)


def brute_force_k_primal(log: EventLog, k: int, candidate_universe) -> ProxySet:
    """Exhaustive best size-``k`` proxy set within ``candidate_universe``
    (at most 15 candidates); ties resolve to the canonically smallest
    member tuple."""
    universe = canonical_traces(candidate_universe)
    if len(universe) > 15:
        raise ProxyError(
            f"candidate universe of {len(universe)} is too large for brute force (max 15)"
        )
    _check_k(k, len(universe))
    weights = log.variants.values()
    columns = DistanceTable(log.variant_traces).columns(universe)
    best = None
    for combo in itertools.combinations(range(len(universe)), k):
        rows = zip(*(columns[j] for j in combo))
        eps = sum(w * min(row) for w, row in zip(weights, rows))
        if best is None or eps < best[0]:
            best = (eps, combo)
    members = tuple(universe[j] for j in best[1])
    return ProxySet(members=members, provenance=f"brute-force-k-primal(k={k})")


def generate_proxy(
    log: EventLog, params: StrategyParams, table: DistanceTable | None = None
) -> ProxySet:
    """Dispatch to the configured strategy with the derived member count."""
    table = _log_table(log, table)
    k = params.k_for(len(log.variants))
    if params.strategy == "random":
        return sample_random(log, k, params.seed)
    if params.strategy == "frequency":
        return sample_frequency(log, k)
    if params.strategy == "kmedoids":
        return cluster_kmedoids(log, k, table)
    return cluster_kcenter(log, k, table)
