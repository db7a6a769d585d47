import csv
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignbound import distance
from alignbound.distance import MatchMasks, distance_matrix, edit_distance
from alignbound.proxy import DistanceTable

from conftest import distance_matrix_rows, naive_edit_distance, random_trace


def test_known_values():
    assert edit_distance(("w", "x", "y"), ("x", "y", "z")) == 2
    assert edit_distance(("a", "c", "c", "b", "d", "e"), ("a", "c", "b", "d", "e")) == 1
    assert edit_distance((), ()) == 0
    assert edit_distance(("a",), ()) == 1
    assert edit_distance((), ("a", "b")) == 2
    assert edit_distance(("a", "b"), ("a", "b")) == 0
    # disjoint alphabets degrade to delete-all plus insert-all
    assert edit_distance(("a", "b"), ("x", "y", "z")) == 5


def test_matches_naive_oracle_on_short_traces():
    rng = random.Random(7)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(400):
        a = random_trace(rng, alphabet, 0, 8)
        b = random_trace(rng, alphabet, 0, 8)
        assert edit_distance(a, b) == naive_edit_distance(a, b)


def test_metric_properties():
    rng = random.Random(11)
    alphabet = ["a", "b", "c"]
    traces = [random_trace(rng, alphabet, 0, 7) for _ in range(30)]
    for a in traces:
        assert edit_distance(a, a) == 0
    for a, b in zip(traces, traces[1:]):
        d = edit_distance(a, b)
        assert d == edit_distance(b, a)
        assert (d == 0) == (a == b)
        # parity always matches the total length
        assert (d - len(a) - len(b)) % 2 == 0


def test_triangle_inequality_random_triples():
    rng = random.Random(13)
    alphabet = ["a", "b", "c", "d"]
    for _ in range(200):
        a, b, c = (random_trace(rng, alphabet, 0, 6) for _ in range(3))
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


def test_cutoff_early_exit():
    a = ("a",) * 10
    b = ("b",) * 10
    assert edit_distance(a, b) == 20
    assert edit_distance(a, b, cutoff=5) == 5
    # cutoff above the true distance must not disturb the result
    assert edit_distance(a, b, cutoff=21) == 20
    assert edit_distance(("a", "b"), ("a", "x", "b"), cutoff=1) == 1


def test_distance_matrix_triangle_on_all_ordered_triples():
    rng = random.Random(17)
    alphabet = ["a", "b", "c"]
    variants = []
    while len(variants) < 5:
        t = random_trace(rng, alphabet, 1, 6)
        if t not in variants:
            variants.append(t)
    cells = distance_matrix(variants)
    assert (cells == cells.T).all()
    assert all(cells[i, i] == 0 for i in range(5))
    triples = [
        (i, j, k)
        for i in range(5)
        for j in range(5)
        for k in range(5)
        if len({i, j, k}) == 3
    ]
    assert len(triples) == 60
    for i, j, k in triples:
        assert cells[i, k] <= cells[i, j] + cells[j, k]


def test_distance_matrix_csv_dump():
    dump = DistanceTable([("a",), ("a", "b")]).matrix_csv()
    assert dump == "trace,a,a b\na,0,1\na b,1,0\n"
    lines = dump.strip().splitlines()
    assert lines[0] == "trace,a,a b"
    assert lines[1] == "a,0,1"
    assert lines[2] == "a b,1,0"
    # a label holding the delimiter or the quote character is quoted, so
    # every row keeps one cell per variant
    labels = [("a,b",), ('say "hi"', "c"), ()]
    dump = DistanceTable(labels).matrix_csv()
    rows = list(csv.reader(dump.splitlines()))
    assert rows[0] == ["trace", "a,b", 'say "hi" c', "-"]
    assert [row[0] for row in rows[1:]] == ["a,b", 'say "hi" c', "-"]
    assert all(len(row) == 4 for row in rows)
    assert [list(map(int, row[1:])) for row in rows[1:]] == [
        [0, 3, 1],
        [3, 0, 2],
        [1, 2, 0],
    ]


# small alphabet for heavy repeats, multi-character names, and traces long
# enough to span several 64-bit machine words of the bit-parallel state
activities = st.sampled_from(["a", "b", "c", "Register request", "check ticket"])
traces = st.lists(activities, max_size=130).map(tuple)
long_traces = st.lists(activities, min_size=65, max_size=130).map(tuple)
# packed lanes are whole bytes with a guard bit: lengths on both sides of
# one, two and eight bytes, plus the empty trace
LANE_EDGE_LENGTHS = (0, 1, 7, 8, 9, 15, 16, 63, 64, 65)


@settings(max_examples=150, deadline=None)
@given(traces, traces)
def test_kernel_matches_naive_oracle(a, b):
    d = naive_edit_distance(a, b)
    assert edit_distance(a, b) == d
    assert edit_distance(MatchMasks(a), b) == d
    assert edit_distance(MatchMasks(b), a) == d


@settings(max_examples=40, deadline=None)
@given(long_traces, traces)
def test_kernel_on_traces_longer_than_a_word(a, b):
    assert edit_distance(a, b) == naive_edit_distance(a, b)


@settings(max_examples=150, deadline=None)
@given(traces, traces, st.integers(min_value=0, max_value=270))
def test_cutoff_returns_min_of_distance_and_cutoff(a, b, cutoff):
    d = naive_edit_distance(a, b)
    assert edit_distance(a, b, cutoff=cutoff) == min(d, cutoff)
    assert edit_distance(MatchMasks(a), b, cutoff=cutoff) == min(d, cutoff)


def test_distance_matrix_matches_pairwise_distances():
    rng = random.Random(19)
    alphabet = ["a", "b", "c", "d"]
    variants = list({random_trace(rng, alphabet, 0, 70) for _ in range(25)})
    cells = distance_matrix(variants)
    for i, a in enumerate(variants):
        for j, b in enumerate(variants):
            assert cells[i, j] == naive_edit_distance(a, b)


# lengths on both sides of the edges of one and two 62-bit words, where a
# fixed-width kernel would split a trace, plus the empty trace
WORD_EDGE_LENGTHS = (0, 1, 61, 62, 63, 124, 125)
matrix_traces = st.one_of(
    st.sampled_from(WORD_EDGE_LENGTHS),
    st.sampled_from(LANE_EDGE_LENGTHS),
    st.integers(min_value=0, max_value=130),
).flatmap(lambda n: st.lists(activities, min_size=n, max_size=n).map(tuple))


def check_matrix(variants):
    table = DistanceTable(variants)
    cells = table.matrix()
    n = len(variants)
    assert cells.dtype == np.int32
    assert cells.shape == (n, n)
    assert (cells == cells.T).all()
    assert not cells.diagonal().any()
    oracle = distance_matrix_rows(variants)
    assert (cells == oracle).all()
    # int32 cells dump the same text as the int64 oracle's rows
    labels = [" ".join(t) if t else "-" for t in variants]
    rows = list(csv.reader(table.matrix_csv().splitlines()))
    assert rows == [["trace", *labels]] + [
        [label, *map(str, row)] for label, row in zip(labels, oracle.tolist())
    ]
    for i, a in enumerate(variants):
        for j, b in enumerate(variants):
            assert cells[i, j] == edit_distance(a, b)


@settings(max_examples=60, deadline=None)
@given(st.lists(matrix_traces, max_size=7))
def test_distance_matrix_matches_row_oracle(variants):
    check_matrix(variants)


def test_distance_matrix_across_word_boundaries():
    rng = random.Random(23)
    alphabet = ["a", "b", "Register request"]
    variants = [random_trace(rng, alphabet, n, n) for n in WORD_EDGE_LENGTHS * 2]
    check_matrix(variants)


@pytest.mark.parametrize("variants", [[], [()], [("a", "b")]], ids=["none", "empty", "one"])
def test_distance_matrix_of_fewer_than_two_variants(variants):
    cells = distance_matrix(variants)
    assert cells.dtype == np.int32
    assert cells.shape == (len(variants), len(variants))
    assert not cells.any()


# 10 variants of up to 70 events take 9-byte lanes, so a block starting at
# row r holds 9 * (10 - r) state bytes per row; these budgets give blocks of
# one row, then longer blocks as the rows shorten, the last one cut short by
# the last row
@pytest.mark.parametrize(
    "block_bytes, starts",
    [
        (1, list(range(10))),
        (60, [0, 1, 2, 3, 4, 5, 6, 7, 9]),
        (140, [0, 1, 2, 3, 5, 8]),
    ],
    ids=["1", "60", "140"],
)
def test_distance_matrix_in_several_row_blocks(monkeypatch, block_bytes, starts):
    monkeypatch.setattr(distance, "MATRIX_BLOCK_BYTES", block_bytes)
    firsts = []
    lanes_from = MatchMasks.lanes_from

    def record(self, first):
        firsts.append(first)
        return lanes_from(self, first)

    monkeypatch.setattr(MatchMasks, "lanes_from", record)
    rng = random.Random(block_bytes)
    variants = [random_trace(rng, ["a", "b", "c"], 0, 70) for _ in range(9)]
    variants.append(("a",) * 70)
    check_matrix(variants)
    assert firsts == starts


@pytest.mark.parametrize("block_bytes", [1, distance.MATRIX_BLOCK_BYTES])
@pytest.mark.parametrize("n", [0, 1, 12])
def test_distance_matrix_scans_each_variant_once(monkeypatch, block_bytes, n):
    # a deterministic work count: one pack, one packed scan per row and no
    # scalar distance
    monkeypatch.setattr(distance, "MATRIX_BLOCK_BYTES", block_bytes)
    packs, scans = [], []
    init, scan = MatchMasks.__init__, MatchMasks.scan

    def count_pack(self, *traces):
        packs.append(traces)
        init(self, *traces)

    def count_scan(self, other, trail=None):
        scans.append(other)
        return scan(self, other, trail)

    def no_edit_distance(*args, **kwargs):
        raise AssertionError("distance_matrix called edit_distance")

    monkeypatch.setattr(MatchMasks, "__init__", count_pack)
    monkeypatch.setattr(MatchMasks, "scan", count_scan)
    monkeypatch.setattr(distance, "edit_distance", no_edit_distance)
    rng = random.Random(n)
    variants = [random_trace(rng, ["a", "b", "c"], 0, 20) for _ in range(n)]
    distance_matrix(variants)
    assert packs == [tuple(variants)]
    assert scans == variants


lane_traces = st.sampled_from(LANE_EDGE_LENGTHS).flatmap(
    lambda n: st.lists(activities, min_size=n, max_size=n).map(tuple)
)
# members may hold labels that no packed trace has
member_traces = st.lists(st.sampled_from(["a", "b", "z", "other"]), max_size=70).map(
    tuple
)


@settings(max_examples=80, deadline=None)
@given(st.lists(lane_traces, max_size=6), st.data(), member_traces)
def test_packed_distances_equal_scalar_distances(lanes, data, member):
    if lanes:
        # a repeated trace gets a lane of its own
        lanes = lanes + data.draw(st.lists(st.sampled_from(lanes), max_size=2))
    packed = MatchMasks(*lanes)
    assert packed.lane_bytes * 8 > max(map(len, lanes), default=0)
    assert packed.distances(member) == [edit_distance(t, member) for t in lanes]
    # dropping the first r lanes shifts the rest down without packing again
    for r in range(len(lanes) + 1):
        assert packed.lanes_from(r).distances(member) == packed.distances(member)[r:]



def test_every_package_export_resolves():
    import alignbound

    missing = [name for name in alignbound.__all__ if not hasattr(alignbound, name)]
    assert missing == []
    assert "distance_matrix" in alignbound.__all__
