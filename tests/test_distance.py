import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignbound import distance
from alignbound.distance import (
    DistanceMatrix,
    MatchMasks,
    distance_matrix,
    edit_distance,
)

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
    matrix = distance_matrix(variants)
    cells = matrix.cells
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
    matrix = distance_matrix([("a",), ("a", "b")])
    dump = matrix.to_csv()
    lines = dump.strip().splitlines()
    assert lines[0] == "trace,a,a b"
    assert lines[1] == "a,0,1"
    assert lines[2] == "a b,1,0"


# small alphabet for heavy repeats, multi-character names, and traces long
# enough to span several machine words in the bit-parallel kernel
activities = st.sampled_from(["a", "b", "c", "Register request", "check ticket"])
traces = st.lists(activities, max_size=130).map(tuple)
long_traces = st.lists(activities, min_size=65, max_size=130).map(tuple)


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
    cells = distance_matrix(variants).cells
    for i, a in enumerate(variants):
        for j, b in enumerate(variants):
            assert cells[i, j] == naive_edit_distance(a, b)


# the all-pairs kernel packs 62 positions per int64 word: lengths on both
# sides of one and two word boundaries, plus the empty trace
WORD_EDGE_LENGTHS = (0, 1, 61, 62, 63, 124, 125)
matrix_traces = st.one_of(
    st.sampled_from(WORD_EDGE_LENGTHS), st.integers(min_value=0, max_value=130)
).flatmap(lambda n: st.lists(activities, min_size=n, max_size=n).map(tuple))


def check_matrix(variants):
    matrix = distance_matrix(variants)
    cells = matrix.cells
    n = len(variants)
    assert cells.dtype == np.int32
    assert cells.shape == (n, n)
    assert (cells == cells.T).all()
    assert not cells.diagonal().any()
    oracle = distance_matrix_rows(variants)
    assert (cells == oracle).all()
    # int32 cells dump the same text as the int64 oracle's
    assert matrix.to_csv() == DistanceMatrix(matrix.labels, oracle).to_csv()
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
    cells = distance_matrix(variants).cells
    assert cells.dtype == np.int32
    assert cells.shape == (len(variants), len(variants))
    assert not cells.any()


# 10 variants of up to 70 events take two words per row, so these budgets
# give row blocks of 1, 3 and 7 rows, the last block shorter than the rest
@pytest.mark.parametrize("block_cells", [1, 60, 140])
def test_distance_matrix_in_several_row_blocks(monkeypatch, block_cells):
    monkeypatch.setattr(distance, "MATRIX_BLOCK_CELLS", block_cells)
    rng = random.Random(block_cells)
    variants = [random_trace(rng, ["a", "b", "c"], 0, 70) for _ in range(9)]
    variants.append(("a",) * 70)
    check_matrix(variants)


# packed lanes are whole bytes with a guard bit: lengths on both sides of
# one, two and eight bytes, plus the empty trace
LANE_EDGE_LENGTHS = (0, 1, 7, 8, 9, 15, 16, 63, 64, 65)
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

