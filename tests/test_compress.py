import random
import re

import numpy as np
import pytest

from trigrid import (
    TriGrid,
    compress_left,
    compress_right,
    initial_segment,
    is_compressed,
    lion_step,
    neighborhood,
    rank_sum,
    reflect,
    step,
)
from trigrid import bulk

from helpers import all_subsets, compress_oracle, random_vertex_set

ALL_OPS = [
    (1, "left"),
    (2, "left"),
    (1, "right"),
    (2, "right"),
]


def _apply(g, a, axis, side):
    return (compress_left if side == "left" else compress_right)(g, a, axis)


def test_worked_compression_example():
    g = TriGrid(3)
    a = g.set_of([(1, 1), (2, 0)])
    assert compress_left(g, a, 1) == g.set_of([(1, 0), (2, 0)])
    assert compress_left(g, a, 2) == g.set_of([(0, 0), (0, 1)])


def test_compress_right_example():
    g = TriGrid(3)
    assert compress_right(g, g.set_of([(0, 0)]), 2) == g.set_of([(3, 0)])
    assert compress_right(g, g.full_set(), 1) == g.full_set()


def test_compression_idempotent():
    rng = random.Random(4)
    g = TriGrid(5)
    for _ in range(40):
        a = random_vertex_set(g, rng)
        for axis, side in ALL_OPS:
            once = _apply(g, a, axis, side)
            assert _apply(g, once, axis, side) == once


def test_cardinality_preserved():
    rng = random.Random(5)
    for n in (2, 4, 7):
        g = TriGrid(n)
        for _ in range(60):
            a = random_vertex_set(g, rng)
            for axis, side in ALL_OPS:
                assert len(_apply(g, a, axis, side)) == len(a)


def test_is_compressed():
    g = TriGrid(3)
    a = g.set_of([(1, 1), (2, 0)])
    assert not is_compressed(g, a, 1, "left")
    for axis, side in ALL_OPS:
        assert is_compressed(g, g.empty_set(), axis, side)
        assert is_compressed(g, g.full_set(), axis, side)
    with pytest.raises(ValueError):
        is_compressed(g, a, 1, "up")


def test_initial_segments_left_compressed():
    for n in range(1, 6):
        g = TriGrid(n)
        for k in range(g.vertex_count + 1):
            seg = initial_segment(g, k)
            assert is_compressed(g, seg, 1, "left")
            assert is_compressed(g, seg, 2, "left")


def test_neighborhood_monotone_under_compression_exhaustive():
    for n in (1, 2, 3):
        g = TriGrid(n)
        for a in all_subsets(g):
            na = len(neighborhood(g, a))
            for axis, side in ALL_OPS:
                assert len(neighborhood(g, _apply(g, a, axis, side))) <= na


def test_rank_sum_potential():
    for n in (2, 3):
        g = TriGrid(n)
        for a in all_subsets(g):
            base = rank_sum(g, a)
            for axis in (1, 2):
                left = compress_left(g, a, axis)
                assert rank_sum(g, left) <= base
                assert (rank_sum(g, left) == base) == (left == a)
                right = compress_right(g, a, axis)
                assert rank_sum(g, right) >= base
                assert (rank_sum(g, right) == base) == (right == a)


def test_diagonal_preservation():
    rng = random.Random(6)
    for n in (2, 4, 6):
        g = TriGrid(n)
        diag = g.set_of([(v1, n - v1) for v1 in range(n + 1)])
        for _ in range(60):
            a = random_vertex_set(g, rng)
            avoiding = a - diag
            for axis in (1, 2):
                assert not (compress_left(g, avoiding, axis) & diag)
            containing = a | diag
            for axis in (1, 2):
                assert diag.issubset(compress_right(g, containing, axis))


def test_reflection_identity():
    rng = random.Random(7)
    for n in (2, 3, 5, 8):
        g = TriGrid(n)
        sets = list(all_subsets(g)) if n <= 3 else [
            random_vertex_set(g, rng) for _ in range(60)
        ]
        for a in sets:
            assert reflect(g, reflect(g, a, 2), 2) == a
            assert compress_right(g, a, 2) == reflect(
                g, compress_left(g, reflect(g, a, 2), 2), 2
            )
            assert compress_right(g, a, 1) == reflect(
                g, compress_left(g, reflect(g, a, 1), 1), 1
            )


def test_reflect_preserves_adjacency():
    g = TriGrid(4)
    for axis in (1, 2):
        for v in g.vertices():
            img = next(iter(reflect(g, g.set_of([v]), axis)))
            nbr_img = {
                next(iter(reflect(g, g.set_of([u]), axis))) for u in g.neighbors(v)
            }
            assert set(g.neighbors(img)) == nbr_img


@pytest.mark.parametrize("n", [1, 2, 3])
def test_compress_matches_oracle_on_every_subset(n):
    g = TriGrid(n)
    mat = bulk.subsets_from_ids(g, np.arange(1 << g.vertex_count, dtype=np.uint64))
    for axis, side in ALL_OPS:
        out = bulk.pack_rows(bulk.compress(g, mat, axis, side))
        for a, bulk_bits in zip(all_subsets(g), out):
            want = compress_oracle(g, a, axis, side)
            assert {tuple(v) for v in _apply(g, a, axis, side)} == want
            assert bulk_bits == g.set_of(want).bits


WRONG_GRID_CALLS = {
    "compress_left": lambda g, a: compress_left(g, a, 1),
    "compress_right": lambda g, a: compress_right(g, a, 2),
    "is_compressed": lambda g, a: is_compressed(g, a, 1, "left"),
    "reflect": lambda g, a: reflect(g, a, 2),
    "union": lambda g, a: g.full_set() | a,
    "step": lambda g, a: step(g, g.full_set(), a),
    "lion_step": lambda g, a: lion_step(g, [(0, 0)], [None], a),
}


@pytest.mark.parametrize("name", WRONG_GRID_CALLS)
def test_refuses_set_of_another_grid(name):
    # (1, 1) and (2, 0) are vertices of T_5 too, so only the grid check refuses
    a = TriGrid(3).set_of([(1, 1), (2, 0)])
    with pytest.raises(ValueError, match="does not belong to this grid"):
        WRONG_GRID_CALLS[name](TriGrid(5), a)


AXIS_CALLS = {
    "compress_left": lambda g, a, axis: compress_left(g, a, axis),
    "compress_right": lambda g, a, axis: compress_right(g, a, axis),
    "is_compressed": lambda g, a, axis: is_compressed(g, a, axis, "left"),
    "reflect": lambda g, a, axis: reflect(g, a, axis),
    "bulk.compress": lambda g, a, axis: bulk.compress(
        g, bulk.subsets_from_ids(g, np.array([a.bits], dtype=np.uint64)), axis, "left"
    ),
}


@pytest.mark.parametrize("axis", [True, 2.0, "1", 3], ids=repr)
@pytest.mark.parametrize("name", AXIS_CALLS)
def test_refuses_axis_that_is_not_1_or_2(name, axis):
    # True == 1 and 2.0 == 2, so only the type check refuses those two
    g = TriGrid(3)
    a = g.set_of([(1, 1), (2, 0)])
    for ok in (1, 2):  # numpy integers pass, with the same result
        assert str(AXIS_CALLS[name](g, a, np.int64(ok))) == str(AXIS_CALLS[name](g, a, ok))
    message = rf"^axis must be (an integer|in 1\.\.2), got {re.escape(repr(axis))}$"
    with pytest.raises(ValueError, match=message):
        AXIS_CALLS[name](g, a, axis)


SIDE_CALLS = {
    "is_compressed": lambda g, a, side: is_compressed(g, a, 1, side),
    "bulk.compress": lambda g, a, side: bulk.compress(g, bulk.subsets_from_ids(g, [a.bits]), 1, side),
}


@pytest.mark.parametrize("side", ["up", 1, None], ids=repr)
@pytest.mark.parametrize("name", SIDE_CALLS)
def test_refuses_side_that_is_not_left_or_right(name, side):
    g = TriGrid(3)
    message = rf"^side must be 'left' or 'right', got {re.escape(repr(side))}$"
    with pytest.raises(ValueError, match=message):
        SIDE_CALLS[name](g, g.set_of([(1, 1)]), side)
