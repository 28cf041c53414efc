import numpy as np
import pytest

from trigrid import (
    TriGrid,
    VertexSet,
    boundary,
    compress_left,
    compress_right,
    neighborhood,
)
from trigrid import bulk

from helpers import all_subsets, boundary_oracle, compress_oracle, neighborhood_oracle

SIDES = {"left": compress_left, "right": compress_right}


def _sets(g, rng):
    """Empty, full, one vertex per corner, and sparse, half and dense random sets."""
    nv = g.vertex_count
    mat = np.zeros((3 + 3 * 8, nv), dtype=np.uint8)
    mat[1] = 1
    mat[2, [0, g.index((g.n, 0)), g.index((0, g.n))]] = 1
    for i, p in enumerate((0.1, 0.5, 0.9)):
        mat[3 + 8 * i : 11 + 8 * i] = rng.random((8, nv)) < p
    return mat


@pytest.mark.parametrize("n", [1, 2, 4, 5, 6, 9, 10, 13, 20, 30, 63])
def test_sizes_and_compress_match_scalar(n):
    # Rows of T_10 and beyond straddle 64-bit words of the dense ids;
    # row 0 of T_63 fills a whole word.
    g = TriGrid(n)
    mat = _sets(g, np.random.default_rng(n))
    rows = bulk.pack_rows(mat)
    bsz = bulk.boundary_sizes(g, mat)
    nsz = bulk.neighborhood_sizes(g, mat)
    for i, bits in enumerate(rows):
        a = VertexSet.from_bits(g, bits)
        assert bsz[i] == len(boundary(g, a))
        assert nsz[i] == len(neighborhood(g, a))
    for axis in (1, 2):
        for side, op in SIDES.items():
            out = bulk.pack_rows(bulk.compress(g, mat, axis, side))
            assert out == [op(g, VertexSet.from_bits(g, b), axis).bits for b in rows]
            # scalar and bulk share an algorithm, so both face the oracle too
            want = [compress_oracle(g, VertexSet.from_bits(g, b), axis, side) for b in rows]
            assert out == [g.set_of(w).bits for w in want]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sizes_match_oracle_on_every_subset(n):
    g = TriGrid(n)
    ids = np.arange(1 << g.vertex_count, dtype=np.uint64)
    mat = bulk.subsets_from_ids(g, ids)
    bsz = bulk.boundary_sizes(g, mat)
    nsz = bulk.neighborhood_sizes(g, mat)
    for i, a in enumerate(all_subsets(g)):
        assert bsz[i] == len(boundary_oracle(g, a))
        assert nsz[i] == len(neighborhood_oracle(g, a))


def test_subsets_from_ids_round_trips():
    rng = np.random.default_rng(3)
    for n in range(1, 10):
        g = TriGrid(n)
        ids = [0, g.full_mask, *map(int, rng.integers(0, 1 << g.vertex_count, 20))]
        mat = bulk.subsets_from_ids(g, np.array(ids, dtype=np.uint64))
        assert mat.shape == (len(ids), g.vertex_count) and mat.dtype == np.uint8
        assert bulk.pack_rows(mat) == ids


def test_empty_batches():
    g = TriGrid(12)
    mat = np.zeros((0, g.vertex_count), dtype=np.uint8)
    assert bulk.boundary_sizes(g, mat).shape == (0,)
    assert bulk.compress(g, mat, 1, "right").shape == (0, g.vertex_count)


@pytest.mark.parametrize("ids", [[1 << 6], [1 << 10], [3, 1 << 63], [1 << 64], [-1]])
def test_subsets_from_ids_refuses_bits_outside_grid(ids):
    with pytest.raises(ValueError, match="outside the grid"):
        bulk.subsets_from_ids(TriGrid(2), ids)


def test_subsets_from_ids_refuses_grids_over_64_vertices():
    assert bulk.subsets_from_ids(TriGrid(9), [1 << 54]).shape == (1, 55)
    with pytest.raises(ValueError, match="66 vertices"):
        bulk.subsets_from_ids(TriGrid(10), [1])


@pytest.mark.parametrize("bitgen", [np.random.PCG64, np.random.MT19937, np.random.Philox])
def test_random_subsets_draws_as_integers_0_2(bitgen):
    # Same matrix and same generator state as the per-vertex reference
    # draw; c * V odd leaves part of the last 32-bit output unused.
    for n, count in [(1, 0), (1, 1), (2, 3), (3, 7), (9, 5), (20, 65), (30, 4097)]:
        g = TriGrid(n)
        for seed in (0, 1, 7):
            fast = np.random.Generator(bitgen(seed))
            ref = np.random.Generator(bitgen(seed))
            mat = bulk.random_subsets(g, count, fast)
            want = ref.integers(0, 2, size=(count, g.vertex_count), dtype=np.uint8)
            assert mat.dtype == np.uint8 and mat.shape == want.shape
            assert (mat == want).all()
            # Follow-up draws of 32- and 64-bit outputs see the same state.
            after = [
                [*rng.integers(0, 1 << 32, 5, dtype=np.uint32), *rng.random(3)]
                for rng in (fast, ref)
            ]
            assert after[0] == after[1]


def test_every_kernel_refuses_orders_above_63():
    rng = np.random.default_rng(0)
    g, big = TriGrid(63), TriGrid(64)
    mat = bulk.random_subsets(g, 2, rng)
    assert bulk.boundary_sizes(g, mat).shape == (2,)
    wide = np.zeros((2, big.vertex_count), dtype=np.uint8)
    calls = [
        lambda: bulk.subsets_from_ids(big, [1]),
        lambda: bulk.random_subsets(big, 2, rng),
        lambda: bulk.boundary_sizes(big, wide),
        lambda: bulk.neighborhood_sizes(big, wide),
        lambda: bulk.compress(big, wide, 2, "left"),
    ]
    message = r"^batch kernel order \(one grid row per 64-bit word\) must be at most 63, got 64$"
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_membership_matrix_shape_checked():
    g = TriGrid(3)
    for bad in (np.zeros((4, 9), dtype=np.uint8), np.zeros(10, dtype=np.uint8)):
        with pytest.raises(ValueError, match="membership matrix"):
            bulk.boundary_sizes(g, bad)
