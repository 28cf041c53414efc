import re

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

from helpers import all_subsets, boundary_oracle, compress_oracle, neighborhood_oracle, set_words

SIDES = {"left": compress_left, "right": compress_right}


def _sets(g, rng):
    """Empty, full, one vertex per corner, and sparse, half and dense random sets."""
    corners = 1 | 1 << g.index((g.n, 0)) | 1 << g.index((0, g.n))
    masks = [0, g.full_mask, corners]
    for p in (0.1, 0.5, 0.9):
        for _ in range(8):
            masks.append(sum(1 << int(j) for j in np.flatnonzero(rng.random(g.vertex_count) < p)))
    return masks


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 13, 15, 16, 20, 30, 31, 32, 63])
def test_sizes_and_compress_match_scalar(n):
    # Up to T_9 a set is one word and the sizes come from spread_bits,
    # whose network gains a stage at n = 2, 3, 5 and 9.  Rows of T_10 and
    # beyond straddle 64-bit words of the dense ids.  The row words widen
    # from uint8 to uint16 at n = 8, to uint32 at n = 16 and to uint64 at
    # n = 32, so at n = 7, 15, 31 and 63 row 0 fills a whole row word.
    g = TriGrid(n)
    rows = _sets(g, np.random.default_rng(n))
    sets = set_words(g, rows)
    assert bulk.pack_rows(sets) == rows
    bsz = bulk.boundary_sizes(g, sets)
    nsz = bulk.neighborhood_sizes(g, sets)
    for i, bits in enumerate(rows):
        a = VertexSet.from_bits(g, bits)
        assert bsz[i] == len(boundary(g, a))
        assert nsz[i] == len(neighborhood(g, a))
    for axis in (1, 2):
        for side, op in SIDES.items():
            out = bulk.pack_rows(bulk.compress(g, sets, axis, side))
            assert out == [op(g, VertexSet.from_bits(g, b), axis).bits for b in rows]
            # scalar and bulk share an algorithm, so both face the oracle too
            want = [compress_oracle(g, VertexSet.from_bits(g, b), axis, side) for b in rows]
            assert out == [g.set_of(w).bits for w in want]


@pytest.mark.parametrize(
    "n, dtype",
    [(7, np.uint8), (8, np.uint16), (15, np.uint16), (16, np.uint32), (31, np.uint32),
     (32, np.uint64), (63, np.uint64)],
)
def test_row_words_take_the_narrowest_type_a_row_fits(n, dtype):
    g = TriGrid(n)
    words = bulk._row_words(g, bulk.random_subsets(g, 3, np.random.default_rng(n)))
    assert words.dtype == dtype and words.shape == (n + 1, 3)
    assert bulk._row_masks(g).dtype == dtype


@pytest.mark.parametrize("n", [9, 20])
def test_batch_results_do_not_depend_on_the_block_size(n, monkeypatch):
    # Two full blocks and three sets over, run once with the blocks as
    # they are and once in blocks of 1021 sets, which is not a multiple of
    # 8 and leaves a last block of 51; the sets on either side of each
    # block edge of both sizes also face the scalar operators.
    g = TriGrid(n)
    sets = bulk.random_subsets(g, 2 * bulk._BLOCK + 3, np.random.default_rng(n))
    ops = {
        "boundary": (bulk.boundary_sizes, lambda a: len(boundary(g, a))),
        "neighborhood": (bulk.neighborhood_sizes, lambda a: len(neighborhood(g, a))),
        **{
            (axis, side): (
                lambda g, sets, axis=axis, side=side: bulk.compress(g, sets, axis, side),
                lambda a, axis=axis, op=op: op(g, a, axis).bits,
            )
            for axis in (1, 2)
            for side, op in SIDES.items()
        },
    }
    small = 1021
    cuts = {*range(small, len(sets), small), bulk._BLOCK, 2 * bulk._BLOCK}
    edges = [i for e in sorted(cuts) for i in (e - 1, e)] + [len(sets) - 1]
    rows = [VertexSet.from_bits(g, b) for b in bulk.pack_rows(sets[edges])]
    wide = {key: batch(g, sets) for key, (batch, _) in ops.items()}
    monkeypatch.setattr(bulk, "_BLOCK", small)
    for key, (batch, scalar) in ops.items():
        out = wide[key]
        assert np.array_equal(batch(g, sets), out), key
        at_edges = list(out[edges]) if out.ndim == 1 else bulk.pack_rows(out[edges])
        assert at_edges == [scalar(a) for a in rows], key


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sizes_match_oracle_on_every_subset(n):
    g = TriGrid(n)
    ids = np.arange(1 << g.vertex_count, dtype=np.uint64)
    sets = bulk.subsets_from_ids(g, ids)
    bsz = bulk.boundary_sizes(g, sets)
    nsz = bulk.neighborhood_sizes(g, sets)
    for i, a in enumerate(all_subsets(g)):
        assert bsz[i] == len(boundary_oracle(g, a))
        assert nsz[i] == len(neighborhood_oracle(g, a))


def test_subsets_from_ids_round_trips():
    rng = np.random.default_rng(3)
    for n in range(1, 10):
        g = TriGrid(n)
        ids = [0, g.full_mask, *map(int, rng.integers(0, 1 << g.vertex_count, 20))]
        sets = bulk.subsets_from_ids(g, np.array(ids, dtype=np.uint64))
        assert sets.shape == (len(ids), 1) and sets.dtype == np.uint64
        assert bulk.pack_rows(sets) == ids


def test_empty_batches():
    g = TriGrid(12)  # 91 vertices, two words
    sets = np.zeros((0, 2), dtype=np.uint64)
    assert bulk.boundary_sizes(g, sets).shape == (0,)
    assert bulk.compress(g, sets, 1, "right").shape == (0, 2)
    assert bulk.random_subsets(g, 0, np.random.default_rng(0)).shape == (0, 2)


@pytest.mark.parametrize("ids", [[1 << 6], [1 << 10], [3, 1 << 63], [1 << 64], [-1]])
def test_subsets_from_ids_refuses_bits_outside_grid(ids):
    with pytest.raises(ValueError, match="outside the grid"):
        bulk.subsets_from_ids(TriGrid(2), ids)


@pytest.mark.parametrize(
    "ids", [[1.5, 2.0], np.array([1.9]), [True, False], ["5"], np.array([1], dtype=object)]
)
def test_subsets_from_ids_refuses_ids_that_are_not_integers(ids):
    with pytest.raises(ValueError, match="subset ids must be integers"):
        bulk.subsets_from_ids(TriGrid(2), ids)


def test_subsets_from_ids_refuses_a_2d_array():
    with pytest.raises(ValueError, match=r"^expected a 1-D array of subset ids, got shape \(1, 2\)$"):
        bulk.subsets_from_ids(TriGrid(2), np.array([[1, 2]]))


def test_subsets_from_ids_takes_integer_arrays_and_lists():
    g = TriGrid(2)
    for ids in ([1, 2], np.array([1, 2], dtype=np.int8), [np.uint64(1), 2], []):
        assert bulk.pack_rows(bulk.subsets_from_ids(g, ids)) == [int(i) for i in ids]


def test_subsets_from_ids_refuses_grids_over_64_vertices():
    assert bulk.pack_rows(bulk.subsets_from_ids(TriGrid(9), [1 << 54])) == [1 << 54]
    with pytest.raises(ValueError, match="66 vertices"):
        bulk.subsets_from_ids(TriGrid(10), [1])


@pytest.mark.parametrize(
    "bitgen",
    [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.PCG64DXSM, np.random.SFC64],
)
def test_random_subsets_draws_as_integers_0_2(bitgen):
    # Same sets and same generator state as the per-vertex reference
    # draw; c * V odd leaves part of the last 32-bit output unused.  A
    # first 32-bit draw (buffered) leaves half a 64-bit output in the
    # generators that split them.
    for n, count in [(1, 0), (1, 1), (2, 3), (3, 7), (9, 5), (20, 65), (30, 4097)]:
        g = TriGrid(n)
        for seed, buffered in [(0, 0), (1, 0), (7, 0), (0, 1), (7, 1)]:
            fast = np.random.Generator(bitgen(seed))
            ref = np.random.Generator(bitgen(seed))
            for rng in (fast, ref):
                rng.integers(0, 1 << 32, buffered, dtype=np.uint32)
            sets = bulk.random_subsets(g, count, fast)
            cells = ref.integers(0, 2, size=(count, g.vertex_count), dtype=np.uint8)
            digits = (cells[:, ::-1] + ord("0")).view(f"S{g.vertex_count}")  # high id first
            want = [int(row, 2) for row in digits[:, 0]]
            assert sets.dtype == np.uint64 and sets.shape == (count, -(-g.vertex_count // 64))
            assert bulk.pack_rows(sets) == want
            # Follow-up draws of 32- and 64-bit outputs see the same state.
            after = [
                [*rng.integers(0, 1 << 32, 5, dtype=np.uint32), *rng.random(3)]
                for rng in (fast, ref)
            ]
            assert after[0] == after[1]


def test_every_kernel_refuses_orders_above_63():
    rng = np.random.default_rng(0)
    g, big = TriGrid(63), TriGrid(64)
    sets = bulk.random_subsets(g, 2, rng)
    assert bulk.boundary_sizes(g, sets).shape == (2,)
    wide = np.zeros((2, -(-big.vertex_count // 64)), dtype=np.uint64)
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
    # A batch is (count, W) dense-id words, W = ceil(V / 64) = 1 for T_3.
    g = TriGrid(3)
    for bad in (np.zeros((4, 2), dtype=np.uint64), np.zeros(1, dtype=np.uint64)):
        with pytest.raises(ValueError, match="uint64 array of dense-id words"):
            bulk.boundary_sizes(g, bad)


KERNELS = {
    "boundary_sizes": bulk.boundary_sizes,
    "neighborhood_sizes": bulk.neighborhood_sizes,
    "compress": lambda g, sets: bulk.compress(g, sets, 1, "left"),
}
WRONG_FORMS = {  # (order, batch); the message names W and the batch's dtype and shape
    "uint8 membership matrix": (3, np.zeros((1, 10), dtype=np.uint8)),
    "uint8 matrix of 255s": (3, np.full((1, 10), 255, dtype=np.uint8)),
    "wrong width": (10, np.zeros((1, 1), dtype=np.uint64)),
    "int64 words": (3, np.zeros((1, 1), dtype=np.int64)),
}


@pytest.mark.parametrize("form", WRONG_FORMS)
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_refuse_batches_not_in_word_form(kernel, form):
    n, bad = WRONG_FORMS[form]
    g = TriGrid(n)
    message = (
        rf"^expected a \(count, {-(-g.vertex_count // 64)}\) uint64 array of dense-id words "
        rf"for T_{n}, got {bad.dtype} of shape {re.escape(str(bad.shape))}$"
    )
    with pytest.raises(ValueError, match=message):
        KERNELS[kernel](g, bad)


@pytest.mark.parametrize("n, last", [(9, [1 << 55]), (9, [1 << 63]), (10, [0, 1 << 2])])
@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_refuse_bits_past_the_last_vertex(kernel, n, last):
    # V = 55 fills one word up to bit 54; V = 66 runs two bits into a
    # second.  The stray bit sits in the second set, after a clean one.
    g = TriGrid(n)
    bad = np.array([[0] * len(last), last], dtype=np.uint64)
    with pytest.raises(ValueError, match="^sets have bits outside the grid$"):
        KERNELS[kernel](g, bad)


def test_pack_rows_refuses_uint8_matrices():
    with pytest.raises(ValueError, match="uint64 array of dense-id words, got uint8"):
        bulk.pack_rows(np.ones((1, 10), dtype=np.uint8))


@pytest.mark.parametrize("bad", [True, -1, 1.5], ids=repr)
def test_random_subsets_refuses_bad_counts_before_drawing(bad):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^count must be (an integer|at least 0), got {bad!r}$"):
        bulk.random_subsets(TriGrid(3), bad, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("bad", [5, None], ids=repr)
def test_random_subsets_refuses_non_generators(bad):
    with pytest.raises(ValueError, match=f"^rng must be a numpy.random.Generator, got {bad!r}$"):
        bulk.random_subsets(TriGrid(3), 2, bad)
