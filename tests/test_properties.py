"""Property tests: the bit kernels against each other and the oracles.

Examples are drawn deterministically (derandomize=True) and their number
is bounded, so the module is as repeatable as the rest of the suite.
"""

import pytest

pytest.importorskip("hypothesis")

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trigrid import TriGrid, VertexSet, bulk, compress_left, compress_right, reflect

from helpers import compress_oracle, set_words, spread_oracle

OPS = {"left": compress_left, "right": compress_right}
bounded = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def grid_sets(draw):
    """A grid of order 1..63 (the batch kernels' range) and a random subset."""
    g = TriGrid(draw(st.integers(1, bulk.ORDER_LIMIT)))
    return g, VertexSet.from_bits(g, draw(st.integers(0, g.full_mask)))


@bounded
@given(grid_sets())
def test_spread_bits_matches_row_oracle(case):
    g, a = case
    assert g.spread_bits(a.bits) == spread_oracle(g, a.bits)


@bounded
@given(grid_sets())
def test_scalar_bulk_and_oracle_compressions_agree(case):
    g, a = case
    sets = set_words(g, [a.bits])
    for axis in (1, 2):
        for side, op in OPS.items():
            want = g.set_of(compress_oracle(g, a, axis, side)).bits
            assert op(g, a, axis).bits == want
            assert bulk.pack_rows(bulk.compress(g, sets, axis, side)) == [want]


@bounded
@given(grid_sets())
def test_right_compression_is_reflected_left(case):
    g, a = case
    for axis in (1, 2):
        mirrored = reflect(g, compress_left(g, reflect(g, a, axis), axis), axis)
        assert compress_right(g, a, axis) == mirrored


@bounded
@given(st.lists(st.integers(0, (1 << 64) - 1), max_size=10))
def test_union_table_entry_is_or_of_its_images(images):
    table = bulk.union_table(images)
    assert table.dtype == np.uint64 and len(table) == 1 << len(images)
    for b, entry in enumerate(table.tolist()):
        want = 0
        for j, image in enumerate(images):
            if b >> j & 1:
                want |= image
        assert entry == want


@bounded
@given(st.lists(st.lists(st.integers(0, (1 << 64) - 1), min_size=5, max_size=5), max_size=8))
def test_union_table_of_rows_is_or_of_its_rows(rows):
    # Row images, as the solver's symmetry tables: no rows still gives 5 columns.
    table = bulk.union_table(np.array(rows, dtype=np.uint64).reshape(len(rows), 5))
    assert table.dtype == np.uint64 and table.shape == (1 << len(rows), 5)
    for b, entry in enumerate(table.tolist()):
        want = [0] * 5
        for j, row in enumerate(rows):
            if b >> j & 1:
                want = [w | r for w, r in zip(want, row)]
        assert entry == want
