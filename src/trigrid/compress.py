"""Section compression operators on vertex subsets, worked on bitmasks.

A set is sliced into 1-sections (columns, fixed v1 = t) or 2-sections
(rows, fixed v2 = t).  Left compression replaces each section by the
initial interval {0, ..., size-1}; right compression by the terminal
interval {n-t-size+1, ..., n-t}.  An empty section compresses to the
empty interval.

Both work on the row words of a set (bit c of word r is vertex (c, r)),
by the one rule that bulk.compress runs on numpy arrays of row words.
A 2-section is one row word, so it compresses to a run of popcount
bits.  The 1-sections are sorted down their columns by an odd-even
transposition sort of the row words, which sorts every column at once;
for the right side the rows are reversed around the sort, and each
column's cells past the hypotenuse count as members.
"""

from __future__ import annotations

from .core import TriGrid, VertexSet, _ids, _mask, _set_bits, as_int, automorphism_id_permutations

SIDES = ("left", "right")


def _check_axis(axis: int) -> int:
    return as_int(axis, "axis", 1, 2)


def _check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _row_words(grid: TriGrid, a: VertexSet) -> list[int]:
    bits = _set_bits(grid, a)
    return [bits >> off & mask for off, mask in zip(grid._row_offset, grid._row_mask)]


def _from_row_words(grid: TriGrid, words: list[int]) -> VertexSet:
    bits = 0
    for off, word in zip(grid._row_offset, words):
        bits |= word << off
    return VertexSet.from_bits(grid, bits)


def _sort_columns(words: list[int]) -> list[int]:
    """n + 1 rounds of odd-even transposition, (lo | hi, lo & hi) on row pairs, in place."""
    for i in range(len(words)):
        for r in range(i % 2, len(words) - 1, 2):
            lo, hi = words[r], words[r + 1]
            words[r], words[r + 1] = lo | hi, lo & hi
    return words


def _compress(grid: TriGrid, a: VertexSet, axis: int, side: str) -> VertexSet:
    """The chosen compression of a, branch for branch as bulk.compress."""
    _check_side(side)
    axis = _check_axis(axis)
    masks = grid._row_mask
    words = _row_words(grid, a)
    if axis == 2 and side == "left":
        words = [(1 << w.bit_count()) - 1 for w in words]
    elif axis == 2:  # m ^ m >> c is the top c bits of a row
        words = [m ^ m >> w.bit_count() for m, w in zip(masks, words)]
    elif side == "left":
        words = _sort_columns(words)
    else:  # masks[0] ^ m is the row's cells past the hypotenuse
        words = _sort_columns([w | masks[0] ^ m for w, m in zip(words[::-1], masks[::-1])])
        words = [w & m for w, m in zip(words[::-1], masks)]
    return _from_row_words(grid, words)


def compress_left(grid: TriGrid, a: VertexSet, axis: int) -> VertexSet:
    """Push every section of a to the low end of its range."""
    return _compress(grid, a, axis, "left")


def compress_right(grid: TriGrid, a: VertexSet, axis: int) -> VertexSet:
    """Push every section of a to the high end of its range {0, ..., n-t}."""
    return _compress(grid, a, axis, "right")


def is_compressed(grid: TriGrid, a: VertexSet, axis: int, side: str) -> bool:
    """True when the chosen compression fixes a."""
    return _compress(grid, a, axis, side) == a


def reflect(grid: TriGrid, a: VertexSet, axis: int) -> VertexSet:
    """Mirror about the median of the given axis.

    axis=2 fixes rows: (v1, v2) -> (n - v1 - v2, v2); axis=1 fixes columns:
    (v1, v2) -> (v1, n - v1 - v2).  These are entries 4 and 5 of
    automorphism_id_permutations.  Conjugating left compression by the
    matching reflection yields right compression.
    """
    axis = _check_axis(axis)
    perm = automorphism_id_permutations(grid)[4 if axis == 2 else 5]
    return VertexSet.from_bits(grid, _mask(perm[i] for i in _ids(_set_bits(grid, a))))
