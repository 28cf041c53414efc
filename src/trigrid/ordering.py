"""Simplicial ordering, initial/final segments, and packing boundary sizes.

The simplicial order puts u before v when u has the smaller level
v1 + v2, with ties broken by the larger first coordinate.  Initial
segments are the "ice cream cone" packings grown from the (0, 0) corner;
final segments are the complementary row packings grown from the
anti-diagonal.

Segments are prefix masks of the simplicial order, built row by row from
the closed-form rank-to-vertex map: the first k vertices fill a left-aligned
run of each row, so the mask takes one shifted run per row it touches.  The
final segment of size k is the complement of the first V - k vertices.
Their boundary sizes, and so the packing minimum, are closed forms in k.
"""

from __future__ import annotations

import math

from .core import Coord, TriGrid, VertexSet, _set_bits, as_int


def triangular(j: int) -> int:
    """1 + 2 + ... + j."""
    return j * (j + 1) // 2


def simplicial_rank(grid: TriGrid, v) -> int:
    """0-based position of v in the simplicial ordering."""
    v1, v2 = grid.check(v)
    lev = v1 + v2
    return triangular(lev) + (lev - v1)


def _coord_at(rank: int) -> Coord:
    """Vertex at a simplicial rank; the order does not depend on n.

    The level is the largest lev with triangular(lev) <= rank.
    """
    lev = (math.isqrt(8 * rank + 1) - 1) // 2
    v2 = rank - triangular(lev)
    return Coord(lev - v2, v2)


def rank_to_coord(grid: TriGrid, rank: int) -> Coord:
    return _coord_at(as_int(rank, "rank", 0, grid.vertex_count - 1))


def simplicial_order(grid: TriGrid) -> list[Coord]:
    return [_coord_at(r) for r in range(grid.vertex_count)]


def _prefix_bits(grid: TriGrid, k: int) -> int:
    """Bitmask of the first k vertices of the simplicial order.

    With (v1, j) the vertex at rank k and lev = v1 + j, the first k
    vertices are the levels below lev plus the first j vertices of level
    lev, so row r < lev holds columns 0 .. lev - r - 1, and column
    lev - r too when r < j.  k = V gives lev = n + 1, j = 0: every row.
    """
    v1, j = _coord_at(k)
    lev = v1 + j
    offs = grid._row_offset
    bits = 0
    for r in range(min(lev, grid.n + 1)):
        bits |= ((1 << (lev - r + (r < j))) - 1) << offs[r]
    return bits


def rank_sum(grid: TriGrid, a: VertexSet) -> int:
    """Sum of simplicial positions over a set (the exchange potential)."""
    _set_bits(grid, a)
    return sum(simplicial_rank(grid, v) for v in a)


def initial_segment(grid: TriGrid, k: int) -> VertexSet:
    """The k lowest-ranked vertices (ice cream cone packing of size k)."""
    k = as_int(k, "segment size", 0, grid.vertex_count)
    return VertexSet.from_bits(grid, _prefix_bits(grid, k))


def final_segment(grid: TriGrid, k: int) -> VertexSet:
    """The k highest-ranked vertices (row packing of size k)."""
    k = as_int(k, "segment size", 0, grid.vertex_count)
    prefix = _prefix_bits(grid, grid.vertex_count - k)
    return VertexSet.from_bits(grid, grid.full_mask & ~prefix)


def initial_segment_boundary_size(grid: TriGrid, k: int) -> int:
    """Closed-form |boundary(initial_segment(k))| for every 0 <= k <= |V|.

    Once the segment reaches the diagonal level n, k > 1 + 2 + ... + n,
    its boundary is the rest of the diagonal, |V| - k.  Before that it is
    l + 2 with triangular(l) < k <= triangular(l + 1); l + 1, the least j
    with triangular(j) >= k, is (isqrt(8k) + 1) // 2.
    """
    k = as_int(k, "segment size", 0, grid.vertex_count)
    if k == 0:
        return 0
    if k > triangular(grid.n):
        return grid.vertex_count - k
    return (math.isqrt(8 * k) + 1) // 2 + 1


def final_segment_boundary_size(grid: TriGrid, k: int) -> int:
    """Closed-form |boundary(final_segment(k))| for every 0 <= k <= |V|.

    A segment inside the diagonal, k <= n, has boundary k + 1.  A larger
    one has boundary l, the least l with triangular(l) >= |V| - k, which
    is (isqrt(8(|V| - k)) + 1) // 2; the full set gives l = 0.
    """
    k = as_int(k, "segment size", 0, grid.vertex_count)
    if k == 0:
        return 0
    if k <= grid.n:
        return k + 1
    return (math.isqrt(8 * (grid.vertex_count - k)) + 1) // 2


def packing_minimum(grid: TriGrid, k: int) -> int:
    """min of the two packing boundary sizes, from their closed forms."""
    return min(initial_segment_boundary_size(grid, k), final_segment_boundary_size(grid, k))
