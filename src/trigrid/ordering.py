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
"""

from __future__ import annotations

import math

from .core import Coord, TriGrid, VertexSet, _set_bits, boundary


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
    if not 0 <= rank < grid.vertex_count:
        raise ValueError(f"rank {rank} out of range for T_{grid.n}")
    return _coord_at(rank)


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


def _check_size(grid: TriGrid, k: int) -> int:
    if not 0 <= k <= grid.vertex_count:
        raise ValueError(f"segment size {k} out of range for T_{grid.n}")
    return k


def initial_segment(grid: TriGrid, k: int) -> VertexSet:
    """The k lowest-ranked vertices (ice cream cone packing of size k)."""
    _check_size(grid, k)
    return VertexSet.from_bits(grid, _prefix_bits(grid, k))


def final_segment(grid: TriGrid, k: int) -> VertexSet:
    """The k highest-ranked vertices (row packing of size k)."""
    _check_size(grid, k)
    prefix = _prefix_bits(grid, grid.vertex_count - k)
    return VertexSet.from_bits(grid, grid.full_mask & ~prefix)


def initial_segment_boundary_size(grid: TriGrid, k: int) -> int:
    """Closed-form |boundary(initial_segment(k))| = l + 2.

    Valid on the diagonal-free regime 1 <= k <= 1 + 2 + ... + n, where l is
    fixed by triangular(l) < k <= triangular(l+1).  Other sizes must use
    boundary() directly.
    """
    n = grid.n
    if not 1 <= k <= triangular(n):
        raise ValueError(
            f"size {k} outside the closed-form regime [1, {triangular(n)}] for T_{n}"
        )
    l = 0
    while triangular(l + 1) < k:
        l += 1
    return l + 2


def final_segment_boundary_size(grid: TriGrid, k: int) -> int:
    """Closed-form |boundary(final_segment(k))| = l.

    Valid once the segment contains the full diagonal, k >= n + 1, with l
    fixed by (l+1) + (l+2) + ... + (n+1) <= k < l + (l+1) + ... + (n+1).
    The full set is the degenerate l = 0 case.
    """
    n = grid.n
    nv = grid.vertex_count
    if not n + 1 <= k <= nv:
        raise ValueError(
            f"size {k} outside the closed-form regime [{n + 1}, {nv}] for T_{n}"
        )
    if k == nv:
        return 0

    def tail(l: int) -> int:  # l + (l+1) + ... + (n+1)
        return triangular(n + 1) - triangular(l - 1)

    l = n
    while not tail(l + 1) <= k < tail(l):
        l -= 1
    return l


def packing_minimum(grid: TriGrid, k: int) -> int:
    """min of the two packing boundary sizes, by direct evaluation.

    Uses boundary() rather than the closed forms so every 0 <= k <= |V|
    is valid, including the diagonal-straddling sizes the formulas skip.
    """
    _check_size(grid, k)
    return min(
        len(boundary(grid, initial_segment(grid, k))),
        len(boundary(grid, final_segment(grid, k))),
    )
