"""Vectorized batch operations over many vertex subsets at once.

Subsets are rows of a (count, vertex_count) uint8 membership matrix,
column j = dense id j, nonzero = member.  Each kernel packs its matrix,
block by block, into one uint64 word per grid row (bit c of word r is
vertex (c, r), cut from the row's run of dense ids), works on those
words with shifts and np.bitwise_count, and unpacks once when it
returns a matrix.
A grid row holds at most n + 1 vertices, so every kernel refuses n > 63.
Each function imports numpy itself, so importing trigrid does not.
These back the large exhaustive and randomized sweeps; the scalar
operations in core/compress are the reference implementations they are
tested against.
"""

from __future__ import annotations

from .core import TriGrid, as_int

ORDER_LIMIT = 63  # the longest row, n + 1 vertices, must fit one uint64 word
_BLOCK = 1 << 12  # sets per kernel pass; a block's words stay in cache


def _check_order(grid: TriGrid) -> None:
    as_int(grid.n, "batch kernel order (one grid row per 64-bit word)", hi=ORDER_LIMIT)


def _blockwise(grid: TriGrid, mat: np.ndarray, kernel) -> np.ndarray:
    """kernel(row words) over blocks of _BLOCK sets, results concatenated."""
    import numpy as np

    _check_order(grid)
    mat = np.asarray(mat)
    nv = grid.vertex_count
    if mat.ndim != 2 or mat.shape[1] != nv:
        raise ValueError(
            f"expected a (count, {nv}) membership matrix for T_{grid.n}, "
            f"got shape {mat.shape}"
        )
    return np.concatenate(
        [
            kernel(_row_words(grid, mat[s : s + _BLOCK]))
            for s in range(0, max(len(mat), 1), _BLOCK)
        ]
    )


def _row_words(grid: TriGrid, mat: np.ndarray) -> np.ndarray:
    """(n + 1, count) uint64: bit c of word r is vertex (c, r) of each set."""
    import numpy as np

    nv = grid.vertex_count
    raw = np.zeros((mat.shape[0], 8 * -(-nv // 64)), dtype=np.uint8)
    raw[:, : (nv + 7) // 8] = np.packbits(mat, axis=1, bitorder="little")
    dense = raw.view(np.uint64)
    words = np.empty((grid.n + 1, mat.shape[0]), dtype=np.uint64)
    for r, (off, mask) in enumerate(zip(grid._row_offset, grid._row_mask)):
        q, s = divmod(off, 64)
        w = dense[:, q] >> s
        if s + mask.bit_length() > 64:
            w |= dense[:, q + 1] << (64 - s)
        words[r] = w & mask
    return words


def _membership(grid: TriGrid, words: np.ndarray) -> np.ndarray:
    """Inverse of _row_words: the (count, vertex_count) uint8 matrix."""
    import numpy as np

    nv = grid.vertex_count
    dense = np.zeros((words.shape[1], -(-nv // 64)), dtype=np.uint64)
    for r, (off, mask) in enumerate(zip(grid._row_offset, grid._row_mask)):
        q, s = divmod(off, 64)
        dense[:, q] |= words[r] << s
        if s + mask.bit_length() > 64:
            dense[:, q + 1] |= words[r] >> (64 - s)
    return np.unpackbits(dense.view(np.uint8), axis=1, count=nv, bitorder="little")


def _row_masks(grid: TriGrid) -> np.ndarray:
    import numpy as np

    return np.array(grid._row_mask, dtype=np.uint64)[:, None]


def _spread(grid: TriGrid, words: np.ndarray) -> np.ndarray:
    """Row-parallel neighbor spread of every set, as TriGrid.spread_bits."""
    s = words << 1
    s |= words >> 1
    s[1:] |= words[:-1]
    s[1:] |= words[:-1] >> 1
    s[:-1] |= words[1:]
    s[:-1] |= words[1:] << 1
    s &= _row_masks(grid)
    return s


def _sort_columns(words: np.ndarray) -> np.ndarray:
    """Move the members of every column to its lowest rows, in place.

    Odd-even transposition sort on the row words, with (a | b, a & b) as
    the comparator: n + 1 rounds sort every column of every set at once.
    """
    rows = len(words)
    for i in range(rows):
        lo = words[i % 2 : rows - 1 : 2]
        hi = words[i % 2 + 1 : rows : 2]
        both = lo & hi
        lo |= hi
        hi[...] = both
    return words


def _low_bits(b: np.ndarray) -> np.ndarray:
    """Words with the low b bits set; numpy shifts by 64 give 0, so b = 64 is all ones."""
    import numpy as np

    one = np.uint64(1)
    return (one << b) - one


def union_table(images) -> np.ndarray:
    """uint64 table whose entry b is the OR of images[j] over the bits j of b.

    Built by doubling: the table for images[:j + 1] is the one for
    images[:j] followed by the same entries ORed with images[j].  A map
    that takes unions to unions, such as a neighbour spread or a
    permutation of ids, is tabulated over a bit field by its images of
    the single bits.  Every image must fit 64 bits.
    """
    import numpy as np

    table = np.zeros(1, dtype=np.uint64)
    for image in images:
        table = np.concatenate((table, table | np.uint64(image)))
    return table


def subsets_from_ids(grid: TriGrid, ids: np.ndarray) -> np.ndarray:
    """Membership matrix for subset counter values (bit j = dense id j)."""
    import numpy as np

    _check_order(grid)
    nv = grid.vertex_count
    if nv > 64:
        raise ValueError(f"T_{grid.n} has {nv} vertices; subset ids are 64-bit")
    try:
        ids = np.asarray(ids, dtype="<u8")
    except OverflowError:
        raise ValueError("subset ids have bits outside the grid") from None
    if ids.ndim != 1:
        raise ValueError(f"expected a 1-D array of subset ids, got shape {ids.shape}")
    if (ids >> nv).any():
        raise ValueError("subset ids have bits outside the grid")
    return np.unpackbits(
        ids[:, None].view(np.uint8), axis=1, count=nv, bitorder="little"
    )


def random_subsets(grid: TriGrid, count: int, rng: np.random.Generator) -> np.ndarray:
    """count independent uniform subsets (each vertex in with probability 1/2).

    The same matrix, and the same generator state after it, as
    rng.integers(0, 2, size=(count, V), dtype=np.uint8).  For a range of
    two, numpy keeps bit 7 of each byte of consecutive 32-bit outputs,
    low byte first; drawing those outputs whole skips its per-byte loop.
    """
    import numpy as np

    _check_order(grid)
    nv = grid.vertex_count
    words = rng.integers(0, 1 << 32, size=-(-count * nv // 4), dtype=np.uint32)
    cells = words.astype("<u4", copy=False).view(np.uint8)[: count * nv]
    cells >>= 7  # in place: the matrix takes no more memory than the draw
    return cells.reshape(count, nv)


def pack_rows(mat: np.ndarray) -> list[int]:
    """Each row as a Python bitmask int (for cross-checks with VertexSet)."""
    import numpy as np

    packed = np.packbits(mat.astype(np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def boundary_sizes(grid: TriGrid, mat: np.ndarray) -> np.ndarray:
    import numpy as np

    def kernel(words):
        out = _spread(grid, words)
        out &= ~words
        return np.bitwise_count(out).sum(axis=0, dtype=np.int64)

    return _blockwise(grid, mat, kernel)


def neighborhood_sizes(grid: TriGrid, mat: np.ndarray) -> np.ndarray:
    import numpy as np

    def kernel(words):
        out = _spread(grid, words)
        out |= words
        return np.bitwise_count(out).sum(axis=0, dtype=np.int64)

    return _blockwise(grid, mat, kernel)


def compress(grid: TriGrid, mat: np.ndarray, axis: int, side: str) -> np.ndarray:
    """Section compression of every set; matches compress_left/compress_right.

    A 2-section is a row word, and its popcount sets the interval.
    1-sections are sorted down their columns by _sort_columns.  For the
    right side the rows are reversed first and each column's cells past
    the hypotenuse count as members, so its own members end up against
    the hypotenuse.
    """
    import numpy as np

    if type(axis) is not int or axis not in (1, 2):
        raise ValueError(f"axis must be 1 or 2, got {axis!r}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")

    def kernel(words):
        if axis == 2:
            counts = np.bitwise_count(words)
            if side == "left":
                filled = _low_bits(counts)
            else:
                length = np.arange(grid.n + 1, 0, -1, dtype=np.uint8)[:, None]
                filled = _low_bits(length) ^ _low_bits(length - counts)
        elif side == "left":
            filled = _sort_columns(words)
        else:
            masks = _row_masks(grid)
            filled = _sort_columns(words[::-1] | ~masks[::-1])[::-1] & masks
        return _membership(grid, filled)

    return _blockwise(grid, mat, kernel)
