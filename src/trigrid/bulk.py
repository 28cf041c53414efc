"""Vectorized batch operations over many vertex subsets at once.

A batch of sets is a (count, W) uint64 array, W = ceil(V / 64): row i
is set i's dense-id bitmask, 64 ids per word, low word first, so
pack_rows gives back VertexSet.bits.  The kernels work in blocks of
_BLOCK = 8192 sets, with shifts and np.bitwise_count.  When the batch is
one word wide (W = 1, so n <= 9), boundary_sizes and neighborhood_sizes
hand each block's word column to TriGrid.spread_bits itself, whose
row-shift network keeps every bit at a position <= V + n - 2 <= 62.
Wider batches, and compress at every width, cut their rows into one row
word per grid row (bit c of word r is vertex (c, r), cut from the row's
run of dense ids) and join them back when they return sets.  A row word
is the narrowest unsigned type that holds a grid row's n + 1 bits:
uint8 for n <= 7, uint16 for n <= 15, uint32 for n <= 31 and uint64 for
n <= 63, so every kernel refuses n > 63.
Each function imports numpy itself, so importing trigrid does not.
These back the large exhaustive and randomized sweeps; the scalar
operations in core/compress are the reference implementations they are
tested against.
"""

from __future__ import annotations

from .compress import _check_axis, _check_side
from .core import TriGrid, as_int

ORDER_LIMIT = 63  # the longest row, n + 1 vertices, must fit one uint64 word
# Sets per kernel pass: a block's row words stay in cache.  Of 4096, 8192
# and 16384, 8192 gave the least total time over sampled_check at n = 20
# and compress and neighborhood_sizes at n = 9.
_BLOCK = 1 << 13


def _check_order(grid: TriGrid) -> None:
    as_int(grid.n, "batch kernel order (one grid row per 64-bit word)", hi=ORDER_LIMIT)


def _blockwise(grid: TriGrid, sets: np.ndarray, cut, kernel) -> np.ndarray:
    """kernel(cut(grid, block)) over blocks of _BLOCK sets, results concatenated."""
    import numpy as np

    _check_order(grid)
    nv = grid.vertex_count
    width = -(-nv // 64)
    sets = np.asarray(sets)
    if sets.dtype != np.uint64 or sets.shape[1:] != (width,):
        raise ValueError(
            f"expected a (count, {width}) uint64 array of dense-id words for T_{grid.n}, "
            f"got {sets.dtype} of shape {sets.shape}"
        )
    if (sets[:, -1] >> (nv - 64 * (width - 1))).any():
        raise ValueError("sets have bits outside the grid")
    return np.concatenate(
        [
            kernel(cut(grid, sets[s : s + _BLOCK]))
            for s in range(0, max(len(sets), 1), _BLOCK)
        ]
    )


def _word_type(grid: TriGrid) -> type:
    """The narrowest unsigned numpy type holding a grid row's n + 1 bits."""
    import numpy as np

    n = grid.n
    return np.uint8 if n <= 7 else np.uint16 if n <= 15 else np.uint32 if n <= 31 else np.uint64


def _row_words(grid: TriGrid, sets: np.ndarray) -> np.ndarray:
    """(n + 1, count) row words: bit c of word r is vertex (c, r) of each set."""
    import numpy as np

    words = np.empty((grid.n + 1, len(sets)), dtype=_word_type(grid))
    for r, (off, mask) in enumerate(zip(grid._row_offset, grid._row_mask)):
        q, s = divmod(off, 64)
        w = sets[:, q] >> s
        if s + mask.bit_length() > 64:
            w |= sets[:, q + 1] << (64 - s)
        words[r] = w & mask
    return words


def _from_row_words(grid: TriGrid, words: np.ndarray) -> np.ndarray:
    """Inverse of _row_words: the (count, W) dense-id words."""
    import numpy as np

    sets = np.zeros((words.shape[1], -(-grid.vertex_count // 64)), dtype=np.uint64)
    for r, (off, mask) in enumerate(zip(grid._row_offset, grid._row_mask)):
        q, s = divmod(off, 64)
        w = words[r].astype(np.uint64, copy=False)
        sets[:, q] |= w << s
        if s + mask.bit_length() > 64:
            sets[:, q + 1] |= w >> (64 - s)
    return sets


def _row_masks(grid: TriGrid) -> np.ndarray:
    import numpy as np

    return np.array(grid._row_mask, dtype=_word_type(grid))[:, None]


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


def union_table(images) -> np.ndarray:
    """uint64 table whose entry b is the OR of images[j] over the bits j of b.

    Built by doubling in one preallocated table: entries 2^j..2^(j+1) - 1
    are entries 0..2^j - 1 ORed with images[j].  A map that takes unions
    to unions, such as a neighbour spread or a permutation of ids, is
    tabulated over a bit field by its images of the single bits.  An
    image is an int or a row of ints, each fitting 64 bits, and an entry
    has an image's shape, also when images is an empty (0, w) array.
    """
    import numpy as np

    images = np.asarray(images, dtype=np.uint64)
    table = np.zeros((1 << len(images), *images.shape[1:]), dtype=np.uint64)
    for j, image in enumerate(images):
        np.bitwise_or(table[: 1 << j], image, out=table[1 << j : 2 << j])
    return table


def subsets_from_ids(grid: TriGrid, ids: np.ndarray) -> np.ndarray:
    """Sets of subset counter values (bit j = dense id j), one word each.
    Ids that are not integers (floats, bools, strings) raise ValueError."""
    import numpy as np

    _check_order(grid)
    nv = grid.vertex_count
    if nv > 64:
        raise ValueError(f"T_{grid.n} has {nv} vertices; subset ids are 64-bit")
    if not isinstance(ids, np.ndarray):
        ids = np.array(ids, dtype=object)  # each id keeps its type: [3, 1 << 63] reads as float64
        if not all(isinstance(i, (int, np.integer)) and type(i) is not bool for i in ids.flat):
            raise ValueError("subset ids must be integers")
    elif ids.dtype.kind not in "iu":
        raise ValueError(f"subset ids must be integers, got {ids.dtype}")
    try:
        ids = ids.astype(np.uint64, copy=False)
    except OverflowError:
        raise ValueError("subset ids have bits outside the grid") from None
    if ids.ndim != 1:
        raise ValueError(f"expected a 1-D array of subset ids, got shape {ids.shape}")
    if (ids >> nv).any():
        raise ValueError("subset ids have bits outside the grid")
    return ids[:, None]


def random_subsets(grid: TriGrid, count: int, rng: np.random.Generator) -> np.ndarray:
    """count independent uniform subsets (each vertex in with probability 1/2).

    The same sets, and the same generator state after them, as the rows
    of rng.integers(0, 2, size=(count, V), dtype=np.uint8).  For a range
    of two, numpy keeps bit 7 of each byte of consecutive 32-bit
    outputs, low byte first; drawing those outputs whole skips its
    per-byte loop, and one packbits turns the cells into words.  Where
    the generator splits 64-bit outputs and holds no buffered half, the
    outputs are drawn two at a time as 64-bit words, and an odd last one
    with the 32-bit call, which buffers its high half as numpy would.
    """
    import numpy as np

    _check_order(grid)
    count = as_int(count, "count", 0)
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator, got {rng!r}")
    nv = grid.vertex_count
    outputs = -(-count * nv // 4)  # 32-bit outputs, four cells each
    # These bit generators give the low, then the high, half of one 64-bit
    # output as their next two 32-bit outputs (MT19937 does not), so with
    # no half buffered a 64-bit draw reads the bytes of two 32-bit draws.
    # Bit 7 of each byte is a cell; packbits reads any nonzero byte as 1.
    split = (np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox)
    bitgen = rng.bit_generator
    if type(bitgen) in split and not bitgen.state["has_uint32"]:
        words = rng.integers(0, 1 << 64, size=outputs // 2, dtype=np.uint64)
        words &= np.uint64(0x8080808080808080)
        cells = words.astype("<u8", copy=False).view(np.uint8)
        if outputs % 2:
            last = rng.integers(0, 1 << 32, size=1, dtype=np.uint32).astype("<u4")
            cells = np.concatenate([cells, last.view(np.uint8) & 0x80])
    else:
        words = rng.integers(0, 1 << 32, size=outputs, dtype=np.uint32)
        words &= np.uint32(0x80808080)
        cells = words.astype("<u4", copy=False).view(np.uint8)
    raw = np.zeros((count, 8 * -(-nv // 64)), dtype=np.uint8)
    cells = cells[: count * nv].reshape(count, nv)
    raw[:, : (nv + 7) // 8] = np.packbits(cells, axis=1, bitorder="little")
    return raw.view("<u8")


def pack_rows(sets: np.ndarray) -> list[int]:
    """Each set as a Python bitmask int, its VertexSet.bits."""
    import numpy as np

    sets = np.asarray(sets)
    if sets.dtype != np.uint64 or sets.ndim != 2:
        raise ValueError(f"expected a 2-D uint64 array of dense-id words, got {sets.dtype}")
    return [int.from_bytes(row.tobytes(), "little") for row in sets]


def _sizes(grid: TriGrid, sets: np.ndarray, closed: bool) -> np.ndarray:
    """Size of every set's spread, joined with the set (closed) or cut by it."""
    import numpy as np

    if grid.vertex_count <= 64:
        # One word per set: spread_bits runs its network on the (1, count)
        # word row.  Its bits stay at positions <= V + n - 2 <= 62 (n <= 9)
        # and its stage masks fit 63 bits, so no uint64 shift drops one.
        cut, spread = lambda grid, block: block.T, grid.spread_bits
    else:
        cut, spread = _row_words, lambda words: _spread(grid, words)

    def kernel(words):
        out = spread(words)
        if closed:
            out |= words
        else:
            out &= ~words
        return np.bitwise_count(out).sum(axis=0, dtype=np.int64)

    return _blockwise(grid, sets, cut, kernel)


def boundary_sizes(grid: TriGrid, sets: np.ndarray) -> np.ndarray:
    return _sizes(grid, sets, closed=False)


def neighborhood_sizes(grid: TriGrid, sets: np.ndarray) -> np.ndarray:
    return _sizes(grid, sets, closed=True)


def compress(grid: TriGrid, sets: np.ndarray, axis: int, side: str) -> np.ndarray:
    """Section compression of every set; matches compress_left/compress_right.

    A 2-section is a row word, and its popcount sets the interval.
    1-sections are sorted down their columns by _sort_columns.  For the
    right side the rows are reversed first and each column's cells past
    the hypotenuse count as members, so its own members end up against
    the hypotenuse.
    """
    import numpy as np

    axis = _check_axis(axis)
    _check_side(side)

    def kernel(words):
        masks = _row_masks(grid)
        # A shift by the row word's width gives 0, so both axis-2 rules fill a full row.
        one = words.dtype.type(1)
        if axis == 2 and side == "left":  # 0 - 1 for a full row
            filled = (one << np.bitwise_count(words)) - one
        elif axis == 2:  # the scalar m ^ m >> c
            filled = masks ^ masks >> np.bitwise_count(words)
        elif side == "left":
            filled = _sort_columns(words)
        else:
            filled = _sort_columns(words[::-1] | ~masks[::-1])[::-1] & masks
        return _from_row_words(grid, filled)

    return _blockwise(grid, sets, _row_words, kernel)
