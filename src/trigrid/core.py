"""Triangular grid graphs in shifted coordinates, plus vertex-set arithmetic.

The grid of order n has vertices (v1, v2) with v1, v2 >= 0 and v1 + v2 <= n,
drawn with rows horizontal (v2 = row index) and the hypotenuse on the
anti-diagonal v1 + v2 = n.  Edges join vertices differing by (+-1, 0),
(0, +-1), (+1, -1) or (-1, +1).
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_right
from typing import Iterable, Iterator, NamedTuple

# Canonical neighbor order: clockwise, starting from (v1+1, v2).
NEIGHBOR_OFFSETS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


def as_int(x, what: str) -> int:
    """The one integer rule for grid orders, coordinates, dense ids, lion
    indices and trace fields: Python and numpy integers pass as int;
    bools, floats, strings and anything else raise ValueError."""
    if type(x) is int:
        return x
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {x!r}")


class Coord(NamedTuple):
    v1: int
    v2: int

    @property
    def level(self) -> int:
        """Distance from the origin corner: v1 + v2."""
        return self.v1 + self.v2


class TriGrid:
    """The triangular grid graph of order n (>= 1), (n+1)(n+2)/2 vertices.

    Vertices carry dense integer ids in row-major order (row 0 first,
    left to right within a row), so each row occupies a contiguous bit
    range in set bitmasks.

    For spread_bits the grid also holds a fixed row-shift network on
    dense ids.  The up move (v1, r) -> (v1, r + 1) is id + (n + 1) - r:
    shift the set left by n + 1, then shift each row r right by r, one
    stage per bit of r, lowest bit first (stage b shifts the rows whose r
    has bit b set by 2^b).  The input drops each row's last vertex, which
    has no vertex above it; that gives every row one bit of slack, so no
    two rows ever overlap.  The down move runs the stages in reverse and
    then shifts right by n + 1; row 0, which has no row below it, lies
    below every stage mask and falls off in that shift.  _stages
    holds (2^b, rows to move, where they land) per stage, low bit first;
    _not_first and _not_last are the vertices off the first and the
    last column.
    """

    __slots__ = (
        "n", "vertex_count", "full_mask", "_row_offset", "_row_mask",
        "_stages", "_not_first", "_not_last",
    )

    def __init__(self, n: int):
        n = as_int(n, "grid order")
        if n < 1:
            raise ValueError(f"grid order must be at least 1, got {n}")
        self.n = n
        self.vertex_count = (n + 1) * (n + 2) // 2
        self.full_mask = (1 << self.vertex_count) - 1
        offsets = []
        off = 0
        for r in range(n + 1):
            offsets.append(off)
            off += n - r + 1
        self._row_offset = tuple(offsets)
        self._row_mask = tuple((1 << (n - r + 1)) - 1 for r in range(n + 1))
        self._stages = _row_shift_stages(self)
        lasts = [o - 1 for o in offsets[1:]] + [off - 1]
        self._not_first = self.full_mask ^ _sum_of_powers(offsets, off)
        self._not_last = self.full_mask ^ _sum_of_powers(lasts, off)

    def __repr__(self) -> str:
        return f"TriGrid({self.n})"

    def __eq__(self, other) -> bool:
        return isinstance(other, TriGrid) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("TriGrid", self.n))

    def contains(self, v) -> bool:
        """True when v is a pair of integers naming a vertex, else False."""
        try:
            self._vertex(v)
        except ValueError:
            return False
        return True

    def _vertex(self, v) -> tuple[int, int]:
        """The one pair decoder, for API and JSON input alike: a vertex as a
        pair of ints.  A non-pair, a coordinate that as_int refuses and a
        pair off the grid raise ValueError."""
        try:
            v1, v2 = v
        except (TypeError, ValueError):
            raise ValueError(f"expected a [v1, v2] pair, got {v!r}") from None
        # as_int's own fast path, inlined: this runs once per coordinate.
        if type(v1) is not int:
            v1 = as_int(v1, "v1")
        if type(v2) is not int:
            v2 = as_int(v2, "v2")
        if v1 < 0 or v2 < 0 or v1 + v2 > self.n:
            raise ValueError(f"{(v1, v2)} is not a vertex of T_{self.n}")
        return v1, v2

    def check(self, v) -> Coord:
        """Validate a coordinate pair and return it as a Coord."""
        return Coord._make(self._vertex(v))

    def index(self, v) -> int:
        """Dense id of a vertex: row offset plus column."""
        v1, v2 = self._vertex(v)
        return self._row_offset[v2] + v1

    def coord(self, i: int) -> Coord:
        """Vertex of a dense id, read with as_int."""
        i = as_int(i, "dense id")
        if not 0 <= i < self.vertex_count:
            raise ValueError(f"dense id {i} out of range for T_{self.n}")
        r = bisect_right(self._row_offset, i) - 1
        return Coord(i - self._row_offset[r], r)

    def vertices(self) -> Iterator[Coord]:
        for r in range(self.n + 1):
            for c in range(self.n - r + 1):
                yield Coord(c, r)

    def neighbors(self, v) -> list[Coord]:
        """Valid neighbors of v in the canonical clockwise order."""
        v1, v2 = self.check(v)
        n = self.n
        out = []
        for d1, d2 in NEIGHBOR_OFFSETS:
            u1, u2 = v1 + d1, v2 + d2
            if u1 >= 0 and u2 >= 0 and u1 + u2 <= n:
                out.append(Coord(u1, u2))
        return out

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def edge_count(self) -> int:
        return 3 * self.n * (self.n + 1) // 2

    def spread_bits(self, bits: int) -> int:
        """Union of the (strict) neighbor sets of all members of a bitmask.

        No per-row loop.  side, the set minus its last column, moves one
        column right as side << 1; flat, the set minus its first column,
        moves one column left as flat >> 1.  The up network lifts side
        and flat >> 1 together, so it covers the steps (0, +1) and
        (-1, +1) at once.  The down network lowers the whole set, and its
        output and that output one column right cover (0, -1) and (+1, -1).
        """
        stages = self._stages
        side = bits & self._not_last
        flat = bits & self._not_first
        up = (side | flat >> 1) << (self.n + 1)
        for shift, rows, _ in stages:
            t = up & rows
            up = up ^ t | t >> shift
        down = bits
        for shift, _, landed in reversed(stages):
            t = down & landed
            down = down ^ t | t << shift
        down >>= self.n + 1
        return side << 1 | flat >> 1 | up | down | down << 1

    def empty_set(self) -> "VertexSet":
        return VertexSet(self)

    def full_set(self) -> "VertexSet":
        return VertexSet.from_bits(self, self.full_mask)

    def set_of(self, coords: Iterable) -> "VertexSet":
        return VertexSet(self, coords)


def _row_shift_stages(grid: TriGrid) -> tuple[tuple[int, int, int], ...]:
    """The stages of TriGrid's up network, low bit first.

    After the shift by n + 1 and the stages for the bits below b, row r
    (its first n - r vertices) starts at its dense offset plus n + 1 - p,
    p the low b bits of r.  The rows that stage b moves come in blocks
    of 2^b consecutive rows, and within a block p grows by one per row
    exactly as the row shortens by one, so each block is one run of
    bits.  The mask is the sum of 2^end minus the sum of 2^start over
    the runs, built in O(V).
    """
    n = grid.n
    offs = grid._row_offset
    size = grid.vertex_count + n + 1
    stages = []
    for b in range((n - 1).bit_length()):
        shift = 1 << b
        firsts = range(shift, n, 2 * shift)
        lasts = [min(r + shift, n) - 1 for r in firsts]
        starts = [offs[r] + n + 1 for r in firsts]
        ends = [offs[r] + 2 * n + 1 - r - (r & (shift - 1)) for r in lasts]
        rows = _sum_of_powers(ends, size) - _sum_of_powers(starts, size)
        stages.append((shift, rows, rows >> shift))
    return tuple(stages)


def _sum_of_powers(positions: list[int], size: int) -> int:
    """Sum of 2^p over distinct positions p <= size, via one byte buffer."""
    buf = bytearray((size >> 3) + 1)
    for p in positions:
        buf[p >> 3] |= 1 << (p & 7)
    return int.from_bytes(buf, "little")


class VertexSet:
    """A subset of V(T_n): bitmask over dense ids plus cached cardinality."""

    __slots__ = ("grid", "bits", "_size")

    def __init__(self, grid: TriGrid, coords: Iterable = ()):
        self.grid = grid
        bits = 0
        for v in coords:
            bits |= 1 << grid.index(v)
        self.bits = bits
        self._size = bits.bit_count()

    @classmethod
    def from_bits(cls, grid: TriGrid, bits: int) -> "VertexSet":
        if bits & ~grid.full_mask:
            raise ValueError("bitmask has bits outside the grid")
        vs = cls.__new__(cls)
        vs.grid = grid
        vs.bits = bits
        vs._size = bits.bit_count()
        return vs

    @classmethod
    def from_hex(cls, grid: TriGrid, s: str) -> "VertexSet":
        return cls.from_bits(grid, int(s, 16))

    def to_hex(self) -> str:
        width = (self.grid.vertex_count + 3) // 4
        return format(self.bits, f"0{width}x")

    def to_pairs(self) -> list[list[int]]:
        """JSON form: [v1, v2] pairs sorted by dense id (row-major)."""
        return [[v1, v2] for v1, v2 in self]

    @classmethod
    def from_pairs(cls, grid: TriGrid, pairs) -> "VertexSet":
        """Inverse of to_pairs: a list or tuple of [v1, v2] pairs.

        A [v1, v2] list of two in-grid ints takes the direct path; every
        other entry goes through grid.index, which decodes tuples and
        refuses the rest with ValueError.
        """
        if not isinstance(pairs, (list, tuple)):
            raise ValueError(f"expected a list of [v1, v2] pairs, got {pairs!r}")
        n, offset = grid.n, grid._row_offset
        bits = 0
        for p in pairs:
            if type(p) is list and len(p) == 2:
                v1, v2 = p
                if type(v1) is type(v2) is int and v1 >= 0 and v2 >= 0 and v1 + v2 <= n:
                    bits |= 1 << (offset[v2] + v1)
                    continue
            bits |= 1 << grid.index(p)
        return cls.from_bits(grid, bits)

    def __contains__(self, v) -> bool:
        return bool(self.bits >> self.grid.index(v) & 1)

    def __iter__(self) -> Iterator[Coord]:
        """Members in dense-id order, decoded one row word at a time."""
        bits = self.bits
        for r, mask in enumerate(self.grid._row_mask):
            if not bits:
                return
            word = bits & mask
            bits >>= mask.bit_length()
            while word:
                low = word & -word
                yield Coord(low.bit_length() - 1, r)
                word ^= low

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and other.grid.n == self.grid.n
            and other.bits == self.bits
        )

    def __repr__(self) -> str:
        return f"VertexSet(T_{self.grid.n}, {[tuple(v) for v in self]})"

    def add(self, v) -> None:
        b = 1 << self.grid.index(v)
        if not self.bits & b:
            self.bits |= b
            self._size += 1

    def discard(self, v) -> None:
        b = 1 << self.grid.index(v)
        if self.bits & b:
            self.bits ^= b
            self._size -= 1

    def copy(self) -> "VertexSet":
        return VertexSet.from_bits(self.grid, self.bits)

    def _coerce(self, other: "VertexSet") -> int:
        if not isinstance(other, VertexSet) or other.grid.n != self.grid.n:
            raise ValueError("vertex sets belong to different grids")
        return other.bits

    def __or__(self, other) -> "VertexSet":
        return VertexSet.from_bits(self.grid, self.bits | self._coerce(other))

    def __and__(self, other) -> "VertexSet":
        return VertexSet.from_bits(self.grid, self.bits & self._coerce(other))

    def __sub__(self, other) -> "VertexSet":
        return VertexSet.from_bits(self.grid, self.bits & ~self._coerce(other))

    def __xor__(self, other) -> "VertexSet":
        return VertexSet.from_bits(self.grid, self.bits ^ self._coerce(other))

    def issubset(self, other) -> bool:
        return not self.bits & ~self._coerce(other)

    def complement(self) -> "VertexSet":
        return VertexSet.from_bits(self.grid, self.grid.full_mask & ~self.bits)


def csv_text(rows: list[dict]) -> str:
    """CSV of dict rows: a header of the first row's keys, then one line per
    row.  None is an empty cell; any other value is its JSON text, so bools
    read true/false."""
    lines = [",".join(rows[0])]
    lines += [",".join("" if v is None else json.dumps(v) for v in r.values()) for r in rows]
    return "\n".join(lines) + "\n"


def automorphism_id_permutations(grid: TriGrid) -> list[tuple[int, ...]]:
    """The 6 triangle symmetries as permutations of dense ids.

    A vertex (v1, v2) has the three coordinates (a, b, c) = (v1, v2,
    n - v1 - v2), and each symmetry permutes them.  In order: identity,
    the rotation (b, c), its square (c, a), the swap (b, a), and the two
    reflections (c, b) and (a, c) that fix rows and columns.
    """
    n = grid.n
    offs = grid._row_offset
    b = [r for r in range(n + 1) for _ in range(n + 1 - r)]
    a = [i - offs[r] for i, r in enumerate(b)]
    c = [n - x - y for x, y in zip(a, b)]
    images = ((a, b), (b, c), (c, a), (b, a), (c, b), (a, c))
    return [tuple(offs[y] + x for x, y in zip(xs, ys)) for xs, ys in images]


def _set_bits(grid: TriGrid, a: VertexSet) -> int:
    if a.grid.n != grid.n:
        raise ValueError("vertex set does not belong to this grid")
    return a.bits


def _ids(bits: int) -> list[int]:
    """Dense ids of the members of a bitmask, ascending."""
    ids = []
    while bits:
        low = bits & -bits
        ids.append(low.bit_length() - 1)
        bits ^= low
    return ids


def boundary(grid: TriGrid, a: VertexSet) -> VertexSet:
    """Vertex boundary: vertices outside a adjacent to a member of a."""
    bits = _set_bits(grid, a)
    return VertexSet.from_bits(grid, grid.spread_bits(bits) & ~bits)


def neighborhood(grid: TriGrid, a: VertexSet) -> VertexSet:
    """Closed neighborhood: a together with its boundary."""
    bits = _set_bits(grid, a)
    return VertexSet.from_bits(grid, bits | grid.spread_bits(bits))


def interior_boundary(grid: TriGrid, c: VertexSet) -> VertexSet:
    """Vertices of c adjacent to at least one vertex outside c."""
    bits = _set_bits(grid, c)
    outside = grid.full_mask & ~bits
    return VertexSet.from_bits(grid, grid.spread_bits(outside) & bits)


def render_ascii(
    grid: TriGrid,
    layers: Iterable[tuple[VertexSet, str]] = (),
    default: str = ".",
    row_n_top: bool = True,
) -> str:
    """Character rendering, one grid row per line, columns space-separated.

    Each layer is a (VertexSet, glyph) pair; where layers overlap the later
    one wins, and default fills the vertices in no layer.
    """
    marks = []
    for vset, glyph in layers:
        if type(glyph) is not str or len(glyph) != 1:
            raise ValueError(f"glyph {glyph!r} must be a single character")
        marks.append((_set_bits(grid, vset), glyph))
    rows = range(grid.n, -1, -1) if row_n_top else range(grid.n + 1)
    lines = []
    for r in rows:
        offset, mask = grid._row_offset[r], grid._row_mask[r]
        cells = [default] * (grid.n - r + 1)
        for bits, glyph in marks:
            word = bits >> offset & mask
            while word:
                low = word & -word
                cells[low.bit_length() - 1] = glyph
                word ^= low
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"
