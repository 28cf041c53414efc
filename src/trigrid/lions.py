"""Lions and contamination on the triangular grid.

Lions move simultaneously, one edge at most each per turn.  Contamination
then spreads from every pre-move contaminated vertex along edges no lion
traversed this turn, and never rests on an occupied vertex.  The column
sweep clears with n+1 lions; pairing consecutive position sets turns any
winning lion schedule into a search schedule of twice the budget.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import (
    NEIGHBOR_OFFSETS,
    Coord,
    TriGrid,
    VertexSet,
    _ids,
    as_int,
)
from .search import SearchTrace, TraceError, _reaches

EXACT_ORDER_LIMIT = 2
_STEPS = frozenset(NEIGHBOR_OFFSETS)


def _id(grid: TriGrid, v: Coord) -> int:
    """Dense id of a vertex that grid.check has already decoded."""
    return grid._row_offset[v.v2] + v.v1


def _mask(ids) -> int:
    bits = 0
    for i in ids:
        bits |= 1 << i
    return bits


def _contaminate(grid: TriGrid, cont: int, moves, occupied: int) -> int:
    """Contamination bits after a turn, on dense ids.

    moves holds (from_id, to_id) pairs, one per lion; a lion that stays has
    from_id == to_id.  cont spreads along every edge no lion traversed and
    never rests on occupied.  Only an endpoint of a traversed edge loses a
    route, so the rest of cont spreads at once and each contaminated
    endpoint spreads alone, minus its partners across traversed edges.
    """
    partners: dict[int, int] = {}
    ends = 0
    for a, b in moves:
        if a != b:
            partners[a] = partners.get(a, 0) | 1 << b
            partners[b] = partners.get(b, 0) | 1 << a
            ends |= 1 << a | 1 << b
    out = cont | grid.spread_bits(cont & ~ends)
    for u in _ids(cont & ends):
        out |= grid.spread_bits(1 << u) & ~partners[u]
    return out & ~occupied


def _legal_moves(grid: TriGrid, positions: Sequence[Coord], turn) -> list[tuple[int, Coord]]:
    """The (lion, destination) pairs of a turn that change a lion's vertex.

    positions are the lions' checked vertices.  A lion index that as_int
    refuses, is out of range or is named twice, a destination off the
    grid and a move along a non-edge raise ValueError; a destination of
    None or the lion's own vertex stays.
    """
    named = set()
    moves = []
    for idx, dest in turn:
        idx = as_int(idx, "lion index")
        if not 0 <= idx < len(positions):
            raise ValueError(f"lion index {idx} out of range")
        if idx in named:
            raise ValueError(f"lion {idx} is named twice in one turn")
        named.add(idx)
        if dest is None:
            continue
        dest = grid.check(dest)
        prev = positions[idx]
        if dest == prev:
            continue
        if (dest.v1 - prev.v1, dest.v2 - prev.v2) not in _STEPS:
            raise ValueError(f"illegal lion move {tuple(prev)} -> {tuple(dest)}")
        moves.append((idx, dest))
    return moves


def _turn(
    grid: TriGrid, positions: tuple[Coord, ...], ids: list[int], turn, cont: int
) -> tuple[tuple[Coord, ...], int, int]:
    """Validate and play one turn: the new positions, occupancy bits and
    contamination bits.

    Past validation the turn runs on dense ids: ids (one per lion, in step
    with positions) is updated in place and cont is a bitmask.
    """
    moves = _legal_moves(grid, positions, turn)
    moved = list(positions)
    traversed = []
    for idx, dest in moves:
        moved[idx] = dest
        dest_id = _id(grid, dest)
        traversed.append((ids[idx], dest_id))
        ids[idx] = dest_id
    occupied = _mask(ids)
    return tuple(moved), occupied, _contaminate(grid, cont, traversed, occupied)


def lion_step(
    grid: TriGrid,
    positions: Sequence[Coord],
    dests: Sequence[Optional[Coord]],
    contaminated: VertexSet,
) -> tuple[tuple[Coord, ...], VertexSet]:
    """Advance one turn: dests[i] is lion i's destination (None = stay).

    Traversed edges block spread in both directions for this turn only; a
    vertex a lion vacates can be recontaminated through any other edge in
    the same turn.  Moving along a non-edge raises ValueError.
    """
    if len(dests) != len(positions):
        raise ValueError("one destination entry per lion required")
    positions = tuple(grid.check(v) for v in positions)
    ids = [_id(grid, v) for v in positions]
    new_positions, _, cont = _turn(grid, positions, ids, enumerate(dests), contaminated.bits)
    return new_positions, VertexSet.from_bits(grid, cont)


Turn = list[tuple[int, Optional[Coord]]]


@dataclass
class LionTrace:
    """A lion schedule plus the states its replay produces.

    turns[j] lists (lion_index, destination) for the lions that move on
    turn j, as given to from_moves; unlisted lions stay.  positions[0]/contaminated[0] are the
    initial state (everything unoccupied starts contaminated).  occupied[k]
    is the bitmask of positions[k], kept from the replay.
    """

    grid: TriGrid
    start: tuple[Coord, ...]
    turns: list[Turn]
    positions: list[tuple[Coord, ...]] = field(default_factory=list)
    contaminated: list[VertexSet] = field(default_factory=list)
    occupied: list[int] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def lions(self) -> int:
        return len(self.start)

    @classmethod
    def from_moves(
        cls, grid: TriGrid, start: Sequence[Coord], turns: list[Turn]
    ) -> "LionTrace":
        start = tuple(grid.check(v) for v in start)
        ids = [_id(grid, v) for v in start]
        occupied = [_mask(ids)]
        cont = grid.full_mask & ~occupied[0]
        positions = [start]
        contaminated = [VertexSet.from_bits(grid, cont)]
        for turn in turns:
            pos, occ, cont = _turn(grid, positions[-1], ids, turn, cont)
            positions.append(pos)
            occupied.append(occ)
            contaminated.append(VertexSet.from_bits(grid, cont))
        return cls(grid, start, turns, positions, contaminated, occupied)

    def is_winning(self) -> bool:
        return not self.contaminated[-1]

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "lions": self.lions,
            "start": [[v.v1, v.v2] for v in self.start],
            "moves": [
                [[idx, None if dest is None else [dest[0], dest[1]]] for idx, dest in turn]
                for turn in self.turns
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "LionTrace":
        try:
            grid = TriGrid(obj["n"])
            start = obj["start"]
            if "lions" in obj and as_int(obj["lions"], "lions") != len(start):
                raise ValueError("lion count does not match start positions")
            return cls.from_moves(grid, start, obj["moves"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed lion trace: {exc}") from exc


def column_sweep_strategy(grid: TriGrid) -> LionTrace:
    """Clear T_n with n+1 lions starting on column 0.

    Sweeping column c moves the lions of rows 0..n-c-1 one column right,
    one lion per turn from the bottom up; the top lion of the column
    stays behind as a permanent guard on the diagonal.
    """
    n = grid.n
    start = [Coord(0, r) for r in range(n + 1)]
    turns: list[Turn] = []
    for c in range(n):
        for r in range(n - c):
            turns.append([(r, Coord(c + 1, r))])
    return LionTrace.from_moves(grid, start, turns)


def coupled_searches(trace: LionTrace) -> list[VertexSet]:
    """Search schedule P(k-1) | P(k) (turn 0 searches the start positions).

    Reads the occupancy masks the replay kept; a trace whose occupied
    list is not in step with its positions raises ValueError.
    """
    grid = trace.grid
    masks = trace.occupied
    if len(masks) != len(trace.positions):
        raise ValueError(
            f"trace has {len(masks)} occupancy masks for {len(trace.positions)} states;"
            " build it with LionTrace.from_moves"
        )
    searches = [VertexSet.from_bits(grid, masks[0])]
    for prev, cur in zip(masks, masks[1:]):
        searches.append(VertexSet.from_bits(grid, prev | cur))
    return searches


def couple_to_search(trace: LionTrace) -> SearchTrace:
    """Turn a winning lion trace into a verifying search trace, budget 2L."""
    if not trace.is_winning():
        raise ValueError("lion trace does not clear the grid; refusing to couple")
    return SearchTrace.from_searches(
        trace.grid, 2 * trace.lions, coupled_searches(trace)
    )


def claim_check(trace: LionTrace) -> bool:
    """Lockstep containment of cleared sets: cleared-by-lions is always
    inside cleared-by-coupled-search, equivalently every post-search dirty
    set stays inside the contaminated set.  Holds for any legal trace,
    winning or not."""
    grid = trace.grid
    dirty = grid.full_mask
    for search, cont in zip(coupled_searches(trace), trace.contaminated):
        post = dirty & ~search.bits
        if post & ~cont.bits:
            return False
        dirty = post | grid.spread_bits(post)
    return True


def random_legal_walk(
    grid: TriGrid, lions: int, turns: int, rng: random.Random
) -> LionTrace:
    """A random legal lion schedule (for property checks; rarely winning)."""
    start = [grid.coord(rng.randrange(grid.vertex_count)) for _ in range(lions)]
    positions = list(start)
    turn_list: list[Turn] = []
    for _ in range(turns):
        turn: Turn = []
        for i, p in enumerate(positions):
            options = [None] + grid.neighbors(p)
            dest = options[rng.randrange(len(options))]
            if dest is not None:
                turn.append((i, dest))
                positions[i] = dest
        turn_list.append(turn)
    return LionTrace.from_moves(grid, start, turn_list)


def _lions_can_clear(grid: TriGrid, lions: int) -> bool:
    """Whether some placement of the lions has a clearing schedule.

    One breadth-first search from every placement at once, over states
    (positions as sorted ids, contamination bits); every simultaneous move
    product, swaps and stacking included, is played through _contaminate.
    """
    nv = grid.vertex_count
    options = [[v] + _ids(grid.spread_bits(1 << v)) for v in range(nv)]  # stay first
    starts = [
        (pos, grid.full_mask & ~_mask(pos))
        for pos in itertools.combinations_with_replacement(range(nv), lions)
    ]

    def expand(state):
        pos, cont = state
        succ = []
        for dests in itertools.product(*(options[p] for p in pos)):
            new = _contaminate(grid, cont, zip(pos, dests), _mask(dests))
            if not new:
                return None
            succ.append((tuple(sorted(dests)), new))
        return succ

    return _reaches(starts, expand)


def exact_lion_number(grid: TriGrid, max_l: int) -> int | None:
    """Least lion count with a clearing schedule, or None past max_l (n <= 2).

    For each count, breadth-first search from every initial placement over
    (positions up to permutation, contamination) states; all simultaneous
    move combinations, including swaps and stacking, are explored.
    """
    if grid.n > EXACT_ORDER_LIMIT:
        raise ValueError(f"exact lion solving supports n <= {EXACT_ORDER_LIMIT}")
    if max_l < 1:
        raise ValueError(f"max_l must be at least 1, got {max_l}")
    for lions in range(1, max_l + 1):
        if _lions_can_clear(grid, lions):
            return lions
    return None
