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
import operator
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import (
    NEIGHBOR_OFFSETS,
    Coord,
    TriGrid,
    VertexSet,
    automorphism_id_permutations,
    coords_from_json,
    json_int,
)
from .search import SearchTrace, TraceError

EXACT_ORDER_LIMIT = 2
_STEPS = frozenset(NEIGHBOR_OFFSETS)


def _edge_key(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def _block_traversed(base: int, cont: int, traversed: set, nbr_ids) -> int:
    """Remove from base the vertices whose every spread route was traversed.

    base is cont | spread(cont); a traversed edge blocks spread this turn,
    and only endpoints of traversed edges can have lost a route, so
    nbr_ids(v) (the neighbour ids of dense id v) is asked for those alone.
    """
    for a, b in traversed:
        for v in (a, b):
            if cont >> v & 1 or not base >> v & 1:
                continue
            if not any(
                cont >> u & 1 and _edge_key(u, v) not in traversed for u in nbr_ids(v)
            ):
                base &= ~(1 << v)
    return base


def _mask(ids) -> int:
    bits = 0
    for i in ids:
        bits |= 1 << i
    return bits


def _legal_moves(grid: TriGrid, positions: Sequence[Coord], turn) -> list[tuple[int, Coord]]:
    """The (lion, destination) pairs of a turn that change a lion's vertex.

    positions are the lions' checked vertices.  A lion index out of range
    or named twice, a destination off the grid and a move along a non-edge
    raise ValueError; a destination of None or the lion's own vertex stays.
    """
    named = set()
    moves = []
    for idx, dest in turn:
        try:
            idx = operator.index(idx)
        except TypeError:
            raise ValueError(f"lion index {idx!r} is not an integer") from None
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
) -> tuple[tuple[Coord, ...], int]:
    """Validate and play one turn: the new positions and contamination bits.

    Past validation the turn runs on dense ids: ids (one per lion, in step
    with positions) is updated in place and cont is a bitmask.
    """
    moves = _legal_moves(grid, positions, turn)
    moved = list(positions)
    traversed = set()
    for idx, dest in moves:
        moved[idx] = dest
        dest_id = grid.index(dest)
        traversed.add(_edge_key(ids[idx], dest_id))
        ids[idx] = dest_id
    base = _block_traversed(
        cont | grid.spread_bits(cont),
        cont,
        traversed,
        lambda v: [grid.index(u) for u in grid.neighbors(grid.coord(v))],
    )
    return tuple(moved), base & ~_mask(ids)


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
    ids = [grid.index(v) for v in positions]
    new_positions, cont = _turn(grid, positions, ids, enumerate(dests), contaminated.bits)
    return new_positions, VertexSet.from_bits(grid, cont)


Turn = list[tuple[int, Optional[Coord]]]


@dataclass
class LionTrace:
    """A lion schedule plus the states its replay produces.

    turns[j] lists (lion_index, destination) for the lions that move on
    turn j; unlisted lions stay.  positions[0]/contaminated[0] are the
    initial state (everything unoccupied starts contaminated).
    """

    grid: TriGrid
    start: tuple[Coord, ...]
    turns: list[Turn]
    positions: list[tuple[Coord, ...]] = field(default_factory=list)
    contaminated: list[VertexSet] = field(default_factory=list)

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
        ids = [grid.index(v) for v in start]
        cont = grid.full_mask & ~_mask(ids)
        positions = [start]
        contaminated = [VertexSet.from_bits(grid, cont)]
        for turn in turns:
            pos, cont = _turn(grid, positions[-1], ids, turn, cont)
            positions.append(pos)
            contaminated.append(VertexSet.from_bits(grid, cont))
        return cls(grid, start, turns, positions, contaminated)

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
            grid = TriGrid(json_int(obj["n"], "n"))
            start = coords_from_json(obj["start"])
            if "lions" in obj and json_int(obj["lions"], "lions") != len(start):
                raise ValueError("lion count does not match start positions")
            turns: list[Turn] = [
                [
                    (
                        json_int(idx, "lion index"),
                        None if dest is None else coords_from_json([dest])[0],
                    )
                    for idx, dest in raw_turn
                ]
                for raw_turn in obj["moves"]
            ]
            return cls.from_moves(grid, start, turns)
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
    """Search schedule P(k-1) | P(k) (turn 0 searches the start positions)."""
    grid = trace.grid
    masks = [_mask(map(grid.index, pos)) for pos in trace.positions]
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
    dirty = grid.full_set()
    for search, cont in zip(coupled_searches(trace), trace.contaminated):
        post = dirty.bits & ~search.bits
        if post & ~cont.bits:
            return False
        dirty = VertexSet.from_bits(grid, post | grid.spread_bits(post))
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


def _canonical_placements(grid: TriGrid, lions: int) -> list[tuple[int, ...]]:
    perms = automorphism_id_permutations(grid)
    seen = set()
    out = []
    for combo in itertools.combinations_with_replacement(range(grid.vertex_count), lions):
        key = min(tuple(sorted(p[i] for i in combo)) for p in perms)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _lions_win_from(grid: TriGrid, start_ids: tuple[int, ...]) -> bool:
    nv = grid.vertex_count
    full = grid.full_mask
    nbr_ids = [
        [grid.index(u) for u in grid.neighbors(grid.coord(i))] for i in range(nv)
    ]
    options = [[i] + nbr_ids[i] for i in range(nv)]  # stay first
    occ0 = 0
    for i in start_ids:
        occ0 |= 1 << i
    cont0 = full & ~occ0
    if cont0 == 0:
        return True
    start_key = (tuple(sorted(start_ids)), cont0)
    visited = {start_key}
    queue = deque([(start_ids, cont0)])
    while queue:
        pos, cont = queue.popleft()
        spread = grid.spread_bits(cont)
        for dests in itertools.product(*(options[p] for p in pos)):
            traversed = set()
            occ = 0
            for prev, dest in zip(pos, dests):
                occ |= 1 << dest
                if dest != prev:
                    traversed.add(_edge_key(prev, dest))
            base = _block_traversed(cont | spread, cont, traversed, nbr_ids.__getitem__)
            new_cont = base & ~occ
            if new_cont == 0:
                return True
            key = (tuple(sorted(dests)), new_cont)
            if key not in visited:
                visited.add(key)
                queue.append((dests, new_cont))
    return False


def exact_lion_number(grid: TriGrid, max_l: int) -> int | None:
    """Least lion count with a clearing schedule, or None past max_l (n <= 2).

    Tries every initial placement up to the triangle's symmetries, then
    breadth-first search over (positions up to permutation, contamination)
    states; all simultaneous move combinations, including swaps and
    stacking, are explored.
    """
    if grid.n > EXACT_ORDER_LIMIT:
        raise ValueError(f"exact lion solving supports n <= {EXACT_ORDER_LIMIT}")
    if max_l < 1:
        raise ValueError(f"max_l must be at least 1, got {max_l}")
    for lions in range(1, max_l + 1):
        for start in _canonical_placements(grid, lions):
            if _lions_win_from(grid, start):
                return lions
    return None
