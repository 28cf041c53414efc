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
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .core import (
    Coord,
    TriGrid,
    VertexSet,
    automorphism_id_permutations,
    coords_from_json,
    json_int,
)
from .search import SearchTrace, TraceError

EXACT_ORDER_LIMIT = 2


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
    new_positions = []
    traversed: set[tuple[int, int]] = set()
    for prev, dest in zip(positions, dests):
        prev = grid.check(prev)
        if dest is None or tuple(dest) == tuple(prev):
            new_positions.append(prev)
            continue
        dest = grid.check(dest)
        if dest not in grid.neighbors(prev):
            raise ValueError(f"illegal lion move {tuple(prev)} -> {tuple(dest)}")
        new_positions.append(dest)
        traversed.add(_edge_key(grid.index(prev), grid.index(dest)))
    occupied = 0
    for v in new_positions:
        occupied |= 1 << grid.index(v)
    cont = contaminated.bits
    base = _block_traversed(
        cont | grid.spread_bits(cont),
        cont,
        traversed,
        lambda v: (grid.index(u) for u in grid.neighbors(grid.coord(v))),
    )
    new_cont = VertexSet.from_bits(grid, base & ~occupied)
    return tuple(new_positions), new_cont


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
        trace = cls(grid=grid, start=start, turns=turns)
        occupied = VertexSet(grid, start)
        positions = [start]
        contaminated = [occupied.complement()]
        for turn in turns:
            dests: list[Optional[Coord]] = [None] * len(start)
            for idx, dest in turn:
                if not 0 <= idx < len(start):
                    raise ValueError(f"lion index {idx} out of range")
                dests[idx] = None if dest is None else grid.check(dest)
            pos, cont = lion_step(grid, positions[-1], dests, contaminated[-1])
            positions.append(pos)
            contaminated.append(cont)
        trace.positions = positions
        trace.contaminated = contaminated
        return trace

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
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed lion trace: {exc}") from exc
        return cls.from_moves(grid, start, turns)


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
    searches = [VertexSet(grid, trace.positions[0])]
    for prev, cur in zip(trace.positions, trace.positions[1:]):
        searches.append(VertexSet(grid, set(prev) | set(cur)))
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
