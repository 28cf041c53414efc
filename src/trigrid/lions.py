"""Lions and contamination on the triangular grid.

Lions move simultaneously, one edge at most each per turn.  Contamination
then spreads from every pre-move contaminated vertex along edges no lion
traversed this turn, and never rests on an occupied vertex.  The column
sweep clears with n+1 lions; pairing consecutive position sets turns any
winning lion schedule into a search schedule of twice the budget.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .core import (
    NEIGHBOR_OFFSETS,
    Coord,
    TriGrid,
    VertexSet,
    _ids,
    _mask,
    _set_bits,
    as_int,
    automorphism_id_permutations,
)
from .search import SearchTrace, TraceError, _dirty_states, _least, _reaches

EXACT_ORDER_LIMIT = 2
_STEPS = frozenset(NEIGHBOR_OFFSETS)
Turn = list[tuple[int, Optional[Coord]]]


def _id(grid: TriGrid, v: Coord) -> int:
    """Dense id of a vertex that grid.check has already decoded."""
    return grid._row_offset[v.v2] + v.v1


def _fixups(moves, occupied: int, nbr) -> tuple[tuple[int, int], ...]:
    """A turn's corrections to the unblocked spread, as (bit, keep) pairs.

    moves holds (from_id, to_id) pairs, one per lion; a lion that stays has
    from_id == to_id.  Each unoccupied end w of a traversed edge gets the
    pair (1 << w, {w} | nbr(w) minus w's partners across traversed edges),
    nbr(w) being w's neighbour bitmask (TriGrid._neighbor_bits, or a table
    of it); ends are in ascending id order, so equal turns give equal
    tuples.  The cost is O(moves), whatever the grid's size.
    """
    partners: dict[int, int] = {}
    for a, b in moves:
        if a != b:
            partners[a] = partners.get(a, 0) | 1 << b
            partners[b] = partners.get(b, 0) | 1 << a
    return tuple(
        (1 << w, 1 << w | nbr(w) & ~p)
        for w, p in sorted(partners.items())
        if not occupied >> w & 1
    )


def _settle(cont: int, out: int, fixups, occupied: int) -> int:
    """Contamination bits after a turn, from out = cont | spread(cont) and
    the turn's _fixups; the one rule that the replay (_turn) and the
    solver (_lion_solver) both play.

    The rule: a vertex ends contaminated when no lion stands on it and it
    was contaminated or has a contaminated neighbour across an edge no
    lion traversed.  cont spreads once, along every edge; only an end w
    of a traversed edge can have gained a bit across a blocked edge.  If
    w was contaminated it stays so (w is in its keep mask); otherwise it
    keeps the bit exactly when a neighbour across an unblocked edge, one
    outside its partners, is contaminated.  When w has no contaminated
    partner that is the same as the spread's own verdict, so the fix-up
    changes nothing there.  Ends a lion stands on are cleared anyway and
    get no fix-up.  So a turn costs one spread of cont plus an O(1)
    neighbour mask, TriGrid._neighbor_bits, per fix-up end.
    """
    for bit, keep in fixups:
        if not cont & keep:
            out &= ~bit
    return out & ~occupied


def _turn(
    grid: TriGrid, positions: tuple[Coord, ...], here: Counter, occupied: int, turn, cont: int,
) -> tuple[Turn, tuple[Coord, ...], int, int]:
    """Validate and play one turn: the entries it checked, the new
    positions, occupancy bits and contamination bits (by _settle).

    positions are the lions' checked vertices, the one record of where
    they stand.  One loop keeps each entry as (index as int, Coord or
    None) once checked, and records its move as a (from id, to id) pair:
    a lion index that as_int refuses, is out of range or is named twice,
    a destination off the grid and a move along a non-edge raise
    ValueError; a destination of None or the lion's own vertex stays.
    Only then, in O(moves), do here (a Counter of the lions on each
    occupied id) and the occupied bits change: a move sets its
    destination's bit and clears the vertex it leaves once no lion is
    left there, so stacked lions and swaps keep their vertices.
    """
    moved = list(positions)
    checked: Turn = []
    named = set()
    traversed = []
    for idx, dest in turn:
        idx = as_int(idx, "lion index", 0, len(positions) - 1)
        if idx in named:
            raise ValueError(f"lion {idx} is named twice in one turn")
        named.add(idx)
        if dest is not None:
            dest = grid.check(dest)
        checked.append((idx, dest))
        prev = positions[idx]
        if dest is None or dest == prev:
            continue
        if (dest.v1 - prev.v1, dest.v2 - prev.v2) not in _STEPS:
            raise ValueError(f"illegal lion move {tuple(prev)} -> {tuple(dest)}")
        moved[idx] = dest
        traversed.append((_id(grid, prev), _id(grid, dest)))
    for a, b in traversed:
        here[a] -= 1
        here[b] += 1
        occupied |= 1 << b
        if not here[a]:
            occupied &= ~(1 << a)
    fixups = _fixups(traversed, occupied, grid._neighbor_bits)
    cont = _settle(cont, cont | grid.spread_bits(cont), fixups, occupied)
    return checked, tuple(moved), occupied, cont


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
    here = Counter(_id(grid, v) for v in positions)
    cont = _set_bits(grid, contaminated)
    _, new_positions, _, cont = _turn(grid, positions, here, _mask(here), enumerate(dests), cont)
    return new_positions, VertexSet.from_bits(grid, cont)


@dataclass
class LionTrace:
    """A lion schedule plus the states its replay produces.

    turns[j] lists (lion_index, destination) for the lions named on turn
    j, as the replay checked them: the index an int, the destination a
    Coord or None; unlisted lions stay.  positions[0]/contaminated[0] are
    the initial state (everything unoccupied starts contaminated).
    occupied[k] is the bitmask of positions[k], kept from the replay.
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
        cls, grid: TriGrid, start: Sequence[Coord], turns: Iterable[Iterable]
    ) -> "LionTrace":
        """Replay turns, any iterable of iterables of (lion index,
        destination) pairs, once; turns keeps the entries _turn checked."""
        start = tuple(grid.check(v) for v in start)
        here = Counter(_id(grid, v) for v in start)
        occ = _mask(here)
        occupied = [occ]
        cont = grid.full_mask & ~occ
        positions = [start]
        contaminated = [VertexSet.from_bits(grid, cont)]
        checked = []
        for turn in turns:
            moves, pos, occ, cont = _turn(grid, positions[-1], here, occ, turn, cont)
            checked.append(moves)
            positions.append(pos)
            occupied.append(occ)
            contaminated.append(VertexSet.from_bits(grid, cont))
        return cls(grid, start, checked, positions, contaminated, occupied)

    def is_winning(self) -> bool:
        if not self.contaminated:
            raise ValueError("trace has no replayed states; build it with LionTrace.from_moves")
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
        """json.dumps(to_json_obj(), sort_keys=True, indent=2) plus a newline.

        The text is written directly, as SearchTrace.to_json writes its
        own, because indent makes json use its pure-Python encoder: one
        string per move, per turn and per start vertex, joined into their
        arrays.  Every lion index and coordinate is an int that from_moves
        checked, so each is written by an f-string as str gives it.
        """
        def array(items: list[str], indent: str) -> str:
            return "[" + ",".join(items) + "\n" + indent + "]" if items else "[]"

        turns = []
        for turn in self.turns:
            moves = []
            for idx, dest in turn:
                to = "null"
                if dest is not None:
                    to = f"[\n          {dest[0]},\n          {dest[1]}\n        ]"
                moves.append(f"\n      [\n        {idx},\n        {to}\n      ]")
            turns.append("\n    " + array(moves, "    "))
        start = [f"\n    [\n      {v.v1},\n      {v.v2}\n    ]" for v in self.start]
        return (
            f'{{\n  "lions": {self.lions},\n  "moves": {array(turns, "  ")},'
            f'\n  "n": {self.n},\n  "start": {array(start, "  ")}\n}}\n'
        )

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
    """Search schedule: turn k searches P(k-1) | P(k), with P(-1) = P(0).

    Reads the occupancy masks the replay kept; a trace whose occupied
    list is empty or not in step with its positions raises ValueError.
    """
    grid = trace.grid
    masks = trace.occupied
    if not masks or len(masks) != len(trace.positions):
        raise ValueError(
            f"trace has {len(masks)} occupancy masks for {len(trace.positions)} states;"
            " build it with LionTrace.from_moves"
        )
    return [VertexSet.from_bits(grid, prev | cur) for prev, cur in zip(masks[:1] + masks, masks)]


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
    winning or not.  The coupled searches replay through
    search._dirty_states, and come first in the zip, so no spread runs
    past the last turn.  A trace whose contaminated list is not one set
    per state, or holds an entry _set_bits refuses, raises ValueError
    before the replay, as coupled_searches does for occupancy."""
    grid = trace.grid
    searches = coupled_searches(trace)
    if len(trace.contaminated) != len(trace.positions):
        raise ValueError(
            f"trace has {len(trace.contaminated)} contaminated sets"
            f" for {len(trace.positions)} states;"
            " build it with LionTrace.from_moves"
        )
    conts = [_set_bits(grid, c) for c in trace.contaminated]
    dirty = itertools.chain([grid.full_mask], _dirty_states(grid, searches))
    for search, cont, before in zip(searches, conts, dirty):
        if before & ~search.bits & ~cont:
            return False
    return True


def random_legal_walk(
    grid: TriGrid, lions: int, turns: int, rng: random.Random
) -> LionTrace:
    """A random legal lion schedule (for property checks; rarely winning)."""
    lions, turns = as_int(lions, "lions", 0), as_int(turns, "turns", 0)
    start = [grid.coord(rng.randrange(grid.vertex_count)) for _ in range(lions)]
    positions = list(start)
    options: dict[Coord, list] = {}  # stay first, then the neighbours
    turn_list: list[Turn] = []
    for _ in range(turns):
        turn: Turn = []
        for i, p in enumerate(positions):
            opts = options.get(p)
            if opts is None:
                opts = options[p] = [None] + grid.neighbors(p)
            dest = opts[rng.randrange(len(opts))]
            if dest is not None:
                turn.append((i, dest))
                positions[i] = dest
        turn_list.append(turn)
    return LionTrace.from_moves(grid, start, turn_list)


def _union_table(images: list[int]) -> list[int]:
    """Entry b is the OR of images[j] over the bits j of b, built by
    doubling as bulk.union_table, on Python ints."""
    table = [0]
    for image in images:
        table += [t | image for t in table]
    return table


def _lion_solver(grid: TriGrid):
    """can_clear(lions): whether some placement of that many lions has a
    clearing schedule.

    One breadth-first search from every placement at once, over states
    (positions as sorted ids, contamination bits).  The per-grid tables
    (neighbour masks, one TriGrid._neighbor_bits per vertex, move options
    and the symmetry images) are built here once, for every lion count;
    each call keeps its own per-placement caches and frees them on return.

    - Moves: every simultaneous move, swaps and stacking included.  The
      lions on one vertex are interchangeable, so each occupied vertex
      sends a multiset of its options (combinations_with_replacement),
      and a placement's moves are the products of those multisets.
      Swapping two stacked lions' destinations changes neither the sorted
      destinations nor the moves' (from, to) multiset, which is all
      _fixups reads, so each group below gets the fix-up set that every
      ordered product would give.  Each sorted placement's moves are
      tabulated on first use, grouped by sorted destinations:
      (destinations, occupancy, their symmetry images, the distinct
      _fixups tuples of the group).
      A state spreads its contamination once, and each product settles
      that one spread with _settle, the rule the replay plays too.  A
      product that leaves nothing contaminated wins.
    - Symmetry: a triangle symmetry maps edges to edges, so it maps a
      turn from (P, C) to a turn from its image, with the traversed edges,
      occupancy and contamination all mapped alike.  A state can be
      cleared exactly when each of its six images can, so the search
      keeps one image per state: the least (contamination, positions)
      pair.  Positions map through a per-placement image cache.  In the
      packed table, entry i holds id i's five images nv bits apart, so a
      lookup over the low 8 ids and one over the rest give all five
      images of a contamination mask.
    """
    nv = grid.vertex_count
    nbr = [grid._neighbor_bits(v) for v in range(nv)]
    options = [[v] + _ids(nbr[v]) for v in range(nv)]  # stay first
    perms = automorphism_id_permutations(grid)[1:]
    packed = [_mask(perm[i] + k * nv for k, perm in enumerate(perms)) for i in range(nv)]
    tab_lo, tab_hi = _union_table(packed[:8]), _union_table(packed[8:])
    full = grid.full_mask

    def can_clear(lions: int) -> bool:
        images: dict[tuple, list[tuple]] = {}
        products: dict[tuple, list] = {}
        pool: dict[tuple, tuple] = {}  # equal fix-up tuples shared across placements

        def images_of(pos):
            out = images.get(pos)
            if out is None:
                out = images[pos] = [tuple(sorted([perm[p] for p in pos])) for perm in perms]
            return out

        def products_of(pos):
            out = products.get(pos)
            if out is None:
                groups: dict[tuple, set] = {}
                stacks = Counter(pos)  # pos is sorted, so stacks keeps its id order
                choices = [
                    itertools.combinations_with_replacement(options[p], c)
                    for p, c in stacks.items()
                ]
                for parts in itertools.product(*choices):
                    dests = sum(parts, ())
                    fix = _fixups(zip(pos, dests), _mask(dests), nbr.__getitem__)
                    groups.setdefault(tuple(sorted(dests)), set()).add(pool.setdefault(fix, fix))
                out = products[pos] = [
                    (d, _mask(d), images_of(d), tuple(fixes)) for d, fixes in groups.items()
                ]
            return out

        def canonical(pos, cont, pos_images):
            best_cont, best_pos = cont, pos
            rest = tab_lo[cont & 0xFF] | tab_hi[cont >> 8]  # image k at bit k * nv
            for img in pos_images:
                c = rest & full
                rest >>= nv
                if c < best_cont or (c == best_cont and img < best_pos):
                    best_cont, best_pos = c, img
            return best_pos, best_cont

        def expand(state):
            pos, cont = state
            out = cont | grid.spread_bits(cont)
            succ = {}
            for dests, occ, dest_images, fixes in products_of(pos):
                for fix in fixes:
                    new = _settle(cont, out, fix, occ)
                    if not new:
                        return None
                    succ[dests, new] = dest_images
            return [canonical(p, c, imgs) for (p, c), imgs in succ.items()]

        starts = [
            canonical(pos, grid.full_mask & ~_mask(pos), images_of(pos))
            for pos in itertools.combinations_with_replacement(range(nv), lions)
        ]
        return _reaches(starts, expand)

    return can_clear


def exact_lion_number(grid: TriGrid, max_l: int) -> int | None:
    """Least lion count with a clearing schedule, or None past max_l (n <= 2).

    For each count, breadth-first search from every initial placement over
    (sorted positions, contamination) states, one per orbit of the six
    triangle symmetries; all simultaneous move combinations, including
    swaps and stacking, are explored.  The per-grid tables are built once.
    The column sweep is replayed first: when it wins, no count from its
    n + 1 lions up is searched (see search._least), and each count below
    is decided by the search.  A sweep that did not win would leave every
    count to the search.
    """
    as_int(grid.n, "exact lion solving order", hi=EXACT_ORDER_LIMIT)
    top = as_int(max_l, "max_l", 1)
    sweep = column_sweep_strategy(grid)
    upper = sweep.lions if sweep.is_winning() else top + 1
    return _least(_lion_solver(grid), top, upper)
