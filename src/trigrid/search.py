"""Zero-visibility k-search on the triangular grid.

The dirty set holds every vertex that could still contain the intruder.
A turn removes the searched vertices and then lets the intruder stay or
move one edge, so dirty evolves as N(dirty \\ S) with the closed
neighborhood N.  The budgeted sweep clears the grid in three stages:
row sweeps from the top, an L-shaped pass protecting the left columns,
and column sweeps mirroring stage one.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

from . import bulk
from .core import TriGrid, VertexSet, _ids, as_int, automorphism_id_permutations
from .isoperimetry import lower_bound_certificate

EXACT_ORDER_LIMIT = 4


class TraceError(ValueError):
    """A trace violates its own invariants (size, coords, or checksums)."""


def sweep_budget(n: int) -> int:
    """The sweep's per-turn budget, ceil(3n/4) + 2."""
    return math.ceil(3 * n / 4) + 2


def step(grid: TriGrid, dirty: VertexSet, s: VertexSet) -> VertexSet:
    """One search turn: remove s, then spread to closed neighborhoods."""
    if dirty.grid.n != grid.n or s.grid.n != grid.n:
        raise ValueError("dirty set or search set belongs to a different grid")
    rem = dirty.bits & ~s.bits
    return VertexSet.from_bits(grid, rem | grid.spread_bits(rem))


@dataclass
class SearchTrace:
    """A search schedule plus the dirty states its replay produces."""

    grid: TriGrid
    budget: int
    searches: list[VertexSet]
    dirty_after: list[VertexSet] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.grid.n

    @classmethod
    def from_searches(
        cls, grid: TriGrid, budget: int, searches: list[VertexSet]
    ) -> "SearchTrace":
        trace = cls(grid=grid, budget=budget, searches=list(searches))
        trace.dirty_after = trace.replay()
        return trace

    def replay(self) -> list[VertexSet]:
        dirty = self.grid.full_set()
        states = []
        for s in self.searches:
            dirty = step(self.grid, dirty, s)
            states.append(dirty)
        return states

    def max_search_size(self) -> int:
        return max((len(s) for s in self.searches), default=0)

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "budget": self.budget,
            "searches": [s.to_pairs() for s in self.searches],
            "dirty_checksums": [d.to_hex() for d in self.dirty_after],
        }

    def to_json(self) -> str:
        """json.dumps(to_json_obj(), sort_keys=True, indent=2) plus a newline.

        The text is written directly, because indent makes json use its
        pure-Python encoder.  Each vertex's [v1, v2] text is built once per
        call and joined by dense id.
        """
        pair = [
            f"      [\n        {v1},\n        {v2}\n      ]" for v1, v2 in self.grid.vertices()
        ]
        searches = [
            "    " + _json_array([pair[i] for i in _ids(s.bits)], "    ")
            for s in self.searches
        ]
        dirty = [f'    "{d.to_hex()}"' for d in self.dirty_after]
        return (
            f'{{\n  "budget": {json.dumps(self.budget)},\n'
            f'  "dirty_checksums": {_json_array(dirty, "  ")},\n'
            f'  "n": {self.n},\n'
            f'  "searches": {_json_array(searches, "  ")}\n}}\n'
        )

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SearchTrace":
        try:
            grid = TriGrid(obj["n"])
            budget = as_int(obj["budget"], "budget")
            if budget < 0:
                raise ValueError(f"budget must be non-negative, got {budget}")
            searches = [VertexSet.from_pairs(grid, pairs) for pairs in obj["searches"]]
            stored = obj.get("dirty_checksums")
            if "dirty_checksums" in obj and not (
                isinstance(stored, list) and all(type(c) is str for c in stored)
            ):
                raise ValueError(f"dirty_checksums must be a list of strings, got {stored!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed search trace: {exc}") from exc
        trace = cls.from_searches(grid, budget, searches)
        if stored is not None:
            replayed = [d.to_hex() for d in trace.dirty_after]
            for turn, (a, b) in enumerate(zip(stored, replayed)):
                if a != b:
                    raise TraceError(f"dirty checksum mismatch at turn {turn}")
            if len(stored) != len(replayed):
                raise TraceError("dirty checksum count does not match turn count")
        return trace


def _json_array(items: list[str], indent: str) -> str:
    """An indent=2 JSON array of already indented item texts, closed at indent."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def verify_trace(grid: TriGrid, trace: SearchTrace) -> bool:
    """Replay from full dirty; malformed traces raise, honest ones report.

    Raises TraceError (naming the first offending turn) for an oversized
    search or a stored state that disagrees with the replay; returns
    whether the final dirty set is empty.
    """
    if trace.n != grid.n:
        raise TraceError("trace order does not match grid")
    for turn, s in enumerate(trace.searches):
        if len(s) > trace.budget:
            raise TraceError(
                f"turn {turn}: search of size {len(s)} exceeds budget {trace.budget}"
            )
    dirty = grid.full_set()
    for turn, s in enumerate(trace.searches):
        dirty = step(grid, dirty, s)
        if turn < len(trace.dirty_after) and trace.dirty_after[turn] != dirty:
            raise TraceError(f"turn {turn}: stored dirty state disagrees with replay")
    return not dirty


def _row_window(grid: TriGrid, row: int, lo: int, hi: int) -> int:
    """Columns lo..hi of a row, clipped to the grid: one shifted run of bits."""
    lo, hi = max(lo, 0), min(hi, grid.n - row)
    if hi < lo:
        return 0
    return ((1 << (hi - lo + 1)) - 1) << (grid._row_offset[row] + lo)


def _col_window(grid: TriGrid, col: int, lo: int, hi: int) -> int:
    """Rows lo..hi of a column, clipped to the grid, as a mask."""
    offs = grid._row_offset
    bits = 0
    for y in range(max(lo, 0), min(hi, grid.n - col) + 1):
        bits |= 1 << (offs[y] + col)
    return bits


def three_stage_strategy(grid: TriGrid) -> SearchTrace:
    """The budgeted clearing schedule with k = ceil(3n/4) + 2 per turn.

    Stage 1 fully clears rows n down to n-k+3, one row per phase, sliding
    a window across the row and a guard prefix of the row below.  Stage 2
    clears columns 0..n-k+1 with an L-shaped window plus two row prefixes
    per turn.  Stage 3 clears the remaining columns left to right, the
    mirror of stage 1.  Small orders collapse: when k >= n+2 row sweeps
    alone reach row 1 and one full search of row 0 finishes; when
    k >= |V| a single search clears.
    """
    n = grid.n
    k = sweep_budget(n)
    searches: list[VertexSet] = []

    def emit(bits):
        searches.append(VertexSet.from_bits(grid, bits))

    if k >= grid.vertex_count:
        emit(grid.full_mask)
        return SearchTrace.from_searches(grid, k, searches)

    def row_phase(row):
        # Turn j searches the still-dirty suffix of the row and a growing
        # prefix of the row below; the final turn covers that row entirely.
        for j in range(1, n - row + 2):
            emit(_row_window(grid, row, j - 1, n - row) | _row_window(grid, row - 1, 0, j))

    if k >= n + 2:
        for row in range(n, 0, -1):
            row_phase(row)
        emit(_row_window(grid, 0, 0, n))
        return SearchTrace.from_searches(grid, k, searches)

    q = n - k + 2  # first column stage 2 leaves for stage 3
    for row in range(n, q, -1):
        row_phase(row)

    # Stage 2: the L-chain runs along row q from x=2q down to x=q+1, then
    # down column q from y=q to y=0; R_m is the left q-prefix of row q+1-m.
    chain = [grid.index((2 * q + 1 - j, q)) for j in range(1, q + 1)]
    chain += [grid.index((q, q - t)) for t in range(q + 1)]
    for j in range(1, q + 1):
        window = 0
        for i in chain[j - 1 : j + q + 1]:
            window |= 1 << i
        r_j = _row_window(grid, q + 1 - j, 0, q - 1)
        r_next = _row_window(grid, q - j, 0, q - 1)
        emit(window | r_j | r_next)

    for col in range(q, n):
        size = n - col + 1
        # Mirror of a row phase: shrink down the column while searching a
        # growing top prefix of the next column.
        for j in range(1, size):
            emit(
                _col_window(grid, col, 0, size - j)
                | _col_window(grid, col + 1, size - 1 - j, size - 2)
            )
    return SearchTrace.from_searches(grid, k, searches)


def _reaches(starts, expand) -> bool:
    """Level-by-level breadth-first search over hashable states.

    expand(state) returns the successors of a state, or None when one of
    them wins; True as soon as one does, False once no unseen state is left.
    """
    frontier = list(dict.fromkeys(starts))
    seen = set(frontier)
    while frontier:
        nxt = []
        for state in frontier:
            succ = expand(state)
            if succ is None:
                return True
            for s in succ:
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return False


def _search_sets(nv: int, m: int) -> np.ndarray:
    """Every m-subset of range(nv) as a uint64 bitmask, in no particular order.

    Built by doubling: the masks below id j + 1 with c bits are those
    below j with c bits, then those below j with c - 1 bits plus bit j.
    """
    import numpy as np

    tables = [np.zeros(1, dtype=np.uint64)] + [np.zeros(0, dtype=np.uint64)] * m
    for j in range(nv):
        bit = np.uint64(1 << j)
        for c in range(min(j + 1, m), 0, -1):
            tables[c] = np.concatenate((tables[c], tables[c - 1] | bit))
    return tables[m]


def _clearable_with_budget(grid: TriGrid, m: int) -> bool:
    """Reachability of the empty dirty set under per-turn budget m.

    Forward BFS over dirty states from full.  Only search sets S inside
    the dirty set matter, and enlarging S never hurts, so successors use
    exactly min(m, |dirty|) searched vertices.  States are deduplicated
    up to the 6 triangle symmetries; successors containing their parent
    are dropped (the parent already dominates them).
    """
    import numpy as np

    nv = grid.vertex_count
    if m >= nv:
        return True
    # Split-word tables over the low 8 bits and the rest, for the spread
    # and for the images under the five non-identity symmetries.
    lo = min(8, nv)
    lo_mask = (1 << lo) - 1

    def split(images):
        return bulk.union_table(images[:lo]), bulk.union_table(images[lo:])

    spread_lo, spread_hi = split([grid.spread_bits(1 << i) for i in range(nv)])
    perm_tabs = [
        split([1 << p for p in perm]) for perm in automorphism_id_permutations(grid)[1:]
    ]
    combos = _search_sets(nv, m)

    def expand(d):
        cand = combos[(combos & d) == combos]
        if cand.size == 0:  # fewer than m dirty vertices: search them all
            return None
        p = d & ~cand
        succ = p | spread_lo[p & lo_mask] | spread_hi[p >> lo]
        if (np.bitwise_count(succ) <= m).any():
            return None  # small enough to finish next turn
        succ = succ[(succ | d) != succ]
        best = succ
        for plo, phi in perm_tabs:
            best = np.minimum(best, plo[succ & lo_mask] | phi[succ >> lo])
        return np.unique(best).tolist()

    return _reaches([grid.full_mask], expand)


def exact_inspection_number(grid: TriGrid, max_m: int) -> int | None:
    """Least per-turn budget that clears T_n, or None past max_m (n <= 4)."""
    if grid.n > EXACT_ORDER_LIMIT:
        raise ValueError(f"exact solving supports n <= {EXACT_ORDER_LIMIT}")
    if max_m < 1:
        raise ValueError(f"max_m must be at least 1, got {max_m}")
    for m in range(1, max_m + 1):
        if _clearable_with_budget(grid, m):
            return m
    return None


@dataclass
class BoundsRow:
    n: int
    lower: int  # largest certified m: inspection number exceeds this
    upper: int
    upper_verified: bool
    exact: int | None

    def to_json_obj(self) -> dict:
        return asdict(self)


def inspection_bounds_report(n_max: int, exact_up_to: int = 1) -> list[BoundsRow]:
    """Per-order bounds: certified lower bound, replayed upper bound,
    and the exact value where the solver is allowed to run."""
    if not 1 <= n_max <= 50:
        raise ValueError(f"bounds report supports 1 <= n_max <= 50, got {n_max}")
    if exact_up_to < 0:
        raise ValueError(f"exact_up_to must be at least 0, got {exact_up_to}")
    if exact_up_to > EXACT_ORDER_LIMIT:
        raise ValueError(f"exact solving supports n <= {EXACT_ORDER_LIMIT}")
    rows = []
    for n in range(1, n_max + 1):
        grid = TriGrid(n)
        lower = max(
            m for m in range(0, n + 2) if lower_bound_certificate(grid, m)
        )
        trace = three_stage_strategy(grid)
        exact = (
            exact_inspection_number(grid, trace.budget) if n <= exact_up_to else None
        )
        rows.append(
            BoundsRow(
                n=n,
                lower=lower,
                upper=trace.budget,
                upper_verified=verify_trace(grid, trace),
                exact=exact,
            )
        )
    return rows
