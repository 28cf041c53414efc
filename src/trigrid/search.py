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
from .core import TriGrid, VertexSet, _mask, _set_bits, as_int, automorphism_id_permutations
from .isoperimetry import lower_bound_certificate

EXACT_ORDER_LIMIT = 4
# Searches per numpy decode in SearchTrace.to_json.  Of 32, 64, 128 and 256,
# 64 kept the sweep workload's peak RSS lowest; it writes the n = 60 trace
# about 5% slower than 256.
_TRACE_BLOCK = 64


class TraceError(ValueError):
    """A trace violates its own invariants (size, coords, or checksums)."""


def sweep_budget(n: int) -> int:
    """The sweep's per-turn budget, ceil(3n/4) + 2."""
    return math.ceil(3 * n / 4) + 2


def step(grid: TriGrid, dirty: VertexSet, s: VertexSet) -> VertexSet:
    """One search turn: remove s, then spread to closed neighborhoods."""
    rem = _set_bits(grid, dirty) & ~_set_bits(grid, s)
    return VertexSet.from_bits(grid, rem | grid.spread_bits(rem))


def _dirty_states(grid: TriGrid, masks):
    """The replay on raw int bitmasks: the dirty bitmask after each turn
    from full dirty, by step's rule, rem = dirty & ~S and then rem | N(rem).
    Callers holding VertexSets pass their bits (through _set_bits, which
    refuses anything else)."""
    spread = grid.spread_bits
    dirty = grid.full_mask
    for s in masks:
        rem = dirty & ~s
        dirty = rem | spread(rem)
        yield dirty


def _check_sizes(budget: int, masks) -> None:
    """TraceError naming the first turn whose mask has more than budget members."""
    for turn, s in enumerate(masks):
        if s.bit_count() > budget:
            raise TraceError(f"turn {turn}: search of size {s.bit_count()} exceeds budget {budget}")


def _clears(grid: TriGrid, budget: int, masks: list[int]) -> bool:
    """The mask-level check of a schedule with no stored states, as
    verify_trace applies it: every mask fits the budget (_check_sizes),
    then whether the replay from full dirty (_dirty_states) ends empty."""
    _check_sizes(budget, masks)
    dirty = grid.full_mask
    for dirty in _dirty_states(grid, masks):
        pass
    return not dirty


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
        searches = list(searches)
        masks = [_set_bits(grid, s) for s in searches]
        dirty_after = [VertexSet.from_bits(grid, d) for d in _dirty_states(grid, masks)]
        return cls(grid, budget, searches, dirty_after)

    def max_search_size(self) -> int:
        return max((len(s) for s in self.searches), default=0)

    def to_json_obj(self) -> dict:
        grid = self.grid
        searches = [VertexSet.from_bits(grid, _set_bits(grid, s)) for s in self.searches]
        hex_width = (grid.vertex_count + 3) // 4
        return {
            "n": self.n,
            "budget": self.budget,
            "searches": [s.to_pairs() for s in searches],
            "dirty_checksums": [f"{_set_bits(grid, d):0{hex_width}x}" for d in self.dirty_after],
        }

    def to_json(self) -> str:
        """json.dumps(to_json_obj(), sort_keys=True, indent=2) plus a newline.

        The text is written directly, because indent makes json use its
        pure-Python encoder.  Searches are decoded _TRACE_BLOCK at a time
        in one numpy pass: their bitmasks' nonzero bytes are unpacked, and
        each set bit's position splits into (turn, id).  Each block then
        becomes one token per search opening it (or "[]" when it is empty)
        and one per member, that vertex's [v1, v2] text from a table built
        once per call, with a comma, or with the closing bracket for the
        last member.  Each checksum line is one token ending in its comma
        too, so both arrays close by one rule.  One join runs over all the
        tokens, so the call holds about one copy of the output.
        """
        import numpy as np

        grid = self.grid
        width = (grid.vertex_count + 7) // 8
        hex_width = (grid.vertex_count + 3) // 4
        pair = [f"\n      [\n        {v1},\n        {v2}\n      ]" for v1, v2 in grid.vertices()]
        inner = np.array([p + "," for p in pair], dtype=object)
        last = np.array([p + "\n    ]," for p in pair], dtype=object)
        out = ['{\n  "budget": ', json.dumps(self.budget), ',\n  "dirty_checksums": [']

        def close(items) -> None:
            """The last item's comma becomes the array's close; no items is "[]"."""
            if items:
                out[-1] = out[-1][:-1] + "\n  ]"
            else:
                out.append("]")

        out += [f'\n    "{_set_bits(grid, d):0{hex_width}x}",' for d in self.dirty_after]
        close(self.dirty_after)
        out += (',\n  "n": ', str(self.n), ',\n  "searches": [')
        searches = self.searches
        for lo in range(0, len(searches), _TRACE_BLOCK):
            block = searches[lo : lo + _TRACE_BLOCK]
            raw = b"".join(_set_bits(grid, s).to_bytes(width, "little") for s in block)
            data = np.frombuffer(raw, dtype=np.uint8)
            at = np.flatnonzero(data)
            bit = np.flatnonzero(np.unpackbits(data[at], bitorder="little"))
            turn, ids = np.divmod(at[bit >> 3] * 8 + (bit & 7), width * 8)
            sizes = np.bincount(turn, minlength=len(block))
            # Search t's opening token sits before its members and after
            # every token of the searches before it: t + (members before t).
            ends = np.cumsum(sizes)
            tokens = np.empty(len(block) + len(ids), dtype=object)
            tokens[np.arange(len(block)) + ends - sizes] = np.where(sizes, "\n    [", "\n    [],")
            tokens[np.arange(len(ids)) + turn + 1] = inner[ids]
            full = ends[sizes > 0] - 1
            tokens[full + turn[full] + 1] = last[ids[full]]
            out += tokens.tolist()
        close(searches)
        out.append("\n}\n")
        return "".join(out)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SearchTrace":
        try:
            grid = TriGrid(obj["n"])
            budget = as_int(obj["budget"], "budget", 0)
            searches = [VertexSet.from_pairs(grid, pairs) for pairs in obj["searches"]]
            stored = obj.get("dirty_checksums")
            if "dirty_checksums" in obj and not (
                isinstance(stored, list) and all(type(c) is str for c in stored)
            ):
                raise ValueError(f"dirty_checksums must be a list of strings, got {stored!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed search trace: {exc}") from exc
        trace = cls.from_searches(grid, budget, searches)
        if stored:  # as verify_trace: no stored states, or one per turn
            for turn, (checksum, d) in enumerate(zip(stored, trace.dirty_after)):
                if checksum != d.to_hex():
                    raise TraceError(f"dirty checksum mismatch at turn {turn}")
            if len(stored) != len(trace.dirty_after):
                raise TraceError("dirty checksum count does not match turn count")
        return trace


def verify_trace(grid: TriGrid, trace: SearchTrace) -> bool:
    """Replay once from full dirty; malformed traces raise, honest ones report.

    The searches are read once, so any iterable of them gives the verdict
    of the list.  Stored states are none (the searches' bitmasks go
    through _clears, the mask-level check) or one per turn (each must
    equal step() of the one before, full dirty first).  A budget that is
    not an integer >= 0 raises ValueError; TraceError is raised for a
    wrong state count and, naming the first offending turn, for an
    oversized search or a stored state that disagrees with the replay,
    and for anything that is not a SearchTrace, before any other check.
    Returns whether the final dirty set is empty.
    """
    if not isinstance(trace, SearchTrace):
        raise TraceError(f"expected a SearchTrace, got {type(trace).__name__}")
    if trace.n != grid.n:
        raise TraceError("trace order does not match grid")
    budget = as_int(trace.budget, "budget", 0)
    searches = list(trace.searches)
    stored = trace.dirty_after
    if stored and len(stored) != len(searches):
        raise TraceError(f"{len(stored)} stored dirty states for {len(searches)} turns")
    masks = [_set_bits(grid, s) for s in searches]
    if not stored:
        return _clears(grid, budget, masks)
    _check_sizes(budget, masks)
    dirty = grid.full_set()
    for turn, (s, after) in enumerate(zip(searches, stored)):
        if step(grid, dirty, s) != after:
            raise TraceError(f"turn {turn}: stored dirty state disagrees with replay")
        dirty = after
    return not dirty


def three_stage_strategy(grid: TriGrid) -> SearchTrace:
    """The three-stage sweep as a replayed SearchTrace (see _three_stage_searches)."""
    budget, masks = _three_stage_searches(grid)
    return SearchTrace.from_searches(grid, budget, [VertexSet.from_bits(grid, s) for s in masks])


def _three_stage_searches(grid: TriGrid) -> tuple[int, list[int]]:
    """(budget, masks): the budgeted clearing schedule with
    k = ceil(3n/4) + 2 per turn, as raw int bitmasks, not replayed.

    With q = n - k + 2 = floor(n/4), stage 1 fully clears rows n down to
    q + 1, one row per phase, sliding a window across the row and a guard
    prefix of the row below.  Stage 2 clears columns 0..q-1 with an
    L-shaped window plus two row prefixes per turn.  Stage 3 clears the
    remaining columns left to right, the mirror of stage 1.  Orders 1-3 have
    q = 0 and run only the row phases: the last turn of row 1's phase
    searches all of row 0, so the grid is clear (at n = 1 that one turn
    is the whole grid).
    """
    n = grid.n
    k = sweep_budget(n)
    q = n - k + 2
    offs = grid._row_offset
    masks: list[int] = []

    for row in range(n, q, -1):
        # Turn j searches the still-dirty suffix of the row (columns
        # j - 1..n - row) and a growing prefix of the row below (columns
        # 0..j); the final turn covers that row entirely.  Each turn's
        # suffix drops its lowest bit and the prefix gains one on top.
        suffix = grid._row_mask[row] << offs[row]
        prefix = 3 << offs[row - 1]
        for _ in range(n - row + 1):
            masks.append(suffix | prefix)
            suffix &= suffix - 1
            prefix |= prefix << 1
    if q == 0:
        return k, masks

    # Stage 2: the L-chain runs along row q from x=2q down to x=q+1, then
    # down column q from y=q to y=0.  Turn j searches chain cells j-1..j+q
    # and R_j, R_j+1, where R_m is the left q-prefix of row q+1-m (it fits
    # the row, as 2k >= n + 3).
    chain = [offs[q] + x for x in range(2 * q, q, -1)]
    chain += [offs[y] + q for y in range(q, -1, -1)]
    run = (1 << q) - 1
    for j in range(1, q + 1):
        window = _mask(chain[j - 1 : j + q + 1])
        masks.append(window | run << offs[q + 1 - j] | run << offs[q - j])

    # Stage 3, the mirror of a row phase: shrink down the column while
    # searching a growing top prefix of the next column, one bit each per
    # turn.  That prefix ends as the whole next column, the next phase's start.
    nxt = _mask(offs[y] + q for y in range(n - q + 1))
    for col in range(q, n):
        here, nxt = nxt, 0
        for row in range(n - col, 0, -1):
            nxt |= 1 << (offs[row - 1] + col + 1)
            masks.append(here | nxt)
            here ^= 1 << (offs[row] + col)
    return k, masks


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


def _least(clears, top: int, upper: int | None) -> int | None:
    """Least k in 1..top with clears(k), or None; clears is not called at
    any k >= upper, which is returned as it stands.

    upper is a count (at least 1) that a strategy replayed by the caller
    has just been seen to clear, or None when the replay did not clear,
    which leaves every count to clears.  This is sound:
    the strategy clears with upper, so the least count is at most upper,
    and every count below upper is still decided by clears, so the value
    is the one the search at every count would give.
    """
    return next((k for k in range(1, top + 1) if k == upper or clears(k)), None)


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


def _budget_solver(grid: TriGrid):
    """clearable(m): reachability of the empty dirty set under per-turn
    budget m.

    Forward BFS over dirty states from full.  Only search sets S inside
    the dirty set matter, and enlarging S never hurts, so successors use
    exactly m searched vertices: every expanded state has more than m
    dirty vertices, since the start state has all V > m (m >= V returns
    first) and a successor with at most m ends the search before it is
    kept.  States are deduplicated up to the 6 triangle symmetries;
    successors containing their parent are dropped (the parent already
    dominates them).  The spread and symmetry tables are built here
    once, for every budget.
    """
    import numpy as np

    nv = grid.vertex_count
    # Split-word tables over the low 8 ids and the rest, as in _lion_solver
    # (the rest is empty when V < 8), for the spread (each vertex's
    # neighbour mask) and for the symmetries (row i holds id i's images
    # under the five non-identity ones).
    def split(images):
        return bulk.union_table(images[:8]), bulk.union_table(images[8:])

    spread_lo, spread_hi = split([grid._neighbor_bits(i) for i in range(nv)])
    perms = np.array(automorphism_id_permutations(grid)[1:], dtype=np.uint64)
    sym_lo, sym_hi = split(np.uint64(1) << perms.T)

    def clearable(m: int) -> bool:
        if m >= nv:
            return True
        combos = _search_sets(nv, m)

        def expand(d):
            cand = combos[(combos & d) == combos]
            p = d & ~cand
            succ = p | spread_lo[p & 0xFF] | spread_hi[p >> 8]
            if (np.bitwise_count(succ) <= m).any():
                return None  # small enough to finish next turn
            succ = succ[(succ | d) != succ]
            images = sym_lo.take(succ & 0xFF, axis=0) | sym_hi.take(succ >> 8, axis=0)
            # take beats [] at gathering rows; min on a (5, k) copy beats a short-axis min
            best = np.minimum(succ, images.T.copy().min(axis=0))
            return np.unique(best).tolist()

        return _reaches([grid.full_mask], expand)

    return clearable


def _sweep_upper(grid: TriGrid) -> tuple[int, int | None]:
    """(budget, upper): the three-stage sweep's masks, built and checked
    once by _clears, verify_trace's rule for a trace with no stored
    states, give _least upper = its budget if they clear, else None; an
    oversized mask raises verify_trace's TraceError."""
    budget, masks = _three_stage_searches(grid)
    return budget, budget if _clears(grid, budget, masks) else None


def exact_inspection_number(grid: TriGrid, max_m: int) -> int | None:
    """Least per-turn budget that clears T_n, or None past max_m (n <= 4).

    The three-stage sweep's masks are checked first (_sweep_upper, by
    verify_trace's mask-level rule): when they clear, no budget from the
    sweep's own up is searched (see _least), and each budget below it is
    decided by breadth-first search.  A sweep that did not clear gives
    upper None, which leaves every budget to the search.
    """
    as_int(grid.n, "exact solving order", hi=EXACT_ORDER_LIMIT)
    top = as_int(max_m, "max_m", 1)
    _, upper = _sweep_upper(grid)
    return _least(_budget_solver(grid), top, upper)


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
    and the exact value where the solver is allowed to run.

    lower is the largest m in 0..n + 1 that lower_bound_certificate
    certifies, read from the top.  upper is the three-stage sweep's
    budget.  _sweep_upper builds its schedule's masks and checks them
    once per order, by _clears, the rule verify_trace applies to a trace
    with no stored states: upper_verified (its upper is not None) says
    every search fits the budget and the final dirty set is empty.  exact
    reads that verdict, as exact_inspection_number(grid, upper) would."""
    n_max = as_int(n_max, "n_max", 1, 50)
    exact_up_to = as_int(exact_up_to, "exact_up_to", 0, EXACT_ORDER_LIMIT)
    rows = []
    for n in range(1, n_max + 1):
        grid = TriGrid(n)
        # Read from the top: the first m that certifies is the largest
        # (m = 0 always does), so n + 2 - lower certificates run.
        lower = next(m for m in range(n + 1, -1, -1) if lower_bound_certificate(grid, m))
        budget, upper = _sweep_upper(grid)
        exact = _least(_budget_solver(grid), budget, upper) if n <= exact_up_to else None
        rows.append(
            BoundsRow(n=n, lower=lower, upper=budget, upper_verified=upper is not None, exact=exact)
        )
    return rows
