"""Independent oracles shared across the test modules.

Everything here recomputes results from first principles (drawn edge
families, explicit set arithmetic, unpruned breadth-first search) so the
library's optimized paths are checked against genuinely separate code.
"""

import json
import tracemalloc
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

from trigrid import Coord, TriGrid, VertexSet, packing_minimum


def drawn_edges(grid: TriGrid) -> set[frozenset]:
    """Edge set from the three drawn families: row paths, column paths,
    and the anti-diagonal paths between (d, 0) and (0, d)."""
    n = grid.n
    edges = set()
    for r in range(n + 1):  # row paths
        for x in range(n - r):
            edges.add(frozenset({(x, r), (x + 1, r)}))
    for c in range(n + 1):  # column paths
        for y in range(n - c):
            edges.add(frozenset({(c, y), (c, y + 1)}))
    for d in range(1, n + 1):  # anti-diagonal paths
        for x in range(1, d + 1):
            edges.add(frozenset({(x, d - x), (x - 1, d - x + 1)}))
    return edges


def adjacency_oracle(grid: TriGrid) -> dict:
    adj = {tuple(v): set() for v in grid.vertices()}
    for e in drawn_edges(grid):
        u, v = tuple(e)
        adj[u].add(v)
        adj[v].add(u)
    return adj


@lru_cache(maxsize=None)
def _adjacency(n: int) -> dict:
    """adjacency_oracle of T_n, built once per order."""
    return {v: frozenset(us) for v, us in adjacency_oracle(TriGrid(n)).items()}


def boundary_oracle(grid: TriGrid, members) -> set:
    adj = _adjacency(grid.n)
    inside = {tuple(v) for v in members}
    out = set()
    for v in inside:
        out |= adj[v] - inside
    return out


def neighborhood_oracle(grid: TriGrid, members) -> set:
    inside = {tuple(v) for v in members}
    return inside | boundary_oracle(grid, inside)


def interior_boundary_oracle(grid: TriGrid, members) -> set:
    adj = _adjacency(grid.n)
    inside = {tuple(v) for v in members}
    return {v for v in inside if adj[v] - inside}


def compress_oracle(grid: TriGrid, members, axis: int, side: str) -> set:
    """Section compression by counting each section's members.

    Section t is column v1 = t (axis 1) or row v2 = t (axis 2); its c
    members become the interval {0, ..., c - 1} ("left") or
    {n - t - c + 1, ..., n - t} ("right").
    """
    n = grid.n
    sizes = [0] * (n + 1)
    for v1, v2 in members:
        sizes[v1 if axis == 1 else v2] += 1
    out = set()
    for t, c in enumerate(sizes):
        span = range(c) if side == "left" else range(n - t - c + 1, n - t + 1)
        out |= {(t, x) if axis == 1 else (x, t) for x in span}
    return out


def all_subsets(grid: TriGrid):
    for bits in range(1 << grid.vertex_count):
        yield VertexSet.from_bits(grid, bits)


def simplicial_sort_oracle(grid: TriGrid) -> list[Coord]:
    """Sort all vertices with the ordering comparator directly."""
    return list(_simplicial_sort(grid.n))


@lru_cache(maxsize=None)
def _simplicial_sort(n: int) -> tuple[Coord, ...]:
    return tuple(sorted(TriGrid(n).vertices(), key=lambda v: (v.v1 + v.v2, -v.v1)))


def segment_oracle(grid: TriGrid, k: int, kind: str) -> set:
    """The first ("initial") or last ("final") k vertices of the
    comparator sort, as a plain set of coordinate tuples."""
    order = [tuple(v) for v in simplicial_sort_oracle(grid)]
    if kind == "initial":
        return set(order[:k])
    if kind == "final":
        return set(order[len(order) - k:])
    raise ValueError(f"unknown segment kind {kind!r}")


def random_vertex_set(grid: TriGrid, rng) -> VertexSet:
    return VertexSet.from_bits(grid, rng.getrandbits(grid.vertex_count))


def certificate_oracle(grid: TriGrid, m: int) -> bool:
    """The window certificate read at every size of its window: the
    packing minimum is at least m at each size s with i < s < i + m,
    i = (m + 1) + ... + (n + 1) = |V| - (1 + ... + m)."""
    i = grid.vertex_count - m * (m + 1) // 2
    return all(packing_minimum(grid, s) >= m for s in range(i + 1, i + m))


def search_clearable_oracle(grid: TriGrid, m: int) -> bool:
    """Unpruned BFS over dirty states with plain set arithmetic."""
    adj = adjacency_oracle(grid)
    full = frozenset(adj)
    seen = {full}
    frontier = [full]
    while frontier:
        nxt = []
        for dirty in frontier:
            members = sorted(dirty)
            for searched in combinations(members, min(m, len(members))):
                rem = dirty - set(searched)
                spread = set(rem)
                for v in rem:
                    spread |= adj[v]
                state = frozenset(spread)
                if not state:
                    return True
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    return False


def lion_turn_oracle(grid: TriGrid, pos, dests, cont) -> frozenset:
    """One simultaneous lion turn by the rule read literally, on coordinates.

    pos and dests are the lions' vertices before and after the turn, as
    (v1, v2) tuples; cont is the set of contaminated (v1, v2) tuples.  A
    vertex ends contaminated when no lion stands on it and it was
    contaminated or has a contaminated neighbour across an edge no lion
    traversed.
    """
    adj = _adjacency(grid.n)
    traversed = {frozenset({p, d}) for p, d in zip(pos, dests) if p != d}
    occupied = set(dests)
    new = set()
    for v in adj:
        if v in occupied:
            continue
        if v in cont:
            new.add(v)
            continue
        for u in adj[v]:
            if u in cont and frozenset({u, v}) not in traversed:
                new.add(v)
                break
    return frozenset(new)


def lions_clearable_oracle(grid: TriGrid, lions: int) -> bool:
    """Unpruned lion-game reachability over every start, via plain sets."""
    adj = _adjacency(grid.n)
    verts = sorted(adj)
    moves = {v: [v] + sorted(adj[v]) for v in verts}
    for start in combinations_with_replacement(verts, lions):
        cont0 = frozenset(set(verts) - set(start))
        if not cont0:
            return True
        seen = {(tuple(sorted(start)), cont0)}
        frontier = [(start, cont0)]
        while frontier:
            nxt = []
            for pos, cont in frontier:
                for dests in product(*(moves[p] for p in pos)):
                    new = lion_turn_oracle(grid, pos, dests, cont)
                    if not new:
                        return True
                    key = (tuple(sorted(dests)), new)
                    if key not in seen:
                        seen.add(key)
                        nxt.append((dests, new))
            frontier = nxt
    return False


def lion_trace_json_oracle(trace) -> str:
    """A lion trace's JSON text through json's own indent encoder."""
    return json.dumps(trace.to_json_obj(), sort_keys=True, indent=2) + "\n"


def spread_oracle(grid: TriGrid, bits: int) -> int:
    """Neighbor spread of a dense-id bitmask, one row word at a time.

    Every row is a contiguous bit range, so the six edge directions are
    shifted copies of the row itself and of the rows below and above.
    """
    n = grid.n
    offs = grid._row_offset
    masks = grid._row_mask
    rows = [(bits >> offs[r]) & masks[r] for r in range(n + 1)]
    out = 0
    for r in range(n + 1):
        x = rows[r]
        s = (x << 1) | (x >> 1)
        if r > 0:
            below = rows[r - 1]
            s |= below | (below >> 1)
        if r < n:
            above = rows[r + 1]
            s |= above | (above << 1)
        out |= (s & masks[r]) << offs[r]
    return out


def set_words(grid: TriGrid, masks) -> "np.ndarray":
    """The batch form of bitmask ints: a (count, ceil(V / 64)) uint64
    array, word q of a row holding dense ids 64q..64q+63, cut with plain
    integer arithmetic."""
    import numpy as np

    width = -(-grid.vertex_count // 64)
    words = [[m >> 64 * q & (1 << 64) - 1 for q in range(width)] for m in masks]
    return np.array(words, dtype=np.uint64).reshape(len(words), width)


def traced_peak(call):
    """(peak, result) of call(): peak is the most memory, in bytes, that
    tracemalloc saw allocated and not yet freed at once during the call,
    numpy arrays included."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()



def recording(clears, asked: list):
    """clears, wrapped to append each count it is asked to asked."""

    def record(k):
        asked.append(k)
        return clears(k)

    return record


def record_solver_counts(monkeypatch, module, name: str) -> list:
    """Replace the solver factory module.name by one whose solvers record
    every count they are asked; returns that list of counts."""
    real = getattr(module, name)
    asked = []
    monkeypatch.setattr(module, name, lambda grid: recording(real(grid), asked))
    return asked
