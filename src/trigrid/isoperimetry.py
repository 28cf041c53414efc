"""Verification of the packing-minimum boundary inequality.

Exhaustive subset enumeration at small order, seeded random spot checks
at larger order, the diagonal-conditioned segment-minimality check, and
the window certificate that turns packing minima into inspection-number
lower bounds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import bulk
from .core import TriGrid, VertexSet, _ids, _mask, as_int, csv_text
from .ordering import (
    final_segment,
    final_segment_boundary_size,
    initial_segment_boundary_size,
    packing_minimum,
    triangular,
)

EXHAUSTIVE_DEFAULT_LIMIT = 5
EXHAUSTIVE_HARD_LIMIT = 6
SAMPLED_ORDER_LIMIT = 30
DIAGONAL_CHECK_ORDER_LIMIT = 6

_CHUNK_BITS = 16  # width of _scan_range's union table: 2^16 ids per spread_bits call
# Sets sampled_check draws and checks at a time.  A multiple of 8, so each
# block's draw ends on a whole 64-bit output: the blocks draw exactly the
# sets, and leave the generator state, of one draw of all samples, and no
# block starts on a buffered half, which would take the 32-bit draw.
_SAMPLE_BLOCK = 16384


@dataclass
class MinBoundaryTable:
    """Exact per-cardinality boundary minima with witnesses.

    verified[k] records that the enumerated minimum equals the packing
    minimum, which is the inequality's claim at that cardinality.
    """

    n: int
    min_boundary: list[int]
    packing_min: list[int]
    witness_hex: list[str]
    verified: list[bool]

    def all_verified(self) -> bool:
        return all(self.verified)

    def to_json_obj(self) -> dict:
        return asdict(self)

    def to_csv(self) -> str:
        rows = zip(self.min_boundary, self.packing_min, self.verified)
        return csv_text(
            [
                {"k": k, "min_boundary": mb, "packing_min": pm, "verified": ok}
                for k, (mb, pm, ok) in enumerate(rows)
            ]
        )


def _closed_table(grid: TriGrid, ids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed neighbourhoods of every subset of ids, in (popcount, counter) order.

    A counter's bit j picks ids[j].  Returns (counters, closed, edges):
    counters ascend by popcount and, within one popcount, by value;
    closed[i] is X | spread(X) for the subset X that counters[i] picks;
    popcount g fills closed[edges[g] : edges[g + 1]].  So
    np.minimum.reduceat(sizes, edges[:-1]) gives one least size per
    popcount.  Closed neighbourhoods are unions over members, so
    union_table builds them from the images of the single ids.
    """
    import numpy as np

    table = bulk.union_table([grid._neighbor_bits(i) | 1 << i for i in ids])
    pop = np.bitwise_count(np.arange(len(table), dtype=np.uint64))
    counters = np.argsort(pop, kind="stable")
    edges = np.searchsorted(pop[counters], np.arange(len(ids) + 2))
    return counters, table[counters], edges


def _scan_range(n: int, start: int, stop: int) -> tuple[list[int], list[int]]:
    """Per-cardinality (min boundary, smallest witness counter) over one id range.

    An id is base | low, with base a multiple of the chunk size and low
    below it, and N[id] = N[base] | N[low] for closed neighbourhoods N.
    _closed_table holds N[low] for every low, by popcount, so a chunk
    takes one spread_bits call, one OR, one popcount and one
    np.minimum.reduceat, and |boundary(A)| = |N[A]| - |A| gives one least
    boundary per cardinality popcount(base) + g.  Only a group whose
    least beats the best so far is searched for a witness: its first hit,
    the smallest counter there, as chunks run in ascending order.  The
    range must be whole chunks: start <= stop in 0..2^V, both multiples
    of the chunk size (2^V is one); any other range raises ValueError.
    """
    import numpy as np

    grid = TriGrid(n)
    nv = grid.vertex_count
    counters, closed, edges = _closed_table(grid, range(min(nv, _CHUNK_BITS)))
    if not 0 <= start <= stop <= 1 << nv or (start | stop) % len(closed):
        raise ValueError(f"ids {start}..{stop} are not whole chunks of 0..2^{nv}")
    groups = np.arange(len(edges) - 1)
    best = np.full(nv + 1, nv + 1)
    witness = [0] * (nv + 1)
    union = np.empty_like(closed)
    sizes = np.empty(len(closed), dtype=np.uint8)
    for base in range(start, stop, len(closed)):
        np.bitwise_or(closed, np.uint64(base | grid.spread_bits(base)), out=union)
        np.bitwise_count(union, out=sizes)
        least = np.minimum.reduceat(sizes, edges[:-1])
        k = groups + base.bit_count()
        bound = least - k
        for g in np.flatnonzero(bound < best[k]):
            lo, hi = edges[g], edges[g + 1]
            best[k[g]] = bound[g]
            witness[k[g]] = base + int(counters[lo + np.argmax(sizes[lo:hi] == least[g])])
    return best.tolist(), witness


def exhaustive_min_boundary(
    grid: TriGrid, limit: int = EXHAUSTIVE_DEFAULT_LIMIT, workers: int = 1
) -> MinBoundaryTable:
    """Enumerate every subset of T_n and tabulate per-cardinality minima.

    Refuses n above the limit (default 5, hard cap 6: pass limit=6
    explicitly to accept the ~268M-subset run).  Larger orders should use
    sampled_check instead.  The id range is cut into at most workers
    shards of whole 2^_CHUNK_BITS-id chunks, ceil(chunks / workers)
    each, since each shard rebuilds the chunk table (so n <= 4, one
    chunk, scans in this process); they run in a process pool of at most
    os.cpu_count() processes, so a large workers value never starts more.
    """
    workers = as_int(workers, "workers", 1)
    cap = min(as_int(limit, "limit", 1), EXHAUSTIVE_HARD_LIMIT)
    nv = grid.vertex_count
    what = f"exhaustive scan order (2^{nv} subsets; use sampled_check for larger orders)"
    n = as_int(grid.n, what, hi=cap)
    total = 1 << nv
    chunks = -(-total >> _CHUNK_BITS)
    workers = min(workers, chunks)
    if workers > 1:
        import os
        from concurrent.futures import ProcessPoolExecutor

        shard = -(-chunks // workers) << _CHUNK_BITS
        ranges = [(n, s, min(s + shard, total)) for s in range(0, total, shard)]
        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_scan_range, *zip(*ranges)))
    else:
        parts = [_scan_range(n, 0, total)]
    # The least (boundary, witness) pair per k over the shards: shards are
    # ascending id ranges, so a tie keeps the first shard's, smallest, witness,
    # and a shard with no set of size k reports (V + 1, 0), which never wins.
    pairs = zip(*(zip(*part) for part in parts))
    best, witness = map(list, zip(*map(min, pairs)))
    packing = [packing_minimum(grid, k) for k in range(nv + 1)]
    return MinBoundaryTable(
        n=n,
        min_boundary=best,
        packing_min=packing,
        witness_hex=[VertexSet.from_bits(grid, w).to_hex() for w in witness],
        verified=[b == p for b, p in zip(best, packing)],
    )


@dataclass
class SampledReport:
    """Randomized spot check: every sample must respect the packing minimum."""

    n: int
    samples: int
    seed: int
    checked: int
    violations: list[dict]
    min_slack: int | None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def sampled_check(grid: TriGrid, samples: int, seed: int) -> SampledReport:
    """Check |boundary(A)| >= packing_min(|A|) on seeded random subsets.

    A violation would falsify the inequality and therefore indicates an
    implementation bug; the report carries the offending witnesses.
    Samples are drawn, counted and checked in blocks of _SAMPLE_BLOCK
    sets, so the memory held is one block's draw (about 16384 * V bytes,
    7.8 MB at n = 30) whatever the sample count.
    """
    import numpy as np

    as_int(grid.n, "sampled check order", hi=SAMPLED_ORDER_LIMIT)
    samples = as_int(samples, "samples", 1)
    seed = as_int(seed, "seed", 0)
    nv = grid.vertex_count
    packing = np.array([packing_minimum(grid, k) for k in range(nv + 1)])
    rng = np.random.default_rng(seed)
    violations: list[dict] = []
    min_slack: int | None = None
    for done in range(0, samples, _SAMPLE_BLOCK):
        sets = bulk.random_subsets(grid, min(_SAMPLE_BLOCK, samples - done), rng)
        card = np.bitwise_count(sets).sum(axis=1, dtype=np.int64)
        bsize = bulk.boundary_sizes(grid, sets)
        slack = bsize - packing[card]
        lo = int(slack.min())
        min_slack = lo if min_slack is None else min(min_slack, lo)
        for i in np.nonzero(slack < 0)[0]:
            bits = bulk.pack_rows(sets[i : i + 1])[0]
            violations.append(
                {
                    "k": int(card[i]),
                    "boundary": int(bsize[i]),
                    "packing_min": int(packing[card[i]]),
                    "witness_hex": VertexSet.from_bits(grid, bits).to_hex(),
                }
            )
    return SampledReport(
        n=grid.n,
        samples=samples,
        seed=seed,
        checked=samples,
        violations=violations,
        min_slack=min_slack,
    )


@dataclass
class DiagonalSegmentReport:
    """Segment minimality under the two diagonal conditions.

    Case "avoid": over sets disjoint from the diagonal level n, the
    initial segment of equal size has the smallest closed neighborhood.
    Case "contain": over sets including the whole diagonal, the final
    segment does.  min_slack_* [k] is None where no admissible set of
    size k exists.
    """

    n: int
    min_slack_avoid: list[int | None]
    min_slack_contain: list[int | None]
    violations: list[dict]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def diagonal_segment_check(grid: TriGrid) -> DiagonalSegmentReport:
    """Exhaustive diagonal-conditioned check of segment minimality (n <= 6).

    Every set in either case is D | X for X over the off-diagonal
    vertices, with D empty or the whole diagonal, and its closed
    neighbourhood is N[D] | N[X].  _closed_table gives N[X] for every
    counter, by popcount, so one np.minimum.reduceat per case gives the
    least neighbourhood of each size |D| + popcount.  Only a size whose
    least slack is negative is searched for violations, which are
    reported by ascending counter, avoid before contain.
    """
    import numpy as np

    n = as_int(grid.n, "diagonal check order", hi=DIAGONAL_CHECK_ORDER_LIMIT)
    nv = grid.vertex_count
    diag_bits = final_segment(grid, n + 1).bits  # level n: the last n + 1 ranks
    off_ids = _ids(grid.full_mask ^ diag_bits)
    counters, closed, edges = _closed_table(grid, off_ids)
    cases = [
        ("avoid", 0, initial_segment_boundary_size),
        ("contain", diag_bits, final_segment_boundary_size),
    ]
    least: dict[str, list[int | None]] = {}
    found = []  # (counter, case position) of every violation
    for pos, (case, d, segment_boundary_size) in enumerate(cases):
        k = range(d.bit_count(), d.bit_count() + len(edges) - 1)
        # |N(segment(k))| = k + |boundary(segment(k))|
        ref = np.array([kk + segment_boundary_size(grid, kk) for kk in k])
        sizes = np.bitwise_count(closed | np.uint64(d | grid.spread_bits(d)))
        slack = np.minimum.reduceat(sizes, edges[:-1]) - ref
        least[case] = [None] * (nv + 1)
        least[case][k.start : k.stop] = slack.tolist()
        for g in np.flatnonzero(slack < 0):
            lo, hi = edges[g], edges[g + 1]
            found += [(int(c), pos) for c in counters[lo:hi][sizes[lo:hi] < ref[g]]]
    violations = []
    for c, pos in sorted(found):
        case, d, _ = cases[pos]
        a = VertexSet.from_bits(grid, d | _mask(off_ids[j] for j in _ids(c)))
        violations.append({"case": case, "k": len(a), "witness_hex": a.to_hex()})
    return DiagonalSegmentReport(
        n=n,
        min_slack_avoid=least["avoid"],
        min_slack_contain=least["contain"],
        violations=violations,
    )


def lower_bound_certificate(grid: TriGrid, m: int) -> bool:
    """Certify that the inspection number of T_n exceeds m.

    Fixes i = (m+1) + (m+2) + ... + (n+1) and requires packing_min(s) >= m
    for every size s with i < s < i + m; an empty window certifies
    vacuously (m = 0 always does).  Soundness rests on the boundary
    inequality, so only packing minima are consulted, never enumeration.

    The window is read at its two ends only, since packing_min rises and
    then falls over 1..V.  With T(n) = triangular(n),
    initial_segment_boundary_size does not decrease on [1, T(n)] and
    decreases on [T(n) + 1, V]; final_segment_boundary_size increases on
    [1, n] and does not increase on [n + 1, V].  A function that does not
    decrease up to some size and does not increase after it takes its
    least value over any run of sizes at one of the run's ends, so each
    closed form does, and so does their minimum.  The window's least
    packing minimum is therefore at its first or its last size, and the
    verdict is the all-sizes one.
    """
    n = grid.n
    m = as_int(m, "certificate budget", 0, n + 1)
    if m < 2:  # the window i < s < i + m is empty
        return True
    i = triangular(n + 1) - triangular(m)
    return all(packing_minimum(grid, s) >= m for s in {i + 1, i + m - 1})
