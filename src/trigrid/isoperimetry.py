"""Verification of the packing-minimum boundary inequality.

Exhaustive subset enumeration at small order, seeded random spot checks
at larger order, the diagonal-conditioned segment-minimality check, and
the window certificate that turns packing minima into inspection-number
lower bounds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from . import bulk
from .core import TriGrid, VertexSet, as_int, csv_text
from .ordering import (
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
# Sets sampled_check draws and checks at a time.  A multiple of 4, so each
# block's draw ends on a whole 32-bit output and the blocks draw exactly
# the sets, and leave the generator state, of one draw of all samples.
_SAMPLE_BLOCK = 4 * bulk._BLOCK


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


def _scan_range(n: int, start: int, stop: int) -> tuple[list[int], list[int]]:
    """Per-cardinality (min boundary, smallest witness counter) over one id range.

    Spread is a union over members, so for an id base | low, with base a
    multiple of the chunk size, spread(id) = spread(base) | spread(low).
    The spreads of every low pattern are tabulated once by union_table;
    each chunk then needs one spread_bits call and a few popcounts.
    """
    import numpy as np

    grid = TriGrid(n)
    nv = grid.vertex_count
    table = bulk.union_table([grid.spread_bits(1 << j) for j in range(min(nv, _CHUNK_BITS))])
    size = len(table)
    best = np.full(nv + 1, nv + 1)
    witness = [0] * (nv + 1)
    s = start
    while s < stop:
        base = s - s % size
        e = min(base + size, stop)
        ids = np.arange(s, e, dtype=np.uint64)
        spread = table[s - base : e - base] | np.uint64(grid.spread_bits(base))
        spread &= ~ids
        cells = np.bitwise_count(ids).astype(np.intp) * (nv + 1)
        cells += np.bitwise_count(spread)
        seen = np.bincount(cells, minlength=(nv + 1) ** 2).reshape(nv + 1, nv + 1) > 0
        least = seen.argmax(axis=1)  # per cardinality: the smallest boundary seen
        for k in np.flatnonzero(seen.any(axis=1) & (least < best)):
            best[k] = least[k]
            witness[k] = s + int(np.argmax(cells == k * (nv + 1) + least[k]))
        s = e
    return best.tolist(), witness


def exhaustive_min_boundary(
    grid: TriGrid, limit: int = EXHAUSTIVE_DEFAULT_LIMIT, workers: int = 1
) -> MinBoundaryTable:
    """Enumerate every subset of T_n and tabulate per-cardinality minima.

    Refuses n above the limit (default 5, hard cap 6: pass limit=6
    explicitly to accept the ~268M-subset run).  Larger orders should use
    sampled_check instead.  workers is the number of shards the id range
    is cut into; they run in a process pool of at most os.cpu_count()
    processes, so a large workers value never starts more.
    """
    workers = as_int(workers, "workers", 1)
    cap = min(as_int(limit, "limit", 1), EXHAUSTIVE_HARD_LIMIT)
    nv = grid.vertex_count
    what = f"exhaustive scan order (2^{nv} subsets; use sampled_check for larger orders)"
    n = as_int(grid.n, what, hi=cap)
    total = 1 << nv
    if workers > 1:
        import os
        from concurrent.futures import ProcessPoolExecutor

        shard = -(-total // workers)
        ranges = [(n, s, min(s + shard, total)) for s in range(0, total, shard)]
        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_scan_range, *zip(*ranges)))
    else:
        parts = [_scan_range(n, 0, total)]
    best = [nv + 1] * (nv + 1)
    witness = [0] * (nv + 1)
    for part_best, part_witness in parts:  # per-k min merge, order-independent
        for k in range(nv + 1):
            if part_best[k] < best[k]:
                best[k] = part_best[k]
                witness[k] = part_witness[k]
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
    vertices, with D empty or the whole diagonal.  union_table gives X
    and its spread for every counter at once, and a set's closed
    neighborhood is D | X | spread(D) | spread(X).
    """
    import numpy as np

    n = as_int(grid.n, "diagonal check order", hi=DIAGONAL_CHECK_ORDER_LIMIT)
    nv = grid.vertex_count
    diag_bits = 0
    for v1 in range(n + 1):
        diag_bits |= 1 << grid.index((v1, n - v1))
    off_ids = [i for i in range(nv) if not diag_bits >> i & 1]
    sets = bulk.union_table([1 << i for i in off_ids])
    spreads = bulk.union_table([grid.spread_bits(1 << i) for i in off_ids])
    spreads |= sets
    cases = {
        "avoid": (0, initial_segment_boundary_size),
        "contain": (diag_bits, final_segment_boundary_size),
    }
    least: dict[str, list[int | None]] = {}
    bad = {}
    for case, (d, segment_boundary_size) in cases.items():
        # |N(segment(k))| = k + |boundary(segment(k))|
        ref = [k + segment_boundary_size(grid, k) for k in range(nv + 1)]
        ref = np.array(ref, dtype=np.int16)
        k = np.bitwise_count(sets) + d.bit_count()
        slack = np.bitwise_count(spreads | np.uint64(d | grid.spread_bits(d))) - ref[k]
        per_k = np.full(nv + 1, nv + 1)
        np.minimum.at(per_k, k, slack)
        seen = np.bincount(k, minlength=nv + 1) > 0
        least[case] = [int(x) if s else None for x, s in zip(per_k, seen)]
        bad[case] = slack < 0
    violations = []  # ascending counter, avoid before contain
    for c in np.flatnonzero(bad["avoid"] | bad["contain"]):
        for case, (d, _) in cases.items():
            if bad[case][c]:
                a = VertexSet.from_bits(grid, int(sets[c]) | d)
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
    """
    n = grid.n
    m = as_int(m, "certificate budget", 0, n + 1)
    i = triangular(n + 1) - triangular(m)
    return all(packing_minimum(grid, s) >= m for s in range(i + 1, i + m))
