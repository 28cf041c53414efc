import hashlib
import json
import math

import pytest

from trigrid import (
    TriGrid,
    VertexSet,
    boundary,
    exhaustive_min_boundary,
    final_segment,
    initial_segment,
    diagonal_segment_check,
    lower_bound_certificate,
    neighborhood,
    packing_minimum,
    sampled_check,
)

from trigrid import isoperimetry
from trigrid.isoperimetry import _scan_range

from helpers import (
    all_subsets,
    boundary_oracle,
    certificate_oracle,
    interior_boundary_oracle,
    neighborhood_oracle,
    traced_peak,
)


def brute_min_boundary(g):
    nv = g.vertex_count
    best = [nv + 1] * (nv + 1)
    for a in all_subsets(g):
        b = len(boundary_oracle(g, list(a)))
        if b < best[len(a)]:
            best[len(a)] = b
    return best


def test_table_matches_brute_force_oracle():
    for n in (1, 2, 3):
        g = TriGrid(n)
        table = exhaustive_min_boundary(g)
        assert table.min_boundary == brute_min_boundary(g)


def test_t2_expected_table():
    table = exhaustive_min_boundary(TriGrid(2))
    assert table.min_boundary == [0, 2, 3, 2, 2, 1, 0]
    assert table.min_boundary[0] == 0 and table.min_boundary[-1] == 0


def test_verified_flags_small_orders():
    for n in (1, 2, 3, 4):
        table = exhaustive_min_boundary(TriGrid(n))
        assert table.all_verified()
        assert all(
            mb <= pm for mb, pm in zip(table.min_boundary, table.packing_min)
        )


def test_witnesses_are_valid():
    g = TriGrid(3)
    table = exhaustive_min_boundary(g)
    for k, wh in enumerate(table.witness_hex):
        w = VertexSet.from_hex(g, wh)
        assert len(w) == k
        assert len(boundary(g, w)) == table.min_boundary[k]


def test_exhaustive_refuses_large_orders():
    with pytest.raises(ValueError, match="sampled"):
        exhaustive_min_boundary(TriGrid(6))
    with pytest.raises(ValueError):
        exhaustive_min_boundary(TriGrid(7), limit=6)
    with pytest.raises(ValueError, match="workers"):
        exhaustive_min_boundary(TriGrid(2), workers=0)


def test_exhaustive_sharded_merge_matches():
    # n = 5 has 2^21 ids in 32 chunks of 2^16 ids: 2 workers take 16
    # chunks each, 3 workers 11, 11 and 10.
    for n, workers in ((3, 3), (5, 2), (5, 3)):
        g = TriGrid(n)
        assert (
            exhaustive_min_boundary(g, workers=1).to_json_obj()
            == exhaustive_min_boundary(g, workers=workers).to_json_obj()
        )


def test_exhaustive_pool_capped_at_cpu_count(monkeypatch):
    # workers caps the shard count, and shards are whole 2^16-id chunks
    # covering the id range in order; the pool never holds more processes
    # than CPUs.  A fake pool records its size and the ranges it maps, and
    # maps inline, so no real pool of 64 processes is ever started.
    import concurrent.futures
    import os

    sizes = []
    shards = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            args = list(zip(*iterables))
            shards.append([(start, stop) for _, start, stop in args])
            return [fn(*a) for a in args]

    g = TriGrid(5)
    want = exhaustive_min_boundary(g, workers=1).to_json_obj()
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    for workers in (2, 3, 64):
        assert exhaustive_min_boundary(g, workers=workers).to_json_obj() == want
        ranges = shards[-1]
        assert 1 < len(ranges) <= workers
        edges = [e for r in ranges for e in r]
        assert all(e % (1 << 16) == 0 for e in edges)
        assert edges[0] == 0 and edges[-1] == 1 << 21
        assert all(ranges[i][1] == ranges[i + 1][0] for i in range(len(ranges) - 1))
        assert all(start < stop for start, stop in ranges)
    assert len(sizes) == 3 and all(1 <= s <= (os.cpu_count() or 1) for s in sizes)
    exhaustive_min_boundary(TriGrid(4), workers=64)  # 2^15 ids, one chunk
    assert len(sizes) == 3  # so no pool is started


# sha256 of json.dumps(exhaustive_min_boundary(T_n).to_json_obj(),
# sort_keys=True), taken from the adjacency-matmul scan this replaced.
EXHAUSTIVE_TABLE_SHA256 = {
    1: "838bf6e53fe2d18251f6e7c407f43320be9c0753250227debeb972db57bf7b23",
    2: "aed88a774cb63ad5194e8a5711f1f79b09dc94cf93167e7400a0fe67481d716c",
    3: "aff32059783b154ffc0975c521325e64d0693ea0e9aa85b4edd494d11dda8eb7",
    4: "f50c1062b02e6f52ded8f8d4a04ae05302d27467cb27901261e4da9808ee8083",
    5: "7ef70775eb3594ca3f47e592ff9d98cf88e37233d81b31d752c33d7161edfec0",
}


@pytest.mark.parametrize("n", sorted(EXHAUSTIVE_TABLE_SHA256))
def test_exhaustive_tables_pinned(n):
    obj = exhaustive_min_boundary(TriGrid(n)).to_json_obj()
    text = json.dumps(obj, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == EXHAUSTIVE_TABLE_SHA256[n]


def test_scan_range_over_whole_chunks_matches_scalar_scan():
    # Whole-chunk id ranges, as exhaustive_min_boundary cuts them: two
    # 2^16-id chunks of T_5 away from id 0, T_5's first chunk, whose unseen
    # cardinalities keep V + 1 and witness 0, and all of T_2, whose table
    # (2^6 ids) is its one chunk.
    cases = [
        (5, 65536, 3 * 65536),
        (5, 0, 65536),
        (2, 0, 64),
    ]
    for n, start, stop in cases:
        g = TriGrid(n)
        nv = g.vertex_count
        best = [nv + 1] * (nv + 1)
        witness = [0] * (nv + 1)
        for a in range(start, stop):
            k = a.bit_count()
            b = (g.spread_bits(a) & ~a).bit_count()
            if b < best[k]:
                best[k], witness[k] = b, a
        assert _scan_range(n, start, stop) == (best, witness)
    best, witness = _scan_range(5, 0, 65536)  # ids below 2^16 have at most 16 members
    assert best[17:] == [22] * 5 and witness[17:] == [0] * 5


@pytest.mark.parametrize("start, stop", [(100, 200), (0, 2**21 + 65536), (65536, 0), (-65536, 0)])
def test_scan_range_refuses_ranges_that_are_not_whole_chunks(start, stop):
    with pytest.raises(ValueError, match="not whole chunks"):
        _scan_range(5, start, stop)


def test_table_csv_shape():
    table = exhaustive_min_boundary(TriGrid(2))
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "k,min_boundary,packing_min,verified"
    assert len(lines) == 8
    assert lines[1] == "0,0,0,true"


def test_min_boundary_interior_duality():
    # min exterior boundary at size k equals min interior boundary at size |V|-k
    for n in (2, 3):
        g = TriGrid(n)
        nv = g.vertex_count
        table = exhaustive_min_boundary(g)
        best_interior = [nv + 1] * (nv + 1)
        for a in all_subsets(g):
            s = len(interior_boundary_oracle(g, list(a)))
            if s < best_interior[len(a)]:
                best_interior[len(a)] = s
        for k in range(nv + 1):
            assert table.min_boundary[k] == best_interior[nv - k]


def test_sampled_check_deterministic():
    g = TriGrid(6)
    a = sampled_check(g, 500, seed=13)
    b = sampled_check(g, 500, seed=13)
    assert a.to_json_obj() == b.to_json_obj()
    assert a.to_json_obj()["ok"] is True
    keys = {"n", "samples", "seed", "checked", "violations", "min_slack", "ok"}
    assert set(a.to_json_obj()) == keys


# sha256 of json.dumps(sampled_check(T_n, samples, seed).to_json_obj(),
# sort_keys=True), as first drawn 65536 sets at a time.  The counts span
# several blocks, stop inside one, and at (T_12, 5003) leave samples * V
# short of a whole 32-bit output.
SAMPLED_REPORT_SHA256 = {
    (9, 100_000, 1): "aa07329910b4dad18e1ab938cbea732a44626599b547b87f25dc25d908f9d3fe",
    (20, 100_001, 7): "7f4a4f61733ad369ced9d20f19ea0b2df384bc756692da5d946ef65dadb7c3e4",
    (30, 70_001, 2): "7e5ae25eb61f74545ec907397c6198930b4a5836f11e1d7dafa1036efd131b29",
    (12, 5_003, 3): "41eebda1b13157974c8a57f4a91036596a4a29952b9dbc3a5596db0958f187e5",
}


@pytest.mark.parametrize("n, samples, seed", sorted(SAMPLED_REPORT_SHA256))
def test_sampled_reports_pinned(n, samples, seed):
    rep = sampled_check(TriGrid(n), samples, seed)
    text = json.dumps(rep.to_json_obj(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLED_REPORT_SHA256[n, samples, seed]


def test_sampled_check_memory_is_one_block():
    # 200,000 sets of T_30's 496 vertices are 95 MB (2^20 bytes) of draws;
    # one block holds 7.8 MB of them.
    peak, rep = traced_peak(lambda: sampled_check(TriGrid(30), 200_000, 1))
    assert rep.checked == 200_000
    assert peak < 16 << 20


def test_sampled_check_zero_samples():
    # a check with nothing to check has no verdict, so it refuses to run
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples"):
            sampled_check(TriGrid(4), samples, seed=1)


def test_sampled_check_t9_clean():
    rep = sampled_check(TriGrid(9), 100_000, seed=99)
    assert rep.ok and rep.checked == 100_000
    assert rep.min_slack is not None and rep.min_slack >= 0


def test_sampled_check_reports_every_violation(monkeypatch):
    # A packing minimum of V + 1 makes every sample a violation, so the
    # report lists the whole draw: T_10's 66 ids take two words per set.
    # Blocks of 12 sets split the 50 samples across five draws.
    import numpy as np

    g = TriGrid(10)
    nv = g.vertex_count
    monkeypatch.setattr(isoperimetry, "packing_minimum", lambda grid, k: nv + 1)
    cells = np.random.default_rng(5).integers(0, 2, size=(50, nv), dtype=np.uint8)
    want = [VertexSet(g, [g.coord(int(j)) for j in np.flatnonzero(row)]) for row in cells]
    for block in (isoperimetry._SAMPLE_BLOCK, 12):
        monkeypatch.setattr(isoperimetry, "_SAMPLE_BLOCK", block)
        rep = sampled_check(g, 50, seed=5)
        assert [v["witness_hex"] for v in rep.violations] == [a.to_hex() for a in want]
        assert [v["k"] for v in rep.violations] == [len(a) for a in want]
        assert [v["boundary"] for v in rep.violations] == [len(boundary(g, a)) for a in want]
        assert {v["packing_min"] for v in rep.violations} == {nv + 1}


def test_sampled_check_order_limit():
    with pytest.raises(ValueError):
        sampled_check(TriGrid(31), 10, seed=0)


def test_diagonal_segment_check_small_orders():
    for n in (1, 2, 3, 4, 5):
        g = TriGrid(n)
        rep = diagonal_segment_check(g)
        assert rep.ok
        keys = {"n", "min_slack_avoid", "min_slack_contain", "violations", "ok"}
        assert set(rep.to_json_obj()) == keys
        nv = g.vertex_count
        off_diag = nv - (n + 1)
        # slack defined exactly where admissible sets exist
        assert all(s is not None for s in rep.min_slack_avoid[: off_diag + 1])
        assert all(s is None for s in rep.min_slack_avoid[off_diag + 1 :])
        assert all(s is None for s in rep.min_slack_contain[: n + 1])
        assert all(s is not None for s in rep.min_slack_contain[n + 1 :])
        # the segments themselves are admissible, so the minimum slack is 0
        assert all(s == 0 for s in rep.min_slack_avoid if s is not None)
        assert all(s == 0 for s in rep.min_slack_contain if s is not None)


def test_diagonal_segments_against_direct_enumeration():
    g = TriGrid(2)
    diag = {(v1, 2 - v1) for v1 in range(3)}
    for a in all_subsets(g):
        members = {tuple(v) for v in a}
        if not members & diag:
            seg = initial_segment(g, len(a))
            assert len(neighborhood(g, a)) >= len(neighborhood(g, seg))
        if diag <= members:
            seg = final_segment(g, len(a))
            assert len(neighborhood(g, a)) >= len(neighborhood(g, seg))


def test_diagonal_segment_check_order_limit():
    with pytest.raises(ValueError, match="^diagonal check order must be at most 6, got 7$"):
        diagonal_segment_check(TriGrid(7))


def test_diagonal_check_matches_loop_over_counters(monkeypatch):
    # Segment boundaries replaced by nv - k give every reference
    # neighborhood the size of the full set's, so every set with a smaller
    # neighborhood is a violation.  The report must equal a plain loop over
    # the off-diagonal counter: per-k minima, and violations by ascending
    # counter with avoid before contain.
    g = TriGrid(3)
    nv = g.vertex_count
    for name in ("initial_segment_boundary_size", "final_segment_boundary_size"):
        monkeypatch.setattr(isoperimetry, name, lambda grid, k: nv - k)
    diag = {(v1, 3 - v1) for v1 in range(4)}
    off = [i for i in range(nv) if tuple(g.coord(i)) not in diag]
    least = {"avoid": [None] * (nv + 1), "contain": [None] * (nv + 1)}
    violations = []
    for counter in range(1 << len(off)):
        bits = sum(1 << i for j, i in enumerate(off) if counter >> j & 1)
        for case, extra in (("avoid", set()), ("contain", diag)):
            a = {tuple(v) for v in VertexSet.from_bits(g, bits)} | extra
            slack = len(neighborhood_oracle(g, a)) - nv
            k = len(a)
            if least[case][k] is None or slack < least[case][k]:
                least[case][k] = slack
            if slack < 0:
                witness = format(g.set_of(a).bits, "03x")
                violations.append({"case": case, "k": k, "witness_hex": witness})
    rep = diagonal_segment_check(g)
    assert rep.min_slack_avoid == least["avoid"]
    assert rep.min_slack_contain == least["contain"]
    assert rep.violations == violations
    assert {v["case"] for v in violations} == {"avoid", "contain"}


# sha256 of json.dumps(diagonal_segment_check(T_n).to_json_obj(),
# sort_keys=True), taken from the check that built the diagonal vertex by
# vertex before it was read as the final segment of size n + 1.
DIAGONAL_REPORT_SHA256 = {
    1: "792e25a46b2fba0a7c3b411c205b7acf22bfadb5f4081e82f766812e7dd077d1",
    2: "9e4a3d883746cd4a5494d5821d8083341498e9022be7b10383cf2da9b6bb5315",
    3: "15ae4f849a1e7faa6be606bf03a1dab4373ca6b51383f9fefbcb1642b18e433b",
    4: "a3ec53392215a11e433f797ecd4e4a52a63ec2e5c155fde251e06782aac89117",
    5: "1eeb770bac3611ab3d25af16e2be0805c333063a85409ee0f1375369400e1da0",
    6: "527b048eeecce00337c61e3bc46922bc125e2dc0afdd5bb4a5fc70ff080b9554",
}


@pytest.mark.parametrize("n", sorted(DIAGONAL_REPORT_SHA256))
def test_diagonal_reports_pinned(n):
    text = json.dumps(diagonal_segment_check(TriGrid(n)).to_json_obj(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DIAGONAL_REPORT_SHA256[n]


def test_certificate_examples():
    # m = floor(n/sqrt(2)) certifies for every order (subset here; full in acceptance)
    for n in range(1, 13):
        g = TriGrid(n)
        assert lower_bound_certificate(g, math.floor(n / math.sqrt(2)))
    # m = n+1 fails once the window reaches sizes with tiny packing minima
    for n in range(2, 9):
        assert not lower_bound_certificate(TriGrid(n), n + 1)
    # ... but n = 1 is the exception: the only window size has packing_min 2
    assert lower_bound_certificate(TriGrid(1), 2)
    # n=1, m=1: window (2, 3) is empty, vacuously true
    assert lower_bound_certificate(TriGrid(1), 1)
    assert lower_bound_certificate(TriGrid(5), 0)
    with pytest.raises(ValueError):
        lower_bound_certificate(TriGrid(3), 5)


def test_certificate_window_uses_packing_minimum():
    # spot-check the window arithmetic at n=4, m=3: i = 4+5 = 9
    g = TriGrid(4)
    assert lower_bound_certificate(g, 3) == all(
        packing_minimum(g, s) >= 3 for s in (10, 11)
    )


def test_certificate_equals_the_all_sizes_window_scan():
    # The certificate reads its window only at the two ends; the oracle
    # reads every size.
    for n in [*range(1, 121), 200, 333]:
        g = TriGrid(n)
        for m in range(n + 2):
            assert lower_bound_certificate(g, m) == certificate_oracle(g, m), (n, m)


def test_certificate_reads_only_the_window_ends(monkeypatch):
    calls = []
    real = isoperimetry.packing_minimum

    def counted(g, k):
        calls.append(k)
        return real(g, k)

    monkeypatch.setattr(isoperimetry, "packing_minimum", counted)
    g = TriGrid(1000)
    for m in range(g.n + 2):
        calls.clear()
        lower_bound_certificate(g, m)
        i = g.vertex_count - m * (m + 1) // 2
        assert set(calls) <= {i + 1, i + m - 1} and len(set(calls)) == len(calls), m
        assert bool(calls) == (m >= 2), m


@pytest.mark.parametrize("n, lower", [(200, 142), (500, 355), (1000, 708)])
def test_certified_lower_at_large_orders(n, lower):
    g = TriGrid(n)
    assert max(m for m in range(n + 2) if lower_bound_certificate(g, m)) == lower
