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
    interior_boundary_oracle,
    neighborhood_oracle,
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
    # n = 5 has 2^21 ids in 2^16-id chunks: the shard edges of 2 workers
    # fall on a chunk boundary, those of 3 workers inside a chunk.
    for n, workers in ((3, 3), (5, 2), (5, 3)):
        g = TriGrid(n)
        assert (
            exhaustive_min_boundary(g, workers=1).to_json_obj()
            == exhaustive_min_boundary(g, workers=workers).to_json_obj()
        )


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


def test_scan_range_off_chunk_edges_matches_scalar_scan():
    # An id range of T_5 that starts and ends inside 2^16-id chunks and
    # spans a whole one; minima and smallest witnesses from spread_bits.
    n, start, stop = 5, 65536 - 300, 2 * 65536 + 300
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


def test_sampled_check_zero_samples():
    # a check with nothing to check has no verdict, so it refuses to run
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples"):
            sampled_check(TriGrid(4), samples, seed=1)


def test_sampled_check_t9_clean():
    rep = sampled_check(TriGrid(9), 100_000, seed=99)
    assert rep.ok and rep.checked == 100_000
    assert rep.min_slack is not None and rep.min_slack >= 0


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
    with pytest.raises(ValueError, match="n <= 6"):
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
