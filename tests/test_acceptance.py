"""Acceptance gate: one test per criterion, exact tolerances, one line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the PASS lines;
a failing criterion shows up as an ordinary pytest failure.
"""

import math
import random

import numpy as np

from trigrid import (
    TriGrid,
    boundary,
    claim_check,
    column_sweep_strategy,
    compress_left,
    couple_to_search,
    exact_inspection_number,
    exact_lion_number,
    exhaustive_min_boundary,
    final_segment,
    final_segment_boundary_size,
    initial_segment,
    initial_segment_boundary_size,
    lower_bound_certificate,
    random_legal_walk,
    sweep_budget,
    three_stage_strategy,
    verify_trace,
)
from trigrid import bulk

from test_lions import column_invariant_holds


def _ok(name):
    print(f"PASS {name}")


def test_exhaustive_minima_equal_packing_minima():
    for n in range(1, 6):
        table = exhaustive_min_boundary(TriGrid(n))
        mismatches = [
            k
            for k, (mb, pm) in enumerate(zip(table.min_boundary, table.packing_min))
            if mb != pm
        ]
        assert not mismatches, f"n={n}: unverified cardinalities {mismatches}"
        assert table.all_verified()
    _ok("exhaustive boundary minima equal packing minima, n = 1..5, exact")


def test_compression_never_grows_neighborhoods():
    violations = 0
    for n in range(1, 5):  # every subset
        g = TriGrid(n)
        ids = np.arange(1 << g.vertex_count, dtype=np.uint64)
        mat = bulk.subsets_from_ids(g, ids)
        before = bulk.neighborhood_sizes(g, mat)
        for axis in (1, 2):
            for side in ("left", "right"):
                after = bulk.neighborhood_sizes(g, bulk.compress(g, mat, axis, side))
                violations += int((after > before).sum())
    g9 = TriGrid(9)
    rng = np.random.default_rng(20240131)
    remaining = 100_000
    while remaining > 0:
        mat = bulk.random_subsets(g9, min(20_000, remaining), rng)
        before = bulk.neighborhood_sizes(g9, mat)
        for axis in (1, 2):
            for side in ("left", "right"):
                after = bulk.neighborhood_sizes(g9, bulk.compress(g9, mat, axis, side))
                violations += int((after > before).sum())
        remaining -= mat.shape[0]
    assert violations == 0
    _ok(
        "compression monotonicity: all four operators, exhaustive n <= 4 "
        "and 10^5 seeded subsets at n = 9, zero violations"
    )


def test_closed_forms_match_direct_boundaries():
    for n in range(1, 9):
        g = TriGrid(n)
        for k in range(g.vertex_count + 1):
            assert initial_segment_boundary_size(g, k) == len(
                boundary(g, initial_segment(g, k))
            )
            assert final_segment_boundary_size(g, k) == len(
                boundary(g, final_segment(g, k))
            )
    _ok("segment boundary closed forms: exact on every k in [0, |V|], n <= 8")


def test_worked_compression_example_exact():
    g = TriGrid(3)
    a = g.set_of([(1, 1), (2, 0)])
    assert compress_left(g, a, 1) == g.set_of([(1, 0), (2, 0)])
    assert compress_left(g, a, 2) == g.set_of([(0, 0), (0, 1)])
    _ok("worked T_3 compression example: both left compressions, exact")


def test_search_upper_bound_sweep_clears_up_to_60():
    for n in range(1, 61):
        g = TriGrid(n)
        trace = three_stage_strategy(g)
        assert trace.budget == sweep_budget(n)
        assert verify_trace(g, trace), f"n={n}: strategy does not clear"
        assert trace.max_search_size() <= trace.budget
    _ok("search upper bound: three-stage sweep clears at ceil(3n/4)+2 for n <= 60")


def test_search_lower_bound_certificates_and_exact_values():
    for n in range(1, 51):
        g = TriGrid(n)
        assert lower_bound_certificate(g, math.floor(n / math.sqrt(2))), n
    assert exact_inspection_number(TriGrid(1), 3) == 3
    for n in (2, 3, 4):
        g = TriGrid(n)
        val = exact_inspection_number(g, sweep_budget(n))
        assert val is not None
        assert n / math.sqrt(2) < val <= sweep_budget(n), (n, val)
    _ok(
        "search lower bound: certificate at floor(n/sqrt(2)) for n <= 50; "
        "exact In(T_1) = 3 and In(T_2..4) inside (n/sqrt(2), budget]"
    )


def test_t2_lion_sweep_contamination_sequence_exact():
    trace = column_sweep_strategy(TriGrid(2))
    states = [sorted(tuple(v) for v in c) for c in trace.contaminated]
    assert states == [
        [(1, 0), (1, 1), (2, 0)],
        [(1, 1), (2, 0)],
        [(2, 0)],
        [],
    ]
    _ok("T_2 column sweep contamination reproduced turn by turn, exact")


def test_lion_upper_bound_column_sweep_up_to_40():
    for n in range(1, 41):
        trace = column_sweep_strategy(TriGrid(n))
        assert trace.lions == n + 1
        assert trace.is_winning(), f"n={n}: sweep does not clear"
        assert column_invariant_holds(trace), f"n={n}: column invariant broken"
    _ok("lion upper bound: n+1 lions clear for n <= 40, column invariant holds")


def test_coupling_and_claim():
    violations = 0
    for n in range(1, 21):
        g = TriGrid(n)
        trace = column_sweep_strategy(g)
        if not claim_check(trace):
            violations += 1
        st = couple_to_search(trace)
        if not (verify_trace(g, st) and st.max_search_size() <= 2 * trace.lions):
            violations += 1
    rng = random.Random(777)
    for _ in range(1000):
        n = rng.randrange(1, 6)
        g = TriGrid(n)
        walk = random_legal_walk(g, rng.randrange(1, n + 3), rng.randrange(0, 14), rng)
        if not claim_check(walk):
            violations += 1
        if walk.is_winning():
            st = couple_to_search(walk)
            if not (verify_trace(g, st) and st.max_search_size() <= 2 * walk.lions):
                violations += 1
    assert violations == 0
    _ok(
        "Coupling/claim: sweeps n <= 20 and 10^3 random walks at n <= 5; "
        "search trace verifies at budget 2L, zero violations"
    )


def test_exact_lion_numbers():
    assert exact_lion_number(TriGrid(1), 3) == 2
    val = exact_lion_number(TriGrid(2), 3)
    assert val is not None
    assert 2 / (2 * math.sqrt(2)) < val <= 3
    _ok(f"Exact lion numbers: l(T_1) = 2, l(T_2) = {val} inside (1/sqrt(2), 3]")
