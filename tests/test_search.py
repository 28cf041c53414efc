import hashlib
import itertools
import json
import math
import random

import pytest

from trigrid import (
    SearchTrace,
    TraceError,
    TriGrid,
    VertexSet,
    column_sweep_strategy,
    couple_to_search,
    exact_inspection_number,
    inspection_bounds_report,
    lower_bound_certificate,
    search,
    step,
    sweep_budget,
    three_stage_strategy,
    verify_trace,
)
from trigrid.cli import EXIT_VERIFY, main

from helpers import (
    random_vertex_set,
    record_solver_counts,
    recording,
    search_clearable_oracle,
    traced_peak,
)


def test_budget_formula():
    assert [sweep_budget(n) for n in (1, 2, 3, 4, 5, 8)] == [3, 4, 5, 5, 6, 8]


def test_step_examples():
    g = TriGrid(1)
    full = g.full_set()
    assert step(g, full, g.set_of([(0, 0), (1, 0)])) == full
    assert step(g, g.empty_set(), g.set_of([(0, 0)])) == g.empty_set()
    assert step(g, full, full) == g.empty_set()


def test_step_monotone_and_inert_outside_dirty():
    rng = random.Random(21)
    g = TriGrid(5)
    for _ in range(100):
        d = random_vertex_set(g, rng)
        d2 = d | random_vertex_set(g, rng)
        s = random_vertex_set(g, rng)
        assert step(g, d, s).issubset(step(g, d2, s))
        assert step(g, d, s) == step(g, d, s & d)


def test_full_budget_clears_any_state():
    rng = random.Random(22)
    g = TriGrid(4)
    for _ in range(20):
        d = random_vertex_set(g, rng)
        assert step(g, d, g.full_set()) == g.empty_set()


def test_three_stage_small_cases():
    g1 = TriGrid(1)
    tr = three_stage_strategy(g1)
    assert len(tr.searches) == 1 and tr.searches[0] == g1.full_set()
    assert verify_trace(g1, tr)


def test_three_stage_verifies_and_respects_budget():
    for n in range(1, 26):
        g = TriGrid(n)
        tr = three_stage_strategy(g)
        assert tr.budget == sweep_budget(n)
        assert verify_trace(g, tr)
        assert tr.max_search_size() <= tr.budget


def test_three_stage_stage2_frame_t5():
    # Stage 2's single turn on T_5 (turn index 10): examined, still-dirty,
    # and fully-cleared cells frozen from the staged construction.
    g = TriGrid(5)
    tr = three_stage_strategy(g)
    s, dirty = tr.searches[10], tr.dirty_after[10]
    assert {tuple(v) for v in s} == {(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)}
    assert {tuple(v) for v in dirty - s} == {
        (2, 0), (3, 0), (4, 0), (5, 0), (3, 1), (4, 1), (2, 2), (3, 2),
    }
    assert {tuple(v) for v in (dirty | s).complement()} == {
        (0, 2), (1, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (0, 5),
    }


# Digests of the sweep's searches.  Orders 1..12 cover orders 1-3, where
# q = floor(n/4) = 0 and the row phases alone clear the grid (n = 1 in one
# full-grid turn).  SWEEP_SEARCHES_SHA256 was taken when those orders
# stopped searching row 0 after the grid is clear;
# SWEEP_SEARCHES_FROM_4_SHA256, over the orders that change does not
# reach, was taken before, from the schedule first built from coordinate
# lists, so those orders are unchanged bit for bit.
SWEEP_SEARCHES_SHA256 = "060050512750206369c8116d3023c0d18402f400858b27c8eb16d7e898e9f547"
SWEEP_SEARCHES_FROM_4_SHA256 = "e3b83cdebd5a8c147a4900bdbd25c6bb28dfe88a32fba4fbfbd6df6da819451b"
SWEEP_T15_JSON_SHA256 = "e6caaad014ef2719ffa517f2b7da835c660ef5fb155b0190501fa6f2b3fe608a"


def _searches_digest(orders):
    h = hashlib.sha256()
    for n in orders:
        for s in three_stage_strategy(TriGrid(n)).searches:
            h.update(f"{n} {s.to_hex()}\n".encode())
    return h.hexdigest()


def test_three_stage_searches_pinned():
    assert _searches_digest((*range(1, 13), 13, 29, 45, 60)) == SWEEP_SEARCHES_SHA256
    assert _searches_digest((*range(4, 13), 13, 29, 45, 60)) == SWEEP_SEARCHES_FROM_4_SHA256


# Past n = 60: each order's "n budget" line, then each search's bits as
# (V + 7) // 8 little-endian bytes, straight from the builder (no replay).
SWEEP_SEARCHES_61_TO_120_AND_200_SHA256 = "d0c7d72b43d2d6e61620d5bc58b29634afa5574ee0ab2ae2062cc6e24a4aa1e3"


def test_three_stage_searches_pinned_past_60():
    h = hashlib.sha256()
    for n in (*range(61, 121), 200):
        grid = TriGrid(n)
        budget, searches = search._three_stage_searches(grid)
        width = (grid.vertex_count + 7) // 8
        h.update(f"{n} {budget}\n".encode())
        for s in searches:
            h.update(s.to_bytes(width, "little"))
    assert h.hexdigest() == SWEEP_SEARCHES_61_TO_120_AND_200_SHA256


def test_three_stage_never_searches_a_clear_grid():
    for n in range(1, 31):
        dirty = [d.bits for d in three_stage_strategy(TriGrid(n)).dirty_after]
        assert all(dirty[:-1]) and not dirty[-1], n
    # Orders 2 and 3 (q = 0) run only the row phases: one turn per step, the last clearing.
    assert [len(d) for d in three_stage_strategy(TriGrid(2)).dirty_after] == [5, 3, 0]
    assert [len(d) for d in three_stage_strategy(TriGrid(3)).dirty_after] == [9, 8, 7, 5, 3, 0]


def test_three_stage_trace_json_bytes_pinned():
    text = three_stage_strategy(TriGrid(15)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_T15_JSON_SHA256


def test_verify_trace_empty_is_false():
    g = TriGrid(2)
    tr = SearchTrace.from_searches(g, sweep_budget(2), [])
    assert verify_trace(g, tr) is False


@pytest.mark.parametrize("bad", ["x", None, {"n": 2, "budget": 4, "searches": []}], ids=repr)
def test_verify_trace_refuses_a_non_trace(bad):
    with pytest.raises(TraceError, match=f"^expected a SearchTrace, got {type(bad).__name__}$"):
        verify_trace(TriGrid(2), bad)


def test_verify_trace_refuses_a_trace_of_another_order():
    with pytest.raises(TraceError, match="^trace order does not match grid$"):
        verify_trace(TriGrid(3), three_stage_strategy(TriGrid(2)))


def test_verify_trace_oversized_raises():
    g = TriGrid(2)
    tr = SearchTrace.from_searches(g, 2, [g.set_of([(0, 0), (1, 0), (0, 1)])])
    with pytest.raises(TraceError, match="turn 0"):
        verify_trace(g, tr)


def test_verify_trace_detects_tampered_states():
    g = TriGrid(2)
    tr = three_stage_strategy(g)
    tr.dirty_after[1] = tr.dirty_after[1] ^ g.set_of([(0, 0)])
    with pytest.raises(TraceError, match="turn 1"):
        verify_trace(g, tr)
    # A stored state that is not a VertexSet of this grid disagrees too.
    honest = three_stage_strategy(g)
    for bad in (honest.dirty_after[0].to_hex(), honest.dirty_after[0].bits,
                VertexSet.from_bits(TriGrid(3), honest.dirty_after[0].bits)):
        states = [bad] + honest.dirty_after[1:]
        with pytest.raises(TraceError, match="^turn 0: stored dirty state disagrees"):
            verify_trace(g, SearchTrace(g, honest.budget, honest.searches, states))


def test_verify_trace_refuses_a_wrong_stored_state_count():
    g = TriGrid(3)
    tr = three_stage_strategy(g)
    turns = len(tr.searches)
    extra = SearchTrace(g, tr.budget, tr.searches, tr.dirty_after + [g.full_set()])
    truncated = SearchTrace(g, tr.budget, tr.searches, tr.dirty_after[:2])
    for trace, count in ((extra, turns + 1), (truncated, 2)):
        with pytest.raises(TraceError, match=f"^{count} stored dirty states for {turns} turns$"):
            verify_trace(g, trace)
    assert verify_trace(g, SearchTrace(g, tr.budget, tr.searches))  # no stored states


@pytest.mark.parametrize("budget", [2.5, True, -1])
def test_verify_trace_refuses_a_budget_that_is_not_an_integer_at_least_0(budget):
    g = TriGrid(3)
    tr = three_stage_strategy(g)
    for trace in (tr, SearchTrace(g, tr.budget, tr.searches)):
        with pytest.raises(ValueError, match="^budget must be"):
            verify_trace(g, SearchTrace(g, budget, trace.searches, trace.dirty_after))


def test_trace_json_round_trip_and_checksums():
    g = TriGrid(3)
    tr = three_stage_strategy(g)
    obj = json.loads(tr.to_json())
    back = SearchTrace.from_json_obj(obj)
    assert back.to_json() == tr.to_json()
    obj["dirty_checksums"][0] = "00"
    with pytest.raises(TraceError, match="checksum"):
        SearchTrace.from_json_obj(obj)
    with pytest.raises(TraceError):
        SearchTrace.from_json_obj({"n": 3, "budget": 5})


def test_trace_json_checks_checksums_turn_by_turn_then_their_count():
    obj = json.loads(three_stage_strategy(TriGrid(3)).to_json())
    sums = obj["dirty_checksums"]
    for stored in (sums[:-1], sums + [sums[-1]]):
        with pytest.raises(TraceError, match="^dirty checksum count does not match turn count$"):
            SearchTrace.from_json_obj({**obj, "dirty_checksums": stored})
    wrong = sums[:2] + ["00"] + sums[3:]
    for stored in (wrong, wrong[:-1], wrong + ["00"]):
        with pytest.raises(TraceError, match="^dirty checksum mismatch at turn 2$"):
            SearchTrace.from_json_obj({**obj, "dirty_checksums": stored})


@pytest.mark.parametrize("n", [3, 7])
def test_trace_without_stored_states_reads_back(n):
    # Built directly, the sweep has no stored states and writes an empty
    # checksum list, which reads back as none, the rule verify_trace uses.
    g = TriGrid(n)
    budget, masks = search._three_stage_searches(g)
    searches = [VertexSet.from_bits(g, s) for s in masks]
    trace = SearchTrace(g, budget, searches)
    assert verify_trace(g, trace)
    obj = json.loads(trace.to_json())
    assert obj["dirty_checksums"] == []
    back = SearchTrace.from_json_obj(obj)
    assert (back.budget, back.searches) == (budget, searches)
    assert back.to_json() == three_stage_strategy(g).to_json()
    sums = json.loads(back.to_json())["dirty_checksums"]
    with pytest.raises(TraceError, match="^dirty checksum count does not match turn count$"):
        SearchTrace.from_json_obj({**obj, "dirty_checksums": sums[:-1]})


def test_trace_json_detects_tampered_search_sets():
    # Turn 11 gains (4, 0) and clears the last dirty vertex a turn early;
    # turn 12 loses (3, 0), which stays dirty.  The kept checksums then no
    # longer match the replay.
    text = three_stage_strategy(TriGrid(4)).to_json()
    edits = ((11, lambda s: s.append([4, 0])), (12, lambda s: s.remove([3, 0])))
    for turn, edit in edits:
        obj = json.loads(text)
        edit(obj["searches"][turn])
        with pytest.raises(TraceError, match=f"checksum mismatch at turn {turn}"):
            SearchTrace.from_json_obj(obj)


def test_trace_json_refuses_an_order_above_the_cap():
    from trigrid import LionTrace

    search_obj = {"n": 4097, "budget": 1, "searches": []}
    lion_obj = {"n": 4097, "start": [[0, 0]], "moves": []}
    for cls, obj in ((SearchTrace, search_obj), (LionTrace, lion_obj)):
        with pytest.raises(TraceError, match="grid order must be in 1..4096, got 4097"):
            cls.from_json_obj(obj)


def _dumped(trace):
    return json.dumps(trace.to_json_obj(), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("n", [*range(1, 14), 15, 30, 45, 60])
def test_trace_writer_matches_json_dumps_on_sweeps(n):
    trace = three_stage_strategy(TriGrid(n))
    assert trace.to_json() == _dumped(trace)


def test_trace_writer_holds_about_one_copy_of_its_text():
    trace = three_stage_strategy(TriGrid(60))
    peak, text = traced_peak(trace.to_json)
    assert peak < 2 * len(text)


def test_trace_writer_matches_json_dumps_on_coupled_and_edge_cases():
    g = TriGrid(3)
    coupled = [couple_to_search(column_sweep_strategy(TriGrid(n))) for n in (*range(1, 11), 40)]
    traces = [
        *coupled,
        SearchTrace.from_searches(g, 4, []),  # no turns
        SearchTrace.from_searches(g, 4, [g.empty_set(), g.full_set()]),  # an empty search
        SearchTrace(grid=g, budget=4, searches=[g.set_of([(0, 0), (1, 2)])]),  # no states
        SearchTrace.from_json_obj(json.loads(three_stage_strategy(TriGrid(7)).to_json())),
    ]
    for trace in traces:
        assert trace.to_json() == _dumped(trace)


def _block_edge_traces():
    """Traces of block - 1, block, block + 1 and 2 * block + 1 turns on
    grids whose V is a multiple of 8 (n = 14, 15) and not, with empty
    searches first and last in a block, two across a block edge, and a
    full-grid search."""
    block = search._TRACE_BLOCK
    rng = random.Random(29)
    for n in (4, 13, 14, 15):
        g = TriGrid(n)
        nv = g.vertex_count
        for turns in (block - 1, block, block + 1, 2 * block + 1):
            searches = [
                VertexSet.from_bits(g, rng.getrandbits(nv) & rng.getrandbits(nv))
                for _ in range(turns)
            ]
            for t in (0, block - 1, block, 2 * block, turns - 1):
                if t < turns:
                    searches[t] = g.empty_set()
            searches[turns // 3] = g.full_set()
            yield SearchTrace.from_searches(g, nv, searches)


def test_trace_writer_matches_json_dumps_across_block_edges():
    assert (TriGrid(14).vertex_count, TriGrid(15).vertex_count) == (120, 136)
    for trace in _block_edge_traces():
        assert trace.to_json() == _dumped(trace), (trace.n, len(trace.searches))


def test_trace_text_does_not_depend_on_the_block_size(monkeypatch):
    traces = list(_block_edge_traces())
    texts = [trace.to_json() for trace in traces]
    monkeypatch.setattr(search, "_TRACE_BLOCK", 7)
    assert [trace.to_json() for trace in traces] == texts


@pytest.mark.parametrize("writer", ["to_json", "to_json_obj"])
def test_trace_writers_refuse_a_set_of_another_grid(writer):
    g, big = TriGrid(3), TriGrid(5)
    foreign = [big.set_of([(5, 0)]), big.set_of([(0, 5)]), big.set_of([(0, 0)])]
    for s in foreign:
        for trace in (
            SearchTrace(grid=g, budget=4, searches=[s]),
            SearchTrace(grid=g, budget=4, searches=[g.empty_set()], dirty_after=[s]),
        ):
            with pytest.raises(ValueError, match="vertex set does not belong to this grid"):
                getattr(trace, writer)()


def test_trace_json_refuses_coercion():
    obj = json.loads(three_stage_strategy(TriGrid(2)).to_json())
    cases = (
        ("n", 2.9),
        ("n", True),
        ("budget", 4.0),
        ("budget", -1),
        ("dirty_checksums", 5),
        ("dirty_checksums", [0]),
        ("dirty_checksums", None),
    )
    for key, value in cases:
        with pytest.raises(TraceError):
            SearchTrace.from_json_obj({**obj, key: value})
    bad_search = [[0.0, 1]] + obj["searches"][0][1:]
    with pytest.raises(TraceError):
        SearchTrace.from_json_obj({**obj, "searches": [bad_search] + obj["searches"][1:]})


def test_exact_solver_matches_unpruned_oracle():
    for n in (1, 2):
        g = TriGrid(n)
        for m in range(1, sweep_budget(n) + 1):
            from trigrid.search import _budget_solver

            assert _budget_solver(g)(m) == search_clearable_oracle(g, m)


def test_exact_solver_matches_oracle_t3_t4():
    from trigrid.search import _budget_solver

    for n, m in ((3, 3), (3, 4), (4, 4)):
        g = TriGrid(n)
        assert _budget_solver(g)(m) == search_clearable_oracle(g, m)


def test_exact_solver_one_order_past_the_cap():
    # In(T_5) = 6: the symmetry tables span both halves of the split there.
    from trigrid.search import _budget_solver

    clearable = _budget_solver(TriGrid(5))
    assert [clearable(m) for m in (5, 6)] == [False, True]


def test_budget_solver_clears_t4_at_the_sweep_budget():
    # exact_inspection_number no longer asks for budget 5 on T_4: the
    # sweep's replay settles it, so the solver is checked there directly.
    from trigrid.search import _budget_solver

    assert _budget_solver(TriGrid(4))(5)


@pytest.mark.parametrize(
    "clears, top, upper, least, asked",
    [
        (lambda k: False, 9, 4, 4, [1, 2, 3]),  # upper itself is never asked
        (lambda k: k >= 2, 9, 4, 2, [1, 2]),
        (lambda k: False, 5, 6, None, [1, 2, 3, 4, 5]),  # a bound past top
        (lambda k: False, 5, None, None, [1, 2, 3, 4, 5]),  # no strategy cleared
    ],
    ids=["upper", "below-upper", "none", "no-upper"],
)
def test_least_asks_only_below_upper(clears, top, upper, least, asked):
    seen = []
    assert search._least(recording(clears, seen), top, upper) == least
    assert seen == asked


INSPECTION_NUMBERS = {1: 3, 2: 4, 3: 4, 4: 5}


def test_exact_inspection_number_stops_at_the_sweep_budget(monkeypatch):
    asked = record_solver_counts(monkeypatch, search, "_budget_solver")
    for n, value in INSPECTION_NUMBERS.items():
        asked.clear()
        assert exact_inspection_number(TriGrid(n), 6) == value
        # every budget below the least one and below the sweep's own
        assert asked == list(range(1, min(value + 1, sweep_budget(n)))), n


def test_exact_inspection_number_searches_every_budget_when_the_sweep_fails(monkeypatch):
    asked = record_solver_counts(monkeypatch, search, "_budget_solver")
    build = search._three_stage_searches

    def short(grid):
        budget, searches = build(grid)
        return budget, searches[:-1]

    monkeypatch.setattr(search, "_three_stage_searches", short)
    for n, value in INSPECTION_NUMBERS.items():
        asked.clear()
        assert exact_inspection_number(TriGrid(n), 6) == value
        assert asked == list(range(1, value + 1)), n
    asked.clear()
    assert exact_inspection_number(TriGrid(4), 4) is None
    assert asked == [1, 2, 3, 4]


def test_search_sets_equal_itertools_combinations():
    from trigrid.search import _search_sets

    sizes = [TriGrid(n).vertex_count for n in range(1, 5)]
    cases = [(nv, m) for nv in sizes for m in range(nv + 1)] + [(TriGrid(5).vertex_count, 6)]
    for nv, m in cases:
        table = _search_sets(nv, m).tolist()
        combos = {sum(1 << i for i in c) for c in itertools.combinations(range(nv), m)}
        assert len(table) == len(combos) and set(table) == combos, (nv, m)


def test_reaches_stops_at_a_win_or_when_states_run_out():
    from trigrid.search import _reaches

    expanded = []

    def walk(goal):
        # states 0..9; s steps to s + 1 and 2s, both mod 10
        def expand(s):
            expanded.append(s)
            succ = [(s + 1) % 10, 2 * s % 10]
            return None if goal in succ else succ

        return expand

    assert _reaches([3, 3], walk(5))
    assert expanded == [3, 4]  # level by level, a repeated start once
    expanded.clear()
    assert not _reaches([0], walk(10))
    assert sorted(expanded) == list(range(10))  # every state, once each


def test_inspection_number_small_orders():
    assert exact_inspection_number(TriGrid(1), 3) == 3
    for n in (1, 2, 3):
        g = TriGrid(n)
        val = exact_inspection_number(g, sweep_budget(n))
        assert val is not None
        assert n / math.sqrt(2) < val <= sweep_budget(n)


def test_inspection_number_unknown_and_limit():
    assert exact_inspection_number(TriGrid(2), 1) is None
    with pytest.raises(ValueError):
        exact_inspection_number(TriGrid(5), 3)


def test_certificate_consistent_with_solver():
    for n in (1, 2, 3):
        g = TriGrid(n)
        val = exact_inspection_number(g, sweep_budget(n))
        for m in range(0, n + 2):
            if lower_bound_certificate(g, m):
                assert val > m


# The certified `lower` column of `search bounds --n-max 50`.
CERTIFIED_LOWER = [
    2, 2, 3, 4, 5, 5, 6, 7, 7, 8, 9, 10, 10, 11, 12, 12, 13, 14, 14, 15,
    16, 17, 17, 18, 19, 19, 20, 21, 22, 22, 23, 24, 24, 25, 26, 27, 27, 28, 29, 29,
    30, 31, 31, 32, 33, 34, 34, 35, 36, 36,
]


def test_certified_lower_column_up_to_50():
    lower = [
        max(m for m in range(n + 2) if lower_bound_certificate(TriGrid(n), m))
        for n in range(1, 51)
    ]
    assert lower == CERTIFIED_LOWER


def test_bounds_report_lower_is_the_largest_certified_m():
    # Read from the top, lower is the all-m maximum: m = 0 always certifies.
    # The report stops at n = 50; the rule is checked to n = 120.
    for n in range(1, 121):
        g = TriGrid(n)
        certified = [m for m in range(n + 2) if lower_bound_certificate(g, m)]
        from_top = next(m for m in range(n + 1, -1, -1) if lower_bound_certificate(g, m))
        assert certified[0] == 0 and from_top == certified[-1], n
    rows = inspection_bounds_report(50, exact_up_to=0)
    assert [r.lower for r in rows] == CERTIFIED_LOWER


def test_bounds_report_reads_lower_from_the_top(monkeypatch):
    asked = []
    certify = search.lower_bound_certificate

    def counted(grid, m):
        asked.append(grid.n)
        return certify(grid, m)

    monkeypatch.setattr(search, "lower_bound_certificate", counted)
    rows = inspection_bounds_report(24, exact_up_to=0)
    calls = [asked.count(n) for n in range(1, 25)]
    assert calls == [r.n + 2 - r.lower for r in rows]
    assert calls == [
        1, 2, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7,
        7, 7, 8, 8,
    ]


def test_bounds_report_rows():
    rows = inspection_bounds_report(6, exact_up_to=1)
    assert [r.n for r in rows] == [1, 2, 3, 4, 5, 6]
    assert set(rows[0].to_json_obj()) == {"n", "lower", "upper", "upper_verified", "exact"}
    for r in rows:
        assert r.lower < r.upper
        assert r.upper_verified
        assert r.lower >= math.floor(r.n / math.sqrt(2))
    assert rows[0].exact == 3
    assert rows[3].lower >= 2 and rows[3].upper == 5
    assert rows[1].exact is None
    with pytest.raises(ValueError):
        inspection_bounds_report(51)
    with pytest.raises(ValueError):
        inspection_bounds_report(2, exact_up_to=-5)


def test_bounds_report_replays_each_sweep_once(monkeypatch):
    calls = 0
    spread = TriGrid.spread_bits

    def counted(self, bits):
        nonlocal calls
        calls += 1
        return spread(self, bits)

    turns = sum(len(three_stage_strategy(TriGrid(n)).searches) for n in range(1, 9))
    monkeypatch.setattr(TriGrid, "spread_bits", counted)
    for exact_up_to in (0, 4):  # an exact order reads the same verdict
        calls = 0
        inspection_bounds_report(8, exact_up_to=exact_up_to)
        assert calls == turns, exact_up_to


# sha256 of json.dumps(rows, sort_keys=True) for inspection_bounds_report(24,
# exact_up_to=4), as the report gave when it replayed each sweep twice.
BOUNDS_24_SHA256 = "616f985923319f001c64be526dc4a047b29e46e95a082d53cc39d2f06665e336"


def test_bounds_report_rows_pinned():
    rows = [r.to_json_obj() for r in inspection_bounds_report(24, exact_up_to=4)]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == BOUNDS_24_SHA256


def test_bounds_report_flags_a_sweep_that_does_not_clear(monkeypatch, capsys):
    build = search._three_stage_searches

    def short(grid):
        budget, searches = build(grid)
        return budget, searches[:-1]

    monkeypatch.setattr(search, "_three_stage_searches", short)
    # The sweep's last search is needed at every order.
    rows = inspection_bounds_report(6, exact_up_to=0)
    assert [r.upper_verified for r in rows] == [False] * 6
    assert main(["search", "bounds", "--n-max", "6", "--exact-up-to", "0"]) == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_bounds_report_searches_every_budget_when_the_sweep_fails(monkeypatch):
    build = search._three_stage_searches

    def short(grid):
        budget, searches = build(grid)
        return budget, searches[:-1]

    monkeypatch.setattr(search, "_three_stage_searches", short)
    asked = record_solver_counts(monkeypatch, search, "_budget_solver")
    rows = inspection_bounds_report(6, exact_up_to=4)
    assert [r.exact for r in rows] == [3, 4, 4, 5, None, None]
    assert not any(r.upper_verified for r in rows)
    assert asked == [k for value in INSPECTION_NUMBERS.values() for k in range(1, value + 1)]


def test_sweep_upper_matches_verify_trace():
    for n in range(1, 61):
        g = TriGrid(n)
        budget = sweep_budget(n)
        expected = budget if verify_trace(g, three_stage_strategy(g)) else None
        assert search._sweep_upper(g) == (budget, expected), n


def test_sweep_upper_and_verify_trace_agree_on_a_short_sweep(monkeypatch):
    build = search._three_stage_searches

    def short(grid):
        budget, masks = build(grid)
        return budget, masks[:-1]

    monkeypatch.setattr(search, "_three_stage_searches", short)
    for n in range(1, 13):
        g = TriGrid(n)
        assert search._sweep_upper(g) == (sweep_budget(n), None), n
        assert verify_trace(g, three_stage_strategy(g)) is False, n
        unstored = SearchTrace(g, sweep_budget(n), three_stage_strategy(g).searches)
        assert verify_trace(g, unstored) is False, n


def test_sweep_upper_and_verify_trace_refuse_a_mask_past_the_budget(monkeypatch):
    build = search._three_stage_searches
    turn = {}

    def grown(grid):
        budget, masks = build(grid)
        t = turn[grid.n] = len(masks) // 2
        s, free = masks[t], grid.full_mask & ~masks[t]
        while s.bit_count() <= budget:  # add free vertices, lowest first
            s |= free & -free
            free &= free - 1
        return budget, masks[:t] + [s] + masks[t + 1 :]

    monkeypatch.setattr(search, "_three_stage_searches", grown)
    for n in range(2, 13):
        g = TriGrid(n)
        budget = sweep_budget(n)
        errors = []
        for check in (
            lambda: search._sweep_upper(g),
            lambda: verify_trace(g, three_stage_strategy(g)),
            lambda: verify_trace(g, SearchTrace(g, budget, three_stage_strategy(g).searches)),
        ):
            with pytest.raises(TraceError) as err:
                check()
            errors.append(str(err.value))
        assert errors == [
            f"turn {turn[n]}: search of size {budget + 1} exceeds budget {budget}"
        ] * 3, n


def test_dirty_states_on_masks_are_the_stored_states():
    for n in range(1, 13):
        g = TriGrid(n)
        trace = three_stage_strategy(g)
        _, masks = search._three_stage_searches(g)
        assert masks == [s.bits for s in trace.searches]
        assert list(search._dirty_states(g, masks)) == [d.bits for d in trace.dirty_after], n


def test_verify_trace_reads_the_searches_once():
    # A one-shot iterable of searches gives the list's verdict, with and
    # without stored states, for the sweep and for the sweep one turn short.
    for n in range(1, 9):
        g = TriGrid(n)
        sweep = three_stage_strategy(g)
        short = SearchTrace.from_searches(g, sweep.budget, sweep.searches[:-1])
        for trace in (sweep, short):
            for states in (trace.dirty_after, []):
                verdict = verify_trace(g, SearchTrace(g, trace.budget, trace.searches, states))
                assert verdict is (trace is sweep), n
                for make in (lambda xs: (s for s in xs), iter, tuple):
                    once = SearchTrace(g, trace.budget, make(trace.searches), states)
                    assert verify_trace(g, once) is verdict, (n, make)
