import dataclasses
import hashlib
import json
import random

import pytest

from trigrid import (
    Coord,
    LionTrace,
    TraceError,
    TriGrid,
    claim_check,
    column_sweep_strategy,
    couple_to_search,
    exact_lion_number,
    lion_step,
    neighborhood,
    random_legal_walk,
    verify_trace,
)
from trigrid.lions import coupled_searches

from helpers import adjacency_oracle, lion_turn_oracle, lions_clearable_oracle

# Digests of the column sweep as first replayed from coordinates; the
# id-level replay must reproduce it bit for bit.
COLUMN_SWEEP_SHA256 = "75a9f94e031d501850a25371c16691851711d16ba1072b684302ece743ccc76c"
COLUMN_SWEEP_T10_JSON_SHA256 = "7aa1410ec1909fe43e6b787d1be86186d378b9375b264b8a8fe3ed0607c95310"


def test_lion_step_t2_worked_panels():
    g = TriGrid(2)
    pos = (Coord(0, 0), Coord(0, 1), Coord(0, 2))
    cont = g.set_of([(1, 0), (1, 1), (2, 0)])
    pos, cont = lion_step(g, pos, [Coord(1, 0), None, None], cont)
    assert cont == g.set_of([(1, 1), (2, 0)])
    pos, cont = lion_step(g, pos, [None, Coord(1, 1), None], cont)
    assert cont == g.set_of([(2, 0)])
    pos, cont = lion_step(g, pos, [Coord(2, 0), None, None], cont)
    assert cont == g.empty_set()
    assert pos == (Coord(2, 0), Coord(1, 1), Coord(0, 2))


def test_lion_step_no_sources():
    g = TriGrid(2)
    pos = (Coord(1, 1),)
    new_pos, cont = lion_step(g, pos, [None], g.empty_set())
    assert new_pos == pos and not cont


def test_lion_step_validation():
    g = TriGrid(2)
    with pytest.raises(ValueError, match="illegal"):
        lion_step(g, (Coord(0, 0),), [Coord(2, 0)], g.empty_set())
    with pytest.raises(ValueError):
        lion_step(g, (Coord(0, 0),), [], g.empty_set())


def test_lion_step_raises_exactly_on_non_edges():
    g = TriGrid(3)
    adj = adjacency_oracle(g)
    cont = g.set_of([(3, 0), (0, 3)])
    for v in g.vertices():
        for d1 in range(-2, 3):
            for d2 in range(-2, 3):
                dest = (v.v1 + d1, v.v2 + d2)
                if dest == tuple(v) or dest in adj[tuple(v)]:
                    pos, _ = lion_step(g, (v,), [dest], cont)
                    assert pos == (dest,)
                else:
                    with pytest.raises(ValueError):
                        lion_step(g, (v,), [dest], cont)


def test_lion_moves_refuse_non_integral_coordinates():
    g = TriGrid(3)
    for dest in [(1.0, 0), (0.0, 0), (1, 0.5), ("1", 0), (True, 0)]:
        with pytest.raises(ValueError, match=r"^v[12] must be an integer"):
            lion_step(g, (Coord(0, 0),), [dest], g.empty_set())
        with pytest.raises(ValueError, match=r"^v[12] must be an integer"):
            LionTrace.from_moves(g, [(0, 0)], [[(0, dest)]])
    with pytest.raises(ValueError, match="^v1 must be an integer, got 0.0$"):
        LionTrace.from_moves(g, [(0.0, 0)], [])
    with pytest.raises(ValueError, match="^v1 must be an integer, got True$"):
        lion_step(g, ((True, 0),), [None], g.empty_set())
    # a bool lion index is refused, not read as lion 1
    for idx in (0.0, True):
        with pytest.raises(ValueError, match=f"^lion index must be an integer, got {idx}$"):
            LionTrace.from_moves(g, [(0, 0), (0, 1)], [[(idx, (1, 1))]])


@pytest.mark.parametrize("turn", [[(0, (1, 0)), (0, (0, 1))], [(0, None), (0, (1, 0))]])
def test_lion_named_twice_in_a_turn_raises(turn):
    with pytest.raises(ValueError, match="twice"):
        LionTrace.from_moves(TriGrid(3), [(0, 0)], [turn])


def test_from_moves_matches_lion_step_replay():
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randrange(1, 6)
        g = TriGrid(n)
        tr = random_legal_walk(g, rng.randrange(1, n + 3), rng.randrange(0, 12), rng)
        pos, cont = tr.positions[0], tr.contaminated[0]
        for k, turn in enumerate(tr.turns, 1):
            dests = [None] * tr.lions
            for idx, dest in turn:
                dests[idx] = dest
            pos, cont = lion_step(g, pos, dests, cont)
            assert pos == tr.positions[k] and cont == tr.contaminated[k]


def test_column_sweep_states_pinned():
    h = hashlib.sha256()
    for n in (1, 2, 3, 4, 5, 10, 40):
        tr = column_sweep_strategy(TriGrid(n))
        for pos, cont in zip(tr.positions, tr.contaminated):
            h.update(f"{n} {[list(p) for p in pos]} {cont.to_hex()}\n".encode())
    assert h.hexdigest() == COLUMN_SWEEP_SHA256


def test_column_sweep_trace_json_bytes_pinned():
    text = column_sweep_strategy(TriGrid(10)).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == COLUMN_SWEEP_T10_JSON_SHA256


def test_lion_step_vacated_vertex_recontaminated_elsewhere():
    # a lion leaves (1,0); the traversed edge is blocked but contamination
    # still reenters through the other edges
    g = TriGrid(2)
    cont = g.set_of([(1, 1), (0, 0)])
    _, new_cont = lion_step(g, (Coord(1, 0),), [Coord(2, 0)], cont)
    assert (1, 0) in new_cont


def test_swap_moves_block_their_shared_edge():
    g = TriGrid(2)
    cont = g.set_of([(2, 0), (0, 2), (1, 1)])
    pos = (Coord(0, 0), Coord(1, 0))
    new_pos, new_cont = lion_step(g, pos, [Coord(1, 0), Coord(0, 0)], cont)
    assert new_pos == (Coord(1, 0), Coord(0, 0))
    assert new_cont == g.set_of([(2, 0), (0, 2), (1, 1), (0, 1)])


def test_column_sweep_t1():
    g = TriGrid(1)
    tr = column_sweep_strategy(g)
    assert tr.start == (Coord(0, 0), Coord(0, 1))
    assert tr.turns == [[(0, Coord(1, 0))]]
    assert tr.is_winning()


def test_column_sweep_t2_contamination_sequence():
    tr = column_sweep_strategy(TriGrid(2))
    states = [sorted(tuple(v) for v in c) for c in tr.contaminated]
    assert states == [
        [(1, 0), (1, 1), (2, 0)],
        [(1, 1), (2, 0)],
        [(2, 0)],
        [],
    ]


def column_invariant_holds(trace):
    """During the sweep of column c, contamination stays right of column c;
    after its last turn, right of column c+1."""
    g = trace.grid
    n = g.n
    # columns_below[limit]: the vertices with v1 < limit, as a bitmask
    columns_below = [0]
    for c in range(n + 1):
        column = g.set_of((c, r) for r in range(n - c + 1))
        columns_below.append(columns_below[-1] | column.bits)
    turn = 0
    for c in range(n):
        for r in range(n - c):
            turn += 1
            limit = c + 2 if r == n - c - 1 else c + 1
            if trace.contaminated[turn].bits & columns_below[limit]:
                return False
    return True


def test_column_sweep_clears_and_keeps_invariant():
    for n in range(1, 13):
        g = TriGrid(n)
        tr = column_sweep_strategy(g)
        assert tr.lions == n + 1
        assert len(tr.turns) == n * (n + 1) // 2
        assert tr.is_winning()
        assert column_invariant_holds(tr)


def test_column_invariant_catches_contamination_left_of_the_sweep():
    g = TriGrid(6)
    tr = column_sweep_strategy(g)
    assert column_invariant_holds(tr)
    # turn 6 ends the sweep of column 0, so column 0 must be clean there
    tr.contaminated[6] = tr.contaminated[6] | g.set_of([(0, 4)])
    assert not column_invariant_holds(tr)


def test_trace_invariants_on_random_walks():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randrange(1, 6)
        g = TriGrid(n)
        tr = random_legal_walk(g, rng.randrange(1, n + 3), rng.randrange(0, 12), rng)
        for k in range(1, len(tr.positions)):
            occupied = g.set_of(tr.positions[k])
            cont, prev = tr.contaminated[k], tr.contaminated[k - 1]
            assert not (cont & occupied)  # occupancy exclusion
            assert (prev - occupied).issubset(cont)  # no spontaneous cleaning
            assert cont.issubset(neighborhood(g, prev))  # spread locality


def test_couple_to_search_budget_and_verification():
    for n in (1, 2, 5, 9):
        g = TriGrid(n)
        tr = column_sweep_strategy(g)
        st = couple_to_search(tr)
        assert st.budget == 2 * (n + 1)
        assert st.max_search_size() <= st.budget
        assert verify_trace(g, st)


def test_couple_refuses_non_winning():
    g = TriGrid(1)
    lone = LionTrace.from_moves(g, [Coord(0, 0)], [[(0, Coord(1, 0))]])
    assert not lone.is_winning()
    with pytest.raises(ValueError, match="refusing"):
        couple_to_search(lone)


def test_claim_on_sweeps_and_walks():
    for n in range(1, 11):
        assert claim_check(column_sweep_strategy(TriGrid(n)))
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randrange(1, 6)
        g = TriGrid(n)
        tr = random_legal_walk(g, rng.randrange(1, n + 3), rng.randrange(0, 12), rng)
        assert claim_check(tr)


def test_occupied_is_the_replayed_position_mask():
    traces = [column_sweep_strategy(TriGrid(n)) for n in range(1, 11)]
    rng = random.Random(33)
    for _ in range(200):
        g = TriGrid(rng.randrange(1, 6))
        traces.append(random_legal_walk(g, rng.randrange(1, 6), rng.randrange(0, 12), rng))
    stacked = 0
    for tr in traces:
        assert len(tr.occupied) == len(tr.positions)
        for pos, occ in zip(tr.positions, tr.occupied):
            assert occ == tr.grid.set_of(pos).bits
            stacked += len(set(pos)) < len(pos)
    assert stacked  # some states hold two lions on one vertex


def test_coupling_refuses_a_trace_without_occupancy():
    g = TriGrid(3)
    tr = column_sweep_strategy(g)
    bare = LionTrace(g, tr.start, tr.turns, tr.positions, tr.contaminated)
    short = dataclasses.replace(tr, occupied=tr.occupied[:-1])
    for trace in (bare, short):
        for couple in (coupled_searches, couple_to_search, claim_check):
            with pytest.raises(ValueError, match="occupancy masks"):
                couple(trace)


def test_claim_base_case_equality():
    # before any move the two cleared sets coincide with the start positions
    g = TriGrid(3)
    tr = column_sweep_strategy(g)
    searches0 = g.set_of(tr.positions[0])
    post = g.full_set() - searches0
    assert post == tr.contaminated[0]


def test_lion_trace_json_round_trip():
    tr = column_sweep_strategy(TriGrid(2))
    obj = json.loads(tr.to_json())
    back = LionTrace.from_json_obj(obj)
    assert back.to_json() == tr.to_json()
    assert back.is_winning()
    obj["lions"] = 5
    with pytest.raises(ValueError):
        LionTrace.from_json_obj(obj)


@pytest.mark.parametrize(
    "edit",
    [
        {"moves": None},
        {"n": 2.9},
        {"lions": 3.0},
        {"start": [[0, 0], [0.0, 1], [0, 2]]},
        {"start": [[0, 0], [0, 1, 0], [0, 2]]},
        {"moves": [[[0, [1.5, 0]]]]},
        {"moves": [[[True, [1, 0]]]]},
        {"moves": [[[0, [1, 0], 7]]]},
    ],
)
def test_lion_trace_json_refuses_malformed(edit):
    obj = json.loads(column_sweep_strategy(TriGrid(2)).to_json())
    obj = {k: v for k, v in {**obj, **edit}.items() if v is not None}  # None deletes
    with pytest.raises(TraceError):
        LionTrace.from_json_obj(obj)


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"start": [[3, 3], [0, 1], [0, 2]]}, "not a vertex"),
        ({"moves": [[[0, [3, 3]]]]}, "not a vertex"),
        ({"moves": [[[0, [2, 0]]]]}, "illegal lion move"),
        ({"moves": [[[7, [1, 0]]]]}, "out of range"),
        ({"moves": [[[0, [1, 0]], [0, [0, 1]]]]}, "twice"),
    ],
)
def test_lion_trace_json_wraps_illegal_schedules(edit, message):
    obj = json.loads(column_sweep_strategy(TriGrid(2)).to_json())
    with pytest.raises(TraceError, match=message):
        LionTrace.from_json_obj({**obj, **edit})


def test_exact_lion_number_t1():
    g = TriGrid(1)
    assert exact_lion_number(g, 3) == 2
    assert exact_lion_number(g, 1) is None
    assert not lions_clearable_oracle(g, 1)
    assert lions_clearable_oracle(g, 2)


def test_exact_lion_number_t2_matches_oracle():
    g = TriGrid(2)
    val = exact_lion_number(g, 3)
    assert val == 3
    assert not lions_clearable_oracle(g, 2)  # independent confirmation of > 2
    assert column_sweep_strategy(g).is_winning()  # and of <= 3


def test_solver_matches_oracle_one_order_past_the_cap():
    from trigrid.lions import _lions_can_clear

    for n, counts in ((1, (1, 2)), (2, (1, 2, 3)), (3, (1, 2))):
        g = TriGrid(n)
        for lions in counts:
            assert _lions_can_clear(g, lions) == lions_clearable_oracle(g, lions)


def test_lion_step_matches_turn_oracle_on_random_turns():
    rng = random.Random(2024)
    seen = {"swap": 0, "stack": 0, "into contaminated": 0}
    for n in range(1, 7):
        g = TriGrid(n)
        adj = adjacency_oracle(g)
        verts = sorted(adj)
        for _ in range(120):
            pos = [rng.choice(verts) for _ in range(rng.randrange(1, 5))]
            dests = [rng.choice([p] + sorted(adj[p])) for p in pos]
            if len(pos) > 1 and rng.random() < 0.3:  # the first two lions swap
                u = rng.choice(verts)
                v = rng.choice(sorted(adj[u]))
                pos[:2], dests[:2] = [u, v], [v, u]
            cont = {v for v in verts if rng.random() < 0.5}
            seen["swap"] += any(
                p != d and (d, p) in zip(pos, dests) for p, d in zip(pos, dests)
            )
            seen["stack"] += len(set(dests)) < len(dests)
            seen["into contaminated"] += any(p != d and d in cont for p, d in zip(pos, dests))
            # a lion that stays is named by None or by its own vertex
            named = [None if d == p and rng.random() < 0.5 else d for p, d in zip(pos, dests)]
            new_pos, new_cont = lion_step(g, pos, named, g.set_of(cont))
            assert [tuple(v) for v in new_pos] == dests
            assert {tuple(v) for v in new_cont} == lion_turn_oracle(g, pos, dests, cont)
    assert min(seen.values()) > 20, seen


def test_exact_lion_order_limit():
    with pytest.raises(ValueError):
        exact_lion_number(TriGrid(3), 2)
