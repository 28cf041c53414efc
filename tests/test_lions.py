import dataclasses
import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from trigrid import (
    Coord,
    LionTrace,
    TraceError,
    TriGrid,
    VertexSet,
    claim_check,
    column_sweep_strategy,
    couple_to_search,
    exact_lion_number,
    lion_step,
    neighborhood,
    random_legal_walk,
    verify_trace,
)
from trigrid.core import _ids, automorphism_id_permutations
from trigrid import lions as lions_module
from trigrid.lions import coupled_searches

from helpers import (
    adjacency_oracle,
    lion_trace_json_oracle,
    lion_turn_oracle,
    lions_clearable_oracle,
    record_solver_counts,
    traced_peak,
)

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


def test_lion_step_costs_no_per_vertex_memory():
    # One lion on an empty T_2000 (about 2M vertices): the turn keeps
    # counts only where lions stand, not one per vertex.
    g = TriGrid(2000)
    empty = g.empty_set()
    peak, (pos, cont) = traced_peak(lambda: lion_step(g, [Coord(0, 0)], [Coord(1, 0)], empty))
    assert pos == (Coord(1, 0),) and not cont
    assert peak < 1 << 20


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
    # Swaps: two lions trade vertices, once alone and once with a third
    # lion stacked on one of them, which then stays and moves on.
    g = TriGrid(2)
    swap = LionTrace.from_moves(g, [(0, 0), (1, 0)], [[(0, (1, 0)), (1, (0, 0))]])
    stacked_swap = LionTrace.from_moves(
        g, [(0, 0), (1, 0), (1, 0)], [[(0, (1, 0)), (1, (0, 0))], [(2, (0, 1))], [(0, (1, 1))]]
    )
    assert swap.occupied == [0b11, 0b11]
    assert stacked_swap.occupied == [0b11, 0b11, 0b1011, 0b11001]
    traces += [swap, stacked_swap]
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


def test_claim_check_refuses_a_contaminated_list_out_of_step():
    g = TriGrid(3)
    tr = column_sweep_strategy(g)
    assert claim_check(tr)
    j = len(tr.contaminated) // 2
    planted = tr.contaminated[:j] + [g.empty_set()] + tr.contaminated[j + 1:]
    assert not claim_check(dataclasses.replace(tr, contaminated=planted))
    states = len(tr.positions)
    for cont in ([], tr.contaminated[:1], planted[:j]):
        with pytest.raises(ValueError, match=f"{len(cont)} contaminated sets for {states} states"):
            claim_check(dataclasses.replace(tr, contaminated=cont))


def test_claim_check_reads_contaminated_sets_by_the_set_rule():
    tr = column_sweep_strategy(TriGrid(3))
    other = [VertexSet.from_bits(TriGrid(4), c.bits) for c in tr.contaminated]
    ints = [c.bits for c in tr.contaminated]
    for cont, message in ((other, "does not belong to this grid"), (ints, "expected a VertexSet")):
        with pytest.raises(ValueError, match=message):
            claim_check(dataclasses.replace(tr, contaminated=cont))


def test_trace_without_replayed_states_refuses_to_report():
    bare = LionTrace(TriGrid(2), (Coord(0, 0),), [])
    for report in (LionTrace.is_winning, claim_check, coupled_searches, couple_to_search):
        with pytest.raises(ValueError, match="build it with LionTrace.from_moves"):
            report(bare)


def test_every_report_checks_the_replay_by_one_rule():
    # One check, one message naming the three counts, for a trace with any
    # of its replayed lists a state short, and for one with no states.
    sweep = column_sweep_strategy(TriGrid(3))
    traces = [LionTrace(TriGrid(2), (Coord(0, 0),), [])]
    traces += [
        dataclasses.replace(sweep, **{name: getattr(sweep, name)[:-1]})
        for name in ("positions", "occupied", "contaminated")
    ]
    for trace in traces:
        message = (
            f"trace has {len(trace.occupied)} occupancy masks and {len(trace.contaminated)}"
            f" contaminated sets for {len(trace.positions)} states;"
            " build it with LionTrace.from_moves"
        )
        for report in (LionTrace.is_winning, coupled_searches, couple_to_search, claim_check):
            with pytest.raises(ValueError) as excinfo:
                report(trace)
            assert str(excinfo.value) == message
    # is_winning no longer answers for a trace that lost its occupancy masks.
    with pytest.raises(ValueError, match="0 occupancy masks"):
        dataclasses.replace(sweep, occupied=[]).is_winning()


def test_claim_base_case_equality():
    # before any move the two cleared sets coincide with the start positions
    g = TriGrid(3)
    tr = column_sweep_strategy(g)
    searches0 = g.set_of(tr.positions[0])
    post = g.full_set() - searches0
    assert post == tr.contaminated[0]


def test_lion_trace_writer_matches_json_dumps():
    rng = random.Random(61)
    walks = []
    for _ in range(200):
        n = rng.randrange(1, 7)
        walks.append(random_legal_walk(TriGrid(n), rng.randrange(0, n + 3), rng.randrange(0, 14), rng))
    g = TriGrid(2)
    traces = [
        *(column_sweep_strategy(TriGrid(n)) for n in range(1, 13)),
        *walks,
        LionTrace.from_moves(g, [(0, 0), (0, 1)], [[(1, None), (0, (1, 0))]]),  # a None destination
        LionTrace.from_moves(g, [(0, 0)], [[], [(0, Coord(0, 1))], []]),  # empty turns
        LionTrace.from_moves(g, [(0, 0), (2, 0)], []),  # no turns
        LionTrace.from_moves(g, [], []),  # no lions
        LionTrace.from_moves(g, [], [[], []]),  # no lions, empty turns
        LionTrace.from_json_obj(json.loads(column_sweep_strategy(TriGrid(3)).to_json())),
    ]
    for trace in traces:
        assert trace.to_json() == lion_trace_json_oracle(trace)


@pytest.mark.parametrize(
    "turn",
    [[(np.int64(0), (1, 0))], [(0, (np.int64(1), 0))], [(0, (1, np.int32(0)))]],
    ids=["lion index", "v1", "v2"],
)
def test_lion_trace_writer_raises_what_json_dumps_raises(turn):
    # The replay keeps each checked entry as (int, Coord), so a numpy
    # integer is written as the int it stands for: neither writer raises.
    trace = LionTrace.from_moves(TriGrid(2), [(0, 0)], [turn])
    assert trace.turns == [[(0, Coord(1, 0))]]
    text = trace.to_json()
    assert text == lion_trace_json_oracle(trace)
    assert LionTrace.from_json_obj(json.loads(text)).positions == trace.positions


def test_lion_trace_keeps_the_turns_it_replayed_from_any_iterable():
    g = TriGrid(3)
    sweep = column_sweep_strategy(g)
    start = [tuple(v) for v in sweep.start]
    lists = [[(idx, tuple(dest)) for idx, dest in turn] for turn in sweep.turns]
    lists[0] += [(3, None), (2, (0, 2))]  # a None destination and a stay
    expected = LionTrace.from_moves(g, start, lists)
    assert expected.turns == lists
    for turns in (
        (turn for turn in lists),  # a generator of turns
        [iter(turn) for turn in lists],  # iterators as turns
        iter([(entry for entry in turn) for turn in lists]),  # both
    ):
        trace = LionTrace.from_moves(g, start, turns)
        assert trace.turns == expected.turns and trace.is_winning()
        text = trace.to_json()
        assert text == expected.to_json() == lion_trace_json_oracle(trace)
        assert LionTrace.from_json_obj(json.loads(text)).positions == expected.positions


# Digest of 300 seeded random walks (every state's positions and
# contamination hex), taken before the walk kept each vertex's options
# per call, plus the generator's next draw: the walk consumes the
# generator exactly as before.
RANDOM_WALKS_SHA256 = "179035a8d99a55f1a43d9c580c100946bb5912419af4beba9074776001c6c947"
RANDOM_WALKS_NEXT_DRAW = 0.7670898850106753


def test_random_legal_walk_pinned():
    rng = random.Random(47)
    h = hashlib.sha256()
    for _ in range(300):
        n = rng.randrange(1, 7)
        tr = random_legal_walk(TriGrid(n), rng.randrange(1, n + 3), rng.randrange(0, 14), rng)
        for pos, cont in zip(tr.positions, tr.contaminated):
            h.update(f"{n} {[list(p) for p in pos]} {cont.to_hex()}\n".encode())
    assert h.hexdigest() == RANDOM_WALKS_SHA256
    assert rng.random() == RANDOM_WALKS_NEXT_DRAW


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
        ({"moves": [[[7, [1, 0]]]]}, "lion index must be in 0..2, got 7"),
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


def test_exact_lion_number_stops_at_the_column_sweep(monkeypatch):
    # l(T_n) = n + 1 for n <= 2, the column sweep's count: only the
    # counts below it are searched.
    asked = record_solver_counts(monkeypatch, lions_module, "_lion_solver")
    for n in (1, 2):
        asked.clear()
        assert exact_lion_number(TriGrid(n), 4) == n + 1
        assert asked == list(range(1, n + 1)), n


def test_exact_lion_number_searches_every_count_when_the_sweep_fails(monkeypatch):
    asked = record_solver_counts(monkeypatch, lions_module, "_lion_solver")
    monkeypatch.setattr(LionTrace, "is_winning", lambda self: False)
    for n in (1, 2):
        asked.clear()
        assert exact_lion_number(TriGrid(n), 4) == n + 1
        assert asked == list(range(1, n + 2)), n
    asked.clear()
    assert exact_lion_number(TriGrid(2), 2) is None
    assert asked == [1, 2]


def test_solver_matches_oracle_one_order_past_the_cap():
    from trigrid.lions import _lion_solver

    for n, counts in ((1, (1, 2)), (2, (1, 2, 3)), (3, (1, 2))):
        g = TriGrid(n)
        for lions in counts:
            assert _lion_solver(g)(lions) == lions_clearable_oracle(g, lions)


def test_lion_number_of_t3_is_three():
    from trigrid.lions import _lion_solver

    can_clear = _lion_solver(TriGrid(3))
    assert not can_clear(2)
    assert can_clear(3)


def _solver_expand(monkeypatch, g, lions):
    """Run the lion solver once; return its expand function and the states
    it expanded, caught by wrapping _reaches."""
    from trigrid import lions as lions_module

    caught = {"states": []}
    real = lions_module._reaches

    def spy(starts, expand):
        caught["expand"] = expand

        def record(state):
            caught["states"].append(state)
            return expand(state)

        return real(starts, record)

    monkeypatch.setattr(lions_module, "_reaches", spy)
    lions_module._lion_solver(g)(lions)
    return caught["expand"], caught["states"]


def _image(perm, pos, cont):
    return tuple(sorted(perm[p] for p in pos)), sum(1 << perm[i] for i in _ids(cont))


def _canonical(g, pos, cont):
    """The least (contamination, positions) image under the six symmetries."""
    imgs = [_image(perm, pos, cont) for perm in automorphism_id_permutations(g)]
    return min(imgs, key=lambda s: (s[1], s[0]))


def _assert_successors_match_turn_oracle(g, expand, pos, cont):
    """expand((pos, cont)) against every ordered move product of the lions,
    each played by lion_turn_oracle and reduced to its canonical image."""
    adj = adjacency_oracle(g)
    coords = [tuple(g.coord(p)) for p in pos]
    cont_coords = {tuple(g.coord(i)) for i in _ids(cont)}
    expected = set()
    for dests in itertools.product(*([p] + sorted(adj[p]) for p in coords)):
        new = lion_turn_oracle(g, coords, dests, cont_coords)
        bits = sum(1 << g.index(v) for v in new)
        expected.add(_canonical(g, tuple(sorted(g.index(d) for d in dests)), bits))
    succ = expand((pos, cont))
    if any(c == 0 for _, c in expected):
        assert succ is None
    else:
        assert set(succ) == expected


@pytest.mark.parametrize("n, lions", [(1, 2), (2, 3), (3, 2), (4, 2)])
def test_solver_successors_match_turn_oracle(monkeypatch, n, lions):
    g = TriGrid(n)
    expand, states = _solver_expand(monkeypatch, g, lions)
    rng = random.Random(n * 10 + lions)
    for pos, cont in rng.sample(states, min(40, len(states))):
        _assert_successors_match_turn_oracle(g, expand, pos, cont)


@pytest.mark.parametrize("n, lions", [(2, 3), (3, 2)])
def test_stacked_placements_match_turn_oracle(monkeypatch, n, lions):
    # The solver sends a multiset of options from each occupied vertex, so
    # only placements that stack lions on one id enumerate differently
    # from the ordered product; check every such state it expanded.
    g = TriGrid(n)
    expand, states = _solver_expand(monkeypatch, g, lions)
    stacked = [(pos, cont) for pos, cont in states if len(set(pos)) < len(pos)]
    assert stacked
    for pos, cont in stacked:
        _assert_successors_match_turn_oracle(g, expand, pos, cont)


@pytest.mark.parametrize("n", [3, 4])
def test_six_images_of_a_state_have_the_same_canonical_successors(monkeypatch, n):
    g = TriGrid(n)
    expand, _ = _solver_expand(monkeypatch, g, 2)
    rng = random.Random(n)
    nv = g.vertex_count
    for _ in range(30):
        pos = tuple(sorted(rng.randrange(nv) for _ in range(2)))
        cont = rng.getrandbits(nv) & ~sum(1 << p for p in pos)
        if not cont:
            continue
        results = {
            frozenset(expand(_image(perm, pos, cont)) or ())
            for perm in automorphism_id_permutations(g)
        }
        assert len(results) == 1
        assert all(_canonical(g, *s) == s for s in results.pop())


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
