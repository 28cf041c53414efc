import hashlib
import json
import random
import re

import numpy as np
import pytest

from trigrid import (
    Coord,
    TriGrid,
    VertexSet,
    automorphism_id_permutations,
    boundary,
    exact_inspection_number,
    exact_lion_number,
    exhaustive_min_boundary,
    final_segment,
    initial_segment,
    inspection_bounds_report,
    interior_boundary,
    lower_bound_certificate,
    neighborhood,
    packing_minimum,
    random_legal_walk,
    rank_to_coord,
    render_ascii,
    sampled_check,
    step,
)
from trigrid.cli import RunConfig, dispatch

from helpers import (
    adjacency_oracle,
    all_subsets,
    boundary_oracle,
    drawn_edges,
    interior_boundary_oracle,
    neighborhood_oracle,
    random_vertex_set,
    spread_oracle,
)


def test_rejects_order_zero():
    with pytest.raises(ValueError):
        TriGrid(0)


def test_rejects_order_above_cap():
    from trigrid.core import GRID_ORDER_LIMIT

    assert GRID_ORDER_LIMIT == 4096
    with pytest.raises(ValueError, match="^grid order must be in 1..4096, got 4097$"):
        TriGrid(4097)


@pytest.mark.parametrize("bad", [True, 2.5, "3"])
def test_grid_order_refuses_non_integers(bad):
    with pytest.raises(ValueError, match=f"^grid order must be an integer, got {bad!r}$"):
        TriGrid(bad)


G3 = TriGrid(3)
RENDER_PARAMS = {"n": 1, "set": None, "bottom_up": False}
INTEGER_ARGUMENTS = {
    "initial_segment": lambda x: initial_segment(G3, x),
    "final_segment": lambda x: final_segment(G3, x),
    "packing_minimum": lambda x: packing_minimum(G3, x),
    "rank_to_coord": lambda x: rank_to_coord(G3, x),
    "lower_bound_certificate": lambda x: lower_bound_certificate(G3, x),
    "inspection_bounds_report": lambda x: inspection_bounds_report(x, exact_up_to=0),
    "inspection_bounds_report exact_up_to": lambda x: inspection_bounds_report(1, x),
    "exact_inspection_number": lambda x: exact_inspection_number(TriGrid(1), x),
    "exact_lion_number": lambda x: exact_lion_number(TriGrid(1), x),
    "sampled_check samples": lambda x: sampled_check(G3, x, seed=1),
    "sampled_check seed": lambda x: sampled_check(G3, 10, seed=x),
    "exhaustive_min_boundary limit": lambda x: exhaustive_min_boundary(TriGrid(1), limit=x),
    "exhaustive_min_boundary workers": lambda x: exhaustive_min_boundary(TriGrid(1), workers=x),
    "random_legal_walk lions": lambda x: random_legal_walk(G3, x, 2, random.Random(0)),
    "random_legal_walk turns": lambda x: random_legal_walk(G3, 2, x, random.Random(0)),
    "dispatch threads": lambda x: dispatch(RunConfig("render", RENDER_PARAMS, threads=x)),
    "dispatch seed": lambda x: dispatch(RunConfig("render", RENDER_PARAMS, seed=x)),
    "VertexSet.from_bits": lambda x: VertexSet.from_bits(G3, x),
}


@pytest.mark.parametrize("bad", [True, 2.0, "2"], ids=repr)
@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_non_integers(name, bad):
    call = INTEGER_ARGUMENTS[name]
    call(np.int64(1))  # numpy integers pass
    with pytest.raises(ValueError, match=f"must be an integer, got {bad!r}$"):
        call(bad)


SET_ARGUMENTS = {
    "boundary": lambda g, a: boundary(g, a),
    "step": lambda g, a: step(g, g.full_set(), a),
    "render_ascii": lambda g, a: render_ascii(g, [(a, "#")]),
}


@pytest.mark.parametrize("name", SET_ARGUMENTS)
def test_set_arguments_refuse_lists(name):
    with pytest.raises(ValueError, match="^expected a VertexSet, got list$"):
        SET_ARGUMENTS[name](G3, [(0, 0)])


def test_grid_order_reads_numpy_integers_as_ints():
    g = TriGrid(np.int64(3))
    assert g == TriGrid(3) and type(g.n) is int


def test_equal_grids_are_one_dict_key():
    table = {TriGrid(3): "a"}
    table[TriGrid(np.int64(3))] = "b"
    assert table == {TriGrid(3): "b"} and TriGrid(4) not in table
    assert repr(TriGrid(3)) == "TriGrid(3)"


@pytest.mark.parametrize("n", [3, 1000])
def test_from_bits_refuses_bits_outside_the_grid(n):
    g = TriGrid(n)
    nv = g.vertex_count
    for bad in (-1, -(1 << 70), 1 << nv, g.full_mask + 1):
        with pytest.raises(ValueError, match="bitmask has bits outside the grid"):
            VertexSet.from_bits(g, bad)
    full = VertexSet.from_bits(g, g.full_mask)
    assert full.bits == g.full_mask and len(full) == nv


def test_from_bits_reads_numpy_integers_as_ints():
    a = VertexSet.from_bits(G3, np.uint64(5))
    assert a == VertexSet.from_bits(G3, 5) and type(a.bits) is int


def test_vertex_count_and_index_bijection():
    for n in (*range(1, 9), 13, 60):
        g = TriGrid(n)
        assert g.vertex_count == (n + 1) * (n + 2) // 2
        ids = [g.index(v) for v in g.vertices()]
        assert sorted(ids) == list(range(g.vertex_count))
        for i in range(g.vertex_count):
            assert g.index(g.coord(i)) == i
        for bad in (-1, g.vertex_count):
            with pytest.raises(ValueError):
                g.coord(bad)


def test_invalid_coordinates_raise():
    g = TriGrid(3)
    for bad in [(-1, 0), (0, -1), (2, 2), (4, 0)]:
        with pytest.raises(ValueError):
            g.index(bad)
        with pytest.raises(ValueError):
            g.neighbors(bad)


NON_INTEGRAL = [(2.9, 0), (1.5, 0), (0, 1.0), ("1", 0), (0.9, 0.2), (True, 0), (0, False)]
NON_INTEGRAL_MESSAGE = r"^v[12] must be an integer, got "


@pytest.mark.parametrize("bad", NON_INTEGRAL)
def test_check_refuses_non_integral_coordinates(bad):
    with pytest.raises(ValueError, match=NON_INTEGRAL_MESSAGE):
        TriGrid(3).check(bad)


@pytest.mark.parametrize("bad", NON_INTEGRAL)
def test_index_refuses_non_integral_coordinates(bad):
    with pytest.raises(ValueError, match=NON_INTEGRAL_MESSAGE):
        TriGrid(3).index(bad)


@pytest.mark.parametrize("bad", NON_INTEGRAL)
def test_vertex_set_refuses_non_integral_coordinates(bad):
    with pytest.raises(ValueError, match=NON_INTEGRAL_MESSAGE):
        VertexSet(TriGrid(3), [(0, 0), bad])


def test_numpy_integer_coordinates_accepted():
    g = TriGrid(3)
    v = (np.int64(2), np.int32(1))
    assert g.check(v) == Coord(2, 1) and type(g.check(v).v1) is int
    assert g.index(v) == g.index((2, 1))
    assert VertexSet(g, [v]) == g.set_of([(2, 1)])


@pytest.mark.parametrize("bad", [2.5, 2.0, "2", None, True])
def test_coord_refuses_non_integral_ids(bad):
    with pytest.raises(ValueError, match=f"^dense id must be an integer, got {bad!r}$"):
        TriGrid(3).coord(bad)


def test_coord_reads_numpy_ids_as_ints():
    c = TriGrid(3).coord(np.int64(5))
    assert c == Coord(1, 1) and type(c.v1) is int and type(c.v2) is int


@pytest.mark.parametrize("bad", [*NON_INTEGRAL, (1, 2, 3), (1,), 5, None])
def test_contains_is_false_for_non_integer_pairs(bad):
    assert TriGrid(3).contains(bad) is False


def test_contains_matches_vertex_list():
    g = TriGrid(3)
    inside = {tuple(v) for v in g.vertices()}
    for v in [(a, b) for a in range(-1, 5) for b in range(-1, 5)]:
        assert g.contains(v) is (v in inside)
    assert g.contains((np.int64(1), np.int32(2))) is True


def test_neighbor_examples():
    g = TriGrid(2)
    assert set(map(tuple, g.neighbors((0, 0)))) == {(1, 0), (0, 1)}
    assert set(map(tuple, g.neighbors((1, 0)))) == {(0, 0), (2, 0), (1, 1), (0, 1)}


def test_canonical_neighbor_order_clockwise_from_east():
    g = TriGrid(3)
    assert [tuple(u) for u in g.neighbors((1, 1))] == [
        (2, 1), (2, 0), (1, 0), (0, 1), (0, 2), (1, 2),
    ]


def test_coord_level():
    assert Coord(2, 1).level == 3
    assert Coord(0, 0).level == 0


def test_interior_vertices_have_six_neighbors():
    for n in (3, 5, 8):
        g = TriGrid(n)
        for v in g.vertices():
            if v.v1 >= 1 and v.v2 >= 1 and v.level <= n - 1:
                assert len(g.neighbors(v)) == 6


def test_adjacency_matches_drawn_edges():
    for n in range(1, 7):
        g = TriGrid(n)
        oracle = adjacency_oracle(g)
        for v in g.vertices():
            assert {tuple(u) for u in g.neighbors(v)} == oracle[tuple(v)]


def test_adjacency_symmetric_irreflexive():
    g = TriGrid(5)
    for v in g.vertices():
        nbrs = g.neighbors(v)
        assert v not in nbrs
        assert len(nbrs) == len(set(nbrs))
        for u in nbrs:
            assert v in g.neighbors(u)


def test_degree_census():
    for n in range(2, 8):
        g = TriGrid(n)
        degrees = [g.degree(v) for v in g.vertices()]
        assert degrees.count(2) == 3  # exactly the three corners
        assert set(degrees) <= {2, 3, 4, 6}
        assert sum(degrees) == 2 * len(drawn_edges(g))
        assert len(drawn_edges(g)) == g.edge_count() == 3 * n * (n + 1) // 2


def test_boundary_examples():
    g = TriGrid(2)
    assert boundary(g, g.set_of([(0, 0)])) == g.set_of([(1, 0), (0, 1)])
    assert boundary(g, g.empty_set()) == g.empty_set()
    assert boundary(g, g.full_set()) == g.empty_set()


def test_neighborhood_examples():
    g = TriGrid(2)
    assert neighborhood(g, g.set_of([(0, 0)])) == g.set_of([(0, 0), (1, 0), (0, 1)])
    assert neighborhood(g, g.empty_set()) == g.empty_set()
    assert neighborhood(g, g.full_set()) == g.full_set()


def test_interior_boundary_examples():
    g = TriGrid(2)
    a = g.set_of([(0, 0), (1, 0)])
    assert interior_boundary(g, a) == a
    assert interior_boundary(g, g.full_set()) == g.empty_set()


def test_set_operators_match_oracle_exhaustive_small():
    for n in (1, 2, 3):
        g = TriGrid(n)
        for a in all_subsets(g):
            members = [tuple(v) for v in a]
            assert {tuple(v) for v in boundary(g, a)} == boundary_oracle(g, members)
            assert {tuple(v) for v in neighborhood(g, a)} == neighborhood_oracle(
                g, members
            )
            assert {
                tuple(v) for v in interior_boundary(g, a)
            } == interior_boundary_oracle(g, members)


def test_set_operators_match_oracle_random_larger():
    rng = random.Random(2024)
    for n in (4, 5, 7, 9):
        g = TriGrid(n)
        for _ in range(60):
            a = random_vertex_set(g, rng)
            members = [tuple(v) for v in a]
            assert {tuple(v) for v in boundary(g, a)} == boundary_oracle(g, members)
            assert {
                tuple(v) for v in interior_boundary(g, a)
            } == interior_boundary_oracle(g, members)


def test_spread_matches_oracles_on_every_subset_small():
    for n in (1, 2, 3, 4):
        g = TriGrid(n)
        adj = adjacency_oracle(g)
        nbr_bits = [
            sum(1 << g.index(u) for u in adj[tuple(g.coord(i))])
            for i in range(g.vertex_count)
        ]
        for bits in range(1 << g.vertex_count):
            spread = g.spread_bits(bits)
            assert spread == spread_oracle(g, bits)
            drawn = 0
            for i, nbrs in enumerate(nbr_bits):
                if bits >> i & 1:
                    drawn |= nbrs
            assert spread == drawn


def _spread_cases(g, rng):
    """Empty, full, row-end singletons, sparse and random sets of g."""
    n = g.n
    offs = g._row_offset
    rows = range(n + 1) if n <= 70 else sorted({0, 1, n // 2, n - 1, n})
    singles = {offs[r] + c for r in rows for c in (0, n - r)}
    singles.update(rng.randrange(g.vertex_count) for _ in range(3))
    sparse = [
        sum(1 << i for i in rng.sample(range(g.vertex_count), min(g.vertex_count, 5)))
        for _ in range(3)
    ]
    dense = [g.full_mask & rng.getrandbits(g.vertex_count) for _ in range(3)]
    return [0, g.full_mask, *(1 << i for i in sorted(singles)), *sparse, *dense]


# The up/down network has one stage per bit of the largest moving row
# index n - 1, so its depth changes between n = 2^k and 2^k + 1.
STAGE_COUNT_CHANGES = [(2**k - 1, 2**k, 2**k + 1) for k in range(1, 11)]


@pytest.mark.parametrize(
    "orders", [range(1, 36), range(36, 71), (200, 1000), *STAGE_COUNT_CHANGES]
)
def test_spread_matches_row_oracle(orders):
    rng = random.Random(orders[0])
    for n in orders:
        g = TriGrid(n)
        for bits in _spread_cases(g, rng):
            assert g.spread_bits(bits) == spread_oracle(g, bits), (n, bits)


@pytest.mark.parametrize("n", range(1, 10))
def test_spread_runs_on_uint64_arrays_of_one_word_sets(n):
    # bulk's size kernels spread one-word batches this way
    g = TriGrid(n)
    if n <= 3:
        cases = list(range(1 << g.vertex_count))
    else:
        singles = [1 << i for i in range(g.vertex_count)]
        cases = [*_spread_cases(g, random.Random(n)), *singles]
    words = np.array(cases, dtype=np.uint64)
    spread = g.spread_bits(words)
    assert spread.dtype == np.uint64 and spread.shape == words.shape
    assert words.tolist() == cases
    for bits, got in zip(cases, spread.tolist()):
        assert got == g.spread_bits(bits) == spread_oracle(g, bits), (n, bits)


@pytest.mark.parametrize("n", [*range(1, 13), 60])
def test_neighbor_bits_is_the_spread_of_one_vertex(n):
    g = TriGrid(n)
    for i in range(g.vertex_count):
        assert g._neighbor_bits(i) == g.spread_bits(1 << i), (n, i)
    assert g._neighbor_bits(np.int64(0)) == g.spread_bits(1)


def test_column_masks_match_their_row_definitions():
    # _not_first and _not_last drop each row's first and last id
    from trigrid.core import GRID_ORDER_LIMIT

    for g in map(TriGrid, [*range(1, 71), GRID_ORDER_LIMIT]):
        nv, offs = g.vertex_count, np.array(g._row_offset)
        for mask, ends in ((g._not_first, offs), (g._not_last, offs + g.n - np.arange(g.n + 1))):
            assert mask >> nv == 0
            want = np.ones(nv, dtype=np.uint8)
            want[ends] = 0
            raw = np.frombuffer(mask.to_bytes((nv + 7) // 8, "little"), dtype=np.uint8)
            assert np.array_equal(np.unpackbits(raw, bitorder="little")[:nv], want), g


def test_mask_and_ids_are_inverse():
    from trigrid.core import _ids, _mask

    g = TriGrid(60)
    nv = g.vertex_count
    rng = random.Random(60)
    for bits in [0, g.full_mask, *(rng.getrandbits(nv) for _ in range(50))]:
        assert _mask(_ids(bits)) == bits
    for _ in range(50):
        ids = [rng.randrange(nv) for _ in range(rng.randrange(0, 12))]
        assert _ids(_mask(ids)) == sorted(set(ids))


@pytest.mark.parametrize("bad", [-1, 10, 1.0, True, "1"], ids=repr)
def test_neighbor_bits_refuses_what_as_int_refuses(bad):
    g = TriGrid(3)
    with pytest.raises(ValueError, match="^dense id must be"):
        g._neighbor_bits(bad)


def test_boundary_disjoint_and_neighborhood_union():
    rng = random.Random(5)
    g = TriGrid(6)
    for _ in range(100):
        a = random_vertex_set(g, rng)
        b = boundary(g, a)
        assert not (a & b)
        assert neighborhood(g, a) == (a | b)


def test_neighborhood_monotone():
    rng = random.Random(6)
    g = TriGrid(6)
    for _ in range(100):
        a = random_vertex_set(g, rng)
        b = a | random_vertex_set(g, rng)
        assert neighborhood(g, a).issubset(neighborhood(g, b))


def test_complement_duality():
    rng = random.Random(7)
    for n in (2, 3, 6):
        g = TriGrid(n)
        sets = list(all_subsets(g)) if n <= 3 else [
            random_vertex_set(g, rng) for _ in range(80)
        ]
        for c in sets:
            assert len(interior_boundary(g, c)) == len(boundary(g, c.complement()))


def test_vertex_set_basics():
    g = TriGrid(3)
    a = g.empty_set()
    a.add((1, 1))
    a.add((1, 1))
    assert len(a) == 1 and (1, 1) in a
    a.add((0, 0))
    a.discard((1, 1))
    a.discard((1, 1))
    assert len(a) == 1 and (1, 1) not in a
    with pytest.raises(ValueError):
        a.add((3, 3))
    b = g.set_of([(0, 0), (3, 0)])
    assert len(a | b) == 2
    assert len(a & b) == 1
    assert len(b - a) == 1
    assert (a ^ b) == g.set_of([(3, 0)])
    assert a.complement().complement() == a
    with pytest.raises(ValueError):
        a | TriGrid(4).empty_set()
    s = g.empty_set()
    s.bits = 7  # the size is read from the bits, so it follows an assignment
    assert len(s) == len(list(s)) == 3


@pytest.mark.parametrize("s", ["0x3f", " 3f ", "3_f", "+3f", "3F", "00003f", "", b"3f", 5, None])
def test_from_hex_takes_only_what_to_hex_writes(s):
    # T_2's full set is "3f"; int(s, 16) read most of these as 63 too.
    with pytest.raises(ValueError, match="^expected 2 lowercase hex digits for T_2, got "):
        VertexSet.from_hex(TriGrid(2), s)


def test_vertex_set_serialization_round_trips():
    g = TriGrid(4)
    a = g.set_of([(2, 1), (0, 0), (0, 4)])
    assert VertexSet.from_pairs(g, a.to_pairs()) == a
    for bad in ([[1.5, 0]], [[True, 0]], [[0, "1"]], [[0, 0, 0]], [0, 0], {"0": 0}):
        with pytest.raises(ValueError):
            VertexSet.from_pairs(g, bad)
    assert VertexSet.from_hex(g, a.to_hex()) == a
    with pytest.raises(ValueError, match="outside the grid"):  # the right width, too large
        VertexSet.from_hex(TriGrid(2), "40")
    # pairs come out sorted row-major
    assert a.to_pairs() == sorted(a.to_pairs(), key=lambda p: (p[1], p[0]))
    with pytest.raises(ValueError):
        VertexSet.from_bits(g, 1 << g.vertex_count)


@pytest.mark.parametrize(
    "entry, message",
    [
        ([True, 0], "v1 must be an integer, got True"),
        ([1.0, 0], "v1 must be an integer, got 1.0"),
        ([0, False], "v2 must be an integer, got False"),
        ([1, 0, 0], "expected a [v1, v2] pair, got [1, 0, 0]"),
        ([-1, 0], "(-1, 0) is not a vertex of T_3"),
        ([2, 2], "(2, 2) is not a vertex of T_3"),
    ],
)
def test_from_pairs_refuses_entries_the_direct_path_skips(entry, message):
    g = TriGrid(3)
    with pytest.raises(ValueError) as info:
        VertexSet.from_pairs(g, [[0, 0], entry])
    assert str(info.value) == message


@pytest.mark.parametrize(
    "v",
    [{1, 2}, {2, 0}, frozenset({0, 1}), {0: "a", 2: "b"}, {1: 0, 0: 0}, {1: 0, 2: 0}.keys()],
    ids=repr,
)
def test_unordered_containers_are_not_vertex_pairs(v):
    g = TriGrid(3)
    message = f"^{re.escape(f'expected a [v1, v2] pair, got {v!r}')}$"
    for call in (g.index, g.check, lambda v: VertexSet(g, [v])):
        with pytest.raises(ValueError, match=message):
            call(v)
    assert not g.contains(v)


@pytest.mark.parametrize("wrap", [np.array, lambda p: (np.int64(p[0]), np.uint8(p[1]))])
def test_numpy_pairs_still_name_vertices(wrap):
    # Lists, tuples and Coords are covered by the direct-path test below.
    g = TriGrid(3)
    for pair in [(1, 2), (2, 0), (0, 1)]:
        v = wrap(pair)
        assert g.index(v) == g.index(pair) and g.check(v) == pair and g.contains(v)
        assert VertexSet(g, [v]).to_pairs() == [list(pair)]


@pytest.mark.parametrize("wrap", [list, tuple, Coord._make])
def test_vertex_set_direct_path_matches_index(wrap):
    g = TriGrid(3)
    for pair in [(v1, v2) for v1 in range(-1, 5) for v2 in range(-1, 5)]:
        if g.contains(pair):
            assert VertexSet(g, [wrap(pair)]).bits == 1 << g.index(pair)
        else:
            with pytest.raises(ValueError, match=re.escape(f"{pair} is not a vertex of T_3")):
                VertexSet(g, [wrap(pair)])


def test_from_pairs_accepts_tuples_and_repeats():
    g = TriGrid(3)
    a = VertexSet.from_pairs(g, [(1, 0), [0, 3], [1, 0], (0, 3)])
    assert a == g.set_of([(1, 0), (0, 3)])


def test_iteration_and_pairs_in_row_major_order():
    rng = random.Random(41)
    for n in (1, 2, 5, 13, 30):
        g = TriGrid(n)
        sets = [g.empty_set(), g.full_set()]
        for _ in range(20):
            sets.append(random_vertex_set(g, rng))
            # sparse sets end early, on any row
            sparse = rng.getrandbits(g.vertex_count) & rng.getrandbits(g.vertex_count)
            sets.append(VertexSet.from_bits(g, sparse & rng.getrandbits(g.vertex_count)))
        for a in sets:
            members = [tuple(v) for v in a]
            assert members == sorted(members, key=lambda v: (v[1], v[0]))
            assert members == [tuple(v) for v in g.vertices() if v in a]
            assert a.to_pairs() == [list(v) for v in members]


def test_render_ascii_layout():
    g = TriGrid(1)
    text = render_ascii(g)
    assert text == ".\n. .\n"
    assert render_ascii(g) == text  # byte-identical on repeat
    g2 = TriGrid(2)
    one = g2.set_of([(1, 0)])
    marked = render_ascii(g2, [(one, "#")])
    assert marked.splitlines()[2] == ". # ."
    flipped = render_ascii(g2, [(one, "#")], row_n_top=False)
    assert flipped.splitlines()[0] == ". # ."
    for glyph in ("##", "", 5):
        with pytest.raises(ValueError, match="must be a single character"):
            render_ascii(g2, [(one, glyph)])
        with pytest.raises(ValueError, match="must be a single character"):
            render_ascii(g2, default=glyph)
    # a later layer wins where layers overlap
    layered = render_ascii(g2, [(g2.set_of([(0, 0), (1, 0)]), "R"), (one, "Y")], "G")
    assert layered == "G\nG G\nR Y G\n"
    with pytest.raises(ValueError, match="does not belong to this grid"):
        render_ascii(g2, [(TriGrid(3).set_of([(1, 0)]), "#")])


def test_render_ascii_matches_frame_from_pairs():
    # Three random overlapping layers on grids of more than one 64-bit
    # word, drawn both ways up, against a frame filled from each layer's
    # [v1, v2] pairs with the later layer winning.
    rng = random.Random(13)
    for n in (13, 30):
        g = TriGrid(n)
        layers = [(random_vertex_set(g, rng), glyph) for glyph in "RYL"]
        frame = [["."] * (n - r + 1) for r in range(n + 1)]
        for vset, glyph in layers:
            for v1, v2 in vset.to_pairs():
                frame[v2][v1] = glyph
        lines = [" ".join(cells) for cells in frame]
        for row_n_top, order in ((True, lines[::-1]), (False, lines)):
            want = "\n".join(order) + "\n"
            assert render_ascii(g, layers, row_n_top=row_n_top) == want


def test_automorphisms_preserve_adjacency():
    for n in (1, 2, 4):
        g = TriGrid(n)
        perms = automorphism_id_permutations(g)
        assert len(set(perms)) == 6
        assert perms[0] == tuple(range(g.vertex_count))
        edges = {
            frozenset({g.index(v), g.index(u)})
            for v in g.vertices()
            for u in g.neighbors(v)
        }
        for p in perms:
            assert {frozenset({p[a], p[b]}) for a, b in edges} == edges


# sha256 of json.dumps(automorphism_id_permutations(TriGrid(n))).  The
# order is pinned as well as the set: compress.reflect reads entries 4 and
# 5 by position.
AUTOMORPHISMS_SHA256 = {
    1: "ad95ae30cde8f30ecb9fe0be6f34241a34144fd4aef46b6b446c4a3006d9ed22",
    2: "f9bf153c5c8dd2eaacd721e752728de94692f3bd011e5720f387f51561333d8c",
    3: "9aaeeb4cb7c422ace10248e903f71d2d63630004837b81e6ecf4d70a1113b211",
    4: "9a189be325d749ca43941e62b28283d2454d67eb9c93287217d9c578fa1f43af",
    5: "bc1de4062ae6eb4aee9730fd656b9998523509e0bf391e4daa3635c8659a616c",
    6: "6bf385da0e790999a90bbab20b851f5b95d97111590a8139fef076c0d654a05e",
    7: "8eda52192fb8d2848292e328da1e8294613152d60b4a042a577d15636e4ad820",
    8: "ad945dba77ce464446ed18ad04adf801b3e0803ac57a7be8d9223bb88ba8d574",
    9: "6399bb057c75205834971c3a217e23b33e2e5c7acbf75e5d7f5955c53d4c0ad0",
    10: "c7322679fd4a6a1df7fd8da9f0e3a0596bcd114d731e5aac841b66b86a40a121",
    11: "588b1b39fe8a701e002cbbf41df3566f36edd73bd5d256842a659ed951e5465b",
    12: "54f6640d47fd115c204df3496603207761c142b74374701f077a9ab631ce3195",
}


def test_automorphism_permutations_pinned():
    digests = {}
    for n in AUTOMORPHISMS_SHA256:
        text = json.dumps(automorphism_id_permutations(TriGrid(n)))
        digests[n] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == AUTOMORPHISMS_SHA256
