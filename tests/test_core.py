import random

import numpy as np
import pytest

from trigrid import (
    Coord,
    TriGrid,
    VertexSet,
    automorphism_id_permutations,
    boundary,
    interior_boundary,
    neighborhood,
    render_ascii,
)

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


@pytest.mark.parametrize("bad", [True, 2.5, "3"])
def test_grid_order_refuses_non_integers(bad):
    with pytest.raises(ValueError, match=f"^grid order must be an integer, got {bad!r}$"):
        TriGrid(bad)


def test_grid_order_reads_numpy_integers_as_ints():
    g = TriGrid(np.int64(3))
    assert g == TriGrid(3) and type(g.n) is int


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


def test_vertex_set_serialization_round_trips():
    g = TriGrid(4)
    a = g.set_of([(2, 1), (0, 0), (0, 4)])
    assert VertexSet.from_pairs(g, a.to_pairs()) == a
    for bad in ([[1.5, 0]], [[True, 0]], [[0, "1"]], [[0, 0, 0]], [0, 0], {"0": 0}):
        with pytest.raises(ValueError):
            VertexSet.from_pairs(g, bad)
    assert VertexSet.from_hex(g, a.to_hex()) == a
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
    with pytest.raises(ValueError):
        render_ascii(g2, [(one, "##")])
    # a later layer wins where layers overlap
    layered = render_ascii(g2, [(g2.set_of([(0, 0), (1, 0)]), "R"), (one, "Y")], "G")
    assert layered == "G\nG G\nR Y G\n"
    with pytest.raises(ValueError, match="does not belong to this grid"):
        render_ascii(g2, [(TriGrid(3).set_of([(1, 0)]), "#")])


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
