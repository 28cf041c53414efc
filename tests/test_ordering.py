import random

import pytest

from trigrid import (
    TriGrid,
    boundary,
    final_segment,
    final_segment_boundary_size,
    initial_segment,
    initial_segment_boundary_size,
    lower_bound_certificate,
    packing_minimum,
    rank_sum,
    rank_to_coord,
    simplicial_order,
    simplicial_rank,
    triangular,
)

from helpers import boundary_oracle, segment_oracle, simplicial_sort_oracle, traced_peak


def test_rank_table_t2():
    g = TriGrid(2)
    expected = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert [tuple(v) for v in simplicial_order(g)] == expected


def test_rank_agrees_with_comparator_sort():
    for n in range(1, 7):
        g = TriGrid(n)
        assert simplicial_order(g) == simplicial_sort_oracle(g)
        for r, v in enumerate(simplicial_order(g)):
            assert simplicial_rank(g, v) == r
            assert rank_to_coord(g, r) == v


def test_rank_extremes():
    for n in (1, 3, 6):
        g = TriGrid(n)
        assert tuple(rank_to_coord(g, 0)) == (0, 0)
        assert tuple(rank_to_coord(g, g.vertex_count - 1)) == (0, n)
    with pytest.raises(ValueError):
        rank_to_coord(TriGrid(2), 6)


def test_segment_examples():
    g = TriGrid(2)
    assert initial_segment(g, 2) == g.set_of([(0, 0), (1, 0)])
    assert initial_segment(g, 0) == g.empty_set()
    assert initial_segment(g, 6) == g.full_set()
    assert final_segment(g, 3) == g.set_of([(2, 0), (1, 1), (0, 2)])
    assert final_segment(g, 0) == g.empty_set()
    with pytest.raises(ValueError):
        initial_segment(g, 7)


def _edge_sizes(g):
    """Sizes around the level edges at both ends and the middle of the
    order of T_n, counted from either end."""
    nv = g.vertex_count
    sizes = set()
    for lev in (0, 1, 2, g.n // 2, g.n, g.n + 1):
        for k in (triangular(lev) - 1, triangular(lev), triangular(lev) + 1):
            sizes |= {k, nv - k}
    return sorted(k for k in sizes if 0 <= k <= nv)


def _segment_cases(small_orders):
    for n in small_orders:
        g = TriGrid(n)
        yield g, range(g.vertex_count + 1)
    for n in (13, 37, 60):
        g = TriGrid(n)
        yield g, _edge_sizes(g)


def test_segment_complement_identity_and_nesting():
    for g, sizes in _segment_cases((2, 4, 6)):
        nv = g.vertex_count
        for k in sizes:
            assert final_segment(g, k) == initial_segment(g, nv - k).complement()
            if k < nv:
                assert initial_segment(g, k).issubset(initial_segment(g, k + 1))


def test_segments_and_packing_minimum_match_oracle():
    for g, sizes in _segment_cases(range(1, 9)):
        for k in sizes:
            init = segment_oracle(g, k, "initial")
            final = segment_oracle(g, k, "final")
            assert {tuple(v) for v in initial_segment(g, k)} == init
            assert {tuple(v) for v in final_segment(g, k)} == final
            assert packing_minimum(g, k) == min(
                len(boundary_oracle(g, init)), len(boundary_oracle(g, final))
            )


def test_small_segments_of_large_orders():
    # Each call builds one mask of |V| bits; a table of all |V| + 1 prefix
    # masks would take about |V|^2 / 16 bytes (130 MB at n = 300).  The
    # memory check runs first so such a table fails here, not at n = 2000.
    g = TriGrid(300)
    peak, _ = traced_peak(lambda: (initial_segment(g, 3), final_segment(g, 3)))
    assert peak < 1_000_000
    g = TriGrid(2000)
    n = g.n
    assert initial_segment(g, 3) == g.set_of([(0, 0), (1, 0), (0, 1)])
    assert final_segment(g, 3) == g.set_of([(2, n - 2), (1, n - 1), (0, n)])


def test_initial_closed_form_matches_direct():
    for n in (*range(1, 41), 60):
        g = TriGrid(n)
        for k in range(g.vertex_count + 1):
            assert initial_segment_boundary_size(g, k) == len(
                boundary(g, initial_segment(g, k))
            )


def test_final_closed_form_matches_direct():
    for n in (*range(1, 41), 60):
        g = TriGrid(n)
        for k in range(g.vertex_count + 1):
            assert final_segment_boundary_size(g, k) == len(
                boundary(g, final_segment(g, k))
            )


def test_packing_minimum_of_large_orders():
    # The closed forms build no set.  Built through both segment sets and
    # boundary(), whose masks of T_1000 take about 63 kB each, the same
    # calls peak near 600 kB.
    g = TriGrid(1000)
    nv = g.vertex_count
    sizes = (0, 1, 999, 1000, 1001, 1002, triangular(1000), nv // 2, nv - 1001, nv - 1, nv)
    peak, values = traced_peak(lambda: [packing_minimum(g, k) for k in sizes])
    assert peak < 100_000
    assert values[0] == values[-1] == 0
    assert max(m for m in range(202) if lower_bound_certificate(TriGrid(200), m)) == 142


def test_closed_forms_rise_then_fall():
    # lower_bound_certificate reads each window at its ends only, because
    # both closed forms rise up to a peak size and fall after it: T(n) for
    # initial segments, n for final segments.
    for n in [*range(1, 41), 120, 333]:
        g = TriGrid(n)
        peaks = ((initial_segment_boundary_size, triangular(n)), (final_segment_boundary_size, n))
        for f, peak in peaks:
            vals = [f(g, k) for k in range(1, g.vertex_count + 1)]  # vals[k - 1] is size k
            steps = [b - a for a, b in zip(vals, vals[1:])]  # steps[k - 1]: size k to k + 1
            assert min(steps[: peak - 1], default=0) >= 0, (n, f.__name__)
            assert max(steps[peak - 1 :], default=0) <= 0, (n, f.__name__)


def test_closed_form_examples():
    assert initial_segment_boundary_size(TriGrid(3), 4) == 4
    assert initial_segment_boundary_size(TriGrid(2), 2) == 3
    assert initial_segment_boundary_size(TriGrid(5), 1) == 2
    assert final_segment_boundary_size(TriGrid(2), 3) == 2
    assert final_segment_boundary_size(TriGrid(3), 7) == 2
    g4 = TriGrid(4)
    assert final_segment_boundary_size(g4, g4.vertex_count) == 0


def test_closed_forms_refuse_only_sizes_outside_the_grid():
    for n in (1, 3, 7):
        g = TriGrid(n)
        nv = g.vertex_count
        for size_of in (initial_segment_boundary_size, final_segment_boundary_size):
            for k in (-1, nv + 1):
                with pytest.raises(ValueError):
                    size_of(g, k)
            assert size_of(g, 0) == size_of(g, nv) == 0


def test_packing_minimum_examples():
    g = TriGrid(2)
    assert packing_minimum(g, 0) == 0
    assert packing_minimum(g, g.vertex_count) == 0
    assert packing_minimum(g, 3) == 2
    # valid at diagonal-straddling sizes too
    g5 = TriGrid(5)
    for k in range(g5.vertex_count + 1):
        assert packing_minimum(g5, k) >= 0


def test_rank_sum_refuses_set_of_another_grid():
    a = TriGrid(3).set_of([(1, 1), (2, 0)])
    assert rank_sum(TriGrid(3), a) == 7
    with pytest.raises(ValueError, match="does not belong to this grid"):
        rank_sum(TriGrid(5), a)


def test_rank_sum_decreases_under_lowering_exchange():
    rng = random.Random(11)
    g = TriGrid(5)
    order = simplicial_order(g)
    for _ in range(200):
        k = rng.randrange(2, g.vertex_count)
        members = rng.sample(order, k)
        a = g.set_of(members)
        base = rank_sum(g, a)
        out_v = rng.choice(members)
        lower = [v for v in order if simplicial_rank(g, v) < simplicial_rank(g, out_v) and v not in a]
        if not lower:
            continue
        in_v = rng.choice(lower)
        b = a.copy()
        b.discard(out_v)
        b.add(in_v)
        assert rank_sum(g, b) < base
