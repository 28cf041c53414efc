"""Simplicial ordering, the two packings, and section compression.

Run: python demos/02_compression_and_packings.py
"""

from trigrid import (
    TriGrid,
    boundary,
    compress_left,
    compress_right,
    final_segment,
    final_segment_boundary_size,
    initial_segment,
    initial_segment_boundary_size,
    neighborhood,
    render_ascii,
    simplicial_order,
)

g = TriGrid(3)
print("simplicial order on T_3 (level first, larger v1 first within a level):")
print([tuple(v) for v in simplicial_order(g)])

# Initial segments are ice-cream-cone packings from the (0,0) corner;
# final segments are the complementary row packings.
for k in (2, 4, 7):
    print(f"\nk = {k}")
    print("initial segment:", render_ascii(g, [(initial_segment(g, k), "#")]), sep="\n")
    print("final segment:", render_ascii(g, [(final_segment(g, k), "#")]), sep="\n")

# Closed-form boundary sizes at every size, checked against direct
# evaluation.
for k in range(g.vertex_count + 1):
    assert initial_segment_boundary_size(g, k) == len(boundary(g, initial_segment(g, k)))
    assert final_segment_boundary_size(g, k) == len(boundary(g, final_segment(g, k)))
print("closed forms agree with direct boundaries on T_3")

# The compression picture: pushing a set down its columns or left along
# its rows never grows the neighborhood.
a = g.set_of([(1, 1), (2, 0)])
down = compress_left(g, a, 1)
left = compress_left(g, a, 2)
print("\nA, pushed down columns, pushed left along rows:")
for s in (a, down, left):
    print(render_ascii(g, [(s, "#")]))
    print("|N| =", len(neighborhood(g, s)))
up = compress_right(g, a, 1)
right = compress_right(g, a, 2)
assert len(neighborhood(g, up)) <= len(neighborhood(g, a))
assert len(neighborhood(g, right)) <= len(neighborhood(g, a))
