"""Tour of the triangular grid: coordinates, adjacency, and set boundaries.

Run: python demos/01_grid_and_boundaries.py
"""

from trigrid import TriGrid, boundary, interior_boundary, neighborhood, render_ascii

g = TriGrid(4)
print(f"T_{g.n}: {g.vertex_count} vertices, {g.edge_count()} edges")
print(render_ascii(g))

# Shifted coordinates: (v1, v2) with v1 + v2 <= n.  Corners have degree 2,
# other edge vertices 4, interior vertices 6.
for v in [(0, 0), (2, 0), (1, 1)]:
    print(f"neighbors of {v}: {[tuple(u) for u in g.neighbors(v)]}")

a = g.set_of([(1, 1), (2, 1), (1, 2)])
print("\nA marked on the grid ('#'):")
print(render_ascii(g, [(a, "#")]))

b = boundary(g, a)
print(f"boundary  (outside, adjacent): {[tuple(v) for v in b]}")
print(f"neighborhood size |N(A)| = |A| + |bd(A)| = {len(neighborhood(g, a))}")
print(f"interior boundary of A: {[tuple(v) for v in interior_boundary(g, a)]}")

# Complement duality: the interior boundary of A has the same size as the
# exterior boundary of its complement.
comp = a.complement()
assert len(interior_boundary(g, a)) == len(boundary(g, comp))
print("complement duality holds:",
      len(interior_boundary(g, a)), "==", len(boundary(g, comp)))
