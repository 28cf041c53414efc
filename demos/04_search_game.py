"""The zero-visibility search game: dynamics, the budgeted sweep, bounds.

Run: python demos/04_search_game.py
"""

from trigrid import (
    TriGrid,
    exact_inspection_number,
    inspection_bounds_report,
    render_ascii,
    sweep_budget,
    three_stage_strategy,
    verify_trace,
)

# The searcher examines up to k vertices per turn; the invisible intruder
# may then stay or move one edge, so the "dirty" set evolves as
# N(dirty \ searched).  The three-stage sweep clears with k = ceil(3n/4)+2.
n = 5
g = TriGrid(n)
trace = three_stage_strategy(g)
print(f"T_{n}: budget k = {trace.budget}, {len(trace.searches)} turns, "
      f"cleared = {verify_trace(g, trace)}")

print("\nselected frames (Y searched, G cannot hold the intruder, R dirty):")
for t in (0, 9, 10, len(trace.searches) - 1):
    print(f"turn {t}:")
    print(render_ascii(g, [(trace.dirty_after[t], "R"), (trace.searches[t], "Y")], "G"))

# Tiny instances can be solved exactly by reachability over dirty states.
# The sweep is replayed first, and the search runs only below its budget.
for m in (1, 2, 3, 4):
    print(f"In(T_{m}) =", exact_inspection_number(TriGrid(m), sweep_budget(m)))

print("\nbounds table (lower = largest certified m, so In > lower):")
for row in inspection_bounds_report(12, exact_up_to=2):
    exact = "" if row.exact is None else f"  exact = {row.exact}"
    print(f"  n = {row.n:2d}:  {row.lower} < In <= {row.upper}{exact}")
