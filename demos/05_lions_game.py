"""Lions and contamination: the column sweep, coupling, exact lion numbers.

Run: python demos/05_lions_game.py
"""

import random

from trigrid import (
    TriGrid,
    claim_check,
    column_sweep_strategy,
    couple_to_search,
    exact_lion_number,
    random_legal_walk,
    render_ascii,
    verify_trace,
)

# n+1 lions start on column 0 and shift right one column at a time, one
# lion per turn from the bottom row up; traversed edges block the spread.
g = TriGrid(2)
trace = column_sweep_strategy(g)
print(f"T_2 column sweep with {trace.lions} lions, {len(trace.turns)} turns:")
for k, (pos, cont) in enumerate(zip(trace.positions, trace.contaminated)):
    print(f"after turn {k}:")
    print(render_ascii(g, [(cont, "R"), (g.set_of(pos), "L")], "G"))
print("cleared:", trace.is_winning())

# Searching P(k-1) | P(k) each turn turns any winning lion schedule into
# a winning search schedule with twice the budget.
coupled = couple_to_search(trace)
print(f"\ncoupled search trace: budget {coupled.budget}, "
      f"verifies = {verify_trace(g, coupled)}")

# The containment behind that reduction holds for every legal schedule,
# winning or not.
rng = random.Random(0)
walks = [random_legal_walk(TriGrid(3), lions=2, turns=8, rng=rng) for _ in range(50)]
print("claim holds on 50 random walks:", all(claim_check(w) for w in walks))

print("\nexact lion numbers: l(T_1) =", exact_lion_number(TriGrid(1), 3),
      " l(T_2) =", exact_lion_number(TriGrid(2), 3))
