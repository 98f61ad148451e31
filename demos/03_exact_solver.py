#!/usr/bin/env python3
"""The exact solver against the known-value oracle, two highly symmetric
graphs that symmetry breaking decides quickly, and what a search budget
exhaustion looks like."""

from rainbowindex import (
    FamilySpec,
    cartesian_product,
    generate,
    is_k_rainbow,
    oracle_rx3,
    rx_exact,
)

print("== Exact values vs the oracle ==")
cases = [
    FamilySpec("path", n=6),
    FamilySpec("cycle", n=6),
    FamilySpec("complete", n=5),
    FamilySpec("complete", n=6),
    FamilySpec("complete_bipartite", s=2, t=5),
    FamilySpec("complete_bipartite", s=3, t=3),
]
for spec in cases:
    g = generate(spec)
    res = rx_exact(g, 3)
    entry = oracle_rx3(spec)
    label = f"{spec.kind}({spec.n or (spec.s, spec.t)})"
    print(f"{label:>28}: solver {res.value}, oracle {entry.value}, "
          f"{res.nodes_explored} nodes, witness verifies: "
          f"{is_k_rainbow(g, res.witness, 3).ok}")

print()
print("== Symmetry breaking on two highly symmetric graphs ==")
for label, g in [
    ("K_7", generate(FamilySpec("complete", n=7))),
    ("C_4 x C_4", cartesian_product(generate(FamilySpec("cycle", n=4)),
                                    generate(FamilySpec("cycle", n=4)))[0]),
]:
    res = rx_exact(g, 3)
    print(f"{label:>10}: rx3 = {res.value}, {res.nodes_explored} nodes, "
          f"witness verifies: {is_k_rainbow(g, res.witness, 3).ok}")

print()
print("== Rainbow connectivity is the k=2 index ==")
p4 = generate(FamilySpec("path", n=4))
print(f"rx2(P_4) = {rx_exact(p4, 2).value} (every path edge lies on the "
      "end-to-end geodesic)")

print()
print("== Budget exhaustion stays honest ==")
c6 = generate(FamilySpec("cycle", n=6))
res = rx_exact(c6, 3, budget=3)
print(f"3-node budget on C_6: exact={res.exact}, value={res.value}, "
      f"bracket [{res.lower}, {res.upper}], fallback witness palette "
      f"{res.witness.palette_size}")
res = rx_exact(c6, 3)
print(f"unrestricted: exact={res.exact}, value={res.value}")
