"""
Totally cyclic orientations and oriented circuits
=================================================

Enumerate the orientations without directed cuts, organize them into the
restriction poset, and decompose cycles into concordant circuits.
"""

from cographic import (Chain1, build_orientation_poset, catalog_graph,
                       circuit_class, compatible_circuits, decompose_cycle,
                       enumerate_oriented_circuits, enumerate_tco)

g = catalog_graph("B3")

# An orientation is totally cyclic when every component of the resulting
# digraph is strongly connected.  Three parallel edges admit six.  Each
# comes back as the bitmask of its forward edges, bit i for edge i.
tcos = enumerate_tco(g)
print("totally cyclic orientations of B3:")
for forward in tcos:
    print("  ", {e: "+" if forward >> g.edge_index(e) & 1 else "-"
                 for e in sorted(g.edges)})

# The poset collects pairs (T, phi): delete the edges in T, orient the
# rest totally cyclically.  Restriction orders the pairs.
poset = build_orientation_poset(g)
print(f"\nposet size {len(poset)}, maximal elements "
      f"{len(poset.maximal_elements())}, minimum = delete everything")

# Oriented circuits are the minimal cyclic subgraphs with a coherent
# direction; their classes are the 0/+-1 cycles.
circuits = enumerate_oriented_circuits(g)
print(f"\n{len(circuits)} oriented circuits:")
for gamma in circuits:
    print("  ", gamma.to_json(g), "->", circuit_class(g, gamma).to_json())

# Every cycle is a nonnegative combination of circuits concordant with
# its signs; the greedy decomposition peels directed cycles.
c = Chain1({"e1": 2, "e2": 1, "e3": -3})
print("\ndecomposition of 2*e1 + e2 - 3*e3:")
for gamma, n in decompose_cycle(g, c):
    print(f"   {n} x {gamma.to_json(g)}")

# The circuits compatible with one chamber orientation generate its cone.
chamber = poset.maximal_elements()[0]
print("\nfirst chamber:", chamber.to_json(g)["phi"])
print("compatible circuits:",
      [gamma.to_json(g) for gamma in compatible_circuits(g, chamber)])
