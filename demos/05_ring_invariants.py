"""
The toric face ring and its invariants
======================================

Monomials are indexed by integer cycles and multiply by addition when
they share a cone, otherwise to zero.  Dimension, embedded dimension,
minimal primes, and multiplicity all read off the combinatorics.
"""

from cographic import (Chain1, build_fan, catalog_graph, check_iso_truncated,
                       cone_contains, multiply_monomials, present_ring,
                       ring_report, sum_of_primes)

g = catalog_graph("B3")

# The multiplication law.
x = Chain1({"e1": 1, "e3": -1})
y = Chain1({"e2": 1, "e3": -1})
print("X^(e1-e3) * X^(e2-e3) =", multiply_monomials(g, x, y).to_json())
print("X^(e1-e3) * X^(e3-e1) =", multiply_monomials(g, x, -1 * x))

# Presentation of the ring of the built fan: one variable per oriented
# circuit, a quadric for every discordant pair, binomials per chamber
# (none for the banana).
fan = build_fan(g)
p = present_ring(fan)
print(f"\ngenerators: {len(p.generators)}  "
      f"discordance quadrics: {len(p.discordance_quadrics)}")

# Invariants across the catalog, read off each presentation.
print("\nname      dim embdim minpr mult")
for name in ("TREE3", "LOOP1", "B2", "B3", "C5", "FIG-NG", "THETA2"):
    r = ring_report(present_ring(build_fan(catalog_graph(name))))
    print(f"{name:9s} {r.dimension:3d} {r.embedded_dimension:6d} "
          f"{len(r.minimal_prime_labels):5d} {r.multiplicity:4d}")

# Graded primes and strata: the prime of a cone holds the monomials of
# the cycles outside it, and sums of minimal primes are again primes.
# The strata are the poset's labels.
chambers = fan.chambers()
shared = sum_of_primes(g, chambers[:2])
print("\nsum of two chamber primes lives on T =", sorted(g.edges_of(shared.support)))
print("that chamber's prime contains X^(e3-e1):",
      not cone_contains(g, chambers[0], Chain1({"e3": 1, "e1": -1})))

# The ring is the invariant subring of the oriented-edge algebra under
# the vertex torus; verified here degree by degree.
print("\ninvariant-subring check to degree 4:", check_iso_truncated(g, 4))
