"""
Hilbert bases, unimodularity, and multiplicity two ways
=======================================================

Per chamber: the circuit classes are the minimal generators of the cone
semigroup.  The doubled triangle is the smallest catalog example whose
generators are not unimodular, and its toric relations start at degree
three against degree two.
"""

from cographic import (TotCycPair, catalog_graph, hilbert_basis,
                       is_homogeneous, is_unimodular, multiplicity_hs_oracle,
                       q_gorenstein, spans_lattice, subdiagram_volume,
                       toric_ideal_up_to_degree)

# A chamber label: no edge deleted, every edge run forward.
theta = catalog_graph("THETA2")
s = hilbert_basis(theta, TotCycPair.create(theta, (), theta.edges))

print("doubled triangle, reference chamber")
print("Hilbert basis (eight triangles):")
for c in s.hilbert_basis:
    print("  ", c.to_json(), " coords", s.coordinates(c))
print("spans the cycle lattice:", spans_lattice(s))

uni, witness = is_unimodular(s)
(cols1, m1), (cols2, m2) = witness
print(f"unimodular: {uni}  (minor {m1} on columns {cols1} "
      f"against minor {m2} on columns {cols2})")

# Multiplicity by convex geometry and by commutative algebra; the two
# computations share no code and must agree.
print("subdiagram volume:", subdiagram_volume(s))
print("Hilbert-Samuel multiplicity:", multiplicity_hs_oracle(s))

# The five-banana chamber is the smallest non-Q-Gorenstein example.
fng = catalog_graph("FIG-NG")
s_ng = hilbert_basis(fng, TotCycPair.create(fng, (), fng.edges))
print("\nfive parallel edges, reference chamber")
print("Q-Gorenstein:", q_gorenstein(s_ng)[0])

# The mixed doubled triangle carries the inhomogeneous cubic relation.
fnh = catalog_graph("FIG-NH")
s_nh = hilbert_basis(fnh, TotCycPair.create(fnh, (), fnh.edges))
ideal = toric_ideal_up_to_degree(s_nh, 3)
print("\nmixed doubled triangle, reference chamber")
for u, v in ideal.generators:
    print("binomial exponents:", u, "=", v)
print("homogeneous:", is_homogeneous(ideal))
