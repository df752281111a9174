"""Truncated verification that the ring is the invariant subring of the
oriented-edge polynomial ring under the vertex torus action.

The ambient ring has one variable per oriented edge, with the two
orientations of each edge multiplying to zero.  A monomial is torus
invariant exactly when the boundary of its weight chain vanishes, so
invariant monomials of bounded degree correspond one to one with integer
cycles of bounded total mass.  Products of invariant monomials vanish
exactly when some edge appears with both orientations, and that condition
agrees with the cone sign test; both facts are checked degree by degree.
The torus action itself is never evaluated on field elements.
"""

import itertools
from dataclasses import dataclass

from .chains import Chain1, boundary, fundamental_cycle_basis
from .graph import FORWARD, BACKWARD
from .ring import multiply_monomials


@dataclass(frozen=True)
class OrientedMonomial:
    """Monomial in the oriented-edge variables, at most one orientation of
    each edge with positive exponent."""

    exponents: tuple   # ((edge, direction), exponent), canonical edge order

    @classmethod
    def from_weight(cls, g, c):
        """Canonical monomial of a chain: exponent |c(e)| on the signed side."""
        items = []
        for e in g.sort_edges(c.support()):
            n = c.coeff(e)
            items.append(((e, FORWARD if n > 0 else BACKWARD), abs(n)))
        return cls(tuple(items))

    def weight(self):
        acc = {}
        for (e, d), k in self.exponents:
            acc[e] = acc.get(e, 0) + d * k
        return Chain1(acc)

    def degree(self):
        return sum(k for _, k in self.exponents)

    def __repr__(self):
        body = " ".join(
            f"U[{e}{'+' if d == FORWARD else '-'}]^{k}" if k != 1 else
            f"U[{e}{'+' if d == FORWARD else '-'}]"
            for (e, d), k in self.exponents)
        return f"OrientedMonomial({body or '1'})"


def cycles_up_to_mass(g, bound):
    """All integer cycles with total absolute coefficient sum <= bound.

    Enumerated through the fundamental basis: a cycle's coordinates are
    its coefficients on the non-forest edges, so they are bounded by its
    mass and a box search is exhaustive.
    """
    basis = fundamental_cycle_basis(g)
    found = []
    for coords in itertools.product(range(-bound, bound + 1), repeat=len(basis)):
        c = basis.chain(coords)
        if c.l1() <= bound:
            found.append(c)
    found.sort(key=lambda c: (c.l1(), sorted(c.items())))
    return found


def invariant_monomial_basis(g, degree):
    """All invariant monomials of total degree at most ``degree``.

    One monomial per integer cycle of mass at most the degree; the
    one-sided exponent constraint makes the weight map a bijection.
    """
    return [OrientedMonomial.from_weight(g, c)
            for c in cycles_up_to_mass(g, degree)]


def _signed_chains_up_to_mass(g, bound):
    """All integer chains (not just cycles) with L1 norm <= bound."""
    edges = list(g.edges)
    chains = []

    def rec(idx, budget, coeffs):
        if idx == len(edges):
            chains.append(Chain1(coeffs))
            return
        e = edges[idx]
        for k in range(-budget, budget + 1):
            if k:
                coeffs[e] = k
            rec(idx + 1, budget - abs(k), coeffs)
            coeffs.pop(e, None)

    rec(0, bound, {})
    return chains


def check_iso_truncated(g, degree):
    """Degree-bounded check that invariants match the cographic ring.

    Two halves: (a) the invariance criterion (boundary of the weight
    vanishes) carves out exactly one monomial per bounded cycle, and (b)
    for every pair of basis monomials within the degree budget, the
    product in the ambient ring, computed on the exponents (zero exactly
    when an edge carries both orientations), agrees with the ring
    multiplication of the cycles (zero exactly when they share no cone,
    else their sum).
    """
    cycles = set(cycles_up_to_mass(g, degree))
    basis = invariant_monomial_basis(g, degree)

    # (a) weight map is a bijection onto the bounded cycles
    weights = [m.weight() for m in basis]
    if len(set(weights)) != len(weights) or set(weights) != cycles:
        return False
    # and the invariance criterion agrees on every bounded ambient monomial
    for chain in _signed_chains_up_to_mass(g, degree):
        invariant = not boundary(g, chain)
        if invariant != (chain in cycles):
            return False

    # (b) product laws agree pairwise within the degree budget.  In the
    # ambient ring U[e+] * U[e-] = 0, so a product of monomials vanishes
    # exactly when one factor holds a variable whose flip the other holds.
    sides = {w: frozenset(oe for oe, _ in m.exponents)
             for w, m in zip(weights, basis)}
    flipped = {w: frozenset((e, -d) for e, d in oes)
               for w, oes in sides.items()}
    for c in cycles:
        for d in cycles:
            if c.l1() + d.l1() > degree:
                continue
            ambient_zero = not flipped[c].isdisjoint(sides[d])
            product = multiply_monomials(g, c, d)
            if ambient_zero != (product is None):
                return False
            if product is not None and product != c + d:
                return False
    return True
