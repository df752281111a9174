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

Cost model.  Write B(n, D) = sum_k 2^k C(n, k) C(D, k) for the number of
points of Z^n with L1 norm at most D.  For a graph with m edges, first
Betti number b and degree D, half (a) walks the B(m, D) ambient chains.
The bounded cycles are found on the ball of radius D in their
fundamental-basis coordinates, B(b, D) points: a cycle's coordinates are
its coefficients on the non-forest edges, so their L1 norm is at most its
mass.  Half (b) visits each pair of cycles of total mass at most D, and a
pair's coordinates lie in the ball of Z^(2b), so there are at most
B(2b, D) pairs.  Before any enumeration, ``check_iso_truncated`` raises
``CapacityError`` when the larger of B(m, D) and B(2b, D) exceeds
``MAX_INVARIANT_CHAINS``.
"""

from bisect import bisect_right
from dataclasses import dataclass
from math import comb

from .chains import Chain1, boundary, canonical_form, cone_basis
from .errors import CapacityError
from .fan import common_cone
from .graph import FORWARD, betti1

MAX_INVARIANT_CHAINS = 100_000


@dataclass(frozen=True)
class OrientedMonomial:
    """Monomial in the oriented-edge variables, at most one orientation of
    each edge with positive exponent."""

    exponents: tuple   # ((edge, direction), exponent), canonical edge order

    @classmethod
    def from_weight(cls, g, c):
        """Canonical monomial of a chain: exponent |c(e)| on the signed
        side, as ``canonical_form`` splits it."""
        support, phi, mult = canonical_form(g, c)
        return cls(tuple(((e, phi[e]), mult[e]) for e in support))

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


def _l1_ball(n, radius):
    """The points of Z^n with L1 norm at most ``radius``.

    Each point is the tuple of its nonzero coordinates as (index, value)
    pairs in increasing index order.  Every step extends a point by one
    nonzero coordinate, so the work follows the points yielded and their
    supports, not n.
    """
    stack = [((), 0, radius)] if radius >= 0 else []
    while stack:
        point, start, budget = stack.pop()
        yield point
        if budget:
            for i in range(start, n):
                for k in range(1, budget + 1):
                    stack.append((point + ((i, k),), i + 1, budget - k))
                    stack.append((point + ((i, -k),), i + 1, budget - k))


def _l1_ball_size(n, radius):
    """The number of points ``_l1_ball(n, radius)`` yields: choose k
    nonzero coordinates, their signs, and their absolute values as k
    positive parts of at most ``radius``."""
    return sum(2 ** k * comb(n, k) * comb(radius, k)
               for k in range(min(n, radius) + 1))


def cycles_up_to_mass(g, bound):
    """All integer cycles with total absolute coefficient sum <= bound.

    Enumerated through the fundamental basis: a cycle's coordinates are
    its coefficients on the non-forest edges, so their L1 norm is at most
    its mass and a search of the L1 ball of radius ``bound`` is
    exhaustive.  Sorted by mass, then by coefficients.
    """
    basis = cone_basis(g, 0).basis
    found = []
    for point in _l1_ball(len(basis), bound):
        acc = {}
        for i, k in point:
            for e, n in basis[i].items():
                acc[e] = acc.get(e, 0) + k * n
        c = Chain1(acc)
        if c.l1() <= bound:
            found.append(c)
    found.sort(key=lambda c: (c.l1(), sorted(c.items())))
    return found


def _signed_chains_up_to_mass(g, bound):
    """All integer chains (not just cycles) with L1 norm <= bound."""
    edges = list(g.edges)
    for point in _l1_ball(len(edges), bound):
        yield Chain1({edges[i]: k for i, k in point})


def check_iso_truncated(g, degree):
    """Degree-bounded check that invariants match the cographic ring.

    Two halves: (a) the invariance criterion (boundary of the weight
    vanishes) carves out exactly one monomial per bounded cycle, and (b)
    for every pair of basis monomials within the degree budget, the
    product in the ambient ring, computed on the exponents (zero exactly
    when an edge carries both orientations), agrees with the ring
    multiplication of the cycles (zero exactly when they share no cone,
    else the monomial of their sum).  The work is bounded as the module
    docstring says.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    size = max(_l1_ball_size(len(g.edges), degree),
               _l1_ball_size(2 * betti1(g), degree))
    if size > MAX_INVARIANT_CHAINS:
        raise CapacityError("invariant check chain cap", size,
                            MAX_INVARIANT_CHAINS)
    ordered = cycles_up_to_mass(g, degree)
    cycles = set(ordered)
    basis = [OrientedMonomial.from_weight(g, c) for c in ordered]

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
    # exactly when one factor holds a variable whose flip the other holds;
    # otherwise it adds exponents.  Each cycle's monomial is the one whose
    # weight it is, which (a) has shown to be unique.
    exponents = {w: dict(m.exponents) for w, m in zip(weights, basis)}
    flipped = {w: frozenset((e, -d) for e, d in exps)
               for w, exps in exponents.items()}
    # ``ordered`` is sorted by mass, so each c pairs with a prefix.
    masses = [c.l1() for c in ordered]
    for c, mass in zip(ordered, masses):
        for d in ordered[:bisect_right(masses, degree - mass)]:
            ambient_zero = not flipped[c].isdisjoint(exponents[d])
            ring_zero = not common_cone(c, d)
            if ambient_zero != ring_zero:
                return False
            if ring_zero:
                continue
            product = dict(exponents[c])
            for oe, k in exponents[d].items():
                product[oe] = product.get(oe, 0) + k
            if product != dict(OrientedMonomial.from_weight(g, c + d).exponents):
                return False
    return True
