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
Each is one packed integer key (``_ambient_steps``): a balanced base-B
digit per vertex for its boundary, in the low digits, then one per edge
for the chain.  B = 2^w is the least power of two above 2D + 1
(``_digit_width``).  Every digit of a chain in the ball lies in [-D, D],
so two such keys differ by less than B in each digit, and a sum of
digits times powers of B with every digit below B in absolute value is
zero only when every digit is: its lowest nonzero digit is not a
multiple of B.  So the key is injective on the ball, the chain has zero
boundary exactly when the vertex digits vanish, one AND, and a chain is
listed exactly when its key is among the keys of the list, one set
lookup.  The walk reaches each point from another by one int add, so a
point costs one add, one AND, one compare and one set lookup, with no
``Chain1`` and no boundary dict.  The bounded cycles are found
on the ball of radius D in their fundamental-basis coordinates, B(b, D)
points: a cycle's coordinates are its coefficients on the non-forest
edges, so their L1 norm is at most its mass.  Each point is the packed
key of its cycle, decoded digit by digit, and only the cycles within the
mass get a ``Chain1``.  Half (b) visits each unordered pair of cycles of
total mass at most D once, since both zero tests are symmetric and the
product commutes, and a pair's coordinates lie in the ball of Z^(2b),
so there are at most B(2b, D) pairs.  Before any enumeration,
``check_iso_truncated`` raises ``CapacityError`` when the larger of
B(m, D) and B(2b, D) exceeds ``MAX_INVARIANT_CHAINS``.
"""

from bisect import bisect_right
from dataclasses import dataclass
from math import comb

from .chains import Chain1, canonical_form, cone_basis
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


def _l1_ball(steps, radius):
    """The sums of k_i * steps[i] over the points k of Z^n, n the number
    of steps, with L1 norm at most ``radius``: one integer per point.

    Every step extends a point by one nonzero coordinate past its last
    one, so each point is reached once, and the work follows the points
    yielded and their supports, not n.  With steps that pack distinct
    digits of a base B > 2 * radius the sums are distinct keys.
    """
    n = len(steps)
    stack = [(0, 0, radius)] if radius >= 0 else []
    while stack:
        key, start, budget = stack.pop()
        yield key
        if budget:
            for i in range(start, n):
                step = steps[i]
                up = down = key
                for rest in range(budget - 1, -1, -1):
                    up += step
                    down -= step
                    stack.append((up, i + 1, rest))
                    stack.append((down, i + 1, rest))


def _l1_ball_size(n, radius):
    """The number of points ``_l1_ball`` yields for n steps: choose k
    nonzero coordinates, their signs, and their absolute values as k
    positive parts of at most ``radius``."""
    return sum(2 ** k * comb(n, k) * comb(radius, k)
               for k in range(min(n, radius) + 1))


def _digit_width(bound):
    """Bits w of a balanced digit in [-bound, bound]: the base 2^w is the
    least power of two above 2 * bound + 1."""
    return (2 * bound + 1).bit_length()


def cycles_up_to_mass(g, bound):
    """All integer cycles with total absolute coefficient sum <= bound.

    Enumerated through the fundamental basis: a cycle's coordinates are
    its coefficients on the non-forest edges, so their L1 norm is at most
    its mass and a search of the L1 ball of radius ``bound`` is
    exhaustive.  A basis cycle's coefficients are 0 or +-1, so a point's
    coefficients lie in [-bound, bound], and the point is walked as the
    packed key of its cycle, one digit per edge; the digits are read back
    with an offset of half the base in each field.  Sorted by mass, then
    by coefficients.
    """
    w = _digit_width(bound)
    half = 1 << w - 1
    mask = (1 << w) - 1
    edges = g.edges
    shifts = range(0, w * len(edges), w)
    offset = sum(half << shift for shift in shifts)
    steps = [sum(n << w * g.edge_index(e) for e, n in c.items())
             for c in cone_basis(g, 0).basis]
    found = []
    for key in _l1_ball(steps, bound):
        key += offset
        digits = [(key >> shift & mask) - half for shift in shifts]
        if sum(map(abs, digits)) <= bound:
            found.append(Chain1(zip(edges, digits)))
    found.sort(key=lambda c: (c.l1(), sorted(c.items())))
    return found


def _ambient_steps(g, degree):
    """Each edge's step of the ambient walk of ``check_iso_truncated``:
    B^head - B^tail in the vertex digits, then B^i in the digit of edge
    i above them, for the base B of ``_digit_width(degree)``.  Returns
    the steps and the mask of the vertex digits."""
    w = _digit_width(degree)
    low = len(g.vertices)
    vertex = g.vertex_index
    steps = []
    for i, e in enumerate(g.edges):
        s, t = g.ends(e)
        steps.append((1 << w * (low + i)) + (1 << w * vertex(t))
                     - (1 << w * vertex(s)))
    return steps, (1 << w * low) - 1


def _invariance_agrees(g, degree, cycles):
    """Among the chains of L1 norm at most ``degree``, are those with zero
    boundary exactly the chains ``cycles`` lists (each of L1 norm at most
    ``degree``)?

    Walks the packed keys of the module cost model: a chain's key is the
    sum of its edges' steps, so the listed chains get theirs by the same
    linear map, and a listed chain with nonzero boundary meets its own
    key at a point that is not invariant.
    """
    steps, low = _ambient_steps(g, degree)
    keys = {sum(n * steps[g.edge_index(e)] for e, n in c.items())
            for c in cycles}
    for key in _l1_ball(steps, degree):
        if (not key & low) != (key in keys):
            return False
    return True


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
    basis = [OrientedMonomial.from_weight(g, c) for c in ordered]

    # (a) weight map is a bijection onto the bounded cycles
    weights = [m.weight() for m in basis]
    if len(set(weights)) != len(weights) or set(weights) != set(ordered):
        return False
    # and the invariance criterion agrees on every bounded ambient monomial
    if not _invariance_agrees(g, degree, ordered):
        return False

    # (b) product laws agree pairwise within the degree budget.  In the
    # ambient ring U[e+] * U[e-] = 0, so a product of monomials vanishes
    # exactly when one factor holds a variable whose flip the other holds;
    # otherwise it adds exponents.  Each cycle's monomial is the one whose
    # weight it is, which (a) has shown to be unique.
    exponents = {w: dict(m.exponents) for w, m in zip(weights, basis)}
    flipped = {w: frozenset((e, -d) for e, d in exps)
               for w, exps in exponents.items()}
    # Both zero tests are symmetric and the product commutes, so each
    # unordered pair is visited once.  ``ordered`` is sorted by mass, so
    # the i-th cycle pairs with a prefix of the first i + 1.
    masses = [c.l1() for c in ordered]
    for i, (c, mass) in enumerate(zip(ordered, masses)):
        for d in ordered[:min(i + 1, bisect_right(masses, degree - mass))]:
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
