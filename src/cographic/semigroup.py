"""Affine semigroups of cone lattice points, and their ring invariants.

For a cone labeled (T, phi), the lattice points form a positive normal
affine semigroup whose Hilbert basis is exactly the set of compatible
circuit classes.  This module computes, per cone: the basis in both edge
and cycle-basis coordinates (``chains.cone_basis`` of the support, whose
edge columns give the edge functionals, the facet normals and the
Gorenstein point), lattice spanning (gcd of the maximal minors),
unimodularity (equality of all maximal minors up to sign), a
degree-bounded slice of the toric ideal of relations, the
(Q-)Gorenstein test from facet normals (Cramer's rule), and the
multiplicity two independent ways: subdiagram volume of the convex hull,
and the leading finite difference of the Hilbert-Samuel function.

Everything is exact, and every elimination is an integer determinant
(``linalg.det_int``).  Only the Gorenstein point is reported as
Fractions, each a ratio of two of those determinants.

Cost model, for a cone of dimension d with n Hilbert basis elements:

- Lattice spanning and unimodularity: up to C(n, d) d x d integer
  determinants, one per d-subset of the generators.  Spanning stops at
  the first subset that brings the gcd to 1; unimodularity stops at the
  first minor of a second absolute value, and a unimodular class
  representative settles its whole class (below).
- Gorenstein test: one ``is_totally_cyclic`` per facet candidate of
  ``fan._cuts``, one per class of ``CycleBasis.series_classes``, at most
  one per edge, then d x d determinants over
  d-subsets of the normals until one is nonzero, d more for Cramer's
  rule and one integer dot product per normal.
- Hull volume: beneath-beyond over the n generators, so the work grows
  with the facets found rather than with C(n, d).  A start simplex
  costs d + 1 planes of ``hyperplane_through``; each further generator
  costs one dot product per facet, and, when some facet sees it, one
  AND per pair of a visible facet and another facet, one scan of the
  facet bitmasks per pair that shares at least d - 1 points, and one
  integer combination and gcd per new facet.  Generators that all lie
  on one plane, as in every banana chamber, cost one plane.
  Each bounded facet that is not a simplex is projected one dimension
  down and cut into pyramids the same way; a simplex costs one
  determinant.
- Hilbert-Samuel oracle: one visit per lattice point with at most
  ``horizon`` parts, about multiplicity * horizon^d / d! of them.  A
  visit looks up at most n parents by integer key, each key packing the
  point's values under the edge functionals; a parent without an entry
  costs one AND against the guard bits, with no decoding and no dot
  product.  Paid once per class of chambers (below), it is still the
  largest single cost of ``analyze``.
- Toric ideal: all exponent vectors of degree at most the bound, C(n +
  degree, n) - 1 of them, grouped by image.  A multiset of k generators
  extends one of k - 1, and its image is one packed integer key, so it
  costs one tuple, one int add and one dict insert.  Only the pairs of
  multisets that share an image and have disjoint supports are counted
  out into exponent vectors.  More than ``MAX_TORIC_EXPONENTS`` raise a
  capacity error before any is listed.

Chambers whose directed circuit supports agree up to an edge bijection
have isomorphic semigroups (``chamber_classes``), so callers pay the
Hilbert-Samuel, hull and toric ideal costs once per class
(``per_chamber_class``; the other members of a class get its ideal
through ``permute_ideal``).  A chamber and its reversal always share a
class.  The class search computes each chamber's edge profiles once,
its search plan once if its bucket already has a representative, and a
representative's candidate lists and set index once; then it costs one
backtracking bijection search per chamber and representative with the
same rank and edge profiles.
Unimodularity is a class property too, but witness minors, lattice
spanning and the Gorenstein point depend on generator order or sign, so
members of a non-unimodular class are tested on their own
(``unimodular_per_class``) and the other two stay per chamber.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, gcd
from operator import itemgetter, mul, sub

from .chains import cone_basis
from .circuits import (_candidates, _edge_profiles, _find_bijection,
                       _search_plan, circuit_class, compatible_circuits)
from .errors import CapacityError
from .fan import _facets
from .linalg import det_int, hyperplane_through, primitive_vector
from .orientations import TotCycPair

# The Hilbert-Samuel horizon of a cone of dimension d is d plus this; it
# suffices on every chamber of the catalog, K4 to K4p3, banana6 and banana7.
HS_HORIZON_MARGIN = 6

# Exponent vectors the toric ideal stage may enumerate for one semigroup,
# C(n + degree, n) - 1 for n Hilbert basis elements.  Degree 3 on doubled
# K4 needs 7,769 (n = 34), which takes 0.5 s on a 2-vCPU Xeon VM.
MAX_TORIC_EXPONENTS = 10_000


@dataclass
class AffineSemigroup:
    """Lattice points of the cone labelled ``label``, presented by its
    Hilbert basis."""

    graph: object
    label: TotCycPair
    circuits: list             # compatible oriented circuits, canonical order
    hilbert_basis: list        # their Chain1 classes, same order
    lattice_rank: int          # dimension of the cone's span
    cycle_basis: object        # CycleBasis of the complement of the support

    def coordinates(self, c):
        return self.cycle_basis.coordinates(c)

    def chain(self, coords):
        return self.cycle_basis.chain(coords)

    @cached_property
    def coords(self):
        """Lattice coordinates of the Hilbert basis elements, in order."""
        return [self.coordinates(c) for c in self.hilbert_basis]

    @cached_property
    def _sign_rows(self):
        """Edge functionals whose nonnegativity cuts out the cone.

        One row per edge with a basis column: the column times the sign
        of the edge's direction, duplicates merged.  The other edges lie
        on no basis cycle and would give zero rows.
        """
        g, forward = self.graph, self.label.forward
        rows = set()
        for e, column in self.cycle_basis.columns.items():
            rows.add(column if forward >> g.edge_index(e) & 1
                     else tuple([-a for a in column]))
        return sorted(rows)

    def contains(self, coords):
        """Membership of a lattice coordinate vector in the cone.

        An integer sign test: every edge functional of ``_sign_rows`` pairs
        nonnegatively with ``coords``.  No cycle check is needed, since
        every integer combination of fundamental cycles is a cycle.
        """
        for row in self._sign_rows:
            if sum(map(mul, row, coords)) < 0:
                return False
        return True


def hilbert_basis(g, pair):
    """The semigroup of the cone labeled by ``pair``.

    The Hilbert basis is the set of compatible circuit classes; the
    lattice is spanned by the fundamental cycles off the support, its
    ``cone_basis``, which consecutive calls with one support share.
    """
    circuits = compatible_circuits(g, pair)
    cycle_basis = cone_basis(g, pair.support)
    return AffineSemigroup(g, pair, circuits,
                           [circuit_class(g, gamma) for gamma in circuits],
                           len(cycle_basis), cycle_basis)


def spans_lattice(s):
    """Do the basis elements span the full cycle lattice over the integers?

    The gcd of the d x d minors of the generator coordinates is the index
    of the lattice they span, and 0 below full rank (Newman, *Integral
    Matrices*), so they span exactly when that gcd reaches 1.  In rank 0
    the one minor is the empty determinant, 1.  Expected to hold for
    every cone; exposed as a checkable assertion.
    """
    index = 0
    for minor in itertools.combinations(s.coords, s.lattice_rank):
        index = gcd(index, det_int(minor))
        if index == 1:
            return True
    return False


def is_unimodular(s):
    """Do all nonzero maximal minors of the basis matrix share one
    absolute value?

    The basis matrix has one column per Hilbert basis element, in lattice
    coordinates; a minor is taken on the generator rows instead, which is
    its transpose and has the same determinant.  On failure returns two
    witnesses ((columns, minor), (columns, minor)) with different absolute
    values; column indices refer to the canonical Hilbert basis order.
    """
    rows = s.coords
    first = None
    for cols in itertools.combinations(range(len(rows)), s.lattice_rank):
        minor = det_int([rows[j] for j in cols])
        if minor == 0:
            continue
        if first is None:
            first = (cols, minor)
        elif abs(minor) != abs(first[1]):
            return False, (first, (cols, minor))
    return True, None


@dataclass
class BinomialIdeal:
    """Degree-bounded binomial relations between Hilbert basis elements.

    Each generator is a pair (u, v) of disjoint-support exponent vectors
    over the canonical Hilbert basis with equal weighted sums; jointly the
    entries are coprime.  No minimality is claimed.
    """

    generators: list   # [(u, v)] with u >= v lexicographically
    degree_bound: int

    def __len__(self):
        return len(self.generators)


def toric_ideal_up_to_degree(s, degree):
    """All primitive disjoint-support binomials of total degree <= degree.

    Exponent vectors are walked as multisets of k generators for k = 1 ..
    degree, each the multiset of k - 1 generators it extends by one
    generator of index at least their last, and grouped by their image,
    the sum of the chosen generators' coordinates.  The image is one
    packed integer key, the key of the multiset it extends plus the
    generator's key: a generator's coordinates are 0 or +-1, so an
    image's lie in [-degree, degree] and two images differ by at most
    2 * degree in each, less than the base, which makes the key
    injective.  Within a group, every unordered pair with disjoint
    supports and coprime joint entries yields one generator; a pair is
    counted out into exponent vectors only once its supports are
    disjoint.  Raises
    ``CapacityError`` when there are more than ``MAX_TORIC_EXPONENTS``
    exponent vectors.
    """
    if degree < 1:
        raise ValueError("degree bound must be at least 1")
    n = len(s.hilbert_basis)
    count = comb(n + degree, n) - 1
    if count > MAX_TORIC_EXPONENTS:
        raise CapacityError(f"toric ideal exponent cap at degree {degree}",
                            count, MAX_TORIC_EXPONENTS)
    w = (2 * degree).bit_length()
    keys = [sum(x << w * j for j, x in enumerate(c)) for c in s.coords]

    by_image = {}
    level = [((), 0, 0)]   # (multiset, image key, least index to add)
    for _ in range(degree):
        grown = []
        for chosen, key, low in level:
            for i in range(low, n):
                multiset, image = chosen + (i,), key + keys[i]
                by_image.setdefault(image, []).append(multiset)
                grown.append((multiset, image, i))
        level = grown

    generators = []
    for group in by_image.values():
        for a, b in itertools.combinations(group, 2):
            if not set(a).isdisjoint(b):
                continue  # supports overlap
            u = tuple(map(a.count, range(n)))
            v = tuple(map(b.count, range(n)))
            if gcd(*u, *v) != 1:
                continue
            generators.append((u, v) if u >= v else (v, u))
    generators.sort()
    return BinomialIdeal(generators, degree)


def permute_ideal(ideal, perm):
    """The ideal over generators whose generator i is generator ``perm[i]``
    of the generators ``ideal`` is over: u'[i] = u[perm[i]], each pair
    oriented so that u' >= v', in sorted order.

    ``itemgetter(*perm)`` picks the entries; on one index it would return
    the entry rather than a tuple, but a permutation of at most one
    generator is the identity, so the ideal is returned as it is.
    """
    if len(perm) < 2:
        return ideal
    pick = itemgetter(*perm)
    generators = []
    for u, v in ideal.generators:
        u, v = pick(u), pick(v)
        generators.append((u, v) if u >= v else (v, u))
    generators.sort()
    return BinomialIdeal(generators, ideal.degree_bound)


def is_homogeneous(ideal):
    """Every generator balances its total degrees."""
    return all(sum(u) == sum(v) for u, v in ideal.generators)


def q_gorenstein(s):
    """Facet-normal test for the (Q-)Gorenstein property of the cone ring.

    Solves normal(m) = 1 over the rationals for all primitive facet
    normals.  The normals of a full-dimensional pointed cone span the dual
    space, so a solution is unique when it exists; the ring is Gorenstein
    in the integral sense when that solution is a lattice point.  The
    normals come in the order of the first edge that cuts each facet
    (``fan._facets``).  Cramer's rule solves the first d normals,
    in ``combinations`` order, with a nonzero determinant; the solution
    then stands if every normal pairs to 1 with it.  The point pairs each
    edge's basis column with the numerators, over the determinant.

    Returns (q_gorenstein, gorenstein_integral, m) where m is the rational
    cycle realizing the pairings, as a dict edge -> Fraction, or None.
    """
    d = s.lattice_rank
    if d == 0:
        return True, True, {}
    normals = [n for _, n in _facets(s.graph, s.cycle_basis, s.label)]
    for rows in itertools.combinations(normals, d):
        det = det_int(rows)
        if det:
            break
    numerators = [det_int([row[:j] + (1,) + row[j + 1:] for row in rows])
                  for j in range(d)]
    if any(sum(map(mul, normal, numerators)) != det for normal in normals):
        return False, False, None
    integral = all(x % det == 0 for x in numerators)
    m = {e: Fraction(x, det) for e, column in s.cycle_basis.columns.items()
         if (x := sum(map(mul, column, numerators)))}
    return True, integral, m


# -- multiplicity, route one: subdiagram volume of the hull --------------


def subdiagram_volume(s):
    """Normalized volume between the origin and the hull of the nonzero
    semigroup elements.

    The region is the union of the pyramids from the origin over the
    bounded facets of hull(Hilbert basis) + cone, so its normalized volume
    (unimodular simplex = 1) is the sum over those facets of the origin's
    lattice height c times ``_facet_volume``.  A supporting plane with
    normal . p >= c for all generators is a bounded facet exactly when
    c > 0: the recession cone is spanned by the generators themselves, so
    a positive offset forces the normal to be strictly positive along
    every ray.  Exact integer output.
    """
    if s.lattice_rank == 0:
        return 1
    points = s.coords
    return sum(c * _facet_volume(points, normal, facet)
               for normal, c, facet in _supporting_planes(points) if c > 0)


def _supporting_planes(points):
    """Every plane through k of the points of Z^k with all points on one
    side, as (normal, c, indices of the points on it).

    Each plane appears once, oriented so that normal . p >= c for every
    point.  When all points lie on one plane, it is returned alone, with
    the orientation of ``hyperplane_through``, whose offset is
    nonnegative; fewer affinely independent points give no plane.

    Otherwise the planes are the facets of the hull, found by
    beneath-beyond (Edelsbrunner, *Algorithms in Combinatorial
    Geometry*).  A simplex on the first affinely independent points, in
    index order, gives k + 1 facets by ``hyperplane_through``.  Each other
    point p is then placed in index order.  A facet F sees p when
    normal . p < c.  Each visible F and each facet G that does not see p
    share a ridge of the horizon exactly when no third facet holds every
    point the two share (the combinatorial adjacency test of the double
    description method; Fukuda and Prodon, 1996).  The new facet through
    that ridge and p is the combination of the two planes that vanishes
    at p, with positive weights, so it needs no determinant.  Points on a
    plane are kept as a bitmask per facet.
    """
    k = len(points[0])
    base = points[0]
    simplex = [0]
    diffs = []
    for i in range(1, len(points)):
        if len(simplex) > k:
            break
        trial = diffs + [tuple(map(sub, points[i], base))]
        if det_int([[sum(map(mul, a, b)) for b in trial] for a in trial]):
            simplex.append(i)
            diffs = trial
    if len(simplex) < k:
        return []
    if len(simplex) == k:
        normal, c = hyperplane_through([points[i] for i in simplex])
        return [(normal, c, tuple(range(len(points))))]

    corners = sum(1 << i for i in simplex)
    facets = []   # (normal + (c,), bitmask of the points on the plane)
    for i in simplex:
        normal, c = hyperplane_through([points[j] for j in simplex if j != i])
        plane = normal + (c,)
        if sum(map(mul, normal, points[i])) < c:
            plane = tuple(-a for a in plane)
        facets.append((plane, corners & ~(1 << i)))

    placed = set(simplex)
    for i, p in enumerate(points):
        if i in placed:
            continue
        bit = 1 << i
        point = p + (-1,)
        values = [sum(map(mul, plane, point)) for plane, _ in facets]
        kept = {plane: on | bit if v == 0 else on
                for (plane, on), v in zip(facets, values) if v >= 0}
        masks = [on for _, on in facets]
        for (plane_f, on_f), v_f in zip(facets, values):
            if v_f >= 0:
                continue
            for (plane_g, on_g), v_g in zip(facets, values):
                if v_g < 0:
                    continue
                ridge = on_f & on_g
                if ridge.bit_count() < k - 1 or sum(
                        ridge & on == ridge for on in masks) > 2:
                    continue
                plane = primitive_vector([v_g * a - v_f * b for a, b
                                          in zip(plane_f, plane_g)])
                kept[plane] = kept.get(plane, 0) | ridge | bit
        facets = list(kept.items())
    return [(plane[:-1], plane[-1],
             tuple(i for i in range(len(points)) if on >> i & 1))
            for plane, on in facets]


def _volume(points):
    """Normalized volume of the hull of distinct points of Z^k, which must
    be full-dimensional: one determinant for a simplex, else the sum, over
    the facets that miss ``points[0]``, of its lattice height above the
    facet times ``_facet_volume``.
    """
    apex = points[0]
    if len(points) == len(apex) + 1:
        return abs(det_int([tuple(map(sub, p, apex)) for p in points[1:]]))
    return sum((sum(map(mul, normal, apex)) - c)
               * _facet_volume(points, normal, facet)
               for normal, c, facet in _supporting_planes(points)
               if 0 not in facet)


def _facet_volume(points, normal, facet):
    """Normalized volume of the facet through ``points[i]``, i in
    ``facet``, in the lattice of its plane, whose normal is primitive.

    Deleting a coordinate where the normal is nonzero maps that lattice
    one to one onto a coset of a sublattice of Z^(k-1) of index
    |normal[axis]|, so the projection's volume is that multiple.
    """
    axis = next(j for j, a in enumerate(normal) if a)
    projected = [points[i][:axis] + points[i][axis + 1:] for i in facet]
    return _volume(projected) // abs(normal[axis])


# -- multiplicity, route two: Hilbert-Samuel finite differences ----------


def hilbert_samuel_function(s, horizon):
    """dim of R(cone)/m^n for n = 1..horizon, by exact lattice counting.

    A monomial survives in the quotient exactly when its exponent cannot
    be split into n nonzero semigroup elements.  The maximal number of
    parts in any splitting is computed by dynamic programming over lattice
    points in increasing degree.  Degree is linear on the cone and every
    generator has positive degree, so one bucket per degree puts every
    parent before its children; within a bucket the order is free, since
    only the counts per number of parts leave the DP.

    A point is packed into one integer by its values under the cone's
    edge functionals (``_sign_rows``), one field of w bits per row.  The
    map is injective, since the cone is pointed and full-dimensional.  A
    point is queued only from a point with fewer than ``cutoff`` parts:
    every child of a point with ``cutoff`` parts has more.  No point within
    the cutoff is lost: a point with p <= cutoff parts, less one generator
    of a longest splitting, has p - 1 < cutoff parts and queues it.  Parts
    grow by one along every queueing step, so each queued point is a sum
    of at most ``cutoff`` generators and each parent examined is such a
    sum minus one generator.  With ``top`` the largest value of a
    generator under a functional, every value the DP touches therefore
    lies in [-top, cutoff * top], and a field holds its value plus
    2^(w - 1), w being large enough that it never leaves [0, 2^w).  So no
    borrow crosses a field, parent and child are ``key -+ step``, and a
    point lies in the cone exactly when the top bit of every field is set:
    ``key & guard == guard``, one AND.  Points beyond the cutoff get no
    entry in the DP: every point within it is visited before its children,
    so a parent in the cone without an entry lies beyond the cutoff, and
    then so does the point.  A point whose parent has ``cutoff`` parts
    finds that parent's entry and is dropped.  The counts per number of
    parts are kept as the points are visited, the zero point first.
    """
    d = s.lattice_rank
    if d == 0 or horizon < 1:
        return [1] * horizon
    cutoff = horizon - 1
    rows = s._sign_rows
    values = [[sum(map(mul, row, g)) for row in rows] for g in s.coords]
    top = max(map(max, values))
    w = (cutoff * top).bit_length() + 1
    guard = sum(1 << (i * w + w - 1) for i in range(len(rows)))
    steps = [sum(v << i * w for i, v in enumerate(vals)) for vals in values]
    degrees = [c.l1() for c in s.hilbert_basis]
    moves = list(zip(steps, degrees))
    # a queued point is a sum of at most cutoff generators
    buckets = [set() for _ in range(cutoff * max(degrees) + 1)]
    buckets[0].add(guard)   # the zero point: each field holds 2^(w - 1)

    parts = {}
    counts = [0] * horizon
    for deg, bucket in enumerate(buckets):
        for key in bucket:
            best = 0
            for step in steps:
                parent = key - step
                known = parts.get(parent)
                if known is None:
                    if parent & guard == guard:
                        best = horizon   # a member beyond the cutoff
                        break
                elif known >= best:
                    best = known + 1
            if best > cutoff:
                continue
            parts[key] = best
            counts[best] += 1
            if best < cutoff:
                for step, gdeg in moves:
                    buckets[deg + gdeg].add(key + step)
        buckets[deg] = None   # done; free its keys
    return list(itertools.accumulate(counts))


def multiplicity_hs_oracle(s):
    """Multiplicity read off the Hilbert-Samuel function.

    Takes the d-th finite difference of n -> dim R/m^n and requires it to
    have stabilized by the horizon d + HS_HORIZON_MARGIN; raises a
    capacity error otherwise, whose size is the horizon needed next: d + 2
    when there are fewer than two differences, else one more.
    Independent of the convex-hull route by construction.
    """
    d = s.lattice_rank
    horizon = d + HS_HORIZON_MARGIN
    values = hilbert_samuel_function(s, horizon)
    diffs = values
    for _ in range(d):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    if len(diffs) < 2 or diffs[-1] != diffs[-2]:
        needed = d + 2 if len(diffs) < 2 else horizon + 1
        raise CapacityError(
            f"Hilbert-Samuel horizon at dimension {d} "
            f"({d}-th differences not stable)", needed, horizon)
    return diffs[-1]


# -- reporting ------------------------------------------------------------


def chamber_classes(semigroups):
    """For each chamber, (index of its class representative, generator
    permutation into the representative).

    A chamber (B, phi) is the totally cyclic digraph (G - B, phi), and its
    generators are its directed circuits, 0/1 vectors in phi-signed edge
    coordinates.  An edge bijection carrying one chamber's circuit
    supports onto another's (``hypergraph_bijection``) is therefore an
    isomorphism of their semigroups, and of their lattices where the
    generators span them (``spans_lattice``).  The Hilbert-Samuel
    function and the subdiagram volume agree, and the toric ideal agrees
    up to ``permute_ideal``.  ``perm[i]`` is the representative's index of
    the image of generator i; a representative is the first chamber of
    its class and maps to itself.  Chambers are bucketed by lattice rank
    and sorted edge profiles, and each is searched against the
    representatives of its bucket only.  The chambers are those of one
    graph, and each circuit support mask becomes a set of edge ids once.
    A chamber's edge profiles are computed once, its search plan once
    when it has a bucket to search, and a representative's candidates,
    target sets and set index once when it founds its bucket: the sorted
    profiles key the bucket, so the searches need no further pruning
    than ``hypergraph_bijection``'s profile tests.
    """
    buckets = {}
    classes = []
    names = {}
    for i, s in enumerate(semigroups):
        g = s.graph
        edges = g.edges_of(~s.label.support)
        sets = []
        for gamma in s.circuits:
            if gamma.support not in names:
                names[gamma.support] = frozenset(g.edges_of(gamma.support))
            sets.append(names[gamma.support])
        profiles = _edge_profiles(edges, sets)
        bucket = buckets.setdefault(
            (s.lattice_rank, tuple(sorted(profiles.values()))), [])
        plan = _search_plan(edges, sets, profiles) if bucket else None
        for j, candidates, index in bucket:
            bijection = _find_bijection(plan, candidates, index)
            if bijection is not None:
                classes.append((j, tuple(
                    index[frozenset(map(bijection.get, supp))]
                    for supp in sets)))
                break
        else:
            bucket.append((i, _candidates(edges, profiles),
                           {supp: k for k, supp in enumerate(sets)}))
            classes.append((i, tuple(range(len(sets)))))
    return classes


def per_chamber_class(fn, semigroups, classes):
    """``[fn(s) for s in semigroups]``, calling ``fn`` only on the class
    representatives of ``classes`` (from ``chamber_classes``); the rest
    of a class reuses its representative's value."""
    values = []
    for i, (rep, _) in enumerate(classes):
        values.append(fn(semigroups[i]) if rep == i else values[rep])
    return values


def unimodular_per_class(semigroups, classes):
    """``[is_unimodular(s) for s in semigroups]``, testing only the class
    representatives of ``classes`` (from ``chamber_classes``) when they
    are unimodular.

    A class maps generators onto generators by a signed permutation of
    edge coordinates, so each member's maximal minors are one fixed
    nonzero multiple of its representative's minors on the permuted
    columns, and unimodularity is a class property.  The witnesses of a
    non-unimodular member follow its own generator order, so such a
    member is tested on its own.
    """
    values = per_chamber_class(is_unimodular, semigroups, classes)
    return [value if value[0] or rep == i else is_unimodular(s)
            for i, (s, value, (rep, _))
            in enumerate(zip(semigroups, values, classes))]


def semigroup_report(s, ideal, volume, hs_multiplicity, unimodular):
    """Everything the reports carry for one cone, JSON-ready.

    ``ideal``, ``volume``, ``hs_multiplicity`` and ``unimodular`` are the
    cone's binomial ideal, subdiagram volume, Hilbert-Samuel multiplicity
    and ``is_unimodular`` pair, computed once per class of chambers by
    the caller (``per_chamber_class``, ``unimodular_per_class``).
    """
    g = s.graph
    uni, witness = unimodular
    qg, gor, m = q_gorenstein(s)
    var_labels = [gamma.to_json(g) for gamma in s.circuits]
    return {
        "label": s.label.to_json(g),
        "lattice_rank": s.lattice_rank,
        "hilbert_basis_edges": [c.to_json() for c in s.hilbert_basis],
        "hilbert_basis_coords": [list(x) for x in s.coords],
        "spans_lattice": spans_lattice(s),
        "unimodular": uni,
        "unimodular_witness": (None if witness is None else
                               [{"columns": list(cols), "minor": val}
                                for cols, val in witness]),
        "variables": var_labels,
        "binomials": {
            "degree_bound": ideal.degree_bound,
            "generators": [{"u": list(u), "v": list(v)}
                           for u, v in ideal.generators],
            "homogeneous": is_homogeneous(ideal),
        },
        "q_gorenstein": qg,
        "gorenstein_integral": gor,
        "gorenstein_point": (None if m is None else
                             {e: [x.numerator, x.denominator]
                              for e, x in sorted(m.items())}),
        "multiplicity": {
            "subdiagram_volume": volume,
            "hilbert_samuel": hs_multiplicity,
        },
    }
