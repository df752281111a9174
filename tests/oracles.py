"""Slow reference implementations that the fast paths are tested against.

Each ``*_reference`` oracle keeps the straightforward formulation of a
routine whose production version was rewritten for speed or brevity; differential
tests compare the two outputs exactly.  The rest are brute-force
enumerations that only tests use, the rational and Smith-form
eliminations that the determinant-only product replaced, and a generic
finite poset with an order-isomorphism search, which the tests compare
the orientation poset's order with.
"""

import heapq
import itertools
from fractions import Fraction
from math import gcd
from operator import mul

from cographic import (BinomialIdeal, CapacityError, Chain1,
                       CycleBasis, OrientationPoset, boundary,
                       OrientedCircuit, TotCycPair, circuit_class,
                       compatible_circuits, cone_contains, contract_edge,
                       delete_edges, fundamental_cycle_basis,
                       is_cycle, separating_edges)
from cographic.graph import FORWARD, BACKWARD, spanning_forest
from cographic.orientations import MAX_ORIENTATION_EDGES, MAX_POSET_EDGES
from cographic.linalg import det_int, hyperplane_through, primitive_vector


def hilbert_samuel_function_reference(s, horizon):
    """dim of R(cone)/m^n for n = 1..horizon, by exact lattice counting.

    A monomial survives in the quotient exactly when its exponent cannot
    be split into n nonzero semigroup elements.  The maximal number of
    parts in any splitting is computed by dynamic programming over lattice
    points in increasing degree (degree is linear on the cone, so every
    parent precedes its children).

    Lattice points are coordinate tuples, and membership rebuilds each
    point as a chain and runs the sign test of ``cone_contains``.
    """
    d = s.lattice_rank
    if d == 0:
        return [1] * horizon
    gens = [s.coordinates(c) for c in s.hilbert_basis]
    degrees = [c.l1() for c in s.hilbert_basis]
    cutoff = horizon - 1

    member_cache = {}

    def member(pt):
        cached = member_cache.get(pt)
        if cached is None:
            cached = cone_contains(s.graph, s.label, s.chain(pt))
            member_cache[pt] = cached
        return cached

    zero = tuple([0] * d)
    max_parts = {zero: 0}
    heap = []
    queued = set()
    for gvec, gdeg in zip(gens, degrees):
        child = tuple(a + b for a, b in zip(zero, gvec))
        if child not in queued:
            queued.add(child)
            heapq.heappush(heap, (gdeg, child))
    while heap:
        deg, pt = heapq.heappop(heap)
        if pt in max_parts:
            continue
        best = 0
        for gvec in gens:
            parent = tuple(a - b for a, b in zip(pt, gvec))
            known = max_parts.get(parent)
            if known is None:
                if member(parent):
                    known = cutoff + 1  # unvisited member: beyond the cutoff
                else:
                    continue
            best = max(best, known + 1)
        best = min(best, cutoff + 1)
        max_parts[pt] = best
        if best <= cutoff:
            for gvec, gdeg in zip(gens, degrees):
                child = tuple(a + b for a, b in zip(pt, gvec))
                if child not in max_parts and child not in queued:
                    queued.add(child)
                    heapq.heappush(heap, (deg + gdeg, child))
    return [sum(1 for parts in max_parts.values() if parts <= n - 1)
            for n in range(1, horizon + 1)]


def _rref(matrix, ncols=None):
    """Reduced row echelon form over Q: (Fraction rows, pivot columns).

    Gauss-Jordan: each pivot row is divided by its pivot, then the pivot
    column is cleared in every other row.  Pivots are sought in the first
    ``ncols`` columns only (default: all), so an augmented right-hand
    side is carried along without being pivoted on.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pr = [x / rows[r][col] for x in rows[r]]
        rows[r] = pr
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        pivots.append(col)
        r += 1
    return rows, pivots


def rank(matrix):
    """Rank of a matrix with int/Fraction entries, by exact elimination."""
    return len(_rref(matrix)[1])


def solve_rational(matrix, rhs):
    """One exact solution of ``matrix @ x = rhs`` over Q, or None.

    Gauss-Jordan on the augmented matrix; free variables (if any) are set
    to zero.  Returns a list of Fractions.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows, pivots = _rref([list(row) + [b] for row, b in zip(matrix, rhs)],
                         ncols)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        x[col] = row[ncols]
    return x


def smith_invariant_factors(matrix):
    """Nonzero invariant factors of an integer matrix, in divisibility order.

    Classic Smith reduction by row/column operations; fine at the sizes
    this package meets (a handful of rows and columns).
    """
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return []
    nrows, ncols = len(m), len(m[0])
    factors = []
    top = 0
    while top < min(nrows, ncols):
        # find a nonzero pivot in the remaining block
        pivot = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[top], row[j] = row[j], row[top]
        while True:
            # clear the pivot column
            for i in range(top + 1, nrows):
                while m[i][top] != 0:
                    q = m[i][top] // m[top][top]
                    for j in range(top, ncols):
                        m[i][j] -= q * m[top][j]
                    if m[i][top] != 0:
                        m[top], m[i] = m[i], m[top]
            # clear the pivot row
            for j in range(top + 1, ncols):
                while m[top][j] != 0:
                    q = m[top][j] // m[top][top]
                    for i in range(top, nrows):
                        m[i][j] -= q * m[i][top]
                    if m[top][j] != 0:
                        for row in m:
                            row[top], row[j] = row[j], row[top]
            if all(m[i][top] == 0 for i in range(top + 1, nrows)):
                break
        factors.append(abs(m[top][top]))
        top += 1
    # enforce the divisibility chain
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            g = gcd(a, b)
            if g == 0:
                continue
            factors[i] = g
            factors[j] = a * b // g
    return [f for f in factors if f != 0]


def kernel_rational(matrix):
    """Basis of the right kernel of a matrix over Q (list of Fraction rows)."""
    if not matrix:
        return []
    rows, pivots = _rref(matrix)
    ncols = len(rows[0])
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def hyperplane_through_reference(points):
    """Primitive (normal, c) with normal . p = c on every point, or None.

    The rational kernel of the rows ``[p | -1]``, cleared of denominators
    by their LCM.  Its sign is whatever the elimination leaves.
    """
    rows = [list(p) + [-1] for p in points]
    ker = kernel_rational(rows)
    if len(ker) != 1:
        return None
    v = ker[0]
    denom = 1
    for x in v:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in v]
    ints = list(primitive_vector(ints))
    return tuple(ints[:-1]), ints[-1]


def supporting_planes_reference(points):
    """``semigroup._supporting_planes`` by exhaustive search.

    Every k-subset of the points of Z^k is tried: its plane from
    ``hyperplane_through``, when it has one, is kept if every point lies
    on one side, oriented so that normal . p >= c.  Each plane appears
    once, in first-found order, with the sorted indices of the points on
    it.  When all points lie on the plane, it keeps the orientation of
    ``hyperplane_through``; on a plane through the origin that orientation
    depends on the subset, and both may appear.
    """
    planes = {}
    for subset in itertools.combinations(range(len(points)), len(points[0])):
        plane = hyperplane_through([points[i] for i in subset])
        if plane is None:
            continue
        normal, c = plane
        values = [sum(map(mul, normal, p)) for p in points]
        if all(v >= c for v in values):
            pass
        elif all(v <= c for v in values):
            normal = tuple(-a for a in normal)
            c = -c
            values = [-v for v in values]
        else:
            continue
        if (normal, c) not in planes:
            planes[normal, c] = tuple(i for i, v in enumerate(values)
                                      if v == c)
    return [(normal, c, on) for (normal, c), on in planes.items()]


def spans_lattice_reference(s):
    """Lattice spanning by Smith normal form: full rank with all
    invariant factors 1."""
    if s.lattice_rank == 0:
        return True
    rows = [s.coordinates(c) for c in s.hilbert_basis]
    factors = smith_invariant_factors(rows)
    return len(factors) == s.lattice_rank and all(f == 1 for f in factors)


def is_unimodular_reference(s):
    """Maximal minors of the basis matrix (lattice-coordinate rows, one
    column per Hilbert basis element), taken column subset by column
    subset; the same witnesses as ``is_unimodular``."""
    d = s.lattice_rank
    n = len(s.hilbert_basis)
    if d == 0 or n < d:
        return True, None
    cols = [s.coordinates(c) for c in s.hilbert_basis]
    matrix = [tuple(col[i] for col in cols) for i in range(d)]
    first = None
    for subset in itertools.combinations(range(n), d):
        minor = det_int([[matrix[i][j] for j in subset] for i in range(d)])
        if minor == 0:
            continue
        if first is None:
            first = (subset, minor)
        elif abs(minor) != abs(first[1]):
            return False, (first, (subset, minor))
    return True, None


def q_gorenstein_reference(s):
    """The Gorenstein system normal(m) = 1 over all facet normals at once,
    by rational Gauss-Jordan elimination."""
    d = s.lattice_rank
    if d == 0:
        return True, True, {}
    normals = [normal for _, normal in facets_reference(s.graph, s.label)]
    solution = solve_rational(normals, [1] * len(normals))
    if solution is None:
        return False, False, None
    integral = all(x.denominator == 1 for x in solution)
    m = {}
    for coeff, basis_chain in zip(solution, s.cycle_basis.basis):
        for e, n in basis_chain.items():
            m[e] = m.get(e, Fraction(0)) + coeff * n
    m = {e: x for e, x in m.items() if x != 0}
    return True, integral, m


def toric_ideal_reference(s, degree):
    """``toric_ideal_up_to_degree`` by brute force.

    The exponent vectors of degree k are the letter counts of the words of
    length k over the generators (``itertools.product``), deduplicated;
    each image is the exponent vector times the generator matrix, one dot
    product per coordinate.  Every pair of vectors is tested for a common
    image, disjoint supports and coprime joint entries.
    """
    gens = [s.coordinates(c) for c in s.hilbert_basis]
    n = len(gens)
    vectors = set()
    for k in range(1, degree + 1):
        for word in itertools.product(range(n), repeat=k):
            vectors.add(tuple(word.count(i) for i in range(n)))
    images = {u: tuple(sum(u[i] * gens[i][j] for i in range(n))
                       for j in range(s.lattice_rank))
              for u in vectors}
    generators = []
    for u, v in itertools.combinations(sorted(vectors, reverse=True), 2):
        if images[u] != images[v]:
            continue
        if any(a and b for a, b in zip(u, v)):
            continue
        joint = 0
        for x in u + v:
            joint = gcd(joint, x)
        if joint == 1:
            generators.append((u, v))
    return BinomialIdeal(sorted(generators), degree)


def permute_ideal_reference(ideal, perm):
    """``permute_ideal`` entry by entry: u'[i] = u[perm[i]], one
    comprehension per exponent vector, then each pair oriented and the
    list sorted."""
    generators = []
    for u, v in ideal.generators:
        u = tuple(u[j] for j in perm)
        v = tuple(v[j] for j in perm)
        generators.append((u, v) if u >= v else (v, u))
    generators.sort()
    return BinomialIdeal(generators, ideal.degree_bound)


def is_totally_cyclic_reference(g, dirs):
    """Is every component of g, its edges directed by the dict ``dirs``
    (edge id -> FORWARD or BACKWARD), strongly connected?

    The slow twin of the bond rule ``is_totally_cyclic``.  ``dirs`` must
    orient exactly the edges of ``g``; a partial orientation is rejected.
    """
    if set(dirs) != set(g.edges):
        raise ValueError("orientation does not cover exactly the edge set")
    out = {v: [] for v in g.vertices}
    inc = {v: [] for v in g.vertices}
    und = {v: [] for v in g.vertices}
    for e in g.edges:
        oe = (e, dirs[e])
        s, t = g.source(oe), g.target(oe)
        out[s].append(t)
        inc[t].append(s)
        und[s].append(t)
        und[t].append(s)

    def reach(start, adj):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    visited = set()
    for v in g.vertices:
        if v in visited:
            continue
        comp = reach(v, und)
        visited |= comp
        if all(not out[w] and not inc[w] for w in comp):
            continue  # edgeless component, vacuously fine
        if reach(v, out) != comp or reach(v, inc) != comp:
            return False
    return True


def enumerate_tco_reference(g):
    """All totally cyclic orientations of g as direction dicts, in
    canonical order.

    Canonical order is lexicographic over edges in enumeration order with
    forward before backward.  The edgeless graph yields exactly the empty
    orientation; a graph with a separating edge yields nothing.
    """
    m = len(g.edges)
    if m > MAX_ORIENTATION_EDGES:
        raise CapacityError("orientation enumeration edge cap", m,
                            MAX_ORIENTATION_EDGES)
    if m == 0:
        return [{}]
    if separating_edges(g):
        return []
    found = []
    for signs in itertools.product((FORWARD, BACKWARD), repeat=m):
        dirs = dict(zip(g.edges, signs))
        if is_totally_cyclic_reference(g, dirs):
            found.append(dirs)
    return found


def build_orientation_poset_reference(g):
    """Enumerate every (T, phi) pair of the graph.

    T runs over edge supersets of the separating edges by increasing size;
    ``enumerate_tco`` yields nothing for a subgraph with a leftover bridge.
    """
    m = len(g.edges)
    if m > MAX_POSET_EDGES:
        raise CapacityError("orientation poset edge cap", m, MAX_POSET_EDGES)
    sep = set(separating_edges(g))
    free = [e for e in g.edges if e not in sep]
    named = []
    for k in range(len(free), -1, -1):
        for kept in itertools.combinations(free, k):
            t = frozenset(g.edges) - frozenset(kept)
            for phi in enumerate_tco_reference(delete_edges(g, t)):
                named.append((t, phi))

    def order(item):
        # ``TotCycPair.sort_key`` order, computed from the names
        t, phi = item
        return (len(t), tuple(sorted(map(g.edge_index, t))),
                tuple(0 if phi[e] == FORWARD else 1
                      for e in g.edges if e not in t))

    named.sort(key=order)
    return OrientationPoset(g, [_label_of(g, t, phi) for t, phi in named])


def _label_of(g, t, phi):
    """The label of the edge ids ``t`` and the direction dict ``phi`` of
    the rest, unchecked."""
    return TotCycPair(g.edge_mask(t),
                      g.edge_mask(e for e, d in phi.items() if d == FORWARD))


def _names(g, pair):
    """The edge set T and the direction dict phi of a label, read bit by
    bit along g's edge order."""
    support, forward = pair
    t = frozenset(e for i, e in enumerate(g.edges) if support >> i & 1)
    phi = {e: FORWARD if forward >> i & 1 else BACKWARD
           for i, e in enumerate(g.edges) if not support >> i & 1}
    return t, phi


def maximal_elements_reference(poset):
    """Elements below no other element, by pairwise order tests on names.

    p <= q when T(p) contains T(q) and phi(p) is phi(q) restricted.  Each
    p is first compared with the pairs one support edge up that extend
    it, looked up by name, and then with every element whose support T(p)
    contains.
    """
    g = poset.graph
    names = {p: _names(g, p) for p in poset.elements}
    by_name = {(t, frozenset(phi.items())): p for p, (t, phi) in names.items()}
    by_support = {}
    for q, (t, _) in names.items():
        by_support.setdefault(t, []).append(q)

    def leq(p, q):
        (tp, phi_p), (tq, phi_q) = names[p], names[q]
        return tp >= tq and all(phi_q[e] == d for e, d in phi_p.items())

    def candidates(p):
        t, phi = names[p]
        for e in t:
            for d in (FORWARD, BACKWARD):
                q = by_name.get((t - {e}, frozenset({**phi, e: d}.items())))
                if q is not None:
                    yield q
        for s, group in by_support.items():
            if s <= t:
                yield from group

    return [p for p in poset.elements
            if not any(q != p and leq(p, q) for q in candidates(p))]


class FinitePoset:
    """A finite poset given by explicit elements and comparisons: n^2
    ``leq`` calls build it."""

    def __init__(self, elements, leq):
        self.elements = list(elements)
        n = len(self.elements)
        self.up = [set() for _ in range(n)]    # j in up[i]  <=>  e_i <= e_j
        self.down = [set() for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if leq(self.elements[i], self.elements[j]):
                    self.up[i].add(j)
                    self.down[j].add(i)

    def __len__(self):
        return len(self.elements)

    def covers(self):
        """covers_up[i] = elements immediately above i: those above i and
        above nothing else above i."""
        up = self.up
        covers_up = []
        for i, ups in enumerate(up):
            above = ups - {i}
            covers_up.append(above - set().union(*(up[k] - {k} for k in above)))
        return covers_up


def find_poset_isomorphism(p, q):
    """An order isomorphism between two finite posets, or None.

    Backtracking over refinement classes: elements are first colored by an
    iterated neighborhood signature over the covering relation, then
    matched class against class with incremental consistency checks.

    The search recurses once per element, so its recursion depth is the
    poset size.  It serves posets under about 1,000 elements, Python's
    default recursion limit; every catalog poset the tests use is under
    that (THETA2's 261 is the largest).
    """
    n = len(p)
    if n != len(q):
        return None
    if n == 0:
        return {}

    def refine(poset):
        cov_up = poset.covers()
        cov_down = [set() for _ in range(len(poset))]
        for i, ups in enumerate(cov_up):
            for j in ups:
                cov_down[j].add(i)
        color = [(len(poset.up[i]), len(poset.down[i])) for i in range(len(poset))]
        while True:
            sig = [
                (color[i],
                 tuple(sorted(color[j] for j in cov_up[i])),
                 tuple(sorted(color[j] for j in cov_down[i])))
                for i in range(len(poset))
            ]
            palette = {s: k for k, s in enumerate(sorted(set(sig)))}
            new = [palette[s] for s in sig]
            if len(set(new)) == len(set(color)):
                return new
            color = new

    cp, cq = refine(p), refine(q)
    if sorted(cp) != sorted(cq):
        return None

    by_color = {}
    for j, c in enumerate(cq):
        by_color.setdefault(c, []).append(j)
    # most-constrained first: rare colors, high comparability degree
    order = sorted(range(n), key=lambda i: (len(by_color[cp[i]]),
                                            -len(p.up[i]) - len(p.down[i]), i))
    mapping = [None] * n
    used = [False] * n

    def extend(k):
        if k == n:
            return True
        i = order[k]
        for j in by_color.get(cp[i], ()):
            if used[j]:
                continue
            ok = True
            for prev in order[:k]:
                pj = mapping[prev]
                if ((prev in p.down[i]) != (pj in q.down[j]) or
                        (prev in p.up[i]) != (pj in q.up[j])):
                    ok = False
                    break
            if ok:
                mapping[i] = j
                used[j] = True
                if extend(k + 1):
                    return True
                mapping[i] = None
                used[j] = False
        return False

    if not extend(0):
        return None
    return {p.elements[i]: q.elements[mapping[i]] for i in range(n)}


def cone_leq_reference(g):
    """Cone inclusion decided on rays, not on labels: ``leq(p, q)`` holds
    when every extremal ray of the cone of p, the class of a compatible
    circuit, passes the sign test of the cone of q.  Each label's rays are
    listed once."""
    rays = {}

    def leq(p, q):
        if p not in rays:
            rays[p] = [circuit_class(g, c) for c in compatible_circuits(g, p)]
        return all(cone_contains(g, q, r) for r in rays[p])

    return leq


def covers_reference(poset):
    """``FinitePoset.covers`` by testing every element between each
    comparable pair: about cubic in the size."""
    n = len(poset)
    covers_up = [set() for _ in range(n)]
    for i in range(n):
        above = poset.up[i] - {i}
        for j in above:
            if not any(k in above and j in poset.up[k] and k != j
                       for k in above):
                covers_up[i].add(j)
    return covers_up


def connected_components_reference(g):
    """Components by depth-first search from each unseen vertex, in
    vertex order."""
    adj = {v: [] for v in g.vertices}
    for e in g.edges:
        s, t = g.ends(e)
        adj[s].append(t)
        adj[t].append(s)
    seen = set()
    components = []
    for v in g.vertices:
        if v in seen:
            continue
        seen.add(v)
        stack = [v]
        component = []
        while stack:
            u = stack.pop()
            component.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        components.append(frozenset(component))
    return components


def separating_edges_reference(g):
    """Bridges by a depth-first search per edge, in canonical order.

    Loops and members of parallel pairs are never bridges; the test is the
    multigraph one (does removal disconnect the endpoints).
    """
    bridges = []
    for e in g.edges:
        if g.is_loop(e):
            continue
        s, t = g.ends(e)
        if any(g.ends(f) in ((s, t), (t, s)) for f in g.edges if f != e):
            continue  # parallel copy keeps the endpoints joined
        if not _connected_without(g, e):
            bridges.append(e)
    return tuple(bridges)


def _connected_without(g, e):
    """Are the endpoints of e still joined after deleting e?"""
    s, t = g.ends(e)
    adj = {}
    for f in g.edges:
        if f == e:
            continue
        a, b = g.ends(f)
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    stack = [s]
    seen = {s}
    while stack:
        v = stack.pop()
        if v == t:
            return True
        for w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def two_edge_cuts_reference(g):
    """``two_edge_cuts`` by building the graph without each candidate pair
    and counting its components."""
    bridges = set(separating_edges_reference(g))
    candidates = [e for e in g.edges if not g.is_loop(e) and e not in bridges]
    base = len(connected_components_reference(g))
    cuts = []
    for e, f in itertools.combinations(candidates, 2):
        if len(connected_components_reference(delete_edges(g, (e, f)))) > base:
            cuts.append((e, f))
    return cuts


def three_edge_connectivization_reference(g):
    """``three_edge_connectivization`` recomputing every bridge after each
    contraction, with the reference cuts."""
    while True:
        bridges = separating_edges_reference(g)
        if not bridges:
            break
        g = contract_edge(g, bridges[0])
    while True:
        cuts = two_edge_cuts_reference(g)
        if not cuts:
            break
        pair = min(cuts, key=lambda c: (g.edge_index(c[0]), g.edge_index(c[1])))
        g = contract_edge(g, pair[0])
    return g


def _circuit_walk_reference(g):
    """All circuits of g by name, each once as (edge ids, direction dict):
    loops plus vertex-simple closed walks.

    Each non-loop circuit is anchored at its lowest edge and traversed in
    the reference direction, and the walk records each edge's direction
    in a dict; ``circuits._circuit_supports`` carries two bitmasks instead.
    """
    incidence = {v: [] for v in g.vertices}
    for e in g.edges:
        s, t = g.ends(e)
        if s != t:
            incidence[s].append((e, t, FORWARD))
            incidence[t].append((e, s, BACKWARD))
    found = []
    for anchor in g.edges:
        if g.is_loop(anchor):
            found.append(((anchor,), {anchor: FORWARD}))
            continue
        a_idx = g.edge_index(anchor)
        start, cur = g.ends(anchor)

        def walk(vertex, visited, path):
            for e, other, direction in incidence[vertex]:
                if g.edge_index(e) <= a_idx:
                    continue
                if other == start:
                    edges = (anchor,) + tuple(f for f, _ in path) + (e,)
                    dirs = {anchor: FORWARD}
                    dirs.update(dict(path))
                    dirs[e] = direction
                    found.append((edges, dirs))
                elif other not in visited:
                    walk(other, visited | {other}, path + ((e, direction),))

        walk(cur, {start, cur}, ())
    return found


def _circuit_of(g, edges, dirs):
    """The ``OrientedCircuit`` of g on the edge ids ``edges``, directed by
    the dict ``dirs``."""
    return OrientedCircuit(g.edge_mask(edges),
                           g.edge_mask(e for e in edges if dirs[e] == FORWARD))


def _circuit_names(g, gamma):
    """The edge ids and the direction dict of an oriented circuit of g,
    read bit by bit along g's edge order."""
    support, forward = gamma
    dirs = {e: FORWARD if forward >> i & 1 else BACKWARD
            for i, e in enumerate(g.edges) if support >> i & 1}
    return frozenset(dirs), dirs


def enumerate_oriented_circuits_reference(g):
    """Both orientations of every circuit of the name-based walk, sorted
    by names, then turned into mask pairs."""
    named = []
    for edges, dirs in _circuit_walk_reference(g):
        named.append((edges, dirs))
        named.append((edges, {e: -d for e, d in dirs.items()}))

    def order(item):
        # ``OrientedCircuit.sort_key`` order, computed from the names
        edges, dirs = item
        lowest = min(edges, key=g.edge_index)
        return (tuple(sorted(map(g.edge_index, edges))),
                0 if dirs[lowest] == FORWARD else 1)

    named.sort(key=order)
    return [_circuit_of(g, edges, dirs) for edges, dirs in named]


def compatible_circuits_reference(g, pair):
    """Walk every circuit of the graph with the support deleted by name
    and keep those the restriction of phi orients coherently, then sort
    and turn them into mask pairs."""
    t, phi = _names(g, pair)
    out = []
    for edges, dirs in _circuit_walk_reference(delete_edges(g, t)):
        restricted = {e: phi[e] for e in edges}
        if restricted == dirs or \
                restricted == {e: -d for e, d in dirs.items()}:
            out.append(edges)
    out.sort(key=lambda edges: sorted(map(g.edge_index, edges)))
    return [_circuit_of(g, edges, phi) for edges in out]


def concordant_reference(g, gamma, delta):
    """``concordant`` on edge names: do the two oriented circuits of g run
    every shared edge the same way?"""
    support_a, dirs_a = _circuit_names(g, gamma)
    support_b, dirs_b = _circuit_names(g, delta)
    return all(dirs_a[e] == dirs_b[e] for e in support_a & support_b)


def support_orientation_of(g, circuits):
    """The pair (T, phi) generated by pairwise-concordant circuits: the
    slow twin of ``fan.face_label``.

    T is the set of edges on no circuit; phi orients each covered edge the
    shared way.  Discordant input is rejected.  The result is a valid
    poset element and every input circuit is compatible with it.
    """
    circuits = list(circuits)
    for i, gamma in enumerate(circuits):
        for delta in circuits[i + 1:]:
            if not concordant_reference(g, gamma, delta):
                raise ValueError("circuits are not pairwise concordant")
    dirs = {}
    for gamma in circuits:
        dirs.update(_circuit_names(g, gamma)[1])
    t = frozenset(g.edges) - frozenset(dirs)
    return TotCycPair.create(g, t, [e for e, d in dirs.items() if d == FORWARD])


def covered_by_compatible_circuits(g, phi):
    """Total cyclicity another way: every edge on a compatible circuit.

    Slower than the strong-connectivity test but a genuinely different
    route; kept for cross-checks.
    """
    covered = set()
    for gamma in compatible_circuits_reference(g, _label_of(g, (), phi)):
        covered |= _circuit_names(g, gamma)[0]
    return covered == set(g.edges)


def cycles_up_to_mass_reference(g, bound):
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


def l1_ball_points(n, radius):
    """The points of Z^n with L1 norm at most ``radius``, each the tuple
    of its nonzero coordinates as (index, value) pairs in increasing
    index order."""
    stack = [((), 0, radius)] if radius >= 0 else []
    while stack:
        point, start, budget = stack.pop()
        yield point
        if budget:
            for i in range(start, n):
                for k in range(1, budget + 1):
                    stack.append((point + ((i, k),), i + 1, budget - k))
                    stack.append((point + ((i, -k),), i + 1, budget - k))


def signed_chains_up_to_mass(g, bound):
    """All integer chains (not just cycles) with L1 norm <= bound."""
    edges = list(g.edges)
    for point in l1_ball_points(len(edges), bound):
        yield Chain1({edges[i]: k for i, k in point})


def invariance_agrees_reference(g, degree, cycles):
    """``invariants._invariance_agrees`` one ``Chain1`` and one
    ``boundary`` dict per ambient chain: the chains of L1 norm at most
    ``degree`` with zero boundary are exactly those ``cycles`` lists."""
    cycles = set(cycles)
    return all((not boundary(g, chain)) == (chain in cycles)
               for chain in signed_chains_up_to_mass(g, degree))


def semigroup_points_up_to_degree(s, bound):
    """All cone lattice points of degree (chain L1 norm) at most ``bound``.

    Enumerated directly from sign-compatible edge coefficients, with no
    reference to the Hilbert basis: an independent oracle.
    """
    g = s.graph
    t, phi = _names(g, s.label)
    free = [e for e in g.edges if e not in t]
    points = []

    def rec(idx, budget, coeffs):
        if idx == len(free):
            c = Chain1(coeffs)
            if is_cycle(g, c):
                points.append(c)
            return
        e = free[idx]
        sign = phi[e]
        for k in range(budget + 1):
            coeffs[e] = sign * k
            rec(idx + 1, budget - k, coeffs)
        coeffs.pop(e, None)

    rec(0, bound, {})
    return points


def irreducible_points_up_to_degree(s, bound):
    """Brute-force irreducible elements among the bounded cone points.

    A nonzero point is irreducible when it is not the sum of two nonzero
    cone points; any decomposition of a point within the bound stays
    within the bound because degree is additive on the cone.
    """
    pts = semigroup_points_up_to_degree(s, bound)
    pt_set = set(pts)
    out = []
    for c in pts:
        if c.is_zero():
            continue
        reducible = any(not y.is_zero() and y != c and (c - y) in pt_set
                        and not (c - y).is_zero() for y in pts)
        if not reducible:
            out.append(c)
    return out


def facets_reference(g, pair):
    """``fan.facets`` with a set of covered edges, a label restricted by
    name and a ``spanning_forest`` per edge off the support, the labels
    sorted by ``sort_key``, in the coordinates of
    ``fundamental_cycle_basis_reference``."""
    t, phi = _names(g, pair)
    basis = fundamental_cycle_basis_reference(delete_edges(g, t))
    circuits = [_circuit_names(g, gamma)[0]
                for gamma in compatible_circuits(g, pair)]
    d = len(basis)
    out = {}
    for e in g.edges:
        if e in t:
            continue
        covered = set()
        for supp in circuits:
            if e not in supp:
                covered |= supp
        label = _label_of(g, frozenset(g.edges) - covered,
                          {f: phi[f] for f in covered})
        if label in out or len(spanning_forest(g, covered)[1]) != d - 1:
            continue
        out[label] = (label, primitive_vector(
            [phi[e] * b.coeff(e) for b in basis.basis]))
    return [out[label] for label in
            sorted(out, key=lambda p: p.sort_key(g))]


def fundamental_cycle_basis_reference(g):
    """Cycle basis from the greedy lowest-edge-id spanning forest, each
    fundamental cycle closed by a breadth-first search of the forest.

    A loop never enters the forest; its fundamental cycle is the loop
    itself with coefficient +1.
    """
    forest, coforest, _ = spanning_forest(g, g.edges)
    adj = {v: [] for v in g.vertices}  # forest adjacency: vertex -> (vertex, edge, dir)
    for e in forest:
        s, t = g.ends(e)
        adj[s].append((t, e, FORWARD))
        adj[t].append((s, e, BACKWARD))

    def forest_path(a, b):
        """Oriented forest edges from a to b (BFS, unique path)."""
        if a == b:
            return []
        prev = {a: None}
        queue = [a]
        while queue:
            v = queue.pop(0)
            for w, e, d in adj[v]:
                if w not in prev:
                    prev[w] = (v, e, d)
                    if w == b:
                        queue = []
                        break
                    queue.append(w)
        path = []
        v = b
        while prev[v] is not None:
            u, e, d = prev[v]
            path.append((e, d))
            v = u
        path.reverse()
        return path

    basis = []
    for f in coforest:
        s, t = g.ends(f)
        oriented = [(f, FORWARD)] + forest_path(t, s)
        basis.append(Chain1(oriented))
    return CycleBasis(g, tuple(forest), tuple(coforest), basis)
