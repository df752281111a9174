"""Totally cyclic orientations and their poset.

An orientation of a (sub)graph picks one direction per edge.  It is
totally cyclic when every connected component of the resulting digraph is
strongly connected; a component without edges counts vacuously.  The
elements of the orientation poset are pairs of an edge set T and a totally
cyclic orientation of the complementary spanning subgraph, ordered by
restriction.

An orientation is totally cyclic exactly when it directs no bond: no
minimal edge cut of the graph has all its edges crossing the same way
(Bjorner, Las Vergnas, Sturmfels, White and Ziegler, *Oriented Matroids*,
ch. 3).  Every total-cyclicity decision here works on that rule, over
edge-index bitmasks: an orientation is the mask of its forward edges.

Cost model.  ``bond_table`` lists the bonds once per graph, one row per
bond with its cut mask and the mask of its edges whose reference
direction leaves the side X that holds the component's first vertex.  It
grows the connected sets X one neighbour at a time and keeps those whose
rest of the component is connected, so it costs a few integer operations
per connected set: C(n, 2) rows for an n-cycle, one for a banana.  The
graph keeps its bridge mask, read off one cycle basis
(``chains.separating_edges``), and the table of its other edges in one
slot (``_bonds``).  Only the orientation rule reads it: the poset walk,
``enumerate_tco`` and ``is_totally_cyclic``, which ``fan``'s facets call;
``enumerate_tco`` returns at once on a graph with a bridge, before the
table.  A support mask is skipped with one AND per bond when a
bond meets it in a single edge, a bridge of the subgraph.  Otherwise its
edges are fixed one at a time, forward before backward, and each bond is
checked with an XOR and an AND as soon as its last edge in the support
is fixed, so a prefix that directs a bond is never extended; no graph is
built per edge subset and no strong-connectivity search runs.  The
poset stores each element as its ``TotCycPair``, a named pair of ints:
T's mask and the forward mask, already in ``sort_key`` order.  ``leq``,
``minimum``, ``maximal_elements`` and the index are integer operations
on those masks; edge names are read only where a label enters
(``TotCycPair.create``) or leaves (``to_json``, or ``label_texts`` and
``phi_texts`` for many as JSON text).  ``is_totally_cyclic`` checks one
given label with one AND against the bridges and one XOR and one AND
per row, and builds no graph.
"""

import itertools
from functools import cached_property
from typing import NamedTuple

from .errors import CapacityError
from .chains import separating_edges
from .jsontext import dumps

MAX_ORIENTATION_EDGES = 20
MAX_POSET_EDGES = 14


def bond_table(g, edges):
    """One row ``(cut, out)`` per bond of the spanning subgraph on ``edges``.

    Bits are edge indices of g.  A bond is the cut between a connected
    vertex set X and the connected rest of its component; X runs over the
    sets that contain the component's first vertex, so each bond appears
    once.  ``cut`` has the non-loop edges with one end in X and ``out``
    those of them whose reference direction leaves X.  The connected sets
    are grown one neighbour at a time, never scanned among all subsets.
    """
    n = len(g.vertices)
    nbr = [0] * n      # vertex bitmask of neighbours
    inc = [0] * n      # edge bitmask of incident non-loop edges
    leave = [0] * n    # edge bitmask of non-loop edges starting here
    for e in edges:
        a, b = (g.vertex_index(v) for v in g.ends(e))
        if a != b:
            bit = 1 << g.edge_index(e)
            nbr[a] |= 1 << b
            nbr[b] |= 1 << a
            inc[a] |= bit
            inc[b] |= bit
            leave[a] |= bit

    def reach(start, within):
        seen = frontier = start
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = nbr[low.bit_length() - 1] & within & ~seen
            seen |= new
            frontier |= new
        return seen

    rows = []

    def grow(x, ext, excl, cut, out):
        # Every connected set that contains x and misses excl, where ext
        # is the neighbourhood of x off x and excl.
        rest = component & ~x
        if rest and reach(rest & -rest, rest) == rest:
            rows.append((cut, out & cut))
        while ext:
            low = ext & -ext
            ext ^= low
            v = low.bit_length() - 1
            grow(x | low, (ext | nbr[v]) & ~(x | low | excl), excl,
                 cut ^ inc[v], out | leave[v])
            excl |= low

    done = 0
    for v in range(n):
        if not done >> v & 1:
            component = reach(1 << v, ~0)
            done |= component
            grow(1 << v, nbr[v], 0, inc[v], leave[v])
    return rows


def _bonds(g):
    """The bridge mask of g and the ``bond_table`` rows of its other
    edges, built on first use and kept on the graph; a forest has none."""
    if g._bonds is None:
        bridges = g.edge_mask(separating_edges(g))
        free = g.edges_of(~bridges)
        g._bonds = (bridges, bond_table(g, free) if free else [])
    return g._bonds


def is_totally_cyclic(g, support, forward):
    """Does the forward-edge mask ``forward`` give a totally cyclic
    orientation of the spanning subgraph off the edge mask ``support``?

    It does when it directs no bond of that subgraph.  The subgraph must
    avoid g's bridges; then each of its bonds is what some row of g's
    table (``_bonds``) meets it in, so no row may meet it in one edge or
    cross it one way only.  Bits of ``forward`` inside ``support`` are
    ignored.
    """
    bridges, rows = _bonds(g)
    if bridges & ~support:
        return False
    for cut, out in rows:
        c = cut & ~support
        x = (forward ^ out) & c
        if c and (not x or x == c):
            return False
    return True


def _forward_masks(bonds, support):
    """Forward-edge bitmasks of the totally cyclic orientations of the
    spanning subgraph on the edge bitmask ``support``, in canonical order.

    Such an orientation directs no bond: every bond meeting the support
    meets it in edges crossing both ways.  So a bond meeting the support
    in one edge (a bridge of the subgraph) rules it out, and otherwise the
    edges are fixed one at a time, forward before backward, each bond
    being checked as soon as its last edge in the support is fixed.
    """
    checks = {}
    for cut, out in bonds:
        c = cut & support
        if c:
            if not c & (c - 1):
                return []
            checks.setdefault(c.bit_length() - 1, []).append((c, out & c))
    level = [0]
    bit = 1
    while bit <= support:
        if support & bit:
            rows = checks.get(bit.bit_length() - 1, ())
            grown = []
            for f in level:
                for h in (f | bit, f):
                    for c, o in rows:
                        x = (h ^ o) & c
                        if not x or x == c:
                            break
                    else:
                        grown.append(h)
            level = grown
        bit <<= 1
    return level


def enumerate_tco(g):
    """The forward-edge bitmasks of all totally cyclic orientations of g,
    in canonical order.

    Canonical order is lexicographic over edges in enumeration order with
    forward before backward.  The edgeless graph yields exactly the empty
    orientation, mask 0; a graph with a separating edge yields nothing.
    """
    m = len(g.edges)
    if m > MAX_ORIENTATION_EDGES:
        raise CapacityError("orientation enumeration edge cap", m,
                            MAX_ORIENTATION_EDGES)
    if separating_edges(g):
        return []
    return _forward_masks(_bonds(g)[1], (1 << m) - 1)


class TotCycPair(NamedTuple):
    """An edge set T together with a totally cyclic orientation phi of its
    complementary spanning subgraph: the label of one fan cone.

    Both are edge-index bitmasks of the graph: ``support`` holds T and
    ``forward`` the edges off T that phi runs in their reference direction.
    """

    support: int
    forward: int

    @classmethod
    def create(cls, g, support, forward_edges):
        """The label of the edge ids ``support`` and the orientation of
        the rest that runs the edge ids ``forward_edges`` in their
        reference direction and the others against it, checked to be
        totally cyclic."""
        support = g.edge_mask(support)
        forward = g.edge_mask(forward_edges)
        if support & forward:
            raise ValueError("forward edges lie in the support")
        if not is_totally_cyclic(g, support, forward):
            raise ValueError("orientation is not totally cyclic off the support")
        return cls(support, forward)

    def sort_key(self, g):
        """The size of T, its edge indices, then one sign per edge off T in
        index order, 0 for forward and 1 for backward."""
        support, forward = self
        m = len(g.edges)
        return (support.bit_count(),
                tuple(i for i in range(m) if support >> i & 1),
                tuple(0 if forward >> i & 1 else 1
                      for i in range(m) if not support >> i & 1))

    def to_json(self, g):
        """T in edge-index order and phi sorted by edge id."""
        support, forward = self
        return {"T": list(g.edges_of(support)),
                "phi": {e: "+" if forward >> g.edge_index(e) & 1 else "-"
                        for e in sorted(g.edges_of(~support))}}


def phi_texts(g, support, forwards):
    """``jsontext.dumps`` of phi, the sign of each edge off ``support`` by
    id, for each forward mask of ``forwards``: one pick per edge."""
    signs = [(dumps(e) + ':"+"', dumps(e) + ':"-"', 1 << g.edge_index(e))
             for e in sorted(g.edges_of(~support))]
    for forward in forwards:
        yield "{" + ",".join([plus if forward & bit else minus
                              for plus, minus, bit in signs]) + "}"


def label_texts(g, pairs):
    """``jsontext.dumps(pair.to_json(g))`` for each label of ``pairs``, in
    order, with T and the ``phi_texts`` pieces encoded once per run of
    labels with one support, the order the poset lists them in."""
    for support, run in itertools.groupby(pairs, lambda p: p.support):
        head = '{"T":' + dumps(list(g.edges_of(support))) + ',"phi":'
        for phi in phi_texts(g, support, [pair.forward for pair in run]):
            yield head + phi + "}"


class OrientationPoset:
    """All pairs (T, phi), ordered by restriction of orientations.

    (T', phi') <= (T, phi) iff T' contains T and phi' is phi restricted.
    The unique minimum is (E, empty); the maximal elements are exactly the
    pairs whose support is the set of separating edges.  That rule makes
    ``maximal_elements`` one pass over the elements, O(n) integer
    comparisons, with no pairwise ``leq`` tests.

    ``elements`` lists the labels in ``sort_key`` order; membership and
    ``Fan.to_json``'s facet order read ``_index``, one dict built from it
    on first use.
    """

    def __init__(self, graph, elements):
        self.graph = graph
        self.elements = elements

    @cached_property
    def _index(self):
        return {p: i for i, p in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, pair):
        return pair in self._index

    @staticmethod
    def leq(p, q):
        """p <= q in the restriction order."""
        return (p.support & q.support == q.support
                and p.forward == q.forward & ~p.support)

    @property
    def minimum(self):
        return TotCycPair((1 << len(self.graph.edges)) - 1, 0)

    def maximal_elements(self):
        """The chambers, in element order.

        Every element's support contains the bridges, since no totally
        cyclic orientation uses one, and every element lies below one whose
        support is exactly the bridges.  So those are the maximal ones.
        """
        bridges = _bonds(self.graph)[0]
        return [p for p in self.elements if p.support == bridges]


def build_orientation_poset(g):
    """Enumerate every (T, phi) pair of the graph, in ``sort_key`` order.

    T runs over edge supersets of the separating edges by increasing size
    and then lexicographically, which is ``sort_key`` order because every
    T holds the same separating edges; ``_forward_masks`` yields each
    complement's orientations in canonical order, or none when the
    complement has a bridge.
    """
    m = len(g.edges)
    if m > MAX_POSET_EDGES:
        raise CapacityError("orientation poset edge cap", m, MAX_POSET_EDGES)
    bridges, rows = _bonds(g)
    free = g.edges_of(~bridges)
    full = (1 << m) - 1
    # tuple.__new__ costs about a third of the generated NamedTuple
    # __new__, paid once per element
    new = tuple.__new__
    elements = []
    for k in range(len(free) + 1):
        for t in itertools.combinations(free, k):
            support = bridges | g.edge_mask(t)
            elements += [new(TotCycPair, (support, f))
                         for f in _forward_masks(rows, full ^ support)]
    return OrientationPoset(g, elements)
