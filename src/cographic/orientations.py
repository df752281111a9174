"""Totally cyclic orientations and their poset.

An orientation of a (sub)graph picks one direction per edge.  It is
totally cyclic when every connected component of the resulting digraph is
strongly connected; a component without edges counts vacuously.  The
elements of the orientation poset are pairs of an edge set T and a totally
cyclic orientation of the complementary spanning subgraph, ordered by
restriction.
"""

import itertools
from dataclasses import dataclass

from .errors import CapacityError
from .graph import FORWARD, BACKWARD, delete_edges, separating_edges

MAX_ORIENTATION_EDGES = 20
MAX_POSET_EDGES = 14


class Orientation:
    """Immutable choice of direction (relative to reference) per edge."""

    __slots__ = ("_d", "_hash")

    def __init__(self, directions=()):
        items = directions.items() if isinstance(directions, dict) else directions
        self._d = dict(items)
        for e, d in self._d.items():
            if d not in (FORWARD, BACKWARD):
                raise ValueError(f"bad direction {d!r} for edge {e!r}")
        self._hash = hash(frozenset(self._d.items()))

    def direction(self, e):
        return self._d[e]

    def oriented_edge(self, e):
        return (e, self._d[e])

    def edges(self):
        return frozenset(self._d)

    def items(self):
        return self._d.items()

    def restrict(self, edges):
        keep = set(edges)
        return Orientation({e: d for e, d in self._d.items() if e in keep})

    def reversed(self):
        return Orientation({e: -d for e, d in self._d.items()})

    def agrees_with(self, other, e):
        return self._d[e] == other._d[e]

    def __len__(self):
        return len(self._d)

    def __eq__(self, other):
        if not isinstance(other, Orientation):
            return NotImplemented
        return self._d == other._d

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ",".join(f"{e}{'+' if d == FORWARD else '-'}"
                        for e, d in sorted(self._d.items()))
        return f"Orientation({body})"

    def to_json(self):
        return {e: ("+" if d == FORWARD else "-")
                for e, d in sorted(self._d.items())}

    @classmethod
    def from_json(cls, obj):
        for e, s in obj.items():
            if s not in ("+", "-"):
                raise ValueError(f"edge {e!r} has direction {s!r}, "
                                 "not '+' or '-'")
        return cls({e: (FORWARD if s == "+" else BACKWARD)
                    for e, s in obj.items()})


EMPTY_ORIENTATION = Orientation()


def is_totally_cyclic(g, phi):
    """Is every component of the oriented graph strongly connected?

    ``phi`` must orient exactly the edges of ``g``; a partial orientation
    is rejected.
    """
    if phi.edges() != frozenset(g.edges):
        raise ValueError("orientation does not cover exactly the edge set")
    out = {v: [] for v in g.vertices}
    inc = {v: [] for v in g.vertices}
    und = {v: [] for v in g.vertices}
    for e in g.edges:
        oe = phi.oriented_edge(e)
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


def enumerate_tco(g):
    """All totally cyclic orientations of g, in canonical order.

    Canonical order is lexicographic over edges in enumeration order with
    forward before backward.  The edgeless graph yields exactly the empty
    orientation; a graph with a separating edge yields nothing.
    """
    m = len(g.edges)
    if m > MAX_ORIENTATION_EDGES:
        raise CapacityError("orientation enumeration edge cap", m,
                            MAX_ORIENTATION_EDGES)
    if m == 0:
        return [EMPTY_ORIENTATION]
    if separating_edges(g):
        return []
    found = []
    for signs in itertools.product((FORWARD, BACKWARD), repeat=m):
        phi = Orientation(zip(g.edges, signs))
        if is_totally_cyclic(g, phi):
            found.append(phi)
    return found


@dataclass(frozen=True)
class TotCycPair:
    """An edge set T together with a totally cyclic orientation of its
    complementary spanning subgraph: the label of one fan cone."""

    support: frozenset
    phi: Orientation

    @classmethod
    def create(cls, g, support, phi):
        support = frozenset(support)
        for e in support:
            g.edge_index(e)
        rest = delete_edges(g, support)
        if not is_totally_cyclic(rest, phi):
            raise ValueError("orientation is not totally cyclic off the support")
        return cls(support, phi)

    def sort_key(self, g):
        t = tuple(sorted(g.edge_index(e) for e in self.support))
        signs = tuple(0 if self.phi.direction(e) == FORWARD else 1
                      for e in g.edges if e not in self.support)
        return (len(self.support), t, signs)

    def to_json(self, g):
        return {"T": list(g.sort_edges(self.support)),
                "phi": self.phi.to_json()}

    def __repr__(self):
        t = ",".join(sorted(self.support))
        return f"TotCycPair(T={{{t}}}, {self.phi!r})"


class OrientationPoset:
    """All pairs (T, phi), ordered by restriction of orientations.

    (T', phi') <= (T, phi) iff T' contains T and phi' is phi restricted.
    The unique minimum is (E, empty); the maximal elements are exactly the
    pairs whose support is the set of separating edges.  That rule makes
    ``maximal_elements`` one pass over the elements, O(n) support
    comparisons, with no pairwise ``leq`` tests.
    """

    def __init__(self, graph, elements):
        self.graph = graph
        self.elements = elements
        self._index = {p: i for i, p in enumerate(elements)}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, pair):
        return pair in self._index

    def index(self, pair):
        return self._index[pair]

    @staticmethod
    def leq(p, q):
        """p <= q in the restriction order."""
        if not p.support >= q.support:
            return False
        return all(p.phi.direction(e) == q.phi.direction(e)
                   for e in p.phi.edges())

    @property
    def minimum(self):
        full = frozenset(self.graph.edges)
        return TotCycPair(full, EMPTY_ORIENTATION)

    def maximal_elements(self):
        """The chambers, in element order.

        Every element's support contains the bridges, since no totally
        cyclic orientation uses one, and every element lies below one whose
        support is exactly the bridges.  So those are the maximal ones.
        """
        sep = frozenset(separating_edges(self.graph))
        return [p for p in self.elements if p.support == sep]


def build_orientation_poset(g):
    """Enumerate every (T, phi) pair of the graph.

    T runs over edge supersets of the separating edges by increasing size;
    ``enumerate_tco`` yields nothing for a subgraph with a leftover bridge.
    """
    m = len(g.edges)
    if m > MAX_POSET_EDGES:
        raise CapacityError("orientation poset edge cap", m, MAX_POSET_EDGES)
    sep = set(separating_edges(g))
    free = [e for e in g.edges if e not in sep]
    elements = []
    for k in range(len(free), -1, -1):
        for kept in itertools.combinations(free, k):
            t = frozenset(g.edges) - frozenset(kept)
            for phi in enumerate_tco(delete_edges(g, t)):
                elements.append(TotCycPair(t, phi))
    elements.sort(key=lambda p: p.sort_key(g))
    return OrientationPoset(g, elements)
