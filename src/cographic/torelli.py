"""When do two graphs share the same ring?

Exactly when their 3-edge connectivizations are cyclically equivalent:
contract every bridge and all but one edge of each class of pairwise
separating edges, and compare the circuit hypergraphs up to an edge
bijection.  The connectivization is not unique but its cyclic equivalence
class is, so any deterministic tie-break works; this one keeps the last
edge of each class.  Bridges and classes are read off one cycle basis
(``CycleBasis.series_classes``).
"""

from itertools import combinations

from .chains import cone_basis
from .circuits import _circuit_table, hypergraph_bijection
from .errors import CapacityError
from .graph import contract_edge
from .orientations import MAX_POSET_EDGES


def two_edge_cuts(g):
    """Unordered pairs of individually non-separating edges whose joint
    removal disconnects the graph, in lexicographic edge-index order.
    Loops never participate.

    Two such edges lie on the same cycles, so the pairs are those inside
    each class of ``series_classes``."""
    pairs = [pair for c in cone_basis(g, 0).series_classes()
             for pair in combinations(c, 2)]
    return sorted(pairs, key=lambda p: (g.edge_index(p[0]),
                                        g.edge_index(p[1])))


def three_edge_connectivization(g):
    """Contract every edge except the last edge of its class of
    ``series_classes``; bridges have no class, so all of them go.

    A cut of G/e is a cut of G that avoids e, so contraction makes no new
    bridge or separating pair, and one pass leaves none.  A cycle meets
    each class in all of its edges or in none, so the contracted edges
    form a forest and none becomes a loop.  A merge keeps the
    lower-ordered vertex in any order of contraction.  The first Betti
    number is preserved.
    """
    if len(g.edges) > MAX_POSET_EDGES:
        raise CapacityError("connectivization edge cap", len(g.edges),
                            MAX_POSET_EDGES)
    kept = {c[-1] for c in cone_basis(g, 0).series_classes()}
    for e in [e for e in g.edges if e not in kept]:
        g = contract_edge(g, e)
    return g


def circuit_supports(g):
    """The circuit hypergraph: every circuit's edge ids in edge order, in
    canonical order (sorted edge-index tuple).  Read off the support
    masks of the circuit table, which holds each support once."""
    return [g.edges_of(supp) for supp, _, _, _ in _circuit_table(g)]


def cyclically_equivalent(g, h):
    """Is there an edge bijection carrying circuits onto circuits?

    ``hypergraph_bijection`` on the two circuit hypergraphs.
    """
    if len(g.edges) != len(h.edges):
        return False
    if len(g.edges) > MAX_POSET_EDGES:
        raise CapacityError("cyclic equivalence edge cap",
                            len(g.edges), MAX_POSET_EDGES)
    return hypergraph_bijection(g.edges, circuit_supports(g),
                                h.edges, circuit_supports(h)) is not None


def same_cographic_ring(g, h):
    """Torelli-style decision: connectivize both graphs and compare the
    circuit hypergraphs up to bijection."""
    return cyclically_equivalent(three_edge_connectivization(g),
                                 three_edge_connectivization(h))
