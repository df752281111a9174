"""When do two graphs share the same ring?

Exactly when their 3-edge connectivizations are cyclically equivalent:
contract every bridge, then repeatedly contract one member of each
separating pair, and compare the circuit hypergraphs up to an edge
bijection.  The connectivization is not unique but its cyclic equivalence
class is, so any deterministic tie-break works; this one always contracts
the lowest-id member.
"""

import itertools

from .circuits import _circuit_table, hypergraph_bijection
from .errors import CapacityError
from .graph import betti1, contract_edge, separating_edges, spanning_forest
from .orientations import MAX_POSET_EDGES


def two_edge_cuts(g):
    """Unordered pairs of individually non-separating edges whose joint
    removal disconnects the graph, in lexicographic edge-index order.
    Loops never participate.

    Deleting a non-bridge lowers the first Betti number by one, and
    deleting a second one lowers it by one more unless the pair
    separates; so a pair is a cut exactly when the two deletions lower it
    by one in all."""
    bridges = set(separating_edges(g))
    candidates = [e for e in g.edges if not g.is_loop(e) and e not in bridges]
    base = betti1(g)
    cuts = []
    for e, f in itertools.combinations(candidates, 2):
        rest = [h for h in g.edges if h != e and h != f]
        if len(spanning_forest(g, rest)[1]) == base - 1:
            cuts.append((e, f))
    return cuts


def three_edge_connectivization(g):
    """Contract all bridges, then one member of each separating pair.

    Contracting a bridge keeps the other bridges and makes no new one, so
    the bridges of g are contracted in one pass, in canonical order.  The
    lowest-id member of the lexicographically first pair goes each round;
    pair members are never loops, so contraction is always legal.  The
    result has no bridges and no separating pairs, and the first Betti
    number is preserved throughout.
    """
    if len(g.edges) > MAX_POSET_EDGES:
        raise CapacityError("connectivization edge cap", len(g.edges),
                            MAX_POSET_EDGES)
    for e in separating_edges(g):
        g = contract_edge(g, e)
    while True:
        cuts = two_edge_cuts(g)
        if not cuts:
            break
        g = contract_edge(g, cuts[0][0])
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
