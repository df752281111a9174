"""When do two graphs share the same ring?

Exactly when their 3-edge connectivizations are cyclically equivalent:
contract every bridge, then repeatedly contract one member of each
separating pair, and compare the circuit hypergraphs up to an edge
bijection.  The connectivization is not unique but its cyclic equivalence
class is, so any deterministic tie-break works; this one always contracts
the lowest-id member.
"""

import itertools

from .circuits import _circuit_supports
from .errors import CapacityError
from .graph import (connected_components, contract_edge, delete_edges,
                    separating_edges)
from .orientations import MAX_POSET_EDGES


def two_edge_cuts(g):
    """Unordered pairs of individually non-separating edges whose joint
    removal disconnects the graph.  Loops never participate."""
    bridges = set(separating_edges(g))
    candidates = [e for e in g.edges if not g.is_loop(e) and e not in bridges]
    base = len(connected_components(g))
    cuts = []
    for e, f in itertools.combinations(candidates, 2):
        if len(connected_components(delete_edges(g, (e, f)))) > base:
            cuts.append((e, f))
    return cuts


def three_edge_connectivization(g):
    """Contract all bridges, then one member of each separating pair.

    The lowest-id member of the lexicographically first pair goes each
    round; pair members are never loops, so contraction is always legal.
    The result has no bridges and no separating pairs, and the first Betti
    number is preserved throughout.
    """
    if len(g.edges) > MAX_POSET_EDGES:
        raise CapacityError("connectivization edge cap", len(g.edges),
                            MAX_POSET_EDGES)
    while True:
        bridges = separating_edges(g)
        if not bridges:
            break
        g = contract_edge(g, bridges[0])
    while True:
        cuts = two_edge_cuts(g)
        if not cuts:
            break
        pair = min(cuts, key=lambda c: (g.edge_index(c[0]), g.edge_index(c[1])))
        g = contract_edge(g, pair[0])
    return g


def circuit_supports(g):
    """The circuit hypergraph: all circuit edge sets, as frozensets, in
    canonical order (sorted edge-index tuple).  Read off the circuit walk,
    which yields each support once, without building oriented circuits."""
    supports = [frozenset(edges) for edges, _ in _circuit_supports(g)]
    return sorted(supports, key=lambda s: sorted(map(g.edge_index, s)))


def cyclically_equivalent(g, h):
    """Is there an edge bijection carrying circuits onto circuits?

    Backtracking over candidate bijections, pruned by circuit-size
    multisets and by each edge's profile of circuit sizes through it.
    """
    if len(g.edges) != len(h.edges):
        return False
    if len(g.edges) > MAX_POSET_EDGES:
        raise CapacityError("cyclic equivalence edge cap",
                            len(g.edges), MAX_POSET_EDGES)
    gc = circuit_supports(g)
    hc = circuit_supports(h)
    if sorted(map(len, gc)) != sorted(map(len, hc)):
        return False
    hc_set = set(hc)

    def profile(edges, circuits):
        return {e: tuple(sorted(len(s) for s in circuits if e in s))
                for e in edges}

    gp = profile(g.edges, gc)
    hp = profile(h.edges, hc)
    if sorted(gp.values()) != sorted(hp.values()):
        return False

    # most-constrained-first: rarest profile, then canonical order
    rarity = {}
    for p in hp.values():
        rarity[p] = rarity.get(p, 0) + 1
    g_order = sorted(g.edges, key=lambda e: (rarity.get(gp[e], 0),
                                             g.edge_index(e)))

    mapping = {}
    used = set()

    def complete_circuits_ok():
        domain = set(mapping)
        for s in gc:
            if s <= domain:
                if frozenset(mapping[e] for e in s) not in hc_set:
                    return False
        return True

    def extend(k):
        if k == len(g_order):
            return True
        e = g_order[k]
        for f in h.edges:
            if f in used or hp[f] != gp[e]:
                continue
            mapping[e] = f
            used.add(f)
            if complete_circuits_ok() and extend(k + 1):
                return True
            del mapping[e]
            used.discard(f)
        return False

    return extend(0)


def same_cographic_ring(g, h):
    """Torelli-style decision: connectivize both graphs and compare the
    circuit hypergraphs up to bijection."""
    return cyclically_equivalent(three_edge_connectivization(g),
                                 three_edge_connectivization(h))
