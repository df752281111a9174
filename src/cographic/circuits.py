"""Oriented circuits, concordance, and cycle decomposition.

A circuit is a connected bridge-free subgraph with first Betti number one
(a single closed walk without repeated vertices: a loop, a pair of
parallel edges, or a longer simple cycle).  Each circuit carries exactly
two coherent orientations; a circuit together with one of them is an
oriented circuit, and its class is the corresponding 0/+-1 cycle.

Every integer cycle decomposes as a nonnegative combination of oriented
circuits supported on it and concordant with its signs; the decomposition
implemented here is the greedy one (peel a lowest-edge-id directed cycle,
subtract as much of it as possible, repeat) and is deterministic though
not canonical: only the re-summed total is unique.

An oriented circuit is two edge-index bitmasks: its support and the
support edges it runs forward, as a signed circuit is its support and
positive part.  Concordance is one XOR and two ANDs, and edge names are
read only where a circuit leaves as JSON, a ``Chain1`` or an edge set.

Cost model.  Listing the circuit supports walks every vertex-simple path
from each anchor edge, which is exponential in the worst case; the walk
carries the two masks and allocates no set or dict per circuit.
``compatible_circuits`` never walks: the first call on a graph lists the
circuits once into a table kept on the graph, one row per support with
its support mask, the forward mask of its walk and both orientations,
prebuilt.  A label is already a pair of masks, so each call costs a few
integer operations per row and allocates nothing but the result list.

``hypergraph_bijection`` decides whether two families of edge sets agree
up to an edge bijection.  It serves the ring-equivalence decision
(circuit supports of two graphs).  The chamber classes of
``semigroup.chamber_classes`` (directed circuit supports of two
chambers) share its backtracking, ``_find_bijection``, but prepare each
side once: a chamber's edge profiles and search plan, and a
representative's candidate lists and target sets, serve every search
that chamber or representative takes part in.
"""

from typing import NamedTuple

from .chains import Chain1, canonical_form, is_cycle
from .errors import CapacityError
from .graph import FORWARD
from .orientations import MAX_ORIENTATION_EDGES


class OrientedCircuit(NamedTuple):
    """A circuit with one of its two coherent orientations, as edge-index
    bitmasks of the graph: ``support`` holds the circuit's edges and
    ``forward`` those of them it runs in their reference direction.
    """

    support: int
    forward: int

    def reversal(self):
        return OrientedCircuit(self.support, self.support ^ self.forward)

    def sort_key(self, g):
        """The edge indices, then 0 if the lowest edge runs forward, else 1."""
        support, forward = self
        edges = tuple(i for i in range(len(g.edges)) if support >> i & 1)
        return (edges, 0 if forward >> edges[0] & 1 else 1)

    def to_json(self, g):
        """Each edge id in edge-index order, signed by its direction."""
        support, forward = self
        return [f"{e}{'+' if forward >> i & 1 else '-'}"
                for i, e in enumerate(g.edges) if support >> i & 1]


def circuit_class(g, gamma):
    """The 0/+-1 cycle of an oriented circuit of g."""
    support, forward = gamma
    return Chain1({e: 1 if forward >> i & 1 else -1
                   for i, e in enumerate(g.edges) if support >> i & 1})


def concordant(gamma, delta):
    """Do the two circuits agree in direction on every shared edge?"""
    return not (gamma.forward ^ delta.forward) & gamma.support & delta.support


def _circuit_supports(g):
    """All circuits of g, each once as its (support, forward) edge masks:
    loops plus vertex-simple closed walks.

    Each non-loop circuit is anchored at its lowest edge, traversed in the
    reference direction, so every support is produced exactly once.  The
    walk direction also hands us one of the two coherent orientations,
    whose forward mask is the edges the walk runs in their reference
    direction.  The visited set alone keeps a walk simple: stepping back
    along a path edge reaches a visited vertex other than ``start``.
    Every circuit consumer comes here, so this caps the exponential walk.
    """
    if len(g.edges) > MAX_ORIENTATION_EDGES:
        raise CapacityError("circuit enumeration edge cap",
                            len(g.edges), MAX_ORIENTATION_EDGES)
    incidence = {v: [] for v in g.vertices}
    for i, e in enumerate(g.edges):
        s, t = g.ends(e)
        if s != t:
            incidence[s].append((i, t, 1 << i))
            incidence[t].append((i, s, 0))
    found = []
    for a_idx, anchor in enumerate(g.edges):
        start, cur = g.ends(anchor)
        bit = 1 << a_idx
        if start == cur:
            found.append((bit, bit))
            continue

        def walk(vertex, visited, support, forward):
            for i, other, fwd in incidence[vertex]:
                if i <= a_idx:
                    continue
                if other == start:
                    found.append((support | 1 << i, forward | fwd))
                elif other not in visited:
                    walk(other, visited | {other}, support | 1 << i,
                         forward | fwd)

        walk(cur, {start, cur}, bit, bit)
    return found


def enumerate_oriented_circuits(g):
    """All oriented circuits of g in canonical order.

    Every support contributes its two coherent orientations, so the count
    is even; a loop contributes two single-edge circuits.  A table row's
    circuit runs its lowest edge forward, so it sorts before its reversal.
    """
    return [c for _, _, gamma, reversal in _circuit_table(g)
            for c in (gamma, reversal)]


def _circuit_table(g):
    """Every circuit of g once, as rows (support mask, forward mask,
    circuit, reversal).

    Bit i of a mask stands for the edge of index i.  ``circuit`` is the
    walk of ``_circuit_supports``, which runs the lowest edge forward, and
    both orientations are built here once per graph.  Rows are in
    canonical order (sorted edge-index tuple, not integer mask order),
    which is the ``sort_key`` order of any selection holding at most one
    orientation per support.  Built on first use and kept on the graph.
    """
    table = g._circuit_table
    if table is None:
        walks = [OrientedCircuit(*masks) for masks in _circuit_supports(g)]
        walks.sort(key=lambda gamma: gamma.sort_key(g))
        table = g._circuit_table = [(*gamma, gamma, gamma.reversal())
                                    for gamma in walks]
    return table


def compatible_circuits(g, pair):
    """Circuits supported off the label's T and oriented by its phi.

    Exactly one orientation per qualifying support survives, namely the
    restriction of phi; the result is nonempty as soon as the complement
    of the support has an edge.  phi orients every edge off T, so a
    support qualifies when it avoids T and phi's forward edges on it are
    the walk's forward edges (the walk) or the rest of the support (its
    reversal).
    """
    blocked, forward = pair
    out = []
    for supp, fwd, gamma, reversal in _circuit_table(g):
        if supp & blocked:
            continue
        signs = forward & supp
        if signs == fwd:
            out.append(gamma)
        elif signs == supp ^ fwd:
            out.append(reversal)
    return out


def decompose_cycle(g, c):
    """Write the cycle c as a nonnegative sum of concordant circuit classes.

    Returns a list of (circuit, multiplicity) pairs in canonical circuit
    order whose weighted sum is exactly c.  Each circuit is compatible
    with the sign pattern of c and supported on it.  The particular
    decomposition is the deterministic greedy one; callers should rely
    only on the re-sum identity.
    """
    if not is_cycle(g, c):
        raise ValueError("decompose_cycle needs a cycle (zero boundary)")
    remaining = c
    counts = {}
    while not remaining.is_zero():
        gamma = _lowest_directed_cycle(g, remaining)
        m = min(abs(remaining.coeff(e)) for e in g.edges_of(gamma.support))
        counts[gamma] = counts.get(gamma, 0) + m
        remaining = remaining - m * circuit_class(g, gamma)
    return sorted(counts.items(), key=lambda item: item[0].sort_key(g))


def _lowest_directed_cycle(g, c):
    """Deterministic directed cycle in the sign-orientation of supp(c).

    Walk from the lowest-id support edge, always leaving along the
    lowest-id available edge; the first repeated vertex closes a simple
    directed cycle.  One exists because c has zero boundary.
    """
    support, phi, _ = canonical_form(g, c)
    outgoing = {}
    for e in support:
        oe = (e, phi[e])
        outgoing.setdefault(g.source(oe), []).append((g.edge_index(e), e, g.target(oe)))
    for v in outgoing:
        outgoing[v].sort()
    first = support[0]
    v = g.source((first, phi[first]))
    path = []          # (edge, vertex it leads to)
    seen = {v: 0}
    while True:
        _, e, w = outgoing[v][0]
        path.append((e, w))
        if w in seen:
            start = seen[w]
            cycle_edges = [e for e, _ in path[start:]]
            return OrientedCircuit(
                g.edge_mask(cycle_edges),
                g.edge_mask(e for e in cycle_edges if phi[e] == FORWARD))
        seen[w] = len(path)
        v = w


def _edge_profiles(edges, sets):
    """Each edge's profile: the sorted sizes of the sets through it."""
    sizes = {e: [] for e in edges}
    for s in sets:
        for e in s:
            sizes[e].append(len(s))
    return {e: tuple(sorted(n)) for e, n in sizes.items()}


def _search_plan(edges, sets, profiles):
    """The order ``_find_bijection`` maps the edges in, most constrained
    first (rarest profile, then ``edges`` order), each edge's profile in
    that order, and for each position the sets whose last edge in that
    order sits there."""
    counts = {}
    for p in profiles.values():
        counts[p] = counts.get(p, 0) + 1
    order = sorted(edges, key=lambda e: counts[profiles[e]])
    position = {e: k for k, e in enumerate(order)}
    completes = [[] for _ in order]
    for s in sets:
        if s:
            completes[max(map(position.get, s))].append(s)
    return order, [profiles[e] for e in order], completes


def _candidates(edges, profiles):
    """The edges of each profile, in ``edges`` order."""
    candidates = {}
    for f in edges:
        candidates.setdefault(profiles[f], []).append(f)
    return candidates


def _find_bijection(plan, candidates, targets):
    """Backtracking along a ``_search_plan``: each edge goes to the first
    unused candidate of its profile, and a set is checked against the
    frozensets ``targets`` once, when the last of its edges is mapped.
    The two sides must have the same sorted profiles.  Returns the edge
    mapping or None."""
    order, wanted, completes = plan
    mapping = {}
    used = set()

    def extend(k):
        if k == len(order):
            return True
        e = order[k]
        for f in candidates[wanted[k]]:
            if f in used:
                continue
            mapping[e] = f
            if all(frozenset(map(mapping.get, s)) in targets
                   for s in completes[k]):
                used.add(f)
                if extend(k + 1):
                    return True
                used.discard(f)
        mapping.pop(e, None)
        return False

    return mapping if extend(0) else None


def hypergraph_bijection(edges_a, sets_a, edges_b, sets_b):
    """An edge bijection carrying every set of ``sets_a`` onto a set of
    ``sets_b``, as a dict from ``edges_a`` to ``edges_b``, or None.

    Backtracking (``_find_bijection``), pruned by the multisets of set
    sizes and by each edge's profile of set sizes through it.  Edges are
    mapped most constrained first (rarest profile, then ``edges_a``
    order), each to the first unused edge of ``edges_b`` with its
    profile.  A set is checked once, when the last of its edges in that
    order is mapped.
    """
    if len(edges_a) != len(edges_b) or \
            sorted(map(len, sets_a)) != sorted(map(len, sets_b)):
        return None
    pa = _edge_profiles(edges_a, sets_a)
    pb = _edge_profiles(edges_b, sets_b)
    if sorted(pa.values()) != sorted(pb.values()):
        return None
    return _find_bijection(_search_plan(edges_a, sets_a, pa),
                           _candidates(edges_b, pb),
                           set(map(frozenset, sets_b)))
