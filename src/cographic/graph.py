"""Serre-style finite multigraphs.

A graph is a set of vertices and a set of edges, each edge carrying two
oriented versions swapped by an involution.  Loops and parallel edges are
allowed.  Edge ids are user-supplied strings; the direction given at
construction time is the *reference orientation* of the edge, and every
chain coordinate elsewhere in the package is relative to it.

Vertex and edge enumeration order is the order of first appearance in the
construction data.  That order is total, stable, and reproduced exactly by
re-parsing serialized output, which is what makes every downstream
enumeration deterministic.

Graphs are immutable after construction; all operations return new graphs.

Every undirected connectivity question is read off one greedy spanning
forest (``spanning_forest``, one union-find pass over the edges): the
first Betti number is the size of the coforest, and two vertices are
joined by a path exactly when they share a root.  Separating edges are
read off the fundamental cycles of that forest: bridges by
``chains.separating_edges`` and separating pairs by
``CycleBasis.series_classes``, one pass over the basis columns each.
"""

from .errors import GraphParseError

FORWARD = 1
BACKWARD = -1


class Graph:
    """Finite multigraph with a reference orientation per edge.

    An oriented edge is a pair ``(edge_id, FORWARD)`` or
    ``(edge_id, BACKWARD)``; the involution flips the sign.
    """

    __slots__ = ("vertices", "edges", "_ends", "_vindex", "_eindex", "_hash",
                 "_circuit_table", "_bonds", "_cone_basis")

    def __init__(self, vertices, edges, ends):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self._ends = dict(ends)  # edge id -> (source, target) of e-forward
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self._eindex = {e: i for i, e in enumerate(self.edges)}
        if len(self._vindex) != len(self.vertices):
            raise ValueError("duplicate vertex id")
        if len(self._eindex) != len(self.edges):
            raise ValueError("duplicate edge id")
        for e in self.edges:
            s, t = self._ends[e]
            if s not in self._vindex or t not in self._vindex:
                raise ValueError(f"edge {e!r} references an unknown vertex")
        self._hash = hash((self.vertices, self.edges,
                           tuple(self._ends[e] for e in self.edges)))
        # Tables filled on first use.  A graph never changes, so they never
        # go stale, and racing threads build equal ones.  ``cone_basis``
        # keeps (support, basis) of its last call, which a racing thread
        # may replace but never corrupt.
        self._circuit_table = self._bonds = self._cone_basis = None

    # -- basic accessors -------------------------------------------------

    def ends(self, e):
        """(source, target) of the reference orientation of edge e."""
        return self._ends[e]

    def source(self, oriented_edge):
        e, d = oriented_edge
        s, t = self._ends[e]
        return s if d == FORWARD else t

    def target(self, oriented_edge):
        e, d = oriented_edge
        s, t = self._ends[e]
        return t if d == FORWARD else s

    def is_loop(self, e):
        s, t = self._ends[e]
        return s == t

    def edge_index(self, e):
        if e not in self._eindex:
            raise ValueError(f"unknown edge id {e!r}")
        return self._eindex[e]

    def vertex_index(self, v):
        return self._vindex[v]

    def sort_edges(self, subset):
        """The given edge ids in canonical (enumeration) order."""
        return tuple(sorted(subset, key=self.edge_index))

    def edge_mask(self, subset):
        """The given edge ids as a bitmask: bit i for the edge of index i."""
        mask = 0
        for e in subset:
            mask |= 1 << self.edge_index(e)
        return mask

    def edges_of(self, mask):
        """The edge ids of a bitmask in canonical order, the inverse of
        ``edge_mask``; ``~mask`` gives the edges off it."""
        return tuple(e for i, e in enumerate(self.edges) if mask >> i & 1)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.vertices == other.vertices and self.edges == other.edges
                and all(self._ends[e] == other._ends[e] for e in self.edges))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def from_edge_list(spec, vertices=()):
    """Build a graph from ``(edge_id, source, target)`` triples.

    Vertices may be pre-declared through ``vertices`` (for isolated ones
    or to pin the enumeration order); any endpoint not yet seen is
    appended in order of first appearance.  Duplicate edge ids are
    rejected.  An empty spec yields the empty graph.
    """
    vorder = []
    seen = set()
    for v in vertices:
        if v not in seen:
            seen.add(v)
            vorder.append(v)
    eorder = []
    ends = {}
    for e, s, t in spec:
        if not isinstance(e, str):
            raise ValueError(f"edge id must be a string, got {e!r}")
        if e in ends:
            raise ValueError(f"duplicate edge id {e!r}")
        for v in (s, t):
            if v not in seen:
                seen.add(v)
                vorder.append(v)
        eorder.append(e)
        ends[e] = (s, t)
    return Graph(vorder, eorder, ends)


def delete_edges(g, subset):
    """The spanning subgraph with the given edges removed."""
    drop = set(subset)
    for e in drop:
        g.edge_index(e)  # raises on unknown ids
    kept = [e for e in g.edges if e not in drop]
    return Graph(g.vertices, kept, {e: g.ends(e) for e in kept})


def contract_edge(g, e):
    """Identify the endpoints of a non-loop edge e and remove it.

    The merged vertex keeps the lower-ordered of the two ids.  All other
    edges survive, so parallel edges may become loops.  The first Betti
    number is preserved.
    """
    if g.is_loop(e):
        raise ValueError(f"cannot contract loop {e!r}")
    s, t = g.ends(e)
    keep, drop = (s, t) if g.vertex_index(s) < g.vertex_index(t) else (t, s)
    vmap = {v: (keep if v == drop else v) for v in g.vertices}
    kept = [f for f in g.edges if f != e]
    ends = {f: (vmap[g.ends(f)[0]], vmap[g.ends(f)[1]]) for f in kept}
    return Graph([v for v in g.vertices if v != drop], kept, ends)


def spanning_forest(g, edges):
    """Greedy spanning forest of the spanning subgraph on ``edges``.

    Edges are taken in the order given, so canonical order yields the
    lowest-edge-index forest.  Returns ``(forest, coforest, root)``: the
    edges that joined two components, the rest (loops included), and a
    function from each vertex of g to a representative of its component.
    """
    parent = {}

    def find(v):
        while v in parent:
            v = parent[v]
        return v

    forest = []
    coforest = []
    for e in edges:
        s, t = map(find, g.ends(e))
        if s != t:
            parent[s] = t
            forest.append(e)
        else:
            coforest.append(e)
    return forest, coforest, find


def betti1(g):
    """First Betti number: |E| - |V| + number of components, which is the
    size of the coforest."""
    return len(spanning_forest(g, g.edges)[1])


# -- text format --------------------------------------------------------
#
# One graph per file.  Lines are either
#     vertex <id>
#     edge <id> <source> <target>
# with '#' comments and blank lines ignored.


def parse_graph_text(text):
    vertices = []
    spec = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise GraphParseError("expected 'vertex <id>'", lineno)
            vertices.append(parts[1])
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise GraphParseError("expected 'edge <id> <src> <tgt>'", lineno)
            spec.append((parts[1], parts[2], parts[3]))
        else:
            raise GraphParseError(f"unknown directive {parts[0]!r}", lineno)
    try:
        return from_edge_list(spec, vertices=vertices)
    except ValueError as exc:
        raise GraphParseError(str(exc)) from exc


def graph_to_text(g):
    """The text format of g.  An id it cannot hold, empty or with
    whitespace or ``#`` in it, raises ``ValueError``, and so do two
    vertex ids or two edge ids written as the same text, which would
    read back as one."""
    for kind, ids in (("vertex", g.vertices), ("edge", g.edges)):
        written = set()
        for x in ids:
            text = str(x)
            if not text or "#" in text or any(ch.isspace() for ch in text):
                raise ValueError(f"id {x!r} cannot be written as graph text")
            if text in written:
                raise ValueError(f"two {kind} ids are written as {text!r}")
            written.add(text)
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {e} {g.ends(e)[0]} {g.ends(e)[1]}" for e in g.edges]
    return "\n".join(lines) + "\n"
