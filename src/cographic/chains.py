"""Integer 1-chains, the boundary map, and the edge inner product.

A 1-chain stores one integer per edge, the coefficient of the reference
orientation; the reversed orientation counts with the opposite sign.
Cycles are the chains with zero boundary, and the set of cycles is the
first integral homology of the graph.

The inner product makes distinct edges orthonormal: it is the standard
integer scalar product in reference-orientation coordinates, hence
positive definite.
"""

from operator import mul

from .graph import FORWARD, BACKWARD, delete_edges, spanning_forest


class Chain1:
    """Immutable integer 1-chain, stored sparsely (zero entries dropped)."""

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        self._c = c = {}
        for e, n in items:
            if n:
                if int(n) != n:
                    raise ValueError(
                        f"non-integral coefficient {n!r} on edge {e!r}")
                c[e] = int(n)
        self._hash = hash(frozenset(c.items()))

    def coeff(self, e):
        return self._c.get(e, 0)

    def support(self):
        return frozenset(self._c)

    def items(self):
        return self._c.items()

    def l1(self):
        return sum(abs(n) for n in self._c.values())

    def is_zero(self):
        return not self._c

    def __add__(self, other):
        acc = dict(self._c)
        for e, n in other._c.items():
            acc[e] = acc.get(e, 0) + n
        return Chain1(acc)

    def __sub__(self, other):
        acc = dict(self._c)
        for e, n in other._c.items():
            acc[e] = acc.get(e, 0) - n
        return Chain1(acc)

    def __neg__(self):
        return Chain1({e: -n for e, n in self._c.items()})

    def __mul__(self, k):
        return Chain1({e: k * n for e, n in self._c.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Chain1):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self._c:
            return "Chain1(0)"
        body = " ".join(f"{'+' if n > 0 else '-'}{abs(n) if abs(n) != 1 else ''}{e}"
                        for e, n in sorted(self._c.items()))
        return f"Chain1({body})"

    def to_json(self):
        return {e: n for e, n in sorted(self._c.items())}

    @classmethod
    def from_json(cls, obj):
        return cls(obj)


def boundary(g, c):
    """Boundary 0-chain of c: each oriented edge maps to target - source.

    Returned as a dict vertex -> integer with zero entries dropped.
    Raises ``ValueError`` for an edge id that g lacks.
    """
    out = {}
    try:
        for e, n in c.items():
            s, t = g.ends(e)
            out[t] = out.get(t, 0) + n
            out[s] = out.get(s, 0) - n
    except KeyError:
        raise ValueError(f"unknown edge id {e!r}") from None
    return {v: n for v, n in out.items() if n != 0}


def is_cycle(g, c):
    return not boundary(g, c)


def inner_product(c, d):
    """Edge-orthonormal pairing of two chains (exact integer)."""
    a, b = (c, d) if len(c._c) <= len(d._c) else (d, c)
    return sum(n * b.coeff(e) for e, n in a.items())


class CycleBasis:
    """Fundamental cycles of a spanning forest.

    One basis cycle per non-forest edge; that edge carries coefficient +1
    and appears in no other basis element, so the basis matrix in
    non-forest coordinates is the identity and the basis spans the cycle
    lattice over the integers.

    ``columns`` maps each edge on some basis cycle to its coefficients in
    the basis cycles: the pairing against the edge in these coordinates.
    An edge without a column lies on no cycle, so it is a bridge, and
    ``series_classes`` groups the others by the cycles they lie on.
    """

    __slots__ = ("graph", "forest", "coforest", "basis", "columns")

    def __init__(self, graph, forest, coforest, basis):
        self.graph = graph
        self.forest = forest        # edge ids, canonical order
        self.coforest = coforest    # edge ids, canonical order
        self.basis = basis          # list of Chain1, parallel to coforest
        columns = {}
        for i, b in enumerate(basis):
            for e, n in b.items():
                columns.setdefault(e, [0] * len(basis))[i] = n
        self.columns = {e: tuple(col) for e, col in columns.items()}

    def __len__(self):
        return len(self.basis)

    def coordinates(self, c):
        """Coordinates of a cycle in this basis (read off the coforest)."""
        return tuple(c.coeff(f) for f in self.coforest)

    def chain(self, coords):
        """Inverse of :meth:`coordinates`."""
        return Chain1({e: sum(map(mul, col, coords))
                       for e, col in self.columns.items()})

    def series_classes(self):
        """The edges with a column, grouped by the column up to signs, in
        first-edge order and each class in edge order.  Over GF(2) the
        basis spans every cycle, so a class is a set of edges on the same
        cycles: any two of them separate the graph together."""
        classes = {}
        for e in self.graph.edges:
            column = self.columns.get(e)
            if column is not None:
                classes.setdefault(tuple(map(abs, column)), []).append(e)
        return [tuple(c) for c in classes.values()]


def fundamental_cycle_basis(g):
    """Cycle basis from the greedy lowest-edge-id spanning forest.

    The forest is rooted once, at the first vertex of each component.  A
    coforest edge's cycle is the edge itself and then the forest path
    from its target to its source, read by stepping the deeper end up
    towards the common ancestor.  A loop never enters the forest; its
    fundamental cycle is the loop itself with coefficient +1.
    """
    forest, coforest, _ = spanning_forest(g, g.edges)
    adj = {v: [] for v in g.vertices}  # forest adjacency: vertex -> (vertex, edge, dir)
    for e in forest:
        s, t = g.ends(e)
        adj[s].append((t, e, FORWARD))
        adj[t].append((s, e, BACKWARD))
    depth = {}
    parent = {}  # vertex -> (parent, edge, direction from vertex to parent)
    for root in g.vertices:
        if root in depth:
            continue
        depth[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w, e, d in adj[v]:
                if w not in depth:
                    depth[w] = depth[v] + 1
                    parent[w] = (v, e, -d)
                    stack.append(w)

    basis = []
    for f in coforest:
        a, b = g.ends(f)[::-1]
        up, down = [], []   # oriented edges from the target, into the source
        while a != b:
            if depth[a] >= depth[b]:
                a, e, d = parent[a]
                up.append((e, d))
            else:
                b, e, d = parent[b]
                down.append((e, -d))
        down.reverse()
        basis.append(Chain1([(f, FORWARD)] + up + down))
    return CycleBasis(g, tuple(forest), tuple(coforest), basis)


def cone_basis(g, support):
    """``fundamental_cycle_basis`` of g less the edges of the mask
    ``support``: the coordinates of the cones of that support.

    The graph keeps only the last one.  The poset lists its cones grouped
    by support, and every chamber has the bridge support, so a walk over
    either builds one basis per support.
    """
    slot = g._cone_basis
    if slot is None or slot[0] != support:
        slot = g._cone_basis = (support, fundamental_cycle_basis(
            delete_edges(g, g.edges_of(support))))
    return slot[1]


def separating_edges(g):
    """All bridges of g, in canonical order: the edges with no column in
    ``cone_basis(g, 0)``, which lie on no cycle.  Loops and members of
    parallel pairs are never bridges."""
    columns = cone_basis(g, 0).columns
    return tuple(e for e in g.edges if e not in columns)


def canonical_form(g, c):
    """Support, sign orientation, and positive multiplicities of a chain.

    Splits ``c`` into the edge set where it is nonzero, the orientation
    given by its signs, and the absolute values, so that summing
    multiplicity times oriented edge reconstructs ``c`` exactly.
    """
    support = g.sort_edges(c.support())
    phi = {}
    mult = {}
    for e in support:
        n = c.coeff(e)
        phi[e] = FORWARD if n > 0 else BACKWARD
        mult[e] = abs(n)
    return support, phi, mult
