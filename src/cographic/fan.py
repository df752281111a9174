"""The fan of sign-condition cones attached to the orientation poset.

Every pair (T, phi) labels the cone of cycles vanishing on T whose signs
off T agree with phi.  All geometry here is symbolic: membership is a
sign check, dimension is a Betti number, extremal rays are compatible
circuit classes, and facets come from forcing one more functional to
vanish.  No floating point and no half-space solver anywhere.
"""

from dataclasses import dataclass, field

from .chains import canonical_form, fundamental_cycle_basis, is_cycle
from .circuits import circuit_class, compatible_circuits
from .errors import CapacityError
from .graph import FORWARD, betti1, delete_edges, spanning_forest
from .linalg import primitive_vector
from .orientations import (Orientation, OrientationPoset, TotCycPair,
                           build_orientation_poset)

MAX_ISOMORPHISM_SIZE = 5000


@dataclass(frozen=True)
class Cone:
    """A fan cone, represented by its label (T, phi) in the ambient graph."""

    graph: object
    label: TotCycPair

    def __repr__(self):
        return f"Cone({self.label!r})"


def cone_contains(cone, c):
    """Sign test for membership of a cycle in the cone."""
    g = cone.graph
    if not is_cycle(g, c):
        raise ValueError("cone membership is defined for cycles only")
    t = cone.label.support
    phi = cone.label.phi
    for e, n in c.items():
        if e in t:
            return False
        d = phi.direction(e)
        if (n > 0) != (d == FORWARD):
            return False
    return True


def common_cone(c, d):
    """Do two cycles lie in one cone?  True iff no edge carries opposite
    signs, i.e. the coefficientwise products are all nonnegative."""
    for e, n in c.items():
        if n * d.coeff(e) < 0:
            return False
    return True


def cone_of(g, c):
    """The minimal cone containing a cycle: vanish exactly off the support,
    orient by the signs.  Total cyclicity of the result is guaranteed by
    the circuit decomposition of cycles."""
    if not is_cycle(g, c):
        raise ValueError("cone_of is defined for cycles only")
    support, phi, _ = canonical_form(g, c)
    t = frozenset(g.edges) - frozenset(support)
    return TotCycPair.create(g, t, Orientation(phi))


def cone_dimension(cone):
    """Dimension of the cone's span, i.e. the Betti number off the support."""
    g, t = cone.graph, cone.label.support
    return len(spanning_forest(g, [e for e in g.edges if e not in t])[1])


def voronoi_face_dim(cone):
    """Dimension of the dual lattice-polytope face carried by this cone's
    label (total Betti number minus the cone dimension)."""
    return betti1(cone.graph) - cone_dimension(cone)


def extremal_rays(cone):
    """Classes of the compatible circuits; each spans an extremal ray."""
    return [circuit_class(gamma)
            for gamma in compatible_circuits(cone.graph, cone.label)]


def face_label(g, support, phi):
    """Canonical poset label of the face cut out by (support, phi).

    ``phi`` orients the complement of ``support`` but need not be totally
    cyclic there; the canonical label keeps only the edges covered by
    compatible circuits, oriented by phi.  The point set is unchanged.
    The compatible circuits are concordant (they all agree with phi), and
    a union of directed circuits is totally cyclic, so the label is valid
    by construction.
    """
    covered = set()
    for gamma in compatible_circuits(g, TotCycPair(frozenset(support), phi)):
        covered |= gamma.support
    return TotCycPair(frozenset(g.edges) - covered, phi.restrict(covered))


def facets(cone):
    """Codimension-one subcones, each with a primitive inward normal.

    Forcing one more edge functional to zero cuts a face; the faces of
    dimension one less are the facets.  Normals are reported in the
    coordinates of the fundamental cycle basis of the complement of the
    support, deduplicated up to positive scaling.  Edge e cuts the face
    covered by the cone's compatible circuits that avoid e.

    Returns a list of (facet_cone, normal) pairs in canonical label order.
    """
    g = cone.graph
    basis = fundamental_cycle_basis(delete_edges(g, cone.label.support))
    return _facets(g, cone.label, basis, compatible_circuits(g, cone.label))


def _facets(g, pair, basis, circuits):
    """``facets`` of the cone labeled ``pair``, from the cycle basis of
    the complement of its support and its compatible circuits."""
    t = pair.support
    phi = pair.phi
    d = len(basis)
    out = {}
    for e in g.edges:
        if e in t:
            continue
        covered = set()
        for gamma in circuits:
            if e not in gamma.support:
                covered |= gamma.support
        label = TotCycPair(frozenset(g.edges) - covered, phi.restrict(covered))
        if label in out or len(spanning_forest(g, covered)[1]) != d - 1:
            continue
        out[label] = (Cone(g, label),
                      _edge_functional(basis, e, phi.direction(e)))
    return [out[label] for label in
            sorted(out, key=lambda p: p.sort_key(g))]


def _edge_functional(basis, e, direction):
    """The pairing against the oriented edge, as a primitive integer vector
    in the given cycle-basis coordinates."""
    vec = [direction * b.coeff(e) for b in basis.basis]
    return primitive_vector(vec)


@dataclass
class Fan:
    """All cones of a graph, indexed by the orientation poset."""

    graph: object
    poset: OrientationPoset
    cones: list = field(default_factory=list)

    def cone(self, label):
        return self.cones[self.poset.index(label)]

    def chambers(self):
        """Maximal cones (labels with support exactly the bridges)."""
        return [self.cone(p) for p in self.poset.maximal_elements()]

    def __len__(self):
        return len(self.cones)

    def to_json(self):
        """``cone_dimension``, ``voronoi_face_dim``, ``extremal_rays`` and
        ``facets`` of each cone, from one cycle basis and circuit list."""
        g = self.graph
        total = betti1(g)
        report = []
        for cone in self.cones:
            label = cone.label
            basis = fundamental_cycle_basis(delete_edges(g, label.support))
            circuits = compatible_circuits(g, label)
            facet_list = _facets(g, label, basis, circuits)
            report.append({
                "label": label.to_json(g),
                "dimension": len(basis),
                "voronoi_face_dim": total - len(basis),
                "rays": [circuit_class(c).to_json() for c in circuits],
                "facets": [sub.label.to_json(g) for sub, _ in facet_list],
                "facet_normals": [list(n) for _, n in facet_list],
            })
        return report


def build_fan(g):
    """One cone per orientation-poset element; inclusion mirrors the poset."""
    poset = build_orientation_poset(g)
    return Fan(g, poset, [Cone(g, p) for p in poset])


# -- generic finite posets and isomorphism testing ----------------------


class FinitePoset:
    """A finite poset given by explicit elements and comparisons.

    Building it makes n^2 ``leq`` calls, and it exists for the isomorphism
    search, so the size cap of that search is checked before any of them.
    """

    def __init__(self, elements, leq):
        self.elements = list(elements)
        n = len(self.elements)
        if n > MAX_ISOMORPHISM_SIZE:
            raise CapacityError("poset isomorphism size cap", n,
                                MAX_ISOMORPHISM_SIZE)
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


def poset_isomorphic(p, q):
    """True iff an order isomorphism exists between the two posets."""
    return find_poset_isomorphism(p, q) is not None
