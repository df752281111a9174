"""The fan of sign-condition cones attached to the orientation poset.

Every pair (T, phi) labels the cone of cycles vanishing on T whose signs
off T agree with phi.  All geometry here is symbolic: membership is a
sign check, dimension is a Betti number, extremal rays are compatible
circuit classes, and facets come from forcing one more functional to
vanish.  No floating point and no half-space solver anywhere.  Cone
inclusion is the poset's order, ``OrientationPoset.leq``; the
ray-containment order and the order-isomorphism search that check it
are test oracles.

Cost model.  A cone is its label, the edge-index bitmasks of the support
T and of the forward edges of phi (``TotCycPair``), together with its
compatible circuits, which are mask pairs too (``OrientedCircuit``).  A
``Fan`` holds the orientation poset, which stores those labels;
``build_fan`` is the poset's mask walk and nothing more.  Every cone
function takes the graph and the label, ``(g, pair)``; ``chambers``
filters the labels on the bridge mask and ``len`` reads the list.
Facets come off the cycle basis of the support, not off circuits:
forcing an edge e off T to zero also zeroes every f that lies on the same
cycles off T, and ``_cuts`` lists one candidate support S_e = T + the
class of e per class of ``CycleBasis.series_classes``, with the class's
first edge.  The face is a facet exactly when phi stays totally cyclic
off S_e: one AND and one lookup in the poset's index per candidate in
``Fan.to_json``, one ``is_totally_cyclic`` in ``facets`` and
``semigroup.q_gorenstein``.  A facet normal is a signed column of
``chains.cone_basis``, which keeps the last basis; the poset lists its
cones grouped by support, so ``to_json`` builds one basis and one list
of candidates, with both signs of each normal encoded, per support.
``to_json`` orders each cone's facets by their index in the poset, which
is in ``sort_key`` order; ``facets`` sorts them by that key.  Edge names
appear only in the JSON.  ``to_json`` yields each cone's entry as JSON
text, one string per cone, assembled from pieces encoded once each: a
label's text once per poset element (``label_texts`` encodes T and the
signed edge names once per support), shared by the facet lists that name
it, a ray's once per oriented circuit, keyed by its mask pair, and a
facet normal's once per distinct vector.  It keeps the label texts, one per cone, and one
entry at a time, so the ``fan`` report is written in memory that grows
with the poset, not with the output: about 110 MiB for the 338 MB of
``fan K4x2``.
"""

from dataclasses import dataclass
from functools import cache

from .chains import cone_basis, is_cycle
from .circuits import _circuit_table, circuit_class, compatible_circuits
from .graph import betti1
from .jsontext import dumps
from .orientations import (OrientationPoset, TotCycPair,
                           build_orientation_poset, is_totally_cyclic,
                           label_texts)


def cone_contains(g, pair, c):
    """Sign test for membership of a cycle in the cone labelled ``pair``."""
    if not is_cycle(g, c):
        raise ValueError("cone membership is defined for cycles only")
    support, forward = pair
    for e, n in c.items():
        bit = 1 << g.edge_index(e)
        if support & bit or (n > 0) != bool(forward & bit):
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
    return TotCycPair(((1 << len(g.edges)) - 1) ^ g.edge_mask(c.support()),
                      g.edge_mask(e for e, n in c.items() if n > 0))


def cone_dimension(g, pair):
    """Dimension of the cone's span, i.e. the Betti number off the support:
    the size of its ``cone_basis``."""
    return len(cone_basis(g, pair.support))


def voronoi_face_dim(g, pair):
    """Dimension of the dual lattice-polytope face carried by the label
    (total Betti number minus the cone dimension)."""
    return betti1(g) - cone_dimension(g, pair)


def extremal_rays(g, pair):
    """Classes of the compatible circuits; each spans an extremal ray."""
    return [circuit_class(g, gamma) for gamma in compatible_circuits(g, pair)]


def face_label(g, support, forward):
    """Canonical poset label of the face cut out by the edge masks
    (support, forward).

    ``forward`` orients the complement of ``support`` but need not be
    totally cyclic there; the canonical label keeps only the edges covered
    by compatible circuits, oriented by it.  The point set is unchanged.
    The compatible circuits are concordant (they all agree with the
    orientation), and a union of directed circuits is totally cyclic, so
    the label is valid by construction.
    """
    covered = 0
    for gamma in compatible_circuits(g, TotCycPair(support, forward)):
        covered |= gamma.support
    return TotCycPair(((1 << len(g.edges)) - 1) ^ covered, forward & covered)


def facets(g, pair):
    """Codimension-one subcones, each with a primitive inward normal.

    Forcing one more edge functional to zero cuts a face; the faces of
    dimension one less are the facets.  Normals are reported in the
    coordinates of the fundamental cycle basis of the complement of the
    support, deduplicated up to positive scaling.  The face of edge e is a
    facet exactly when ``is_totally_cyclic`` holds off its ``_cuts``
    support.

    Returns a list of (facet label, normal) pairs in canonical label order.
    """
    found = _facets(g, cone_basis(g, pair.support), pair)
    return sorted(found, key=lambda item: item[0].sort_key(g))


def _cuts(g, basis, support):
    """(S_e, bit of e, e) for each candidate facet support of the cones
    with support mask ``support`` and cycle basis ``basis``: S_e is T and
    one class of ``basis.series_classes()``, the edges that lie on the
    same cycles off T, and e is the first edge of that class."""
    return [(support | g.edge_mask(c), 1 << g.edge_index(c[0]), c[0])
            for c in basis.series_classes()]


def _facets(g, basis, pair):
    """(facet label, normal) of the cone ``pair`` in the order of the
    first edge that cuts each facet.  The normal is that edge's column of
    ``basis``, the cone's, signed by phi: primitive, since fundamental
    cycles have coefficients 0 and +-1."""
    support, forward = pair
    columns = basis.columns
    return [(TotCycPair(s, forward & ~s), columns[e] if forward & bit
             else tuple([-a for a in columns[e]]))
            for s, bit, e in _cuts(g, basis, support)
            if is_totally_cyclic(g, s, forward)]


@dataclass
class Fan:
    """All cones of a graph, indexed by the orientation poset, whose
    elements are the cones' labels."""

    graph: object
    poset: OrientationPoset

    def chambers(self):
        """Labels of the maximal cones (support exactly the bridges)."""
        return self.poset.maximal_elements()

    def __len__(self):
        return len(self.poset)

    def to_json(self):
        """The JSON text of each cone's entry, one ``str`` per cone in
        poset order, made as the iterator is read.

        The keys are in sorted order: ``dimension``, ``facet_normals``,
        ``facets``, ``label``, ``rays`` and ``voronoi_face_dim``, as
        ``cone_dimension``, ``facets``, ``extremal_rays`` and
        ``voronoi_face_dim`` give them.  The entry is assembled from
        pieces encoded once each: every label once per poset element,
        every ray once per oriented circuit and every facet normal once
        per distinct vector.  ``cone_basis`` and ``_cuts`` run only when
        the support changes; each cone filters the circuit table once and
        looks each facet candidate up in the poset's index.
        """
        g = self.graph
        total = betti1(g)
        find = self.poset._index.get
        labels = list(label_texts(g, self.poset))
        rays = {c: dumps(circuit_class(g, c).to_json())
                for _, _, gamma, reversal in _circuit_table(g)
                for c in (gamma, reversal)}
        encode = cache(dumps)
        support = None
        for pair, label in zip(self.poset, labels):
            if pair.support != support:
                support = pair.support
                basis = cone_basis(g, support)
                head = f'{{"dimension":{len(basis)},"facet_normals":['
                tail = f'],"voronoi_face_dim":{total - len(basis)}}}'
                cuts = [(s, bit, encode(basis.columns[e]),
                         encode(tuple([-a for a in basis.columns[e]])))
                        for s, bit, e in _cuts(g, basis, support)]
            forward = pair.forward
            found = sorted([(k, plus if forward & bit else minus)
                            for s, bit, plus, minus in cuts
                            if (k := find((s, forward & ~s))) is not None])
            yield "".join([
                head, ",".join([text for _, text in found]),
                '],"facets":[', ",".join([labels[k] for k, _ in found]),
                '],"label":', label,
                ',"rays":[', ",".join([rays[c] for c in
                                       compatible_circuits(g, pair)]), tail])


def build_fan(g):
    """One cone per orientation-poset element, addressed by its label;
    inclusion mirrors the poset.  Only the poset's mask walk runs here."""
    return Fan(g, build_orientation_poset(g))
