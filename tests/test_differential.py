"""Fast paths against their slow twins in ``oracles.py``.

The Hilbert-Samuel DP runs on integer keys packed from the values of the
edge functionals, and membership is one AND against their guard bits;
the reference keeps coordinate tuples and the chain-level
``cone_contains``, which also checks the integer sign test
``AffineSemigroup.contains``.  Chamber selection filters
by support, and circuits are read from a per-graph bitmask table; the
references compare every pair of poset elements and walk the circuits of
each complement by edge name.  Concordance of two oriented circuits is
one AND of their edge masks; the reference compares the directions of
the shared edges by name.  A facet label is built from the circuits
that cover it; the reference validates the circuits and the label.  The hull's
hyperplane is a vector of integer minors; the reference solves a
rational kernel.  The hull's facets come from beneath-beyond; the
reference tries a plane through every k-subset of the points.  Lattice
spanning is the gcd of the maximal minors and the Gorenstein point comes
from Cramer's rule; the references take the Smith normal form and a
rational Gauss-Jordan solve.  Bounded-mass
cycles are enumerated on the L1 ball of their basis coordinates; the
reference searches the coordinate box.  The invariance criterion walks
the ambient ball as packed keys, a boundary test is one AND and a
listed chain one set lookup; the reference builds a chain and a
boundary dict per point.  The HS function, volume and
toric ideal are computed once per class of chambers, and so is
unimodularity where the class is unimodular; the reference is every
chamber on its own.  ``Fan.to_json`` derives each cone's entry
from one cycle basis and one circuit list; the references are the
public per-cone functions, and the cone dimension's is the Betti number
of the graph with the support deleted.  Facets are read off the
classes of the support's cycle basis columns, one candidate support per
class and one total-cyclicity test or poset lookup each; the reference
covers each edge's face with compatible circuits, builds its label and a
spanning forest.  A fundamental
cycle is read off one rooted forest by depth; the reference runs a
breadth-first search per cycle.  A cone's basis is kept in one slot per
graph, keyed by its support; the reference builds one per support.  A cone's
facets are its lower covers in the poset.  The isomorphism oracle's
finite poset reads those covers off one set difference per element; the
reference tests every element between each comparable pair.  The Betti
number is read off one spanning forest, and the bridges, two-edge cuts
and connectivization off the columns of one cycle basis; the references
search depth-first per question and build a graph per candidate pair,
and the reference connectivization recomputes every bridge after each
contraction; one graph above the circuit cap keeps that route uncapped.
The toric ideal walks multisets of generators and sums their
coordinates; the reference deduplicates the words over the generators
and takes dot products.  The orientation poset and the totally
cyclic orientations are read off the bond table of the graph as bitmask
sign vectors; the references build a graph per edge subset and test every
sign vector by strong connectivity.  So does the reference of the one
total-cyclicity test of a given label, which checks the graph's bond
table off the label's support.  Outputs must agree exactly.
"""

import json
from functools import cache
from operator import mul, sub
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cographic import (BinomialIdeal, Chain1, TotCycPair, betti1,
                       build_fan,
                       build_orientation_poset, catalog_graph,
                       catalog_names, compatible_circuits, concordant,
                       cone_basis, cone_contains, cone_dimension,
                       chamber_classes,
                       cycles_up_to_mass, delete_edges,
                       enumerate_oriented_circuits, enumerate_tco,
                       extremal_rays, facets, from_edge_list,
                       fundamental_cycle_basis, hilbert_basis, hilbert_samuel_function,
                       is_totally_cyclic, is_unimodular,
                       multiplicity_hs_oracle, present_ring, q_gorenstein,
                       separating_edges,
                       spans_lattice, subdiagram_volume,
                       three_edge_connectivization, toric_ideal_up_to_degree,
                       two_edge_cuts, voronoi_face_dim)
from cographic.fan import face_label
from cographic.invariants import _invariance_agrees
from cographic.jsontext import dumps
from cographic.orientations import MAX_ORIENTATION_EDGES, label_texts
from cographic import semigroup
from cographic.semigroup import (_supporting_planes, _volume,
                                 per_chamber_class, permute_ideal,
                                 unimodular_per_class)
from cographic.linalg import hyperplane_through
from cographic.graph import BACKWARD, FORWARD
from conftest import forward_mask, k4_plus, multigraphs
from oracles import (FinitePoset, build_orientation_poset_reference,
                     compatible_circuits_reference, concordant_reference,
                     connected_components_reference, covers_reference,
                     cycles_up_to_mass_reference,
                     enumerate_oriented_circuits_reference,
                     enumerate_tco_reference, facets_reference,
                     fundamental_cycle_basis_reference,
                     hilbert_samuel_function_reference,
                     hyperplane_through_reference,
                     invariance_agrees_reference,
                     is_totally_cyclic_reference, is_unimodular_reference,
                     maximal_elements_reference, permute_ideal_reference,
                     q_gorenstein_reference,
                     rank, separating_edges_reference,
                     spans_lattice_reference, support_orientation_of,
                     supporting_planes_reference,
                     three_edge_connectivization_reference,
                     toric_ideal_reference, two_edge_cuts_reference)

K4 = [("e1", "v1", "v2"), ("e2", "v1", "v3"), ("e3", "v1", "v4"),
      ("e4", "v2", "v3"), ("e5", "v2", "v4"), ("e6", "v3", "v4")]
# K4, K4 plus a parallel copy of each of its first two edges, and six
# parallel edges
NON_CATALOG = {"K4": K4,
               "K4p2": K4 + [("e7", "v1", "v2"), ("e8", "v1", "v3")],
               "banana6": [(f"e{i}", "v1", "v2") for i in range(6)]}


def _fan(name, fan_of):
    if name in NON_CATALOG:
        return build_fan(from_edge_list(NON_CATALOG[name]))
    return fan_of(name)


@pytest.mark.parametrize("name",
                         ["B3", "C5", "THETA2", "FIG-NG", "FIG-NH", "K4"])
def test_hs_matches_reference_on_chambers(name, fan_of):
    """Every chamber, horizons d + 2 .. d + 6.

    The reference runs once, at d + 6: its values for n <= h do not depend
    on the horizon, which only clips part counts above n = horizon.  The
    fast function runs at every horizon, so each field width is used.
    """
    fan = _fan(name, fan_of)
    for chamber in fan.chambers():
        s = hilbert_basis(fan.graph, chamber)
        d = s.lattice_rank
        expected = hilbert_samuel_function_reference(s, d + 6)
        for horizon in range(d + 2, d + 7):
            assert hilbert_samuel_function(s, horizon) == expected[:horizon]


# banana6's chambers are the non-simplicial case: every generator lies on
# one hyperplane.  On K4p2 the reference takes about 17 s at d + 6, so it
# runs at d + 3 (about 4.5 s).
@pytest.mark.parametrize("name, margin", [("banana6", 6), ("K4p2", 3)])
def test_hs_matches_reference_on_class_representatives(name, margin, fan_of):
    fan = _fan(name, fan_of)
    semigroups = [hilbert_basis(fan.graph, chamber)
                  for chamber in fan.chambers()]
    for i, (rep, _) in enumerate(chamber_classes(semigroups)):
        if rep != i:
            continue
        s = semigroups[i]
        horizon = s.lattice_rank + margin
        assert hilbert_samuel_function(s, horizon) == \
            hilbert_samuel_function_reference(s, horizon)


@given(g=multigraphs(), extra=st.integers(0, 5))
def test_hs_matches_reference_on_random_multigraphs(g, extra):
    for chamber in build_fan(g).chambers():
        s = hilbert_basis(g, chamber)
        horizon = s.lattice_rank + extra
        assert hilbert_samuel_function(s, horizon) == \
            hilbert_samuel_function_reference(s, horizon)


@pytest.mark.parametrize("name", ["B3", "C4", "THETA2", "FIG-NH"])
def test_contains_matches_cone_contains(name, fan_of, rng):
    """Every poset element: zero, each Hilbert basis element, and random
    vectors in [-4, 4]^d, non-members included."""
    fan = fan_of(name)
    for pair in fan.poset:
        s = hilbert_basis(fan.graph, pair)
        d = s.lattice_rank
        points = [tuple([0] * d)]
        points += [s.coordinates(c) for c in s.hilbert_basis]
        points += [tuple(rng.randint(-4, 4) for _ in range(d))
                   for _ in range(40)]
        for pt in points:
            assert s.contains(pt) == cone_contains(fan.graph, pair,
                                                   s.chain(pt))
        assert all(s.contains(s.coordinates(c)) for c in s.hilbert_basis)


def _facet_pairs(g, pair):
    """The pairs ``facets`` hands to ``compatible_circuits``: one more
    edge forced to vanish, its direction dropped."""
    for i in range(len(g.edges)):
        bit = 1 << i
        if not pair.support & bit:
            yield TotCycPair(pair.support | bit, pair.forward & ~bit)


def _assert_poset_matches_references(g):
    assert enumerate_oriented_circuits(g) == \
        enumerate_oriented_circuits_reference(g)
    poset = build_orientation_poset(g)
    assert poset.maximal_elements() == maximal_elements_reference(poset)
    for pair in poset:
        for p in [pair, *_facet_pairs(g, pair)]:
            reference = compatible_circuits_reference(g, p)
            assert compatible_circuits(g, p) == reference
            assert face_label(g, *p) == \
                support_orientation_of(g, reference)


@pytest.mark.parametrize("name", catalog_names() + ["K4"])
def test_chambers_and_compatible_circuits_match_reference(name, graphs):
    g = from_edge_list(K4) if name == "K4" else graphs[name]
    _assert_poset_matches_references(g)


@given(g=multigraphs())
def test_chambers_and_compatible_circuits_match_reference_on_random_multigraphs(g):
    _assert_poset_matches_references(g)


def _assert_concordance_matches_reference(g):
    circuits = enumerate_oriented_circuits(g)
    for a in circuits:
        for b in circuits:
            assert concordant(a, b) == concordant_reference(g, a, b)


@pytest.mark.parametrize("name", catalog_names() + ["K4", "K4p2"])
def test_concordance_matches_reference(name, graphs):
    g = (from_edge_list(NON_CATALOG[name]) if name in NON_CATALOG
         else graphs[name])
    _assert_concordance_matches_reference(g)


@given(g=multigraphs())
def test_concordance_matches_reference_on_random_multigraphs(g):
    _assert_concordance_matches_reference(g)


@st.composite
def point_tuples(draw):
    """k points of Z^k, k <= 5, entries in [-3, 3].  The points are drawn
    from a pool that may be smaller than k, so repeated (and hence
    affinely dependent) points are common."""
    k = draw(st.integers(1, 5))
    pool = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * k),
                         min_size=1, max_size=k))
    return [draw(st.sampled_from(pool)) for _ in range(k)]


@given(points=point_tuples())
@example(points=[(1, 1), (1, 1)])
@example(points=[(1, 1), (2, 2)])
@example(points=[(-1, 0), (0, -1)])
@example(points=[(1, 2, 0), (2, 4, 0), (3, 6, 0)])
@example(points=[(0, 0, 0), (1, 0, 0), (0, 1, 0)])
def test_hyperplane_through_matches_reference(points):
    plane = hyperplane_through(points)
    reference = hyperplane_through_reference(points)
    if reference is None:
        assert plane is None
        return
    normal, c = plane
    assert c >= 0
    assert all(sum(a * b for a, b in zip(normal, p)) == c for p in points)
    flipped = (tuple(-a for a in reference[0]), -reference[1])
    if c == 0:
        assert plane in (reference, flipped)
    else:
        assert plane == (reference if reference[1] > 0 else flipped)


@given(g=multigraphs())
def test_subdiagram_volume_matches_hs_on_random_multigraphs(g):
    for chamber in build_fan(g).chambers():
        s = hilbert_basis(g, chamber)
        assert subdiagram_volume(s) == multiplicity_hs_oracle(s)


CHAMBER_GRAPHS = {
    **{name: catalog_graph(name) for name in catalog_names()},
    "K4": k4_plus(0), "K4p2": k4_plus(2), "K4p3": k4_plus(3),
    **{f"banana{m}": from_edge_list([(f"e{i}", "v1", "v2") for i in range(m)])
       for m in (6, 7)},
}


@cache
def _chamber_semigroups(name):
    """The semigroups of a graph's chambers, and their classes."""
    g = CHAMBER_GRAPHS[name]
    semigroups = [hilbert_basis(g, pair) for pair in build_fan(g).chambers()]
    return semigroups, chamber_classes(semigroups)


def _assert_same_planes(points):
    assert sorted(_supporting_planes(points)) == \
        sorted(supporting_planes_reference(points))


def _assert_hull_matches_reference(s):
    """Every plane search of the subdiagram volume, those of the pyramid
    recursion included, and the volume itself."""
    searched = []

    def recording(points):
        searched.append(points)
        return _supporting_planes(points)

    with mock.patch.object(semigroup, "_supporting_planes", recording):
        volume = subdiagram_volume(s)
    for points in searched:
        _assert_same_planes(points)
    with mock.patch.object(semigroup, "_supporting_planes",
                           supporting_planes_reference):
        assert volume == subdiagram_volume(s)


@pytest.mark.parametrize("name", CHAMBER_GRAPHS)
def test_hull_matches_reference_on_class_representatives(name):
    semigroups, classes = _chamber_semigroups(name)
    for rep in sorted({rep for rep, _ in classes}):
        _assert_hull_matches_reference(semigroups[rep])


@given(g=multigraphs())
def test_hull_matches_reference_on_random_multigraphs(g):
    for chamber in build_fan(g).chambers():
        _assert_hull_matches_reference(hilbert_basis(g, chamber))


def _affine_rank(points):
    return rank([tuple(map(sub, p, points[0])) for p in points[1:]])


@st.composite
def hull_points(draw):
    """Distinct points of Z^k, k <= 6, in the two cases the hull takes:
    full-dimensional, or spanning one plane that misses the origin.  The
    plane is x_axis = c + w . (the other coordinates), with c > 0.  Small
    boxes put many points on each facet, so facets are rarely simplices."""
    k = draw(st.integers(1, 6))
    on_plane = draw(st.booleans())
    m = k - 1 if on_plane else k
    low, high = draw(st.sampled_from([(0, 1), (-1, 1), (-2, 2)]))
    points = draw(st.lists(st.tuples(*[st.integers(low, high)] * m),
                           min_size=m + 1, max_size=m + 8, unique=True))
    if on_plane:
        w = draw(st.tuples(*[st.integers(-2, 2)] * m))
        c = draw(st.integers(1, 3))
        axis = draw(st.integers(0, m))
        points = [p[:axis] + (c + sum(map(mul, w, p)),) + p[axis:]
                  for p in points]
    assume(_affine_rank(points) == m)
    return points


@settings(max_examples=100)
@given(points=hull_points())
@example(points=[(2,)])
@example(points=[(0, 1), (1, 0), (2, -1)])
@example(points=[(0, 0), (2, 0), (0, 2), (1, 1), (1, 0), (0, 1)])
# two facets that share three collinear points are not adjacent
@example(points=[(0, 0, 1, 0), (1, 0, 0, 2), (2, 2, 1, 0), (2, 1, 0, 1),
                 (0, 1, 1, 0), (0, 2, 1, 1), (0, 2, 1, 0), (2, 0, 2, 2)])
def test_supporting_planes_match_reference_on_random_points(points):
    _assert_same_planes(points)
    if _affine_rank(points) == len(points[0]):
        with mock.patch.object(semigroup, "_supporting_planes",
                               supporting_planes_reference):
            expected = _volume(points)
        assert _volume(points) == expected


@pytest.mark.parametrize("name", CHAMBER_GRAPHS)
def test_unimodular_per_class_matches_every_chamber(name):
    """Verdicts and witnesses on every chamber."""
    semigroups, classes = _chamber_semigroups(name)
    assert unimodular_per_class(semigroups, classes) == \
        [is_unimodular(s) for s in semigroups]


@given(g=multigraphs())
def test_unimodular_per_class_matches_every_chamber_on_random_multigraphs(g):
    semigroups = [hilbert_basis(g, pair) for pair in build_fan(g).chambers()]
    assert unimodular_per_class(semigroups, chamber_classes(semigroups)) == \
        [is_unimodular(s) for s in semigroups]


def _assert_lattice_tests_match_references(g, poset):
    for pair in poset:
        s = hilbert_basis(g, pair)
        assert spans_lattice(s) == spans_lattice_reference(s)
        assert q_gorenstein(s) == q_gorenstein_reference(s)
        assert is_unimodular(s) == is_unimodular_reference(s)


@pytest.mark.parametrize("name", catalog_names() + ["K4", "K4p2"])
def test_lattice_tests_match_references(name, fan_of):
    """Every poset element, not only the chambers."""
    fan = _fan(name, fan_of)
    _assert_lattice_tests_match_references(fan.graph, fan.poset)


@given(g=multigraphs())
def test_lattice_tests_match_references_on_random_multigraphs(g):
    _assert_lattice_tests_match_references(g, build_fan(g).poset)


def _assert_cycles_match_reference(g):
    for bound in range(5):
        assert cycles_up_to_mass(g, bound) == \
            cycles_up_to_mass_reference(g, bound)


@pytest.mark.parametrize("name", catalog_names())
def test_cycles_up_to_mass_matches_reference(name, graphs):
    _assert_cycles_match_reference(graphs[name])


# Four edges keep the reference's box, 9^b points at mass 4, small.
@given(g=multigraphs(max_edges=4))
def test_cycles_up_to_mass_matches_reference_on_random_multigraphs(g):
    _assert_cycles_match_reference(g)


def _assert_invariance_matches_reference(g, degree):
    """Both walks accept the bounded cycles, and reject the list with a
    cycle dropped, with a non-cycle added, and with both."""
    cycles = cycles_up_to_mass(g, degree)
    lists = [cycles, cycles[:-1]]
    strays = [e for e in g.edges if not g.is_loop(e)]
    if degree and strays:
        stray = Chain1({strays[-1]: 1})
        lists += [cycles + [stray], cycles[:-1] + [stray]]
    for listed, expected in zip(lists, [True, False, False, False]):
        assert _invariance_agrees(g, degree, listed) is expected
        assert invariance_agrees_reference(g, degree, listed) is expected


@pytest.mark.parametrize("name", catalog_names() + ["K4", "K4p2"])
def test_invariance_walk_matches_reference(name, graphs):
    g = graphs[name] if name in graphs else from_edge_list(NON_CATALOG[name])
    for degree in range(5):
        _assert_invariance_matches_reference(g, degree)


@given(g=multigraphs(), degree=st.integers(0, 4))
def test_invariance_walk_matches_reference_on_random_multigraphs(g, degree):
    _assert_invariance_matches_reference(g, degree)


@pytest.mark.parametrize("name", catalog_names() + ["K4p2", "banana6"])
def test_per_chamber_class_matches_every_chamber(name, fan_of):
    fan = _fan(name, fan_of)
    semigroups = [hilbert_basis(fan.graph, pair) for pair in fan.chambers()]
    classes = chamber_classes(semigroups)

    def hs(s):
        return hilbert_samuel_function(s, s.lattice_rank + 2)

    def ideal(s):
        return toric_ideal_up_to_degree(s, 3)

    for fn in (hs, subdiagram_volume):
        assert per_chamber_class(fn, semigroups, classes) == \
            [fn(s) for s in semigroups]
    presentation = present_ring(fan)
    assert list(presentation.ideals()) == \
        [ideal(s) for s in presentation.chambers]


@pytest.mark.parametrize("name", ["LOOP1", "B2", "K4p3"])
def test_permute_ideal_matches_reference(name, fan_of):
    # LOOP1's and B2's chambers have one generator each, so their
    # permutations have length 1; K4p3 has 340 chambers in 13 classes.
    fan = build_fan(k4_plus(3)) if name == "K4p3" else fan_of(name)
    presentation = present_ring(fan)
    classes = presentation.chamber_classes
    assert ({len(perm) for _, perm in classes} == {1}) == (name != "K4p3")
    for rep, perm in classes:
        ideal = presentation.class_ideals[rep]
        assert permute_ideal(ideal, perm) == \
            permute_ideal_reference(ideal, perm)
    # A chamber's ideal over one generator is empty; this made-up one
    # checks that a length-1 permutation keeps vectors, not entries.
    one = BinomialIdeal([((1,), (0,))], 1)
    assert permute_ideal(one, (0,)) == permute_ideal_reference(one, (0,))


def _assert_toric_ideals_match_reference(semigroups):
    classes = chamber_classes(semigroups)
    for rep in sorted({rep for rep, _ in classes}):
        for degree in range(1, 5):
            assert toric_ideal_up_to_degree(semigroups[rep], degree) == \
                toric_ideal_reference(semigroups[rep], degree)


@pytest.mark.parametrize("name", catalog_names() + list(NON_CATALOG))
def test_toric_ideal_matches_reference(name, fan_of):
    """Degrees 1 to 4 on one chamber of each class."""
    fan = _fan(name, fan_of)
    _assert_toric_ideals_match_reference(
        [hilbert_basis(fan.graph, pair) for pair in fan.chambers()])


@given(g=multigraphs())
def test_toric_ideal_matches_reference_on_random_multigraphs(g):
    _assert_toric_ideals_match_reference(
        [hilbert_basis(g, pair) for pair in build_fan(g).chambers()])


def _assert_fan_json_matches_cone_functions(fan):
    g = fan.graph
    report = [json.loads(text) for text in fan.to_json()]
    assert len(report) == len(fan)
    for pair, entry in zip(fan.poset, report):
        facet_list = facets(g, pair)
        assert cone_dimension(g, pair) == \
            betti1(delete_edges(g, g.edges_of(pair.support)))
        assert entry == {
            "label": pair.to_json(g),
            "dimension": cone_dimension(g, pair),
            "voronoi_face_dim": voronoi_face_dim(g, pair),
            "rays": [c.to_json() for c in extremal_rays(g, pair)],
            "facets": [sub.to_json(g) for sub, _ in facet_list],
            "facet_normals": [list(n) for _, n in facet_list],
        }


@pytest.mark.parametrize("name", catalog_names() + ["K4p2", "banana6"])
def test_fan_json_matches_cone_functions(name, fan_of):
    _assert_fan_json_matches_cone_functions(_fan(name, fan_of))


@given(g=multigraphs())
def test_fan_json_matches_cone_functions_on_random_multigraphs(g):
    _assert_fan_json_matches_cone_functions(build_fan(g))


def _assert_label_texts_match_to_json(g):
    pairs = list(build_orientation_poset(g))
    assert list(label_texts(g, pairs)) == [dumps(p.to_json(g)) for p in pairs]


@pytest.mark.parametrize("name",
                         catalog_names() + ["K4p2", "banana6", "reversed"])
def test_label_texts_match_to_json(name, fan_of):
    # "reversed" lists its edges against id order, so phi's order by id
    # and the edge order differ.
    _assert_label_texts_match_to_json(
        from_edge_list([(f"e{i}", "v1", "v2") for i in range(4, -1, -1)])
        if name == "reversed" else _fan(name, fan_of).graph)


@given(g=multigraphs())
def test_label_texts_match_to_json_on_random_multigraphs(g):
    _assert_label_texts_match_to_json(g)


def _assert_same_basis(basis, reference):
    """Equal forests and cycles, and columns that hold the coefficients of
    exactly the edges some basis cycle uses."""
    assert (basis.graph, basis.forest, basis.coforest) == \
        (reference.graph, reference.forest, reference.coforest)
    assert [list(c.items()) for c in basis.basis] == \
        [list(c.items()) for c in reference.basis]
    columns = {e: tuple(b.coeff(e) for b in basis.basis)
               for e in basis.graph.edges}
    assert basis.columns == {e: col for e, col in columns.items() if any(col)}


def _assert_cone_bases_match_reference(g):
    """``cone_basis`` of every poset element's support, walking the poset
    forward and then backward, so its one slot is both kept and replaced
    between supports of equal size."""
    pairs = list(build_orientation_poset(g))
    references = {}
    for pair in pairs + pairs[::-1]:
        if pair.support not in references:
            references[pair.support] = fundamental_cycle_basis_reference(
                delete_edges(g, g.edges_of(pair.support)))
        _assert_same_basis(cone_basis(g, pair.support),
                           references[pair.support])


@pytest.mark.parametrize("name", catalog_names() + ["K4p2"])
def test_cone_bases_match_reference(name, fan_of):
    _assert_cone_bases_match_reference(_fan(name, fan_of).graph)


@given(g=multigraphs())
def test_cone_bases_match_reference_on_random_multigraphs(g):
    _assert_cone_bases_match_reference(g)


def _assert_facets_match_reference(fan):
    """Labels, order and normals of every cone's facets, standalone and in
    ``Fan.to_json``, and the cycle basis of every cone's complement."""
    g = fan.graph
    _assert_same_basis(fundamental_cycle_basis(g),
                       fundamental_cycle_basis_reference(g))
    for pair, text in zip(fan.poset, fan.to_json()):
        entry = json.loads(text)
        rest = delete_edges(g, g.edges_of(pair.support))
        _assert_same_basis(fundamental_cycle_basis(rest),
                           fundamental_cycle_basis_reference(rest))
        expected = facets_reference(g, pair)
        assert facets(g, pair) == expected
        assert entry["facets"] == [sub.to_json(g) for sub, _ in expected]
        assert entry["facet_normals"] == [list(n) for _, n in expected]


@pytest.mark.parametrize("name", catalog_names() + ["K4p2", "banana6"])
def test_facets_and_cycle_bases_match_references(name, fan_of):
    _assert_facets_match_reference(_fan(name, fan_of))


@given(g=multigraphs())
def test_facets_and_cycle_bases_match_references_on_random_multigraphs(g):
    _assert_facets_match_reference(build_fan(g))


def _assert_covers_match_reference(fan):
    """The facets of every cone, standalone and in ``Fan.to_json``, are
    its lower covers in the poset, whose covers match the cubic search."""
    g = fan.graph
    elements = list(fan.poset)
    finite = FinitePoset(elements, fan.poset.leq)
    covers_up = finite.covers()
    assert covers_up == covers_reference(finite)
    lower = [[] for _ in elements]
    for i, above in enumerate(covers_up):
        for j in above:
            lower[j].append(i)
    for pair, text, below in zip(elements, fan.to_json(), lower):
        covers = [elements[i] for i in sorted(below)]
        assert [face for face, _ in facets(g, pair)] == covers
        assert json.loads(text)["facets"] == [p.to_json(g) for p in covers]


@pytest.mark.parametrize("name", catalog_names() + ["K4"])
def test_covers_match_reference(name, fan_of):
    _assert_covers_match_reference(_fan(name, fan_of))


@given(g=multigraphs())
def test_covers_match_reference_on_random_multigraphs(g):
    _assert_covers_match_reference(build_fan(g))


CONNECTIVITY_GRAPHS = {
    **{name: catalog_graph(name) for name in catalog_names()},
    **{f"K4p{k}": k4_plus(k) for k in range(7)},
    **{f"banana{m}": from_edge_list([(f"e{i}", "v1", "v2") for i in range(m)])
       for m in (6, 7, 8)},
}


def _assert_connectivity_matches_references(g):
    components = connected_components_reference(g)
    assert betti1(g) == len(g.edges) - len(g.vertices) + len(components)
    assert separating_edges(g) == separating_edges_reference(g)
    assert two_edge_cuts(g) == two_edge_cuts_reference(g)
    assert three_edge_connectivization(g) == \
        three_edge_connectivization_reference(g)


@pytest.mark.parametrize("name", CONNECTIVITY_GRAPHS)
def test_connectivity_matches_references(name):
    _assert_connectivity_matches_references(CONNECTIVITY_GRAPHS[name])


@given(g=multigraphs(max_vertices=6, max_edges=9))
def test_connectivity_matches_references_on_random_multigraphs(g):
    _assert_connectivity_matches_references(g)


def test_separating_edges_match_references_above_the_caps():
    # The 4 x 4 grid (24 edges) with a loop and a pendant bridge, above
    # the circuit cap (20 edges): bridges and two-edge cuts have no cap.
    # Each corner's two edges form a cut; the pendant edge is the only
    # bridge.
    spec = [(f"h{r}{c}", f"v{r}{c}", f"v{r}{c + 1}")
            for r in range(4) for c in range(3)]
    spec += [(f"u{r}{c}", f"v{r}{c}", f"v{r + 1}{c}")
             for r in range(3) for c in range(4)]
    g = from_edge_list(spec + [("loop", "v11", "v11"), ("tail", "v22", "w")])
    assert len(g.edges) == 26 > MAX_ORIENTATION_EDGES
    assert separating_edges(g) == separating_edges_reference(g) == ("tail",)
    cuts = two_edge_cuts(g)
    assert cuts == two_edge_cuts_reference(g)
    assert cuts == [("h00", "u00"), ("h02", "u03"),
                    ("h30", "u20"), ("h32", "u23")]


POSET_GRAPHS = {
    **{name: catalog_graph(name) for name in catalog_names()},
    **{f"K4p{k}": k4_plus(k) for k in range(5)},
    **{f"banana{m}": from_edge_list([(f"e{i}", "v1", "v2") for i in range(m)])
       for m in (6, 7, 8)},
}


def _assert_orientations_match_references(g):
    poset = build_orientation_poset(g)
    reference = build_orientation_poset_reference(g)
    assert poset.elements == reference.elements
    assert poset.elements == sorted(poset.elements,
                                    key=lambda p: p.sort_key(g))
    assert poset.maximal_elements() == maximal_elements_reference(reference)
    assert enumerate_tco(g) == [forward_mask(g, dirs)
                                for dirs in enumerate_tco_reference(g)]


@pytest.mark.parametrize("name", POSET_GRAPHS)
def test_orientations_match_references(name):
    """The element, chamber and orientation lists, order included."""
    _assert_orientations_match_references(POSET_GRAPHS[name])


def test_enumerate_tco_matches_reference_on_doubled_k4():
    g = k4_plus(6)
    assert enumerate_tco(g) == [forward_mask(g, dirs)
                                for dirs in enumerate_tco_reference(g)]


# Loops, parallel edges, an isolated vertex and three components.
@given(g=multigraphs(max_vertices=6, max_edges=6))
@example(g=from_edge_list([("a", "u", "v"), ("b", "v", "u"), ("c", "w", "w"),
                           ("d", "x", "y"), ("e", "y", "x"), ("f", "x", "y")],
                          vertices=["u", "v", "w", "x", "y", "z"]))
def test_orientations_match_references_on_random_multigraphs(g):
    _assert_orientations_match_references(g)


def _assert_total_cyclicity_matches_reference(g):
    """Every support and every sign vector off it, bridges and loops of
    the complement included: the bond rule and ``TotCycPair.create``
    accept exactly what strong connectivity accepts.  Bits of the forward
    mask inside the support are ignored by the rule and rejected by
    ``create``."""
    full = (1 << len(g.edges)) - 1
    for support in range(full + 1):
        rest = delete_edges(g, g.edges_of(support))
        t = g.edges_of(support)
        off = full ^ support
        forward = off
        while True:
            dirs = {e: FORWARD if forward >> g.edge_index(e) & 1 else BACKWARD
                    for e in rest.edges}
            expected = is_totally_cyclic_reference(rest, dirs)
            assert is_totally_cyclic(g, support, forward) == expected
            assert is_totally_cyclic(g, support, forward | support) == expected
            if expected:
                assert TotCycPair.create(g, t, g.edges_of(forward)) == \
                    (support, forward)
            else:
                with pytest.raises(ValueError, match="not totally cyclic"):
                    TotCycPair.create(g, t, g.edges_of(forward))
            if support:
                with pytest.raises(ValueError, match="in the support"):
                    TotCycPair.create(g, t, g.edges_of(forward | support))
            if not forward:
                break
            forward = (forward - 1) & off


TOTAL_CYCLICITY_GRAPHS = {
    **{name: catalog_graph(name) for name in catalog_names()},
    "K4p2": k4_plus(2),
}


@pytest.mark.parametrize("name", TOTAL_CYCLICITY_GRAPHS)
def test_total_cyclicity_matches_reference(name):
    _assert_total_cyclicity_matches_reference(TOTAL_CYCLICITY_GRAPHS[name])


@given(g=multigraphs())
def test_total_cyclicity_matches_reference_on_random_multigraphs(g):
    _assert_total_cyclicity_matches_reference(g)
