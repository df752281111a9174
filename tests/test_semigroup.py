from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cographic import (Chain1, TotCycPair, catalog_graph,
                       build_fan, build_orientation_poset, catalog_names,
                       from_edge_list, hilbert_basis, hilbert_samuel_function,
                       is_homogeneous, is_unimodular, multiplicity_hs_oracle,
                       chamber_classes, hypergraph_bijection, q_gorenstein,
                       spans_lattice, subdiagram_volume,
                       toric_ideal_up_to_degree)
from cographic.fan import facets
from cographic import linalg
from cographic.linalg import det_int
from cographic.semigroup import AffineSemigroup, _volume, permute_ideal
from conftest import K4_EDGES, k4_plus, multigraphs
from oracles import (hilbert_samuel_function_reference,
                     irreducible_points_up_to_degree, rank,
                     semigroup_points_up_to_degree, spans_lattice_reference,
                     toric_ideal_reference)


def chamber(name):
    g = catalog_graph(name)
    return g, hilbert_basis(g, TotCycPair.create(g, frozenset(), g.edges))


def b3_chamber():
    g = catalog_graph("B3")
    return g, hilbert_basis(g, TotCycPair.create(g, frozenset(),
                                                 ["e1", "e2"]))


def minimum_semigroup(name):
    g = catalog_graph(name)
    return hilbert_basis(g, TotCycPair(g.edge_mask(g.edges), 0))


def test_minimum_pair_has_empty_basis():
    s = minimum_semigroup("B3")
    assert s.hilbert_basis == []
    assert s.lattice_rank == 0
    assert spans_lattice(s)


def test_theta2_chamber_has_eight_elements():
    g, s = chamber("THETA2")
    assert len(s.hilbert_basis) == 8
    # the eight triangles: one copy of each doubled side
    for c in s.hilbert_basis:
        assert c.l1() == 3
        assert sorted(e[:2] for e in c.support()) == ["e1", "e2", "e3"]


def test_fig_nh_chamber_has_five_elements():
    g, s = chamber("FIG-NH")
    assert [sorted(c.support()) for c in s.hilbert_basis] == [
        ["e1", "e2", "e3"], ["e1", "e4"], ["e2", "e6"], ["e3", "e5"],
        ["e4", "e5", "e6"]]


def test_hilbert_basis_matches_irreducibles(fan_of):
    # both inclusions of the minimal-generation statement, against the
    # degree-bounded brute-force oracle
    for name in ("LOOP1", "B2", "B3", "C3", "FIG-NG"):
        fan = fan_of(name)
        g = fan.graph
        for pair in fan.poset:
            s = hilbert_basis(g, pair)
            bound = max((c.l1() for c in s.hilbert_basis), default=0)
            assert set(irreducible_points_up_to_degree(s, bound)) == \
                set(s.hilbert_basis)


def test_semigroup_points_closed_under_addition(rng):
    g, s = b3_chamber()
    pts = semigroup_points_up_to_degree(s, 4)
    small = [p for p in pts if p.l1() <= 2]
    for a in small:
        for b in small:
            assert (a + b) in set(pts)


def test_spans_lattice_everywhere(fan_of):
    for name in ("LOOP1", "B2", "B3", "C4", "FIG-NG", "THETA2"):
        fan = fan_of(name)
        for pair in fan.poset:
            assert spans_lattice(hilbert_basis(fan.graph, pair))


def test_spans_lattice_false_on_sublattices():
    # hand-built generator sets in B3's rank-2 chamber lattice
    g, s = b3_chamber()
    a, b = s.hilbert_basis
    # a + b and a - b span an index-2 sublattice: the one minor is +-2
    index_two = replace(s, hilbert_basis=[a + b, a - b])
    assert not spans_lattice(index_two)
    # one generator in rank 2: no maximal minor at all
    too_few = replace(s, hilbert_basis=[a])
    assert not spans_lattice(too_few)
    assert not spans_lattice_reference(index_two)
    assert not spans_lattice_reference(too_few)


def test_unimodular_b3_chamber():
    g, s = b3_chamber()
    uni, witness = is_unimodular(s)
    assert uni and witness is None


def test_unimodular_rays():
    fan_pairs = build_orientation_poset(catalog_graph("B3"))
    g = catalog_graph("B3")
    for pair in fan_pairs:
        s = hilbert_basis(g, pair)
        if s.lattice_rank == 1:
            uni, _ = is_unimodular(s)
            assert uni


def test_theta2_not_unimodular_with_witness():
    g, s = chamber("THETA2")
    uni, witness = is_unimodular(s)
    assert not uni
    (cols1, m1), (cols2, m2) = witness
    assert {abs(m1), abs(m2)} == {1, 2}


def test_toric_ideal_b3_chamber_free():
    g, s = b3_chamber()
    assert toric_ideal_up_to_degree(s, 3).generators == []


def test_toric_ideal_degree_one_always_empty(fan_of):
    for name in ("B3", "FIG-NG", "THETA2"):
        fan = fan_of(name)
        for pair in fan.chambers():
            s = hilbert_basis(fan.graph, pair)
            assert toric_ideal_up_to_degree(s, 1).generators == []


def test_toric_image_keys_separate_mixed_signs():
    # In a cone's semigroup each coordinate has one sign, the direction
    # of its coforest edge, so two images differ by at most the degree
    # there.  The packed image key must also separate generators whose
    # coordinates, 0 or +-1, have both signs: their images differ by up
    # to twice the degree.  At degree 1, (1, 0) and (-1, 1) collide in
    # base 2 and must not.
    coords = [(1, 0), (-1, 1), (0, -1), (1, 1)]
    s = SimpleNamespace(hilbert_basis=coords, coords=coords, lattice_rank=2,
                        coordinates=lambda c: c)
    for degree in range(1, 5):
        assert toric_ideal_up_to_degree(s, degree) == \
            toric_ideal_reference(s, degree)


def test_fig_nh_single_binomial():
    g, s = chamber("FIG-NH")
    ideal = toric_ideal_up_to_degree(s, 3)
    assert len(ideal.generators) == 1
    u, v = ideal.generators[0]
    # the triangle pair balances the three two-cycles
    names = [sorted(c.support()) for c in s.hilbert_basis]
    two_cycles = [i for i, n in enumerate(names) if len(n) == 2]
    triangles = [i for i, n in enumerate(names) if len(n) == 3]
    side_u = [i for i, k in enumerate(u) if k]
    side_v = [i for i, k in enumerate(v) if k]
    assert sorted(side_u) in (sorted(two_cycles), sorted(triangles))
    assert sorted(side_v) in (sorted(two_cycles), sorted(triangles))
    assert side_u != side_v
    assert all(k in (0, 1) for k in u) and all(k in (0, 1) for k in v)


def test_toric_ideal_generators_balance(fan_of):
    # post-hoc kernel condition on every reported generator
    for name in ("FIG-NG", "FIG-NH", "THETA2"):
        fan = fan_of(name)
        for pair in fan.chambers()[:6]:
            s = hilbert_basis(fan.graph, pair)
            ideal = toric_ideal_up_to_degree(s, 3)
            for u, v in ideal.generators:
                left = Chain1()
                for k, c in zip(u, s.hilbert_basis):
                    left = left + k * c
                right = Chain1()
                for k, c in zip(v, s.hilbert_basis):
                    right = right + k * c
                assert left == right
                assert not any(a and b for a, b in zip(u, v))


def test_is_homogeneous():
    g, s = chamber("FIG-NH")
    ideal = toric_ideal_up_to_degree(s, 3)
    assert not is_homogeneous(ideal)
    assert is_homogeneous(toric_ideal_up_to_degree(b3_chamber()[1], 3))


def test_q_gorenstein_fig_ng_chamber_fails():
    g, s = chamber("FIG-NG")
    qg, integral, m = q_gorenstein(s)
    assert (qg, integral, m) == (False, False, None)


def test_q_gorenstein_b3_chamber():
    g, s = b3_chamber()
    qg, integral, m = q_gorenstein(s)
    assert qg and integral
    assert m == {"e1": Fraction(1), "e2": Fraction(1), "e3": Fraction(-2)}
    # the witness pairs to one against every facet normal
    basis = s.cycle_basis
    coords = tuple(m.get(f, Fraction(0)) for f in basis.coforest)
    for _, normal in facets(s.graph, s.label):
        assert sum(a * b for a, b in zip(normal, coords)) == 1


def test_q_gorenstein_rays_and_origin():
    g = catalog_graph("LOOP1")
    for pair in build_orientation_poset(g):
        s = hilbert_basis(g, pair)
        qg, integral, _ = q_gorenstein(s)
        assert qg and integral


def test_q_gorenstein_sweep_consistency(fan_of):
    # across whole fans: integral implies rational; simplicial lattice
    # bases are smooth hence integral; any solution pairs to one against
    # every facet normal; the five-banana's non-simplicial chambers are
    # exactly the failures
    for name in ("LOOP1", "B2", "B3", "C4", "FIG-NG"):
        fan = fan_of(name)
        g = fan.graph
        failures = 0
        for pair in fan.poset:
            s = hilbert_basis(g, pair)
            qg, gor, m = q_gorenstein(s)
            assert not (gor and not qg)
            if len(s.hilbert_basis) == s.lattice_rank:
                assert gor, (name, pair)
            if qg and s.lattice_rank > 0:
                coords = tuple(m.get(f, 0) for f in s.cycle_basis.coforest)
                for _, normal in facets(s.graph, s.label):
                    assert sum(a * b for a, b in zip(normal, coords)) == 1
            if not qg:
                failures += 1
        assert failures == (20 if name == "FIG-NG" else 0), name


def test_basis_elements_are_extremal(fan_of):
    # each Hilbert basis element lies on d-1 independent facet normals
    for name in ("B3", "FIG-NG", "THETA2", "FIG-NH"):
        fan = fan_of(name)
        for pair in fan.chambers()[:8]:
            s = hilbert_basis(fan.graph, pair)
            d = s.lattice_rank
            normals = [n for _, n in facets(s.graph, s.label)]
            for c in s.hilbert_basis:
                coords = s.coordinates(c)
                vanishing = [n for n in normals
                             if sum(a * b for a, b in zip(n, coords)) == 0]
                assert rank(vanishing) == d - 1


def test_subdiagram_volume_unimodular_cases():
    g, s = b3_chamber()
    assert subdiagram_volume(s) == 1
    loop = catalog_graph("LOOP1")
    ray = hilbert_basis(loop, TotCycPair.create(loop, frozenset(), ["e1"]))
    assert subdiagram_volume(ray) == 1


def test_subdiagram_volume_origin_cone():
    assert subdiagram_volume(minimum_semigroup("B3")) == 1


def test_volume_unit_cube():
    # three facets miss the origin, each a unit square of volume 2 at
    # height 1: six unimodular tetrahedra
    cube = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    assert _volume(cube) == 6


def test_volume_divides_by_projection_index():
    # A triangle with (1, 1) on its edge x = 1.  The facet through (0, 0)
    # and (1, 2) has primitive normal (2, -1); dropping x maps its lattice
    # onto 2Z, so without the division by |normal[0]| = 2 it reads 3.
    assert _volume([(1, 1), (0, 0), (1, 0), (1, 2)]) == 2


@given(data=st.data())
def test_volume_does_not_depend_on_the_apex(data):
    # Shuffling the points moves the apex of the pyramids, not the polytope.
    polytopes = [
        [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)],
        [(1, 1), (0, 0), (1, 0), (1, 2)],
        [(0, 0), (3, 0), (0, 2), (2, 3), (4, 1)],
        [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1), (1, 1, 2)],
        [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
         (0, 0, 0, 1), (1, 1, 1, 1), (2, 1, 0, 1)],
    ]
    for points in polytopes:
        shuffled = data.draw(st.permutations(points))
        assert _volume(shuffled) == _volume(points)


def test_subdiagram_volume_builds_no_fraction(fan_of, monkeypatch):
    # the hull volume is integer arithmetic from end to end
    samples = [hilbert_basis(fan_of(name).graph, pair)
               for name in ("THETA2", "FIG-NH")
               for pair in fan_of(name).chambers()[:4]]
    expected = [multiplicity_hs_oracle(s) for s in samples]

    def no_fraction(*args):
        raise AssertionError("Fraction built in the hull volume")

    assert not hasattr(linalg, "Fraction")
    monkeypatch.setattr("cographic.semigroup.Fraction", no_fraction)
    assert [subdiagram_volume(s) for s in samples] == expected


def test_hilbert_samuel_known_shapes():
    loop = catalog_graph("LOOP1")
    ray = hilbert_basis(loop, TotCycPair.create(loop, frozenset(), ["e1"]))
    assert hilbert_samuel_function(ray, 6) == [1, 2, 3, 4, 5, 6]
    assert multiplicity_hs_oracle(ray) == 1

    g, s = b3_chamber()
    # free polynomial ring on two variables
    assert hilbert_samuel_function(s, 6) == \
        [n * (n + 1) // 2 for n in range(1, 7)]
    assert multiplicity_hs_oracle(s) == 1


def test_hilbert_samuel_needs_no_sign_test(fan_of, monkeypatch):
    # Membership is read off the packed keys, so the DP never calls
    # ``AffineSemigroup.contains``; the values stay the reference's.
    fan = fan_of("THETA2")
    semigroups = [hilbert_basis(fan.graph, pair) for pair in fan.chambers()]
    reps = [semigroups[i]
            for i, (rep, _) in enumerate(chamber_classes(semigroups))
            if rep == i]
    expected = [hilbert_samuel_function_reference(s, s.lattice_rank + 6)
                for s in reps]

    def refuse(self, coords):
        raise AssertionError("sign test called")

    monkeypatch.setattr(AffineSemigroup, "contains", refuse)
    assert [hilbert_samuel_function(s, s.lattice_rank + 6)
            for s in reps] == expected


def test_hilbert_samuel_edge_cases(fan_of):
    # Every cone of THETA2 at horizons 0, 1 and d + 2: the minimum has
    # d = 0, and a ray is one generator, so n -> n.
    fan = fan_of("THETA2")
    ranks = set()
    for pair in fan.poset:
        s = hilbert_basis(fan.graph, pair)
        d = s.lattice_rank
        ranks.add(d)
        for horizon in (0, 1, d + 2):
            values = hilbert_samuel_function(s, horizon)
            assert values == hilbert_samuel_function_reference(s, horizon)
            assert len(values) == horizon
        if d == 0:
            assert hilbert_samuel_function(s, 3) == [1, 1, 1]
        if d == 1:
            assert len(s.hilbert_basis) == 1
            assert hilbert_samuel_function(s, 5) == [1, 2, 3, 4, 5]
    assert {0, 1, 4} <= ranks


def test_multiplicity_two_routes_agree_on_sample_chambers(fan_of):
    for name in ("FIG-NG", "THETA2"):
        fan = fan_of(name)
        for pair in fan.chambers()[:5]:
            s = hilbert_basis(fan.graph, pair)
            assert subdiagram_volume(s) == multiplicity_hs_oracle(s)


def test_hs_oracle_unstable_horizon_raises(monkeypatch):
    from cographic import CapacityError, semigroup
    g, s = chamber("THETA2")
    monkeypatch.setattr(semigroup, "HS_HORIZON_MARGIN", 0)
    with pytest.raises(CapacityError) as info:
        multiplicity_hs_oracle(s)  # horizon 4: not enough differences at d=4
    exc = info.value
    assert exc.size > exc.cap
    assert (exc.size, exc.cap) == (6, 4)
    assert str(exc) == ("Hilbert-Samuel horizon at dimension 4 "
                        "(4-th differences not stable): size 6 exceeds cap 4")


# -- chamber classes -------------------------------------------------------


def _supports(s):
    g = s.graph
    edges = g.edges_of(~s.label.support)
    return edges, [frozenset(g.edges_of(gamma.support))
                   for gamma in s.circuits]


def _reversal(g, pair):
    """The label with the same T and every edge off T turned around."""
    return TotCycPair(pair.support,
                      g.edge_mask(g.edges) ^ pair.support ^ pair.forward)


def _generator_permutation(s, t, bijection):
    index = {supp: k for k, supp in enumerate(_supports(t)[1])}
    return [index[frozenset(map(bijection.get, supp))]
            for supp in _supports(s)[1]]


@given(g=multigraphs())
def test_matched_chambers_share_hs_volume_and_ideal(g):
    # The premise of computing these once per class of chambers: when an
    # edge bijection carries one chamber's directed circuit supports onto
    # another's, both generator sets span their lattices, and the second
    # chamber's HS function, volume and (transported) ideal are the first's.
    semigroups = [hilbert_basis(g, pair) for pair in build_fan(g).chambers()]
    direct = [(spans_lattice(s),
               hilbert_samuel_function(s, s.lattice_rank + 2),
               subdiagram_volume(s),
               toric_ideal_up_to_degree(s, 3))
              for s in semigroups]
    for i, s in enumerate(semigroups):
        for j, t in enumerate(semigroups):
            bijection = hypergraph_bijection(*_supports(s), *_supports(t))
            if bijection is None:
                continue
            assert direct[i][0] and direct[j][0]
            assert direct[i][1:3] == direct[j][1:3]
            perm = _generator_permutation(s, t, bijection)
            assert permute_ideal(direct[j][3], perm) == direct[i][3]


@given(g=multigraphs())
def test_opposite_chambers_share_hs_volume_and_ideal(g):
    # The reversal of a chamber is a chamber, its generators are the
    # negated generators in the same order, it shares the chamber's class,
    # and the three invariants agree without any transport.
    labels = build_fan(g).chambers()
    semigroups = [hilbert_basis(g, pair) for pair in labels]
    classes = chamber_classes(semigroups)
    for i, (pair, s) in enumerate(zip(labels, semigroups)):
        j = labels.index(_reversal(g, pair))
        t = semigroups[j]
        assert [t.coordinates(c) for c in t.hilbert_basis] == \
            [tuple(-x for x in s.coordinates(c)) for c in s.hilbert_basis]
        assert classes[i][0] == classes[j][0]
        horizon = s.lattice_rank + 2
        assert hilbert_samuel_function(s, horizon) == \
            hilbert_samuel_function(t, horizon)
        assert subdiagram_volume(s) == subdiagram_volume(t)
        assert toric_ideal_up_to_degree(s, 3) == toric_ideal_up_to_degree(t, 3)


NON_CATALOG = {"K4": from_edge_list(K4_EDGES), "K4p2": k4_plus(2),
               "banana6": from_edge_list([(f"e{i}", "v1", "v2")
                                          for i in range(6)])}
# Classes of chambers per graph; each catalog graph not named has one.
CLASS_COUNTS = {"THETA2": 4, "FIG-NG": 2, "FIG-NH": 4, "K4": 1, "K4p2": 18,
                "banana6": 3}


@pytest.mark.parametrize("name", catalog_names() + list(NON_CATALOG))
def test_opposite_class_pairs_every_chamber(name, fan_of):
    # A chamber and its reversal have the same circuit supports, so they
    # share a class.  Each generator permutation is a permutation and
    # carries the chamber's supports onto the representative's.
    fan = build_fan(NON_CATALOG[name]) if name in NON_CATALOG else fan_of(name)
    labels = fan.chambers()
    semigroups = [hilbert_basis(fan.graph, pair) for pair in labels]
    classes = chamber_classes(semigroups)
    for i, (rep, perm) in enumerate(classes):
        assert classes[rep] == (rep, tuple(range(len(perm))))
        assert sorted(perm) == list(range(len(perm)))
        reverse = labels.index(_reversal(fan.graph, labels[i]))
        assert classes[reverse][0] == rep
        bijection = hypergraph_bijection(*_supports(semigroups[i]),
                                         *_supports(semigroups[rep]))
        assert bijection is not None
        assert _generator_permutation(semigroups[i], semigroups[rep],
                                      bijection) == list(perm)
    assert len({rep for rep, _ in classes}) == CLASS_COUNTS.get(name, 1)
