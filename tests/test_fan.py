import itertools

import pytest

from cographic import (Chain1, TotCycPair,
                       betti1, from_edge_list,
                       build_fan, build_orientation_poset, catalog_graph,
                       circuit_class, common_cone,
                       cone_basis, cone_contains, cone_dimension, cone_of,
                       enumerate_oriented_circuits, extremal_rays, facets,
                       fundamental_cycle_basis, voronoi_face_dim)
from cographic import orientations
from cographic.cli import main
from cographic.orientations import OrientationPoset
from cographic.graph import graph_to_text
from conftest import k4_plus
from oracles import (FinitePoset, cone_leq_reference, find_poset_isomorphism,
                     support_orientation_of)


def b3_chamber():
    g = catalog_graph("B3")
    return g, TotCycPair.create(g, frozenset(), ["e1", "e2"])


def fig_ng_chamber():
    g = catalog_graph("FIG-NG")
    return g, TotCycPair.create(g, frozenset(), g.edges)


def all_cycles_in_box(g, bound):
    basis = fundamental_cycle_basis(g)
    return [basis.chain(coords) for coords in
            itertools.product(range(-bound, bound + 1), repeat=len(basis))]


def test_zero_in_every_cone(graphs):
    for name in ("LOOP1", "B3", "C4"):
        g = graphs[name]
        for pair in build_fan(g).poset:
            assert cone_contains(g, pair, Chain1())


def test_cone_contains_b3_signs():
    g, pair = b3_chamber()
    assert cone_contains(g, pair, Chain1({"e1": 1, "e3": -1}))
    assert not cone_contains(g, pair, Chain1({"e2": 1, "e1": -1}))


def test_cone_contains_rejects_non_cycles():
    g, pair = b3_chamber()
    with pytest.raises(ValueError):
        cone_contains(g, pair, Chain1({"e1": 1}))


def test_class_lies_in_its_own_support_cone(graphs):
    for name in ("B3", "FIG-NG", "LOOP1"):
        g = graphs[name]
        for gamma in enumerate_oriented_circuits(g):
            pair = support_orientation_of(g, [gamma])
            assert cone_contains(g, pair, circuit_class(g, gamma))


def test_common_cone_examples():
    c = Chain1({"e1": 1, "e3": -1})
    d = Chain1({"e2": 1, "e3": -1})
    assert common_cone(c, Chain1())
    assert not common_cone(c, -1 * c)
    assert common_cone(c, d)
    assert not common_cone(c, Chain1({"e3": 1, "e2": -1}))


def test_common_cone_matches_explicit_poset_search(rng, graphs):
    # the sign test against a literal search for a cone holding both
    for name in ("LOOP1", "B2", "B3", "C3", "TREE3"):
        g = graphs[name]
        fan = build_fan(g)
        cycles = all_cycles_in_box(g, 2)
        checked = 0
        while checked < 200 and cycles:
            c, d = rng.choice(cycles), rng.choice(cycles)
            found = any(cone_contains(g, k, c) and cone_contains(g, k, d)
                        for k in fan.poset)
            assert common_cone(c, d) == found
            checked += 1


def test_cone_of_zero_is_minimum():
    g = catalog_graph("B3")
    pair = cone_of(g, Chain1())
    assert g.edges_of(pair.support) == g.edges


def test_cone_of_reads_signs():
    g = catalog_graph("B3")
    pair = cone_of(g, Chain1({"e1": 2, "e2": 1, "e3": -3}))
    assert pair.to_json(g) == {"T": [],
                               "phi": {"e1": "+", "e2": "+", "e3": "-"}}


def test_cone_of_is_minimal_cone(graphs):
    # no strictly smaller cone of the fan contains the cycle
    for name in ("LOOP1", "B3", "C4"):
        g = graphs[name]
        poset = build_orientation_poset(g)
        for c in all_cycles_in_box(g, 2):
            label = cone_of(g, c)
            assert cone_contains(g, label, c)
            for other in poset:
                if cone_contains(g, other, c):
                    assert poset.leq(label, other)


def test_fan_completeness_box(graphs):
    for name in ("LOOP1", "B2", "B3", "C3", "C4", "FIG-NG"):
        g = graphs[name]
        poset = build_orientation_poset(g)
        for c in all_cycles_in_box(g, 2):
            label = cone_of(g, c)
            assert label in poset


def test_cone_dimensions():
    g, pair = b3_chamber()
    assert cone_dimension(g, pair) == 2
    minimum = TotCycPair(g.edge_mask(g.edges), 0)
    assert cone_dimension(g, minimum) == 0
    theta = catalog_graph("THETA2")
    chamber = TotCycPair.create(theta, frozenset(), theta.edges)
    assert cone_dimension(theta, chamber) == 4


def test_dimension_voronoi_complement(fan_of):
    for name in ("B3", "FIG-NG", "THETA2", "TREE3", "C5"):
        fan = fan_of(name)
        g = fan.graph
        b = betti1(g)
        for pair in fan.poset:
            assert cone_dimension(g, pair) + voronoi_face_dim(g, pair) == b


def test_extremal_rays_counts():
    g, pair = b3_chamber()
    rays = extremal_rays(g, pair)
    assert len(rays) == 2
    minimum = TotCycPair(g.edge_mask(g.edges), 0)
    assert extremal_rays(g, minimum) == []


def test_rays_span_dimension(fan_of):
    from oracles import rank
    for name in ("B3", "FIG-NG", "C4"):
        fan = fan_of(name)
        g = fan.graph
        basis = fundamental_cycle_basis(g)
        for pair in fan.poset:
            rows = [basis.coordinates(r) for r in extremal_rays(g, pair)]
            assert rank(rows) == cone_dimension(g, pair)


def test_facets_of_ray_is_origin():
    g = catalog_graph("LOOP1")
    ray = TotCycPair.create(g, frozenset(), ["e1"])
    fl = facets(g, ray)
    assert len(fl) == 1
    sub, normal = fl[0]
    assert cone_dimension(g, sub) == 0
    assert normal in ((1,), (-1,))


def test_facets_fig_ng_chamber_has_five():
    g, pair = fig_ng_chamber()
    fl = facets(g, pair)
    assert len(fl) == 5
    for sub, normal in fl:
        assert cone_dimension(g, sub) == 3
        # primitive normals pair to one on their defining edge functional
        from math import gcd
        assert abs(__import__('functools').reduce(gcd, normal)) == 1


def test_facets_b3_chamber_has_two():
    g, pair = b3_chamber()
    fl = facets(g, pair)
    assert len(fl) == 2
    # the rays: forcing e1 (or e2) to zero leaves one circuit; forcing e3
    # to zero kills both circuits at once, which is a dimension-2 drop
    supports = {g.edges_of(sub.support) for sub, _ in fl}
    assert supports == {("e1",), ("e2",)}
    for sub, _ in fl:
        assert cone_dimension(g, sub) == 1


def test_facet_normals_nonnegative_on_cone(fan_of):
    # every facet normal supports its cone from below
    for name in ("B3", "FIG-NG"):
        fan = fan_of(name)
        g = fan.graph
        for pair in fan.poset:
            if cone_dimension(g, pair) == 0:
                continue
            from cographic.chains import fundamental_cycle_basis as fcb
            from cographic.graph import delete_edges
            basis = fcb(delete_edges(g, g.edges_of(pair.support)))
            rays = [basis.coordinates(r) for r in extremal_rays(g, pair)]
            for _, normal in facets(g, pair):
                values = [sum(a * b for a, b in zip(normal, ray))
                          for ray in rays]
                assert all(v >= 0 for v in values)
                assert any(v > 0 for v in values)


def test_facet_normal_independent_of_cutting_edge(fan_of):
    # every edge added to reach one facet induces the same primitive normal
    from cographic.fan import face_label
    for name in ("B3", "FIG-NG", "C4"):
        fan = fan_of(name)
        g = fan.graph
        for pair in fan.poset:
            support, forward = pair
            d = cone_dimension(g, pair)
            if d == 0:
                continue
            basis = cone_basis(g, support)
            normals = {}
            for i, e in enumerate(g.edges):
                bit = 1 << i
                if support & bit:
                    continue
                label = face_label(g, support | bit, forward & ~bit)
                if cone_dimension(g, label) != d - 1:
                    continue
                column = basis.columns[e]
                normal = (column if forward & bit
                          else tuple(-a for a in column))
                normals.setdefault(label, set()).add(normal)
            for label, seen in normals.items():
                assert len(seen) == 1, (name, label, seen)


def test_build_fan_counts():
    tree = build_fan(catalog_graph("TREE3"))
    assert len(tree) == 1 and len(tree.chambers()) == 1
    loop = build_fan(catalog_graph("LOOP1"))
    assert len(loop) == 3 and len(loop.chambers()) == 2
    b3 = build_fan(catalog_graph("B3"))
    assert len(b3) == 13 and len(b3.chambers()) == 6
    dims = sorted(cone_dimension(b3.graph, k) for k in b3.poset)
    assert dims == [0] + [1] * 6 + [2] * 6


def test_distinct_labels_have_distinct_point_sets(fan_of):
    # generic points separate the cones pairwise
    for name in ("LOOP1", "B3", "C4", "FIG-NG"):
        fan = fan_of(name)
        g = fan.graph
        generic = []
        for pair in fan.poset:
            total = Chain1()
            for ray in extremal_rays(g, pair):
                total = total + ray
            generic.append(total)
        for i, ki in enumerate(fan.poset):
            for j, kj in enumerate(fan.poset):
                if i < j:
                    assert not (cone_contains(g, ki, generic[j])
                                and cone_contains(g, kj, generic[i]))


def test_label_map_is_order_isomorphism(fan_of):
    # restriction order upstairs equals cone containment downstairs
    digons_with_bridge = from_edge_list([
        ("a1", "v1", "v2"), ("a2", "v2", "v1"), ("br", "v2", "v3"),
        ("b1", "v3", "v4"), ("b2", "v3", "v4")])
    fans = [fan_of(name) for name in ("LOOP1", "B3", "C4", "FIG-NG")]
    for fan in fans + [build_fan(k4_plus(0)), build_fan(digons_with_bridge)]:
        contained = cone_leq_reference(fan.graph)
        for p in fan.poset:
            for q in fan.poset:
                assert contained(p, q) == OrientationPoset.leq(p, q)


def test_chamber_count_equals_tco_count(fan_of, graphs):
    from cographic import enumerate_tco, delete_edges, separating_edges
    for name, g in graphs.items():
        fan = fan_of(name)
        free = delete_edges(g, separating_edges(g))
        assert len(fan.chambers()) == len(enumerate_tco(free))


def test_poset_isomorphic_basics():
    chain2 = FinitePoset(["a", "b"], lambda x, y: x <= y)
    antichain2 = FinitePoset(["a", "b"], lambda x, y: x == y)
    assert find_poset_isomorphism(chain2, chain2) is not None
    assert find_poset_isomorphism(chain2, antichain2) is None
    assert find_poset_isomorphism(
        chain2, FinitePoset([1], lambda x, y: True)) is None


def test_fan_poset_isomorphic_to_orientation_poset():
    g = catalog_graph("B3")
    fan = build_fan(g)
    # cone-inclusion order computed from ray membership, label-free
    cone_poset = FinitePoset(list(fan.poset), cone_leq_reference(g))
    orient_poset = FinitePoset(list(fan.poset), OrientationPoset.leq)
    iso = find_poset_isomorphism(cone_poset, orient_poset)
    assert iso is not None


@pytest.fixture
def labels_checked(monkeypatch):
    """The arguments of every total-cyclicity test run while the test runs:
    the check ``TotCycPair.create`` makes of a label given by edge ids."""
    checked = []
    original = orientations.is_totally_cyclic

    def counted(*args):
        checked.append(args)
        return original(*args)

    monkeypatch.setattr(orientations, "is_totally_cyclic", counted)
    return checked


def test_fan_builds_no_orientation(labels_checked):
    # Labels and circuits are mask pairs from the poset walk and the
    # circuit table to the JSON: no step of a fan's life builds a label
    # from edge ids or tests one for total cyclicity.
    fan = build_fan(k4_plus(4))
    assert len(fan) == 19963
    assert len(fan.chambers()) == 768
    assert sum(1 for _ in fan.to_json()) == 19963
    assert labels_checked == []


@pytest.mark.parametrize("command", ["circuits", "fan", "ring"])
def test_cli_builds_no_orientation(command, labels_checked, tmp_path,
                                   capsys):
    path = tmp_path / "k4p2.graph"
    path.write_text(graph_to_text(k4_plus(2)))
    assert main([command, str(path)]) == 0
    capsys.readouterr()
    assert labels_checked == []
