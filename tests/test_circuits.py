import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cographic import (Chain1, OrientedCircuit, TotCycPair,
                       betti1, catalog_graph, circuit_class,
                       compatible_circuits, concordant, decompose_cycle,
                       enumerate_oriented_circuits,
                       enumerate_tco, from_edge_list,
                       fundamental_cycle_basis, hypergraph_bijection,
                       is_cycle, is_totally_cyclic, separating_edges)
from cographic.graph import FORWARD, BACKWARD
from cographic.torelli import circuit_supports
from conftest import forward_mask, multigraphs
from oracles import (connected_components_reference,
                     covered_by_compatible_circuits, smith_invariant_factors,
                     support_orientation_of)

B2 = from_edge_list([("a", 1, 2), ("b", 1, 2)])


def oriented(g, dirs):
    """The oriented circuit of g on the edges of ``dirs``, directed by it."""
    return OrientedCircuit(g.edge_mask(dirs), forward_mask(g, dirs))


def brute_circuit_supports(g):
    """Independent circuit enumeration: all edge subsets whose subgraph is
    connected, bridge-free, and has first Betti number one."""
    supports = []
    edges = list(g.edges)
    for r in range(1, len(edges) + 1):
        for sub in itertools.combinations(edges, r):
            vertices = {v for e in sub for v in g.ends(e)}
            h = from_edge_list([(e, *g.ends(e)) for e in sub],
                               vertices=sorted(vertices, key=g.vertex_index))
            if len(connected_components_reference(h)) != 1:
                continue
            if betti1(h) != 1 or separating_edges(h):
                continue
            supports.append(frozenset(sub))
    return supports


def test_circuit_counts():
    assert len(enumerate_oriented_circuits(catalog_graph("LOOP1"))) == 2
    assert len(enumerate_oriented_circuits(catalog_graph("B3"))) == 6
    assert len(enumerate_oriented_circuits(catalog_graph("FIG-NG"))) == 20


def test_circuit_count_always_even_and_reversal_closed(graphs):
    for g in graphs.values():
        circuits = enumerate_oriented_circuits(g)
        assert len(circuits) % 2 == 0
        as_set = set(circuits)
        for gamma in circuits:
            assert gamma.reversal() in as_set


def test_circuit_supports_match_brute_force(graphs):
    for name in ("LOOP1", "B2", "B3", "C4", "THETA2", "FIG-NH", "TREE3"):
        g = graphs[name]
        circuits = enumerate_oriented_circuits(g)
        assert sorted({frozenset(g.edges_of(c.support)) for c in circuits},
                      key=lambda s: sorted(s)) == \
            sorted(set(brute_circuit_supports(g)), key=lambda s: sorted(s))
        # exactly two orientations per support
        per = {}
        for c in circuits:
            per[c.support] = per.get(c.support, 0) + 1
        assert all(n == 2 for n in per.values())


def test_circuit_class_loop():
    g = catalog_graph("LOOP1")
    gamma = enumerate_oriented_circuits(g)[0]
    assert circuit_class(g, gamma) in (Chain1({"e1": 1}), Chain1({"e1": -1}))


def test_circuit_class_banana():
    classes = {circuit_class(B2, c) for c in enumerate_oriented_circuits(B2)}
    assert classes == {Chain1({"a": 1, "b": -1}), Chain1({"a": -1, "b": 1})}


def test_circuit_class_fig_nh_two_cycle():
    g = catalog_graph("FIG-NH")
    gamma = oriented(g, {"e1": FORWARD, "e4": FORWARD})
    assert circuit_class(g, gamma) == Chain1({"e1": 1, "e4": 1})


def test_classes_are_sign_vectors_and_reversal_negates(graphs):
    for g in graphs.values():
        for gamma in enumerate_oriented_circuits(g):
            c = circuit_class(g, gamma)
            assert is_cycle(g, c)
            assert all(n in (-1, 1) for _, n in c.items())
            assert g.edge_mask(c.support()) == gamma.support
            assert circuit_class(g, gamma.reversal()) == -c


def test_concordance_basics():
    g = catalog_graph("B3")
    circuits = enumerate_oriented_circuits(g)
    for gamma in circuits:
        assert concordant(gamma, gamma)
        assert not concordant(gamma, gamma.reversal())


def test_concordance_disjoint_supports():
    g = catalog_graph("FIG-NH")
    c1 = oriented(g, {"e1": FORWARD, "e4": FORWARD})
    c2 = oriented(g, {"e3": BACKWARD, "e5": BACKWARD})
    assert concordant(c1, c2)


def test_concordance_b3_chamber_pair():
    g = catalog_graph("B3")
    c1 = oriented(g, {"e1": FORWARD, "e3": BACKWARD})
    c2 = oriented(g, {"e2": FORWARD, "e3": BACKWARD})
    assert concordant(c1, c2)
    assert not concordant(c1, c2.reversal())


def b3_chamber():
    g = catalog_graph("B3")
    return g, TotCycPair.create(g, frozenset(), ["e1", "e2"])


def test_compatible_circuits_b3_chamber():
    g, pair = b3_chamber()
    comp = compatible_circuits(g, pair)
    assert {frozenset(g.edges_of(c.support)) for c in comp} == \
        {frozenset({"e1", "e3"}), frozenset({"e2", "e3"})}
    phi = pair.to_json(g)["phi"]
    for c in comp:
        assert c.to_json(g) == [e + phi[e] for e in g.edges_of(c.support)]


def test_compatible_circuits_fig_nh_reference():
    g = catalog_graph("FIG-NH")
    pair = TotCycPair.create(g, frozenset(), g.edges)
    comp = compatible_circuits(g, pair)
    assert [sorted(g.edges_of(c.support)) for c in comp] == [
        ["e1", "e2", "e3"],
        ["e1", "e4"],
        ["e2", "e6"],
        ["e3", "e5"],
        ["e4", "e5", "e6"],
    ]


def test_compatible_circuits_of_minimum_is_empty():
    g = catalog_graph("B3")
    pair = TotCycPair(g.edge_mask(g.edges), 0)
    assert compatible_circuits(g, pair) == []


def test_total_cyclicity_equals_circuit_cover(graphs):
    # the two characterizations agree on every full orientation
    for name in ("B2", "B3", "C3", "LOOP1", "FIG-NG"):
        g = graphs[name]
        for signs in itertools.product((FORWARD, BACKWARD), repeat=len(g.edges)):
            dirs = dict(zip(g.edges, signs))
            assert is_totally_cyclic(g, 0, forward_mask(g, dirs)) == \
                covered_by_compatible_circuits(g, dirs)


def test_compatible_classes_generate_homology(graphs):
    # classes of compatible circuits span the cycle lattice off the support
    for name in ("B3", "C4", "FIG-NG", "THETA2"):
        g = graphs[name]
        for forward in enumerate_tco(g):
            pair = TotCycPair.create(g, (), g.edges_of(forward))
            rest_basis = fundamental_cycle_basis(g)
            rows = [rest_basis.coordinates(circuit_class(g, c))
                    for c in compatible_circuits(g, pair)]
            factors = smith_invariant_factors(rows)
            assert len(factors) == betti1(g)
            assert all(f == 1 for f in factors)


def test_decompose_single_circuit():
    g = catalog_graph("B3")
    gamma = enumerate_oriented_circuits(g)[0]
    assert decompose_cycle(g, circuit_class(g, gamma)) == [(gamma, 1)]
    assert decompose_cycle(g, 2 * circuit_class(g, gamma)) == [(gamma, 2)]


def test_decompose_rejects_non_cycle():
    with pytest.raises(ValueError):
        decompose_cycle(B2, Chain1({"a": 1}))


def test_decompose_fig_nh_relation():
    g = catalog_graph("FIG-NH")
    c = Chain1({e: 1 for e in g.edges})  # class of g1+g2+g3 = class of g4+g5
    parts = decompose_cycle(g, c)
    resum = Chain1()
    for gamma, n in parts:
        assert n > 0
        resum = resum + n * circuit_class(g, gamma)
    assert resum == c
    # every piece is concordant with the signs of c
    for gamma, _ in parts:
        assert gamma.forward == gamma.support


def test_decompose_exhaustive_small_boxes(graphs):
    # the re-sum identity over every cycle with coefficients in [-3, 3]
    for name, g in graphs.items():
        basis = fundamental_cycle_basis(g)
        for coords in itertools.product(range(-3, 4), repeat=len(basis)):
            c = basis.chain(coords)
            parts = decompose_cycle(g, c)
            resum = Chain1()
            for gamma, n in parts:
                resum = resum + n * circuit_class(g, gamma)
            assert resum == c


def test_decompose_resum_random(rng, graphs):
    names = [n for n, g in graphs.items() if betti1(g) > 0]
    for _ in range(1000):
        g = graphs[rng.choice(names)]
        basis = fundamental_cycle_basis(g)
        coords = tuple(rng.randint(-3, 3) for _ in range(len(basis)))
        c = basis.chain(coords)
        resum = Chain1()
        for gamma, n in decompose_cycle(g, c):
            resum = resum + n * circuit_class(g, gamma)
            assert n > 0
        assert resum == c


def test_support_orientation_of_empty():
    g = catalog_graph("B3")
    pair = support_orientation_of(g, [])
    assert pair.to_json(g) == {"T": list(g.edges), "phi": {}}


def test_support_orientation_of_loop():
    g = catalog_graph("LOOP1")
    gamma = oriented(g, {"e1": FORWARD})
    pair = support_orientation_of(g, [gamma])
    assert pair.to_json(g) == {"T": [], "phi": {"e1": "+"}}


def test_support_orientation_of_b3_chamber():
    g, chamber = b3_chamber()
    comp = compatible_circuits(g, chamber)
    pair = support_orientation_of(g, comp)
    assert pair == chamber


def test_support_orientation_rejects_discordant():
    g = catalog_graph("B3")
    gamma = oriented(g, {"e1": FORWARD, "e3": BACKWARD})
    with pytest.raises(ValueError):
        support_orientation_of(g, [gamma, gamma.reversal()])


def test_result_contains_inputs_as_compatible(rng, graphs):
    # the flag property: any pairwise concordant sample sits inside the
    # compatible circuits of its own support orientation
    for name in ("B3", "FIG-NG", "THETA2"):
        g = graphs[name]
        circuits = enumerate_oriented_circuits(g)
        for _ in range(100):
            sample = rng.sample(circuits, k=min(3, len(circuits)))
            pairwise = all(concordant(a, b)
                           for a, b in itertools.combinations(sample, 2))
            if not pairwise:
                with pytest.raises(ValueError):
                    support_orientation_of(g, sample)
                continue
            pair = support_orientation_of(g, sample)
            comp = set(compatible_circuits(g, pair))
            assert set(sample) <= comp


# -- hypergraph bijections ---------------------------------------------------


def assert_carries_sets_onto_sets(bijection, edges_a, sets_a, edges_b, sets_b):
    assert sorted(bijection) == sorted(edges_a)
    assert sorted(bijection.values()) == sorted(edges_b)
    assert {frozenset(map(bijection.get, s)) for s in sets_a} == \
        set(map(frozenset, sets_b))


def cycle_sets(labels):
    """The edges of the cycle through ``labels`` in order, as 2-sets."""
    return [frozenset((a, b)) for a, b in zip(labels, labels[1:] + labels[:1])]


@given(g=multigraphs(), data=st.data())
def test_hypergraph_bijection_finds_a_relabelling(g, data):
    # h is g with its edges renamed and listed in another order
    order = data.draw(st.permutations(g.edges))
    name = {e: f"f{k}" for k, e in enumerate(order)}
    h = from_edge_list([(name[e], *g.ends(e)) for e in order],
                       vertices=g.vertices)
    sets_g, sets_h = circuit_supports(g), circuit_supports(h)
    bijection = hypergraph_bijection(g.edges, sets_g, h.edges, sets_h)
    assert bijection is not None
    assert_carries_sets_onto_sets(bijection, g.edges, sets_g, h.edges, sets_h)


def test_hypergraph_bijection_b3_c3():
    b3, c3 = catalog_graph("B3"), catalog_graph("C3")
    assert hypergraph_bijection(b3.edges, circuit_supports(b3),
                                c3.edges, circuit_supports(c3)) is None


def test_hypergraph_bijection_same_profiles_not_isomorphic():
    # A 6-cycle and two triangles: every point lies on two 2-sets, so the
    # sizes and all edge profiles agree, but no bijection exists.
    points = list(range(6))
    hexagon = cycle_sets(points)
    triangles = cycle_sets([0, 1, 2]) + cycle_sets([3, 4, 5])
    assert hypergraph_bijection(points, hexagon, points, triangles) is None
    assert hypergraph_bijection(points, triangles, points, hexagon) is None


def test_hypergraph_bijection_backtracks():
    # The first candidate of every point is the point of the same name,
    # which maps no 2-set of the hexagon onto one of the scrambled hexagon.
    points = list(range(6))
    hexagon = cycle_sets(points)
    scrambled = cycle_sets([0, 2, 4, 1, 5, 3])
    bijection = hypergraph_bijection(points, hexagon, points, scrambled)
    assert bijection is not None
    assert_carries_sets_onto_sets(bijection, points, hexagon,
                                  points, scrambled)
