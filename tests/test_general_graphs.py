"""Generality beyond the bundled catalog: disconnected graphs, isolated
vertices, mixtures of loops with bridges, and graphs over the edge caps."""

import pytest

from cographic import (CapacityError, TotCycPair, betti1, build_fan, build_orientation_poset,
                       catalog_graph, check_iso_truncated, compatible_circuits,
                       cyclically_equivalent, enumerate_oriented_circuits,
                       enumerate_tco, from_edge_list, hilbert_basis,
                       present_ring, ring_report, same_cographic_ring,
                       separating_edges, three_edge_connectivization)
from cographic.torelli import circuit_supports


def two_triangles():
    return from_edge_list([
        ("a1", "u1", "u2"), ("a2", "u2", "u3"), ("a3", "u3", "u1"),
        ("b1", "w1", "w2"), ("b2", "w2", "w3"), ("b3", "w3", "w1")])


def loop_with_bridge():
    return from_edge_list([("l", "v1", "v1"), ("br", "v1", "v2")],
                          vertices=["z"])


def test_disjoint_triangles_counts():
    g = two_triangles()
    assert betti1(g) == 2
    assert separating_edges(g) == ()
    assert len(enumerate_tco(g)) == 4          # 2 orientations per triangle
    assert len(enumerate_oriented_circuits(g)) == 4
    # poset: minimum, one ray per oriented triangle, four product chambers
    assert len(build_orientation_poset(g)) == 9


def test_disjoint_triangles_ring():
    g = two_triangles()
    r = ring_report(present_ring(build_fan(g)))
    assert r.dimension == 2
    assert r.embedded_dimension == 4
    assert len(r.minimal_prime_labels) == 4
    assert r.multiplicity == 4  # four smooth product chambers
    assert check_iso_truncated(g, 3)


def test_disjoint_triangles_connectivize_to_two_loops():
    g = three_edge_connectivization(two_triangles())
    assert len(g.edges) == 2
    assert all(g.is_loop(e) for e in g.edges)
    assert betti1(g) == 2


def test_loop_with_bridge():
    g = loop_with_bridge()
    assert separating_edges(g) == ("br",)
    poset = build_orientation_poset(g)
    assert len(poset) == 3
    maximal = poset.maximal_elements()
    assert len(maximal) == 2
    assert all(g.edges_of(p.support) == ("br",) for p in maximal)
    r = ring_report(present_ring(build_fan(g)))
    assert (r.dimension, r.embedded_dimension, r.multiplicity) == (1, 2, 2)
    assert same_cographic_ring(g, catalog_graph("LOOP1"))
    assert check_iso_truncated(g, 4)


def test_isolated_vertices_are_inert():
    bare = from_edge_list([("e1", "v1", "v2"), ("e2", "v1", "v2")])
    padded = from_edge_list([("e1", "v1", "v2"), ("e2", "v1", "v2")],
                            vertices=["x", "y"])
    assert betti1(bare) == betti1(padded) == 1
    assert len(enumerate_tco(padded)) == len(enumerate_tco(bare)) == 2
    assert len(build_fan(padded)) == len(build_fan(bare))
    assert same_cographic_ring(bare, padded)


def banana(m):
    return from_edge_list([(f"e{i}", 1, 2) for i in range(m)])


def banana_chamber(g):
    """The chamber that runs e0 forward and every other edge backward."""
    return TotCycPair(0, g.edge_mask(["e0"]))


# Every capped entry point, on a banana one edge over its stage's cap.  The
# circuit consumers all reach the cap of the circuit walk itself.  The
# invariant check caps a count of chains: banana10 fits at degree 4, not 5.
POSET_CAP = ("orientation poset edge cap", 15, 14)
CIRCUIT_CAP = ("circuit enumeration edge cap", 21, 20)


@pytest.mark.parametrize("m, call, expected", [
    (15, build_orientation_poset, POSET_CAP),
    (15, build_fan, POSET_CAP),
    (15, three_edge_connectivization, ("connectivization edge cap", 15, 14)),
    (15, lambda g: cyclically_equivalent(g, g),
     ("cyclic equivalence edge cap", 15, 14)),
    (15, lambda g: same_cographic_ring(g, g),
     ("connectivization edge cap", 15, 14)),
    (21, enumerate_tco, ("orientation enumeration edge cap", 21, 20)),
    (21, enumerate_oriented_circuits, CIRCUIT_CAP),
    (21, lambda g: compatible_circuits(g, banana_chamber(g)), CIRCUIT_CAP),
    (21, lambda g: hilbert_basis(g, banana_chamber(g)), CIRCUIT_CAP),
    (21, circuit_supports, CIRCUIT_CAP),
    (10, lambda g: check_iso_truncated(g, 5),
     ("invariant check chain cap", 590557, 100000)),
], ids=["poset", "fan", "connectivize", "equivalent", "same_ring", "tco",
        "circuits", "compatible", "hilbert_basis", "circuit_supports",
        "invariant_check"])
def test_capped_entry_points(m, call, expected):
    with pytest.raises(CapacityError) as info:
        call(banana(m))
    assert (info.value.what, info.value.size, info.value.cap) == expected
