"""Generality beyond the bundled catalog: disconnected graphs, isolated
vertices, and mixtures of loops with bridges."""

from cographic import (betti1, build_fan, build_orientation_poset,
                       catalog_graph, check_iso_truncated,
                       enumerate_oriented_circuits, enumerate_tco,
                       from_edge_list, present_ring, ring_report,
                       same_cographic_ring,
                       separating_edges, three_edge_connectivization)


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
    assert all(p.support == frozenset({"br"}) for p in maximal)
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
    assert len(build_fan(padded).cones) == len(build_fan(bare).cones)
    assert same_cographic_ring(bare, padded)
