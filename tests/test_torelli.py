from cographic import (betti1, catalog_graph, cyclically_equivalent,
                       from_edge_list, same_cographic_ring,
                       three_edge_connectivization, two_edge_cuts)


def with_pendant(g, tag="pendant"):
    spec = [(e, *g.ends(e)) for e in g.edges]
    anchor = g.vertices[0]
    return from_edge_list(spec + [(tag, anchor, f"{tag}_v")],
                          vertices=g.vertices)


def test_two_edge_cuts_b2():
    assert two_edge_cuts(catalog_graph("B2")) == [("e1", "e2")]


def test_two_edge_cuts_b3_empty():
    assert two_edge_cuts(catalog_graph("B3")) == []


def test_two_edge_cuts_doubled_triangle_empty():
    # every vertex of the doubled triangle has degree four, so no pair of
    # edges can disconnect it
    assert two_edge_cuts(catalog_graph("FIG-NH")) == []
    assert two_edge_cuts(catalog_graph("THETA2")) == []


def test_two_edge_cuts_cycles():
    g = catalog_graph("C4")
    cuts = two_edge_cuts(g)
    assert len(cuts) == 6  # any two edges of a cycle disconnect it
    assert all(len(set(pair)) == 2 for pair in cuts)


def test_loops_never_in_cuts():
    g = from_edge_list([("l", 1, 1), ("a", 1, 2), ("b", 2, 1)])
    assert all("l" not in pair for pair in two_edge_cuts(g))


def test_connectivize_tree_to_point():
    g = three_edge_connectivization(catalog_graph("TREE3"))
    assert len(g.vertices) == 1 and len(g.edges) == 0


def test_connectivize_b2_to_loop():
    g = three_edge_connectivization(catalog_graph("B2"))
    assert len(g.edges) == 1
    assert g.is_loop(g.edges[0])


def test_connectivize_cycles_to_loop():
    for n in range(3, 8):
        g = three_edge_connectivization(catalog_graph(f"C{n}"))
        assert len(g.edges) == 1 and g.is_loop(g.edges[0])


def test_connectivize_preserves_betti1(graphs):
    for g in graphs.values():
        assert betti1(three_edge_connectivization(g)) == betti1(g)


def test_connectivize_idempotent(graphs):
    for g in graphs.values():
        once = three_edge_connectivization(g)
        twice = three_edge_connectivization(once)
        assert cyclically_equivalent(once, twice)


def test_connectivize_choice_independent(graphs):
    # contracting the other member of each separating pair lands in the
    # same cyclic equivalence class
    from cographic.chains import separating_edges
    from cographic.graph import contract_edge
    from cographic.torelli import two_edge_cuts as cuts

    def connectivize_other(g):
        while True:
            bridges = separating_edges(g)
            if not bridges:
                break
            g = contract_edge(g, bridges[0])
        while True:
            pairs = cuts(g)
            if not pairs:
                break
            pair = min(pairs, key=lambda c: (g.edge_index(c[0]),
                                             g.edge_index(c[1])))
            g = contract_edge(g, pair[1])
        return g

    for g in graphs.values():
        assert cyclically_equivalent(three_edge_connectivization(g),
                                     connectivize_other(g))


def test_cyclic_equivalence_reflexive(graphs):
    for g in graphs.values():
        assert cyclically_equivalent(g, g)


def test_cyclic_equivalence_b3_vs_triangle():
    # same edge count, different circuit size multisets
    assert not cyclically_equivalent(catalog_graph("B3"), catalog_graph("C3"))


def test_cyclic_equivalence_needs_equal_edge_counts():
    assert not cyclically_equivalent(catalog_graph("B2"), catalog_graph("B3"))


def test_theta2_equivalent_to_fig_nh():
    # same underlying multigraph, different reference orientations
    assert cyclically_equivalent(catalog_graph("THETA2"),
                                 catalog_graph("FIG-NH"))


def test_same_ring_across_cycles():
    names = ["B2"] + [f"C{n}" for n in range(3, 8)]
    for a in names:
        for b in names:
            assert same_cographic_ring(catalog_graph(a), catalog_graph(b))


def test_same_ring_b3_vs_c4():
    assert not same_cographic_ring(catalog_graph("B3"), catalog_graph("C4"))


def test_pendant_edges_never_change_the_verdict(graphs):
    names = ["LOOP1", "B2", "B3", "C4", "FIG-NG"]
    for name in names:
        g = graphs[name]
        assert same_cographic_ring(g, with_pendant(g))
    for a in names:
        for b in names:
            assert same_cographic_ring(graphs[a], graphs[b]) == \
                same_cographic_ring(with_pendant(graphs[a]), graphs[b])
