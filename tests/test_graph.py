import pytest
from hypothesis import given

from cographic import (betti1, catalog_graph, contract_edge, delete_edges,
                       from_edge_list, graph_to_text, parse_graph_text,
                       separating_edges, GraphParseError)
from cographic.graph import Graph
from conftest import multigraphs
from oracles import connected_components_reference


def brute_components(g):
    """Independent component count by edge-relation closure."""
    groups = [{v} for v in g.vertices]
    for e in g.edges:
        s, t = g.ends(e)
        gs = next(grp for grp in groups if s in grp)
        gt = next(grp for grp in groups if t in grp)
        if gs is not gt:
            groups.remove(gt)
            gs |= gt
    return len(groups)


def brute_betti1(g):
    return len(g.edges) - len(g.vertices) + brute_components(g)


def test_from_edge_list_banana():
    g = from_edge_list([("a", 1, 2), ("b", 1, 2)])
    assert g.vertices == (1, 2)
    assert g.edges == ("a", "b")
    assert g.ends("a") == (1, 2)


def test_from_edge_list_loop():
    g = from_edge_list([("l", 1, 1)])
    assert g.vertices == (1,)
    assert g.is_loop("l")


def test_from_edge_list_duplicate_edge_rejected():
    with pytest.raises(ValueError):
        from_edge_list([("a", 1, 2), ("a", 2, 3)])


def test_from_edge_list_empty():
    g = from_edge_list([])
    assert g.vertices == () and g.edges == ()


def test_theta2_shape():
    g = catalog_graph("THETA2")
    assert len(g.vertices) == 3
    assert len(g.edges) == 6
    assert betti1(g) == 4


def test_delete_edges():
    b2 = from_edge_list([("a", 1, 2), ("b", 1, 2)])
    g = delete_edges(b2, {"b"})
    assert g.edges == ("a",)
    assert g.vertices == (1, 2)
    assert delete_edges(b2, set()) == b2


def test_delete_edges_unknown_id():
    b2 = from_edge_list([("a", 1, 2), ("b", 1, 2)])
    with pytest.raises(ValueError):
        delete_edges(b2, {"zzz"})


def test_delete_from_theta2():
    g = delete_edges(catalog_graph("THETA2"), {"e11"})
    assert len(g.edges) == 5
    assert betti1(g) == 3  # 5 - 3 + 1


def test_contract_path_edge():
    path = from_edge_list([("a", 1, 2), ("b", 2, 3)])
    g = contract_edge(path, "a")
    assert g.vertices == (1, 3)
    assert g.edges == ("b",)
    assert g.ends("b") == (1, 3)  # merged vertex keeps the lower id


def test_contract_banana_gives_loop():
    b2 = from_edge_list([("a", 1, 2), ("b", 1, 2)])
    g = contract_edge(b2, "a")
    assert g.vertices == (1,)
    assert g.is_loop("b")


def test_contract_loop_rejected():
    loop = from_edge_list([("l", 1, 1)])
    with pytest.raises(ValueError):
        contract_edge(loop, "l")


def test_contract_preserves_betti1(rng):
    names = ["B3", "C5", "THETA2", "FIG-NH", "C7", "TREE3"]
    done = 0
    while done < 20:
        g = catalog_graph(rng.choice(names))
        non_loops = [e for e in g.edges if not g.is_loop(e)]
        if not non_loops:
            continue
        e = rng.choice(non_loops)
        assert betti1(contract_edge(g, e)) == brute_betti1(g)
        done += 1


def test_separating_edges_path():
    path = from_edge_list([("a", 1, 2), ("b", 2, 3)])
    assert separating_edges(path) == ("a", "b")


def test_separating_edges_parallel_never():
    assert separating_edges(catalog_graph("B3")) == ()
    assert separating_edges(catalog_graph("FIG-NG")) == ()


def test_separating_edges_loop_never():
    assert separating_edges(catalog_graph("LOOP1")) == ()


def test_betti1_values():
    assert betti1(catalog_graph("B3")) == 2
    assert betti1(catalog_graph("FIG-NG")) == 4
    assert betti1(catalog_graph("THETA2")) == 4
    assert betti1(catalog_graph("TREE3")) == 0


def test_deleting_edges_drops_betti1_as_expected(graphs):
    for g in graphs.values():
        bridges = set(separating_edges(g))
        for e in g.edges:
            drop = betti1(g) - betti1(delete_edges(g, {e}))
            assert drop == (0 if e in bridges else 1)


def test_bridge_free_after_deleting_all_bridges(graphs):
    for g in graphs.values():
        rest = delete_edges(g, separating_edges(g))
        assert separating_edges(rest) == ()


def test_enumeration_order_deterministic():
    spec = [("b", 5, 1), ("a", 1, 2), ("c", 2, 5)]
    g1 = from_edge_list(spec)
    g2 = from_edge_list(spec)
    assert g1.vertices == g2.vertices == (5, 1, 2)
    assert g1.edges == g2.edges == ("b", "a", "c")
    assert g1 == g2


def test_text_round_trip(graphs):
    for g in graphs.values():
        text = graph_to_text(g)
        again = parse_graph_text(text)
        assert graph_to_text(again) == text
        assert [again.ends(e) for e in again.edges] == \
            [tuple(map(str, g.ends(e))) for e in g.edges]


@given(g=multigraphs())
def test_text_round_trip_on_random_multigraphs(g):
    assert parse_graph_text(graph_to_text(g)) == g


@pytest.mark.parametrize("spec, bad", [
    ([("a b", "u", "v"), ("c", "v", "u")], "a b"),
    ([("", "u", "v")], ""),
    ([("a", "u", "v"), ("b#", "v", "u")], "b#"),
    ([("a", "u", "v w")], "v w"),
    ([("a", "u\t", "v")], "u\t"),
    ([("a", "#", "v")], "#"),
])
def test_text_rejects_ids_it_cannot_hold(spec, bad):
    # Whitespace splits a line and '#' starts a comment, so such an id
    # would not read back; writing it raises instead of writing bad text.
    with pytest.raises(ValueError) as err:
        graph_to_text(from_edge_list(spec))
    assert repr(bad) in str(err.value)


def test_text_rejects_ids_that_merge():
    # Vertex 1 and vertex "1" are both written as 1, so the text would
    # read back with one vertex; edge ids are strings once built by
    # from_edge_list, but a Graph built directly may hold others.
    g = from_edge_list([("a", 1, "1"), ("b", "1", 1)])
    assert len(g.vertices) == 2
    with pytest.raises(ValueError, match="two vertex ids are written as '1'"):
        graph_to_text(g)
    h = Graph(["v"], [1, "1"], {1: ("v", "v"), "1": ("v", "v")})
    with pytest.raises(ValueError, match="two edge ids are written as '1'"):
        graph_to_text(h)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphParseError) as err:
        parse_graph_text("edge a v1 v2\nedge broken\n")
    assert err.value.line == 2
    with pytest.raises(GraphParseError):
        parse_graph_text("wat v1\n")


def test_parse_comments_and_blanks():
    g = parse_graph_text("# a loop\n\nvertex v9\nedge l v1 v1  # trailing\n")
    assert g.vertices == ("v9", "v1")
    assert g.is_loop("l")


def test_components():
    g = from_edge_list([("a", 1, 2)], vertices=[3])
    assert len(connected_components_reference(g)) == brute_components(g) == 2
