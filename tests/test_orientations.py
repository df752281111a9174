import itertools

import pytest
from hypothesis import given

from cographic import (TotCycPair, build_orientation_poset,
                       catalog_graph, delete_edges, enumerate_tco,
                       from_edge_list, is_totally_cyclic,
                       separating_edges, CapacityError)
from cographic.graph import FORWARD, BACKWARD
from cographic import orientations
from cographic.orientations import _forward_masks, bond_table
from conftest import K4_EDGES, multigraphs
from oracles import is_totally_cyclic_reference, maximal_elements_reference

B2 = from_edge_list([("a", 1, 2), ("b", 1, 2)])


def no_directed_cut(g, dirs):
    """Total cyclicity straight from the definition: no orientation-uniform
    edge cut out of any nonempty proper vertex subset of a component, the
    edges directed by the dict ``dirs``.  Independent of the
    strong-connectivity route and of the bond table."""
    comps = []
    seen = set()
    for v in g.vertices:
        if v in seen:
            continue
        comp = {v}
        grow = True
        while grow:
            grow = False
            for e in g.edges:
                s, t = g.ends(e)
                if (s in comp) != (t in comp):
                    comp |= {s, t}
                    grow = True
        seen |= comp
        comps.append(comp)
    for comp in comps:
        members = sorted(comp, key=g.vertex_index)
        for r in range(1, len(members)):
            for subset in itertools.combinations(members, r):
                w = set(subset)
                crossing = []
                for e in g.edges:
                    s, t = g.ends(e)
                    if (s in comp) and ((s in w) != (t in w)):
                        crossing.append(g.source((e, dirs[e])) in w)
                if crossing and (all(crossing) or not any(crossing)):
                    return False
    return True


def test_anti_parallel_banana_is_totally_cyclic():
    assert is_totally_cyclic(B2, 0, B2.edge_mask(["a"]))


def test_parallel_banana_is_not():
    assert not is_totally_cyclic(B2, 0, B2.edge_mask(["a", "b"]))


def test_fig_ng_reference_orientation_is_totally_cyclic():
    g = catalog_graph("FIG-NG")
    assert is_totally_cyclic(g, 0, g.edge_mask(g.edges))


def test_partial_orientation_rejected():
    with pytest.raises(ValueError):
        is_totally_cyclic_reference(B2, {"a": FORWARD})
    # e2 forward and e3 backward is totally cyclic off e1, but e1 is
    # deleted and cannot also run forward
    g = catalog_graph("B3")
    assert TotCycPair.create(g, ["e1"], ["e2"]) == (0b001, 0b010)
    with pytest.raises(ValueError, match="support"):
        TotCycPair.create(g, ["e1"], ["e1", "e2"])


def test_strong_connectivity_matches_cut_definition(graphs):
    for g in graphs.values():
        if len(g.edges) > 6:
            continue
        for signs in itertools.product((FORWARD, BACKWARD), repeat=len(g.edges)):
            dirs = dict(zip(g.edges, signs))
            assert is_totally_cyclic_reference(g, dirs) == \
                no_directed_cut(g, dirs)


def _assert_bond_rule_matches_cut_definition(g):
    """For every support and every sign vector on it, the bond table
    accepts exactly the vectors with no directed cut."""
    bonds = bond_table(g, g.edges)
    for r in range(len(g.edges) + 1):
        for kept in itertools.combinations(range(len(g.edges)), r):
            support = sum(1 << i for i in kept)
            accepted = set(_forward_masks(bonds, support))
            rest = delete_edges(g, [e for i, e in enumerate(g.edges)
                                    if i not in kept])
            for signs in itertools.product((FORWARD, BACKWARD), repeat=r):
                forward = sum(1 << i for i, d in zip(kept, signs)
                              if d == FORWARD)
                dirs = dict(zip(rest.edges, signs))
                assert (forward in accepted) == no_directed_cut(rest, dirs)


def test_bond_rule_matches_cut_definition(graphs):
    for g in graphs.values():
        if len(g.edges) <= 6:
            _assert_bond_rule_matches_cut_definition(g)


@given(g=multigraphs())
def test_bond_rule_matches_cut_definition_on_random_multigraphs(g):
    _assert_bond_rule_matches_cut_definition(g)


def _cycle(n):
    return from_edge_list([(f"e{i}", f"v{i}", f"v{(i + 1) % n}")
                           for i in range(n)])


@pytest.mark.parametrize("n", [2, 3, 5, 8, 20])
def test_bond_table_of_a_cycle_pairs_its_edges(n):
    g = _cycle(n)
    rows = bond_table(g, g.edges)
    assert len(rows) == n * (n - 1) // 2
    assert sorted(cut for cut, _ in rows) == sorted(
        (1 << i) | (1 << j) for i, j in itertools.combinations(range(n), 2))


def test_bond_table_sizes():
    banana = from_edge_list([(f"e{i}", 1, 2) for i in range(14)])
    assert bond_table(banana, banana.edges) == [((1 << 14) - 1, (1 << 14) - 1)]
    k4 = from_edge_list(K4_EDGES)
    assert len(bond_table(k4, k4.edges)) == 7
    # loops and isolated vertices add no bond; each component adds its own
    two = from_edge_list([("l", 1, 1), ("a", 1, 2), ("b", 2, 1),
                          ("c", 3, 4), ("d", 4, 3)], vertices=[0])
    assert bond_table(two, two.edges) == [(0b110, 0b010), (0b11000, 0b01000)]
    # two triangles sharing v: the cut around {r, v} is the union of two
    # bonds, since the rest of the graph falls apart without v
    bowtie = from_edge_list([("a", "r", "x"), ("b", "x", "v"), ("c", "v", "r"),
                             ("d", "v", "y"), ("e", "y", "z"), ("f", "z", "v")])
    assert sorted(cut for cut, _ in bond_table(bowtie, bowtie.edges)) == \
        sorted((1 << i) | (1 << j) for block in ((0, 1, 2), (3, 4, 5))
               for i, j in itertools.combinations(block, 2))


def test_enumerate_tco_with_a_bridge_builds_no_bond_table(monkeypatch):
    # the centre of a 20-edge star lies in 2^20 connected vertex sets, so
    # growing its bond table would take seconds for an answer of []
    def unreachable(g, edges):
        raise AssertionError("bond table built for a graph with a bridge")

    monkeypatch.setattr(orientations, "bond_table", unreachable)
    star = from_edge_list([(f"e{i}", 0, i + 1) for i in range(20)])
    assert enumerate_tco(star) == []
    assert not is_totally_cyclic(star, 0, 0)


def test_enumerate_tco_near_the_cap():
    # a 16-edge cycle: 2^16 sign vectors, of which only the two coherent
    # ones survive the bond of each pair of edges
    g = _cycle(16)
    assert enumerate_tco(g) == [(1 << 16) - 1, 0]


def test_enumerate_tco_counts():
    assert len(enumerate_tco(catalog_graph("B3"))) == 6
    assert enumerate_tco(catalog_graph("TREE3")) == []
    assert len(enumerate_tco(catalog_graph("FIG-NG"))) == 30


def test_enumerate_tco_edgeless():
    g = from_edge_list([], vertices=[1, 2])
    assert enumerate_tco(g) == [0]


def test_enumerate_tco_canonical_order():
    g = catalog_graph("B3")
    keys = [tuple(0 if forward >> g.edge_index(e) & 1 else 1
                  for e in ("e1", "e2", "e3"))
            for forward in enumerate_tco(g)]
    assert keys == sorted(keys)


def test_enumerate_tco_cap():
    g = from_edge_list([(f"e{i}", 1, 2) for i in range(21)])
    with pytest.raises(CapacityError):
        enumerate_tco(g)


def test_reversal_symmetry(graphs):
    for name in ("B3", "C4", "FIG-NG"):
        g = graphs[name]
        for forward in enumerate_tco(g):
            reversal = {e: BACKWARD if forward >> g.edge_index(e) & 1
                        else FORWARD for e in g.edges}
            assert is_totally_cyclic_reference(g, reversal)


def test_poset_of_tree_is_single_element():
    g = catalog_graph("TREE3")
    poset = build_orientation_poset(g)
    assert len(poset) == 1
    only = poset.elements[0]
    assert only.to_json(g) == {"T": list(g.edges), "phi": {}}
    assert poset.maximal_elements() == [only]


def test_poset_loop1():
    poset = build_orientation_poset(catalog_graph("LOOP1"))
    assert len(poset) == 3


def test_poset_b3_count_against_brute_force():
    g = catalog_graph("B3")
    poset = build_orientation_poset(g)
    assert len(poset) == 13
    # independent recount: all (T, sign pattern) pairs, cut-definition test
    count = 0
    edges = list(g.edges)
    for r in range(len(edges) + 1):
        for t in itertools.combinations(edges, r):
            rest = delete_edges(g, t)
            if not rest.edges:
                count += 1
                continue
            for signs in itertools.product((FORWARD, BACKWARD),
                                           repeat=len(rest.edges)):
                if no_directed_cut(rest, dict(zip(rest.edges, signs))):
                    count += 1
    assert count == 13


def test_poset_has_unique_minimum(graphs):
    for g in graphs.values():
        if len(g.edges) > 6:
            continue
        poset = build_orientation_poset(g)
        minimum = poset.minimum
        assert minimum in poset
        assert all(poset.leq(minimum, p) for p in poset)


def test_maximal_elements_carry_bridge_support(graphs):
    # maximal_elements filters by this rule, so the pairwise reference
    # is what tests the rule itself
    for g in graphs.values():
        if len(g.edges) > 6:
            continue
        poset = build_orientation_poset(g)
        sep = frozenset(separating_edges(g))
        for p in maximal_elements_reference(poset):
            assert set(g.edges_of(p.support)) == sep
        # and the count equals the orientation count off the bridges
        assert len(maximal_elements_reference(poset)) == \
            len(enumerate_tco(delete_edges(g, sep)))


def test_b3_maximal_are_the_six_chambers():
    g = catalog_graph("B3")
    maxelts = build_orientation_poset(g).maximal_elements()
    assert len(maxelts) == 6
    assert all(g.edges_of(p.support) == () for p in maxelts)


def test_order_relation_is_partial_order(graphs):
    for name in ("LOOP1", "B3", "C4", "FIG-NG"):
        poset = build_orientation_poset(graphs[name])
        elems = poset.elements
        for p in elems:
            assert poset.leq(p, p)
        for p in elems:
            for q in elems:
                if poset.leq(p, q) and poset.leq(q, p):
                    assert p == q
                for r in elems:
                    if poset.leq(p, q) and poset.leq(q, r):
                        assert poset.leq(p, r)


def test_totcycpair_create_validates():
    g = catalog_graph("B3")
    with pytest.raises(ValueError):
        TotCycPair.create(g, frozenset(), g.edges)
    with pytest.raises(ValueError):
        TotCycPair.create(g, {"e1", "zz"}, ["e2"])
    with pytest.raises(ValueError):
        TotCycPair.create(g, {"e1"}, ["e2", "zz"])
    pair = TotCycPair.create(g, frozenset(), ["e1", "e2"])
    assert pair.to_json(g) == {"T": [],
                               "phi": {"e1": "+", "e2": "+", "e3": "-"}}
