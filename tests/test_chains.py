import pytest

from cographic import (Chain1, TotCycPair, betti1, boundary, canonical_form,
                       catalog_graph, cone_contains, cone_of, decompose_cycle,
                       from_edge_list, fundamental_cycle_basis, inner_product,
                       is_cycle, multiply_monomials)
from cographic.graph import FORWARD, BACKWARD

B2 = from_edge_list([("a", 1, 2), ("b", 1, 2)])
LOOP1 = catalog_graph("LOOP1")


def random_chain(rng, g, bound=5):
    return Chain1({e: rng.randint(-bound, bound) for e in g.edges})


def test_boundary_single_edge():
    assert boundary(B2, Chain1({"a": 1})) == {2: 1, 1: -1}


def test_boundary_parallel_difference_cancels():
    assert boundary(B2, Chain1({"a": 1, "b": -1})) == {}


def test_boundary_loop_vanishes():
    assert boundary(LOOP1, Chain1({"e1": 3})) == {}


def test_boundary_unknown_edge():
    with pytest.raises(ValueError, match="unknown edge id 'zzz'"):
        boundary(B2, Chain1({"zzz": 1}))


B3 = catalog_graph("B3")
B3_CHAMBER = TotCycPair.create(B3, frozenset(), ["e1", "e2"])


@pytest.mark.parametrize("call", [
    lambda c: is_cycle(B3, c),
    lambda c: cone_of(B3, c),
    lambda c: cone_contains(B3, B3_CHAMBER, c),
    lambda c: decompose_cycle(B3, c),
    lambda c: multiply_monomials(B3, c, Chain1()),
], ids=["is_cycle", "cone_of", "cone_contains", "decompose_cycle",
        "multiply_monomials"])
def test_unknown_edge_raises_value_error(call):
    # every caller of ``boundary`` reports the edge as its docstring says
    with pytest.raises(ValueError, match="unknown edge id 'zz'"):
        call(Chain1({"zz": 1}))


def test_is_cycle():
    assert is_cycle(B2, Chain1({"a": 1, "b": -1}))
    assert not is_cycle(B2, Chain1({"a": 1}))


def test_theta2_triangle_is_cycle():
    theta = catalog_graph("THETA2")
    assert is_cycle(theta, Chain1({"e10": 1, "e20": 1, "e30": 1}))


def test_inner_product_rules():
    c = Chain1({"a": 1, "b": -1})
    assert inner_product(c, c) == 2
    assert inner_product(Chain1({"a": 1}), Chain1({"b": 1})) == 0
    # pairing an edge with its own reversal
    assert inner_product(Chain1({"a": 1}), Chain1({"a": -1})) == -1


def test_inner_product_symmetric_bilinear(rng):
    g = catalog_graph("THETA2")
    for _ in range(200):
        c, d, e = (random_chain(rng, g) for _ in range(3))
        k = rng.randint(-3, 3)
        assert inner_product(c, d) == inner_product(d, c)
        assert inner_product(c + d, e) == inner_product(c, e) + inner_product(d, e)
        assert inner_product(k * c, d) == k * inner_product(c, d)


def test_positive_definite(rng, graphs):
    names = [n for n, g in graphs.items() if g.edges]
    checked = 0
    while checked < 1000:
        g = graphs[rng.choice(names)]
        c = random_chain(rng, g)
        if c.is_zero():
            continue
        assert inner_product(c, c) > 0
        checked += 1


def test_basis_of_tree_is_empty():
    basis = fundamental_cycle_basis(catalog_graph("TREE3"))
    assert len(basis) == 0


def test_basis_b3():
    b3 = catalog_graph("B3")
    basis = fundamental_cycle_basis(b3)
    assert basis.forest == ("e1",)
    assert basis.coforest == ("e2", "e3")
    assert basis.basis[0] == Chain1({"e2": 1, "e1": -1})
    assert basis.basis[1] == Chain1({"e3": 1, "e1": -1})


def test_basis_size_is_betti1(graphs):
    for g in graphs.values():
        assert len(fundamental_cycle_basis(g)) == betti1(g)


def test_basis_elements_are_cycles_with_identity_coordinates(graphs):
    for g in graphs.values():
        basis = fundamental_cycle_basis(g)
        for i, b in enumerate(basis.basis):
            assert is_cycle(g, b)
            assert all(n in (-1, 0, 1) for _, n in b.items())
            coords = basis.coordinates(b)
            assert coords == tuple(1 if j == i else 0
                                   for j in range(len(basis)))


def test_basis_spans_over_z(rng, graphs):
    # random integer cycles round-trip through coordinates
    names = [n for n, g in graphs.items() if betti1(g) > 0]
    for _ in range(300):
        g = graphs[rng.choice(names)]
        basis = fundamental_cycle_basis(g)
        coords = tuple(rng.randint(-4, 4) for _ in range(len(basis)))
        c = basis.chain(coords)
        assert is_cycle(g, c)
        assert basis.coordinates(c) == coords


def test_loop_fundamental_cycle():
    basis = fundamental_cycle_basis(LOOP1)
    assert basis.forest == ()
    assert basis.basis == [Chain1({"e1": 1})]


def test_canonical_form_zero():
    support, phi, mult = canonical_form(B2, Chain1())
    assert support == () and phi == {} and mult == {}


def test_canonical_form_signs():
    support, phi, mult = canonical_form(B2, Chain1({"a": 2, "b": -1}))
    assert support == ("a", "b")
    assert phi == {"a": FORWARD, "b": BACKWARD}
    assert mult == {"a": 2, "b": 1}


def test_canonical_form_reconstruction(rng, graphs):
    names = [n for n, g in graphs.items() if g.edges]
    for _ in range(1000):
        g = graphs[rng.choice(names)]
        c = random_chain(rng, g)
        support, phi, mult = canonical_form(g, c)
        rebuilt = Chain1({e: phi[e] * mult[e] for e in support})
        assert rebuilt == c
        assert all(m > 0 for m in mult.values())


def test_chain_json_round_trip():
    c = Chain1({"a": 2, "b": -1})
    assert Chain1.from_json(c.to_json()) == c


def test_non_integral_coefficient_raises():
    # int() would truncate 0.5 to a stored zero and 1.9 to 1
    with pytest.raises(ValueError):
        Chain1({"a": 0.5})
    with pytest.raises(ValueError):
        Chain1.from_json({"a": 1.9})
    assert Chain1({"a": 2, "b": 0, "c": -1}).to_json() == {"a": 2, "c": -1}
    assert Chain1([("a", 0)]) == Chain1()
