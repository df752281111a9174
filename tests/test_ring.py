import itertools

import pytest

from cographic import (Chain1, TotCycPair,
                       betti1, build_fan, catalog_graph, circuit_class,
                       cone_contains, delete_edges, enumerate_oriented_circuits,
                       enumerate_tco, fundamental_cycle_basis,
                       multiply_monomials, present_ring, ring_report,
                       separating_edges, sum_of_primes)
from cographic.orientations import OrientationPoset
from conftest import k4_plus
from oracles import concordant_reference


def test_present_loop1():
    p = present_ring(build_fan(catalog_graph("LOOP1")))
    assert len(p.generators) == 2
    assert len(p.discordance_quadrics) == 1
    assert all(len(ideal) == 0 for ideal in p.ideals())
    assert len(p.chambers) == 2


def test_present_b2():
    p = present_ring(build_fan(catalog_graph("B2")))
    assert len(p.generators) == 2
    assert len(p.discordance_quadrics) == 1
    assert all(len(ideal) == 0 for ideal in p.ideals())


def test_present_fig_nh_contains_the_binomial():
    g = catalog_graph("FIG-NH")
    p = present_ring(build_fan(g), degree=3)
    reference = TotCycPair.create(g, frozenset(), g.edges)
    by_label = dict(zip((s.label for s in p.chambers), p.ideals()))
    assert reference in by_label
    assert len(by_label[reference]) == 1


def test_quadrics_are_exactly_discordant_pairs(graphs):
    for name in ("LOOP1", "B3", "FIG-NG"):
        g = graphs[name]
        p = present_ring(build_fan(g))
        circuits = p.generators
        expected = {(a, b) for i, a in enumerate(circuits)
                    for b in circuits[i + 1:]
                    if not concordant_reference(g, a, b)}
        assert set(p.discordance_quadrics) == expected


def test_multiply_identity_and_zero():
    g = catalog_graph("B3")
    c = Chain1({"e1": 1, "e3": -1})
    assert multiply_monomials(g, c, Chain1()) == c
    assert multiply_monomials(g, c, -1 * c) is None


def test_multiply_b3_example():
    g = catalog_graph("B3")
    c = Chain1({"e1": 1, "e3": -1})
    d = Chain1({"e2": 1, "e3": -1})
    assert multiply_monomials(g, c, d) == Chain1({"e1": 1, "e2": 1, "e3": -2})


def test_multiply_rejects_non_cycles():
    g = catalog_graph("B3")
    with pytest.raises(ValueError):
        multiply_monomials(g, Chain1({"e1": 1}), Chain1())


def box_cycles(g, bound=2):
    basis = fundamental_cycle_basis(g)
    return [basis.chain(coords) for coords in
            itertools.product(range(-bound, bound + 1), repeat=len(basis))]


def test_multiplication_laws_sampled(rng, graphs):
    # commutative, associative, zero absorbing, unit monomial neutral
    for name in ("LOOP1", "B3", "C3"):
        g = graphs[name]
        cycles = box_cycles(g)
        for _ in range(300):
            a, b, c = (rng.choice(cycles) for _ in range(3))
            ab = multiply_monomials(g, a, b)
            ba = multiply_monomials(g, b, a)
            assert ab == ba
            left = None if ab is None else multiply_monomials(g, ab, c)
            bc = multiply_monomials(g, b, c)
            right = None if bc is None else multiply_monomials(g, a, bc)
            assert left == right


# The graded prime of a cone holds the monomials of the cycles outside it:
# membership is ``not cone_contains``.


def test_graded_prime_minimum_is_maximal_ideal():
    g = catalog_graph("B3")
    minimum = TotCycPair(g.edge_mask(g.edges), 0)
    assert cone_contains(g, minimum, Chain1())
    for c in box_cycles(g):
        if not c.is_zero():
            assert not cone_contains(g, minimum, c)


def test_graded_prime_chamber_membership():
    g = catalog_graph("B3")
    chamber = TotCycPair.create(g, frozenset(), ["e1", "e2"])
    assert not cone_contains(g, chamber, Chain1({"e3": 1, "e1": -1}))
    assert cone_contains(g, chamber, Chain1({"e1": 1, "e3": -1}))


def test_graded_prime_membership_antitone(fan_of):
    fan = fan_of("B3")
    g = fan.graph
    poset = fan.poset
    cycles = box_cycles(g)
    for p in poset:
        for q in poset:
            if not OrientationPoset.leq(p, q):
                continue
            for c in cycles:
                if not cone_contains(g, q, c):
                    assert not cone_contains(g, p, c)


def brute_tco_count(g):
    """Orientation count by the cut-free definition, off the bridges."""
    free = delete_edges(g, separating_edges(g))
    return len(enumerate_tco(free))


def test_ring_report_tree():
    r = ring_report(present_ring(build_fan(catalog_graph("TREE3"))))
    assert (r.dimension, r.embedded_dimension, r.multiplicity) == (0, 0, 1)
    assert len(r.minimal_prime_labels) == 1


def test_ring_report_b3():
    r = ring_report(present_ring(build_fan(catalog_graph("B3"))))
    assert r.dimension == 2
    assert r.embedded_dimension == 6
    assert len(r.minimal_prime_labels) == 6
    assert r.multiplicity == 6


def test_ring_report_fig_ng():
    g = catalog_graph("FIG-NG")
    r = ring_report(present_ring(build_fan(g)))
    assert r.dimension == 4
    assert r.embedded_dimension == 20
    assert len(r.minimal_prime_labels) == 30
    assert len(r.minimal_prime_labels) == brute_tco_count(g)


def test_report_identities_against_brute_force(graphs):
    for name in ("LOOP1", "B2", "B3", "C3", "C5"):
        g = graphs[name]
        r = ring_report(present_ring(build_fan(g)))
        assert r.dimension == betti1(g)
        assert r.embedded_dimension == len(enumerate_oriented_circuits(g))
        assert len(r.minimal_prime_labels) == brute_tco_count(g)


def test_union_of_hilbert_bases_is_circuit_set(fan_of):
    # embedded dimension bookkeeping: chamber bases jointly cover exactly
    # the circuit classes
    from cographic import hilbert_basis
    for name in ("LOOP1", "B3", "C4", "FIG-NG", "THETA2"):
        fan = fan_of(name)
        g = fan.graph
        union = set()
        for pair in fan.poset:
            union |= set(hilbert_basis(g, pair).hilbert_basis)
        classes = {circuit_class(g, c) for c in enumerate_oriented_circuits(g)}
        assert union == classes


def test_sum_of_primes_single_is_identity(fan_of):
    fan = fan_of("B3")
    for pair in fan.poset.maximal_elements():
        assert sum_of_primes(fan.graph, [pair]) == pair


def test_sum_of_adjacent_chambers_is_shared_ray():
    g = catalog_graph("B3")
    a = TotCycPair.create(g, frozenset(), ["e1", "e2"])
    b = TotCycPair.create(g, frozenset(), ["e1"])
    shared = sum_of_primes(g, [a, b])
    assert shared.to_json(g) == {"T": ["e2"], "phi": {"e1": "+", "e3": "-"}}


def test_sum_of_all_minimal_primes_is_maximal_ideal(fan_of):
    for name in ("B3", "LOOP1", "FIG-NG"):
        fan = fan_of(name)
        total = sum_of_primes(fan.graph, fan.poset.maximal_elements())
        assert total == fan.poset.minimum


def test_sum_of_primes_is_cone_intersection(fan_of):
    # the sum's cone contains exactly the cycles in both cones
    for fan in (fan_of("B3"), build_fan(k4_plus(0)), fan_of("FIG-NH")):
        g = fan.graph
        cycles = box_cycles(g)
        members = {}

        def inside(pair):
            if pair not in members:
                members[pair] = {i for i, c in enumerate(cycles)
                                 if cone_contains(g, pair, c)}
            return members[pair]

        maxelts = fan.poset.maximal_elements()
        for a in maxelts:
            for b in maxelts:
                label = sum_of_primes(g, [a, b])
                assert inside(label) == inside(a) & inside(b)


def test_restriction_maps_commute_with_multiplication(fan_of):
    # the ring surjects onto each cone ring by killing outside monomials;
    # those projections are ring maps on sampled monomials
    for name in ("LOOP1", "B3"):
        fan = fan_of(name)
        g = fan.graph
        cycles = box_cycles(g)
        for pair in fan.poset:
            def restrict(c):
                return (c if c is not None and cone_contains(g, pair, c)
                        else None)
            for a in cycles:
                for b in cycles:
                    lhs = restrict(multiply_monomials(g, a, b))
                    ra, rb = restrict(a), restrict(b)
                    rhs = (multiply_monomials(g, ra, rb)
                           if ra is not None and rb is not None else None)
                    assert lhs == rhs
