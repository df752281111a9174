"""Random multigraphs drawn by Hypothesis: the structural identities must
hold for arbitrary vertex/edge soups, not just the curated catalog.  A
failing graph shrinks to a smallest counterexample."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cographic import (Chain1, betti1, build_fan, check_iso_truncated,
                       circuit_class, decompose_cycle,
                       delete_edges, enumerate_oriented_circuits,
                       enumerate_tco, fundamental_cycle_basis, hilbert_basis,
                       multiplicity_hs_oracle, present_ring, ring_report,
                       separating_edges, spans_lattice, subdiagram_volume)
from conftest import multigraphs
from oracles import connected_components_reference


@given(g=multigraphs(max_edges=6))
def test_random_counts_and_poset_shape(g):
    assert betti1(g) == len(g.edges) - len(g.vertices) + \
        len(connected_components_reference(g))
    fan = build_fan(g)
    poset = fan.poset
    minimum = poset.minimum
    assert minimum in poset
    assert all(poset.leq(minimum, p) for p in poset)
    sep = frozenset(separating_edges(g))
    maximal = poset.maximal_elements()
    assert all(set(g.edges_of(p.support)) == sep for p in maximal)
    free = delete_edges(g, sep)
    assert len(maximal) == len(enumerate_tco(free))
    # circuits: even count, classes are sign vectors
    for gamma in enumerate_oriented_circuits(g):
        c = circuit_class(g, gamma)
        assert all(n in (-1, 1) for _, n in c.items())


@given(g=multigraphs(max_edges=6), data=st.data())
def test_random_decompose_and_spanning(g, data):
    basis = fundamental_cycle_basis(g)
    point = st.tuples(*[st.integers(-3, 3)] * len(basis))
    for coords in data.draw(st.lists(point, min_size=10, max_size=10)):
        c = basis.chain(coords)
        resum = Chain1()
        for gamma, n in decompose_cycle(g, c):
            resum = resum + n * circuit_class(g, gamma)
        assert resum == c
    fan = build_fan(g)
    for pair in fan.poset:
        assert spans_lattice(hilbert_basis(g, pair))


@settings(max_examples=12)
@given(g=multigraphs(max_edges=5))
def test_random_multiplicity_two_routes(g):
    fan = build_fan(g)
    total = 0
    for pair in fan.poset.maximal_elements():
        s = hilbert_basis(g, pair)
        vol = subdiagram_volume(s)
        assert vol == multiplicity_hs_oracle(s)
        total += vol
    assert ring_report(present_ring(fan)).multiplicity == total


@settings(max_examples=10)
@given(g=multigraphs(max_edges=4))
def test_random_invariant_subring(g):
    assert check_iso_truncated(g, 3)
