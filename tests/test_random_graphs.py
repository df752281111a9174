"""Seeded random multigraphs: the structural identities must hold for
arbitrary vertex/edge soups, not just the curated catalog."""

import itertools

from cographic import (Chain1, betti1, build_fan, check_iso_truncated,
                       circuit_class, connected_components, decompose_cycle,
                       delete_edges, enumerate_oriented_circuits,
                       enumerate_tco, from_edge_list,
                       fundamental_cycle_basis, hilbert_basis,
                       multiplicity_hs_oracle, present_ring, ring_report,
                       separating_edges, spans_lattice, subdiagram_volume)


def random_multigraph(rng, max_vertices=4, max_edges=6):
    nv = rng.randint(1, max_vertices)
    ne = rng.randint(1, max_edges)
    vertices = [f"v{i}" for i in range(nv)]
    spec = [(f"e{j}", rng.choice(vertices), rng.choice(vertices))
            for j in range(ne)]
    return from_edge_list(spec, vertices=vertices)


def test_random_counts_and_poset_shape(rng):
    for _ in range(40):
        g = random_multigraph(rng)
        assert betti1(g) == len(g.edges) - len(g.vertices) + \
            len(connected_components(g))
        fan = build_fan(g)
        poset = fan.poset
        minimum = poset.minimum
        assert minimum in poset
        assert all(poset.leq(minimum, p) for p in poset)
        sep = frozenset(separating_edges(g))
        maximal = poset.maximal_elements()
        assert all(p.support == sep for p in maximal)
        free = delete_edges(g, sep)
        assert len(maximal) == len(enumerate_tco(free))
        # circuits: even count, classes are sign vectors
        for gamma in enumerate_oriented_circuits(g):
            c = circuit_class(gamma)
            assert all(n in (-1, 1) for _, n in c.items())


def test_random_decompose_and_spanning(rng):
    for _ in range(40):
        g = random_multigraph(rng)
        basis = fundamental_cycle_basis(g)
        for _ in range(10):
            coords = tuple(rng.randint(-3, 3) for _ in range(len(basis)))
            c = basis.chain(coords)
            resum = Chain1()
            for gamma, n in decompose_cycle(g, c):
                resum = resum + n * circuit_class(gamma)
            assert resum == c
        fan = build_fan(g)
        for pair in fan.poset:
            assert spans_lattice(hilbert_basis(g, pair))


def test_random_multiplicity_two_routes(rng):
    for _ in range(12):
        g = random_multigraph(rng, max_edges=5)
        fan = build_fan(g)
        total = 0
        for pair in fan.poset.maximal_elements():
            s = hilbert_basis(g, pair)
            vol = subdiagram_volume(s)
            assert vol == multiplicity_hs_oracle(s)
            total += vol
        assert ring_report(present_ring(fan)).multiplicity == total


def test_random_invariant_subring(rng):
    for _ in range(10):
        g = random_multigraph(rng, max_edges=4)
        assert check_iso_truncated(g, 3)
