"""Acceptance suite: every criterion the package must meet, one test each.

All arithmetic is exact, so every comparison below is equality, never a
tolerance.  Each test prints one verdict line (run with ``-s`` to see
them).  Reference values are recomputed here by independent brute force:
orientation counts through the directed-cut definition, circuit counts
through subset enumeration, cone membership through explicit search.
"""

import itertools

from cographic import (Chain1, TotCycPair, betti1,
                       build_fan, build_orientation_poset, canonical_form,
                       catalog_graph, catalog_names, check_iso_truncated,
                       circuit_class, common_cone, cone_contains,
                       decompose_cycle, delete_edges,
                       enumerate_oriented_circuits, enumerate_tco, facets,
                       from_edge_list, fundamental_cycle_basis,
                       hilbert_basis, inner_product,
                       is_homogeneous, is_unimodular, multiplicity_hs_oracle,
                       present_ring, q_gorenstein,
                       ring_report, same_cographic_ring, separating_edges,
                       subdiagram_volume, toric_ideal_up_to_degree)
from cographic.linalg import det_int
from cographic.orientations import OrientationPoset
from oracles import (FinitePoset, cone_leq_reference,
                     connected_components_reference, find_poset_isomorphism,
                     irreducible_points_up_to_degree, solve_rational)

CATALOG = catalog_names()


def reference_chamber(name):
    g = catalog_graph(name)
    pair = TotCycPair.create(g, frozenset(), g.edges)
    return g, pair, hilbert_basis(g, pair)


# -- independent brute-force oracles --------------------------------------


def oracle_tco_count(g):
    """Totally cyclic orientations via the directed-cut definition."""
    if not g.edges:
        return 1
    count = 0
    for signs in itertools.product((1, -1), repeat=len(g.edges)):
        phi = dict(zip(g.edges, signs))
        if _no_uniform_cut(g, phi):
            count += 1
    return count


def _no_uniform_cut(g, phi):
    comps = connected_components_reference(g)
    for comp in comps:
        members = sorted(comp, key=g.vertex_index)
        for r in range(1, len(members)):
            for subset in itertools.combinations(members, r):
                w = set(subset)
                crossing = [
                    ((g.ends(e)[0] if phi[e] == 1 else g.ends(e)[1]) in w)
                    for e in g.edges
                    if g.ends(e)[0] in comp and (g.ends(e)[0] in w) != (g.ends(e)[1] in w)
                ]
                if crossing and (all(crossing) or not any(crossing)):
                    return False
    return True


def oracle_circuit_count(g):
    """Oriented circuits via edge-subset enumeration: connected, bridge
    free, first Betti number one; two orientations each."""
    supports = 0
    for r in range(1, len(g.edges) + 1):
        for sub in itertools.combinations(g.edges, r):
            vertices = {v for e in sub for v in g.ends(e)}
            h = from_edge_list([(e, *g.ends(e)) for e in sub],
                               vertices=sorted(vertices, key=g.vertex_index))
            if len(connected_components_reference(h)) != 1:
                continue
            if betti1(h) == 1 and not separating_edges(h):
                supports += 1
    return 2 * supports


# -- criterion 1: doubled triangle, eight-element basis, non-unimodular ---


def test_acceptance_1_theta2_basis_matrix():
    g, pair, s = reference_chamber("THETA2")
    assert len(s.hilbert_basis) == 8

    def triangle(i, j, k):
        return Chain1({f"e1{i}": 1, f"e2{j}": 1, f"e3{k}": 1})

    reference_basis = [triangle(0, 0, 0), triangle(1, 0, 0),
                       triangle(0, 1, 0), triangle(0, 0, 1)]
    column_order = [triangle(0, 0, 0), triangle(1, 0, 0), triangle(0, 1, 0),
                    triangle(0, 0, 1), triangle(1, 1, 0), triangle(1, 0, 1),
                    triangle(0, 1, 1), triangle(1, 1, 1)]
    assert set(column_order) == set(s.hilbert_basis)

    fundamental = s.cycle_basis
    base_matrix = [list(fundamental.coordinates(b)) for b in reference_basis]
    transposed = [[base_matrix[r][c] for r in range(4)] for c in range(4)]

    def coords_in_reference_basis(c):
        target = list(fundamental.coordinates(c))
        x = solve_rational(transposed, target)
        assert x is not None and all(v.denominator == 1 for v in x)
        return [int(v) for v in x]

    matrix = [coords_in_reference_basis(c) for c in column_order]
    columns = [list(col) for col in matrix]
    expected = [
        [1, 0, 0, 0, -1, -1, -1, -2],
        [0, 1, 0, 0, 1, 1, 0, 1],
        [0, 0, 1, 0, 1, 0, 1, 1],
        [0, 0, 0, 1, 0, 1, 1, 1],
    ]
    got = [[columns[c][r] for c in range(8)] for r in range(4)]
    assert got == expected

    minor_1234 = det_int([[got[r][c] for c in (0, 1, 2, 3)] for r in range(4)])
    minor_2348 = det_int([[got[r][c] for c in (1, 2, 3, 7)] for r in range(4)])
    assert abs(minor_1234) == 1
    assert abs(minor_2348) == 2

    uni, witness = is_unimodular(s)
    assert uni is False
    (c1, m1), (c2, m2) = witness
    assert {abs(m1), abs(m2)} == {1, 2}
    print("ACCEPTANCE 1 PASS: doubled-triangle chamber basis matrix, "
          "minors 1 and 2, unimodularity fails")


# -- criterion 2: five-banana chamber, five facets, not Q-Gorenstein ------


def test_acceptance_2_fig_ng_chamber():
    g, pair, s = reference_chamber("FIG-NG")
    facet_list = facets(g, pair)
    assert len(facet_list) == 5
    qg, integral, witness = q_gorenstein(s)
    assert qg is False and integral is False and witness is None
    print("ACCEPTANCE 2 PASS: five-banana chamber has 5 facets and is "
          "not Q-Gorenstein")


# -- criterion 3: mixed doubled triangle, one inhomogeneous binomial ------


def test_acceptance_3_fig_nh_binomial():
    g, pair, s = reference_chamber("FIG-NH")
    assert len(s.hilbert_basis) == 5
    ideal = toric_ideal_up_to_degree(s, 3)
    assert len(ideal.generators) == 1
    u, v = ideal.generators[0]
    weights = {}
    for exponents in (u, v):
        total = Chain1()
        for k, c in zip(exponents, s.hilbert_basis):
            total = total + k * c
        weights[exponents] = total
    assert weights[u] == weights[v]
    # the two sides: the three two-edge circuits against the two triangles
    sides = {tuple(sorted(len(c.support()) for k, c in
                          zip(exp, s.hilbert_basis) if k))
             for exp in (u, v)}
    assert sides == {(2, 2, 2), (3, 3)}
    assert all(k in (0, 1) for k in u + v)
    assert not is_homogeneous(ideal)
    print("ACCEPTANCE 3 PASS: mixed doubled triangle yields exactly the "
          "degree 3 = 2 binomial; ideal inhomogeneous")


# -- criterion 4: invariant identities across the catalog -----------------


def test_acceptance_4_invariant_identities():
    for name in CATALOG:
        g = catalog_graph(name)
        report = ring_report(present_ring(build_fan(g)))
        poset = build_orientation_poset(g)
        maximal = poset.maximal_elements()
        free = delete_edges(g, separating_edges(g))
        assert report.dimension == betti1(g), name
        assert report.embedded_dimension == oracle_circuit_count(g), name
        assert report.embedded_dimension == \
            len(enumerate_oriented_circuits(g)), name
        assert len(report.minimal_prime_labels) == oracle_tco_count(free), name
        assert len(report.minimal_prime_labels) == len(maximal), name
        assert len(maximal) == len(enumerate_tco(free)), name
    print("ACCEPTANCE 4 PASS: dimension, embedded dimension, minimal "
          "primes, chamber counts match brute force on all "
          f"{len(CATALOG)} catalog graphs")


# -- criterion 5: multiplicity via two independent algorithms -------------


def test_acceptance_5_multiplicity_agreement(fan_of):
    totals = {}
    for name in CATALOG:
        fan = fan_of(name)
        g = fan.graph
        total = 0
        for pair in fan.poset.maximal_elements():
            s = hilbert_basis(g, pair)
            vol = subdiagram_volume(s)
            hs = multiplicity_hs_oracle(s)
            assert vol == hs, (name, pair)
            total += vol
        assert ring_report(present_ring(fan)).multiplicity == total, name
        totals[name] = total
    assert totals["B3"] == 6
    assert totals["LOOP1"] == 2
    print("ACCEPTANCE 5 PASS: subdiagram volume equals the Hilbert-Samuel "
          f"multiplicity on every chamber; totals {totals}")


# -- criterion 6: the three posets are isomorphic --------------------------


def test_acceptance_6_poset_triangle(fan_of):
    for name in CATALOG:
        fan = fan_of(name)
        # explicit bijection: the identity on labels; the cone order is
        # computed from cone membership of rays, the syntactic order from
        # restriction of orientations.  The strata are indexed by the same
        # labels, ordered by reverse inclusion of primes, which is cone
        # inclusion.
        cone_order = cone_leq_reference(fan.graph)
        for p in fan.poset:
            for q in fan.poset:
                assert OrientationPoset.leq(p, q) == cone_order(p, q), \
                    (name, p, q)
    # and an explicit isomorphism search on one instance for good measure
    fan = fan_of("B3")
    a = FinitePoset(list(fan.poset), OrientationPoset.leq)
    b = FinitePoset(list(fan.poset), cone_leq_reference(fan.graph))
    assert find_poset_isomorphism(a, b) is not None
    print("ACCEPTANCE 6 PASS: orientation and fan orders coincide under the "
          "label bijection on the whole catalog (the strata are indexed by "
          "the same labels)")


# -- criterion 7: truncated invariant-ring verification --------------------


def test_acceptance_7_invariant_ring():
    for name in ("TREE3", "LOOP1", "B2", "B3"):
        assert check_iso_truncated(catalog_graph(name), 4), name
    assert check_iso_truncated(catalog_graph("FIG-NG"), 3)
    print("ACCEPTANCE 7 PASS: invariant-subring law verified to degree 4 "
          "(degree 3 on the five-banana)")


# -- criterion 8: the equivalence decision matches the fan ----------------


def test_acceptance_8_torelli(fan_of):
    cycle_names = ["B2"] + [f"C{n}" for n in range(3, 8)]
    for a in cycle_names:
        for b in cycle_names:
            assert same_cographic_ring(catalog_graph(a), catalog_graph(b))
    assert not same_cographic_ring(catalog_graph("B3"), catalog_graph("C4"))

    def with_pendant(g):
        spec = [(e, *g.ends(e)) for e in g.edges]
        return from_edge_list(spec + [("pendant", g.vertices[0], "p_new")],
                              vertices=g.vertices)

    for name in CATALOG:
        g = catalog_graph(name)
        assert same_cographic_ring(g, with_pendant(g)), name

    posets = {name: FinitePoset(list(fan_of(name).poset),
                                OrientationPoset.leq)
              for name in CATALOG}
    for a in CATALOG:
        for b in CATALOG:
            verdict = same_cographic_ring(catalog_graph(a), catalog_graph(b))
            iso = find_poset_isomorphism(posets[a], posets[b])
            assert verdict == (iso is not None), (a, b)
    print("ACCEPTANCE 8 PASS: ring equivalence verdicts match fan-poset "
          f"isomorphism on all {len(CATALOG)}x{len(CATALOG)} catalog pairs")


# -- criterion 9: seeded property suites ----------------------------------


def test_acceptance_9_property_suites(rng, fan_of):
    graphs = {name: catalog_graph(name) for name in CATALOG}
    cyclic = {name: g for name, g in graphs.items() if betti1(g) > 0}

    # decompose / re-sum, 1000 cases
    for _ in range(1000):
        g = graphs[rng.choice(list(cyclic))]
        basis = fundamental_cycle_basis(g)
        c = basis.chain(tuple(rng.randint(-3, 3) for _ in range(len(basis))))
        resum = Chain1()
        for gamma, n in decompose_cycle(g, c):
            assert n > 0
            resum = resum + n * circuit_class(g, gamma)
        assert resum == c

    # canonical form reconstruction, 1000 cases
    for _ in range(1000):
        g = graphs[rng.choice([n for n, gg in graphs.items() if gg.edges])]
        c = Chain1({e: rng.randint(-5, 5) for e in g.edges})
        support, phi, mult = canonical_form(g, c)
        assert Chain1({e: phi[e] * mult[e] for e in support}) == c

    # positive definiteness, 1000 nonzero chains
    done = 0
    while done < 1000:
        g = graphs[rng.choice([n for n, gg in graphs.items() if gg.edges])]
        c = Chain1({e: rng.randint(-5, 5) for e in g.edges})
        if c.is_zero():
            continue
        assert inner_product(c, c) > 0
        done += 1

    # sign test against explicit cone search, 1000 pairs on small graphs
    small = ("LOOP1", "B2", "B3", "C3", "TREE3")
    boxes = {}
    for name in small:
        basis = fundamental_cycle_basis(graphs[name])
        boxes[name] = [basis.chain(coords) for coords in
                       itertools.product((-2, -1, 0, 1, 2),
                                         repeat=len(basis))]
    for _ in range(1000):
        name = rng.choice(small)
        fan = fan_of(name)
        c, d = rng.choice(boxes[name]), rng.choice(boxes[name])
        g = fan.graph
        explicit = any(cone_contains(g, k, c) and cone_contains(g, k, d)
                       for k in fan.poset)
        assert common_cone(c, d) == explicit

    # Hilbert basis equals brute-force irreducibles, every small-cone case
    for name in ("LOOP1", "B2", "B3", "C3", "FIG-NG"):
        fan = fan_of(name)
        for pair in fan.poset:
            s = hilbert_basis(fan.graph, pair)
            bound = max((c.l1() for c in s.hilbert_basis), default=0)
            assert set(irreducible_points_up_to_degree(s, bound)) == \
                set(s.hilbert_basis), (name, pair)

    print("ACCEPTANCE 9 PASS: property suites green "
          "(decomposition re-sum, canonical form, positive definiteness, "
          "cone sign test, Hilbert irreducibility)")
