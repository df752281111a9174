"""The toric face ring of a graph, assembled from its fan.

The ring is never materialized element by element: monomials are indexed
by integer cycles, multiplication (sum when the two cycles share a cone,
zero otherwise) is decided by the sign test, and every invariant in reach
comes from the presentation data.  The presentation has one variable per
oriented circuit, a quadric for every discordant pair, and one
degree-bounded binomial ideal per maximal cone.

Each object is built once and passed on: ``present_ring`` takes a built
fan and makes each chamber's semigroup (``hilbert_basis``), its class and
its class's ideal, and ``ring_report`` reads the presentation, adding
each chamber's subdiagram volume::

    fan = build_fan(g)
    presentation = present_ring(fan)
    report = ring_report(presentation)

The chambers share the bridge support, and so one ``chains.cone_basis``.
Chambers with isomorphic semigroups form one class
(``semigroup.chamber_classes``).  The volume is computed once per class,
and so is the ideal; ``analyze`` shares the Hilbert-Samuel multiplicity,
its largest cost, the same way.  THETA2, FIG-NG, FIG-NH, K4, K4p2 and
banana6 have 352 chambers in 32 classes.  The presentation keeps one
ideal per class, and the rest of the class receives it with its
variables permuted only when ``ideals`` is read, one chamber at a time:
the report encodes each chamber's entry and drops it, so the 1.33M
binomials of ``ring K4x2``'s 3,608 chambers are never held at once.

The graded prime of a cone holds the monomials of the cycles outside it,
so a cycle's monomial lies in the prime of ``pair`` exactly when
``not cone_contains(g, pair, c)``.  The strata are the orientation
poset: its labels index them and its order is reverse inclusion of
their primes.  A sum of primes is the prime of the cones' intersection,
whose label ``sum_of_primes`` gives.
"""

from dataclasses import dataclass

from .chains import is_cycle
from .circuits import concordant, enumerate_oriented_circuits
from .fan import common_cone, face_label
from .graph import betti1
from .jsontext import dumps
from .orientations import label_texts
from .semigroup import (chamber_classes, hilbert_basis, per_chamber_class,
                        permute_ideal, subdiagram_volume,
                        toric_ideal_up_to_degree)

DEFAULT_DEGREE_BOUND = 3


@dataclass
class RingPresentation:
    """Generators and relations of the ring, with degree-bounded binomials.

    The ideal is kept once per class of chambers, as its representative's
    (``class_ideals``); ``ideals`` permutes it for each other member when
    asked, so the ideals of every chamber are never held at once.
    """

    graph: object
    generators: list            # oriented circuits, canonical order
    discordance_quadrics: list  # (gamma, delta) pairs, gamma before delta
    chambers: list              # AffineSemigroup of each maximal label
    degree_bound: int
    chamber_classes: list       # (representative index, generator permutation)
    class_ideals: dict          # representative index -> BinomialIdeal

    def ideals(self):
        """Each chamber's ``BinomialIdeal``, in chamber order, made as the
        iterator is read: its class representative's, with the variables
        permuted (``permute_ideal``)."""
        for i, (rep, perm) in enumerate(self.chamber_classes):
            ideal = self.class_ideals[rep]
            yield ideal if rep == i else permute_ideal(ideal, perm)

    def to_json(self):
        """The presentation as a dict for ``cli``, whose ``generators``,
        ``quadrics`` and ``chambers`` are iterators of their entries' JSON
        text.

        Each circuit's JSON is encoded once and shared by the quadrics and
        the chambers' variables.  A chamber's entry is made as the
        iterator is read, from the ideal ``ideals`` makes for it, and is
        dropped once read.
        """
        g = self.graph
        names = {gamma: dumps(gamma.to_json(g)) for gamma in self.generators}
        labels = label_texts(g, [s.label for s in self.chambers])
        chambers = ("".join([
            f'{{"degree_bound":{ideal.degree_bound},"generators":',
            dumps([{"u": u, "v": v} for u, v in ideal.generators]),
            ',"label":', label,
            ',"variables":[', ",".join([names[c] for c in s.circuits]), "]}"])
            for label, s, ideal in zip(labels, self.chambers, self.ideals()))
        return {
            "generators": iter(names.values()),
            "quadrics": (f"[{names[a]},{names[b]}]"
                         for a, b in self.discordance_quadrics),
            "chambers": chambers,
            "degree_bound": self.degree_bound,
        }


@dataclass
class RingReport:
    """The numeric invariants of the ring."""

    dimension: int
    embedded_dimension: int
    minimal_prime_labels: list   # maximal poset elements
    chamber_volumes: list        # subdiagram volume of each, same order

    @property
    def multiplicity(self):
        return sum(self.chamber_volumes)

    def to_json(self, g):
        """The invariants as a dict for ``cli``; the two lists of chamber
        labels are iterators of their JSON text, each label encoded once.
        """
        # Gorenstein/seminormal/slc hold for every graph ring by general
        # theory; this tool does not certify them, so the report says so
        # instead of printing a computed verdict.  The normalization has
        # one component per minimal prime.
        asserted = "holds for every graph ring (general theory); not computed"
        primes = list(label_texts(g, self.minimal_prime_labels))
        return {
            "dimension": self.dimension,
            "embedded_dimension": self.embedded_dimension,
            "num_minimal_primes": len(primes),
            "minimal_primes": iter(primes),
            "multiplicity": self.multiplicity,
            "normalization_components": iter(primes),
            "asserted_properties": {
                "gorenstein": asserted,
                "seminormal": asserted,
                "semi_log_canonical": asserted,
            },
        }


def present_ring(fan, degree=DEFAULT_DEGREE_BOUND):
    """Presentation of the ring of a built fan: circuit variables,
    discordance quadrics, and per-maximal-chamber binomials up to the
    given degree.

    Only maximal elements carry binomial ideals; every other cone's ideal
    is a coordinate projection of a maximal one.  The fan's build already
    passed its edge cap, which is below the circuit enumeration's.
    """
    g = fan.graph
    circuits = enumerate_oriented_circuits(g)
    quadrics = [(a, b)
                for i, a in enumerate(circuits)
                for b in circuits[i + 1:]
                if not concordant(a, b)]
    semigroups = [hilbert_basis(g, pair) for pair in fan.chambers()]
    classes = chamber_classes(semigroups)
    ideals = {i: toric_ideal_up_to_degree(s, degree)
              for i, (s, (rep, _)) in enumerate(zip(semigroups, classes))
              if rep == i}
    return RingPresentation(g, circuits, quadrics, semigroups, degree,
                            classes, ideals)


def multiply_monomials(g, c, d):
    """Product of two monomials: their sum if some cone holds both cycles,
    otherwise None (the zero of the ring)."""
    if not is_cycle(g, c) or not is_cycle(g, d):
        raise ValueError("monomials are indexed by cycles")
    if common_cone(c, d):
        return c + d
    return None


def ring_report(presentation):
    """Dimension, embedded dimension, minimal primes, and multiplicity of
    a presented ring.

    The embedded dimension counts the circuit variables, the minimal
    primes are the chambers, and the multiplicity is the sum of the
    chambers' subdiagram volumes.
    """
    chambers = presentation.chambers
    return RingReport(
        dimension=betti1(presentation.graph),
        embedded_dimension=len(presentation.generators),
        minimal_prime_labels=[s.label for s in chambers],
        chamber_volumes=per_chamber_class(
            subdiagram_volume, chambers, presentation.chamber_classes),
    )


def sum_of_primes(g, pairs):
    """The label whose prime is the sum of the given labels' primes.

    The sum of the primes of several cones is the prime of their
    intersection.  Its sign conditions vanish on every edge some label
    puts in T or two labels orient differently, and follow the shared
    orientation elsewhere; the circuits that survive them canonicalize it.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one prime")
    first = pairs[0]
    support = 0
    for p in pairs:
        support |= p.support | (p.forward ^ first.forward)
    return face_label(g, support, first.forward & ~support)
