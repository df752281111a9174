"""Combinatorics of cographic fans and their toric face rings.

The package computes, for a finite multigraph: totally cyclic
orientations and their poset, oriented circuits and cycle decompositions,
the fan of sign-condition cones on the cycle lattice, per-cone Hilbert
bases and semigroup invariants (unimodularity, toric ideals, Gorenstein
tests, multiplicity two independent ways), the presentation and numeric
invariants of the associated toric face ring, a truncated verification of
its description as a torus-invariant subring, and the decision procedure
for when two graphs share the same ring (3-edge connectivization up to
cyclic equivalence).

All arithmetic is exact, over the integers and rationals.
"""

from .graph import (Graph, from_edge_list, delete_edges, contract_edge,
                    betti1, parse_graph_text, graph_to_text, FORWARD,
                    BACKWARD)
from .chains import (Chain1, boundary, is_cycle, inner_product,
                     fundamental_cycle_basis, cone_basis, canonical_form,
                     CycleBasis, separating_edges)
from .orientations import (TotCycPair, OrientationPoset,
                           is_totally_cyclic, enumerate_tco,
                           build_orientation_poset)
from .circuits import (OrientedCircuit, enumerate_oriented_circuits,
                       circuit_class, concordant, compatible_circuits,
                       decompose_cycle, hypergraph_bijection)
from .fan import (Fan, build_fan, cone_contains, common_cone, cone_of,
                  cone_dimension, voronoi_face_dim, extremal_rays, facets)
from .semigroup import (AffineSemigroup, BinomialIdeal, hilbert_basis,
                        spans_lattice, is_unimodular, toric_ideal_up_to_degree,
                        is_homogeneous, q_gorenstein, subdiagram_volume,
                        multiplicity_hs_oracle, hilbert_samuel_function,
                        chamber_classes, semigroup_report)
from .ring import (RingPresentation, RingReport, present_ring,
                   multiply_monomials, ring_report, sum_of_primes)
from .invariants import (OrientedMonomial, check_iso_truncated,
                         cycles_up_to_mass)
from .torelli import (two_edge_cuts, three_edge_connectivization,
                      cyclically_equivalent, same_cographic_ring)
from .catalog import CATALOG, catalog_graph, catalog_names
from .errors import CapacityError, GraphParseError

__all__ = [
    "Graph", "from_edge_list", "delete_edges", "contract_edge",
    "betti1", "parse_graph_text", "graph_to_text", "FORWARD", "BACKWARD",
    "Chain1", "boundary", "is_cycle", "inner_product",
    "fundamental_cycle_basis", "cone_basis", "canonical_form", "CycleBasis",
    "separating_edges",
    "TotCycPair", "OrientationPoset", "is_totally_cyclic",
    "enumerate_tco", "build_orientation_poset",
    "OrientedCircuit", "enumerate_oriented_circuits", "circuit_class",
    "concordant", "compatible_circuits", "decompose_cycle",
    "hypergraph_bijection",
    "Fan", "build_fan", "cone_contains", "common_cone", "cone_of",
    "cone_dimension", "voronoi_face_dim", "extremal_rays", "facets",
    "AffineSemigroup", "BinomialIdeal", "hilbert_basis", "spans_lattice",
    "is_unimodular", "toric_ideal_up_to_degree", "is_homogeneous",
    "q_gorenstein", "subdiagram_volume", "multiplicity_hs_oracle",
    "hilbert_samuel_function", "chamber_classes", "semigroup_report",
    "RingPresentation", "RingReport", "present_ring",
    "multiply_monomials", "ring_report", "sum_of_primes",
    "OrientedMonomial", "check_iso_truncated",
    "cycles_up_to_mass",
    "two_edge_cuts", "three_edge_connectivization", "cyclically_equivalent",
    "same_cographic_ring",
    "CATALOG", "catalog_graph", "catalog_names",
    "CapacityError", "GraphParseError",
]
__version__ = "0.1.0"
