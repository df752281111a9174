"""Command-line front end.

Machine-readable JSON goes to stdout with sorted keys and compact
separators, so identical inputs produce byte-identical reports; a short
human summary goes to stderr.  Exit codes: 0 success, 1 usage error or
failed verification, 2 graph parse error, 3 capacity error.

A report is written as it is made, never held whole.  ``_emit`` writes a
dict key by key in sorted order, and a value that is an iterator is an
array whose entries arrive as their JSON text, one ``write`` each.
Sorted keys put the growing list first: ``"cones"`` in ``fan``,
``"chambers"`` in ``analyze``, and ``"chambers"`` inside
``"presentation"`` in ``ring``.  So stdout gets a short prefix, then
each entry as the fan or the ring presentation makes it, then the rest
of the report.  In ``orientations`` the list follows the graph summary,
one ``orientations.phi_texts`` entry per orientation.  The bytes are
those of one ``json.dumps`` of the whole.  Every value that can fail is
computed before the first byte: the poset and its cap, and in ``ring``
and ``analyze`` every class value (toric ideal and its cap, volume,
Hilbert-Samuel multiplicity and its horizon, unimodularity), so an error
leaves stdout empty.

When the reader of stdout goes away (``cographic fan G | head``), the
next write raises ``BrokenPipeError``: ``main`` points stdout at
``os.devnull``, so the flush at exit is silent, and returns 1.
"""

import argparse
import os
import sys
from collections.abc import Iterator

from . import catalog
from .chains import separating_edges
from .errors import CapacityError, GraphParseError
from .fan import build_fan
from .graph import betti1, parse_graph_text
from .invariants import check_iso_truncated
from .jsontext import dumps
from .orientations import enumerate_tco, phi_texts
from .circuits import enumerate_oriented_circuits
from .ring import DEFAULT_DEGREE_BOUND, present_ring, ring_report
from .semigroup import (multiplicity_hs_oracle, per_chamber_class,
                        semigroup_report, unimodular_per_class)
from .torelli import cyclically_equivalent, three_edge_connectivization

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3


def _load_graph(arg):
    """A path to a graph file, or the name of a bundled example."""
    if os.path.exists(arg):
        try:
            with open(arg) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphParseError(f"cannot read {arg}: {exc}") from exc
        return parse_graph_text(text)
    if arg in catalog.CATALOG:
        return catalog.catalog_graph(arg)
    raise GraphParseError(f"no such file or bundled example: {arg}")


def _emit(obj, summary):
    _write_json(sys.stdout.write, obj)
    sys.stdout.write("\n")
    print(summary, file=sys.stderr)


def _write_json(write, value):
    """Write the JSON text of ``value``: a dict key by key in sorted
    order, an iterator as an array of the JSON texts it yields, one
    ``write`` per entry, and anything else in one piece."""
    if isinstance(value, dict):
        sep = "{"
        for key in sorted(value):
            write(sep + dumps(key) + ":")
            _write_json(write, value[key])
            sep = ","
        write("}" if value else "{}")
    elif isinstance(value, Iterator):
        sep = "["
        for entry in value:
            write(sep)
            write(entry)
            sep = ","
        write("]" if sep == "," else "[]")
    else:
        write(dumps(value))


def _graph_summary(g):
    return {
        "vertices": [str(v) for v in g.vertices],
        "edges": [{"id": e, "source": str(g.ends(e)[0]),
                   "target": str(g.ends(e)[1])} for e in g.edges],
        "betti1": betti1(g),
        "separating_edges": list(separating_edges(g)),
    }


def cmd_analyze(args):
    g = _load_graph(args.graph)
    summary = _graph_summary(g)
    fan = build_fan(g)
    poset = fan.poset
    presentation = present_ring(fan, degree=args.degree)
    report = ring_report(presentation)
    classes = presentation.chamber_classes
    semigroups = presentation.chambers
    hs = per_chamber_class(multiplicity_hs_oracle, semigroups, classes)
    unimodular = unimodular_per_class(semigroups, classes)
    chambers = (dumps(semigroup_report(s, ideal, volume, m, uni))
                for s, ideal, volume, m, uni in
                zip(semigroups, presentation.ideals(),
                    report.chamber_volumes, hs, unimodular))
    out = {
        "graph": summary,
        "orientation_poset": {
            "size": len(poset),
            "num_maximal": len(semigroups),
            "minimum": poset.minimum.to_json(g),
        },
        "fan": {
            "num_cones": len(fan),
            "num_chambers": len(semigroups),
            "dimension": betti1(g),
        },
        "ring": report.to_json(g),
        "presentation": presentation.to_json(),
        "chambers": chambers,
    }
    _emit(out, f"analyze: |V|={len(g.vertices)} |E|={len(g.edges)} "
               f"b1={betti1(g)} poset={len(poset)} "
               f"chambers={len(semigroups)} "
               f"multiplicity={report.multiplicity}")
    return EXIT_OK


def cmd_orientations(args):
    g = _load_graph(args.graph)
    tcos = enumerate_tco(g)
    _emit({"graph": _graph_summary(g),
           "totally_cyclic_orientations": phi_texts(g, 0, tcos)},
          f"orientations: {len(tcos)} totally cyclic")
    return EXIT_OK


def cmd_circuits(args):
    g = _load_graph(args.graph)
    circuits = enumerate_oriented_circuits(g)
    _emit({"graph": _graph_summary(g),
           "oriented_circuits": [c.to_json(g) for c in circuits]},
          f"circuits: {len(circuits)} oriented")
    return EXIT_OK


def cmd_fan(args):
    g = _load_graph(args.graph)
    fan = build_fan(g)
    num_chambers = len(fan.chambers())
    _emit({"graph": _graph_summary(g),
           "num_cones": len(fan), "num_chambers": num_chambers,
           "cones": fan.to_json()},
          f"fan: {len(fan)} cones, {num_chambers} chambers")
    return EXIT_OK


def cmd_ring(args):
    g = _load_graph(args.graph)
    summary = _graph_summary(g)
    presentation = present_ring(build_fan(g), degree=args.degree)
    report = ring_report(presentation)
    _emit({"graph": summary,
           "ring": report.to_json(g),
           "presentation": presentation.to_json()},
          f"ring: dim={report.dimension} embdim={report.embedded_dimension} "
          f"minimal primes={len(report.minimal_prime_labels)} "
          f"multiplicity={report.multiplicity}")
    return EXIT_OK


def cmd_compare(args):
    g = _load_graph(args.graph)
    h = _load_graph(args.other)
    rep_g = three_edge_connectivization(g)
    rep_h = three_edge_connectivization(h)
    same = cyclically_equivalent(rep_g, rep_h)
    _emit({"same_ring": same,
           "g_class_size": len(rep_g.edges),
           "h_class_size": len(rep_h.edges)},
          f"compare: same ring = {same}")
    return EXIT_OK if same else EXIT_USAGE


def cmd_verify_invariant_ring(args):
    g = _load_graph(args.graph)
    ok = check_iso_truncated(g, args.degree)
    _emit({"isomorphic_up_to_degree": args.degree, "passed": ok},
          f"verify-invariant-ring: degree {args.degree} "
          f"{'passed' if ok else 'FAILED'}")
    return EXIT_OK if ok else EXIT_USAGE


def cmd_examples(args):
    _emit(dict(catalog.CATALOG),
          "examples: " + " ".join(catalog.catalog_names()))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cographic",
        description="Combinatorics of the cographic fan and its toric face ring.")
    parser.add_argument("--degree", type=int, default=DEFAULT_DEGREE_BOUND,
                        help="degree bound for binomial ideals "
                             f"(default {DEFAULT_DEGREE_BOUND})")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, help_text in [
        ("analyze", cmd_analyze, "full report: poset, fan, ring, chambers"),
        ("orientations", cmd_orientations, "totally cyclic orientations"),
        ("circuits", cmd_circuits, "oriented circuits"),
        ("fan", cmd_fan, "all cones with rays and facets"),
        ("ring", cmd_ring, "ring invariants and presentation"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("graph", help="graph file or bundled example name")
        p.set_defaults(fn=fn)

    p = sub.add_parser("compare", help="decide whether two graphs share a ring")
    p.add_argument("graph")
    p.add_argument("other")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("verify-invariant-ring",
                       help="truncated invariant-subring verification")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_verify_invariant_ring)

    p = sub.add_parser("examples", help="print the bundled example catalog")
    p.set_defaults(fn=cmd_examples)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
