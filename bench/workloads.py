"""The benchmark's workloads: which operations run, and what each must output.

Every operation is either one CLI invocation (``cographic.cli.main`` with
its stdout captured) or one library call.  ``summarize`` reduces an
operation's output to label-independent values (counts, invariants and
verdicts) that are the same for every seed; ``expected.json`` holds them
as recorded from the unmodified package, plus the sha256 of each CLI
operation's stdout at seed 0.
"""

import json
from dataclasses import dataclass

CATALOG_NAMES = ("TREE3", "LOOP1", "B2", "B3", "C3", "C4", "C5", "C6", "C7",
                 "THETA2", "FIG-NG", "FIG-NH")

# Library operations; every other command is a CLI subcommand.
LIB_CHAMBERS = "lib-chambers"   # build_fan(g).chambers()
LIB_BUILD = "lib-build"         # build_fan(g)


@dataclass(frozen=True)
class Op:
    command: str
    graphs: tuple
    flags: tuple = ()
    exit: int = 0

    @property
    def is_cli(self):
        return self.command not in (LIB_BUILD, LIB_CHAMBERS)

    @property
    def id(self):
        return " ".join(self.flags + (self.command,) + self.graphs)

    def argv(self, paths):
        return list(self.flags) + [self.command] + [paths[g] for g in self.graphs]


WORKLOADS = {
    # The paper's full report on every bundled graph; the Hilbert-Samuel
    # oracle dominates, posets are small.
    "analyze-catalog": [Op("analyze", (name,)) for name in CATALOG_NAMES]
    + [Op("analyze", ("K4",))],
    # Poset enumeration, chamber selection, facets/rays and large JSON
    # output; the semigroup layer is never entered.  Bananas accept most
    # totally-cyclic tests, the K4 family far fewer.  Every op takes at
    # most a few seconds, so a run repeats the pass and its timings are
    # steady on a shared host.
    "fan-ladder": [
        Op("fan", ("banana7",)),
        Op("fan", ("K4p2",)),
        Op("orientations", ("banana10",)),
        Op("orientations", ("K4x2",)),
        Op("circuits", ("banana10",)),
        Op("circuits", ("K4x2",)),
        Op(LIB_CHAMBERS, ("banana8",)),
        Op(LIB_CHAMBERS, ("K4p3",)),
        Op(LIB_BUILD, ("K4p4",)),
    ],
    # Ring reports (hull volume at dimension up to 5, no HS oracle), ring
    # equivalence and invariant-ring verification.
    "ring-mixed": [Op("ring", (name,)) for name in
                   ("THETA2", "FIG-NG", "FIG-NH", "K4", "K4p2", "banana6")]
    + [
        Op("compare", ("C5", "C7")),
        Op("compare", ("THETA2", "FIG-NH")),
        Op("compare", ("K4", "K4p2"), exit=1),
        Op("compare", ("K4x2", "K4x2~")),
    ]
    + [Op("verify-invariant-ring", (name,), flags=("--degree", "4"))
       for name in ("B3", "THETA2", "FIG-NG", "FIG-NH")]
    + [Op("verify-invariant-ring", ("THETA2",), flags=("--degree", "5"))],
}

def _analyze(out):
    ring = out["ring"]
    volumes = [c["multiplicity"]["subdiagram_volume"] for c in out["chambers"]]
    return {
        "poset_size": out["orientation_poset"]["size"],
        "num_cones": out["fan"]["num_cones"],
        "num_chambers": out["fan"]["num_chambers"],
        "dimension": ring["dimension"],
        "embedded_dimension": ring["embedded_dimension"],
        "multiplicity": ring["multiplicity"],
        "circuits": len(out["presentation"]["generators"]),
        "quadrics": len(out["presentation"]["quadrics"]),
        "chamber_multiplicities": sorted(volumes),
        "volume_equals_hs": all(
            c["multiplicity"]["subdiagram_volume"] ==
            c["multiplicity"]["hilbert_samuel"] for c in out["chambers"]),
        "chambers_sum_to_multiplicity": sum(volumes) == ring["multiplicity"],
    }


def _fan(out):
    dims = {}
    for cone in out["cones"]:
        dims[cone["dimension"]] = dims.get(cone["dimension"], 0) + 1
    return {
        "num_cones": out["num_cones"],
        "num_chambers": out["num_chambers"],
        "cones_by_dimension": [dims[d] for d in sorted(dims)],
        "rays": sum(len(c["rays"]) for c in out["cones"]),
        "facets": sum(len(c["facets"]) for c in out["cones"]),
    }


def _ring(out):
    ring, pres = out["ring"], out["presentation"]
    return {
        "dimension": ring["dimension"],
        "embedded_dimension": ring["embedded_dimension"],
        "multiplicity": ring["multiplicity"],
        "num_chambers": ring["num_minimal_primes"],
        "circuits": len(pres["generators"]),
        "quadrics": len(pres["quadrics"]),
        "binomials": sorted(len(c["generators"]) for c in pres["chambers"]),
    }


_CLI_SUMMARIES = {
    "analyze": _analyze,
    "fan": _fan,
    "ring": _ring,
    "orientations": lambda out: {"tco": len(out["totally_cyclic_orientations"])},
    "circuits": lambda out: {"circuits": len(out["oriented_circuits"])},
    "compare": lambda out: {"same_ring": out["same_ring"],
                            "class_sizes": [out["g_class_size"],
                                            out["h_class_size"]]},
    "verify-invariant-ring": lambda out: {
        "degree": out["isomorphic_up_to_degree"], "passed": out["passed"]},
}


def summarize(op, result):
    """Label-independent values of one operation's result.

    ``result`` is the exit code and captured stdout of a CLI operation, or
    the returned object of a library operation.
    """
    if op.command == LIB_BUILD:
        return {"num_cones": len(result)}
    if op.command == LIB_CHAMBERS:
        fan, chambers = result
        return {"num_cones": len(fan), "num_chambers": len(chambers)}
    code, stdout = result
    values = _CLI_SUMMARIES[op.command](json.loads(stdout))
    values["exit"] = code
    return values


def all_ops():
    """Every distinct operation across the workloads, in workload order."""
    seen = {}
    for ops in WORKLOADS.values():
        for op in ops:
            seen.setdefault(op.id, op)
    return list(seen.values())
