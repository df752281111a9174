"""Benchmark input graphs and their seeded relabelling.

The ladder graphs are built here; the catalog graphs are the ones bundled
with the package.  Seed 0 uses every graph exactly as defined.  Any other
seed relabels every graph the same way: edge ids are permuted among
themselves, the edge order is shuffled and each reference orientation is
flipped with probability one half.  Relabelling changes labels only, never
the problem size, so every count the correctness table records is the
same for all seeds.
"""

import random

from cographic.catalog import CATALOG, catalog_graph
from cographic.graph import from_edge_list, graph_to_text, parse_graph_text

K4_EDGES = [("e1", "v1", "v2"), ("e2", "v1", "v3"), ("e3", "v1", "v4"),
            ("e4", "v2", "v3"), ("e5", "v2", "v4"), ("e6", "v3", "v4")]


def banana(n):
    """Two vertices joined by n parallel edges."""
    return from_edge_list([(f"e{i}", "a", "b") for i in range(1, n + 1)])


def k4_plus(k):
    """K4 plus a parallel copy of each of its first k edges."""
    copies = [(f"e{7 + i}", s, t) for i, (_, s, t) in enumerate(K4_EDGES[:k])]
    return from_edge_list(K4_EDGES + copies)


LADDER = {
    "banana6": lambda: banana(6),
    "banana7": lambda: banana(7),
    "banana8": lambda: banana(8),
    "banana10": lambda: banana(10),
    "K4": lambda: k4_plus(0),
    "K4p2": lambda: k4_plus(2),
    "K4p3": lambda: k4_plus(3),
    "K4p4": lambda: k4_plus(4),
    "K4x2": lambda: k4_plus(6),
}

# Suffix naming the relabelled twin of a graph; "K4x2~" is K4x2 under a
# second, independent relabelling (the partner of a `compare` op).
TWIN = "~"


def relabel_text(g, rng):
    """The graph as text with permuted edge ids and order and random flips."""
    ids = list(g.edges)
    new_ids = ids[:]
    rng.shuffle(new_ids)
    order = list(range(len(ids)))
    rng.shuffle(order)
    lines = [f"vertex {v}" for v in g.vertices]
    for i in order:
        s, t = g.ends(ids[i])
        if rng.random() < 0.5:
            s, t = t, s
        lines.append(f"edge {new_ids[i]} {s} {t}")
    return "\n".join(lines) + "\n"


def graph_text(name, seed):
    """Text of the named input for the given seed, or None when the
    program should receive the bundled catalog name itself."""
    base = name.removesuffix(TWIN)
    g = LADDER[base]() if base in LADDER else catalog_graph(base)
    if seed != 0:
        g = parse_graph_text(relabel_text(g, random.Random(f"{seed}/{base}")))
    if name != base:
        return relabel_text(g, random.Random(f"{seed}/{name}"))
    if seed == 0 and base in CATALOG:
        return None
    return graph_to_text(g)


def write_inputs(names, seed, directory):
    """Write every input file and return name -> argument for the CLI."""
    args = {}
    for name in names:
        text = graph_text(name, seed)
        if text is None:
            args[name] = name
            continue
        path = directory / f"{name.replace(TWIN, '_twin')}.graph"
        path.write_text(text)
        args[name] = str(path)
    return args
