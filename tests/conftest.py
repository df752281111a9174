import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from cographic import build_fan, catalog_graph, catalog_names, from_edge_list
from cographic.graph import FORWARD

# Property tests replay the same examples on every run, and a slow example
# on a loaded host is not a failure.  Another profile can still be chosen
# with pytest's --hypothesis-profile option.
settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("tier1")

CATALOG_NAMES = catalog_names()
SMALL = ["TREE3", "LOOP1", "B2", "B3", "C3", "C4", "C5"]


def pytest_addoption(parser):
    parser.addoption("--seed", type=int, default=20260808,
                     help="seed for the tests that take the rng fixture")


@st.composite
def multigraphs(draw, max_vertices=4, max_edges=5):
    """Multigraphs with loops and parallel edges; shrinks to fewer edges."""
    vertices = [f"v{i}" for i in range(draw(st.integers(1, max_vertices)))]
    ends = draw(st.lists(st.tuples(st.sampled_from(vertices),
                                   st.sampled_from(vertices)),
                         min_size=1, max_size=max_edges))
    spec = [(f"e{j}", s, t) for j, (s, t) in enumerate(ends)]
    return from_edge_list(spec, vertices=vertices)


K4_EDGES = [("e1", "v1", "v2"), ("e2", "v1", "v3"), ("e3", "v1", "v4"),
            ("e4", "v2", "v3"), ("e5", "v2", "v4"), ("e6", "v3", "v4")]


def k4_plus(k):
    """K4 plus a parallel copy of each of its first k edges; k4_plus(6) is
    the doubled K4 (12 edges, first Betti number 9)."""
    copies = [(f"e{7 + i}", s, t) for i, (_, s, t) in enumerate(K4_EDGES[:k])]
    return from_edge_list(K4_EDGES + copies)


def forward_mask(g, dirs):
    """The forward-edge bitmask of a direction dict, edge id -> FORWARD or
    BACKWARD."""
    return g.edge_mask(e for e, d in dirs.items() if d == FORWARD)


@pytest.fixture
def rng(request):
    return random.Random(request.config.getoption("--seed"))


@pytest.fixture(scope="session")
def graphs():
    return {name: catalog_graph(name) for name in CATALOG_NAMES}


class _FanCache:
    def __init__(self):
        self._fans = {}

    def __call__(self, name):
        if name not in self._fans:
            self._fans[name] = build_fan(catalog_graph(name))
        return self._fans[name]


@pytest.fixture(scope="session")
def fan_of():
    """Session-wide fan cache; the big catalog fans are built once."""
    return _FanCache()
