"""Spans and counters around the package's public functions.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces
each traced function by a wrapper in every ``cographic`` module that holds
it (``from .fan import build_fan`` binds the name in ``cli``, ``ring`` and
the package itself) and replaces the traced methods on their classes;
``uninstall`` puts the originals back.  A span records name, start, end,
parent span and operation id; spans stay in memory until the run ends.
Hot functions get a counter only, because a span per call would cost more
than the call.

A span's self time is its duration minus the time its child spans cover.
``graph``, ``chains`` and ``linalg`` are not traced: their time is self
time of whichever layer calls them.
"""

import sys
from time import perf_counter

from cographic import (circuits, cli, fan, invariants, orientations, ring,
                       semigroup, torelli)

# (owner, attribute, span name).  The owner is a module for functions and
# a class for methods.
SPANS = [
    (orientations, "build_orientation_poset", "orientations.poset"),
    (orientations, "enumerate_tco", "orientations.tco"),
    (orientations.OrientationPoset, "maximal_elements", "orientations.maximal"),
    (fan, "build_fan", "fan.build"),
    (fan.Fan, "to_json", "fan.to_json"),
    (fan, "facets", "fan.facets"),
    (fan, "extremal_rays", "fan.rays"),
    (circuits, "enumerate_oriented_circuits", "circuits.enumerate"),
    (circuits, "compatible_circuits", "circuits.compatible"),
    (semigroup, "hilbert_samuel_function", "semigroup.hs"),
    (semigroup, "subdiagram_volume", "semigroup.volume"),
    (semigroup, "hilbert_basis", "semigroup.hilbert_basis"),
    (semigroup, "toric_ideal_up_to_degree", "semigroup.toric"),
    (semigroup, "is_unimodular", "semigroup.unimodular"),
    (semigroup, "q_gorenstein", "semigroup.qgor"),
    (semigroup, "semigroup_report", "semigroup.report"),
    (ring, "present_ring", "ring.present"),
    (ring, "ring_report", "ring.report"),
    (invariants, "check_iso_truncated", "invariants.check"),
    (torelli, "three_edge_connectivization", "torelli.connectivize"),
    (torelli, "cyclically_equivalent", "torelli.equivalent"),
    (torelli, "same_cographic_ring", "torelli.same_ring"),
    (cli, "main", "cli.main"),
    (cli, "_emit", "cli.emit"),
]

# Span names whose results are counted as well: span -> counter.
RESULT_SIZES = {"orientations.poset": "orientations.poset_elements"}

# The ``cographic`` modules a rebinding may have to reach (importing the
# package above loads all of them).
MODULES = [m for name, m in sorted(sys.modules.items())
           if name == "cographic" or name.startswith("cographic.")]


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent index, op id)
        self.counts = {}
        self.op = None       # id of the operation now running
        self._stack = []     # indices of the open spans
        self._undo = []      # (owner, attribute, original)

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def inside(self, names):
        """Whether the innermost open spans are ``names``, outermost first."""
        return [self.spans[i][0] for i in self._stack[-len(names):]] == names

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        size_counter = RESULT_SIZES.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append((name, None, None, stack[-1] if stack else -1, self.op))
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end) + spans[index][3:]
            if size_counter:
                self.count(size_counter, len(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn, inside=None):
        def wrapper(*args, **kwargs):
            if inside is None or self.inside(inside):
                self.count(name)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, owner, attribute, wrapper, everywhere=True):
        """Replace ``owner.attribute`` and, for a module function, every
        other ``cographic`` module's binding of the same object."""
        original = getattr(owner, attribute)
        owners = [owner]
        if everywhere and not isinstance(owner, type):
            owners = [m for m in MODULES if getattr(m, attribute, None) is original]
        for o in owners:
            self._undo.append((o, attribute, original))
            setattr(o, attribute, wrapper)

    def install(self):
        for owner, attribute, name in SPANS:
            self._rebind(owner, attribute,
                         self._span(name, getattr(owner, attribute)))
        # Totally-cyclic tests made by the enumerator inside poset
        # enumeration, the denominator of the poset's yield; other callers
        # (label validation, the ``orientations`` command) are not.
        self._rebind(orientations, "is_totally_cyclic",
                     self._counter("orientations.tc_tests",
                                   orientations.is_totally_cyclic,
                                   inside=["orientations.poset",
                                           "orientations.tco"]))
        self._rebind(semigroup.AffineSemigroup, "contains",
                     self._counter("semigroup.hs_member_tests",
                                   semigroup.AffineSemigroup.contains))
        # Hull planes tried by ``semigroup`` only, not by ``linalg`` itself.
        self._rebind(semigroup, "hyperplane_through",
                     self._counter("semigroup.hull_planes",
                                   semigroup.hyperplane_through),
                     everywhere=False)

    def uninstall(self):
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def self_times(self):
        """(name -> total self time, name -> call count, op id -> set of
        span names) over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time, calls, by_op = {}, {}, {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[i]
            calls[name] = calls.get(name, 0) + 1
            by_op.setdefault(op, set()).add(name)
        return self_time, calls, by_op


# Call counts reported per span (the others report self time only).
CALLS = ["orientations.poset", "orientations.maximal", "fan.build",
         "fan.facets", "circuits.enumerate", "circuits.compatible",
         "semigroup.hs", "semigroup.volume", "semigroup.hilbert_basis",
         "torelli.connectivize"]

COUNTERS = ["orientations.tc_tests", "orientations.poset_elements",
            "semigroup.hs_member_tests", "semigroup.hull_planes",
            "cli.stdout_bytes"]

# Every per-layer metric as (name, unit, better), in report order.
PER_LAYER = sorted(
    [(name + "_s", "s", "lower") for _, _, name in SPANS]
    + [(name + "_calls", "count", "lower") for name in CALLS]
    + [(name, "bytes" if name.endswith("bytes") else "count", "lower")
       for name in COUNTERS]
    + [("orientations.yield", "ratio", "higher"),
       ("fan.build_calls_per_op", "calls/op", "lower"),
       ("semigroup.volume_calls_per_chamber", "calls/chamber", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")])


def layer_metrics(tracer, chambers, traced_wall, untraced_wall):
    """Every PER_LAYER metric from one traced pass.

    ``chambers`` maps an operation id to its chamber count, for the ratio
    of volume calls to chambers.
    """
    self_time, calls, by_op = tracer.self_times()
    counts = tracer.counts
    values = {name + "_s": self_time.get(name, 0.0) for _, _, name in SPANS}
    values.update({name + "_calls": calls.get(name, 0) for name in CALLS})
    values.update({name: counts.get(name, 0) for name in COUNTERS})
    tests = counts.get("orientations.tc_tests", 0)
    values["orientations.yield"] = (
        counts.get("orientations.poset_elements", 0) / tests if tests else 0.0)
    building = [op for op, names in by_op.items() if "fan.build" in names]
    values["fan.build_calls_per_op"] = (
        calls.get("fan.build", 0) / len(building) if building else 0.0)
    volume_chambers = sum(chambers.get(op) or 0 for op, names in by_op.items()
                          if "semigroup.volume" in names)
    values["semigroup.volume_calls_per_chamber"] = (
        calls.get("semigroup.volume", 0) / volume_chambers
        if volume_chambers else 0.0)
    values["trace.overhead_ratio"] = traced_wall / untraced_wall
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}


def nonzero_under(tracer, prefix):
    """Span and counter names starting with ``prefix`` that did any work."""
    names = {name for name, *_ in tracer.spans}
    names |= {name for name, n in tracer.counts.items() if n}
    return sorted(name for name in names if name.startswith(prefix))


def layer_shares(tracer, wall):
    """(layer, share of ``wall``) by self time, largest first.  Reported,
    never gated."""
    self_time, _, _ = tracer.self_times()
    shares = {}
    for name, seconds in self_time.items():
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + seconds / wall
    return sorted(shares.items(), key=lambda item: -item[1])
