"""Slow reference implementations that the fast paths are tested against.

Each oracle keeps the straightforward formulation of a routine whose
production version was rewritten for speed; differential tests compare
the two outputs exactly.
"""

import heapq

from cographic import cone_contains


def hilbert_samuel_function_reference(s, horizon):
    """dim of R(cone)/m^n for n = 1..horizon, by exact lattice counting.

    A monomial survives in the quotient exactly when its exponent cannot
    be split into n nonzero semigroup elements.  The maximal number of
    parts in any splitting is computed by dynamic programming over lattice
    points in increasing degree (degree is linear on the cone, so every
    parent precedes its children).

    Lattice points are coordinate tuples, and membership rebuilds each
    point as a chain and runs the sign test of ``cone_contains``.
    """
    d = s.lattice_rank
    if d == 0:
        return [1] * horizon
    gens = [s.coordinates(c) for c in s.hilbert_basis]
    degrees = [c.l1() for c in s.hilbert_basis]
    cutoff = horizon - 1

    member_cache = {}

    def member(pt):
        cached = member_cache.get(pt)
        if cached is None:
            cached = cone_contains(s.cone, s.chain(pt))
            member_cache[pt] = cached
        return cached

    zero = tuple([0] * d)
    max_parts = {zero: 0}
    heap = []
    queued = set()
    for gvec, gdeg in zip(gens, degrees):
        child = tuple(a + b for a, b in zip(zero, gvec))
        if child not in queued:
            queued.add(child)
            heapq.heappush(heap, (gdeg, child))
    while heap:
        deg, pt = heapq.heappop(heap)
        if pt in max_parts:
            continue
        best = 0
        for gvec in gens:
            parent = tuple(a - b for a, b in zip(pt, gvec))
            known = max_parts.get(parent)
            if known is None:
                if member(parent):
                    known = cutoff + 1  # unvisited member: beyond the cutoff
                else:
                    continue
            best = max(best, known + 1)
        best = min(best, cutoff + 1)
        max_parts[pt] = best
        if best <= cutoff:
            for gvec, gdeg in zip(gens, degrees):
                child = tuple(a + b for a, b in zip(pt, gvec))
                if child not in max_parts and child not in queued:
                    queued.add(child)
                    heapq.heappush(heap, (deg + gdeg, child))
    return [sum(1 for parts in max_parts.values() if parts <= n - 1)
            for n in range(1, horizon + 1)]
