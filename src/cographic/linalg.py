"""Exact integer linear algebra: one elimination routine, determinants.

All inputs are sequences of equal-length rows with int entries, and
nothing here touches a float or a Fraction.  The fraction-free Bareiss
determinant is the only elimination; the rest is built from its minors.
The hyperplane through k points of Z^k is a vector of maximal minors, and
callers answer lattice questions the same way: the gcd of the d x d
minors of n generators in Z^d is the index of the lattice they span (0
below full rank), and Cramer's rule solves a square system.
"""

from math import gcd


def gcd_list(values):
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


def primitive_vector(vec):
    """Divide an integer vector by the (positive) gcd of its entries.

    The direction is preserved; the zero vector stays zero.
    """
    g = gcd_list(vec)
    if g == 0:
        return tuple(vec)
    return tuple(v // g for v in vec)


def det_int(matrix):
    """Determinant of a square integer matrix (Bareiss, exact)."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hyperplane_through(points):
    """Integer hyperplane (normal, offset) through k points of Z^k.

    Returns a primitive pair ``(normal, c)`` with ``normal . p = c`` for
    every input point, or None when the points are affinely dependent (the
    hyperplane would not be unique).  By Cramer's rule, ``normal + (c,)``
    is the vector of signed maximal minors of the k x (k + 1) rows
    ``[p | -1]``; all of them vanish exactly when those rows have rank
    below k.  The sign is fixed so that ``c >= 0``: the hull volume keeps
    a plane through every generator only when its offset is positive.
    Raises ValueError unless there are exactly k points of length k.
    """
    k = len(points)
    if any(len(p) != k for p in points):
        raise ValueError("hyperplane_through needs k points of length k")
    rows = [list(p) + [-1] for p in points]
    minors = [(-1) ** j * det_int([row[:j] + row[j + 1:] for row in rows])
              for j in range(k + 1)]
    if not any(minors):
        return None
    if minors[-1] < 0:
        minors = [-m for m in minors]
    normal = primitive_vector(minors)
    return normal[:-1], normal[-1]
