"""Exact linear algebra over the integers and rationals.

All inputs are sequences of equal-length rows with int (or Fraction)
entries.  Nothing here ever touches a float: ranks and rational solutions
go through one Fraction reduced-echelon routine; determinants, and the
hyperplane through k points of Z^k as a vector of maximal minors, through
the fraction-free Bareiss scheme; lattice questions through the Smith
normal form.
"""

from fractions import Fraction
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


def _rref(matrix, ncols=None):
    """Reduced row echelon form over Q: (Fraction rows, pivot columns).

    Gauss-Jordan: each pivot row is divided by its pivot, then the pivot
    column is cleared in every other row.  Pivots are sought in the first
    ``ncols`` columns only (default: all), so an augmented right-hand
    side is carried along without being pivoted on.
    """
    rows = [[Fraction(x) for x in row] for row in matrix]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pr = [x / rows[r][col] for x in rows[r]]
        rows[r] = pr
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        pivots.append(col)
        r += 1
    return rows, pivots


def rank(matrix):
    """Rank of a matrix with int/Fraction entries, by exact elimination."""
    return len(_rref(matrix)[1])


def solve_rational(matrix, rhs):
    """One exact solution of ``matrix @ x = rhs`` over Q, or None.

    Gauss-Jordan on the augmented matrix; free variables (if any) are set
    to zero.  Returns a list of Fractions.
    """
    ncols = len(matrix[0]) if matrix else 0
    rows, pivots = _rref([list(row) + [b] for row, b in zip(matrix, rhs)],
                         ncols)
    if any(row[ncols] != 0 for row in rows[len(pivots):]):
        return None
    x = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        x[col] = row[ncols]
    return x


def smith_invariant_factors(matrix):
    """Nonzero invariant factors of an integer matrix, in divisibility order.

    Classic Smith reduction by row/column operations; fine at the sizes
    this package meets (a handful of rows and columns).
    """
    m = [list(row) for row in matrix]
    if not m or not m[0]:
        return []
    nrows, ncols = len(m), len(m[0])
    factors = []
    top = 0
    while top < min(nrows, ncols):
        # find a nonzero pivot in the remaining block
        pivot = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] != 0:
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            break
        i, j = pivot
        m[top], m[i] = m[i], m[top]
        for row in m:
            row[top], row[j] = row[j], row[top]
        while True:
            # clear the pivot column
            for i in range(top + 1, nrows):
                while m[i][top] != 0:
                    q = m[i][top] // m[top][top]
                    for j in range(top, ncols):
                        m[i][j] -= q * m[top][j]
                    if m[i][top] != 0:
                        m[top], m[i] = m[i], m[top]
            # clear the pivot row
            for j in range(top + 1, ncols):
                while m[top][j] != 0:
                    q = m[top][j] // m[top][top]
                    for i in range(top, nrows):
                        m[i][j] -= q * m[i][top]
                    if m[top][j] != 0:
                        for row in m:
                            row[top], row[j] = row[j], row[top]
            if all(m[i][top] == 0 for i in range(top + 1, nrows)):
                break
        factors.append(abs(m[top][top]))
        top += 1
    # enforce the divisibility chain
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            g = gcd(a, b)
            if g == 0:
                continue
            factors[i] = g
            factors[j] = a * b // g
    return [f for f in factors if f != 0]


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
