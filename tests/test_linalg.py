from fractions import Fraction

import pytest

from cographic.linalg import det_int, hyperplane_through, primitive_vector
from oracles import (kernel_rational, rank, smith_invariant_factors,
                     solve_rational)


def test_det_small():
    assert det_int([]) == 1
    assert det_int([[5]]) == 5
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
    assert det_int([[1, 2], [2, 4]]) == 0


def test_det_permutation_sign():
    assert det_int([[0, 1], [1, 0]]) == -1


def test_rank():
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1], [1, 1]]) == 2
    assert rank([]) == 0


def test_solve():
    x = solve_rational([[2, 0], [0, 4]], [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 4)]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None
    # underdetermined systems pick the pivot solution
    x = solve_rational([[1, 1]], [3])
    assert x[0] + x[1] == 3


def test_kernel():
    ker = kernel_rational([[1, 1, 0]])
    assert len(ker) == 2
    for v in ker:
        assert v[0] + v[1] == 0


def test_smith():
    assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]
    assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariant_factors([[2, 4], [4, 8]]) == [2]
    assert smith_invariant_factors([[0, 0]]) == []


def test_primitive():
    assert primitive_vector((2, -4, 6)) == (1, -2, 3)
    assert primitive_vector((0, 0)) == (0, 0)


def test_hyperplane_through():
    normal, c = hyperplane_through([(1, 0), (0, 1)])
    assert abs(normal[0]) == abs(normal[1]) == abs(c)
    assert normal[0] * 1 + normal[1] * 0 == c
    # the offset is never negative
    assert (normal, c) == ((1, 1), 1)
    assert hyperplane_through([(-1, 0), (0, -1)]) == ((-1, -1), 1)
    assert hyperplane_through([(2, 0, 0), (0, 2, 0), (0, 0, 2)]) == \
        ((1, 1, 1), 2)
    # distinct points through the origin still give a unique line
    normal, c = hyperplane_through([(1, 1), (2, 2)])
    assert c == 0 and normal[0] == -normal[1]
    # a degenerate span has no unique hyperplane
    assert hyperplane_through([(1, 1, 0), (1, 1, 0), (2, 2, 0)]) is None
    # exactly k points of Z^k
    for points in ([(1, 0), (0, 1), (1, 1)], [(1, 0, 0), (0, 1, 0)],
                   [(1, 0), (0, 1, 0)]):
        with pytest.raises(ValueError):
            hyperplane_through(points)
