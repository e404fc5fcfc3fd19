import random
from fractions import Fraction

import pytest

from qdm import linalg


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def test_hermite_form_known():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h, u = linalg.hermite_form(a)
    # pivots 2*2*156 = 624 = |det a|; entries above each pivot reduced
    assert h == [[2, 0, 120], [0, 2, 20], [0, 0, 156]]
    assert mat_mul(u, a) == h
    assert abs(linalg.int_det(u)) == 1


def test_hermite_form_random_properties():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        h, u = linalg.hermite_form(a)
        assert mat_mul(u, a) == h
        assert abs(linalg.int_det(u)) == 1
        # echelon: pivot columns strictly increase, pivots positive
        last = -1
        for row in h:
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            assert nz[0] > last
            assert row[nz[0]] > 0
            last = nz[0]


def test_integer_kernel_known():
    assert linalg.integer_kernel([[1, 0, -1], [0, 1, -1]]) == [(1, 1, 1)]
    assert linalg.integer_kernel([[1, -1]]) == [(1, 1)]
    # saturated: the primitive generator is found even when the matrix has
    # content
    assert linalg.integer_kernel([[2, 2]]) == [(1, -1)]


def test_integer_kernel_random():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(rows, 6)
        a = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
        ker = linalg.integer_kernel(a)
        for vec in ker:
            assert all(sum(r[j] * vec[j] for j in range(cols)) == 0 for r in a)
        rank = len(linalg.rref(a, cols)[1])
        assert len(ker) == cols - rank


def test_int_det():
    assert linalg.int_det([[1, 2], [3, 4]]) == -2
    assert linalg.int_det([[0, 1], [1, 0]]) == -1
    assert linalg.int_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert linalg.int_det([[1, 2], [2, 4]]) == 0


def test_rref():
    red, piv = linalg.rref([[0, 2, 4], [1, 1, 1]], 3)
    assert piv == [0, 1]
    assert red == [[1, 0, -1], [0, 1, 2]]


def test_nullspace_known():
    basis = linalg.nullspace([[1, 1, 1]], 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0


def test_nullspace_random():
    rng = random.Random(3)
    for _ in range(30):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        a = [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
              for _ in range(cols)] for _ in range(rows)]
        basis = linalg.nullspace(a, cols)
        for vec in basis:
            for row in a:
                assert sum(x * y for x, y in zip(row, vec)) == 0
        rank = len(linalg.rref(a, cols)[1])
        assert len(basis) == cols - rank


def test_solve_columns():
    sol = linalg.solve_columns([[1, 0], [1, 1]], [3, 2])
    assert sol == [Fraction(1), Fraction(2)]
    assert linalg.solve_columns([[1, 0], [2, 0]], [0, 1]) is None
    assert linalg.solve_columns([], [0, 0]) == []
    assert linalg.solve_columns([], [1]) is None


def test_invert():
    inv = linalg.invert([[1, 1], [0, 1]])
    assert inv == [[1, -1], [0, 1]]
    assert linalg.invert([[1, 2], [2, 4]]) is None


def test_primitive_vector():
    assert linalg.primitive_vector([2, -4, 6]) == (1, -2, 3)
    assert linalg.primitive_vector([-3, 0]) == (1, 0)
    with pytest.raises(ValueError):
        linalg.primitive_vector([0, 0])
