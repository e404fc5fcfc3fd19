import math
import random
from fractions import Fraction

import pytest

import qdm
from qdm import linalg

from conftest import (SHIPPED, load_bench_fan, load_fan, reference_invert, reference_reduce,
                      reference_rref, reference_solve_columns)


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
        # echelon: pivot columns strictly increase, pivots positive, and each
        # entry above a pivot lies in [0, pivot), which makes H unique
        last = -1
        for r, row in enumerate(h):
            nz = [j for j, x in enumerate(row) if x]
            if not nz:
                continue
            c = nz[0]
            assert c > last
            assert row[c] > 0
            assert all(0 <= h[i][c] < row[c] for i in range(r))
            last = c
        # the same matrix in Fractions, as _unimodular_inverse meets a
        # rational nef_basis, has the same integral form and integer U
        hf, uf = linalg.hermite_form([[Fraction(x) for x in row] for row in a])
        assert (hf, uf) == (h, u)
        assert all(type(x) is int for row in uf for x in row)
    # no rows; rows of no columns, which U leaves alone
    assert linalg.hermite_form([]) == ([], [])
    assert linalg.hermite_form([[], []]) == ([[], []], [[1, 0], [0, 1]])


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


def divided(basis, width):
    """nullspace's sparse (num, den) vectors as dense Fraction vectors."""
    return [[Fraction(num.get(j, 0), den) for j in range(width)] for num, den in basis]


def test_nullspace_known():
    basis = linalg.nullspace([{0: 1, 1: 1, 2: 1}], 3)
    assert basis == [({0: -1, 1: 1}, 1), ({0: -1, 2: 1}, 1)]
    # x[2] = -2/3 and x[1] = -1/3 share the denominator 3, x[f] = 1 = 3/3
    assert linalg.nullspace([{0: 3, 2: 1}, {1: 3, 2: 1}], 3) == [({0: -1, 1: -1, 2: 3}, 3)]
    # lowest terms: -2/2 over the lcm 2 is -1 over 1
    assert linalg.nullspace([{0: 2, 1: 2}], 2) == [({0: -1, 1: 1}, 1)]
    # columns past width are ignored; a zero row is no constraint; the zero
    # entry x[0] is left out
    assert linalg.nullspace([{}, {0: 1, 2: 5}], 2) == [({1: 1}, 1)]


def test_lowest_terms():
    # zero entries dropped, den > 0, divided by gcd(den, *num); zero is ({}, 1)
    assert linalg.lowest({"a": 4, "b": 0, "c": -6}, -8) == ({"a": -2, "c": 3}, 4)
    assert linalg.lowest({"a": 3}, 5) == ({"a": 3}, 5)
    assert linalg.lowest({"a": 0}, -7) == ({}, 1)
    assert linalg.lowest({}, 3) == ({}, 1)
    for num in ({"a": 2}, {}):
        with pytest.raises(ZeroDivisionError, match="denominator is 0"):
            linalg.lowest(num, 0)


def test_combine_sums_over_one_common_denominator():
    # sum c * num / d over the lcm of the c.denominator * d, times den, not
    # yet in lowest terms
    assert linalg.combine([(1, {"a": 1}, 2), (1, {"a": 1, "b": 3}, 3)]) == (
        {"a": 5, "b": 6}, 6)
    # a Fraction coefficient brings its denominator into the lcm:
    # 3/4 * 2/3 / 5 = 6/60 and 2 / 5 = 24/60
    assert linalg.combine([(Fraction(3, 4), {"a": 2}, 3), (2, {"b": 1}, 1)], 5) == (
        {"a": 6, "b": 24}, 60)
    # a zero coefficient adds nothing; the zero sum it leaves is lowest's to drop
    total = linalg.combine([(0, {"a": 7}, 2), (1, {"b": 1}, 1)])
    assert total == ({"a": 0, "b": 2}, 2)
    assert linalg.lowest(*total) == ({"b": 1}, 1)
    # no terms: the empty sum over den
    assert linalg.combine([], 7) == ({}, 7)
    # a float has no numerator or denominator, and is refused as scale(0.1) is
    with pytest.raises(AttributeError):
        linalg.combine([(0.1, {"a": 1}, 1)])


def test_nullspace_random():
    rng = random.Random(3)
    for _ in range(30):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 6)
        a = [[Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
              for _ in range(cols)] for _ in range(rows)]
        basis = linalg.nullspace(linalg._sparse(a), cols)
        for num, _ in basis:
            for row in a:
                assert sum(row[j] * x for j, x in num.items()) == 0
        rank = len(linalg.rref(a, cols)[1])
        assert len(basis) == cols - rank


def assert_nullspace_contract(mat, width, pivots):
    """nullspace on the sparse rows of mat: one vector per free column, in
    column order, as integer numerators {column: int} over one positive
    denominator in lowest terms, zero entries left out, with num[f] == den
    at its free column f and no other free column a key, and, divided out,
    the reference basis."""
    basis = linalg.nullspace(linalg._sparse(mat), width)
    free = [j for j in range(width) if j not in pivots]
    assert len(basis) == len(free)
    for (num, den), f in zip(basis, free):
        assert all(type(x) is int for x in [*num, *num.values(), den])
        assert all(0 <= j < width and x for j, x in num.items())
        assert den > 0 and math.gcd(den, *num.values()) == 1
        assert num[f] == den
        assert [j for j in free if j in num] == [f]
    assert divided(basis, width) == reference_nullspace(mat, width)


def test_solve_columns():
    sol = linalg.solve_columns([[1, 0], [1, 1]], [3, 2])
    assert sol == ([1, 2], 1)
    # x = (1/2, 3/4) over the lcm 4 of the pivots
    assert linalg.solve_columns([[2, 0], [0, 4]], [1, 3]) == ([2, 3], 4)
    # lowest terms: 2/6 and 3/6 share no factor with 6, but 4/6 and 2/6 do
    assert linalg.solve_columns([[3, 0], [0, 6]], [2, 2]) == ([2, 1], 3)
    assert linalg.solve_columns([[1, 0], [2, 0]], [0, 1]) is None
    assert linalg.solve_columns([], [0, 0]) == ([], 1)
    assert linalg.solve_columns([], [1]) is None


def test_solve_columns_refuses_mismatched_shapes():
    # a target longer or shorter than the columns, or a ragged column list,
    # is refused with both lengths named: a longer target used to lose its
    # last entries, a shorter one raised a bare IndexError
    for cols, target, lengths in (([[1], [2]], [1, 5], (1, 2)),
                                  ([[1, 0, 7]], [2, 0], (3, 2)),
                                  ([[1, 2], [1]], [1, 2], (1, 2))):
        with pytest.raises(ValueError, match="length %d .*length %d" % lengths):
            linalg.solve_columns(cols, target)
    # the empty shapes keep their results
    assert linalg.solve_columns([[], []], []) == ([0, 0], 1)
    assert linalg.solve_columns([], []) == ([], 1)
    assert linalg.invert([]) == ([], 1)


def test_invert():
    inv = linalg.invert([[1, 1], [0, 1]])
    assert inv == ([[1, -1], [0, 1]], 1)
    assert linalg.invert([[2, 0], [0, 4]]) == ([[2, 0], [0, 1]], 4)
    assert linalg.invert([[2, 1], [0, 1]]) == ([[1, -1], [0, 2]], 2)
    assert linalg.invert([[1, 2], [2, 4]]) is None
    # a block that is not square has no inverse
    assert linalg.invert([[1, 2]]) is None
    assert linalg.invert([[1], [2]]) is None
    assert linalg.invert([[], []]) is None


def test_primitive_vector():
    assert linalg.primitive_vector([2, -4, 6]) == (1, -2, 3)
    assert linalg.primitive_vector([-3, 0]) == (1, 0)
    with pytest.raises(ValueError):
        linalg.primitive_vector([0, 0])
    assert linalg.primitive_vector([Fraction(1, 2), Fraction(-1, 3)]) == (3, -2)
    assert linalg.primitive_vector([0, Fraction(-4, 6), 2]) == (0, 1, -3)
    assert linalg.primitive_vector([Fraction(6), 4]) == (3, 2)
    assert all(type(x) is int for x in linalg.primitive_vector([Fraction(6), 4]))
    with pytest.raises(ValueError):
        linalg.primitive_vector([Fraction(0), 0])


# ---------------------------------------------------------------------------
# the elimination kernel against the Fraction Gauss-Jordan it replaced


def reference_nullspace(rows, width):
    """Fraction-free forward elimination, then Fraction back substitution."""
    mat = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        if any(fr):
            den = 1
            for x in fr:
                den = den * x.denominator // math.gcd(den, x.denominator)
            ints = [int(x * den) for x in fr]
            g = math.gcd(*ints)
            mat.append([x // g for x in ints])
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            if mat[i][c]:
                a, b = mat[r][c], mat[i][c]
                mat[i] = [a * x - b * y for x, y in zip(mat[i], mat[r])]
                g = math.gcd(*mat[i])
                if g > 1:
                    mat[i] = [x // g for x in mat[i]]
        pivots.append((r, c))
        r += 1
        if r == len(mat):
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(width):
        if free in pivot_cols:
            continue
        x = [Fraction(0)] * width
        x[free] = Fraction(1)
        for rr, cc in reversed(pivots):
            s = sum((mat[rr][j] * x[j] for j in range(cc + 1, width)), Fraction(0))
            x[cc] = -s / mat[rr][cc]
        basis.append(x)
    return basis


def assert_same(got, want):
    """got is None where the Fraction reference want is, and else (num, den):
    integer numerators over one den > 0, in lowest terms, that divided out
    are want entry for entry."""
    if want is None:
        assert got is None
        return
    num, den = got
    flat = [x for row in num for x in row] if num and isinstance(num[0], list) else num
    want_flat = [x for row in want for x in row] if want and isinstance(want[0], list) else want
    assert len(num) == len(want)
    assert all(type(x) is int for x in flat + [den])
    assert den > 0 and math.gcd(den, *flat) == 1
    assert [Fraction(x, den) for x in flat] == want_flat


def random_matrix(rng, height, width):
    """Rank-deficient by construction half the time, with zero and repeated
    rows mixed in, and Fraction, negative and int entries."""
    def entry():
        if rng.random() < 0.3:
            return 0
        if rng.random() < 0.5:
            return rng.randrange(-7, 8)
        return Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))

    if rng.random() < 0.5 and min(height, width) > 1:
        rank = rng.randrange(1, min(height, width))
        left = [[entry() for _ in range(rank)] for _ in range(height)]
        right = [[entry() for _ in range(width)] for _ in range(rank)]
        mat = [[sum((a * b for a, b in zip(row, col)), 0) for col in zip(*right)]
               for row in left]
    else:
        mat = [[entry() for _ in range(width)] for _ in range(height)]
    if height > 1 and rng.random() < 0.3:
        mat[rng.randrange(height)] = [0] * width
    if height > 1 and rng.random() < 0.3:
        mat[rng.randrange(height)] = list(mat[rng.randrange(height)])
    return mat


def test_kernel_matches_the_reference_eliminations():
    rng = random.Random(20)
    seen = {"tall": 0, "wide": 0, "square": 0, "rank_deficient": 0,
            "inconsistent": 0, "singular": 0}
    for trial in range(300):
        height, width = rng.randrange(1, 8), rng.randrange(1, 8)
        if trial % 3 == 0:
            width = height
        mat = random_matrix(rng, height, width)
        seen["tall" if height > width else "wide" if height < width else "square"] += 1
        red, pivots = linalg.rref(mat, width)
        assert fraction_form(red, pivots) == reference_rref(mat, width)
        assert all(type(x) is int for row in red for x in row)
        assert all(row[c] > 0 for row, c in zip(red, pivots))
        assert_nullspace_contract(mat, width, pivots)
        seen["rank_deficient"] += len(pivots) < min(height, width)

        cols = [list(c) for c in zip(*mat)]
        if rng.random() < 0.5:
            target = [sum((rng.randrange(-3, 4) * x for x in row), 0) for row in mat]
        else:
            target = [rng.randrange(-5, 6) for _ in range(height)]
        sol = linalg.solve_columns(cols, target)
        assert_same(sol, reference_solve_columns(cols, target))
        seen["inconsistent"] += sol is None

        if height == width:
            inv = linalg.invert(mat)
            assert_same(inv, reference_invert(mat))
            seen["singular"] += inv is None
    assert min(seen.values()) >= 10, seen


def test_the_reference_eliminations_agree():
    # conftest.reference_rref (fraction-free Gauss-Jordan) and
    # reference_nullspace (forward elimination, then Fraction back
    # substitution) share no code: the nullspace read off the free columns
    # of the one's reduced form is the other's basis
    rng = random.Random(21)
    for _ in range(300):
        height, width = rng.randrange(1, 8), rng.randrange(1, 8)
        mat = random_matrix(rng, height, width)
        red, pivots = reference_rref(mat, width)
        assert pivots == sorted(set(pivots))
        assert [[row[c] for row in red] for c in pivots] == [
            [int(i == j) for j in range(len(pivots))] for i in range(len(pivots))]
        free = [f for f in range(width) if f not in pivots]
        basis = [[Fraction(j == f) for j in range(width)] for f in free]
        for row, c in zip(red, pivots):
            for x, f in zip(basis, free):
                x[c] = -row[f]
        assert basis == reference_nullspace(mat, width)


# ---------------------------------------------------------------------------
# the sparse kernel against the dense one it replaced


def fraction_form(red, pivots):
    """The dense integer rows of a kernel result, each divided by its pivot."""
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(red, pivots)], pivots


def assert_kernel_result(rows, width):
    """_reduce agrees with reference_reduce as a Fraction echelon form, and
    its rows are coprime integers with positive pivots."""
    size = len(rows[0]) if rows else width
    red, pivots = linalg._reduce(linalg._sparse(rows), width)
    want = reference_reduce(rows, width)
    got_rows = [[row.get(j, 0) for j in range(size)] for row in red]
    assert fraction_form(got_rows, pivots) == fraction_form(*want)
    for row, c in zip(red, pivots):
        assert all(type(x) is int and x for x in row.values())
        assert math.gcd(*row.values()) == 1 and row[c] > 0
    return red, pivots


def kernel_cases(rng):
    """Seeded dense matrices, with every shape the kernel must handle."""
    yield [], 3
    yield [[0]], 1
    yield [[5]], 1
    yield [[Fraction(-2, 3)]], 1
    yield [[0, 0, 0], [0, 0, 0]], 3
    yield [[1, 2, 3], [1, 2, 3], [2, 4, 6]], 3
    for trial in range(200):
        height, width = rng.randrange(1, 9), rng.randrange(1, 9)
        mat = random_matrix(rng, height, width)
        if trial % 2:  # integer entries only
            mat = [[x.numerator * 3 // x.denominator if isinstance(x, Fraction) else x
                    for x in row] for row in mat]
        yield mat, width


def ring_build_matrices(fan):
    """Every (rows, width) the charge matrix and ring build of the fan pass
    to the kernel, as dense integer rows."""
    calls = []
    kernel = linalg._reduce

    def recording(rows, width):
        rows = list(rows)
        size = max([width] + [c + 1 for row in rows for c in row])
        calls.append(([[row.get(j, 0) for j in range(size)] for row in rows], width))
        return kernel(rows, width)

    linalg._reduce = recording
    try:
        qdm.build_ring(fan, qdm.charge_matrix(fan))
    finally:
        linalg._reduce = kernel
    return calls


def test_sparse_kernel_matches_the_dense_reference():
    rng = random.Random(16)
    seen = {"empty": 0, "zero_rows": 0, "duplicate_rows": 0, "rank_deficient": 0}
    for mat, width in kernel_cases(rng):
        _, pivots = assert_kernel_result(mat, width)
        nonzero = [tuple(row) for row in mat if any(row)]
        seen["empty"] += not nonzero
        seen["zero_rows"] += len(nonzero) < len(mat)
        seen["duplicate_rows"] += len(set(nonzero)) < len(nonzero)
        seen["rank_deficient"] += len(pivots) < min(len(mat), width)
    assert min(seen.values()) >= 3, seen


@pytest.mark.parametrize("name", SHIPPED)
def test_sparse_kernel_matches_the_dense_reference_on_fan_relations(name):
    calls = ring_build_matrices(load_fan(name))
    assert len(calls) > 2
    for rows, width in calls:
        assert_kernel_result(rows, width)


@pytest.mark.parametrize("name", ["p1x4", "p2xp2"])
def test_sparse_kernel_matches_the_dense_reference_on_benchmark_rings(name):
    for rows, width in ring_build_matrices(load_bench_fan(name)):
        assert_kernel_result(rows, width)


def test_buckets_by_leading_column_match_the_dense_reference():
    # rows crowded onto few leading columns, so each bucket holds many rows
    # and clearing one moves it a short or a long way
    rng = random.Random(27)
    ranked = 0
    for trial in range(150):
        width = rng.randrange(2, 14)
        rows = []
        for _ in range(rng.randrange(1, 16)):
            lead = rng.choice((0, 0, 1, width // 2))
            row = [0] * width
            row[lead] = rng.choice((1, -1, 2, 3, Fraction(1, 2)))
            for _ in range(rng.randrange(0, 4)):
                row[rng.randrange(lead, width)] = rng.randrange(-4, 5)
            rows.append(row)
        _, pivots = assert_kernel_result(rows, width)
        ranked += len(pivots) > 1
    assert ranked > 50


def test_kernel_output_does_not_depend_on_row_order():
    rng = random.Random(17)
    cases = list(kernel_cases(rng)) + ring_build_matrices(load_fan("p1x3")) \
        + ring_build_matrices(load_fan("dp3"))
    for mat, width in cases:
        want = linalg._reduce(linalg._sparse(mat), width)
        for _ in range(3):
            shuffled = list(mat)
            rng.shuffle(shuffled)
            assert linalg._reduce(linalg._sparse(shuffled), width) == want
