"""Exact integer and rational linear algebra helpers.

Everything operates on plain lists of Python ints or Fractions.  No floating
point is introduced anywhere; results are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def vector_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive_vector(v):
    """Divide out the gcd and make the first nonzero entry positive."""
    g = vector_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    w = [x // g for x in v]
    lead = next(x for x in w if x)
    if lead < 0:
        w = [-x for x in w]
    return tuple(w)


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def hermite_form(rows):
    """Row Hermite normal form of an integer matrix.

    Returns (H, U) with U unimodular and U @ A = H.  H is in row echelon
    form with positive pivots and entries above each pivot reduced.
    """
    h = [list(r) for r in rows]
    m = len(h)
    u = identity_matrix(m)
    if m == 0 or not h[0]:
        return h, u
    width = len(h[0])
    r = 0
    for c in range(width):
        while True:
            nz = [i for i in range(r, m) if h[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
                u[r], u[i0] = u[i0], u[r]
            if len(nz) == 1:
                break
            for i in range(r + 1, m):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        if r < m and h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            r += 1
            if r == m:
                break
    return h, u


def integer_kernel(mat):
    """Basis of the lattice {u in Z^n : mat @ u = 0}, as rows.

    Kernels of lattice maps are automatically saturated, so any unimodular
    completion gives a genuine basis; the result is put in Hermite form to
    make it canonical.
    """
    if not mat or not mat[0]:
        raise ValueError("matrix must be nonempty")
    at = transpose(mat)
    h, u = hermite_form(at)
    ker = [u[i] for i in range(len(at)) if all(x == 0 for x in h[i])]
    if not ker:
        return []
    hk, _ = hermite_form(ker)
    return [tuple(row) for row in hk if any(row)]


def int_det(mat) -> int:
    """Determinant of an integer matrix, by fraction-free (Bareiss) elimination."""
    n = len(mat)
    if n == 0:
        return 1
    m = [list(r) for r in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rref(rows, width):
    """Reduced row echelon form over exact rationals.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def _scaled_int_row(row):
    fr = [Fraction(x) for x in row]
    if all(x == 0 for x in fr):
        return None
    den = 1
    for x in fr:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in fr]
    g = vector_gcd(ints)
    return [x // g for x in ints]


def nullspace(rows, width):
    """Basis of the rational nullspace {x : rows @ x = 0}.

    Forward elimination is fraction-free: every row is scaled to coprime
    integers and updated by cross-multiplication followed by a gcd
    reduction, so no division occurs before back substitution.
    """
    mat = []
    for row in rows:
        scaled = _scaled_int_row(row)
        if scaled is not None:
            mat.append(scaled)
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
                g = vector_gcd(mat[i])
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


def solve_columns(cols, target):
    """Exact x with sum_i x[i] * cols[i] = target, or None if inconsistent.

    When the solution is not unique the free coordinates are set to zero.
    """
    if not cols:
        return [] if all(t == 0 for t in target) else None
    height = len(cols[0])
    rows = [[col[i] for col in cols] + [target[i]] for i in range(height)]
    red, pivots = rref(rows, len(cols) + 1)
    if len(cols) in pivots:
        return None
    x = [Fraction(0)] * len(cols)
    for row, c in zip(red, pivots):
        x[c] = row[-1]
    return x


def invert(mat):
    """Exact inverse of a square matrix over the rationals, or None if singular."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(mat)]
    red, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]
