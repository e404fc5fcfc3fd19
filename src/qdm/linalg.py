"""Exact integer and rational linear algebra helpers.

Everything operates on plain lists of Python ints, or of rationals read
through .numerator and .denominator.  No floating point is introduced
anywhere; results are exact.  A rational vector or matrix is returned as
integer numerators over one denominator den > 0, in lowest terms.
`lowest(num, den)` puts a sparse {key: int} over den in lowest terms, for
nullspace vectors, solutions, classes and operators alike, and refuses a
zero den.  `combine(terms, den)` is the one common-denominator sum beside
it: sum c * num / d over (c, num, d) terms, over the lcm of the
c.denominator * d, which classes and operators add and scale through.

Rational elimination has one kernel, `_reduce`, on sparse rows
{column: entry}.  It clears each nonzero input row to coprime integers.
For each column in turn the pivot is the sparsest remaining row with a
nonzero entry there, ties going to the row that came first in the input.
The remaining rows are kept in buckets by leading column, so the rows
that have the column are read off its bucket, not found by a scan; only
they are updated, by cross-multiplication, and each updated row is divided
once by its gcd.  The pivot rows are then back-substituted, last pivot
first.  It returns the integer rows of the reduced row echelon form, pivot
entries positive, and the pivot columns.  That form is unique, so the
result does not depend on the order of the input rows or on the pivot
rule; the rule only sets how large the integers grow on the way.  (The
entries past width are unique unless a combination of the rows is zero on
the first width columns but not past them; no caller reads the rows of
such a matrix.)  `rref` and `_solve` convert their dense rows to sparse
ones; `rref` returns the integer rows made dense.  `_solve` reduces the
augmented matrix [a | b] and reads X off it, free coordinates zero, as
{(i, j): int} over the lcm of the pivot entries it divides by, put in
lowest terms by `lowest`; `solve_columns` and `invert` are its two
callers.  `nullspace` takes sparse rows, as `_reduce` does, and returns
each basis vector sparse too, as {column: int} over its den.
`CohomRing` and the annihilator search build sparse rows themselves, and
`CohomRing` keeps the integer rows.

`hermite_form`, `integer_kernel` and `int_det` stay outside the kernel:
lattice work needs unimodular row transforms and a signed determinant,
which rational row scaling does not preserve.  `hermite_form` runs each
row operation once, on the rows of [A | I], and splits off H and U at the
end.  No run computes an `integer_kernel`: the charge matrix reads its
relation basis off the Hermite form of the wall relations.
`integer_kernel` serves only as the tests' oracle for that basis and as an
entry point the frozen benchmark traces.
"""

from __future__ import annotations

from math import gcd, lcm


def primitive_vector(v):
    """The coprime integer vector on the ray of v, first nonzero entry positive.

    Entries may be ints or rationals.
    """
    den = lcm(*(x.denominator for x in v))
    v = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    w = [x // g for x in v]
    lead = next(x for x in w if x)
    if lead < 0:
        w = [-x for x in w]
    return tuple(w)


def hermite_form(rows):
    """Row Hermite normal form of an integer matrix.

    Returns (H, U) with U unimodular and U @ A = H.  H is in row echelon
    form with positive pivots and entries above each pivot reduced.  Each
    row operation runs once, on the rows of [A | I], whose two halves are
    then H and U.
    """
    m = len(rows)
    width = len(rows[0]) if m else 0
    h = [[*row, *(int(i == j) for j in range(m))] for i, row in enumerate(rows)]
    r = 0
    for c in range(width):
        while True:
            nz = [i for i in range(r, m) if h[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][c]), i))
            if i0 != r:
                h[r], h[i0] = h[i0], h[r]
            if len(nz) == 1:
                break
            for i in range(r + 1, m):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
        if h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
            for i in range(r):
                q = h[i][c] // h[r][c]
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
            r += 1
            if r == m:
                break
    return [row[:width] for row in h], [row[width:] for row in h]


def integer_kernel(mat):
    """Basis of the lattice {u in Z^n : mat @ u = 0}, as rows.

    Kernels of lattice maps are automatically saturated, so any unimodular
    completion gives a genuine basis; the result is put in Hermite form to
    make it canonical.
    """
    if not mat or not mat[0]:
        raise ValueError("matrix must be nonempty")
    at = [list(col) for col in zip(*mat)]
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


def _sparse(rows):
    """Dense rows as sparse rows {column: entry}, zero entries left out."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def _reduce(rows, width):
    """Fraction-free Gauss-Jordan elimination of sparse rows {column: entry}
    (ints or rationals) on the first width columns.

    Returns (int_rows, pivot_columns): the rows of the reduced row echelon
    form as sparse rows, each the coprime integer multiple of the rational
    one with a positive pivot entry, in pivot order; zero rows are dropped.
    Both are unique, so they do not depend on the order of the input rows.

    The rows not yet used as pivots sit in buckets by leading column: when
    column c comes up, the columns before it are cleared, so its bucket
    holds every row with an entry there.  A cleared row moves to the bucket
    of its new leading column, min(row).  The pivot rows are
    back-substituted once at the end, last pivot first: each is then
    cleared only by rows that hold no other pivot column, so a clearing
    never brings a pivot column back.
    """
    rest = [_coprime(row) for row in rows if row]
    buckets = {}  # leading column -> indices into rest, lowest input first
    for i, row in enumerate(rest):
        buckets.setdefault(min(row), []).append(i)
    done = []
    pivots = []
    for c in range(width):
        hits = buckets.pop(c, None)
        if hits is None:
            if not buckets:
                break
            continue
        if len(hits) == 1:
            prow = rest[hits[0]]
        else:
            p = min(hits, key=lambda i: (len(rest[i]), i))
            prow = rest[p]
            a = prow[c]
            for i in hits:
                if i != p:
                    row = rest[i] = _eliminate(rest[i], prow, a, c)
                    if row:
                        buckets.setdefault(min(row), []).append(i)
        done.append(prow)
        pivots.append(c)
    index = {c: i for i, c in enumerate(pivots)}
    for i in range(len(done) - 1, -1, -1):
        row, c = done[i], pivots[i]
        if len(row) > 1:
            for j in sorted(j for j in row if j in index and j != c):
                prow = done[index[j]]
                row = _eliminate(row, prow, prow[j], j)
        done[i] = {j: -x for j, x in row.items()} if row[c] < 0 else row
    return done, pivots


def _coprime(row):
    """A nonzero sparse row as coprime integers: over the gcd of its int
    entries, or primitive_vector's multiple if an entry is rational."""
    try:
        g = gcd(*row.values())
    except TypeError:  # rational entries
        return dict(zip(row, primitive_vector(list(row.values()))))
    return {j: x // g for j, x in row.items()} if g > 1 else dict(row)


def _eliminate(row, prow, a, c):
    """a * row - row[c] * prow, which vanishes in column c, over its gcd;
    a is prow[c].  When a divides row[c] it is row - (row[c] / a) * prow,
    the same row up to sign, which the final pivot signs settle."""
    b = row[c]
    if b % a:
        out = {j: a * x for j, x in row.items()}
    else:
        out = dict(row)
        b //= a
    for j, y in prow.items():
        v = out.get(j, 0) - b * y
        if v:
            out[j] = v
        else:
            del out[j]
    if not out:
        return out
    g = gcd(*out.values())
    return {j: x // g for j, x in out.items()} if g > 1 else out


def rref(rows, width):
    """Reduced row echelon form over exact rationals, as integer rows.

    Returns (int_rows, pivot_columns); zero rows are dropped.  Row i divided
    by its pivot entry int_rows[i][pivot_columns[i]] > 0 is the reduced row.
    """
    size = len(rows[0]) if rows else width
    red, pivots = _reduce(_sparse(rows), width)
    return [[row.get(j, 0) for j in range(size)] for row in red], pivots


def lowest(num, den):
    """The int numerators num = {key: int} over the int den, in lowest terms:
    (num without zero entries, den > 0) divided by gcd(den, *num).  Zero is
    ({}, 1); a zero den raises ZeroDivisionError."""
    if not den:
        raise ZeroDivisionError("the denominator is 0")
    g = gcd(den, *num.values())
    if den < 0:
        g = -g
    return {k: v // g for k, v in num.items() if v}, den // g


def combine(terms, den=1):
    """sum c * num / d over the list of (c, num, d) terms, divided by the
    int den: num = {key: int} over the int d > 0, c an int or a rational.
    Returns (num, den), int numerators over den times the lcm of the
    c.denominator * d, not yet in lowest terms; no terms give ({}, den)."""
    common = lcm(*[c.denominator * d for c, _, d in terms])
    out = {}
    get = out.get
    for c, num, d in terms:
        k = c.numerator * (common // (c.denominator * d))
        for key, v in num.items():
            out[key] = get(key, 0) + k * v
    return out, common * den


def nullspace(rows, width):
    """Basis of the rational nullspace {x : rows @ x = 0} of sparse rows
    {column: entry} (ints or rationals) on the first width columns.

    One vector per free column f, in column order, with x[f] = 1 and the
    other free coordinates 0, as (num, den): integer numerators
    num = {column: int} over one denominator den > 0, in lowest terms, so
    num[f] == den.  Zero entries are left out, so num holds f and the pivot
    columns below f whose rows reach f, and no other free column.
    """
    red, pivots = _reduce(rows, width)
    pivot_set = set(pivots)
    hits = {f: [] for f in range(width) if f not in pivot_set}
    for row, c in zip(red, pivots):
        for j, v in row.items():
            if j in hits:  # the free columns, those past width left out
                hits[j].append((c, v, row[c]))
    basis = []
    for f, entries in hits.items():
        den = lcm(*(p for _, _, p in entries))
        basis.append(lowest({f: den} | {c: -v * (den // p) for c, v, p in entries}, den))
    return basis


def _solve(a, b):
    """X with sum_i X[i][j] * a[i] = b[j] for every j, the matrices a and b
    given by their columns of one length, as (rows, den): len(a) rows of
    len(b) integer numerators over one den > 0, in lowest terms, with the
    free coordinates set to zero; None if the system is inconsistent.

    [a | b] is reduced on all its columns, so the system is inconsistent
    exactly when a pivot falls in b.
    """
    n, k = len(a), len(b)
    red, pivots = _reduce(_sparse(zip(*a, *b)), n + k)
    if pivots and pivots[-1] >= n:
        return None
    den = lcm(*(row[c] for row, c in zip(red, pivots)))
    x, den = lowest({(c, j): v * (den // row[c]) for row, c in zip(red, pivots)
                     for j in range(k) if (v := row.get(n + j))}, den)
    return [[x.get((i, j), 0) for j in range(k)] for i in range(n)], den


def solve_columns(cols, target):
    """Exact x with sum_i x[i] * cols[i] = target, as (num, den), or None if
    inconsistent.

    When the solution is not unique the free coordinates are set to zero.
    A column whose length is not the target's is refused with a ValueError.
    """
    for col in cols:
        if len(col) != len(target):
            raise ValueError("a column of length %d does not match the target's "
                             "length %d" % (len(col), len(target)))
    sol = _solve(cols, [target])
    return None if sol is None else ([r[0] for r in sol[0]], sol[1])


def invert(mat):
    """Exact inverse of a square matrix over the rationals, as (rows, den),
    or None if it is singular or not square."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        return None
    return _solve(list(zip(*mat)), [[int(i == j) for i in range(n)] for j in range(n)])
