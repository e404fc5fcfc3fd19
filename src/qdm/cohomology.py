"""Rational cohomology of a smooth complete toric variety, exactly.

H*(M; Q) = Q[x_1..x_n] / (linear relations from the rays + Stanley-Reisner
monomials of the fan).  The Stanley-Reisner generators are the products
prod_{k in P} x_k over the fan's primitive collections P, its minimal
nonfaces, which make_fan finds once per fan (FanData.primitive_collections).
In reduced row echelon form each linear relation is
led by one variable x_p; replacing x_p by its linear form in the l = n - dim
free variables presents the ring on those.  It is graded by complex degree,
generators sit in degree one, and everything vanishes above the top degree
dim(M), so each graded piece is computed once and for all by exact row
reduction of the relation multiples over the free monomials.  Each multiple
is built as a sparse row, its monomials shifted to column indices, and goes
to linalg's sparse kernel as it is.  Columns run
in mono_key order, lex with x_1 first, where x_p leads its relation, so the
standard monomials, the basis, are those a reduction over all n variables
gives.  No Groebner machinery is needed or used.

Integration is normalized so that the class of a torus-fixed point, the
product prod_{k in sigma} x_k over any maximal cone sigma, integrates to 1;
that every maximal cone gives the same point class is checked.  The
Poincare pairing vanishes off complementary degrees, so it is the blocks
pairing(deg), each read off the reduction table on every call; the dual
basis inverts them block by block.

A class is sparse: integer numerators num = {basis monomial: int} over one
denominator den > 0, in lowest terms (gcd(den, *num) == 1, no zero entry;
zero is ({}, 1)), so the kernels run on Python ints and normalize each
result once, with one gcd, in linalg.lowest, as operators and nullspace
vectors are; a zero den is refused there.  Sums and scalings of classes,
combination and scale, go through linalg.combine, as operators' do.  A
rational scalar is read through .numerator and .denominator, so an int or
a Fraction will do.  The reduction table holds each free monomial of
degree at most top as an integer row over one ring-wide denominator, the
lcm of the pivot entries; the product of two basis monomials is the row of
their product monomial, read off it once per ring and memoized, and is
zero when the table lacks it.  Nothing is built above the top degree:
make_fan refuses cones that do not form a complete fan, whose ring
vanishes there (Danilov-Jurkiewicz; Fulton 1993, 5.2).
Multiplication by a degree-one class L (a ray divisor alpha_k, a nef class
omega_j) is a sparse integer matrix over one denominator, built lazily once
per ring and L: its row for a basis monomial b is the reduced product L*b.
times_linear applies L + nu in one pass.  divide_linear inverts it in one
pass up the graded basis: L raises the degree by one, so the degree-i part
of the solution is x_i = (v_i - L*x_{i-1}) / nu.
"""

from __future__ import annotations

from functools import reduce
from math import lcm
from operator import add, mul

from . import linalg
from .toric import ChargeMatrix, FanData, FanError


def mono_key(mono):
    """Graded-lex sort key: by total degree, then x_1-heavy monomials first."""
    return (sum(mono), tuple(-e for e in mono))


def monomials(n, degree):
    """All exponent tuples in n variables of the given total degree, sorted."""
    return _monomials_in(n, range(n), degree)


def _monomials_in(n, variables, degree):
    """The exponent tuples in n variables of the given total degree that
    involve only the given variables, sorted by mono_key.

    Within a degree mono_key is descending lex order.  So each head, a
    prefix with the degree it leaves, is extended by the next variable's
    exponent from that degree down, and the last variable takes the rest."""
    variables = sorted(variables)
    if not variables:
        return [(0,) * n] if degree == 0 else []
    ends = variables[1:] + [n]
    heads = [((0,) * variables[0], degree)]
    for v, end in zip(variables[:-1], ends):
        gap = (0,) * (end - v - 1)  # the positions up to the next variable
        heads = [(head + (a,) + gap, left - a) for head, left in heads
                 for a in range(left, -1, -1)]
    gap = (0,) * (n - variables[-1] - 1)
    return [head + (left,) + gap for head, left in heads]


def add_exponents(a, b):
    """The exponent tuple of the product of two monomials."""
    return tuple(map(add, a, b))


def poly_mul(a, b):
    """The product of two polynomials {exponent tuple: coeff}, without zero
    coefficients."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = add_exponents(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


class CohomClass:
    """Ring element sum_m num[m] / den * m over the monomial basis, kept in
    lowest terms (see the module docstring)."""

    __slots__ = ("ring", "num", "den", "_hash")

    def __init__(self, ring, num, den=1):
        """The class num / den, normalized.  num maps monomials to int
        numerators over the int den; a rational class is built with
        combination or scale."""
        self.ring = ring
        self.num, self.den = linalg.lowest(num, den)

    def is_zero(self) -> bool:
        return not self.num

    def _combine(self, other, sign):
        if not isinstance(other, CohomClass) or other.ring is not self.ring:
            return NotImplemented
        return self.ring.combination(((1, self), (sign, other)))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return CohomClass(self.ring, *linalg.combine([(c, self.num, self.den)]))

    def __mul__(self, other):
        if isinstance(other, CohomClass):
            if other.ring is not self.ring:
                return NotImplemented
            return self.ring.multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (isinstance(other, CohomClass) and self.ring is other.ring
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        # a class is never changed after __init__, so its hash is taken once:
        # the ring's per-class caches look the same class up many times
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.den, frozenset(self.num.items())))
            return self._hash

    def __repr__(self):
        return "CohomClass(%r, %d)" % (self.num, self.den)


class CohomRing:
    """The graded quotient ring, with reduction tables per degree."""

    def __init__(self, fan: FanData, cm: ChargeMatrix):
        if cm.n != fan.n_rays:
            raise ValueError("charge matrix does not match the fan")
        if any(sum(a * x for a, x in zip(row, col)) for row in cm.m for col in zip(*fan.rays)):
            raise FanError("charge matrix rows are not relations among the rays")
        self.fan = fan
        self.cm = cm
        self.n = fan.n_rays
        self.top = fan.dim
        self.l = cm.l
        red, lead = linalg._reduce(linalg._sparse(zip(*fan.rays)), self.n)
        free = [j for j in range(self.n) if j not in lead]
        units = monomials(self.n, 1)
        forms = [({u: 1}, 1) for u in units]  # x_k = num / den in the free variables
        for row, p in zip(red, lead):
            forms[p] = ({units[j]: -row[j] for j in free if j in row}, row[p])
        # a relation times a nonzero constant spans the same rows
        relations = [(len(nf), reduce(poly_mul, [forms[k][0] for k in nf]))
                     for nf in fan.primitive_collections]
        free_monos = {deg: _monomials_in(self.n, free, deg) for deg in range(self.top + 1)}
        self._table = {}  # free monomial -> its reduced form, see _build_degree
        self._den = 1  # lcm of the pivot entries, the table's one denominator
        self.basis_by_degree = {deg: self._build_degree(deg, free_monos, relations)
                                for deg in range(self.top + 1)}
        # free monomial -> ((mb, r), ...), its reduced form sum r / _den * mb
        self._table = {m: tuple((mb, r * (self._den // den)) for mb, r in row)
                       for m, (row, den) in self._table.items()}
        self.dims = tuple(len(self.basis_by_degree[d]) for d in range(self.top + 1))
        if self.dims[0] != 1 or self.dims[self.top] != 1:
            raise FanError("cohomology must be one dimensional in degrees 0 and %d"
                           % self.top)
        if sum(self.dims) != len(fan.max_cones):
            raise FanError("total Betti number %d does not match the %d maximal cones"
                           % (sum(self.dims), len(fan.max_cones)))
        self.basis = tuple(m for d in range(self.top + 1)
                           for m in self.basis_by_degree[d])
        self._point_mono = self.basis_by_degree[self.top][0]
        self._pairs = {}  # (basis mono, basis mono) -> ((mb, r), ...) over _den
        self._generators = tuple(CohomClass(self, num, den) for num, den in forms)
        self._point = self._normalize_point()
        self._omega_cache = {}
        self._linear_cache = {}
        one = self.one()  # the Euler-ratio memos, see the ifunction module
        self.ratios = {(0,) * self.l: one}
        self.factor_products = {(k, 0): one for k in range(self.n)}

    # -- construction ---------------------------------------------------

    def _build_degree(self, deg, free_monos, relations):
        """Row-reduce the degree-deg free monomials against the multiples of
        the Stanley-Reisner relations; returns the basis of the degree.  A
        multiple rel * mu is a sparse row: each monomial of rel, shifted by
        mu, is a column index.  A pivot monomial reduces to -row[j] / row[c]
        on the free columns j of its integer row, whose pivot row[c] > 0; the
        table holds it as (((m_j, -row[j]), ...), row[c]) until __init__ puts
        every row over _den."""
        cols = free_monos[deg]
        index = {m: j for j, m in enumerate(cols)}
        rows = [{index[add_exponents(m, mu)]: c for m, c in rel.items()}
                for size, rel in relations for mu in free_monos.get(deg - size, ())]
        red, pivots = linalg._reduce(rows, len(cols))
        pivset = set(pivots)
        basis = [cols[j] for j in range(len(cols)) if j not in pivset]
        for row, c in zip(red, pivots):
            self._table[cols[c]] = (tuple((cols[j], -row[j]) for j in sorted(row) if j != c),
                                    row[c])
            self._den = lcm(self._den, row[c])
        for m in basis:
            self._table[m] = (((m, 1),), 1)
        return basis

    def _normalize_point(self):
        """The point class prod_{k in sigma} x_k, the same nonzero class for
        every maximal cone sigma, as its point-monomial coordinate (num, den).
        The top degree has one basis monomial and a class is in lowest terms,
        so two point classes are equal exactly when their integrals are."""
        points = {reduce(self.multiply, (self._generators[k] for k in cone))
                  for cone in self.fan.max_cones}
        point = points.pop()
        if points or point.is_zero():
            raise FanError("inconsistent point normalization across maximal cones")
        return point.num[self._point_mono], point.den

    # -- arithmetic ------------------------------------------------------

    def zero(self) -> CohomClass:
        return CohomClass(self, {})

    def one(self) -> CohomClass:
        return CohomClass(self, {(0,) * self.n: 1})

    def generator(self, k) -> CohomClass:
        """alpha_k, the class of the k-th ray divisor."""
        return self._generators[k]

    def monomial_class(self, mono) -> CohomClass:
        """The reduced class of a monomial in the free variables."""
        if sum(mono) > self.top:
            return self.zero()
        return CohomClass(self, dict(self._table[tuple(mono)]), self._den)

    def _pair(self, m1, m2):
        """The reduced product of two basis monomials as ((mb, r), ...) over
        the ring-wide denominator _den: the table row of m1 * m2, memoized.
        The table holds every free monomial up to the top degree, so a
        product missing from it lies above the top and is zero."""
        key = (m1, m2)
        row = self._pairs.get(key)
        if row is None:
            row = self._pairs[key] = self._table.get(add_exponents(m1, m2), ())
        return row

    def multiply(self, a: CohomClass, b: CohomClass) -> CohomClass:
        out = {}
        pairs, pair = self._pairs, self._pair
        for m1, c1 in a.num.items():
            for m2, c2 in b.num.items():
                row = pairs.get((m1, m2))
                if row is None:
                    row = pair(m1, m2)
                c12 = c1 * c2
                for mb, r in row:
                    out[mb] = out.get(mb, 0) + c12 * r
        return CohomClass(self, out, a.den * b.den * self._den)

    def combination(self, terms, den=1) -> CohomClass:
        """sum c * cls over the (c, cls) pairs, int or Fraction c, divided by
        the int den > 0, as one class: linalg.combine over the nonzero c."""
        terms = [(c, cls) for c, cls in terms if c]
        if any(cls.ring is not self for _, cls in terms):
            raise ValueError("a term belongs to another ring")
        return CohomClass(self, *linalg.combine([(c, cls.num, cls.den) for c, cls in terms],
                                                den))

    def _linear(self, lin: CohomClass):
        """Multiplication by the degree-one class lin, built once per class:
        (rows, den) with rows {b: ((mb, r), ...)}, the reduced product lin*b
        being sum r / den * mb."""
        entry = self._linear_cache.get(lin)
        if entry is None:
            if any(sum(m) != 1 for m in lin.num):
                raise ValueError("multiplication matrices need a degree-one class")
            rows = {}
            for b in self.basis[:-1]:  # lin times the top monomial vanishes
                acc = {}
                for m, c in lin.num.items():
                    for mb, r in self._pair(m, b):
                        acc[mb] = acc.get(mb, 0) + c * r
                rows[b] = tuple((mb, r) for mb, r in acc.items() if r)
            entry = self._linear_cache[lin] = (rows, lin.den * self._den)
        return entry

    def times_linear(self, cls: CohomClass, lin: CohomClass, nu) -> CohomClass:
        """(lin + nu) * cls for a degree-one class lin, in one sparse pass."""
        rows, den = self._linear(lin)
        p, q = nu.numerator, nu.denominator
        pd = p * den
        out = {b: pd * c for b, c in cls.num.items()}
        for b, c in cls.num.items():
            c *= q
            for mb, r in rows.get(b, ()):
                out[mb] = out.get(mb, 0) + c * r
        return CohomClass(self, out, cls.den * den * q)

    def divide_linear(self, cls: CohomClass, lin: CohomClass, nu) -> CohomClass:
        """(lin + nu)^-1 * cls for a degree-one class lin and nu != 0, solved
        degree by degree up the graded basis.

        With lin = rows / den and nu = p / q, the degree-i part of the
        solution has a denominator dividing cls.den * p^(i+1) * den^i, so
        over the common cls.den * p * (p*den)^top its numerator is divisible
        by (p*den)^(top-i), and each step divides exactly."""
        if nu == 0:
            raise ValueError("cannot invert a factor with vanishing hbar part")
        rows, den = self._linear(lin)
        p, q = nu.numerator, nu.denominator
        step = p * den
        lift = step ** self.top
        num = cls.num
        out = {}
        spill = {}  # lin * (solution so far) / (p*den), on monomials not yet reached
        for b in self.basis:
            c = num.get(b, 0) * lift - spill.get(b, 0)
            if c:
                out[b] = c = q * c
                c //= step
                for mb, r in rows.get(b, ()):
                    spill[mb] = spill.get(mb, 0) + c * r
        return CohomClass(self, out, cls.den * p * lift)

    def omega_class(self, j) -> CohomClass:
        """The j-th nef basis class, written in the ray divisor generators."""
        if j not in self._omega_cache:
            cols = [[self.cm.m[i][k] for i in range(self.l)] for k in range(self.n)]
            target = [1 if i == j else 0 for i in range(self.l)]
            sol = linalg.solve_columns(cols, target)
            if sol is None:
                raise ValueError("charge matrix rows are not independent")
            x, den = sol
            self._omega_cache[j] = self.combination(zip(x, self._generators), den)
        return self._omega_cache[j]

    def omega_power(self, t) -> CohomClass:
        """prod_j omega_j^t_j, theta^t at q = 0 in the classical ring, one
        multiply per factor."""
        return reduce(mul, [self.omega_class(j) for j, tj in enumerate(t) for _ in range(tj)],
                      self.one())

    def pairing(self, deg):
        """The Poincare pairing block (rows, den): rows[i][j] / den is the
        integral of b_i * b'_j over the basis monomials b_i of degree deg and
        b'_j of degree top - deg.  Each product is read off the reduction
        table, where its only basis monomial is the point's."""
        p, q = self._point  # the point monomial integrates to q / p
        s = q if p > 0 else -q
        cols = self.basis_by_degree[self.top - deg]
        rows = tuple(tuple(s * sum(r for _, r in self._pair(a, b)) for b in cols)
                     for a in self.basis_by_degree[deg])
        return rows, abs(p) * self._den

    def dual_basis(self):
        """(T, T^) with T the graded monomial basis classes and
        the integral of T_i * T^j is delta_ij.  The pairing vanishes off
        complementary degrees, so the duals of the degree-deg basis classes
        are the basis classes of degree top - deg times the inverse of the
        degree-deg pairing block."""
        duals = []
        for deg in range(self.top + 1):
            rows, den = self.pairing(deg)
            co = [self.monomial_class(m) for m in self.basis_by_degree[self.top - deg]]
            inv = linalg.invert(rows)
            if inv is None:
                raise FanError("Poincare pairing block %d,%d is degenerate; "
                               "fan data is invalid" % (deg, self.top - deg))
            inv, inv_den = inv
            duals += [self.combination(((den * inv[k][j], c) for k, c in enumerate(co)), inv_den)
                      for j in range(len(rows))]
        return [self.monomial_class(m) for m in self.basis], duals


def build_ring(fan: FanData, cm: ChargeMatrix) -> CohomRing:
    return CohomRing(fan, cm)
