"""Rational cohomology of a smooth complete toric variety, exactly.

H*(M; Q) = Q[x_1..x_n] / (linear relations from the rays + Stanley-Reisner
monomials of the fan).  In reduced row echelon form each linear relation is
led by one variable x_p; replacing x_p by its linear form in the l = n - dim
free variables presents the ring on those.  It is graded by complex degree,
generators sit in degree one, and everything vanishes above the top degree
dim(M), so each graded piece is computed once and for all by exact row
reduction of the relation multiples over the free monomials.  Columns run
in mono_key order, lex with x_1 first, where x_p leads its relation, so the
standard monomials, the basis, are those a reduction over all n variables
gives.  No Groebner machinery is needed or used.

Integration is normalized so that the class of a torus-fixed point, the
product prod_{k in sigma} x_k over any maximal cone sigma, integrates to 1;
consistency of that normalization across all maximal cones is checked.

Classes are sparse coefficient dicts over the graded monomial basis.
Multiplication by a degree-one class L (a ray divisor alpha_k, a nef class
omega_j) is a sparse matrix built lazily once per ring and L: its row for a
basis monomial b is the reduced product L*b, read from the reduction table.
times_linear applies L + nu in one pass.  divide_linear inverts it in one
pass up the graded basis: L raises the degree by one, so the degree-i part
of the solution is x_i = (v_i - L*x_{i-1}) / nu.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement

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
    involve only the given variables, sorted by mono_key."""
    return sorted((tuple(combo.count(i) for i in range(n))
                   for combo in combinations_with_replacement(variables, degree)),
                  key=mono_key)


def _mul_mono(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _poly_mul(a, b):
    """The product of two polynomials {exponent tuple: coeff}."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mul_mono(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return out


class CohomClass:
    """Ring element stored as exact coefficients over the monomial basis."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = {m: c if type(c) is Fraction else Fraction(c)
                       for m, c in coeffs.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        if not isinstance(other, CohomClass) or other.ring is not self.ring:
            return NotImplemented
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return CohomClass(self.ring, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CohomClass(self.ring, {m: -c for m, c in self.coeffs.items()})

    def scale(self, c):
        return CohomClass(self.ring, {m: v * c for m, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, CohomClass):
            if other.ring is not self.ring:
                return NotImplemented
            return self.ring.multiply(self, other)
        return self.scale(Fraction(other))

    def __rmul__(self, other):
        return self.scale(Fraction(other))

    def __eq__(self, other):
        return (isinstance(other, CohomClass) and self.ring is other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self):
        if not self.coeffs:
            return "CohomClass(0)"
        bits = []
        for m in sorted(self.coeffs, key=mono_key):
            bits.append("%s*%s" % (self.coeffs[m], m))
        return "CohomClass(%s)" % " + ".join(bits)


class CohomRing:
    """The graded quotient ring, with reduction tables per degree."""

    def __init__(self, fan: FanData, cm: ChargeMatrix):
        if cm.n != fan.n_rays:
            raise ValueError("charge matrix does not match the fan")
        self.fan = fan
        self.cm = cm
        self.n = fan.n_rays
        self.top = fan.dim
        self.l = cm.l
        red, lead = linalg.rref([list(coords) for coords in zip(*fan.rays)], self.n)
        free = [j for j in range(self.n) if j not in lead]
        units = monomials(self.n, 1)
        forms = [{u: Fraction(1)} for u in units]
        for row, p in zip(red, lead):
            forms[p] = {units[j]: -row[j] for j in free if row[j]}
        relations = [(len(nf), reduce(_poly_mul, [forms[k] for k in nf]))
                     for nf in self._minimal_nonfaces()]
        free_monos = {deg: _monomials_in(self.n, free, deg) for deg in range(self.top + 2)}
        self._table = {}
        self.basis_by_degree = {}
        for deg in range(self.top + 2):
            basis = self._build_degree(deg, free_monos, relations)
            if deg <= self.top:
                self.basis_by_degree[deg] = basis
            elif basis:
                raise FanError("cohomology does not vanish above the top degree; "
                               "fan data is inconsistent")
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
        self._generators = tuple(CohomClass(self, form) for form in forms)
        self._point_factor = self._normalize_point()
        self._omega_cache = {}
        self._linear_cache = {}
        self._dual_cache = None

    # -- construction ---------------------------------------------------

    def _minimal_nonfaces(self):
        cones = [frozenset(c) for c in self.fan.max_cones]
        nonfaces = []
        for size in range(2, self.n + 1):
            for combo in combinations(range(self.n), size):
                s = frozenset(combo)
                if any(s <= c for c in cones):
                    continue
                if any(nf < s for nf in nonfaces):
                    continue
                nonfaces.append(s)
        return nonfaces

    def _build_degree(self, deg, free_monos, relations):
        """Row-reduce the degree-deg free monomials against the multiples of
        the Stanley-Reisner relations; returns the basis of the degree."""
        cols = free_monos[deg]
        rows = []
        for size, rel in relations:
            for mu in free_monos.get(deg - size, ()):
                multiple = _poly_mul(rel, {mu: 1})
                rows.append([multiple.get(m, 0) for m in cols])
        red, pivots = linalg.rref(rows, len(cols))
        pivset = set(pivots)
        basis = [cols[j] for j in range(len(cols)) if j not in pivset]
        for row, c in zip(red, pivots):
            self._table[cols[c]] = {cols[j]: -row[j] for j in range(len(cols))
                                    if j not in pivset and row[j]}
        for m in basis:
            self._table[m] = {m: Fraction(1)}
        return basis

    def _normalize_point(self):
        vals = set()
        for cone in self.fan.max_cones:
            point = self.one()
            for k in cone:
                point = point * self._generators[k]
            vals.add(point.coeffs.get(self._point_mono, Fraction(0)))
        if 0 in vals or len(vals) != 1:
            raise FanError("inconsistent point normalization across maximal cones")
        return vals.pop()

    # -- arithmetic ------------------------------------------------------

    def zero(self) -> CohomClass:
        return CohomClass(self, {})

    def one(self) -> CohomClass:
        return CohomClass(self, {(0,) * self.n: Fraction(1)})

    def generator(self, k) -> CohomClass:
        """alpha_k, the class of the k-th ray divisor."""
        return self._generators[k]

    def monomial_class(self, mono) -> CohomClass:
        """The reduced class of a monomial in the free variables."""
        if sum(mono) > self.top:
            return self.zero()
        return CohomClass(self, dict(self._table[tuple(mono)]))

    def multiply(self, a: CohomClass, b: CohomClass) -> CohomClass:
        out = {}
        for m1, c1 in a.coeffs.items():
            for m2, c2 in b.coeffs.items():
                prod = _mul_mono(m1, m2)
                if sum(prod) > self.top:
                    continue
                c12 = c1 * c2
                for mb, r in self._table[prod].items():
                    out[mb] = out.get(mb, Fraction(0)) + c12 * r
        return CohomClass(self, out)

    def _linear(self, lin: CohomClass):
        """Multiplication by the degree-one class lin, built once per class:
        {b: ((mb, coeff), ...)} with row b the reduced product lin*b."""
        key = frozenset(lin.coeffs.items())
        if key not in self._linear_cache:
            if any(sum(m) != 1 for m in lin.coeffs):
                raise ValueError("multiplication matrices need a degree-one class")
            rows = {}
            for b in self.basis[:-1]:  # lin times the top monomial vanishes
                row = self.zero()
                for m, c in lin.coeffs.items():
                    row = row + self.monomial_class(_mul_mono(m, b)).scale(c)
                rows[b] = tuple(row.coeffs.items())
            self._linear_cache[key] = rows
        return self._linear_cache[key]

    def times_linear(self, cls: CohomClass, lin: CohomClass, nu) -> CohomClass:
        """(lin + nu) * cls for a degree-one class lin, in one sparse pass."""
        rows = self._linear(lin)
        out = {b: nu * c for b, c in cls.coeffs.items()}
        for b, c in cls.coeffs.items():
            for mb, r in rows.get(b, ()):
                out[mb] = out.get(mb, 0) + c * r
        return CohomClass(self, out)

    def divide_linear(self, cls: CohomClass, lin: CohomClass, nu) -> CohomClass:
        """(lin + nu)^-1 * cls for a degree-one class lin and nu != 0, solved
        degree by degree up the graded basis."""
        if nu == 0:
            raise ValueError("cannot invert a factor with vanishing hbar part")
        rows = self._linear(lin)
        out = {}
        spill = {}  # lin * (solution so far), on monomials not yet reached
        for b in self.basis:
            c = cls.coeffs.get(b, 0) - spill.get(b, 0)
            if c:
                out[b] = c = Fraction(c) / nu
                for mb, r in rows.get(b, ()):
                    spill[mb] = spill.get(mb, 0) + c * r
        return CohomClass(self, out)

    def integrate(self, a: CohomClass) -> Fraction:
        """Integral over the fundamental class; fixed points integrate to 1."""
        return a.coeffs.get(self._point_mono, Fraction(0)) / self._point_factor

    def omega_class(self, j) -> CohomClass:
        """The j-th nef basis class, written in the ray divisor generators."""
        if j not in self._omega_cache:
            cols = [[self.cm.m[i][k] for i in range(self.l)] for k in range(self.n)]
            target = [Fraction(1 if i == j else 0) for i in range(self.l)]
            sol = linalg.solve_columns(cols, target)
            if sol is None:
                raise ValueError("charge matrix rows are not independent")
            out = self.zero()
            for k, c in enumerate(sol):
                if c:
                    out = out + self.generator(k).scale(c)
            self._omega_cache[j] = out
        return self._omega_cache[j]

    def dual_basis(self):
        """(T, T^) with T the graded monomial basis classes and
        integrate(T_i * T^j) = delta_ij."""
        if self._dual_cache is None:
            t = [self.monomial_class(m) for m in self.basis]
            size = len(t)
            pair = [[self.integrate(t[i] * t[j]) for j in range(size)]
                    for i in range(size)]
            inv = linalg.invert(pair)
            if inv is None:
                raise FanError("Poincare pairing is degenerate; fan data is invalid")
            duals = []
            for j in range(size):
                cls = self.zero()
                for k in range(size):
                    if inv[k][j]:
                        cls = cls + t[k].scale(inv[k][j])
                duals.append(cls)
            self._dual_cache = (t, duals)
        return self._dual_cache


def build_ring(fan: FanData, cm: ChargeMatrix) -> CohomRing:
    return CohomRing(fan, cm)
