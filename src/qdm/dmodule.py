"""Homogeneous polynomial differential operators in theta_j = hbar q_j d/dq_j.

Operators are kept in normal order, q's to the left of theta's:
D = sum_e q^e P_e(theta, hbar).  The commutator [theta_j, q_k] =
delta_jk hbar q_k gives the composition rule P(theta) q^e =
q^e P(theta + e*hbar), which is all the noncommutativity there is.

Operators are homogeneous, stored at hbar = 1.  By the weight rule (in the
ifunction module) q^e theta^t hbar^h has weight c1(e) + |t| + h, so in an
operator of weight w the term q^e theta^t carries hbar^(w - c1(e) - |t|).
Setting hbar = 1 is a ring homomorphism, one to one on each weight, so
composition is theta -> theta + e at hbar = 1, with the weights added.

Acting on the series F, the term q^e P_e contributes to the coefficient of
q^d the value P_e(omega + (d-e)*hbar, hbar) * R_{d-e}.  Because the series
is truncated at anticanonical degree B, the result is only trustworthy on
the window c1(d) <= B - max(0, max_e c1(e)) (_window_cap); degrees beyond
it would need source coefficients that were cut off.

Series values have one weight too, so the weight of D.F is the sum of the
two.  At hbar = 1, theta_j acting on q^d' cls gives q^d' (omega_j + d'_j)
cls, so theta^t is a chain of |t| multiplications by degree-one classes
(CohomRing.times_linear), memoized along the chain, once per series.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import comb

from . import linalg
from .cohomology import monomials
from .ifunction import Series


class EmptyWindowError(ValueError):
    """The operator's q-support exceeds the series truncation."""


# -- commutative polynomials in theta_1..theta_l, at hbar = 1 -------------
# represented as {theta exponent tuple: Fraction}

def _poly_add(p1, p2):
    out = dict(p1)
    for k, c in p2.items():
        out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def _poly_mul(p1, p2):
    out = {}
    for t1, c1 in p1.items():
        for t2, c2 in p2.items():
            key = tuple(a + b for a, b in zip(t1, t2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _shift_poly(p, e):
    """Substitute theta_j -> theta_j + e_j."""
    if not any(e):
        return dict(p)
    l = len(e)
    out = {}
    for t, c in p.items():
        term = {(0,) * l: c}
        for j in range(l):
            if t[j]:
                term = _poly_mul(term, {
                    tuple(i if jj == j else 0 for jj in range(l)):
                    Fraction(comb(t[j], i) * e[j] ** (t[j] - i))
                    for i in range(t[j] + 1)})
        out = _poly_add(out, term)
    return out


class DiffOp:
    """Normal-ordered operator sum_e q^e P_e(theta) of one weight, at hbar = 1.

    terms is {e: {t: c}}; the term q^e theta^t carries hbar^hbar_power(e, t),
    which must be nonnegative.
    """

    __slots__ = ("cm", "weight", "terms")

    def __init__(self, cm, weight, terms):
        self.cm = cm
        self.weight = weight
        clean = {}
        for e, poly in terms.items():
            poly = {tuple(t): Fraction(c) for t, c in poly.items() if c}
            if poly:
                e = tuple(e)
                if any(x < 0 for x in e):
                    raise ValueError("q-exponents must be componentwise nonnegative")
                if weight - cm.c1_degree(e) - max(map(sum, poly)) < 0:
                    raise ValueError("a term of q^%r would carry a negative power of "
                                     "hbar at weight %d" % (list(e), weight))
                clean[e] = poly
        self.terms = clean

    @classmethod
    def zero(cls, cm):
        return cls(cm, 0, {})

    @classmethod
    def identity(cls, cm):
        return cls(cm, 0, {(0,) * cm.l: {(0,) * cm.l: 1}})

    @classmethod
    def theta(cls, cm, j):
        if not 0 <= j < cm.l:
            raise IndexError("theta index %d out of range for %d variables" % (j, cm.l))
        t = tuple(1 if i == j else 0 for i in range(cm.l))
        return cls(cm, 1, {(0,) * cm.l: {t: 1}})

    @classmethod
    def q_power(cls, cm, e):
        return cls(cm, cm.c1_degree(e), {tuple(e): {(0,) * cm.l: 1}})

    @classmethod
    def hbar(cls, cm):
        return cls(cm, 1, {(0,) * cm.l: {(0,) * cm.l: 1}})

    def hbar_power(self, e, t) -> int:
        return self.weight - self.cm.c1_degree(e) - sum(t)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, DiffOp) or other.cm != self.cm:
            return NotImplemented
        if other.weight != self.weight:
            raise ValueError("cannot add operators of weights %d and %d"
                             % (self.weight, other.weight))
        out = dict(self.terms)
        for e, p in other.terms.items():
            out[e] = _poly_add(out.get(e, {}), p)
        return DiffOp(self.cm, self.weight, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = Fraction(c)
        return DiffOp(self.cm, self.weight,
                      {e: {t: v * c for t, v in p.items()} for e, p in self.terms.items()})

    def __mul__(self, other):
        """Composition (self applied after other), or a scalar multiple."""
        if isinstance(other, DiffOp):
            if other.cm != self.cm:
                return NotImplemented
            out = {}
            for e1, p1 in self.terms.items():
                for e2, p2 in other.terms.items():
                    prod = _poly_mul(_shift_poly(p1, e2), p2)
                    key = tuple(a + b for a, b in zip(e1, e2))
                    out[key] = _poly_add(out.get(key, {}), prod)
            return DiffOp(self.cm, self.weight + other.weight, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (isinstance(other, DiffOp) and self.cm == other.cm
                and self.weight == other.weight and self.terms == other.terms)

    def __hash__(self):
        return hash((self.weight, frozenset((e, frozenset(p.items()))
                                            for e, p in self.terms.items())))

    def support_triples(self):
        """Sorted (q-exp, theta-exp, hbar-exp) triples carrying coefficients."""
        return sorted(((e, t, self.hbar_power(e, t))
                       for e, poly in self.terms.items() for t in poly),
                      key=lambda x: _ansatz_key(*x))

    def coefficient(self, e, t, h) -> Fraction:
        e, t = tuple(e), tuple(t)
        if h != self.hbar_power(e, t):
            return Fraction(0)
        return self.terms.get(e, {}).get(t, Fraction(0))

    def __repr__(self):
        return "DiffOp(%r, %d, %r)" % (self.cm, self.weight, self.terms)


def _ansatz_key(e, t, h):
    return (sum(e), e, sum(t), t, h)


def _theta_images(ring, l, sources):
    """Memoized image(d, t) = theta^t applied to q^d sources[d], at hbar = 1
    and up to the factor q^d: prod_j (omega_j + d_j)^t_j * sources[d]."""
    omegas = [ring.omega_class(j) for j in range(l)]
    cache = {}

    def image(d, t):
        key = (d, t)
        if key not in cache:
            j = next((j for j, x in enumerate(t) if x), None)
            if j is None:
                cache[key] = sources[d]
            else:
                lower = t[:j] + (t[j] - 1,) + t[j + 1:]
                cache[key] = ring.times_linear(image(d, lower), omegas[j], d[j])
        return cache[key]
    return image


_IMAGES = weakref.WeakKeyDictionary()


def _images(series):
    """The theta-image memo of a series, built once and shared by every apply
    on it and by the search.  Keyed by the series itself (compared by
    identity), not by an id() a later one could reuse."""
    if series not in _IMAGES:
        _IMAGES[series] = _theta_images(series.ring, series.cm.l, series.coefficients)
    return _IMAGES[series]


def _window_cap(series, q_exps) -> int:
    """Largest c1(d) where D.F is exact for D supported on q_exps."""
    cap = series.bound - max([series.cm.c1_degree(e) for e in q_exps] + [0])
    if cap < 0:
        raise EmptyWindowError("operator q-support exceeds the series truncation "
                               "(bound %d)" % series.bound)
    return cap


def apply(op: DiffOp, series: Series) -> Series:
    """Apply a normal-ordered operator to a (possibly already applied) series.

    The result has weight series.weight + op.weight and one class, possibly
    zero, at every window degree where it could be nonzero.
    """
    if op.cm != series.cm:
        raise ValueError("the operator and the series have different charge matrices")
    ring, cm = series.ring, series.cm
    cap = _window_cap(series, op.terms)
    image = _images(series)
    out_degrees = set(series.degrees)
    for d in series.degrees:
        for e in op.terms:
            out_degrees.add(tuple(a + b for a, b in zip(d, e)))
    valid = sorted((d for d in out_degrees if cm.c1_degree(d) <= cap),
                   key=lambda d: (cm.c1_degree(d), d))
    coeffs = {}
    for d in valid:
        val = ring.zero()
        for e, poly in op.terms.items():
            dp = tuple(a - b for a, b in zip(d, e))
            if dp in series.coefficients:
                for t, c in poly.items():
                    val = val + image(dp, t).scale(c)
        coeffs[d] = val
    return Series(ring, cm, cap, tuple(valid), coeffs, series.weight + op.weight)


def gkz_operator(cm, degree) -> DiffOp:
    """The box operator of a curve degree.

    With D_k = sum_j m[j][k] theta_j and a_k = <alpha_k, degree>:

        prod_{a_k>0} prod_{nu=0}^{a_k-1} (D_k - nu*hbar)
        - q^degree * prod_{a_k<0} prod_{nu=0}^{-a_k-1} (D_k - nu*hbar),

    of weight sum_{a_k>0} a_k, built at hbar = 1.
    """
    l = cm.l
    if any(x < 0 for x in degree):
        raise ValueError("degree has a negative coordinate; the operator would "
                         "not be polynomial in q")
    if not any(degree):
        raise ValueError("the zero degree has only the zero box operator")
    one = (0,) * l
    pos = {one: Fraction(1)}
    neg = {one: Fraction(1)}
    weight = 0
    for k in range(cm.n):
        a_k = cm.pairing(degree, k)
        d_k = {tuple(1 if i == j else 0 for i in range(l)): Fraction(cm.m[j][k])
               for j in range(l) if cm.m[j][k]}
        for nu in range(abs(a_k)):
            factor = {**d_k, one: Fraction(-nu)} if nu else d_k
            if a_k > 0:
                pos = _poly_mul(pos, factor)
            else:
                neg = _poly_mul(neg, factor)
        weight += max(a_k, 0)
    return DiffOp(cm, weight, {one: pos}) - DiffOp(cm, weight, {tuple(degree): neg})


def find_annihilators(series: Series, theta_order: int, q_degree: int):
    """A canonical Q[hbar]-basis of the homogeneous annihilators, on the
    window, with |e| <= q_degree and |t| <= theta_order.

    Each column q^e theta^t, of pre-weight c1(e) + |t|, is evaluated once at
    hbar = 1 over (degree, monomial).  A relation among columns of highest
    pre-weight w is the weight-w annihilator sum c q^e theta^t at hbar = 1,
    and every weight-w annihilator comes from one.  With columns in
    descending pre-weight, then graded-lex order, each row of the reduced
    nullspace has its weight at its pivot, and the rows of weight <= w span
    all relations of pre-weight <= w.  The rows, sorted by (weight, pivot),
    are the basis.

    The nullspace is taken with the columns reversed: each basis vector,
    read back in column order, then starts with a 1 at its own free column
    and vanishes at every other vector's free column, so the vectors are
    the reduced rows already, and their pivots are their first nonzero
    entries.
    """
    if min(theta_order, q_degree) < 0:
        raise ValueError("ansatz bounds must be nonnegative")
    cm = series.cm
    l = cm.l
    q_exps = [e for tot in range(q_degree + 1) for e in monomials(l, tot)]
    t_exps = [t for tot in range(theta_order + 1) for t in monomials(l, tot)]
    cap = _window_cap(series, q_exps)
    image = _images(series)
    vectors = {}  # (e, t) -> q^e theta^t applied to the series, on the window
    for e in q_exps:
        shifted = [(dp, tuple(a + b for a, b in zip(dp, e))) for dp in series.degrees]
        window = [(dp, d) for dp, d in shifted if cm.c1_degree(d) <= cap]
        for t in t_exps:
            vectors[e, t] = {(d, mono): c for dp, d in window
                             for mono, c in image(dp, t).coeffs.items()}
    pre = {(e, t): cm.c1_degree(e) + sum(t) for e, t in vectors}
    columns = sorted(vectors, key=lambda c: (-pre[c], _ansatz_key(*c, 0)))
    rows = sorted(set().union(*vectors.values()))  # eliminates faster sorted
    matrix = [[vectors[c].get(k, Fraction(0)) for c in reversed(columns)] for k in rows]
    found = []  # ((weight, pivot's key), operator)
    for vec in linalg.nullspace(matrix, len(columns)):
        vec = vec[::-1]
        p = next(i for i, c in enumerate(vec) if c)
        weight = pre[columns[p]]
        terms = {}
        for (e, t), c in zip(columns, vec):
            if c:
                terms.setdefault(e, {})[t] = c
        found.append(((weight, _ansatz_key(*columns[p], 0)), DiffOp(cm, weight, terms)))
    return [op for _, op in sorted(found, key=lambda f: f[0])]


class QuantumRelation:
    """Semiclassical shadow of an operator: a polynomial in p_1..p_l and q.

    Obtained by theta_j -> p_j and hbar -> 0; stored as
    {(q-exponent, p-exponent): coefficient}.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        self.nvars = nvars
        self.terms = {k: Fraction(c) for k, c in terms.items() if c}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, QuantumRelation) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def at_q_zero(self):
        """The pure p-polynomial part, as {p-exponent: coefficient}."""
        return {t: c for (e, t), c in self.terms.items() if not any(e)}

    def classical_value(self, ring):
        """Evaluate the q = 0 part with p_j -> omega_j in the classical ring."""
        out = ring.zero()
        for t, c in self.at_q_zero().items():
            cls = ring.one().scale(c)
            for j, tj in enumerate(t):
                for _ in range(tj):
                    cls = cls * ring.omega_class(j)
            out = out + cls
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0][0]), kv[0][0],
                                                          sum(kv[0][1]), kv[0][1]))

    def __repr__(self):
        return "QuantumRelation(%d, %r)" % (self.nvars, self.terms)


def semiclassical(op: DiffOp) -> QuantumRelation:
    """Leading symbol at hbar -> 0, theta_j -> p_j: the terms free of hbar."""
    return QuantumRelation(op.cm.l, {(e, t): c for e, poly in op.terms.items()
                                     for t, c in poly.items() if op.hbar_power(e, t) == 0})
