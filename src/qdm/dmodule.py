"""Polynomial differential operators in theta_j = hbar q_j d/dq_j.

Operators are kept in normal order, q's to the left of theta's:
D = sum_e q^e P_e(theta, hbar).  The commutator [theta_j, q_k] =
delta_jk hbar q_k gives the composition rule P(theta) q^e =
q^e P(theta + e*hbar), which is all the noncommutativity there is.

Acting on the series F, the term q^e P_e contributes to the coefficient of
q^d the value P_e(omega + (d-e)*hbar, hbar) * R_{d-e}.  Because the series
is truncated at anticanonical degree B, the result is only trustworthy on
the window c1(d) <= B - max(0, max_e c1(e)) (_window_cap); degrees beyond
it would need source coefficients that were cut off.

Series values are classes at hbar = 1, one per weight (the weight rule is
in the ifunction module).  An operator is therefore split by weight before
it is evaluated, and every output class keeps its weight.  At hbar = 1,
theta_j acting on q^d' cls gives q^d' (omega_j + d'_j) cls, so theta^t is a
chain of |t| multiplications by degree-one classes (CohomRing.times_linear),
memoized along the chain, once per series.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import linalg
from .cohomology import monomials
from .ifunction import GiventalSeries


class EmptyWindowError(ValueError):
    """The operator's q-support exceeds the series truncation."""


# -- commutative polynomials in (theta_1..theta_l, hbar) ------------------
# represented as {(theta exponent tuple, hbar exponent): Fraction}

def _poly_add(p1, p2):
    out = dict(p1)
    for k, c in p2.items():
        out[k] = out.get(k, Fraction(0)) + c
    return {k: c for k, c in out.items() if c}


def _poly_scale(p, c):
    c = Fraction(c)
    return {k: v * c for k, v in p.items() if v * c}


def _poly_mul(p1, p2):
    out = {}
    for (t1, h1), c1 in p1.items():
        for (t2, h2), c2 in p2.items():
            key = (tuple(a + b for a, b in zip(t1, t2)), h1 + h2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _poly_one(l):
    return {((0,) * l, 0): Fraction(1)}


def _shift_poly(p, e, l):
    """Substitute theta_j -> theta_j + e_j * hbar."""
    if all(x == 0 for x in e):
        return dict(p)
    out = {}
    for (t, h), c in p.items():
        term = {((0,) * l, h): c}
        for j in range(l):
            if t[j] == 0:
                continue
            if e[j] == 0:
                unit = tuple(t[j] if i == j else 0 for i in range(l))
                term = _poly_mul(term, {(unit, 0): Fraction(1)})
                continue
            factor = {}
            for i in range(t[j] + 1):
                unit = tuple(i if jj == j else 0 for jj in range(l))
                factor[(unit, t[j] - i)] = Fraction(comb(t[j], i) * e[j] ** (t[j] - i))
            term = _poly_mul(term, factor)
        out = _poly_add(out, term)
    return out


class DiffOp:
    """Normal-ordered operator sum_e q^e P_e(theta, hbar)."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms):
        self.nvars = nvars
        clean = {}
        for e, poly in terms.items():
            poly = {k: Fraction(c) for k, c in poly.items() if c}
            if poly:
                if any(x < 0 for x in e):
                    raise ValueError("q-exponents must be componentwise nonnegative")
                clean[tuple(e)] = poly
        self.terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def identity(cls, nvars):
        return cls(nvars, {(0,) * nvars: _poly_one(nvars)})

    @classmethod
    def theta(cls, nvars, j):
        t = tuple(1 if i == j else 0 for i in range(nvars))
        return cls(nvars, {(0,) * nvars: {(t, 0): Fraction(1)}})

    @classmethod
    def q_power(cls, nvars, e):
        return cls(nvars, {tuple(e): _poly_one(nvars)})

    @classmethod
    def hbar(cls, nvars):
        return cls(nvars, {(0,) * nvars: {((0,) * nvars, 1): Fraction(1)}})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, DiffOp) or other.nvars != self.nvars:
            return NotImplemented
        out = {e: dict(p) for e, p in self.terms.items()}
        for e, p in other.terms.items():
            out[e] = _poly_add(out.get(e, {}), p)
        return DiffOp(self.nvars, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return DiffOp(self.nvars, {e: _poly_scale(p, c) for e, p in self.terms.items()})

    def __mul__(self, other):
        """Composition (self applied after other), or a scalar multiple."""
        if isinstance(other, DiffOp):
            if other.nvars != self.nvars:
                return NotImplemented
            out = {}
            for e1, p1 in self.terms.items():
                for e2, p2 in other.terms.items():
                    shifted = _shift_poly(p1, e2, self.nvars)
                    prod = _poly_mul(shifted, p2)
                    key = tuple(a + b for a, b in zip(e1, e2))
                    out[key] = _poly_add(out.get(key, {}), prod)
            return DiffOp(self.nvars, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (isinstance(other, DiffOp) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash(frozenset((e, frozenset(p.items()))
                              for e, p in self.terms.items()))

    def support_triples(self):
        """Sorted (q-exp, theta-exp, hbar-exp) triples carrying coefficients."""
        triples = []
        for e, poly in self.terms.items():
            for (t, h) in poly:
                triples.append((e, t, h))
        triples.sort(key=lambda x: _ansatz_key(*x))
        return triples

    def coefficient(self, e, t, h) -> Fraction:
        return self.terms.get(tuple(e), {}).get((tuple(t), h), Fraction(0))

    def __repr__(self):
        return "DiffOp(%d, %r)" % (self.nvars, self.terms)


def _ansatz_key(e, t, h):
    return (sum(e), e, sum(t), t, h)


@dataclass(frozen=True, eq=False)
class AppliedSeries:
    """Result of applying an operator to a truncated series.

    Only degrees in the validity window c1(d) <= bound are kept; outside it
    the truncation would silently drop contributions.  coefficients maps
    every window degree where the result could be nonzero to its nonzero
    parts {weight: class at hbar = 1} (possibly none), so the object can
    itself be differentiated again.
    """
    ring: object
    cm: object
    bound: int
    degrees: tuple
    coefficients: dict

    def is_zero(self) -> bool:
        return not any(self.coefficients[d] for d in self.degrees)


def _theta_images(ring, l, sources):
    """Memoized image(d, w, t) = theta^t applied to q^d times the weight-w
    part of sources[d], at hbar = 1 and up to the factor q^d:
    prod_j (omega_j + d_j)^t_j * sources[d][w]."""
    omegas = [ring.omega_class(j) for j in range(l)]
    cache = {}

    def image(d, w, t):
        key = (d, w, t)
        if key not in cache:
            j = next((j for j, x in enumerate(t) if x), None)
            if j is None:
                cache[key] = sources[d][w]
            else:
                lower = t[:j] + (t[j] - 1,) + t[j + 1:]
                cache[key] = ring.times_linear(image(d, w, lower), omegas[j], d[j])
        return cache[key]
    return image


_IMAGES = weakref.WeakKeyDictionary()


def _images(series):
    """({degree: {weight: class}}, theta-image memo) of a series, built once
    and shared by every apply on it and by the search.  Keyed by the series
    itself (compared by identity), not by an id() a later one could reuse."""
    if series not in _IMAGES:
        sources = series.coefficients
        if not isinstance(series, AppliedSeries):
            sources = {d: {0: r} for d, r in sources.items()}
        _IMAGES[series] = sources, _theta_images(series.ring, series.cm.l, sources)
    return _IMAGES[series]


def _window_cap(series, q_exps) -> int:
    """Largest c1(d) where D.F is exact for D supported on q_exps."""
    cap = series.bound - max([series.cm.c1_degree(e) for e in q_exps] + [0])
    if cap < 0:
        raise EmptyWindowError("operator q-support exceeds the series truncation "
                               "(bound %d)" % series.bound)
    return cap


def apply(op: DiffOp, series) -> AppliedSeries:
    """Apply a normal-ordered operator to a (possibly already applied) series."""
    ring, cm = series.ring, series.cm
    cap = _window_cap(series, op.terms)
    sources, image = _images(series)
    blocks = {}  # q-exponent -> {weight: {theta exponent: coefficient}}
    for e, poly in op.terms.items():
        c1_e = cm.c1_degree(e)
        by_weight = blocks.setdefault(e, {})
        for (t, h), c in poly.items():
            by_weight.setdefault(c1_e + sum(t) + h, {})[t] = c
    out_degrees = set(series.degrees)
    for d in series.degrees:
        for e in op.terms:
            out_degrees.add(tuple(a + b for a, b in zip(d, e)))
    valid = sorted((d for d in out_degrees if cm.c1_degree(d) <= cap),
                   key=lambda d: (cm.c1_degree(d), d))
    coeffs = {}
    for d in valid:
        acc = {}
        for e, by_weight in blocks.items():
            dp = tuple(a - b for a, b in zip(d, e))
            parts = sources.get(dp)
            if parts is None:
                continue
            for w, poly in by_weight.items():
                for w0 in parts:
                    val = acc.get(w + w0, ring.zero())
                    for t, c in poly.items():
                        val = val + image(dp, w0, t).scale(c)
                    acc[w + w0] = val
        coeffs[d] = {w: c for w, c in acc.items() if not c.is_zero()}
    return AppliedSeries(ring, cm, cap, tuple(valid), coeffs)


def gkz_operator(cm, degree) -> DiffOp:
    """The box operator of a curve degree.

    With D_k = sum_j m[j][k] theta_j and a_k = <alpha_k, degree>:

        prod_{a_k>0} prod_{nu=0}^{a_k-1} (D_k - nu*hbar)
        - q^degree * prod_{a_k<0} prod_{nu=0}^{-a_k-1} (D_k - nu*hbar).
    """
    l = cm.l
    if any(x < 0 for x in degree):
        raise ValueError("degree has a negative coordinate; the operator would "
                         "not be polynomial in q")
    if not any(degree):
        raise ValueError("the zero degree has only the zero box operator")
    pos = _poly_one(l)
    neg = _poly_one(l)
    for k in range(cm.n):
        a_k = cm.pairing(degree, k)
        if a_k == 0:
            continue
        d_k = {}
        for j in range(l):
            if cm.m[j][k]:
                t = tuple(1 if i == j else 0 for i in range(l))
                d_k[(t, 0)] = Fraction(cm.m[j][k])
        for nu in range(abs(a_k)):
            factor = dict(d_k)
            if nu:
                factor[((0,) * l, 1)] = Fraction(-nu)
            if a_k > 0:
                pos = _poly_mul(pos, factor)
            else:
                neg = _poly_mul(neg, factor)
    op = DiffOp(l, {(0,) * l: pos})
    return op - DiffOp(l, {tuple(degree): neg})


def find_annihilators(series: GiventalSeries, theta_order: int, q_degree: int):
    """A canonical Q[hbar]-basis of the homogeneous annihilators, on the
    window, with |e| <= q_degree and |t| <= theta_order.

    Each column q^e theta^t, of pre-weight c1(e) + |t|, is evaluated once at
    hbar = 1 over (degree, monomial).  A relation among columns of highest
    pre-weight w lifts to the weight-w annihilator sum c q^e theta^t
    hbar^(w - c1(e) - |t|), and every weight-w annihilator comes from one.
    With columns in descending pre-weight, then graded-lex order, each row
    of the reduced nullspace has its weight at its pivot, and the rows of
    weight <= w span all relations of pre-weight <= w.  The lifted rows,
    sorted by (weight, pivot), are the basis.
    """
    if min(theta_order, q_degree) < 0:
        raise ValueError("ansatz bounds must be nonnegative")
    cm = series.cm
    l = cm.l
    q_exps = [e for tot in range(q_degree + 1) for e in monomials(l, tot)]
    t_exps = [t for tot in range(theta_order + 1) for t in monomials(l, tot)]
    cap = _window_cap(series, q_exps)
    image = _images(series)[1]
    vectors = {}  # (e, t) -> q^e theta^t applied to the series, on the window
    for e in q_exps:
        shifted = [(dp, tuple(a + b for a, b in zip(dp, e))) for dp in series.degrees]
        window = [(dp, d) for dp, d in shifted if cm.c1_degree(d) <= cap]
        for t in t_exps:
            vectors[e, t] = {(d, mono): c for dp, d in window
                             for mono, c in image(dp, 0, t).coeffs.items()}
    pre = {(e, t): cm.c1_degree(e) + sum(t) for e, t in vectors}
    columns = sorted(vectors, key=lambda c: (-pre[c], _ansatz_key(*c, 0)))
    rows = sorted(set().union(*vectors.values()))  # eliminates faster sorted
    matrix = [[vectors[c].get(k, Fraction(0)) for c in columns] for k in rows]
    null = linalg.nullspace(matrix, len(columns))
    reduced, pivots = linalg.rref(null, len(columns))
    found = []  # ((weight, pivot's key), operator)
    for vec, p in zip(reduced, pivots):
        weight = pre[columns[p]]
        terms = {}
        for (e, t), c in zip(columns, vec):
            if c:
                terms.setdefault(e, {})[(t, weight - pre[e, t])] = c
        found.append(((weight, _ansatz_key(*columns[p], 0)), DiffOp(l, terms)))
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
    """Leading symbol at hbar -> 0, theta_j -> p_j."""
    rel = {}
    for e, poly in op.terms.items():
        for (t, h), c in poly.items():
            if h == 0:
                rel[(e, t)] = rel.get((e, t), Fraction(0)) + c
    return QuantumRelation(op.nvars, rel)
