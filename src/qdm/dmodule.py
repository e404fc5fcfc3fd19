"""Homogeneous polynomial differential operators in theta_j = hbar q_j d/dq_j.

Operators are kept in normal order, q's to the left of theta's:
D = sum c q^e theta^t hbar^h.  The commutator [theta_j, q_k] =
delta_jk hbar q_k gives theta^t q^e = q^e (theta + e*hbar)^t, which is all
the noncommutativity there is, so two operators compose term by term:
q^e1 theta^t1 . q^e2 theta^t2 = q^(e1+e2) (theta + e2*hbar)^t1 theta^t2,
with the shifted power expanded binomially.

Operators are homogeneous, stored at hbar = 1.  By the weight rule (in the
ifunction module) q^e theta^t hbar^h has weight c1(e) + |t| + h, so in an
operator of weight w the term q^e theta^t carries hbar^(w - c1(e) - |t|).
Setting hbar = 1 is a ring homomorphism, one to one on each weight, so
composition is theta -> theta + e at hbar = 1, with the weights added.  The
box operators (gkz_operator) are composed in this operator algebra from
theta, hbar and q^e.  Like a cohomology class, an operator is one flat map
of integer numerators, num = {(e, t): int}, over one denominator den > 0,
put in lowest terms by linalg.lowest; sums and scalings go through
linalg.combine, as a class's do, and walk() reads its terms in one sorted
order.

Acting on the series F, the term c q^e theta^t hbar^h contributes to the
coefficient of q^d the value c hbar^h (omega + (d-e)*hbar)^t R_{d-e}.  The
series is truncated at anticanonical degree B, so D.F is exact only on a
window of degrees, stated once in _window_cap; apply and the search both
read it.
They read where q^e moves each coefficient inside the window off _shifted,
which lists it straight from the series degrees; both list one window per
q-exponent before their loop over terms or columns.

Series values have one weight too, so the weight of D.F is the sum of the
two.  At hbar = 1, theta_j acting on q^d' cls gives q^d' (omega_j + d'_j)
cls, so theta^t is a chain of |t| multiplications by degree-one classes
(CohomRing.times_linear), memoized along the chain in series.images.

Both apply and the search stay on Python ints from the theta-images to the
operators.  apply feeds an operator's numerators to CohomRing.combination
and divides by its denominator once per degree.  The search multiplies
the whole ansatz matrix by one scale, the lcm of every image denominator,
so its columns are integer vectors; they are transposed into the sparse
integer rows that linalg.nullspace takes.  A nonzero scalar changes no
nullspace vector, so each one is read back as it is, straight into the
flat map {(e, t): int} over its den.
"""

from __future__ import annotations

from itertools import product
from math import comb, lcm, prod

from . import linalg, toric
from .cohomology import add_exponents, monomials
from .ifunction import Series


class EmptyWindowError(ValueError):
    """The operator's q-support exceeds the series truncation."""


class DiffOp:
    """Normal-ordered operator sum c q^e theta^t of one weight, at hbar = 1.

    num is {(e, t): int} over the int den > 0, in lowest terms; the term
    q^e theta^t carries hbar^hbar_power(e, t), which must be nonnegative.
    """

    __slots__ = ("cm", "weight", "num", "den")

    def __init__(self, cm, weight, terms, den=1):
        """The operator terms / den, normalized.  terms is {(e, t): c} with
        int numerators c over the int den; a rational operator is built with
        scale."""
        self.cm = cm
        self.weight = weight
        self.num, self.den = linalg.lowest(terms, den)
        for e, t in self.num:
            if len(t) != cm.l:
                raise ValueError("theta-exponent %r needs %d entries" % (list(t), cm.l))
            if any(x < 0 for x in e):
                raise ValueError("q-exponents must be componentwise nonnegative")
            if self.hbar_power(e, t) < 0:
                raise ValueError("a term of q^%r would carry a negative power of "
                                 "hbar at weight %d" % (list(e), weight))

    @classmethod
    def identity(cls, cm):
        return cls(cm, 0, {((0,) * cm.l, (0,) * cm.l): 1})

    @classmethod
    def theta(cls, cm, j):
        if not 0 <= j < cm.l:
            raise IndexError("theta index %d out of range for %d variables" % (j, cm.l))
        t = tuple(1 if i == j else 0 for i in range(cm.l))
        return cls(cm, 1, {((0,) * cm.l, t): 1})

    @classmethod
    def q_power(cls, cm, e):
        return cls(cm, cm.c1_degree(e), {(tuple(e), (0,) * cm.l): 1})

    @classmethod
    def hbar(cls, cm):
        return cls(cm, 1, {((0,) * cm.l, (0,) * cm.l): 1})

    def hbar_power(self, e, t) -> int:
        return self.weight - self.cm.c1_degree(e) - sum(t)

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other):
        if not isinstance(other, DiffOp) or other.cm != self.cm:
            return NotImplemented
        if other.weight != self.weight:
            raise ValueError("cannot add operators of weights %d and %d"
                             % (self.weight, other.weight))
        return DiffOp(self.cm, self.weight,
                      *linalg.combine([(1, op.num, op.den) for op in (self, other)]))

    def __sub__(self, other):
        if not isinstance(other, DiffOp) or other.cm != self.cm:
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        return DiffOp(self.cm, self.weight, *linalg.combine([(c, self.num, self.den)]))

    def __mul__(self, other):
        """Composition (self applied after other), or a scalar multiple.

        Per pair of terms, theta^t1 q^e2 = q^e2 (theta + e2)^t1 and
        (theta + e2)^t1 = sum_{s <= t1} prod_j C(t1_j, s_j) e2_j^(t1_j - s_j)
        theta^s, where s_j = t1_j wherever e2_j = 0; then theta^s theta^t2 =
        theta^(s + t2).  Coefficients may cancel to zero; DiffOp drops them."""
        if isinstance(other, DiffOp):
            if other.cm != self.cm:
                return NotImplemented
            out = {}
            for (e1, t1), c1 in self.num.items():
                for (e2, t2), c2 in other.num.items():
                    e = add_exponents(e1, e2)
                    for s in product(*(range(k + 1) if x else (k,) for k, x in zip(t1, e2))):
                        v = c1 * c2 * prod(comb(k, i) * x ** (k - i)
                                           for k, i, x in zip(t1, s, e2))
                        key = e, add_exponents(s, t2)
                        out[key] = out.get(key, 0) + v
            return DiffOp(self.cm, self.weight + other.weight, out, self.den * other.den)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __eq__(self, other):
        return (isinstance(other, DiffOp) and self.cm == other.cm
                and self.weight == other.weight and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.weight, self.den, frozenset(self.num.items())))

    def walk(self):
        """Sorted (q-exp, theta-exp, hbar-exp, numerator) quadruples, one per
        term; each coefficient is numerator / den."""
        return sorted(((e, t, self.hbar_power(e, t), c) for (e, t), c in self.num.items()),
                      key=lambda x: _ansatz_key(*x[:3]))

    def classical_value(self, ring):
        """The q = 0, hbar-free terms at theta_j -> omega_j, in the classical
        ring; zero when the operator annihilates the series."""
        return ring.combination(((c, ring.omega_power(t)) for (e, t), c in self.num.items()
                                 if not any(e) and self.hbar_power(e, t) == 0), self.den)

    def __repr__(self):
        return "DiffOp(%r, %d, %r, %d)" % (self.cm, self.weight, self.num, self.den)


def _ansatz_key(e, t, h):
    return (sum(e), e, sum(t), t, h)


def _theta_images(series):
    """image(d, t) = theta^t applied to q^d c_d, at hbar = 1 and up to the
    factor q^d: prod_j (omega_j + d_j)^t_j * c_d.  A miss walks the chain
    up from t = 0 in a loop, raising the last exponent first, and memoizes
    each step in series.images, shared by every apply on the series and by
    the search."""
    ring, sources, cache = series.ring, series.coefficients, series.images
    omegas = [ring.omega_class(j) for j in range(ring.l)]

    def image(d, t):
        try:
            return cache[d, t]
        except KeyError:
            s = (0,) * len(t)
            out = cache.setdefault((d, s), sources[d])
        for j in reversed(range(len(t))):
            for _ in range(t[j]):
                s = s[:j] + (s[j] + 1,) + s[j + 1:]
                if (d, s) not in cache:
                    cache[d, s] = ring.times_linear(out, omegas[j], d[j])
                out = cache[d, s]
        return out
    return image


def _window_cap(series, q_exps) -> int:
    """The one window rule: D.F is exact on c1(d) <= cap for D supported on
    q_exps, with cap = B + min(0, min_e c1(e)).

    The q^d coefficient of D.F reads only R_{d-e}, and c1(d - e) <= B holds
    for every e once c1(d) <= cap; R vanishes off the Mori cone, so the
    truncated series holds every source coefficient it needs.  A term with
    c1(e) > cap is refused: no degree of the window would test it.
    """
    c1 = [series.ring.cm.c1_degree(e) for e in q_exps]
    cap = series.bound + min(c1 + [0])
    if any(c > cap for c in c1):
        raise EmptyWindowError("operator q-support exceeds the series truncation "
                               "(bound %d)" % series.bound)
    return cap


def _shifted(series, e, cap):
    """The pairs (d', d = d' + e) over the series degrees d' with
    c1(d) <= cap: where q^e moves each coefficient of the series, inside the
    window, in the order of series.degrees."""
    c1 = series.ring.cm.c1_degree
    shift = c1(e)
    return [(dp, add_exponents(dp, e)) for dp in series.degrees
            if c1(dp) + shift <= cap]


def apply(op: DiffOp, series: Series) -> Series:
    """Apply a normal-ordered operator to a (possibly already applied) series.

    The result has weight series.weight + op.weight and one class, possibly
    zero, at every window degree where it could be nonzero.
    """
    ring, cm = series.ring, series.ring.cm
    if op.cm != cm:
        raise ValueError("the operator and the series have different charge matrices")
    q_exps = {e for e, _ in op.num}
    cap = _window_cap(series, q_exps)
    image = _theta_images(series)
    windows = {e: _shifted(series, e, cap) for e in q_exps}
    terms = {d: [] for _, d in _shifted(series, (0,) * cm.l, cap)}
    for (e, t), v in op.num.items():
        for dp, d in windows[e]:
            terms.setdefault(d, []).append((v, image(dp, t)))
    valid = sorted(terms, key=lambda d: (cm.c1_degree(d), d))
    coeffs = {d: ring.combination(terms[d], op.den) for d in valid}
    return Series(ring, cap, tuple(valid), coeffs, series.weight + op.weight)


def gkz_operator(cm, degree) -> DiffOp:
    """The box operator of a curve degree.

    With D_k = sum_j m[j][k] theta_j and a_k = <alpha_k, degree>:

        prod_{a_k>0} prod_{nu=0}^{a_k-1} (D_k - nu*hbar)
        - q^degree * prod_{a_k<0} prod_{nu=0}^{-a_k-1} (D_k - nu*hbar),

    of weight sum_{a_k>0} a_k, composed in the operator algebra.
    """
    if any(x < 0 for x in degree):
        raise ValueError("degree has a negative coordinate; the operator would "
                         "not be polynomial in q")
    if not any(degree):
        raise ValueError("the zero degree has only the zero box operator")
    l = cm.l
    hbar = DiffOp.hbar(cm)
    pos = neg = DiffOp.identity(cm)
    for k, a_k in enumerate(cm.pairings(degree)):
        d_k = DiffOp(cm, 1, {((0,) * l, tuple(int(i == j) for i in range(l))): cm.m[j][k]
                             for j in range(l)})
        for nu in range(abs(a_k)):
            if a_k > 0:
                pos = pos * (d_k - hbar * nu)
            else:
                neg = neg * (d_k - hbar * nu)
    return pos - DiffOp.q_power(cm, degree) * neg


def find_annihilators(series: Series, theta_order: int, q_degree: int):
    """A canonical Q[hbar]-basis of the homogeneous annihilators, on the
    window, with |e| <= q_degree and |t| <= theta_order.

    Each column q^e theta^t, of pre-weight c1(e) + |t|, is evaluated once at
    hbar = 1 over (degree, monomial).  A relation among columns of highest
    pre-weight w is the weight-w annihilator sum c q^e theta^t at hbar = 1,
    and every weight-w annihilator comes from one.  The columns are listed
    in elimination order: ascending pre-weight, then descending graded-lex
    order.  The nullspace vector of a free column f is nonzero only at f and
    at pivot columns before f, so f, its last column, is its pivot: the
    vector has its weight there, and the vectors of weight <= w span all
    relations of pre-weight <= w.  No two vectors share a free column, so
    they are the reduced basis already.  Sorted by (weight, pivot), they
    are the basis.

    Each column's window images are listed once, and the whole matrix is
    scaled by one lcm of every image denominator: the theta-images' integer
    numerators, each times scale / den, go straight into sparse integer rows
    keyed by (degree, monomial).  The scaled matrix has the nullspace of the
    true one, so each vector (vec, den) is an operator as it stands.

    An ansatz of more than toric.MAX_BOX_POINTS columns is refused with a
    ValueError before its exponents are listed: the window alone cannot
    bound q_degree where some c1(e) is zero.
    """
    if min(theta_order, q_degree) < 0:
        raise ValueError("ansatz bounds must be nonnegative")
    cm = series.ring.cm
    l = cm.l
    width = comb(l + q_degree, l) * comb(l + theta_order, l)
    if width > toric.MAX_BOX_POINTS:
        raise ValueError("the ansatz has %d columns, more than %d"
                         % (width, toric.MAX_BOX_POINTS))
    q_exps = [e for tot in range(q_degree + 1) for e in monomials(l, tot)]
    t_exps = [t for tot in range(theta_order + 1) for t in monomials(l, tot)]
    cap = _window_cap(series, q_exps)
    image = _theta_images(series)
    windows = {e: _shifted(series, e, cap) for e in q_exps}
    pre = {(e, t): cm.c1_degree(e) + sum(t) for e in q_exps for t in t_exps}
    columns = sorted(pre, key=lambda c: (-pre[c], _ansatz_key(*c, 0)), reverse=True)
    images = [[(d, image(dp, t)) for dp, d in windows[e]] for e, t in columns]
    scale = lcm(*(cls.den for column in images for _, cls in column))
    rows = {}  # (degree, monomial) -> {column index: int}
    for i, column in enumerate(images):
        for d, cls in column:
            f = scale // cls.den
            for mono, v in cls.num.items():
                rows.setdefault((d, mono), {})[i] = f * v
    found = []  # ((weight, pivot's key), operator)
    # rows sorted by key: the elimination runs faster on them
    for vec, den in linalg.nullspace([rows[k] for k in sorted(rows)], width):
        lead = columns[max(vec)]  # the free column f: vec[f] == den
        found.append(((pre[lead], _ansatz_key(*lead, 0)),
                      DiffOp(cm, pre[lead], {columns[i]: c for i, c in vec.items()}, den)))
    return [op for _, op in sorted(found, key=lambda f: f[0])]


def semiclassical(op: DiffOp) -> DiffOp:
    """The relation in quantum cohomology left by the limit hbar -> 0: the
    terms of op free of hbar, as an operator of the same weight.  Read with
    theta_j -> p_j it is a polynomial in p and q."""
    return DiffOp(op.cm, op.weight, {k: c for k, c in op.num.items()
                                     if op.hbar_power(*k) == 0}, op.den)
