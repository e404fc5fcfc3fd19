"""The cohomology-valued hypergeometric series built from Euler-class ratios.

For a curve degree d with pairings a_k = <alpha_k, d> the coefficient of q^d
is the stabilized ratio of equivariant Euler classes

    R_d = prod_{a_k > 0} prod_{nu=1}^{a_k} (alpha_k + nu*hbar)^{-1}
          * prod_{a_k < 0} prod_{nu=a_k+1}^{0} (alpha_k + nu*hbar),

a finite Laurent polynomial in hbar because every alpha_k is nilpotent.
Note the nu = 0 factor alpha_k that appears in the numerator when a_k < 0.

Weight rule.  Give q^e the weight c1(e), its anticanonical degree, a class
of complex degree k the weight k, and hbar and each theta_j the weight 1.
Every term q^d R_d has weight 0, and an operator term q^e theta^t hbar^h has
weight w = c1(e) + |t| + h.  A value of one weight is therefore stored as
a single cohomology class at hbar = 1: in the q^d coefficient of weight w,
the monomial m carries hbar^(w - c1(d) - deg m).  At hbar = 1 each factor
(alpha_k + nu*hbar) is multiplication by alpha_k + nu, and its inverse
(nu != 0) is the graded one-pass solve CohomRing.divide_linear.

Sharing work across degrees.  R_d depends on d only through its pairings,
and moving d by a unit vector e_j of the curve lattice gains or loses a few
factors per ray: from pairings a to b, R is divided by (alpha_k + nu) for
nu in (a_k, b_k] and multiplied by it for nu in (b_k, a_k].  R is memoized
per ring by degree, and a new one is stepped, given its pairings, from the
cached R_{d - e_j}, whose pairings are those of d minus row j of m, that
needs the fewest linear passes, or from R_0 = 1, the direct product.  A
step with a_k < 0 <= b_k on some ray is refused: it would divide by
alpha_k, which is nilpotent.  build_f lists its window's pairings once and
steps each R_d from them; euler_ratio computes the pairings of a degree only
when it is not yet in the memo.  check_ratio, given the pairings a_k of d,
multiplies R_d by the products
P+_k(a) = prod_{nu=1}^{a} (alpha_k + nu) for each a_k > 0 and compares with
the product of P-_k(a) = prod_{nu=a+1}^{0} (alpha_k + nu) over a_k < 0.
These are cached per ring too, each entry one CohomRing.multiply from its
predecessor, so the check costs one product per nonzero pairing and still
never reads the multiplication matrices that build R_d.

The ring owns both memos, which hold classes returned without copying:
ring.ratios maps a curve degree d, a tuple of l ints, to R_d, and
ring.factor_products maps (k, a) to P+_k(a) for a >= 0 and to P-_k(a) for
a <= 0.  The ring seeds them with 1, at d = (0, ..., 0) and at a = 0.  The
charge matrix m has rank l, so distinct degrees have distinct pairings and
keying by degree loses no sharing.

The full series F = exp((t.omega)/hbar) sum_d q^d R_d carries a symbolic
exponential prefactor; it is kept unexpanded, and only enters component(),
where it contributes polynomial terms in the formal symbols L_j = log q_j.
"""

from __future__ import annotations

from math import factorial, gcd, lcm, prod

from .cohomology import CohomClass, CohomRing, monomials
from .toric import MoriCone, enumerate_degrees

# An R_d is refused, before any linear pass, when its numbers could pass
# this many bits: its denominators grow like prod_k |a_k|!, whose bit length
# is at most sum_k |a_k| * bit_length(|a_k|).
MAX_RATIO_BITS = 2**17

# A series window is refused, before any linear pass, when its numbers could
# pass this many bits in all: each R_d holds one numerator per basis class,
# chi of them, each priced at the R_d's bound above.  A window of thousands
# of R_d, each under MAX_RATIO_BITS, can run for minutes; at this value the
# last bound admitted on p1, hirzebruch1, p1xp1 and dp3 takes 1.5 to 6 s
# (on a 2-core x86-64 VM).
MAX_WINDOW_BITS = 2**26


def _refuse_oversized(degree, pairings):
    """The bound sum_k |a_k| * bit_length(|a_k|) of R_degree on the
    pairings; a ValueError when it passes MAX_RATIO_BITS."""
    bits = sum(abs(a) * abs(a).bit_length() for a in pairings)
    if bits > MAX_RATIO_BITS:
        raise ValueError("R_d of degree %r may reach numbers of %d bits, more than "
                         "MAX_RATIO_BITS = %d" % (list(degree), bits, MAX_RATIO_BITS))
    return bits


def _step_ratio(ring: CohomRing, key: tuple, target) -> CohomClass:
    """R_key on its pairings target, stepped from the cached R_p, p = key - e_j,
    with the fewest linear passes, or from R_0 = 1 (see the module docstring),
    and stored in ring.ratios; key must not be there yet."""
    ratios = ring.ratios
    # shift: the pairings of key minus those of the degree stepped from
    out, shift, cost = ratios[(0,) * len(key)], target, sum(map(abs, target))
    for j, row in enumerate(ring.cm.m):
        step = sum(map(abs, row))
        if step >= cost:
            continue
        near = key[:j] + (key[j] - 1,) + key[j + 1:]
        if near in ratios and not any(b - r < 0 <= b for b, r in zip(target, row)):
            out, shift, cost = ratios[near], row, step
    for k, (b, r) in enumerate(zip(target, shift)):
        alpha = ring.generator(k)
        for nu in range(b - r + 1, b + 1):
            out = ring.divide_linear(out, alpha, nu)
        for nu in range(b + 1, b - r + 1):
            out = ring.times_linear(out, alpha, nu)
    ratios[key] = out
    return out


def euler_ratio(ring: CohomRing, degree) -> CohomClass:
    """The coefficient R_degree of the series, at hbar = 1, memoized per ring
    under tuple(degree); a memo hit computes no pairings.

    Pairings of either sign are allowed: a negative one contributes the
    finite numerator product, including the nu = 0 factor alpha_k.  A
    degree whose bound sum_k |a_k| * bit_length(|a_k|) passes
    MAX_RATIO_BITS is refused with a ValueError before any pass; it also
    bounds the sum_k |a_k| linear passes from R_0.
    """
    key = tuple(degree)
    if key not in ring.ratios:
        target = ring.cm.pairings(degree)
        _refuse_oversized(degree, target)
        return _step_ratio(ring, key, target)
    return ring.ratios[key]


def _factor_product(ring: CohomRing, k: int, a: int) -> CohomClass:
    """P+_k(a) for a > 0, P-_k(a) for a < 0 (see the module docstring), each
    missing entry one CohomRing.multiply from its neighbour nearer to a = 0."""
    factors = ring.factor_products
    step = 1 if a > 0 else -1
    b = a
    while (k, b) not in factors:
        b -= step
    out = factors[(k, b)]
    while b != a:
        b += step
        out = out * (ring.generator(k) + ring.one().scale(b if step > 0 else b + 1))
        factors[(k, b)] = out
    return out


def check_ratio(ring: CohomRing, pairings, ratio: CohomClass) -> bool:
    """Does ratio satisfy the defining identity of R_d, d the degree whose
    pairings a_k = <alpha_k, d> are given?

        R_d * prod_{a_k>0} P+_k(a_k) = prod_{a_k<0} P-_k(a_k)

    with P+_k(a) = prod_{nu=1}^{a} (alpha_k + nu*hbar) and
    P-_k(a) = prod_{nu=a+1}^{0} (alpha_k + nu*hbar), cached per ring.  Only
    the factors are multiplied, never inverted, and through the general
    CohomRing.multiply rather than the multiplication matrices that built the
    ratio, so a wrong matrix entry cannot cancel out of the check.
    """
    lhs, rhs = ratio, None
    for k, a in enumerate(pairings):
        if a > 0:
            lhs = lhs * _factor_product(ring, k, a)
        elif a < 0:
            p = _factor_product(ring, k, a)
            rhs = p if rhs is None else rhs * p
    return lhs == (ring.one() if rhs is None else rhs)


class Series:
    """A truncated series sum_d q^d c_d of one weight.

    coefficients maps each degree of the tuple degrees, all with
    anticanonical degree <= bound, to c_d as a class at hbar = 1 (see the
    weight rule above), possibly zero.  build_f gives the weight-0 series
    F = exp((t.omega)/hbar) sum_d q^d R_d, whose symbolic exponential
    prefactor is expanded only inside component(); dmodule.apply gives D.F.
    images, empty at first, is the memo dmodule fills with theta-images.
    """

    __slots__ = ("ring", "bound", "degrees", "coefficients", "weight", "images")

    def __init__(self, ring: CohomRing, bound: int, degrees: tuple,
                 coefficients: dict, weight: int):
        self.ring = ring
        self.bound = bound
        self.degrees = degrees
        self.coefficients = coefficients
        self.weight = weight
        self.images = {}

    def is_zero(self) -> bool:
        return all(self.coefficients[d].is_zero() for d in self.degrees)


def build_f(ring: CohomRing, cone: MoriCone, bound: int) -> Series:
    """Assemble the series over all degrees of the Mori cone with c1-degree
    <= bound, whatever the signs of their pairings with the divisors.

    The three series subcommands, loop-model included, list their window
    here, once, as (d, a(d)) pairs that the budget and the ratio steps both
    read.  Every degree is checked against MAX_RATIO_BITS, in order, and then
    the sum of their bounds, times the chi numerators of each R_d, against
    MAX_WINDOW_BITS, before the first ratio is stepped, so an oversized
    window is refused at once."""
    window = [(d, ring.cm.pairings(d)) for d in enumerate_degrees(cone, ring.cm, bound)]
    bits = len(ring.basis) * sum(_refuse_oversized(d, a) for d, a in window)
    if bits > MAX_WINDOW_BITS:
        raise ValueError("the R_d of the series window at bound %d may reach %d bits in "
                         "all, more than MAX_WINDOW_BITS = %d" % (bound, bits, MAX_WINDOW_BITS))
    ratios = ring.ratios
    coeffs = {d: ratios[d] if d in ratios else _step_ratio(ring, d, a) for d, a in window}
    return Series(ring, bound, tuple(coeffs), coeffs, 0)


def component(series: Series, beta: int, log_order: int):
    """Scalar component f_beta = <F, T^beta>, T^beta the dual of the
    beta-th basis class T_beta.

    Expanding the prefactor exp(sum_j L_j omega_j / hbar) through the
    nilpotency order brings in monomials in the formal symbols L_j = log q_j.
    Returns {degree: {(log multi-exponent, hbar exponent): (num, den)}},
    each value the integer numerator over den > 0 in lowest terms, keeping
    log monomials up to total order log_order.

    The integral of x * T^beta is the T_beta coordinate of x, so for each
    log monomial t only the part of c_d of degree deg T_beta - |t| counts,
    and a basis monomial b of that degree contributes the T_beta coordinate
    of b * omega^t / t!.  Its hbar exponent w - c1(d) - deg T_beta + |t|,
    for a series of weight w (0 for F), shifted by the 1/hbar^|t| of the
    prefactor, is w - c1(d) - deg T_beta for every t.
    """
    if log_order < 0:
        raise ValueError("log_order must be nonnegative")
    ring = series.ring
    if not 0 <= beta < len(ring.basis):
        raise IndexError("beta out of range for the cohomology basis")
    target = ring.basis[beta]
    deg_beta = sum(target)
    covectors = {}  # t -> ([(b, num)], den): the T_beta coordinate of b * omega^t / t!
    for total in range(min(log_order, deg_beta) + 1):
        for t in monomials(ring.l, total):
            omega_t = ring.omega_power(t)
            products = [(b, ring.monomial_class(b) * omega_t)
                        for b in ring.basis_by_degree[deg_beta - total]]
            den = lcm(*(p.den for _, p in products))
            cov = [(b, v * (den // p.den)) for b, p in products if (v := p.num.get(target))]
            covectors[t] = (cov, den * prod(map(factorial, t)))
    out = {}
    for d in series.degrees:
        h = series.weight - ring.cm.c1_degree(d) - deg_beta
        num, den = series.coefficients[d].num, series.coefficients[d].den
        entry = {(t, h): (val // g, cden * den // g) for t, (cov, cden) in covectors.items()
                 if (val := sum(c * num.get(b, 0) for b, c in cov))
                 and (g := gcd(val, cden * den))}
        out[d] = dict(sorted(entry.items()))
    return out
