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

The full series F = exp((t.omega)/hbar) sum_d q^d R_d carries a symbolic
exponential prefactor; it is kept unexpanded, and only enters component(),
where it contributes polynomial terms in the formal symbols L_j = log q_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .cohomology import CohomClass, CohomRing, monomials
from .toric import ChargeMatrix


class StrictSignError(ValueError):
    """A divisor pairs negatively with the degree and general signs are off."""


def euler_ratio(ring: CohomRing, cm: ChargeMatrix, degree,
                allow_general_sign: bool = False) -> CohomClass:
    """The coefficient R_degree of the series, at hbar = 1.

    With allow_general_sign=False a negative pairing raises StrictSignError;
    with it on, negative pairings contribute the finite numerator product
    including the nu = 0 factor alpha_k.
    """
    out = ring.one()
    for k in range(cm.n):
        a_k = cm.pairing(degree, k)
        if a_k == 0:
            continue
        alpha = ring.generator(k)
        if a_k > 0:
            for nu in range(1, a_k + 1):
                out = ring.divide_linear(out, alpha, nu)
        else:
            if not allow_general_sign:
                raise StrictSignError(
                    "divisor %d pairs negatively (%d) with degree %r; "
                    "enable general signs to proceed" % (k, a_k, list(degree)))
            for nu in range(a_k + 1, 1):
                out = ring.times_linear(out, alpha, nu)
    return out


def check_ratio(ring: CohomRing, cm: ChargeMatrix, degree, ratio: CohomClass) -> bool:
    """Does ratio satisfy the defining identity of R_degree?

        R_d * prod_{a_k>0} prod_{nu=1}^{a_k} (alpha_k + nu*hbar)
            = prod_{a_k<0} prod_{nu=a_k+1}^{0} (alpha_k + nu*hbar)

    Only the factors are multiplied, never inverted, and through the general
    CohomRing.multiply rather than the multiplication matrices that built the
    ratio, so a wrong matrix entry cannot cancel out of the check.
    """
    lhs, rhs = ratio, ring.one()
    for k in range(cm.n):
        a_k = cm.pairing(degree, k)
        alpha = ring.generator(k)
        for nu in range(1, a_k + 1):
            lhs = lhs * (alpha + ring.one().scale(nu))
        for nu in range(a_k + 1, 1):
            rhs = rhs * (alpha + ring.one().scale(nu))
    return lhs == rhs


@dataclass(frozen=True, eq=False)
class Series:
    """A truncated series sum_d q^d c_d of one weight.

    coefficients maps each degree of the tuple degrees, all with
    anticanonical degree <= bound, to c_d as a class at hbar = 1 (see the
    weight rule above), possibly zero.  build_f gives the weight-0 series
    F = exp((t.omega)/hbar) sum_d q^d R_d, whose symbolic exponential
    prefactor is expanded only inside component(); dmodule.apply gives D.F.
    """
    ring: CohomRing
    cm: ChargeMatrix
    bound: int
    degrees: tuple
    coefficients: dict
    weight: int

    def is_zero(self) -> bool:
        return all(self.coefficients[d].is_zero() for d in self.degrees)


def build_f(ring: CohomRing, cm: ChargeMatrix, gens, bound: int,
            allow_general_sign: bool = False) -> Series:
    """Assemble the series over all Mori degrees with c1-degree <= bound."""
    from .toric import enumerate_degrees
    degrees = tuple(enumerate_degrees(gens, cm, bound))
    coeffs = {d: euler_ratio(ring, cm, d, allow_general_sign) for d in degrees}
    return Series(ring, cm, bound, degrees, coeffs, 0)


def component(series: Series, beta: int, log_order: int):
    """Scalar component f_beta = <F, dual of the beta-th basis class>.

    Expanding the prefactor exp(sum_j L_j omega_j / hbar) through the
    nilpotency order brings in monomials in the formal symbols L_j = log q_j.
    Returns {degree: {(log multi-exponent, hbar exponent): Fraction}} keeping
    log monomials up to total order log_order.

    The dual class is homogeneous, so for each log monomial t only the part
    of c_d of degree deg T_beta - |t| reaches the top degree.  Its hbar
    exponent w - c1(d) - deg T_beta + |t|, for a series of weight w (0 for
    F), shifted by the 1/hbar^|t| of the prefactor, is w - c1(d) - deg T_beta
    for every t.
    """
    if log_order < 0:
        raise ValueError("log_order must be nonnegative")
    ring = series.ring
    l = series.cm.l
    basis_classes, duals = ring.dual_basis()
    if not 0 <= beta < len(basis_classes):
        raise IndexError("beta out of range for the cohomology basis")
    dual = duals[beta]
    deg_beta = sum(ring.basis[beta])
    covectors = {}  # t -> nonzero [(b, integral of b * omega^t / t! * dual)]
    for total in range(min(log_order, ring.top) + 1):
        for t in monomials(l, total):
            cls = ring.one()
            denom = 1
            for j, tj in enumerate(t):
                denom *= factorial(tj)
                for _ in range(tj):
                    cls = cls * ring.omega_class(j)
            if cls.is_zero():
                continue
            wcls = cls.scale(Fraction(1, denom)) * dual
            covectors[t] = [(b, v) for b in ring.basis
                            if (v := ring.integrate(ring.monomial_class(b) * wcls))]
    out = {}
    for d in series.degrees:
        h = series.weight - series.cm.c1_degree(d) - deg_beta
        r_d = series.coefficients[d].coeffs
        entry = {}
        for t, cov in covectors.items():
            val = sum(c * r_d.get(b, 0) for b, c in cov)
            if val:
                entry[(t, h)] = val
        out[d] = dict(sorted(entry.items()))
    return out
