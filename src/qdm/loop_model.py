"""Finite-mode loop spaces: critical values, mode intervals, stabilization.

Loops in the k-th homogeneous coordinate carry Fourier modes nu = -N..N, and
the circle acts on the (k, nu) line with equivariant Euler class
alpha_k + nu*hbar.  The critical component labeled by a curve degree d
freezes coordinate k in its mode a_k = <alpha_k, d>; its transverse modes
are two intervals per ray, the positive weights [a_k+1, N] and the negative
weights [-N, a_k-1].

Per ray, dividing the Euler class of [a_k+1, N] by that of [1, N], the
interval of the component d = 0, leaves (alpha_k + nu*hbar)^-1 for nu in
[1, a_k] and (alpha_k + nu*hbar) for nu in [a_k+1, 0], whatever the cutoff
N >= N(d) = max_k |a_k| is.  So the finite-mode ratio is the stabilized
coefficient R_d at every such cutoff, pairings of either sign included, and
is computed once per degree by ifunction.euler_ratio, the series' formula.  The
"stable" flag of a stabilization report is ifunction.check_ratio: the
product identity defining R_d, multiplied out through CohomRing.multiply
and so independent of the multiplication matrices that built the ratio.

N(d), the weight intervals and that identity are all functions of the
frozen modes a(d), so check_stabilization computes a(d) once and reads
them off it; the ratio comes from euler_ratio_n, whose critical_component
call is the degree's one check of its inputs and cutoff.
"""

from __future__ import annotations

from collections import namedtuple

from . import serialize
from .cohomology import CohomClass, CohomRing
from .ifunction import check_ratio, euler_ratio
from .toric import ChargeMatrix, _int_tuple


class ComponentAbsentError(ValueError):
    """The mode cutoff N is too small for the requested critical component."""


class CriticalData(namedtuple("CriticalData", ("value", "positive", "negative"))):
    """A critical component: its critical value and its transverse modes, one
    (lo, hi) interval of nu per ray in each sign class, indexed by the ray;
    lo > hi means empty."""

    __slots__ = ()


def _critical_data(degree: tuple, frozen, modes: int) -> CriticalData:
    """The degree-d component's critical value and its weight intervals at
    cutoff modes, read off its pairings frozen = a(d)."""
    return CriticalData(sum(degree), tuple((a_k + 1, modes) for a_k in frozen),
                        tuple((-modes, a_k - 1) for a_k in frozen))


def critical_component(cm: ChargeMatrix, degree, modes: int) -> CriticalData:
    """Critical value sum_j d_j (the symplectic form is the sum of the nef
    basis classes) and transverse weight intervals of the degree-d component.

    The degree's entries, then the cutoff, then the degree's length are
    checked; a cutoff below N(d) raises ComponentAbsentError."""
    degree = _int_tuple(degree)
    _int_tuple((modes,))
    frozen = cm.pairings(degree)
    needed = max(map(abs, frozen), default=0)
    if modes < needed:
        raise ComponentAbsentError(
            "component of degree %r needs at least N = %d modes, got %d"
            % (list(degree), needed, modes))
    return _critical_data(degree, frozen, modes)


def euler_ratio_n(ring: CohomRing, degree, modes: int) -> CohomClass:
    """Ratio of the positive-weight Euler classes of components d and 0 at
    cutoff N, as a class at hbar = 1 like euler_ratio.

    Per ray, [a_k+1, N] divided by [1, N] leaves (alpha_k + nu*hbar)^-1 for
    nu in [1, a_k] and (alpha_k + nu*hbar) for nu in [a_k+1, 0], whatever
    N >= N(d) is: the factors of R_d, so the ratio is euler_ratio's.  The
    inputs are checked as critical_component checks them, with the same
    errors.
    """
    degree = _int_tuple(degree)
    critical_component(ring.cm, degree, modes)
    return euler_ratio(ring, degree)


def check_stabilization(ring: CohomRing, degree, mode_values=None) -> dict:
    """Finite-mode ratio and critical data of one degree over the cutoffs N.

    mode_values: the requested cutoffs N, ints; None asks for N(d)..N(d)+3.
    Those below N(d) are reported as "skipped_modes".  The ratio is taken at
    the smallest usable cutoff, the weight intervals at the largest.
    Returns a JSON-ready report whose "stable" records whether the ratio
    satisfies the product identity of R_d; a failure, or no usable cutoff,
    is recorded, not raised.
    """
    degree = _int_tuple(degree)
    frozen = ring.cm.pairings(degree)
    needed = max(map(abs, frozen), default=0)
    if mode_values is None:
        mode_values = range(needed, needed + 4)
    mode_values = sorted(set(_int_tuple(mode_values)))
    if not mode_values:
        raise ValueError("no mode cutoffs given")
    skipped = [n for n in mode_values if n < needed]
    usable = mode_values[len(skipped):]
    if not usable:
        return {"degree": list(degree), "min_modes": needed, "skipped_modes": skipped,
                "stable": False, "error": "all requested cutoffs below N(d)"}
    ratio = euler_ratio_n(ring, degree, usable[0])
    data = _critical_data(degree, frozen, usable[-1])
    report = {
        "degree": list(degree),
        "min_modes": needed,
        "N_list": usable,
        "critical_value": serialize.frac_str(data.value),
        "stable": check_ratio(ring, frozen, ratio),
        "ratio": serialize.laurent_json(ratio, ring.cm.c1_degree(degree)),
        "weights": {"positive": [list(w) for w in data.positive],
                    "negative": [list(w) for w in data.negative]},
    }
    if skipped:
        report["skipped_modes"] = skipped
    return report
