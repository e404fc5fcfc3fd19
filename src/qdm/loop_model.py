"""Finite-mode loop spaces: action values, critical components, stabilization.

Loops in the k-th homogeneous coordinate carry Fourier modes nu = -N..N.  The
critical component labeled by a curve degree d freezes coordinate k in its
mode a_k = <alpha_k, d>; the transverse (k, nu) directions split by the sign
of nu - a_k into positive and negative normal weights, and the circle acts on
the (k, nu) line with equivariant Euler class alpha_k + nu*hbar.

The ratio of Euler classes of the negative-weight bundles over the components
d and 0 telescopes as N grows: common (k, nu) pairs cancel symbolically
before anything is inverted, so the ratio is independent of N once
N >= N(d) = max_k |a_k| and equals the stabilized coefficient R_d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import serialize
from .cohomology import CohomClass, CohomRing
from .ifunction import euler_ratio
from .toric import ChargeMatrix, FanData


class ComponentAbsentError(ValueError):
    """The mode cutoff N is too small for the requested critical component."""


@dataclass(frozen=True)
class WeightSystem:
    """Transverse modes at a critical component, split by sign of nu - a_k."""
    positive: tuple
    negative: tuple


@dataclass(frozen=True)
class CriticalData:
    degree: tuple
    modes: int
    value: Fraction
    weights: WeightSystem


def action_value(mode_squares) -> Fraction:
    """Quadratic action (1/2) sum_k sum_nu nu * |a_nu^k|^2.

    mode_squares: one row per homogeneous coordinate holding the 2N+1 squared
    moduli |a_nu^k|^2 in mode order nu = -N..N.  Rows must share the same odd
    length.
    """
    if not mode_squares:
        raise ValueError("no mode coefficients given")
    width = len(mode_squares[0])
    if width % 2 != 1:
        raise ValueError("each row must have odd length 2N+1")
    if any(len(row) != width for row in mode_squares):
        raise ValueError("all rows must have the same length")
    n_modes = (width - 1) // 2
    total = Fraction(0)
    for row in mode_squares:
        for i, sq in enumerate(row):
            total += (i - n_modes) * Fraction(sq)
    return total / 2


def min_modes(cm: ChargeMatrix, degree) -> int:
    """Smallest cutoff N whose model contains the component of this degree."""
    return max([abs(cm.pairing(degree, k)) for k in range(cm.n)] + [0])


def critical_component(fan: FanData, cm: ChargeMatrix, lam, degree,
                       modes: int) -> CriticalData:
    """Critical value and transverse weight system of the degree-d component.

    lam gives the coefficients of the symplectic form in the nef basis
    (defaults to all ones); the critical value is sum_j d_j lam_j.
    """
    if fan.n_rays != cm.n:
        raise ValueError("charge matrix does not match the fan")
    if lam is None:
        lam = [Fraction(1)] * cm.l
    lam = [Fraction(x) for x in lam]
    if len(lam) != cm.l:
        raise ValueError("lam needs one coefficient per nef basis class")
    if len(degree) != cm.l:
        raise ValueError("degree has the wrong number of coordinates")
    needed = min_modes(cm, degree)
    if modes < needed:
        raise ComponentAbsentError(
            "component of degree %r needs at least N = %d modes, got %d"
            % (list(degree), needed, modes))
    value = sum((d * s for d, s in zip(degree, lam)), Fraction(0))
    positive = []
    negative = []
    for k in range(cm.n):
        a_k = cm.pairing(degree, k)
        for nu in range(a_k + 1, modes + 1):
            positive.append((k, nu))
        for nu in range(-modes, a_k):
            negative.append((k, nu))
    return CriticalData(tuple(degree), modes, value,
                        WeightSystem(tuple(sorted(positive)), tuple(sorted(negative))))


def euler_ratio_n(ring: CohomRing, cm: ChargeMatrix, degree, modes: int) -> CohomClass:
    """Ratio of negative-bundle Euler classes e(E_d) / e(E_0) at cutoff N.

    The positive-weight index sets of the two components are compared and
    common (k, nu) pairs cancelled symbolically; only the finitely many
    leftover denominator factors are inverted.  The ratio is returned as a
    class at hbar = 1, like euler_ratio.
    """
    needed = min_modes(cm, degree)
    if modes < needed:
        raise ComponentAbsentError(
            "component of degree %r needs at least N = %d modes, got %d"
            % (list(degree), needed, modes))
    pos_d = set()
    pos_0 = set()
    for k in range(cm.n):
        a_k = cm.pairing(degree, k)
        for nu in range(a_k + 1, modes + 1):
            pos_d.add((k, nu))
        for nu in range(1, modes + 1):
            pos_0.add((k, nu))
    out = ring.one()
    for k, nu in sorted(pos_d - pos_0):
        out = ring.times_linear(out, ring.generator(k), nu)
    for k, nu in sorted(pos_0 - pos_d):  # nu >= 1, so every inverse exists
        out = ring.divide_linear(out, ring.generator(k), nu)
    return out


def check_stabilization(ring: CohomRing, cm: ChargeMatrix, degree, mode_values,
                        lam=None, fan: FanData | None = None) -> dict:
    """Compare finite-mode ratios against the stabilized closed form.

    mode_values: the cutoffs N to test, each >= N(degree).  Returns a
    JSON-ready report; disagreement is recorded in it, not raised.
    """
    mode_values = sorted(set(int(x) for x in mode_values))
    stable = euler_ratio(ring, cm, degree, allow_general_sign=True)
    per_mode = []
    all_match = True
    for n_cut in mode_values:
        ratio = euler_ratio_n(ring, cm, degree, n_cut)
        match = ratio == stable
        all_match = all_match and match
        per_mode.append({"N": n_cut, "matches_stable": match})
    if lam is None:
        lam = [Fraction(1)] * cm.l
    value = sum((Fraction(d) * Fraction(s) for d, s in zip(degree, lam)), Fraction(0))
    n_min = min_modes(cm, degree)
    weights = None
    if fan is not None:
        weights = critical_component(fan, cm, lam, degree, max(mode_values)).weights
    report = {
        "degree": list(degree),
        "min_modes": n_min,
        "N_list": mode_values,
        "critical_value": serialize.frac_str(value),
        "mode_checks": per_mode,
        "stable": all_match,
        "ratio": serialize.laurent_json(stable, cm.c1_degree(degree)),
    }
    if weights is not None:
        report["weights"] = {
            "positive": [list(w) for w in weights.positive],
            "negative": [list(w) for w in weights.negative],
        }
    return report
