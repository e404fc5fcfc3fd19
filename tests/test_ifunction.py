"""Euler-class ratios and the hypergeometric series built from them."""

import gc
import random
import weakref
from fractions import Fraction
from itertools import product
from math import factorial, gcd

import pytest

from qdm import cohomology, ifunction, linalg, toric
from qdm import (
    build_f,
    check_ratio,
    component,
    enumerate_degrees,
    euler_ratio,
)
from qdm.serialize import laurent_json

from conftest import (
    SHIPPED,
    coeffs,
    load_fan,
    product_fan,
    ratio_at,
    reference_component,
    reference_dual_basis,
    reference_euler_ratio,
    reference_linear_factor,
    reference_quantum_period,
    rescaled,
)


# ---------------------------------------------------------------------------
# linear factors at hbar = 1


def test_laurent_products(corpus):
    # (h + hbar)(-h + 2 hbar) = -h^2 + h*hbar + 2 hbar^2 has weight 2; read
    # back with c1 = -2, the monomial m carries hbar^(2 - deg m)
    _fan, _cm, ring, _cone = corpus["p2"]
    h = ring.generator(2)
    a = ring.times_linear(ring.one(), h, 1)
    ab = ring.times_linear(a, h.scale(-1), 2)
    assert a == h + ring.one()
    assert ab == (h * h).scale(-1) + h + ring.one().scale(2)
    assert laurent_json(ab, -2) == [
        {"hbar": 0, "class": {"x3^2": "-1"}},
        {"hbar": 1, "class": {"x3": "1"}},
        {"hbar": 2, "class": {"1": "2"}},
    ]
    assert ring.times_linear(ring.one(), h, 0) == h


def test_divide_linear_multiplies_back(corpus):
    for name in ("p1", "p2", "p3", "dp2"):
        _fan, _cm, ring, _cone = corpus[name]
        for k in (0, ring.n - 1):
            for nu in (1, 2, -3):
                cls = ring.generator(k)
                inv = ring.divide_linear(ring.one(), cls, nu)
                assert inv * (cls + ring.one().scale(nu)) == ring.one(), (name, k, nu)


def test_divide_linear_needs_nonzero_hbar_part(corpus):
    _fan, _cm, ring, _cone = corpus["p1"]
    with pytest.raises(ValueError, match="vanishing hbar part"):
        ring.divide_linear(ring.one(), ring.generator(0), 0)


def test_homogeneity_flag(corpus):
    # check_ratio holds for the true ratio and fails once a coefficient changes
    _fan, cm, ring, _cone = corpus["p1"]
    r1 = euler_ratio(ring, (1,))
    assert check_ratio(ring, (1,), r1)
    assert not check_ratio(ring, (1,), r1 + ring.generator(0))
    assert not check_ratio(ring, (2,), r1)


# ---------------------------------------------------------------------------
# Euler-class ratios


def test_projective_line_ratio(corpus):
    # both pairings are 1, so R_1 = (hbar^-1 - H hbar^-2)^2 with H^2 = 0
    _fan, cm, ring, _cone = corpus["p1"]
    r1 = euler_ratio(ring, (1,))
    assert r1 == ring.one() + ring.generator(0).scale(-2)
    assert laurent_json(r1, cm.c1_degree((1,))) == [
        {"hbar": -3, "class": {"x2": "-2"}},
        {"hbar": -2, "class": {"1": "1"}},
    ]


def test_projective_line_ratio_degree_two(corpus):
    _fan, cm, ring, _cone = corpus["p1"]
    r2 = euler_ratio(ring, (2,))
    assert r2 == ring.one().scale(Fraction(1, 4)) + ring.generator(0).scale(Fraction(-3, 4))
    assert laurent_json(r2, cm.c1_degree((2,))) == [
        {"hbar": -5, "class": {"x2": "-3/4"}},
        {"hbar": -4, "class": {"1": "1/4"}},
    ]


def test_projective_plane_ratio(corpus):
    # R_1 = (H + hbar)^-3 = hbar^-3 - 3 H hbar^-4 + 6 H^2 hbar^-5
    _fan, cm, ring, _cone = corpus["p2"]
    r1 = euler_ratio(ring, (1,))
    assert laurent_json(r1, cm.c1_degree((1,))) == [
        {"hbar": -5, "class": {"x3^2": "6"}},
        {"hbar": -4, "class": {"x3": "-3"}},
        {"hbar": -3, "class": {"1": "1"}},
    ]


def test_hirzebruch_ratio_with_negative_pairing(corpus):
    # degree (1,0) pairs as (1,-1,1,0); the nu = 0 numerator factor is the
    # class of the second ray, which reduces to x3 - x2
    _fan, cm, ring, _cone = corpus["hirzebruch1"]
    r = euler_ratio(ring, (1, 0))
    assert coeffs(ring.generator(1)) == {(0, 0, 0, 1): 1, (0, 0, 1, 0): -1}
    assert coeffs(r) == {(0, 0, 0, 1): 1, (0, 0, 1, 0): -1, (0, 0, 0, 2): -2}
    assert laurent_json(r, cm.c1_degree((1, 0))) == [
        {"hbar": -3, "class": {"x4^2": "-2"}},
        {"hbar": -2, "class": {"x3": "-1", "x4": "1"}},
    ]


def test_ratio_multiplies_back_to_sign_product(corpus):
    # R_d * prod_{a_k>0} prod_{nu=1..a_k} (alpha_k + nu hbar)
    #     = prod_{a_k<0} prod_{nu=a_k+1..0} (alpha_k + nu hbar)
    for name in ("p1", "p2", "p1xp1", "hirzebruch1", "dp2"):
        _fan, cm, ring, cone = corpus[name]
        for d in enumerate_degrees(cone, cm, 4):
            lhs = euler_ratio(ring, d)
            assert check_ratio(ring, d, lhs), (name, d)
            rhs = ring.one()
            for k in range(cm.n):
                a_k = cm.pairings(d)[k]
                alpha = ring.generator(k)
                for nu in range(1, a_k + 1):
                    lhs = lhs * reference_linear_factor(ring, alpha, nu)
                for nu in range(a_k + 1, 1):
                    rhs = rhs * reference_linear_factor(ring, alpha, nu)
            assert lhs == rhs, (name, d)


def _check_against_direct_product(fan, cm, degrees, label):
    # sorted, reversed and shuffled requests, each on a fresh ring so that
    # every order builds its own chain of cached neighbours
    shuffled = sorted(degrees)
    random.Random(7).shuffle(shuffled)
    for order in (sorted(degrees), sorted(degrees, reverse=True), shuffled):
        ring = cohomology.build_ring(fan, cm)
        for d in order:
            assert euler_ratio(ring, d) == reference_euler_ratio(ring, cm, d), (label, d)
        for d in order:  # now every request is a memo hit
            assert euler_ratio(ring, d) == reference_euler_ratio(ring, cm, d), (label, d)


@pytest.mark.parametrize("name", SHIPPED)
def test_memoized_ratio_equals_the_direct_product(shipped, name):
    fan, cm, _ring, cone = shipped[name]
    _check_against_direct_product(fan, cm, enumerate_degrees(cone, cm, 6), name)


@pytest.mark.parametrize("name", ["hirzebruch1", "dp3"])
def test_memoized_ratio_off_the_mori_cone(shipped, name):
    # every lattice point of a box, so that pairings of both signs and steps
    # from -1 to 0 on some ray, which would need alpha_k^-1, both occur
    fan, cm, _ring, _cone = shipped[name]
    box = list(product(range(-2, 3), repeat=cm.l))
    assert any(a < 0 for d in box for a in cm.pairings(d))
    _check_against_direct_product(fan, cm, box, name)


def test_step_through_a_vanishing_factor_is_refused(monkeypatch, shipped):
    # on F1, (1, 0) pairs as (1, -1, 1, 0) and (1, 1) as (1, 0, 1, 1): the
    # unit step between them costs 2 passes but would divide by alpha_1, so
    # (1, 1) is built from 1 by its 3 factors instead
    fan, cm, _ring, _cone = shipped["hirzebruch1"]
    ring = cohomology.build_ring(fan, cm)
    euler_ratio(ring, (1, 0))
    passes = []

    def recorded(fn):
        def wrapper(self, cls, lin, nu):
            passes.append(nu)
            return fn(self, cls, lin, nu)
        return wrapper

    for method in ("times_linear", "divide_linear"):
        monkeypatch.setattr(cohomology.CohomRing, method,
                            recorded(getattr(cohomology.CohomRing, method)))
    got = euler_ratio(ring, (1, 1))
    assert passes == [1, 1, 1]
    monkeypatch.undo()
    assert got == reference_euler_ratio(ring, cm, (1, 1))


def test_a_ratio_is_refused_by_the_size_of_its_numbers(monkeypatch, shipped):
    # on P^2 the degree d pairs as (d, d, d): its bound is 3 * d * bit_length(d),
    # 45 at d = 5 and 54 at d = 6; a refused degree is not stepped at all
    fan, cm, _ring, _cone = shipped["p2"]
    ring = cohomology.build_ring(fan, cm)
    assert ifunction.MAX_RATIO_BITS == 2**17
    monkeypatch.setattr(ifunction, "MAX_RATIO_BITS", 45)
    assert euler_ratio(ring, (5,)) == reference_euler_ratio(ring, cm, (5,))
    memo = dict(ring.ratios)
    with pytest.raises(ValueError, match=r"^R_d of degree \[6\] may reach numbers of 54 "
                                         r"bits, more than MAX_RATIO_BITS = 45$"):
        euler_ratio(ring, (6,))
    assert ring.ratios == memo


def test_build_f_refuses_an_oversized_window_before_any_ratio(monkeypatch, shipped):
    # on P^1 the degree d pairs as (d, d); degree 5042 is the first of the
    # window at bound 20000 past MAX_RATIO_BITS, and it is refused before the
    # 5041 ratios below it are stepped
    fan, cm, _ring, cone = shipped["p1"]
    ring = cohomology.build_ring(fan, cm)
    memo = dict(ring.ratios)

    def refuse(*args):
        raise AssertionError("a ratio was stepped")

    for method in ("times_linear", "divide_linear"):
        monkeypatch.setattr(cohomology.CohomRing, method, refuse)
    with pytest.raises(ValueError, match=r"^R_d of degree \[5042\] may reach numbers of "
                                         r"131092 bits, more than MAX_RATIO_BITS = 131072$"):
        build_f(ring, cone, 20000)
    assert ring.ratios == memo


def test_build_f_refuses_a_window_past_its_budget(monkeypatch, shipped):
    # on P^1 at bound 10000 each of the 5001 ratios is under MAX_RATIO_BITS,
    # but their bounds 2 d bit_length(d) sum past MAX_WINDOW_BITS, and the
    # window is refused before the first ratio is stepped
    fan, cm, _ring, cone = shipped["p1"]
    ring = cohomology.build_ring(fan, cm)
    memo = dict(ring.ratios)

    def refuse(*args):
        raise AssertionError("a ratio was stepped")

    with monkeypatch.context() as patched:
        for method in ("times_linear", "divide_linear"):
            patched.setattr(cohomology.CohomRing, method, refuse)
        assert ifunction.MAX_WINDOW_BITS == 2**26
        with pytest.raises(ValueError, match=r"^the R_d of the series window at bound 10000 "
                                             r"may reach 302703570 bits in all, more than "
                                             r"MAX_WINDOW_BITS = 67108864$"):
            build_f(ring, cone, 10000)
    assert ring.ratios == memo
    # on P^2 the degrees 0, 1, 2 of the window at bound 6 pair as (d, d, d):
    # their bounds 0, 3 and 12 sum to 15, which the budget admits
    fan, cm, _ring, cone = shipped["p2"]
    ring = cohomology.build_ring(fan, cm)
    monkeypatch.setattr(ifunction, "MAX_WINDOW_BITS", 15)
    assert build_f(ring, cone, 6).degrees == ((0,), (1,), (2,))
    monkeypatch.setattr(ifunction, "MAX_WINDOW_BITS", 14)
    with pytest.raises(ValueError, match=r"^the R_d of the series window at bound 6 may "
                                         r"reach 15 bits in all, more than "
                                         r"MAX_WINDOW_BITS = 14$"):
        build_f(ring, cone, 6)


def test_ratio_memo_does_not_keep_its_ring_alive(shipped):
    fan, cm, _ring, _cone = shipped["p2"]
    ring = cohomology.build_ring(fan, cm)
    assert check_ratio(ring, (2,), euler_ratio(ring, (2,)))
    dead = weakref.ref(ring)
    del ring
    gc.collect()
    assert dead() is None


def test_ratio_memo_hit_is_the_cached_class(corpus):
    _fan, _cm, ring, _cone = corpus["p1xp1"]
    r = euler_ratio(ring, (1, 1))
    assert euler_ratio(ring, (1, 1)) is r
    assert ring.ratios[(1, 1)] is r


def test_ratio_memo_is_keyed_by_curve_degree(shipped):
    # the window's degrees are the memo's keys, the zero degree seeded
    fan, cm, _ring, cone = shipped["dp3"]
    ring = cohomology.build_ring(fan, cm)
    assert set(ring.ratios) == {(0,) * cm.l}
    series = build_f(ring, cone, 6)
    assert (0,) * cm.l in series.degrees
    assert set(ring.ratios) == set(series.degrees)


def test_ratio_memo_hit_computes_no_pairings(monkeypatch, corpus):
    _fan, _cm, ring, _cone = corpus["hirzebruch1"]
    r = euler_ratio(ring, (2, 1))
    calls = []
    pairings = toric.ChargeMatrix.pairings

    def spy(self, degree):
        calls.append(degree)
        return pairings(self, degree)

    monkeypatch.setattr(toric.ChargeMatrix, "pairings", spy)
    assert euler_ratio(ring, (2, 1)) is r
    assert calls == []


def test_ratio_memo_reads_a_list_degree_as_its_tuple(corpus):
    _fan, _cm, ring, _cone = corpus["p1xp1"]
    r = euler_ratio(ring, [1, 1])
    assert ring.ratios[(1, 1)] is r
    assert euler_ratio(ring, (1, 1)) is r
    assert euler_ratio(ring, [1, 1]) is r


# ---------------------------------------------------------------------------
# the assembled series


def test_build_f_structure(corpus):
    _fan, cm, ring, cone = corpus["p1xp1"]
    series = build_f(ring, cone, 4)
    assert series.bound == 4
    assert series.degrees == tuple(enumerate_degrees(cone, cm, 4))
    assert series.coefficients[(0, 0)] == ring.one()


def test_build_f_homogeneity(corpus):
    # R_d is homogeneous: its value at hbar = 2 or 3, built from the factors,
    # is the hbar = 1 class with each monomial m scaled by hbar^(-c1 - deg m)
    for name, (_fan, cm, ring, cone) in corpus.items():
        series = build_f(ring, cone, 6)
        for d in series.degrees:
            for hbar in (2, 3):
                want = ratio_at(ring, cm, d, hbar)
                got = rescaled(series.coefficients[d], cm.c1_degree(d), hbar)
                assert got == want, (name, d, hbar)


def test_component_projective_line(corpus):
    _fan, cm, ring, cone = corpus["p1"]
    series = build_f(ring, cone, 4)
    f0 = component(series, 0, log_order=1)
    assert f0 == {
        (0,): {((0,), 0): (1, 1)},
        (1,): {((0,), -2): (1, 1)},
        (2,): {((0,), -4): (1, 4)},
    }
    f1 = component(series, 1, log_order=1)
    assert f1[(0,)] == {((1,), -1): (1, 1)}
    assert f1[(1,)] == {((0,), -3): (-2, 1), ((1,), -3): (1, 1)}


def test_component_log_order_truncation(corpus):
    _fan, cm, ring, cone = corpus["p1"]
    series = build_f(ring, cone, 2)
    f1 = component(series, 1, log_order=0)
    assert f1[(0,)] == {}
    assert f1[(1,)] == {((0,), -3): (-2, 1)}


def test_component_projective_plane_closed_form(corpus):
    # the dual of the identity picks out the scalar 1/(d!)^3 hbar^{-3d}
    _fan, cm, ring, cone = corpus["p2"]
    series = build_f(ring, cone, 9)
    f0 = component(series, 0, log_order=0)
    import math
    for d in range(4):
        want = (1, math.factorial(d) ** 3)
        assert f0[(d,)] == {((0,), -3 * d): want}, d


def as_fractions(comp):
    """component() output with each (num, den), which must be integers in
    lowest terms with den > 0, read as a Fraction."""
    out = {}
    for d, entry in comp.items():
        for num, den in entry.values():
            assert type(num) is int and type(den) is int, (d, num, den)
            assert den > 0 and gcd(num, den) == 1, (d, num, den)
        out[d] = {key: Fraction(num, den) for key, (num, den) in entry.items()}
    return out


def _components_match_the_reference(ring, cone, bound):
    """Every component f_beta at every log order 0..top+1, item for item and
    in order, against the per-basis integrals."""
    series = build_f(ring, cone, bound)
    duals = reference_dual_basis(ring)[1]
    for beta in range(len(ring.basis)):
        for log_order in range(ring.top + 2):
            want = reference_component(series, beta, log_order, duals)
            got = as_fractions(component(series, beta, log_order))
            assert [(d, list(e.items())) for d, e in got.items()] == [
                (d, list(e.items())) for d, e in want.items()], (beta, log_order)


@pytest.mark.parametrize("name", SHIPPED)
def test_components_match_the_per_basis_integrals(shipped, name):
    _fan, _cm, ring, cone = shipped[name]
    _components_match_the_reference(ring, cone, 6)


@pytest.mark.parametrize("names", [["p1"] * 5, ["hirzebruch1", "p1"]],
                         ids=["p1^5", "hirzebruch1xp1"])
def test_components_match_the_per_basis_integrals_on_products(names):
    # (P1)^5 has chi = 32; F1 x P1 has pairing blocks that are not symmetric
    fan = product_fan(*names)
    cm = toric.charge_matrix(fan)
    ring = cohomology.build_ring(fan, cm)
    _components_match_the_reference(ring, toric.mori_generators(fan, cm), 4)


def test_component_argument_errors(corpus):
    _fan, cm, ring, cone = corpus["p1"]
    series = build_f(ring, cone, 2)
    with pytest.raises(IndexError):
        component(series, 2, log_order=1)
    with pytest.raises(ValueError, match="nonnegative"):
        component(series, 0, log_order=-1)


# ---------------------------------------------------------------------------
# call counts of the hot paths (no timing)


def test_series_build_takes_the_sparse_paths(monkeypatch):
    # building the dP3 series at B = 6 neither multiplies full classes inside
    # euler_ratio nor solves a linear system inside enumerate_degrees
    fan = load_fan("dp3")
    cm = toric.charge_matrix(fan)
    ring = cohomology.build_ring(fan, cm)
    cone = toric.mori_generators(fan, cm)
    inside = []
    counts = {"multiply": 0, "solve_columns": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if inside:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def entered(fn):
        def wrapper(*args, **kwargs):
            inside.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    monkeypatch.setattr(cohomology.CohomRing, "multiply",
                        counted("multiply", cohomology.CohomRing.multiply))
    monkeypatch.setattr(linalg, "solve_columns",
                        counted("solve_columns", linalg.solve_columns))
    monkeypatch.setattr(ifunction, "euler_ratio", entered(ifunction.euler_ratio))
    monkeypatch.setattr(ifunction, "enumerate_degrees", entered(toric.enumerate_degrees))
    series = ifunction.build_f(ring, cone, 6)
    assert len(series.degrees) == 462
    assert counts == {"multiply": 0, "solve_columns": 0}


def test_ratio_sweep_shares_work_across_degrees(monkeypatch):
    # building and checking the dP3 series at B = 6 takes at most half of the
    # 5,292 linear passes and 5,292 products that one direct product per
    # degree and per check would
    fan = load_fan("dp3")
    cm = toric.charge_matrix(fan)
    ring = cohomology.build_ring(fan, cm)
    cone = toric.mori_generators(fan, cm)
    counts = {"linear": 0, "multiply": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for method in ("times_linear", "divide_linear"):
        monkeypatch.setattr(cohomology.CohomRing, method,
                            counted("linear", getattr(cohomology.CohomRing, method)))
    series = ifunction.build_f(ring, cone, 6)
    monkeypatch.setattr(cohomology.CohomRing, "multiply",
                        counted("multiply", cohomology.CohomRing.multiply))
    assert all(ifunction.check_ratio(ring, d, series.coefficients[d])
               for d in series.degrees)
    assert len(series.degrees) == 462
    assert counts["linear"] <= 2646, counts
    assert counts["multiply"] <= 2646, counts


# ---------------------------------------------------------------------------
# the quantum period, an oracle from the rays alone

PERIOD_ORDER = 8


def period_terms(series, degrees):
    """m! * sum over the given degrees d with c1(d) = m of the unit
    coefficient of R_d, for m = 0..PERIOD_ORDER."""
    cm = series.ring.cm
    unit = (0,) * cm.n
    sums = [Fraction(0)] * (PERIOD_ORDER + 1)
    for d in degrees:
        sums[cm.c1_degree(d)] += coeffs(series.coefficients[d]).get(unit, 0)
    return [factorial(m) * x for m, x in enumerate(sums)]


def test_quantum_period_closed_forms():
    # P^2: (3k)! / k!^3 at m = 3k; dP3's period sequence
    assert reference_quantum_period(load_fan("p2"), 6) == [1, 0, 0, 6, 0, 0, 90]
    assert reference_quantum_period(load_fan("dp3"), 8) == [
        1, 0, 6, 12, 90, 360, 2040, 10080, 54810]


@pytest.mark.parametrize("name", SHIPPED)
def test_series_matches_the_quantum_period(shipped, name):
    fan, _cm, ring, cone = shipped[name]
    series = build_f(ring, cone, PERIOD_ORDER)
    want = reference_quantum_period(fan, PERIOD_ORDER)
    assert period_terms(series, series.degrees) == want


@pytest.mark.parametrize("name", SHIPPED)
def test_quantum_period_fails_without_a_window_degree(shipped, name):
    # the mutation: drop the highest degree with a nonzero unit coefficient
    fan, _cm, ring, cone = shipped[name]
    series = build_f(ring, cone, PERIOD_ORDER)
    want = reference_quantum_period(fan, PERIOD_ORDER)
    unit = (0,) * ring.n
    dropped = max(d for d in series.degrees
                  if d != (0,) * ring.l and unit in series.coefficients[d].num)
    mutated = [d for d in series.degrees if d != dropped]
    assert period_terms(series, mutated) != want
