"""Normal-ordered difference-differential operators and annihilator search."""

import fractions
import random
import sys
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest

from qdm import (
    DiffOp,
    EmptyWindowError,
    Series,
    apply,
    build_f,
    component,
    find_annihilators,
    gkz_operator,
    semiclassical,
)
from qdm import cohomology, dmodule, linalg
from qdm.cohomology import mono_key, monomials
from qdm.dmodule import _ansatz_key, _theta_images, _window_cap
from qdm.serialize import laurent_json, op_str
from qdm.toric import ChargeMatrix

from conftest import (SHIPPED, coeffs, reference_compose, reference_gkz_operator,
                      reference_rref, reference_theta_values, spans)


# ---------------------------------------------------------------------------
# operator algebra


def test_heisenberg_commutators(corpus):
    cm = corpus["p1xp1"][1]
    t0 = DiffOp.theta(cm, 0)
    q0 = DiffOp.q_power(cm, (1, 0))
    q1 = DiffOp.q_power(cm, (0, 1))
    h = DiffOp.hbar(cm)
    # [theta_0, q_0] = hbar q_0, [theta_0, q_1] = 0
    assert t0 * q0 - q0 * t0 == h * q0
    assert (t0 * q1 - q1 * t0).is_zero()


def test_normal_ordering_through_q(corpus):
    # theta^2 q = q (theta + hbar)^2, stored at hbar = 1 with weight 2 + c1(q)
    cm = corpus["p1"][1]
    t = DiffOp.theta(cm, 0)
    q = DiffOp.q_power(cm, (1,))
    op = t * t * q
    assert op.weight == 4
    assert (op.num, op.den) == ({((1,), (2,)): 1, ((1,), (1,)): 2, ((1,), (0,)): 1}, 1)
    assert op.walk() == [((1,), (0,), 2, 1), ((1,), (1,), 1, 2), ((1,), (2,), 0, 1)]


def test_operator_ring_axioms(corpus):
    cm = corpus["p1xp1"][1]
    rng = random.Random(23)
    identity = DiffOp.identity(cm)

    def rand_op(weight):
        terms = {}
        for _ in range(3):
            e = (rng.randrange(2), rng.randrange(2))
            room = weight - cm.c1_degree(e)  # the hbar power of theta^0
            if room < 0:
                continue
            t0 = rng.randrange(room + 1)
            t = (t0, rng.randrange(room - t0 + 1))
            c = rng.randrange(-3, 4)
            if c:
                terms[e, t] = c
        return DiffOp(cm, weight, terms)

    for _ in range(6):
        w1, w2, w3 = (rng.randrange(2, 5) for _ in range(3))
        a, a2, b, c, d = rand_op(w1), rand_op(w1), rand_op(w2), rand_op(w2), rand_op(w3)
        assert (a * b).weight == w1 + w2
        assert (a * b) * d == a * (b * d)
        assert a * (b + c) == a * b + a * c
        assert (a + a2) * b == a * b + a2 * b
        assert a + a2 == a2 + a
        assert (a - a).is_zero()
        assert a * identity == a
        assert identity * a == a


@pytest.mark.parametrize("name", ["p1xp1", "hirzebruch1", "dp2"])
def test_shifts_match_one_commutator_at_a_time(corpus, name):
    # theta^t q^e = q^e (theta + e hbar)^t with several variables shifted at
    # once, against moving one theta_j past q^e at a time
    cm = corpus[name][1]
    l = cm.l
    zero = (0,) * l
    rng = random.Random(31 + l)

    def exps():
        # entries up to 3, at least two of them nonzero
        while True:
            x = tuple(rng.randrange(4) for _ in range(l))
            if sum(map(bool, x)) >= 2:
                return x

    for _ in range(25):
        t, e = exps(), exps()
        theta_t = DiffOp(cm, sum(t), {(zero, t): 1})
        q_e = DiffOp.q_power(cm, e)
        assert theta_t * q_e == reference_compose(theta_t, q_e), (t, e)

    def rand_op():
        terms = {(exps(), exps()): rng.randrange(-3, 4) or 1 for _ in range(3)}
        weight = max(cm.c1_degree(e) + sum(t) for e, t in terms)
        op = DiffOp(cm, weight + rng.randrange(2), terms)
        return op.scale(Fraction(1, rng.randrange(1, 4)))

    for _ in range(8):
        a, b = rand_op(), rand_op()
        assert a * b == reference_compose(a, b)
        assert (a * b).den == reference_compose(a, b).den


def test_subtraction_refuses_what_addition_refuses(corpus):
    # op - x is op + (-x) for an operator x and a TypeError otherwise, as
    # op + x is: neither an int nor a class is scaled and then added
    _fan, cm, ring, _cone = corpus["p1"]
    op = DiffOp.identity(cm)
    other_cm = DiffOp.identity(corpus["p1xp1"][1])
    for other in (1, ring.one(), other_cm):
        with pytest.raises(TypeError):
            op - other
        with pytest.raises(TypeError):
            op + other


def test_operator_accessors(corpus):
    cm = corpus["p1xp1"][1]
    t = DiffOp.theta(cm, 1)
    q = DiffOp.q_power(cm, (1, 1))
    h = DiffOp.hbar(cm)
    op = h * h * t * t + q.scale(-2)  # weight 4 = c1((1, 1))
    assert op.weight == 4
    assert op.hbar_power((0, 0), (0, 2)) == 2
    assert op.den == 1
    assert op.walk() == [((0, 0), (0, 2), 2, 1), ((1, 1), (0, 0), 0, -2)]


def test_negative_q_exponent_rejected(corpus):
    cm = corpus["p1"][1]
    with pytest.raises(ValueError, match="nonnegative"):
        DiffOp(cm, 0, {((-1,), (0,)): 1})


def test_theta_exponent_of_the_wrong_length_rejected(corpus):
    # on P^2, with one theta, theta^(1, 1) used to print as theta1*theta2
    # and compose as theta1^2, and theta^() printed as hbar
    cm = corpus["p2"][1]
    for t in ((1, 1), ()):
        with pytest.raises(ValueError, match="theta-exponent .* needs 1 entries"):
            DiffOp(cm, 2, {((0,), t): 1})


def test_constructors_refuse_a_zero_denominator(corpus):
    # each of these used to build a value with den == 0, which failed only
    # when printed; the empty class died at the division by the gcd
    _fan, cm, ring, _cone = corpus["p2"]
    top = ring.basis[-1]
    for build in (lambda: cohomology.CohomClass(ring, {top: 2}, 0),
                  lambda: cohomology.CohomClass(ring, {}, 0),
                  lambda: ring.combination([(1, ring.one())], 0),
                  lambda: DiffOp(cm, 1, {((0,), (1,)): 1}, 0),
                  lambda: DiffOp(cm, 1, {}, 0)):
        with pytest.raises(ZeroDivisionError, match="denominator is 0"):
            build()


def test_constructors_take_int_numerators(corpus):
    # a Fraction numerator is refused; scale or combination builds the value
    _fan, cm, ring, _cone = corpus["p1"]
    with pytest.raises(TypeError):
        DiffOp(cm, 0, {((0,), (0,)): Fraction(1, 2)})
    with pytest.raises(TypeError):
        cohomology.CohomClass(ring, {(0, 0): Fraction(1, 2)})
    half = DiffOp.identity(cm).scale(Fraction(1, 2))
    assert (half.num, half.den) == ({((0,), (0,)): 1}, 2)
    half = ring.one().scale(Fraction(1, 2))
    assert (half.num, half.den) == ({(0, 0): 1}, 2)


def test_scale_refuses_a_float(corpus):
    # a scalar is read through .numerator and .denominator, as combination
    # reads it; a float has neither, so it is refused rather than taken as
    # its binary expansion
    _fan, cm, ring, _cone = corpus["p1"]
    for value in (ring.one(), DiffOp.identity(cm)):
        with pytest.raises(AttributeError):
            value.scale(0.1)
        with pytest.raises(AttributeError):
            value * 0.5
        with pytest.raises(AttributeError):
            0.5 * value
    with pytest.raises(AttributeError):
        ring.combination([(0.1, ring.one())])


def test_operators_are_homogeneous(corpus):
    # theta has weight 1: at weight 0 it would carry hbar^-1
    cm = corpus["p1"][1]
    with pytest.raises(ValueError, match="negative power of hbar"):
        DiffOp(cm, 0, {((0,), (1,)): 1})
    theta, hbar, one = DiffOp.theta(cm, 0), DiffOp.hbar(cm), DiffOp.identity(cm)
    assert (theta - hbar).weight == 1
    with pytest.raises(ValueError, match="weights 1 and 0"):
        theta - one
    with pytest.raises(ValueError, match="weights 2 and 1"):
        DiffOp.q_power(cm, (1,)) + theta


def test_theta_index_must_name_a_variable(corpus):
    # an index past either end used to give theta^0, the identity
    cm = corpus["p1"][1]
    for j in (1, -1):
        with pytest.raises(IndexError, match="out of range"):
            DiffOp.theta(cm, j)


def test_mismatched_charge_matrix_rejected(corpus):
    p1, p1xp1 = corpus["p1"][1], corpus["p1xp1"][1]
    with pytest.raises(TypeError):
        DiffOp.theta(p1, 0) * DiffOp.theta(p1xp1, 0)
    with pytest.raises(TypeError):
        DiffOp.theta(p1, 0) + DiffOp.theta(p1xp1, 0)


# ---------------------------------------------------------------------------
# applying operators to the series


def test_apply_theta_projective_line(corpus):
    _fan, cm, ring, cone = corpus["p1"]
    series = build_f(ring, cone, 4)
    assert series.weight == 0
    out = apply(DiffOp.theta(cm, 0), series)
    assert out.bound == 4
    assert out.weight == 1
    assert out.degrees == ((0,), (1,), (2,))
    omega = ring.omega_class(0)
    # theta has weight 1, so each output class is read back with c1(d) - 1
    # degree 0: theta picks out omega/hbar^0 from the prefactor shift
    c0 = out.coefficients[(0,)]
    assert c0 == omega
    assert laurent_json(c0, -1) == [{"hbar": 0, "class": {"x2": "1"}}]
    # degree 1: (omega + hbar) * (hbar^-2 - 2 omega hbar^-3) = hbar^-1 - omega hbar^-2
    c1 = out.coefficients[(1,)]
    assert c1 == ring.one() - omega
    assert laurent_json(c1, cm.c1_degree((1,)) - 1) == [
        {"hbar": -2, "class": {"x2": "-1"}},
        {"hbar": -1, "class": {"1": "1"}},
    ]


def test_apply_rejects_an_operator_of_another_charge_matrix(corpus):
    # zip would truncate e = (1, 1) to (1,) and return a wrong series
    _fan, cm, ring, cone = corpus["p1"]
    other = corpus["p1xp1"][1]
    series = build_f(ring, cone, 4)
    for op in (DiffOp.q_power(other, (1, 1)), DiffOp.theta(other, 1)):
        with pytest.raises(ValueError, match="different charge matrices"):
            apply(op, series)


def test_apply_is_linear(corpus):
    _fan, cm, ring, cone = corpus["p1"]
    series = build_f(ring, cone, 6)
    theta, hbar = DiffOp.theta(cm, 0), DiffOp.hbar(cm)
    a = theta * theta
    # all of weight 2: q has weight c1 = 2 on the line
    b = hbar * theta + DiffOp.q_power(cm, (1,)).scale(-3) + hbar * hbar
    combined = apply(a + b, series)
    fa, fb = apply(a, series), apply(b, series)
    assert combined.weight == fa.weight == fb.weight == 2
    assert combined.degrees == fb.degrees  # b's q-support sets the window
    for d in combined.degrees:
        assert combined.coefficients[d] == fa.coefficients[d] + fb.coefficients[d], d


def test_apply_theta_minus_hbar(corpus):
    # theta - hbar acts on q^d R_d as (omega + d - 1) R_d at hbar = 1
    _fan, cm, ring, cone = corpus["p1"]
    series = build_f(ring, cone, 4)
    out = apply(DiffOp.theta(cm, 0) - DiffOp.hbar(cm), series)
    assert out.weight == 1
    omega = ring.omega_class(0)
    for d in out.degrees:
        r_d = series.coefficients[d]
        assert out.coefficients[d] == ring.times_linear(r_d, omega, d[0] - 1), d
    assert not out.is_zero()


def test_apply_composition_matches_nesting(corpus):
    _fan, cm, ring, cone = corpus["p1"]
    series = build_f(ring, cone, 6)
    a = DiffOp.theta(cm, 0)
    b = DiffOp.q_power(cm, (1,)) - DiffOp.theta(cm, 0) * DiffOp.theta(cm, 0)
    once = apply(a * b, series)
    twice = apply(a, apply(b, series))
    assert once.degrees == twice.degrees
    assert once.bound == twice.bound
    assert once.weight == twice.weight == 3
    for d in once.degrees:
        assert once.coefficients[d] == twice.coefficients[d]


def test_component_reads_the_series_weight(corpus):
    # hbar F stores the classes of F, one weight higher: each hbar exponent
    # of its components is one more
    _fan, cm, ring, cone = corpus["p2"]
    series = build_f(ring, cone, 6)
    shifted = apply(DiffOp.hbar(cm), series)
    assert shifted.weight == 1
    for beta in range(len(ring.basis)):
        want = {d: {(t, h + 1): c for (t, h), c in entry.items()}
                for d, entry in component(series, beta, 2).items()}
        assert component(shifted, beta, 2) == want, beta


def test_apply_window_is_the_bound_for_nef_q_support(corpus):
    # c1(e) >= 0 on the line, so q^e leaves the window at c1(d) <= B; a
    # q-exponent past the window is refused, since no degree would test it
    _fan, cm, ring, cone = corpus["p1"]
    series = build_f(ring, cone, 4)
    out = apply(DiffOp.q_power(cm, (1,)), series)
    assert out.bound == 4
    assert out.degrees == ((0,), (1,), (2,))
    assert out.coefficients[(0,)] == ring.zero()
    for d in ((1,), (2,)):
        assert out.coefficients[d] == series.coefficients[(d[0] - 1,)], d
    assert apply(DiffOp.q_power(cm, (2,)), series).bound == 4
    with pytest.raises(EmptyWindowError, match="exceeds the series truncation"):
        apply(DiffOp.q_power(cm, (3,)), series)


def _stub_series(bound, m):
    """Just what _window_cap reads: the truncation and the charge matrix."""
    return SimpleNamespace(bound=bound, ring=SimpleNamespace(cm=ChargeMatrix(m)))


def test_window_cap_is_the_bound_lowered_by_negative_c1():
    # row sums (-1, 3): c1(q1) = -1 and c1(q2) = 3
    series = _stub_series(5, ((1, 1, -3), (1, 1, 1)))
    assert _window_cap(series, []) == 5
    assert _window_cap(series, [(0, 0), (0, 1)]) == 5  # c1(e) >= 0 keeps B
    assert _window_cap(series, [(0, 0), (1, 0), (0, 1)]) == 4
    assert _window_cap(series, [(2, 0), (1, 1)]) == 3  # c1 = -2 and 2
    assert _window_cap(series, [(1, 0), (1, 1)]) == 4  # c1(q1 q2) = 2 <= 4


def test_window_cap_refuses_a_term_past_the_window():
    series = _stub_series(5, ((1, 1, -3), (1, 1, 1)))
    assert _window_cap(series, [(0, 0), (1, 2)]) == 5  # c1(q1 q2^2) = 5 = B
    # next to q1 the window ends at 4, so c1 = 5 is tested nowhere
    with pytest.raises(EmptyWindowError, match=r"exceeds the series truncation \(bound 5\)"):
        _window_cap(series, [(1, 0), (1, 2)])
    with pytest.raises(EmptyWindowError, match="exceeds the series truncation"):
        _window_cap(series, [(0, 2)])  # c1 = 6 > B


def test_apply_keeps_zero_coefficients(corpus):
    _fan, cm, ring, cone = corpus["p1"]
    series = build_f(ring, cone, 6)
    out = apply(gkz_operator(cm, (1,)), series)
    assert out.is_zero()
    assert out.bound == 6
    assert out.degrees == ((0,), (1,), (2,), (3,))
    for d in out.degrees:
        assert out.coefficients[d] == ring.zero()


@pytest.mark.parametrize("name", SHIPPED)
def test_apply_theta_matches_the_reference_values(shipped, name):
    # q^e theta^t applied to the series, and to a once-applied series of
    # weight 1, gives value(d - e, t) * (source at d - e) with
    # value(d, t) = prod_j (omega_j + d_j)^t_j built from full class products
    _fan, cm, ring, cone = shipped[name]
    l = cm.l
    series = build_f(ring, cone, 2 * max(cm.c1_degree(g) for g in cone.generators))
    value = reference_theta_values(ring, l)
    once = apply(DiffOp.theta(cm, 0), series)
    for target in (series, once):
        for e in ((0,) * l, cone.generators[0]):
            for t in [t for total in range(3) for t in monomials(l, total)]:
                weight = cm.c1_degree(e) + sum(t)
                out = apply(DiffOp(cm, weight, {(e, t): 1}), target)
                assert out.weight == target.weight + weight
                for d in out.degrees:
                    dp = tuple(a - b for a, b in zip(d, e))
                    want = ring.zero()
                    if dp in target.coefficients:
                        want = value(dp, t) * target.coefficients[dp]
                    assert out.coefficients[d] == want, (name, e, t, d)


def test_theta_memo_is_shared_per_series(corpus, monkeypatch):
    _fan, cm, ring, cone = corpus["p1xp1"]
    series = build_f(ring, cone, 6)
    theta = DiffOp.theta(cm, 0)
    calls = []
    times_linear = type(ring).times_linear

    def counted(self, *args):
        calls.append(args)
        return times_linear(self, *args)

    monkeypatch.setattr(type(ring), "times_linear", counted)
    find_annihilators(series, 2, 0)
    assert calls
    before = len(calls)
    once = apply(theta * theta, series)
    assert apply(theta * theta, series).coefficients == once.coefficients
    assert len(calls) == before  # the search already built every image
    # each temporary series is dropped right after use, so the next one may
    # sit at its address; it must still get a memo of its own
    want = apply(theta, series).coefficients
    for k in range(1, 9):
        out = apply(theta, Series(ring, series.bound, series.degrees, {
            d: r.scale(k) for d, r in series.coefficients.items()}, 0))
        for d, cls in want.items():
            assert out.coefficients[d] == cls.scale(k), k


def test_each_series_starts_with_its_own_theta_memo(corpus):
    _fan, cm, ring, cone = corpus["p1xp1"]
    series = build_f(ring, cone, 4)
    assert series.images == {}
    applied = apply(DiffOp.theta(cm, 0), series)
    assert series.images
    assert applied.images == {}
    again = build_f(ring, cone, 4)
    assert again.images == {}


def test_theta_images_walk_a_chain_longer_than_the_recursion_limit(corpus):
    # theta^t is |t| times_linear steps, walked in a loop and memoized per step
    _fan, cm, ring, cone = corpus["p2"]
    series = build_f(ring, cone, 6)
    n = sys.getrecursionlimit() + 10
    want = series.coefficients[(1,)]
    for _ in range(n):
        want = ring.times_linear(want, ring.omega_class(0), 1)
    assert _theta_images(series)((1,), (n,)) == want
    assert sorted(t for d, (t,) in series.images if d == (1,)) == list(range(n + 1))
    # with two variables the chain lowers the first nonzero exponent
    _fan, cm, ring, cone = corpus["p1xp1"]
    series = build_f(ring, cone, 2)
    _theta_images(series)((1, 0), (2, 1))
    assert set(series.images) == {((1, 0), t) for t in ((0, 0), (0, 1), (1, 1), (2, 1))}


# ---------------------------------------------------------------------------
# box operators


def test_gkz_projective_spaces(corpus):
    for name, power in (("p1", 2), ("p2", 3), ("p3", 4)):
        _fan, cm, _ring, _cone = corpus[name]
        op = gkz_operator(cm, (1,))
        assert op.weight == power, name
        assert (op.num, op.den) == ({((0,), (power,)): 1, ((1,), (0,)): -1}, 1), name


def test_gkz_with_multiplicity(corpus):
    # degree 2 on the line: theta(theta - hbar) from each of the two rays
    _fan, cm, _ring, _cone = corpus["p1"]
    op = gkz_operator(cm, (2,))
    assert op.weight == 4
    assert (op.num, op.den) == (
        {((0,), (4,)): 1, ((0,), (3,)): -2, ((0,), (2,)): 1, ((2,), (0,)): -1}, 1)
    assert op.walk() == [((0,), (2,), 2, 1), ((0,), (3,), 1, -2),
                         ((0,), (4,), 0, 1), ((2,), (0,), 0, -1)]


def test_gkz_hirzebruch(corpus):
    _fan, cm, _ring, _cone = corpus["hirzebruch1"]
    section = gkz_operator(cm, (1, 0))
    assert section.weight == 2
    assert (section.num, section.den) == (
        {((0, 0), (2, 0)): 1, ((1, 0), (1, 0)): 1, ((1, 0), (0, 1)): -1}, 1)
    fiber = gkz_operator(cm, (0, 1))
    assert fiber.weight == 2
    assert (fiber.num, fiber.den) == (
        {((0, 0), (0, 2)): 1, ((0, 0), (1, 1)): -1, ((0, 1), (0, 0)): -1}, 1)


@pytest.mark.parametrize("name", SHIPPED)
def test_gkz_matches_the_polynomial_products(shipped, name):
    # the box operators composed in the operator algebra equal the ones
    # multiplied out as polynomials in theta, on every Mori generator, its
    # double and every pairwise sum
    _fan, cm, _ring, cone = shipped[name]
    gens = cone.generators
    degrees = list(gens) + [tuple(2 * x for x in g) for g in gens]
    degrees += [tuple(a + b for a, b in zip(g, h))
                for i, g in enumerate(gens) for h in gens[i + 1:]]
    for d in degrees:
        assert gkz_operator(cm, d) == reference_gkz_operator(cm, d), (name, d)


def test_gkz_rejects_negative_coordinates(corpus):
    _fan, cm, _ring, _cone = corpus["hirzebruch1"]
    with pytest.raises(ValueError, match="negative coordinate"):
        gkz_operator(cm, (1, -1))


def test_gkz_rejects_the_zero_degree(corpus):
    # its box operator is 1 - q^0 = 0, which annihilates everything
    _fan, cm, _ring, _cone = corpus["hirzebruch1"]
    with pytest.raises(ValueError, match="zero degree"):
        gkz_operator(cm, (0, 0))


def test_gkz_annihilates_series(corpus):
    for name in ("p1", "p2", "p3", "p1xp1", "hirzebruch1", "dp2"):
        fan, cm, ring, cone = corpus[name]
        series = build_f(ring, cone, 6)
        for g in cone.generators:
            out = apply(gkz_operator(cm, g), series)
            assert out.is_zero(), (name, g)


# ---------------------------------------------------------------------------
# annihilator search


def test_find_annihilators_projective_line(corpus):
    _fan, cm, ring, cone = corpus["p1"]
    series = build_f(ring, cone, 8)
    ops = find_annihilators(series, theta_order=2, q_degree=1)
    assert ops == [gkz_operator(cm, (1,))]


def test_find_annihilators_stable_under_more_data(corpus):
    _fan, cm, ring, cone = corpus["p1"]
    small = build_f(ring, cone, 8)
    large = build_f(ring, cone, 12)
    bounds = dict(theta_order=2, q_degree=1)
    ops = find_annihilators(small, **bounds)
    assert ops == find_annihilators(large, **bounds)
    # operators found at the small truncation still kill the larger one
    for op in ops:
        assert apply(op, large).is_zero()


def test_find_annihilators_product(corpus):
    _fan, cm, ring, cone = corpus["p1xp1"]
    series = build_f(ring, cone, 8)
    ops = find_annihilators(series, theta_order=2, q_degree=1)
    assert ops
    for op in ops:
        assert apply(op, series).is_zero()
    assert spans(ops, [gkz_operator(cm, (1, 0)), gkz_operator(cm, (0, 1))])


def test_find_annihilators_empty_cases(corpus):
    _fan, cm, ring, cone = corpus["p1"]
    series = build_f(ring, cone, 8)
    assert find_annihilators(series, 0, 0) == []
    with pytest.raises(ValueError, match="nonnegative"):
        find_annihilators(series, -1, 1)
    small = build_f(ring, cone, 2)
    with pytest.raises(EmptyWindowError):
        find_annihilators(small, 2, 2)


def reference_find_annihilators(series, theta_order, q_degree, hbar_order):
    """The search as one global matrix, kept as the oracle: rows are
    (degree, hbar exponent, monomial), every column (e, t, h) repeats the
    evaluation of q^e theta^t, and the whole nullspace is reduced at once.
    Both eliminations are conftest.reference_rref, not linalg's kernel: the
    nullspace is read off the free columns of the matrix's reduced form, and
    a second reduction brings it to the reduced basis."""
    if min(theta_order, q_degree, hbar_order) < 0:
        raise ValueError("ansatz bounds must be nonnegative")
    cm = series.ring.cm
    ring = series.ring
    l = cm.l
    q_exps = [e for tot in range(q_degree + 1) for e in monomials(l, tot)]
    q_exps.sort(key=lambda e: (sum(e), e))
    t_exps = [t for tot in range(theta_order + 1) for t in monomials(l, tot)]
    t_exps.sort(key=lambda t: (sum(t), t))
    columns = [(e, t, h) for e in q_exps for t in t_exps
               for h in range(hbar_order + 1)]
    columns.sort(key=lambda c: _ansatz_key(*c))
    c1s = [cm.c1_degree(e) for e in q_exps]
    cap = series.bound + min(0, min(c1s))
    if max(c1s) > cap:
        raise EmptyWindowError("q_degree %d exceeds the series truncation window"
                               % q_degree)
    out_degrees = set()
    for d in series.degrees:
        for e in q_exps:
            dd = tuple(a + b for a, b in zip(d, e))
            if cm.c1_degree(dd) <= cap:
                out_degrees.add(dd)
    valid = sorted(out_degrees, key=lambda d: (cm.c1_degree(d), d))
    # a memo of its own, not the one the search under test fills
    image = _theta_images(Series(ring, series.bound, series.degrees,
                                 series.coefficients, series.weight))

    col_vectors = []
    row_keys = set()
    for (e, t, h) in columns:
        weight = cm.c1_degree(e) + sum(t) + h
        vec = {}
        for d in valid:
            dp = tuple(a - b for a, b in zip(d, e))
            if dp not in series.coefficients:
                continue
            shift = weight - cm.c1_degree(d)
            for mono, c in coeffs(image(dp, t)).items():
                vec[d, shift - sum(mono), mono] = c
        col_vectors.append(vec)
        row_keys.update(vec)
    rows = sorted(row_keys,
                  key=lambda k: (cm.c1_degree(k[0]), k[0], k[1], mono_key(k[2])))
    matrix = [[vec.get(rk, Fraction(0)) for vec in col_vectors] for rk in rows]
    width = len(columns)
    red, pivots = reference_rref(matrix, width)
    free = [f for f in range(width) if f not in pivots]
    if not free:
        return []
    null = [[Fraction(j == f) for j in range(width)] for f in free]
    for row, c in zip(red, pivots):
        for x, f in zip(null, free):
            x[c] = -row[f]
    reduced, _ = reference_rref(null, width)
    ops = []
    for vec in reduced:
        vec = linalg.primitive_vector(vec)  # a multiple: spans reads no scale
        terms = {}
        weights = set()
        for (e, t, h), c in zip(columns, vec):
            if c:
                terms[e, t] = c
                weights.add(cm.c1_degree(e) + sum(t) + h)
        assert len(weights) == 1, weights  # every reduced row is homogeneous
        ops.append(DiffOp(cm, weights.pop(), terms))
    return ops


# (theta_order, q_degree, hbar_order); None is dim + 1, the CLI default.
# hbar_order bounds only the reference search.
SEARCH_BOUNDS = [(2, 1, 2), (3, 0, 1), (1, 2, 0), (2, 1, 0), (None, 1, 1)]


def hbar_times(op, k):
    """hbar^k op: the same terms at hbar = 1, k weights higher."""
    return DiffOp(op.cm, op.weight + k, op.num, op.den)


@pytest.mark.parametrize("name", SHIPPED)
def test_generators_span_the_reference_search(shipped, name):
    # the window leaves room for the Mori generators beyond the q-support
    _fan, cm, ring, cone = shipped[name]
    l = cm.l
    for theta_order, q_degree, hbar_order in SEARCH_BOUNDS:
        if theta_order is None:
            theta_order = ring.top + 1
        top = max(cm.c1_degree(e) for tot in range(q_degree + 1)
                  for e in monomials(l, tot))
        bound = top + max(cm.c1_degree(g) for g in cone.generators)
        series = build_f(ring, cone, bound)
        where = (name, theta_order, q_degree, hbar_order)
        found = []  # (weight, generator)
        for g in find_annihilators(series, theta_order, q_degree):
            # no generator is an hbar-multiple
            assert min(h for _, _, h, _ in g.walk()) == 0, (where, g)
            found.append((g.weight, g))
        reference = [(r.weight, r) for r in
                     reference_find_annihilators(series, theta_order, q_degree, hbar_order)]
        for w in {w for w, _ in found + reference}:
            # (a) every reference operator is a Q[hbar]-combination of generators
            lifted = [hbar_times(g, w - wg) for wg, g in found if wg <= w]
            assert spans(lifted, [r for wr, r in reference if wr == w]), (where, w)
            # (b) every generator within the reference's hbar bound is found there
            within = [g for wg, g in found if wg == w
                      and max(h for _, _, h, _ in g.walk()) <= hbar_order]
            assert spans([r for wr, r in reference if wr == w], within), (where, w)


# (fan, theta_order, q_degree) at B = 6; None is dim + 1, the CLI default
CHECKED_SEARCHES = [(name, None, 1) for name in SHIPPED] + [
    ("p1", 2, 2), ("p2xp2_sheared", 2, 2)]


@pytest.mark.parametrize("name, theta_order, q_degree", CHECKED_SEARCHES)
def test_found_operators_kill_the_series_on_the_window(shipped, name, theta_order,
                                                       q_degree):
    # the search and apply share the window, so each operator read back from
    # the scaled nullspace columns must apply to zero
    _fan, _cm, ring, cone = shipped[name]
    series = build_f(ring, cone, 6)
    if theta_order is None:
        theta_order = ring.top + 1
    for op in find_annihilators(series, theta_order, q_degree):
        assert apply(op, series).is_zero(), (name, op_str(op))


# operators found at B = 6 that a series longer by the largest Mori generator
# refutes: each vanishes on the window's degrees only
TRUNCATION_ARTIFACTS = {
    ("p2xp1", "q2*theta1^4 - q1*theta2^3*hbar^2 - 2*q1*theta1*theta2^3*hbar"),
    ("p3", "q1*theta1^4"),
    ("p4", "q1*theta1^5"),
    ("p5", "q1*theta1^6"),
}


def test_a_longer_series_refutes_only_the_known_artifacts(shipped):
    failing = set()
    for name in SHIPPED:
        _fan, cm, ring, cone = shipped[name]
        ops = find_annihilators(build_f(ring, cone, 6), ring.top + 1, 1)
        longer = build_f(ring, cone, 6 + max(cm.c1_degree(g) for g in cone.generators))
        failing.update((name, op_str(op)) for op in ops if not apply(op, longer).is_zero())
    assert failing == TRUNCATION_ARTIFACTS


def test_search_solves_the_hbar_free_ansatz_once(corpus, monkeypatch):
    _fan, cm, ring, cone = corpus["dp2"]
    series = build_f(ring, cone, 6)
    theta_order, q_degree = 2, 1
    widths = []
    reductions = []
    nullspace, rref = linalg.nullspace, linalg.rref

    def recorded(rows, width):
        widths.append(width)
        return nullspace(rows, width)

    def recorded_rref(rows, width):
        reductions.append(width)
        return rref(rows, width)

    monkeypatch.setattr(linalg, "nullspace", recorded)
    monkeypatch.setattr(linalg, "rref", recorded_rref)
    find_annihilators(series, theta_order, q_degree)
    # one column per q^e theta^t: 4 * 10 = 40 on dp2 (l = 3)
    ansatz = comb(cm.l + q_degree, q_degree) * comb(cm.l + theta_order, theta_order)
    assert ansatz == 40
    assert widths == [ansatz]
    assert reductions == []  # the nullspace basis is the reduced basis already


def test_search_and_apply_build_no_fraction(corpus, monkeypatch):
    # from the theta-images to the operators and their check, dmodule, linalg
    # and the class kernels stay on Python ints; rendering may build Fractions
    _fan, cm, ring, cone = corpus["dp2"]
    series = build_f(ring, cone, 6)  # the CLI defaults: B = 6, |t| <= dim + 1, |e| <= 1
    for j in range(cm.l):
        ring.omega_class(j)  # ring set-up, solved once per ring over the rationals
    expected = find_annihilators(build_f(ring, cone, 6), ring.top + 1, 1)

    def refuse(*args):
        raise AssertionError("a Fraction was built: %r" % (args,))

    # no module holds the name: parse_frac reads it off fractions at a call
    monkeypatch.setattr(fractions, "Fraction", refuse)
    ops = find_annihilators(series, ring.top + 1, 1)
    applied = [apply(op, series) for op in ops]
    monkeypatch.undo()
    assert ops == expected and len(ops) == 17
    assert all(a.is_zero() for a in applied)
    assert all(type(c) is int for op in ops for c in op.num.values())


def test_in_span(corpus):
    cm = corpus["p1"][1]
    theta, h = DiffOp.theta(cm, 0), DiffOp.hbar(cm)
    g = theta * theta - DiffOp.q_power(cm, (1,))
    ops = [h * g, theta * g]
    assert spans(ops, [h * g + (theta * g).scale(Fraction(3, 2))])
    assert not spans(ops, [g])
    assert not spans([], [DiffOp.identity(cm)])
    assert spans([], [DiffOp(cm, 0, {})])


# ---------------------------------------------------------------------------
# semiclassical limits


def test_semiclassical_projective_line(corpus):
    _fan, cm, ring, _cone = corpus["p1"]
    rel = semiclassical(gkz_operator(cm, (1,)))
    assert (rel.num, rel.den) == ({((0,), (2,)): 1, ((1,), (0,)): -1}, 1)
    assert {t: c for (e, t), c in rel.num.items() if e == (0,)} == {(2,): 1}  # q = 0
    assert rel.classical_value(ring).is_zero()


def test_semiclassical_drops_hbar_terms(corpus):
    _fan, cm, _ring, _cone = corpus["p1"]
    op = gkz_operator(cm, (2,))
    rel = semiclassical(op)
    # theta^2(theta - hbar)^2 - q^2 loses the hbar cross terms
    assert (rel.num, rel.den) == ({((0,), (4,)): 1, ((2,), (0,)): -1}, 1)
    assert isinstance(rel, DiffOp) and rel.weight == op.weight
    assert all(h == 0 for _, _, h, _ in rel.walk())
    assert semiclassical(rel) == rel
    assert semiclassical(DiffOp.hbar(cm)).is_zero()


def test_semiclassical_hirzebruch(corpus):
    _fan, cm, ring, _cone = corpus["hirzebruch1"]
    rel = semiclassical(gkz_operator(cm, (1, 0)))
    assert (rel.num, rel.den) == (
        {((0, 0), (2, 0)): 1, ((1, 0), (1, 0)): 1, ((1, 0), (0, 1)): -1}, 1)
    assert rel.classical_value(ring).is_zero()
    assert rel.walk()[0] == ((0, 0), (2, 0), 0, 1)


def test_semiclassical_identity_not_a_relation(corpus):
    _fan, cm, ring, _cone = corpus["p1"]
    rel = semiclassical(DiffOp.identity(cm))
    assert not rel.is_zero()
    assert rel.classical_value(ring) == ring.one()


def test_relation_equality_ignores_zero_terms(corpus):
    cm = corpus["p1"][1]
    a = DiffOp(cm, 2, {((0,), (2,)): 1})
    b = DiffOp(cm, 2, {((0,), (2,)): 1, ((1,), (0,)): 0})
    assert a == b
    assert hash(a) == hash(b)
