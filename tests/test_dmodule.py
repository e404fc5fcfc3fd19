"""Normal-ordered difference-differential operators and annihilator search."""

import random
from fractions import Fraction

import pytest

from qdm import (
    DiffOp,
    EmptyWindowError,
    QuantumRelation,
    apply,
    build_f,
    find_annihilators,
    gkz_operator,
    in_span,
    semiclassical,
)
from qdm.cohomology import monomials
from qdm.serialize import laurent_json

from conftest import SHIPPED, reference_theta_values


# ---------------------------------------------------------------------------
# operator algebra


def test_heisenberg_commutators():
    t0 = DiffOp.theta(2, 0)
    q0 = DiffOp.q_power(2, (1, 0))
    q1 = DiffOp.q_power(2, (0, 1))
    h = DiffOp.hbar(2)
    # [theta_0, q_0] = hbar q_0, [theta_0, q_1] = 0
    assert t0 * q0 - q0 * t0 == h * q0
    assert (t0 * q1 - q1 * t0).is_zero()


def test_normal_ordering_through_q():
    # theta^2 q = q (theta + hbar)^2
    t = DiffOp.theta(1, 0)
    q = DiffOp.q_power(1, (1,))
    op = t * t * q
    assert op.terms == {
        (1,): {((2,), 0): Fraction(1), ((1,), 1): Fraction(2),
               ((0,), 2): Fraction(1)},
    }


def test_operator_ring_axioms():
    rng = random.Random(23)

    def rand_op():
        terms = {}
        for _ in range(3):
            e = (rng.randrange(2), rng.randrange(2))
            t = (rng.randrange(3), rng.randrange(2))
            h = rng.randrange(2)
            c = rng.randrange(-3, 4)
            if c:
                terms.setdefault(e, {})[(t, h)] = Fraction(c)
        return DiffOp(2, terms)

    for _ in range(6):
        a, b, c = rand_op(), rand_op(), rand_op()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert (a - a).is_zero()
        assert a * DiffOp.identity(2) == a
        assert DiffOp.identity(2) * a == a


def test_operator_accessors():
    t = DiffOp.theta(2, 1)
    q = DiffOp.q_power(2, (1, 1))
    op = t * t + q.scale(-2)
    assert op.coefficient((0, 0), (0, 2), 0) == 1
    assert op.coefficient((1, 1), (0, 0), 0) == -2
    assert op.coefficient((1, 1), (1, 0), 0) == 0
    assert op.support_triples() == [((0, 0), (0, 2), 0), ((1, 1), (0, 0), 0)]


def test_negative_q_exponent_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        DiffOp(1, {(-1,): {((0,), 0): Fraction(1)}})


def test_mismatched_variable_count_rejected():
    with pytest.raises(TypeError):
        DiffOp.theta(1, 0) * DiffOp.theta(2, 0)


def test_max_c1(corpus):
    _fan, cm, _ring, _gens = corpus["p1xp1"]
    op = DiffOp.q_power(2, (1, 1)) + DiffOp.theta(2, 0)
    assert op.max_c1(cm) == 4
    assert DiffOp.theta(2, 0).max_c1(cm) == 0


# ---------------------------------------------------------------------------
# applying operators to the series


def test_apply_theta_projective_line(corpus):
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 4)
    out = apply(DiffOp.theta(1, 0), series)
    assert out.bound == 4
    assert out.degrees == ((0,), (1,), (2,))
    omega = ring.omega_class(0)
    # theta has weight 1, so each output class is read back with c1(d) - 1
    # degree 0: theta picks out omega/hbar^0 from the prefactor shift
    c0 = out.coefficients[(0,)]
    assert c0 == {1: omega}
    assert laurent_json(c0[1], -1) == [{"hbar": 0, "class": {"x2": "1"}}]
    # degree 1: (omega + hbar) * (hbar^-2 - 2 omega hbar^-3) = hbar^-1 - omega hbar^-2
    c1 = out.coefficients[(1,)]
    assert c1 == {1: ring.one() - omega}
    assert laurent_json(c1[1], cm.c1_degree((1,)) - 1) == [
        {"hbar": -2, "class": {"x2": "-1"}},
        {"hbar": -1, "class": {"1": "1"}},
    ]


def test_apply_is_linear(corpus):
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 6)
    a = DiffOp.theta(1, 0) * DiffOp.theta(1, 0)
    b = (DiffOp.hbar(1) * DiffOp.theta(1, 0) + DiffOp.q_power(1, (1,)).scale(-3)
         + DiffOp.theta(1, 0))
    combined = apply(a + b, series)
    fa, fb = apply(a, series), apply(b, series)
    # a has weight 2; b has weights 2, 2 (q has weight c1 = 2 on the line) and 1
    for d in combined.degrees:
        weights = set(fa.coefficients[d]) | set(fb.coefficients[d])
        assert set(combined.coefficients[d]) <= weights
        for w in weights:
            want = (fa.coefficients[d].get(w, ring.zero())
                    + fb.coefficients[d].get(w, ring.zero()))
            assert combined.coefficients[d].get(w, ring.zero()) == want, (d, w)


def test_apply_keeps_weights_apart(corpus):
    # at hbar = 1 both theta - hbar and theta - 1 act on q^d R_d as
    # (omega + d - 1) R_d; only the first is homogeneous (weight 1), the
    # second has parts of weights 1 and 0 that must stay apart
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 4)
    theta, hbar, one = DiffOp.theta(1, 0), DiffOp.hbar(1), DiffOp.identity(1)
    homogeneous = apply(theta - hbar, series)
    mixed = apply(theta - one, series)
    for d in mixed.degrees:
        r_d = series.coefficients[d]
        assert set(homogeneous.coefficients[d]) == {1}, d
        assert mixed.coefficients[d] == {0: r_d.scale(-1),
                                         1: homogeneous.coefficients[d][1] + r_d}, d
    assert not mixed.is_zero()


def test_apply_composition_matches_nesting(corpus):
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 6)
    a = DiffOp.theta(1, 0)
    b = DiffOp.q_power(1, (1,)) - DiffOp.theta(1, 0) * DiffOp.theta(1, 0)
    once = apply(a * b, series)
    twice = apply(a, apply(b, series))
    assert once.degrees == twice.degrees
    assert once.bound == twice.bound
    for d in once.degrees:
        assert once.coefficients[d] == twice.coefficients[d]


def test_apply_window_shrinks_with_q_support(corpus):
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 4)
    out = apply(DiffOp.q_power(1, (1,)), series)
    assert out.bound == 2
    assert out.degrees == ((0,), (1,))
    with pytest.raises(EmptyWindowError):
        apply(DiffOp.q_power(1, (3,)), series)


def test_apply_keeps_zero_coefficients(corpus):
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 6)
    out = apply(gkz_operator(cm, (1,)), series)
    assert out.is_zero()
    assert out.degrees == ((0,), (1,), (2,))
    for d in out.degrees:
        assert out.coefficients[d] == {}


@pytest.mark.parametrize("name", SHIPPED)
def test_apply_theta_matches_the_reference_values(shipped, name):
    # q^e theta^t applied to the series, and to a once-applied series with
    # weight-1 parts, gives value(d - e, t) * (source at d - e) with
    # value(d, t) = prod_j (omega_j + d_j)^t_j built from full class products
    _fan, cm, ring, gens = shipped[name]
    l = cm.l
    series = build_f(ring, cm, gens, 2 * max(cm.c1_degree(g) for g in gens),
                     allow_general_sign=True)
    value = reference_theta_values(ring, l)
    once = apply(DiffOp.theta(l, 0), series)
    plain = {d: {0: r} for d, r in series.coefficients.items()}
    for target, sources in ((series, plain), (once, once.coefficients)):
        for e in ((0,) * l, gens[0]):
            for t in [t for total in range(3) for t in monomials(l, total)]:
                op = DiffOp(l, {e: {(t, 0): Fraction(1)}})
                out = apply(op, target)
                weight = cm.c1_degree(e) + sum(t)
                for d in out.degrees:
                    dp = tuple(a - b for a, b in zip(d, e))
                    want = {}
                    for w0, cls in sources.get(dp, {}).items():
                        cls = value(dp, t) * cls
                        if not cls.is_zero():
                            want[weight + w0] = cls
                    assert out.coefficients[d] == want, (name, e, t, d)


# ---------------------------------------------------------------------------
# box operators


def test_gkz_projective_spaces(corpus):
    for name, power in (("p1", 2), ("p2", 3), ("p3", 4)):
        _fan, cm, _ring, _gens = corpus[name]
        op = gkz_operator(cm, (1,))
        assert op.terms == {
            (0,): {((power,), 0): Fraction(1)},
            (1,): {((0,), 0): Fraction(-1)},
        }, name


def test_gkz_with_multiplicity(corpus):
    # degree 2 on the line: theta(theta - hbar) from each of the two rays
    _fan, cm, _ring, _gens = corpus["p1"]
    op = gkz_operator(cm, (2,))
    assert op.terms == {
        (0,): {((4,), 0): Fraction(1), ((3,), 1): Fraction(-2),
               ((2,), 2): Fraction(1)},
        (2,): {((0,), 0): Fraction(-1)},
    }


def test_gkz_hirzebruch(corpus):
    _fan, cm, _ring, _gens = corpus["hirzebruch1"]
    section = gkz_operator(cm, (1, 0))
    assert section.terms == {
        (0, 0): {((2, 0), 0): Fraction(1)},
        (1, 0): {((1, 0), 0): Fraction(1), ((0, 1), 0): Fraction(-1)},
    }
    fiber = gkz_operator(cm, (0, 1))
    assert fiber.terms == {
        (0, 0): {((0, 2), 0): Fraction(1), ((1, 1), 0): Fraction(-1)},
        (0, 1): {((0, 0), 0): Fraction(-1)},
    }


def test_gkz_rejects_negative_coordinates(corpus):
    _fan, cm, _ring, _gens = corpus["hirzebruch1"]
    with pytest.raises(ValueError, match="negative coordinate"):
        gkz_operator(cm, (1, -1))


def test_gkz_annihilates_series(corpus):
    for name, general in (("p1", False), ("p2", False), ("p3", False),
                          ("p1xp1", False), ("hirzebruch1", True),
                          ("dp2", True)):
        fan, cm, ring, gens = corpus[name]
        series = build_f(ring, cm, gens, 6, allow_general_sign=general)
        for g in gens:
            out = apply(gkz_operator(cm, g), series)
            assert out.is_zero(), (name, g)


# ---------------------------------------------------------------------------
# annihilator search


def test_find_annihilators_projective_line(corpus):
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 8)
    ops = find_annihilators(series, theta_order=2, q_degree=1, hbar_order=2)
    g = gkz_operator(cm, (1,))
    h = DiffOp.hbar(1)
    assert ops == [g, h * g, h * h * g]


def test_find_annihilators_stable_under_more_data(corpus):
    _fan, cm, ring, gens = corpus["p1"]
    small = build_f(ring, cm, gens, 8)
    large = build_f(ring, cm, gens, 12)
    bounds = dict(theta_order=2, q_degree=1, hbar_order=2)
    ops = find_annihilators(small, **bounds)
    assert ops == find_annihilators(large, **bounds)
    # operators found at the small truncation still kill the larger one
    for op in ops:
        assert apply(op, large).is_zero()


def test_find_annihilators_product(corpus):
    _fan, cm, ring, gens = corpus["p1xp1"]
    series = build_f(ring, cm, gens, 8)
    ops = find_annihilators(series, theta_order=2, q_degree=1, hbar_order=2)
    assert ops
    for op in ops:
        assert apply(op, series).is_zero()
    assert in_span(ops, gkz_operator(cm, (1, 0)))
    assert in_span(ops, gkz_operator(cm, (0, 1)))


def test_find_annihilators_empty_cases(corpus):
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 8)
    assert find_annihilators(series, 0, 0, 0) == []
    with pytest.raises(ValueError, match="nonnegative"):
        find_annihilators(series, -1, 1, 1)
    small = build_f(ring, cm, gens, 2)
    with pytest.raises(EmptyWindowError):
        find_annihilators(small, 2, 2, 2)


def test_in_span():
    g = DiffOp.theta(1, 0) * DiffOp.theta(1, 0) - DiffOp.q_power(1, (1,))
    h = DiffOp.hbar(1)
    ops = [g, h * g]
    assert in_span(ops, g + (h * g).scale(Fraction(3, 2)))
    assert not in_span(ops, DiffOp.identity(1))
    assert not in_span([], DiffOp.identity(1))
    assert in_span([], DiffOp.zero(1))


# ---------------------------------------------------------------------------
# semiclassical limits


def test_semiclassical_projective_line(corpus):
    _fan, cm, ring, _gens = corpus["p1"]
    rel = semiclassical(gkz_operator(cm, (1,)))
    assert rel.terms == {((0,), (2,)): Fraction(1), ((1,), (0,)): Fraction(-1)}
    assert rel.at_q_zero() == {(2,): Fraction(1)}
    assert rel.classical_value(ring).is_zero()


def test_semiclassical_drops_hbar_terms(corpus):
    _fan, cm, _ring, _gens = corpus["p1"]
    op = gkz_operator(cm, (2,))
    rel = semiclassical(op)
    # theta^2(theta - hbar)^2 - q^2 loses the hbar cross terms
    assert rel.terms == {((0,), (4,)): Fraction(1), ((2,), (0,)): Fraction(-1)}
    assert semiclassical(DiffOp.hbar(1)).is_zero()


def test_semiclassical_hirzebruch(corpus):
    _fan, cm, ring, _gens = corpus["hirzebruch1"]
    rel = semiclassical(gkz_operator(cm, (1, 0)))
    assert rel.terms == {
        ((0, 0), (2, 0)): Fraction(1),
        ((1, 0), (1, 0)): Fraction(1),
        ((1, 0), (0, 1)): Fraction(-1),
    }
    assert rel.classical_value(ring).is_zero()
    assert rel.sorted_terms()[0] == (((0, 0), (2, 0)), Fraction(1))


def test_semiclassical_identity_not_a_relation(corpus):
    _fan, _cm, ring, _gens = corpus["p1"]
    rel = semiclassical(DiffOp.identity(1))
    assert not rel.is_zero()
    assert rel.classical_value(ring) == ring.one()


def test_quantum_relation_equality():
    a = QuantumRelation(1, {((0,), (2,)): Fraction(1)})
    b = QuantumRelation(1, {((0,), (2,)): Fraction(1), ((1,), (0,)): Fraction(0)})
    assert a == b
    assert hash(a) == hash(b)
