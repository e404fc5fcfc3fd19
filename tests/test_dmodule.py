"""Normal-ordered difference-differential operators and annihilator search."""

import random
from fractions import Fraction
from math import comb

import pytest

from qdm import (
    DiffOp,
    EmptyWindowError,
    QuantumRelation,
    Series,
    apply,
    build_f,
    component,
    find_annihilators,
    gkz_operator,
    semiclassical,
)
from qdm import linalg
from qdm.cohomology import mono_key, monomials
from qdm.dmodule import _ansatz_key, _theta_images
from qdm.serialize import laurent_json

from conftest import SHIPPED, reference_theta_values, spans


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
    assert op.terms == {(1,): {(2,): Fraction(1), (1,): Fraction(2), (0,): Fraction(1)}}
    assert op.support_triples() == [((1,), (0,), 2), ((1,), (1,), 1), ((1,), (2,), 0)]


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
                terms.setdefault(e, {})[t] = Fraction(c)
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


def test_operator_accessors(corpus):
    cm = corpus["p1xp1"][1]
    t = DiffOp.theta(cm, 1)
    q = DiffOp.q_power(cm, (1, 1))
    h = DiffOp.hbar(cm)
    op = h * h * t * t + q.scale(-2)  # weight 4 = c1((1, 1))
    assert op.weight == 4
    assert op.hbar_power((0, 0), (0, 2)) == 2
    assert op.coefficient((0, 0), (0, 2), 2) == 1
    assert op.coefficient((0, 0), (0, 2), 0) == 0
    assert op.coefficient((1, 1), (0, 0), 0) == -2
    assert op.coefficient((1, 1), (1, 0), 0) == 0
    assert op.support_triples() == [((0, 0), (0, 2), 2), ((1, 1), (0, 0), 0)]


def test_negative_q_exponent_rejected(corpus):
    cm = corpus["p1"][1]
    with pytest.raises(ValueError, match="nonnegative"):
        DiffOp(cm, 0, {(-1,): {(0,): Fraction(1)}})


def test_operators_are_homogeneous(corpus):
    # theta has weight 1: at weight 0 it would carry hbar^-1
    cm = corpus["p1"][1]
    with pytest.raises(ValueError, match="negative power of hbar"):
        DiffOp(cm, 0, {(0,): {(1,): Fraction(1)}})
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
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 4)
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
    _fan, cm, ring, gens = corpus["p1"]
    other = corpus["p1xp1"][1]
    series = build_f(ring, cm, gens, 4)
    for op in (DiffOp.q_power(other, (1, 1)), DiffOp.theta(other, 1)):
        with pytest.raises(ValueError, match="different charge matrices"):
            apply(op, series)


def test_apply_is_linear(corpus):
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 6)
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
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 4)
    out = apply(DiffOp.theta(cm, 0) - DiffOp.hbar(cm), series)
    assert out.weight == 1
    omega = ring.omega_class(0)
    for d in out.degrees:
        r_d = series.coefficients[d]
        assert out.coefficients[d] == ring.times_linear(r_d, omega, d[0] - 1), d
    assert not out.is_zero()


def test_apply_composition_matches_nesting(corpus):
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 6)
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
    _fan, cm, ring, gens = corpus["p2"]
    series = build_f(ring, cm, gens, 6)
    shifted = apply(DiffOp.hbar(cm), series)
    assert shifted.weight == 1
    for beta in range(len(ring.basis)):
        want = {d: {(t, h + 1): c for (t, h), c in entry.items()}
                for d, entry in component(series, beta, 2).items()}
        assert component(shifted, beta, 2) == want, beta


def test_apply_window_shrinks_with_q_support(corpus):
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 4)
    out = apply(DiffOp.q_power(cm, (1,)), series)
    assert out.bound == 2
    assert out.degrees == ((0,), (1,))
    with pytest.raises(EmptyWindowError):
        apply(DiffOp.q_power(cm, (3,)), series)


def test_apply_keeps_zero_coefficients(corpus):
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 6)
    out = apply(gkz_operator(cm, (1,)), series)
    assert out.is_zero()
    assert out.degrees == ((0,), (1,), (2,))
    for d in out.degrees:
        assert out.coefficients[d] == ring.zero()


@pytest.mark.parametrize("name", SHIPPED)
def test_apply_theta_matches_the_reference_values(shipped, name):
    # q^e theta^t applied to the series, and to a once-applied series of
    # weight 1, gives value(d - e, t) * (source at d - e) with
    # value(d, t) = prod_j (omega_j + d_j)^t_j built from full class products
    _fan, cm, ring, gens = shipped[name]
    l = cm.l
    series = build_f(ring, cm, gens, 2 * max(cm.c1_degree(g) for g in gens),
                     allow_general_sign=True)
    value = reference_theta_values(ring, l)
    once = apply(DiffOp.theta(cm, 0), series)
    for target in (series, once):
        for e in ((0,) * l, gens[0]):
            for t in [t for total in range(3) for t in monomials(l, total)]:
                weight = cm.c1_degree(e) + sum(t)
                out = apply(DiffOp(cm, weight, {e: {t: Fraction(1)}}), target)
                assert out.weight == target.weight + weight
                for d in out.degrees:
                    dp = tuple(a - b for a, b in zip(d, e))
                    want = ring.zero()
                    if dp in target.coefficients:
                        want = value(dp, t) * target.coefficients[dp]
                    assert out.coefficients[d] == want, (name, e, t, d)


def test_theta_memo_is_shared_per_series(corpus, monkeypatch):
    _fan, cm, ring, gens = corpus["p1xp1"]
    series = build_f(ring, cm, gens, 6)
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
        out = apply(theta, Series(ring, cm, series.bound, series.degrees, {
            d: r.scale(k) for d, r in series.coefficients.items()}, 0))
        for d, cls in want.items():
            assert out.coefficients[d] == cls.scale(k), k


# ---------------------------------------------------------------------------
# box operators


def test_gkz_projective_spaces(corpus):
    for name, power in (("p1", 2), ("p2", 3), ("p3", 4)):
        _fan, cm, _ring, _gens = corpus[name]
        op = gkz_operator(cm, (1,))
        assert op.weight == power, name
        assert op.terms == {
            (0,): {(power,): Fraction(1)},
            (1,): {(0,): Fraction(-1)},
        }, name


def test_gkz_with_multiplicity(corpus):
    # degree 2 on the line: theta(theta - hbar) from each of the two rays
    _fan, cm, _ring, _gens = corpus["p1"]
    op = gkz_operator(cm, (2,))
    assert op.weight == 4
    assert op.terms == {
        (0,): {(4,): Fraction(1), (3,): Fraction(-2), (2,): Fraction(1)},
        (2,): {(0,): Fraction(-1)},
    }
    assert op.support_triples() == [((0,), (2,), 2), ((0,), (3,), 1),
                                     ((0,), (4,), 0), ((2,), (0,), 0)]


def test_gkz_hirzebruch(corpus):
    _fan, cm, _ring, _gens = corpus["hirzebruch1"]
    section = gkz_operator(cm, (1, 0))
    assert section.weight == 2
    assert section.terms == {
        (0, 0): {(2, 0): Fraction(1)},
        (1, 0): {(1, 0): Fraction(1), (0, 1): Fraction(-1)},
    }
    fiber = gkz_operator(cm, (0, 1))
    assert fiber.weight == 2
    assert fiber.terms == {
        (0, 0): {(0, 2): Fraction(1), (1, 1): Fraction(-1)},
        (0, 1): {(0, 0): Fraction(-1)},
    }


def test_gkz_rejects_negative_coordinates(corpus):
    _fan, cm, _ring, _gens = corpus["hirzebruch1"]
    with pytest.raises(ValueError, match="negative coordinate"):
        gkz_operator(cm, (1, -1))


def test_gkz_rejects_the_zero_degree(corpus):
    # its box operator is 1 - q^0 = 0, which annihilates everything
    _fan, cm, _ring, _gens = corpus["hirzebruch1"]
    with pytest.raises(ValueError, match="zero degree"):
        gkz_operator(cm, (0, 0))


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
    ops = find_annihilators(series, theta_order=2, q_degree=1)
    assert ops == [gkz_operator(cm, (1,))]


def test_find_annihilators_stable_under_more_data(corpus):
    _fan, cm, ring, gens = corpus["p1"]
    small = build_f(ring, cm, gens, 8)
    large = build_f(ring, cm, gens, 12)
    bounds = dict(theta_order=2, q_degree=1)
    ops = find_annihilators(small, **bounds)
    assert ops == find_annihilators(large, **bounds)
    # operators found at the small truncation still kill the larger one
    for op in ops:
        assert apply(op, large).is_zero()


def test_find_annihilators_product(corpus):
    _fan, cm, ring, gens = corpus["p1xp1"]
    series = build_f(ring, cm, gens, 8)
    ops = find_annihilators(series, theta_order=2, q_degree=1)
    assert ops
    for op in ops:
        assert apply(op, series).is_zero()
    assert spans(ops, [gkz_operator(cm, (1, 0)), gkz_operator(cm, (0, 1))])


def test_find_annihilators_empty_cases(corpus):
    _fan, cm, ring, gens = corpus["p1"]
    series = build_f(ring, cm, gens, 8)
    assert find_annihilators(series, 0, 0) == []
    with pytest.raises(ValueError, match="nonnegative"):
        find_annihilators(series, -1, 1)
    small = build_f(ring, cm, gens, 2)
    with pytest.raises(EmptyWindowError):
        find_annihilators(small, 2, 2)


def reference_find_annihilators(series, theta_order, q_degree, hbar_order):
    """The search as one global matrix, kept as the oracle: rows are
    (degree, hbar exponent, monomial), every column (e, t, h) repeats the
    evaluation of q^e theta^t, and the whole nullspace is reduced at once."""
    if min(theta_order, q_degree, hbar_order) < 0:
        raise ValueError("ansatz bounds must be nonnegative")
    cm = series.cm
    ring = series.ring
    l = cm.l
    q_exps = [e for tot in range(q_degree + 1) for e in monomials(l, tot)]
    q_exps.sort(key=lambda e: (sum(e), e))
    t_exps = [t for tot in range(theta_order + 1) for t in monomials(l, tot)]
    t_exps.sort(key=lambda t: (sum(t), t))
    columns = [(e, t, h) for e in q_exps for t in t_exps
               for h in range(hbar_order + 1)]
    columns.sort(key=lambda c: _ansatz_key(*c))
    cap = series.bound - max(cm.c1_degree(e) for e in q_exps)
    if cap < 0:
        raise EmptyWindowError("q_degree %d exceeds the series truncation window"
                               % q_degree)
    out_degrees = set()
    for d in series.degrees:
        for e in q_exps:
            dd = tuple(a + b for a, b in zip(d, e))
            if cm.c1_degree(dd) <= cap:
                out_degrees.add(dd)
    valid = sorted(out_degrees, key=lambda d: (cm.c1_degree(d), d))
    image = _theta_images(ring, l, series.coefficients)

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
            for mono, c in image(dp, t).coeffs.items():
                vec[d, shift - sum(mono), mono] = c
        col_vectors.append(vec)
        row_keys.update(vec)
    rows = sorted(row_keys,
                  key=lambda k: (cm.c1_degree(k[0]), k[0], k[1], mono_key(k[2])))
    matrix = [[vec.get(rk, Fraction(0)) for vec in col_vectors] for rk in rows]
    null = linalg.nullspace(matrix, len(columns))
    if not null:
        return []
    reduced, _ = linalg.rref([list(v) for v in null], len(columns))
    ops = []
    for vec in reduced:
        terms = {}
        weights = set()
        for (e, t, h), c in zip(columns, vec):
            if c:
                terms.setdefault(e, {})[t] = c
                weights.add(cm.c1_degree(e) + sum(t) + h)
        assert len(weights) == 1, weights  # every reduced row is homogeneous
        ops.append(DiffOp(cm, weights.pop(), terms))
    return ops


# (theta_order, q_degree, hbar_order); None is dim + 1, the CLI default.
# hbar_order bounds only the reference search.
SEARCH_BOUNDS = [(2, 1, 2), (3, 0, 1), (1, 2, 0), (2, 1, 0), (None, 1, 1)]


def hbar_times(op, k):
    """hbar^k op: the same terms at hbar = 1, k weights higher."""
    return DiffOp(op.cm, op.weight + k, op.terms)


@pytest.mark.parametrize("name", SHIPPED)
def test_generators_span_the_reference_search(shipped, name):
    # the window leaves room for the Mori generators beyond the q-support
    _fan, cm, ring, gens = shipped[name]
    l = cm.l
    for theta_order, q_degree, hbar_order in SEARCH_BOUNDS:
        if theta_order is None:
            theta_order = ring.top + 1
        top = max(cm.c1_degree(e) for tot in range(q_degree + 1)
                  for e in monomials(l, tot))
        bound = top + max(cm.c1_degree(g) for g in gens)
        series = build_f(ring, cm, gens, bound, allow_general_sign=True)
        where = (name, theta_order, q_degree, hbar_order)
        found = []  # (weight, generator)
        for g in find_annihilators(series, theta_order, q_degree):
            # no generator is an hbar-multiple
            assert min(h for _, _, h in g.support_triples()) == 0, (where, g)
            found.append((g.weight, g))
        reference = [(r.weight, r) for r in
                     reference_find_annihilators(series, theta_order, q_degree, hbar_order)]
        for w in {w for w, _ in found + reference}:
            # (a) every reference operator is a Q[hbar]-combination of generators
            lifted = [hbar_times(g, w - wg) for wg, g in found if wg <= w]
            assert spans(lifted, [r for wr, r in reference if wr == w]), (where, w)
            # (b) every generator within the reference's hbar bound is found there
            within = [g for wg, g in found if wg == w
                      and max(h for _, _, h in g.support_triples()) <= hbar_order]
            assert spans([r for wr, r in reference if wr == w], within), (where, w)


def test_search_solves_the_hbar_free_ansatz_once(corpus, monkeypatch):
    _fan, cm, ring, gens = corpus["dp2"]
    series = build_f(ring, cm, gens, 6, allow_general_sign=True)
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


def test_in_span(corpus):
    cm = corpus["p1"][1]
    theta, h = DiffOp.theta(cm, 0), DiffOp.hbar(cm)
    g = theta * theta - DiffOp.q_power(cm, (1,))
    ops = [h * g, theta * g]
    assert spans(ops, [h * g + (theta * g).scale(Fraction(3, 2))])
    assert not spans(ops, [g])
    assert not spans([], [DiffOp.identity(cm)])
    assert spans([], [DiffOp.zero(cm)])


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
    assert semiclassical(DiffOp.hbar(cm)).is_zero()


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
    _fan, cm, ring, _gens = corpus["p1"]
    rel = semiclassical(DiffOp.identity(cm))
    assert not rel.is_zero()
    assert rel.classical_value(ring) == ring.one()


def test_quantum_relation_equality():
    a = QuantumRelation(1, {((0,), (2,)): Fraction(1)})
    b = QuantumRelation(1, {((0,), (2,)): Fraction(1), ((1,), (0,)): Fraction(0)})
    assert a == b
    assert hash(a) == hash(b)
