"""Exact cohomology rings: Betti numbers, intersection numbers, duality."""

import math
import random
from fractions import Fraction

import pytest

from qdm import (CohomClass, CohomRing, build_ring, charge_matrix, linalg, make_fan,
                 monomials)
from qdm.cohomology import mono_key

from conftest import (SHIPPED, reference_divide_linear, reference_inverse_linear_factor,
                      reference_linear_factor, reference_multiply,
                      reference_reduction_table, reference_times_linear)


def degree_part(cls, deg):
    return CohomClass(cls.ring, {m: c for m, c in cls.coeffs.items() if sum(m) == deg})


def test_monomials_sorted_x1_heavy_first():
    assert monomials(3, 0) == [(0, 0, 0)]
    assert monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials(3, 2)[0] == (2, 0, 0)
    assert monomials(3, 2)[-1] == (0, 0, 2)


def test_mono_key_is_graded():
    assert mono_key((0, 2)) > mono_key((1, 0))
    assert mono_key((2, 0)) < mono_key((1, 1))


def test_betti_numbers(shipped):
    expected = {
        "p1": (1, 1),
        "p2": (1, 1, 1),
        "p3": (1, 1, 1, 1),
        "p1xp1": (1, 2, 1),
        "hirzebruch1": (1, 2, 1),
        "dp2": (1, 3, 1),
        "p5": (1, 1, 1, 1, 1, 1),
        "p1x3": (1, 3, 3, 1),
    }
    for name, betti in expected.items():
        fan, _cm, ring, _cone = shipped[name]
        assert ring.dims == betti, name
        assert sum(ring.dims) == len(fan.max_cones), name


def test_projective_plane_basis_monomials(corpus):
    _fan, _cm, ring, _cone = corpus["p2"]
    assert ring.basis == ((0, 0, 0), (0, 0, 1), (0, 0, 2))


def test_fixed_points_integrate_to_one(corpus):
    for name, (fan, _cm, ring, _cone) in corpus.items():
        points = []
        for cone in fan.max_cones:
            cls = ring.one()
            for k in cone:
                cls = cls * ring.generator(k)
            assert ring.integrate(cls) == 1, (name, cone)
            points.append(cls)
        # every fixed point gives the same point class
        assert all(p == points[0] for p in points), name
        assert ring.integrate(ring.one()) == (1 if ring.top == 0 else 0), name


def test_linear_relations_vanish(corpus):
    for name, (fan, _cm, ring, _cone) in corpus.items():
        for nu in range(fan.dim):
            rel = ring.zero()
            for k in range(fan.n_rays):
                if fan.rays[k][nu]:
                    rel = rel + ring.generator(k).scale(fan.rays[k][nu])
            assert rel.is_zero(), (name, nu)


def test_stanley_reisner_products_vanish(corpus):
    nonfaces = {
        "p2": [(0, 1, 2)],
        "p1xp1": [(0, 1), (2, 3)],
        "hirzebruch1": [(0, 2), (1, 3)],
        "dp2": [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)],
    }
    for name, faces in nonfaces.items():
        _fan, _cm, ring, _cone = corpus[name]
        for face in faces:
            cls = ring.one()
            for k in face:
                cls = cls * ring.generator(k)
            assert cls.is_zero(), (name, face)


def test_hirzebruch_self_intersections(corpus):
    _fan, _cm, ring, _cone = corpus["hirzebruch1"]
    squares = [ring.integrate(ring.generator(k) * ring.generator(k))
               for k in range(4)]
    assert squares == [0, -1, 0, 1]


def test_del_pezzo_self_intersections(corpus):
    _fan, _cm, ring, _cone = corpus["dp2"]
    squares = [ring.integrate(ring.generator(k) * ring.generator(k))
               for k in range(5)]
    assert squares == [0, -1, -1, -1, 0]


def test_anticanonical_degrees(shipped):
    # P^5: 6^5; (P^1)^3: 3! * 2^3
    expected = {"p1": 2, "p2": 9, "p3": 64, "p1xp1": 8,
                "hirzebruch1": 8, "dp2": 7, "p5": 7776, "p1x3": 48}
    for name, degree in expected.items():
        _fan, _cm, ring, _cone = shipped[name]
        c1 = ring.zero()
        for k in range(ring.n):
            c1 = c1 + ring.generator(k)
        power = ring.one()
        for _ in range(ring.top):
            power = power * c1
        assert ring.integrate(power) == degree, name


def test_ray_classes_expand_in_nef_basis(corpus):
    for name, (_fan, cm, ring, _cone) in corpus.items():
        for k in range(cm.n):
            combo = ring.zero()
            for j in range(cm.l):
                if cm.m[j][k]:
                    combo = combo + ring.omega_class(j).scale(cm.m[j][k])
            assert combo == ring.generator(k), (name, k)


def test_mori_generators_have_nonnegative_coordinates(corpus):
    # the coordinates of a curve class are its pairings with the nef basis
    for name, (_fan, cm, _ring, cone) in corpus.items():
        for g in cone.generators:
            assert all(x >= 0 for x in g), (name, g)


def test_dual_basis_pairing(corpus):
    for name, (_fan, _cm, ring, _cone) in corpus.items():
        t, duals = ring.dual_basis()
        assert len(t) == len(duals) == sum(ring.dims)
        for i, ti in enumerate(t):
            for j, dj in enumerate(duals):
                want = Fraction(1 if i == j else 0)
                assert ring.integrate(ti * dj) == want, (name, i, j)


def test_ring_axioms_on_random_classes(corpus):
    rng = random.Random(19)
    for name in ("p1xp1", "dp2"):
        _fan, _cm, ring, _cone = corpus[name]

        def rand_class():
            out = ring.zero()
            for _ in range(3):
                term = ring.one()
                for _ in range(rng.randrange(3)):
                    term = term * ring.generator(rng.randrange(ring.n))
                out = out + term.scale(rng.randrange(-4, 5))
            return out

        for _ in range(8):
            a, b, c = rand_class(), rand_class(), rand_class()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert degree_part(a + b, 1) == degree_part(a, 1) + degree_part(b, 1)


def test_degree_part_and_max_degree(corpus):
    _fan, _cm, ring, _cone = corpus["p2"]
    h = ring.generator(0)
    mixed = ring.one() + h + (h * h).scale(5)
    assert max(sum(m) for m in mixed.coeffs) == 2
    assert degree_part(mixed, 2) == (h * h).scale(5)
    assert not ring.zero().coeffs


def test_multiplication_truncates_above_top(corpus):
    _fan, _cm, ring, _cone = corpus["p1"]
    h = ring.generator(0)
    assert (h * h).is_zero()


def test_mismatched_charge_matrix_rejected(corpus):
    fan_p2 = corpus["p2"][0]
    cm_p1 = corpus["p1"][1]
    with pytest.raises(ValueError, match="does not match"):
        CohomRing(fan_p2, cm_p1)
    # F1 has as many rays as P1xP1, but its charge matrix rows are not
    # relations among the rays of P1xP1
    with pytest.raises(ValueError, match="not relations among the rays"):
        build_ring(corpus["p1xp1"][0], corpus["hirzebruch1"][1])


def test_cross_ring_arithmetic_rejected(corpus):
    ring_a = corpus["p2"][2]
    ring_b = corpus["p3"][2]
    with pytest.raises(TypeError):
        ring_a.generator(0) * ring_b.generator(0)
    with pytest.raises(TypeError):
        ring_a.generator(0) + ring_b.generator(0)


def test_build_ring_function(corpus):
    fan, cm, ring, _cone = corpus["p1"]
    fresh = build_ring(fan, cm)
    assert fresh.dims == ring.dims
    assert fresh.basis == ring.basis


# ---------------------------------------------------------------------------
# the presentation on the free variables against the reduction over all n


@pytest.mark.parametrize("name", SHIPPED)
def test_free_variable_ring_matches_the_reference_reduction(shipped, name):
    # same graded basis, and every n-variable monomial of degree <= dim + 1
    # reduces to the product of its ray divisor classes
    fan, _cm, ring, _cone = shipped[name]
    table, basis_by_degree = reference_reduction_table(fan)
    assert ring.basis_by_degree == basis_by_degree, name
    for mono, reduced in table.items():
        product = ring.one()
        for k, e in enumerate(mono):
            for _ in range(e):
                product = product * ring.generator(k)
        assert product == CohomClass(ring, reduced), (name, mono)


@pytest.mark.parametrize("name", SHIPPED)
def test_reduction_table_holds_only_free_monomials(shipped, name):
    # the rref pivots of the ray matrix lead the linear relations; the table
    # has every monomial of degree <= dim + 1 in the l others, and no more
    fan, cm, ring, _cone = shipped[name]
    _red, lead = linalg.rref([[ray[nu] for ray in fan.rays] for nu in range(fan.dim)],
                             fan.n_rays)
    assert len(lead) == fan.dim, name
    assert not [m for m in ring._table if any(m[p] for p in lead)], name
    assert len(ring._table) == math.comb(cm.l + fan.dim + 1, cm.l), name


# ---------------------------------------------------------------------------
# multiplication by degree-one classes through cached matrices


def random_class(ring, rng):
    return CohomClass(ring, {m: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                             for m in ring.basis if rng.random() < 0.7})


@pytest.mark.parametrize("name", SHIPPED)
def test_linear_factors_match_the_reference_products(shipped, name):
    # (lin + nu) * cls and its inverse, for every ray divisor and nef class,
    # equal the products of full classes through CohomRing.multiply, with
    # the inverse expanded as the terminating series
    _fan, _cm, ring, _cone = shipped[name]
    rng = random.Random("linear " + name)
    lins = ([ring.generator(k) for k in range(ring.n)]
            + [ring.omega_class(j) for j in range(ring.l)])
    for i, lin in enumerate(lins):
        for nu in range(-3, 4):
            for cls in (ring.one(), random_class(ring, rng), random_class(ring, rng)):
                prod = ring.times_linear(cls, lin, nu)
                want = cls * reference_linear_factor(ring, lin, nu)
                assert prod.coeffs == want.coeffs, (name, i, nu)
                assert all(type(c) is Fraction for c in prod.coeffs.values())
                if nu == 0:
                    with pytest.raises(ValueError, match="vanishing hbar part"):
                        ring.divide_linear(cls, lin, nu)
                    continue
                quot = ring.divide_linear(cls, lin, nu)
                want = cls * reference_inverse_linear_factor(ring, lin, nu)
                assert quot.coeffs == want.coeffs, (name, i, nu)
                assert all(type(c) is Fraction for c in quot.coeffs.values())
                assert ring.divide_linear(prod, lin, nu) == cls, (name, i, nu)


def test_linear_factors_need_a_degree_one_class(corpus):
    _fan, _cm, ring, _cone = corpus["p2"]
    h = ring.generator(0)
    for lin in (ring.one(), h * h, h + ring.one()):
        with pytest.raises(ValueError, match="degree-one class"):
            ring.times_linear(h, lin, 1)
        with pytest.raises(ValueError, match="degree-one class"):
            ring.divide_linear(h, lin, 1)


def test_equal_linear_classes_share_one_matrix():
    # the multiplication matrices are cached per class value, not per
    # object: an equal class built apart finds the entry the first made
    fan = make_fan([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0]])
    ring = build_ring(fan, charge_matrix(fan))
    h = ring.generator(0)
    copy = CohomClass(ring, {m: 2 * c for m, c in h.num.items()}, 2 * h.den)
    assert copy is not h and copy == h and hash(copy) == hash(h)
    assert copy != h * 2
    before = len(ring._linear_cache)
    assert ring.times_linear(ring.one(), h, 3) == ring.times_linear(ring.one(), copy, 3)
    assert ring._linear(copy) is ring._linear(h)
    assert len(ring._linear_cache) == before + 1


# ---------------------------------------------------------------------------
# integer numerators over one denominator against the Fraction kernels


NUS = (1, -1, 3, -4, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3), Fraction(-7, 4))


def check_kernels_against_the_reference(fan, ring, name):
    # multiply, times_linear and divide_linear against the Fraction bodies
    # they replaced, on seeded classes with non-integral coefficients and
    # for negative and non-integral nu
    table, _basis = reference_reduction_table(fan)
    rng = random.Random("kernels " + name)
    lins = ([ring.generator(k) for k in range(ring.n)]
            + [ring.omega_class(j) for j in range(ring.l)]
            + [ring.generator(0).scale(Fraction(2, 3))
               - ring.omega_class(0).scale(Fraction(5, 2))])
    classes = [ring.one()] + [random_class(ring, rng) for _ in range(4)]
    for a in classes:
        for b in classes:
            assert (a * b).coeffs == reference_multiply(table, ring.top, a, b), name
    for i, lin in enumerate(lins):
        for nu in NUS:
            cls = rng.choice(classes)
            prod = ring.times_linear(cls, lin, nu)
            want = reference_times_linear(table, ring.basis, cls, lin, nu)
            assert prod.coeffs == want, (name, i, nu)
            quot = ring.divide_linear(cls, lin, nu)
            want = reference_divide_linear(table, ring.basis, cls, lin, nu)
            assert quot.coeffs == want, (name, i, nu)
            assert ring.divide_linear(prod, lin, nu) == cls, (name, i, nu)


@pytest.mark.parametrize("name", SHIPPED)
def test_kernels_match_the_fraction_reference(shipped, name):
    fan, _cm, ring, _cone = shipped[name]
    check_kernels_against_the_reference(fan, ring, name)


@pytest.mark.parametrize("a", [2, 3])
def test_kernels_match_the_fraction_reference_off_unit_pivots(a):
    # the Hirzebruch surface F_a in this ray order reduces with pivot
    # entries a, so the reduction table has a denominator other than 1
    fan = make_fan([[1, 0], [0, 1], [-1, a], [0, -1]], [[0, 1], [1, 2], [2, 3], [3, 0]])
    ring = build_ring(fan, charge_matrix(fan))
    assert ring._den == a
    check_kernels_against_the_reference(fan, ring, "F%d" % a)


def assert_canonical(cls):
    assert cls.den > 0
    assert math.gcd(cls.den, *cls.num.values()) == 1
    assert all(type(c) is int and c for c in cls.num.values())
    assert all(type(c) is Fraction for c in cls.coeffs.values())


@pytest.mark.parametrize("name", ["p2", "hirzebruch1", "dp3"])
def test_classes_are_in_lowest_terms(shipped, name):
    _fan, _cm, ring, _cone = shipped[name]
    rng = random.Random("canonical " + name)
    zero = ring.zero()
    assert (zero.num, zero.den) == ({}, 1)
    cancelled = CohomClass(ring, {ring.basis[-1]: 0}, -6)
    assert (cancelled.num, cancelled.den) == ({}, 1)
    for _ in range(6):
        a, b = random_class(ring, rng), random_class(ring, rng)
        results = [a, a + b, a - a, a * b, a.scale(Fraction(-4, 9)), -b,
                   ring.times_linear(a, ring.generator(0), Fraction(-3, 2)),
                   ring.divide_linear(b, ring.omega_class(0), -2),
                   ring.combination([(Fraction(2, 3), a), (-6, b)])]
        for cls in results:
            assert_canonical(cls)
        assert (a - a) == zero and (a - a).is_zero()
        # the same class from scaled numerators and a negative denominator
        same = CohomClass(ring, {m: -6 * c for m, c in a.num.items()}, -6 * a.den)
        assert same == a and hash(same) == hash(a)
        assert CohomClass(ring, a.coeffs) == a
        assert a.coeffs == {m: Fraction(c, a.den) for m, c in a.num.items()}
        assert ring.combination([(Fraction(2, 3), a), (-6, b)]) == (
            a.scale(Fraction(2, 3)) + b.scale(-6))
