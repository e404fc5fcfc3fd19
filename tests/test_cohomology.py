"""Exact cohomology rings: Betti numbers, intersection numbers, duality."""

import math
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement
from operator import mul

import pytest

from qdm import (ChargeMatrix, CohomClass, CohomRing, build_ring, charge_matrix, linalg,
                 make_fan, monomials)
from qdm.cohomology import _monomials_in, add_exponents, mono_key
from qdm.toric import FanError

from conftest import (SHIPPED, coeffs, integrate, load_fan, product_fan,
                      reference_divide_linear, reference_dual_basis,
                      reference_inverse_linear_factor, reference_linear_factor,
                      reference_localized_integral,
                      reference_multiply, reference_reduction_table,
                      reference_times_linear)


def degree_part(cls, deg):
    return CohomClass(cls.ring, {m: c for m, c in cls.num.items() if sum(m) == deg}, cls.den)


def test_monomials_sorted_x1_heavy_first():
    assert monomials(3, 0) == [(0, 0, 0)]
    assert monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials(3, 2)[0] == (2, 0, 0)
    assert monomials(3, 2)[-1] == (0, 0, 2)


def test_monomials_in_match_the_sorted_counts():
    # _monomials_in builds mono_key order directly; the oracle counts the
    # exponents of every multiset of the variables and sorts
    for n in range(1, 7):
        for degree in range(5):
            for size in range(n + 1):
                for variables in combinations(range(n), size):
                    want = sorted((tuple(combo.count(i) for i in range(n)) for combo
                                   in combinations_with_replacement(variables, degree)),
                                  key=mono_key)
                    assert _monomials_in(n, variables, degree) == want, (n, variables)


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
            assert integrate(ring, cls) == 1, (name, cone)
            points.append(cls)
        # every fixed point gives the same point class
        assert all(p == points[0] for p in points), name
        assert integrate(ring, ring.one()) == (1 if ring.top == 0 else 0), name


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
    squares = [integrate(ring, ring.generator(k) * ring.generator(k))
               for k in range(4)]
    assert squares == [0, -1, 0, 1]


def test_del_pezzo_self_intersections(corpus):
    _fan, _cm, ring, _cone = corpus["dp2"]
    squares = [integrate(ring, ring.generator(k) * ring.generator(k))
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
        assert integrate(ring, power) == degree, name


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
                assert integrate(ring, ti * dj) == want, (name, i, j)


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
    assert max(sum(m) for m in coeffs(mixed)) == 2
    assert degree_part(mixed, 2) == (h * h).scale(5)
    assert not coeffs(ring.zero())


def test_multiplication_truncates_above_top(corpus):
    _fan, _cm, ring, _cone = corpus["p1"]
    h = ring.generator(0)
    assert (h * h).is_zero()


@pytest.mark.parametrize("bad", [(0, 1), (2, 3)])
def test_point_normalization_reads_every_cone(corpus, bad):
    # every maximal cone's product is checked: a listed "cone" whose rays
    # meet in no point is caught wherever it is listed
    fan, cm = corpus["p1xp1"][:2]
    cones = tuple(c for c in fan.max_cones if c != (0, 3)) + (bad,)
    with pytest.raises(FanError, match="inconsistent point normalization"):
        CohomRing(fan._replace(max_cones=cones), cm)


def test_omega_classes_need_independent_rows():
    # rows that are relations among the rays, but twice the same one
    ring = CohomRing(load_fan("p2"), ChargeMatrix(((1, 1, 1), (1, 1, 1))))
    with pytest.raises(ValueError, match="charge matrix rows are not independent"):
        ring.omega_class(0)


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
        assert product == ring.combination(
            (c, ring.monomial_class(m)) for m, c in reduced.items()), (name, mono)


@pytest.mark.parametrize("name", SHIPPED)
def test_reduction_table_holds_only_free_monomials(shipped, name):
    # the rref pivots of the ray matrix lead the linear relations; the table
    # has every monomial of degree <= dim in the l others, and no more
    fan, cm, ring, _cone = shipped[name]
    _red, lead = linalg.rref([[ray[nu] for ray in fan.rays] for nu in range(fan.dim)],
                             fan.n_rays)
    assert len(lead) == fan.dim, name
    assert not [m for m in ring._table if any(m[p] for p in lead)], name
    assert len(ring._table) == math.comb(cm.l + fan.dim, cm.l), name


@pytest.mark.parametrize("name", SHIPPED + ["p1^6"])
def test_reduction_table_rows_are_over_the_ring_denominator(shipped, name):
    # each free monomial's row is ((basis monomial, int), ...) over ring._den,
    # checked against the reduction over all n variables; on (P^1)^6 a free
    # monomial reduces to itself when squarefree and to zero otherwise.
    # The product of two basis monomials is the row of their product, which
    # the table holds up to the top degree; above it the product is missing
    # from the table and _pair reads it as zero.
    if name == "p1^6":
        ring = _fresh_ring(product_fan(*["p1"] * 6))
        reduced = lambda m: {m: 1} if max(m) <= 1 else {}
    else:
        fan, _cm, ring, _cone = shipped[name]
        reduced = reference_reduction_table(fan)[0].__getitem__
    basis = set(ring.basis)
    for m, row in ring._table.items():
        assert type(row) is tuple, (name, m)
        assert all(mb in basis and sum(mb) == sum(m) and type(r) is int and r
                   for mb, r in row), (name, m)
        assert {mb: Fraction(r, ring._den) for mb, r in row} == reduced(m), (name, m)
    for a in ring.basis:
        for b in ring.basis:
            prod = add_exponents(a, b)
            if sum(prod) > ring.top:
                assert ring._pair(a, b) == () and prod not in ring._table, (name, a, b)
            else:
                assert ring._pair(a, b) == ring._table[prod], (name, a, b)


# ---------------------------------------------------------------------------
# multiplication by degree-one classes through cached matrices


def random_class(ring, rng):
    return ring.combination((Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                             ring.monomial_class(m))
                            for m in ring.basis if rng.random() < 0.7)


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
                assert coeffs(prod) == coeffs(want), (name, i, nu)
                assert_canonical(prod)
                if nu == 0:
                    with pytest.raises(ValueError, match="vanishing hbar part"):
                        ring.divide_linear(cls, lin, nu)
                    continue
                quot = ring.divide_linear(cls, lin, nu)
                want = cls * reference_inverse_linear_factor(ring, lin, nu)
                assert coeffs(quot) == coeffs(want), (name, i, nu)
                assert_canonical(quot)
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
            assert coeffs(a * b) == reference_multiply(table, ring.top, a, b), name
    for i, lin in enumerate(lins):
        for nu in NUS:
            cls = rng.choice(classes)
            prod = ring.times_linear(cls, lin, nu)
            want = reference_times_linear(table, ring.basis, cls, lin, nu)
            assert coeffs(prod) == want, (name, i, nu)
            quot = ring.divide_linear(cls, lin, nu)
            want = reference_divide_linear(table, ring.basis, cls, lin, nu)
            assert coeffs(quot) == want, (name, i, nu)
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
        assert ring.combination([(Fraction(2, 3), a), (-6, b)]) == (
            a.scale(Fraction(2, 3)) + b.scale(-6))


# ---------------------------------------------------------------------------
# the Poincare pairing, one block per degree


def _fresh_ring(fan):
    return build_ring(fan, charge_matrix(fan))


@pytest.mark.parametrize("name", SHIPPED)
def test_pairing_blocks_are_the_integrals_of_basis_products(shipped, name):
    _fan, _cm, ring, _cone = shipped[name]
    for deg in range(ring.top + 1):
        rows, den = ring.pairing(deg)
        assert den > 0 and isinstance(den, int), (name, deg)
        assert all(isinstance(r, int) for row in rows for r in row), (name, deg)
        assert [[Fraction(r, den) for r in row] for row in rows] == [
            [integrate(ring, ring.monomial_class(a) * ring.monomial_class(b))
             for b in ring.basis_by_degree[ring.top - deg]]
            for a in ring.basis_by_degree[deg]], (name, deg)
        assert ring.pairing(deg) == ring.pairing(deg)
        # Poincare duality: the block of the complementary degree is the transpose
        other, oden = ring.pairing(ring.top - deg)
        assert [[Fraction(r, oden) for r in row] for row in zip(*other)] == [
            [Fraction(r, den) for r in row] for row in rows], (name, deg)


def _generic_point(fan, seed):
    # a seeded rational point; localization refuses one on a weight's kernel
    rng = random.Random("%d:%r" % (seed, fan.rays))
    return [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999)) for _ in range(fan.dim)]


@pytest.mark.parametrize("name", SHIPPED + ["p1^6"])
def test_pairing_blocks_match_fixed_point_localization(shipped, name):
    if name == "p1^6":
        fan = product_fan(*["p1"] * 6)
        ring = _fresh_ring(fan)
    else:
        fan, _cm, ring, _cone = shipped[name]
    lam = _generic_point(fan, 1)
    for deg in range(ring.top + 1):
        rows, den = ring.pairing(deg)
        assert [[Fraction(r, den) for r in row] for row in rows] == [
            [reference_localized_integral(fan, add_exponents(a, b), lam)
             for b in ring.basis_by_degree[ring.top - deg]]
            for a in ring.basis_by_degree[deg]], (name, deg)


@pytest.mark.parametrize("name", SHIPPED)
def test_top_monomials_integrate_as_fixed_point_localization(shipped, name):
    # every monomial of top degree in the ray divisors, not only the basis
    # products, and at a second point lam: the sum does not depend on it
    fan, _cm, ring, _cone = shipped[name]
    lam = _generic_point(fan, 2)
    for ks in combinations_with_replacement(range(ring.n), ring.top):
        exps = [ks.count(k) for k in range(ring.n)]
        cls = reduce(mul, [ring.generator(k) for k in ks])
        assert integrate(ring, cls) == reference_localized_integral(fan, exps, lam), (name, ks)


@pytest.mark.parametrize("name", SHIPPED)
def test_dual_basis_matches_the_gram_inversion(shipped, name):
    _fan, _cm, ring, _cone = shipped[name]
    assert ring.dual_basis() == reference_dual_basis(ring), name


def test_dual_basis_matches_the_gram_inversion_on_products():
    # (P1)^5: chi = 32, pairing blocks of sizes 1, 5, 10, 10, 5, 1
    ring = _fresh_ring(product_fan(*["p1"] * 5))
    assert [len(ring.pairing(deg)[0]) for deg in range(6)] == [1, 5, 10, 10, 5, 1]
    assert ring.dual_basis() == reference_dual_basis(ring)
    # F1 x P1: blocks 1,2 and 2,1 are not symmetric matrices, so a dual
    # basis read off the transposed inverse fails here
    ring = _fresh_ring(product_fan("hirzebruch1", "p1"))
    rows = ring.pairing(1)[0]
    assert [list(r) for r in rows] != [list(c) for c in zip(*rows)]
    assert ring.dual_basis() == reference_dual_basis(ring)


@pytest.mark.parametrize("deg", [0, 1, 2])
def test_a_singular_pairing_block_names_its_degree(monkeypatch, deg):
    original = CohomRing.pairing

    def singular(self, d):
        rows, den = original(self, d)
        if d == deg:  # the first row of the block becomes zero
            rows = (tuple(0 for _ in rows[0]),) + rows[1:]
        return rows, den
    monkeypatch.setattr(CohomRing, "pairing", singular)
    ring = _fresh_ring(load_fan("p1xp1"))
    with pytest.raises(FanError, match="pairing block %d,%d is degenerate" % (deg, 2 - deg)):
        ring.dual_basis()
