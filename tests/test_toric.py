"""Fan validation, charge matrices, Mori generators, degree enumeration."""

import random
import re
from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor

import pytest

from qdm import (
    ChargeMatrix,
    FanError,
    MoriCone,
    NefBasisError,
    build_ring,
    charge_matrix,
    enumerate_degrees,
    in_cone,
    make_fan,
    mori_generators,
    parse_fan,
    wall_relations,
)

from qdm import linalg, toric

from conftest import (
    DOUBLE_CYCLE_CONES,
    DOUBLE_CYCLE_NEF,
    DOUBLE_CYCLE_RAYS,
    SHIPPED,
    bench_checks,
    load_bench_fan,
    load_fan,
    product_fan,
    reference_basis_is_nef,
    reference_coords_in_basis,
    reference_cover_count,
    reference_dual_cone_rays,
    reference_in_cone,
    reference_invert,
    reference_mori_generators,
    reference_primitive_collections,
    reference_primitive_relations,
    reference_rref,
    reference_wall_relations,
    same_fan_copies,
    seeded_bench_fans,
    seeded_blow_ups,
)


P2_RAYS = [[1, 0], [0, 1], [-1, -1]]
P2_CONES = [[0, 1], [1, 2], [0, 2]]

# Hexagon fan: the del Pezzo surface of degree 6 (P^2 blown up in the three
# torus-fixed points).  Its nef cone is not simplicial, so the charge matrix
# needs an explicit nef basis.
DP3_RAYS = [[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]]
DP3_CONES = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]]
DP3_NEF = [
    [1, 1, 0, 0, 0, 1],  # pullback of the hyperplane class
    [1, 0, 0, 0, 0, 1],  # hyperplane minus first exceptional curve
    [0, 0, 0, 0, 1, 1],  # hyperplane minus second exceptional curve
    [1, 1, 0, 0, 0, 0],  # hyperplane minus third exceptional curve
]


# ---------------------------------------------------------------------------
# validation


def test_rejects_non_primitive_ray():
    with pytest.raises(FanError, match="not primitive"):
        make_fan([[2], [-1]], [[0], [1]])


def test_rejects_zero_ray():
    with pytest.raises(FanError, match="zero vector"):
        make_fan([[1, 0], [0, 0], [0, 1]], [[0, 1]])


def test_rejects_non_integer_ray():
    # entries are not coerced: int() would truncate 1.5 to 1 and accept True
    for entry in ("a", 1.5, True, "1"):
        with pytest.raises(FanError, match="integers"):
            make_fan([[entry], [-1]], [[0], [1]])


def test_rejects_non_integer_cone_index():
    for cone in ([0, 0.7], [0, True], [0, "1"], 1):
        with pytest.raises(FanError, match="cone indices must be integers"):
            make_fan(P2_RAYS, [cone, [1, 2], [0, 2]])


def test_rejects_mixed_ray_lengths():
    with pytest.raises(FanError, match="same number"):
        make_fan([[1, 0], [0, 1, 0], [-1, -1]], P2_CONES)


def test_rejects_duplicate_rays():
    with pytest.raises(FanError, match="duplicate rays"):
        make_fan([[1, 0], [1, 0], [0, 1], [-1, -1]], [[0, 2], [2, 1]])


def test_rejects_too_few_rays():
    with pytest.raises(FanError, match="needs more than"):
        make_fan([[1, 0], [0, 1]], [[0, 1]])


def test_rejects_cone_with_repeated_ray():
    with pytest.raises(FanError, match="repeats"):
        make_fan(P2_RAYS, [[0, 0], [1, 2], [0, 2]])


def test_rejects_out_of_range_cone_index():
    with pytest.raises(FanError, match="out-of-range"):
        make_fan(P2_RAYS, [[0, 5], [1, 2], [0, 2]])


def test_rejects_lower_dimensional_cone():
    with pytest.raises(FanError, match="not full dimensional"):
        make_fan(P2_RAYS, [[0], [1, 2], [0, 2]])


@pytest.mark.parametrize("rays, cones, message", [
    # cone((-1,-2),(1,0)) has index two in the lattice
    ([[1, 0], [0, 1], [-1, -2]], [[0, 1], [1, 2], [2, 0]],
     "maximal cone [2, 0] is not unimodular (det 2)"),
    # the determinant is taken with the rays in the order the cone lists them
    ([[1, 0], [1, 2], [-1, -1]], [[1, 0], [1, 2], [2, 0]],
     "maximal cone [1, 0] is not unimodular (det -2)"),
    ([[1, 0], [1, 2], [-1, -1]], [[0, 1], [1, 2], [2, 0]],
     "maximal cone [0, 1] is not unimodular (det 2)"),
])
def test_rejects_singular_cone(rays, cones, message):
    with pytest.raises(FanError) as info:
        make_fan(rays, cones)
    assert str(info.value) == message + "; the variety would be singular"


# A hexagon-like fan with two singular cones, [0, 1] and [3, 4]: the wall
# walk from the first listed cone may reach either one first.
TWO_SINGULAR = [[1, 0], [1, 2], [0, 1], [-1, 0], [-1, -2], [0, -1]]


@pytest.mark.parametrize("rays, cones, message", [
    (TWO_SINGULAR, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0]],
     "maximal cone [0, 1] is not unimodular (det 2)"),
    (TWO_SINGULAR, [[2, 3], [3, 4], [4, 5], [5, 0], [0, 1], [1, 2]],
     "maximal cone [3, 4] is not unimodular (det 2)"),
    (TWO_SINGULAR, [[2, 3], [4, 3], [4, 5], [5, 0], [1, 0], [1, 2]],
     "maximal cone [4, 3] is not unimodular (det -2)"),
    (TWO_SINGULAR, [[5, 0], [1, 2], [1, 0], [4, 3], [2, 3], [4, 5]],
     "maximal cone [1, 0] is not unimodular (det -2)"),
    # singular and incomplete: the singular cone is named
    ([[1, 0], [1, 2], [-1, 0]], [[0, 1], [1, 2]],
     "maximal cone [0, 1] is not unimodular (det 2)"),
    ([[1, 0], [1, 2], [-1, 0]], [[1, 2], [0, 1]],
     "maximal cone [1, 2] is not unimodular (det 2)"),
    # a singular cone listed before a malformed one or a duplicate is named
    ([[1, 0], [1, 2], [-1, -1]], [[0, 1], [1, 1], [1, 2]],
     "maximal cone [0, 1] is not unimodular (det 2)"),
    ([[1, 0], [1, 2], [-1, -1]], [[1, 2], [0, 1], [0, 1]],
     "maximal cone [0, 1] is not unimodular (det 2)"),
    # ... and one listed after a malformed cone is not
    ([[1, 0], [1, 2], [-1, -1]], [[1, 1], [0, 1], [1, 2]],
     "maximal cone [1, 1] repeats a ray"),
])
def test_fan_errors_follow_the_listed_cones(rays, cones, message):
    with pytest.raises(FanError) as info:
        make_fan(rays, cones)
    suffix = "; the variety would be singular" if "unimodular" in message else ""
    assert str(info.value) == message + suffix


# two copies of P^2, one with the rays negated, listed as one fan
TWO_P2_RAYS = [[1, 0], [0, 1], [-1, -1], [-1, 0], [0, -1], [1, 1]]
TWO_P2_CONES = [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]


@pytest.mark.parametrize("rays, cones, nef, message", [
    # the double cycle passes every local check, with or without a nef basis
    (DOUBLE_CYCLE_RAYS, DOUBLE_CYCLE_CONES, None, "[0, 1] and [8, 9]"),
    (DOUBLE_CYCLE_RAYS, DOUBLE_CYCLE_CONES, DOUBLE_CYCLE_NEF, "[0, 1] and [8, 9]"),
    # the cones are named with their rays in listed order
    (DOUBLE_CYCLE_RAYS, [[1, 0]] + DOUBLE_CYCLE_CONES[1:], None, "[1, 0] and [8, 9]"),
    (DOUBLE_CYCLE_RAYS, DOUBLE_CYCLE_CONES[5:] + DOUBLE_CYCLE_CONES[:5], None,
     "[5, 6] and [9, 10]"),
    (TWO_P2_RAYS, TWO_P2_CONES, None, "[0, 1] and [4, 5]"),
])
def test_overlapping_cones_are_refused(rays, cones, nef, message):
    with pytest.raises(FanError) as info:
        make_fan(rays, cones, nef)
    assert str(info.value) == "maximal cones %s overlap: the cones are not a fan" % message


def test_an_accepted_fan_covers_each_direction_once():
    # the independent count behind make_fan's overlap test: a generic point
    # inside the first cone lies in that cone alone, and in two cones of the
    # double cycle
    for i, (label, fan) in enumerate(_oracle_fans()):
        assert reference_cover_count(fan.rays, fan.max_cones, i) == 1, label
    for seed in range(6):
        assert reference_cover_count(DOUBLE_CYCLE_RAYS, DOUBLE_CYCLE_CONES, seed) == 2


def test_a_malformed_cone_names_an_earlier_singular_one_without_a_walk(monkeypatch):
    # the malformed-cone path reads the determinants of the cones listed
    # before it, in order, and walks no walls
    calls = []
    walk = toric._cone_inverses
    monkeypatch.setattr(toric, "_cone_inverses", lambda *args: calls.append(args) or walk(*args))
    with pytest.raises(FanError) as info:
        make_fan([[1, 0], [1, 2], [-1, -1]], [[0, 1], [1, 5], [1, 2]])
    assert str(info.value) == ("maximal cone [0, 1] is not unimodular (det 2); "
                               "the variety would be singular")
    assert calls == []


def test_a_valid_fan_computes_no_determinant(monkeypatch):
    # the wall walk decides that every cone is unimodular; int_det only
    # names the cone of a fan that is refused
    calls = []
    det = linalg.int_det
    monkeypatch.setattr(linalg, "int_det", lambda mat: calls.append(mat) or det(mat))
    for name in SHIPPED:
        load_fan(name)
    product_fan(*["p1"] * 6)
    assert calls == []
    with pytest.raises(FanError, match=r"\[0, 1\] is not unimodular"):
        make_fan([[1, 0], [1, 2], [-1, -1]], [[0, 1], [1, 2], [2, 0]])
    assert calls


@pytest.mark.parametrize("cones", [
    [[1, 0], [0, 3], [3, 4], [4, 2], [2, 1]],
    [[4, 2], [2, 1], [1, 0], [0, 3], [3, 4]],
])
def test_a_wall_with_both_cones_on_one_side_is_refused(cones):
    # every cone is unimodular and every wall lies in two cones, but the
    # cones on the wall of ray 1 both lie on the side of ray 0: x_u = +1
    rays = [[1, 0], [0, 1], [1, 1], [0, -1], [-1, 0]]
    with pytest.raises(FanError) as info:
        make_fan(rays, cones)
    assert str(info.value) == "wall [1] does not span a hyperplane"


def test_rejects_duplicate_cones():
    with pytest.raises(FanError, match="duplicate maximal cones"):
        make_fan(P2_RAYS, [[0, 1], [1, 0], [1, 2], [0, 2]])


def test_rejects_unused_ray():
    with pytest.raises(FanError, match="appear in some maximal cone"):
        make_fan([[1, 0], [0, 1], [-1, -1], [1, 1]], P2_CONES)


def test_rejects_incomplete_fan():
    with pytest.raises(FanError, match="not complete"):
        make_fan(P2_RAYS, [[0, 1], [1, 2]])


def test_parse_rejects_malformed_json():
    with pytest.raises(FanError, match="malformed"):
        parse_fan("{not json")


def test_parse_rejects_non_object():
    with pytest.raises(FanError, match="JSON object"):
        parse_fan("[1, 2]")


def test_parse_rejects_unknown_keys():
    with pytest.raises(FanError, match="unknown fan file keys: rayz"):
        parse_fan('{"rayz": [], "max_cones": []}')


def test_parse_rejects_missing_sections():
    with pytest.raises(FanError, match="'rays' and 'max_cones'"):
        parse_fan('{"rays": [[1], [-1]]}')


def test_parse_rejects_bad_nef_entries():
    for entry in ('"x"', "true", "0.5", "null", '"1/0"',
                  '"1.0"', '"1e0"', '" 1 "', '"+1"', '"1_0"'):
        text = ('{"rays": [[1, 0], [0, 1], [-1, -1]],'
                ' "max_cones": [[0, 1], [1, 2], [0, 2]],'
                ' "nef_basis": [[%s, 0, 0]]}' % entry)
        with pytest.raises(FanError, match="nef_basis entries"):
            parse_fan(text)


def test_nef_basis_vector_length_checked():
    with pytest.raises(FanError, match="one coefficient per ray"):
        make_fan(P2_RAYS, P2_CONES, nef_basis=[[1, 0]])


def test_nef_basis_count_checked():
    with pytest.raises(FanError, match="exactly 1 vectors"):
        make_fan(P2_RAYS, P2_CONES, nef_basis=[[1, 0, 0], [0, 1, 0]])


# ---------------------------------------------------------------------------
# wall curve classes


def test_wall_relations_projective_line():
    fan = load_fan("p1")
    assert wall_relations(fan) == [(1, 1)]


def test_wall_relations_projective_plane():
    fan = load_fan("p2")
    assert wall_relations(fan) == [(1, 1, 1)]


def test_wall_relations_hirzebruch():
    fan = load_fan("hirzebruch1")
    rels = wall_relations(fan)
    assert rels == [(0, 1, 0, 1), (1, -1, 1, 0), (1, 0, 1, 1)]
    for rel in rels:
        for nu in range(fan.dim):
            assert sum(r * fan.rays[k][nu] for k, r in enumerate(rel)) == 0


def _random_unimodular(rng, n):
    """A seeded product of elementary integer row operations, row swaps and
    sign flips: an n x n integer matrix of determinant +-1."""
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(4 * n):
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randint(-3, 3)
        if i != j:
            a[i] = [x + k * y for x, y in zip(a[i], a[j])]
            a[i], a[j] = a[j], a[i]
        if rng.random() < 0.3:
            a[i] = [-x for x in a[i]]
    return a


def test_unimodular_inverse_matches_the_rational_inverse():
    rng = random.Random(20)
    for trial in range(60):
        n = 1 + trial % 5
        a = _random_unimodular(rng, n)
        inverse = toric._unimodular_inverse(a)
        assert inverse == reference_invert(a), a
        assert linalg.invert(a) == (inverse, 1), a
        # determinant +-2: one row doubled; 0: one row a multiple of another
        r = rng.randrange(n)
        doubled = [[2 * x for x in row] if i == r else row for i, row in enumerate(a)]
        singular = [[0]] if n == 1 else a[:-1] + [[2 * x for x in a[0]]]
        assert abs(linalg.int_det(doubled)) == 2 and linalg.int_det(singular) == 0
        assert toric._unimodular_inverse(doubled) is None
        assert toric._unimodular_inverse(singular) is None
    # a rational matrix has an integer unimodular inverse only if it is integral
    assert toric._unimodular_inverse([[Fraction(1, 2)]]) is None
    assert toric._unimodular_inverse([[Fraction(1), Fraction(1, 2)], [0, 1]]) is None


def _walls(fan):
    walls = {}
    for cone in fan.max_cones:
        for wall in combinations(cone, fan.dim - 1):
            walls.setdefault(wall, []).append(cone)
    return walls


@pytest.mark.parametrize("name", SHIPPED)
def test_walked_inverses_match_the_hermite_inverses(name):
    # one Hermite inverse per fan: every other cone's inverse is the wall
    # update of a neighbour's, and each must be the inverse of its rays
    for data in same_fan_copies(name):
        fan = make_fan(data["rays"], data["max_cones"], data.get("nef_basis"))
        walls = _walls(fan)
        inverses, crossed = toric._cone_inverses(fan.rays, fan.max_cones, walls)
        assert set(inverses) == set(fan.max_cones) and set(crossed) == set(walls)
        for sigma, cols in inverses.items():
            inv = toric._unimodular_inverse([fan.rays[k] for k in sigma])
            assert cols == dict(zip(sigma, zip(*inv))), (name, sigma)


def test_a_cone_the_walk_cannot_reach_is_inverted_directly():
    # with no walls to cross, every cone starts a walk of its own
    fan = load_fan("dp3")
    inverses, crossed = toric._cone_inverses(fan.rays, fan.max_cones, {})
    assert crossed == {}
    for sigma, cols in inverses.items():
        inv = toric._unimodular_inverse([fan.rays[k] for k in sigma])
        assert cols == dict(zip(sigma, zip(*inv)))


def _as_sets(collections):
    return {frozenset(c) for c in collections}


@pytest.mark.parametrize("name", SHIPPED)
def test_primitive_collections_match_the_subset_walk(name):
    for data in same_fan_copies(name):
        fan = make_fan(data["rays"], data["max_cones"], data.get("nef_basis"))
        want = reference_primitive_collections(fan)
        assert _as_sets(fan.primitive_collections) == set(want)
        assert len(fan.primitive_collections) == len(want)
        # sorted by size, then lexicographically, each a sorted tuple
        assert list(fan.primitive_collections) == sorted(
            fan.primitive_collections, key=lambda c: (len(c), c))
        assert all(list(c) == sorted(c) and len(c) <= fan.dim + 1
                   for c in fan.primitive_collections)


def test_primitive_collections_of_the_benchmark_fans():
    seen = set()
    for name, seed, fan in seeded_bench_fans(range(4)):
        assert _as_sets(fan.primitive_collections) == set(
            reference_primitive_collections(fan)), (name, seed)
        seen.add(name)
    assert len(seen) == 10
    p1_6 = product_fan(*["p1"] * 6)
    got = _as_sets(p1_6.primitive_collections)
    assert got == {frozenset((2 * i, 2 * i + 1)) for i in range(6)}
    assert got == set(reference_primitive_collections(p1_6))


@pytest.mark.parametrize("name", SHIPPED)
def test_wall_coordinates_match_the_lattice_solve(name):
    # mori_generators reads the generators off the facet normals in outside
    # coordinates; shuffled cones change the first maximal cone, and each
    # generator stays the primitive class of some wall
    for data in same_fan_copies(name):
        fan = make_fan(data["rays"], data["max_cones"], data.get("nef_basis"))
        cm = charge_matrix(fan)
        walls = {linalg.primitive_vector(reference_coords_in_basis(cm.m, rel))
                 for rel in wall_relations(fan)}
        gens = mori_generators(fan, cm).generators
        assert gens and set(gens) <= walls, (name, gens, walls)


@pytest.mark.parametrize("name", SHIPPED)
def test_setup_matches_the_per_wall_reference(name):
    # wall relations from one inverse per cone agree with the per-wall
    # solves they replaced, and a fan holding the solved relations, and the
    # normals the reference double description finds from them, gives the
    # same charge matrix and Mori cone
    want = None
    for data in same_fan_copies(name):
        fan = make_fan(data["rays"], data["max_cones"], data.get("nef_basis"))
        assert wall_relations(fan) == reference_wall_relations(fan)
        cm = charge_matrix(fan)
        cone = mori_generators(fan, cm)
        assert list(cone.generators) == reference_mori_generators(fan, cm)
        solved = fan._replace(wall_relations=tuple(reference_wall_relations(fan)))
        solved = solved._replace(
            mori_normals=tuple(reference_dual_cone_rays(*_wall_coords(solved))))
        assert (charge_matrix(solved), mori_generators(solved, cm)) == (cm, cone)
        # a shuffled first cone changes the outside coordinates of the fan's
        # normals, not the cone they give in charge coordinates
        want = want or (cm, cone)
        assert (cm, cone) == want


# The four products whose wall classes leave a lineality space standing
# while rays are cut: an adjacency threshold without its lineality term
# loses rays on two of them.
PRODUCTS = [("dp3", "dp3"), ("dp3", "p2"), ("dp2", "p1", "p1"), ("p1", "p1", "p1", "dp2")]


def _wall_coords(fan):
    """The fan's distinct wall classes in outside coordinates, sorted, as
    make_fan hands them to _dual_cone_rays, and l."""
    out = toric._outside(fan.n_rays, fan.max_cones[0])
    return sorted({tuple(rel[k] for k in out) for rel in fan.wall_relations}), len(out)


def _oracle_fans():
    yield from ((name, load_fan(name)) for name in SHIPPED)
    yield from (("%s seed %d" % (name, seed), fan)
                for name, seed, fan in seeded_bench_fans(range(6)))
    yield from (("x".join(names), product_fan(*names)) for names in PRODUCTS)


def test_nef_rays_match_the_subset_reference_on_fans():
    # every shipped fan, the benchmark's fans at seeds 0-5, and the products;
    # the generators read off the normals match the pruned wall classes
    # wherever the fan gives a charge matrix
    for label, fan in _oracle_fans():
        coords, l = _wall_coords(fan)
        want = reference_dual_cone_rays(coords, l)
        assert list(fan.mori_normals) == want, label
        try:
            cm = charge_matrix(fan)
        except NefBasisError:
            continue
        gens = mori_generators(fan, cm).generators
        assert list(gens) == reference_mori_generators(fan, cm), label
    # the product of dp3's nef bases is one of dP3 x dP3
    fan = product_fan("dp3", "dp3")
    cm = charge_matrix(fan)
    assert len(fan.mori_normals) == 10 and cm.l == 8
    assert len(mori_generators(fan, cm).generators) == 12


def _random_class_sets(count=200, seed=0):
    """(l, classes) for l = 2..6: small classes leaning to the positive
    side, unit classes until they span, then a duplicate, a multiple or a
    negative of some class, in shuffled order."""
    rng = random.Random(seed)
    for t in range(count):
        l = 2 + t % 5
        classes = [c for c in (tuple(rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(l))
                               for _ in range(l + rng.randint(0, 5))) if any(c)]
        for j in range(l):
            if len(reference_rref(classes, l)[1]) == l:
                break
            classes.append(tuple(int(i == j) for i in range(l)))
        for _ in range(rng.randint(0, 2)):
            scale = rng.choice((1, 2, 3, -1, -2))
            classes.append(tuple(scale * x for x in rng.choice(classes)))
        rng.shuffle(classes)
        yield l, classes


def test_nef_rays_match_the_subset_reference_on_random_classes():
    kinds = {"no rays": 0, "simplicial": 0, "non-simplicial": 0,
             "repeated": 0, "antiparallel": 0}
    for l, classes in _random_class_sets():
        want = reference_dual_cone_rays(classes, l)
        assert toric._dual_cone_rays(classes, l) == want, (l, classes)
        kinds["no rays" if not want else
              "simplicial" if len(want) == l else "non-simplicial"] += 1
        kinds["repeated"] += len(set(classes)) < len(classes)
        kinds["antiparallel"] += any(tuple(-x for x in c) in classes for c in classes)
    # the sample reaches every kind of case
    assert min(kinds.values()) >= 10, kinds


@pytest.mark.parametrize("classes", [[], [(1, 0, 0), (0, 1, 0)], [(1, 1), (2, 2), (-1, -1)]],
                         ids=["empty", "a plane", "a line"])
def test_classes_that_do_not_span_are_refused(classes):
    with pytest.raises(FanError, match="the wall curve classes do not span the "
                                       "relation lattice"):
        toric._dual_cone_rays(classes, len(classes[0]) if classes else 2)


# ---------------------------------------------------------------------------
# charge matrices (frozen for the bundled fans)


def test_charge_matrix_values(corpus):
    expected = {
        "p1": {(1, 1)},
        "p2": {(1, 1, 1)},
        "p3": {(1, 1, 1, 1)},
        "p1xp1": {(1, 1, 0, 0), (0, 0, 1, 1)},
        "hirzebruch1": {(1, -1, 1, 0), (0, 1, 0, 1)},
        "dp2": {(0, 0, 1, -1, 1), (1, -1, 1, 0, 0), (0, 1, -1, 1, 0)},
    }
    for name, (fan, cm, _ring, _cone) in corpus.items():
        assert set(cm.m) == expected[name], name
        assert cm.l == fan.n_rays - fan.dim
        assert cm.n == fan.n_rays


def test_charge_matrix_rows_are_relations(corpus):
    for name, (fan, cm, _ring, _cone) in corpus.items():
        for row in cm.m:
            for nu in range(fan.dim):
                assert sum(row[k] * fan.rays[k][nu]
                           for k in range(fan.n_rays)) == 0, name


def test_supplied_nef_basis_matches_default():
    default = charge_matrix(make_fan(P2_RAYS, P2_CONES))
    explicit = charge_matrix(make_fan(P2_RAYS, P2_CONES, nef_basis=[[1, 0, 0]]))
    assert explicit == default
    # fractional coefficients are fine as long as the class is integral
    averaged = charge_matrix(
        make_fan(P2_RAYS, P2_CONES, nef_basis=[["1/3", "1/3", "1/3"]]))
    assert averaged == default


def test_integral_nef_basis_entries_are_ints():
    # integer arithmetic in charge_matrix; a rational entry stays a Fraction
    fan = load_fan("dp3")
    assert all(type(c) is int for vec in fan.nef_basis for c in vec)
    as_fractions = fan._replace(nef_basis=tuple(tuple(map(Fraction, vec))
                                                for vec in fan.nef_basis))
    assert charge_matrix(fan) == charge_matrix(as_fractions)
    assert charge_matrix(fan).m == ((-1, 1, -1, 1, -1, 1), (1, -1, 1, 0, 0, 0),
                                    (0, 0, 1, -1, 1, 0), (1, 0, 0, 0, 1, -1))
    averaged = make_fan(P2_RAYS, P2_CONES, nef_basis=[["1/3", "1/3", 1]]).nef_basis
    assert averaged == ((Fraction(1, 3), Fraction(1, 3), 1),)
    assert [type(c) for c in averaged[0]] == [Fraction, Fraction, int]


def test_supplied_nef_basis_must_be_nef():
    # a lattice basis, so charge_matrix takes it; the curves judge it nef
    fan = make_fan(P2_RAYS, P2_CONES, nef_basis=[[-1, 0, 0]])
    cm = charge_matrix(fan)
    with pytest.raises(FanError, match="pairs negatively"):
        mori_generators(fan, cm)


def test_supplied_nef_basis_must_be_lattice_basis():
    fan = make_fan(P2_RAYS, P2_CONES, nef_basis=[["1/2", 0, 0]])
    with pytest.raises(NefBasisError, match="lattice basis"):
        charge_matrix(fan)
    # integral classes, but of index two in the divisor class lattice
    p1xp1 = load_fan("p1xp1")
    fan = make_fan(p1xp1.rays, p1xp1.max_cones, nef_basis=[[2, 0, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(NefBasisError, match="supplied nef_basis is not a lattice basis"):
        charge_matrix(fan)


def test_non_simplicial_nef_cone_needs_explicit_basis():
    fan = make_fan(DP3_RAYS, DP3_CONES)
    with pytest.raises(NefBasisError, match="not simplicial"):
        charge_matrix(fan)


def test_too_few_nef_rays_mean_the_fan_is_not_projective():
    # no nef basis exists, so none is asked for
    fan = make_fan(NON_PROJECTIVE_RAYS, NON_PROJECTIVE_CONES)
    with pytest.raises(NefBasisError) as info:
        charge_matrix(fan)
    assert str(info.value) == ("nef cone spans 2 of 4 dimensions: "
                               "the fan is not projective")


def test_nef_rays_that_are_no_lattice_basis_are_refused():
    # l rays, but (1, 1) and (1, -1) span an index-2 sublattice
    fan = load_fan("p1xp1")._replace(mori_normals=((1, 1), (1, -1)))
    with pytest.raises(NefBasisError, match="nef cone generators do not form a lattice basis"):
        charge_matrix(fan)


def test_degree_six_del_pezzo_with_explicit_basis():
    fan = make_fan(DP3_RAYS, DP3_CONES, nef_basis=DP3_NEF)
    cm = charge_matrix(fan)
    assert cm.l == 4
    for row in cm.m:
        for nu in range(fan.dim):
            assert sum(row[k] * fan.rays[k][nu] for k in range(fan.n_rays)) == 0
    gens = mori_generators(fan, cm).generators
    assert gens == ((0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0),
                    (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0))
    assert [cm.c1_degree(g) for g in gens] == [1] * 6


# ---------------------------------------------------------------------------
# pairings


def test_pairing_values(corpus):
    _fan, cm, _ring, _cone = corpus["p2"]
    assert cm.pairings((2,)) == (2, 2, 2)
    assert cm.c1_degree((2,)) == 6
    _fan, cm, _ring, _cone = corpus["hirzebruch1"]
    assert cm.pairings((1, 1)) == (1, 0, 1, 1)
    assert cm.pairings((1, 0)) == (1, -1, 1, 0)
    assert cm.c1_degree((1, 0)) == 1
    assert cm.c1_degree((0, 1)) == 2


def test_pairing_index_out_of_range(corpus):
    _fan, cm, _ring, _cone = corpus["p2"]
    assert len(cm.pairings((1,))) == cm.n == 3
    with pytest.raises(IndexError):
        cm.pairings((1,))[3]


def test_pairings_need_one_coordinate_per_class(corpus):
    _fan, cm, _ring, _cone = corpus["hirzebruch1"]
    for degree in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="degree needs 2 coordinates"):
            cm.pairings(degree)


# ---------------------------------------------------------------------------
# Mori cone


def test_mori_generators_values(corpus):
    expected = {
        "p1": [(1,)],
        "p2": [(1,)],
        "p3": [(1,)],
        "p1xp1": [(0, 1), (1, 0)],
        "hirzebruch1": [(1, 0), (0, 1)],
        "dp2": [(0, 0, 1), (0, 1, 0), (1, 0, 0)],
    }
    for name, (fan, cm, _ring, cone) in corpus.items():
        assert cone.generators == tuple(expected[name]), name
        assert cone == mori_generators(fan, cm), name


def test_hirzebruch_drops_non_extremal_wall_class(corpus):
    # the wall class (1,1) = section + fiber is a sum of the two generators
    fan, cm, _ring, cone = corpus["hirzebruch1"]
    wall_coords = {reference_coords_in_basis(cm.m, rel) for rel in wall_relations(fan)}
    assert wall_coords == {(1, 0), (0, 1), (1, 1)}
    assert (1, 1) not in cone.generators


def test_mori_generators_reject_a_charge_matrix_of_a_sublattice():
    # rows that are relations but span an index-2 sublattice of them
    fan = load_fan("p1xp1")
    with pytest.raises(FanError, match="not a basis of the relation lattice"):
        mori_generators(fan, ChargeMatrix(((2, 2, 0, 0), (0, 0, 1, 1))))


def test_mori_generators_reject_rows_not_dual_to_a_nef_basis():
    # a lattice basis of the relations, but the second row is no nef class:
    # the wall class (1, 1, 0, 0) has coordinates (1, -1)
    fan = load_fan("p1xp1")
    cm = ChargeMatrix(((0, 0, 1, 1), (-1, -1, 1, 1)))
    with pytest.raises(FanError, match="wall curve class pairs negatively with the nef basis"):
        mori_generators(fan, cm)
    assert build_ring(fan, cm).basis


# a smooth complete 3-fold whose nef cone has two rays in Picard rank 4
NON_PROJECTIVE_RAYS = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [-1, -1, 0],
                       [0, -1, -1], [-1, 0, -1]]
NON_PROJECTIVE_CONES = [[0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 4, 5], [1, 2, 6], [1, 5, 6],
                        [2, 4, 6], [3, 4, 5], [3, 4, 6], [3, 5, 6]]


def test_mori_generators_refuse_a_fan_that_is_not_projective():
    fan = make_fan(NON_PROJECTIVE_RAYS, NON_PROJECTIVE_CONES)
    assert len(fan.mori_normals) == 2
    cm = ChargeMatrix(tuple(linalg.integer_kernel([list(col) for col in zip(*fan.rays)])))
    with pytest.raises(FanError, match="the Mori cone contains a line, so the fan is "
                                       "not projective"):
        mori_generators(fan, cm)


def _lattice_fans():
    yield from ((name, load_fan(name)) for name in SHIPPED)
    yield from (("x".join(names), product_fan(*names)) for names in PRODUCTS)
    yield "p1^6", product_fan(*["p1"] * 6)
    yield from (("blow-up %d" % i, make_fan(rays, cones))
                for i, (rays, cones) in enumerate(seeded_blow_ups(40, 7)))
    yield "not projective", make_fan(NON_PROJECTIVE_RAYS, NON_PROJECTIVE_CONES)


def test_the_wall_relations_generate_the_relation_lattice():
    # the torus-invariant curves generate H_2(X, Z) (Fulton 1993, 5.1-5.2),
    # so the nonzero Hermite rows of the wall relations, which charge_matrix
    # starts from, are the Hermite basis of the integer kernel of the rays;
    # a charge matrix, where the fan gives one, is a basis of it too
    for label, fan in _lattice_fans():
        kernel = linalg.integer_kernel([list(col) for col in zip(*fan.rays)])
        walls = [tuple(row) for row in linalg.hermite_form(fan.wall_relations)[0] if any(row)]
        assert walls == kernel, label
        try:
            cm = charge_matrix(fan)
        except NefBasisError:
            continue
        assert [tuple(row) for row in linalg.hermite_form(cm.m)[0]] == kernel, label


NON_PROJECTIVE = {"rays": NON_PROJECTIVE_RAYS, "max_cones": NON_PROJECTIVE_CONES}
DP3 = {"rays": DP3_RAYS, "max_cones": DP3_CONES}


@pytest.mark.parametrize("factors, message", [
    ((NON_PROJECTIVE, DP3), "nef cone spans 6 of 8 dimensions: the fan is not projective"),
    ((NON_PROJECTIVE, DP3, DP3), "nef cone spans 10 of 12 dimensions: the fan is not projective"),
    ((NON_PROJECTIVE, DP3, DP3, DP3),
     "nef cone spans 14 of 16 dimensions: the fan is not projective"),
    ((DP3, DP3), "nef cone is not simplicial (10 extreme rays, need 8); "
                 "supply an explicit nef_basis"),
])
def test_a_derived_basis_is_refused_by_the_rank_of_the_nef_rays(factors, message):
    # a nef cone of rank r < l says the fan is not projective, whatever the
    # number of its rays: 12 rays of rank 10, or 17 of rank 14
    fan = product_fan(*factors)
    with pytest.raises(NefBasisError) as info:
        charge_matrix(fan)
    assert str(info.value) == message


def _seeded_bases(fan, count, seed):
    """count seeded unimodular bases of the divisor classes, each vector
    supported on the rays outside the first maximal cone: a signed
    permutation of the unit vectors there, mixed by elementary row steps."""
    rng = random.Random(seed)
    out = toric._outside(fan.n_rays, fan.max_cones[0])
    l = len(out)
    for _ in range(count):
        mat = [[rng.choice((1, -1)) * int(i == j) for j in range(l)] for i in range(l)]
        rng.shuffle(mat)
        for _ in range(rng.randint(0, l) if l > 1 else 0):
            i, j = rng.sample(range(l), 2)
            c = rng.choice((1, -1))
            mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
        cols = dict(zip(out, zip(*mat)))
        yield [[cols[k][i] if k in cols else 0 for k in range(fan.n_rays)] for i in range(l)]


def test_mori_generators_alone_judge_a_supplied_basis():
    # charge_matrix takes every lattice basis; mori_generators refuses one
    # exactly when a wall relation pairs negatively with a basis vector, and
    # every basis of a fan that is not projective
    counts = {True: 0, False: 0}
    for name in SHIPPED + ["nonprojective"]:
        if name == "nonprojective":
            fan = make_fan(NON_PROJECTIVE_RAYS, NON_PROJECTIVE_CONES)
        else:
            fan = load_fan(name)
        for basis in _seeded_bases(fan, 60, name):
            supplied = fan._replace(nef_basis=tuple(map(tuple, basis)))
            cm = charge_matrix(supplied)
            nef = reference_basis_is_nef(fan, basis)
            if name == "nonprojective":
                assert not nef
                with pytest.raises(FanError, match="not projective"):
                    mori_generators(supplied, cm)
                continue
            counts[nef] += 1
            if nef:
                assert mori_generators(supplied, cm).generators
            else:
                with pytest.raises(FanError, match="pairs negatively"):
                    mori_generators(supplied, cm)
    # both verdicts are reached, so neither side of the rule goes untested
    assert min(counts.values()) > 0, counts


def test_seeded_blow_ups_of_projective_space():
    # star subdivisions of P^2 and P^3 are smooth projective fans: make_fan
    # takes each, and a point covered once shows a fan.  With a charge
    # matrix, the ring's Betti numbers are the h-vector's, and the Fano test
    # on the Mori generators is Batyrev's on the primitive relations; else
    # the refusal names the hypothesis that failed.
    kinds = []
    for i, (rays, cones) in enumerate(seeded_blow_ups(40, 7)):
        fan = make_fan(rays, cones)
        assert reference_cover_count(fan.rays, fan.max_cones, i) == 1, (rays, cones)
        try:
            cm = charge_matrix(fan)
        except NefBasisError as exc:
            assert re.search("not simplicial|not projective|lattice basis", str(exc)), exc
            kinds.append("refused")
            continue
        assert list(build_ring(fan, cm).dims) == bench_checks().h_vector(cones, fan.dim)
        fano = all(cm.c1_degree(g) > 0 for g in mori_generators(fan, cm).generators)
        assert fano == all(cm.c1_degree(b) > 0 for b in reference_primitive_relations(fan, cm))
        kinds.append("fano" if fano else "not fano")
    assert sorted(set(kinds)) == ["fano", "not fano", "refused"], kinds


@pytest.mark.parametrize("name", SHIPPED)
def test_mori_generators_match_the_pruning_reference(shipped, name):
    fan, cm, _ring, cone = shipped[name]
    assert list(cone.generators) == reference_mori_generators(fan, cm)


@pytest.mark.parametrize("name", SHIPPED + ["p1x6", "F2", "F3"])
def test_mori_generators_are_primitive_relations(name):
    # Batyrev 1991, Casagrande 2003: the primitive relations span the Mori
    # cone, and every extremal ray holds one of them
    if name == "p1x6":
        fan = product_fan(*["p1"] * 6)
    elif name in ("F2", "F3"):
        fan = make_fan([[1, 0], [0, 1], [-1, int(name[1])], [0, -1]],
                       [[0, 1], [1, 2], [2, 3], [3, 0]])
    else:
        fan = load_fan(name)
    cm = charge_matrix(fan)
    cone = mori_generators(fan, cm)
    betas = reference_primitive_relations(fan, cm)
    assert all(reference_in_cone(beta, cone.generators) for beta in betas), name
    assert set(cone.generators) <= {linalg.primitive_vector(beta) for beta in betas}, name
    # c1 > 0 on the primitive relations exactly when it is on the Mori cone
    least = min(map(cm.c1_degree, betas))
    assert (least > 0) == all(cm.c1_degree(g) > 0 for g in cone.generators), name
    if name in ("F2", "F3"):
        assert least == {"F2": 0, "F3": -1}[name]
    else:
        assert least > 0, name


@pytest.mark.parametrize("name", [name for name in SHIPPED if load_fan(name).nef_basis is None]
                         + ["p1x4", "p2xp2"])
def test_a_derived_nef_basis_makes_the_mori_cone_the_orthant(name):
    # the charge rows are dual to the nef rays, so the Mori cone, dual to
    # the nef cone, has the l unit vectors as its facet normals
    fan = load_fan(name) if name in SHIPPED else load_bench_fan(name)
    cone = mori_generators(fan, charge_matrix(fan))
    l = fan.n_rays - fan.dim
    assert cone.normals == tuple(sorted(tuple(int(i == j) for j in range(l))
                                        for i in range(l)))


def test_in_cone_rational_combination(corpus):
    cone = corpus["p1xp1"][3]
    assert in_cone((1, 1), cone)
    assert not in_cone((1, -1), cone)
    assert in_cone((0, 0), cone)
    # a degree of another length is refused, not truncated to the shorter one
    for degree in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match="length %d, a generator length 2" % len(degree)):
            in_cone(degree, cone)


# ---------------------------------------------------------------------------
# degree enumeration


def test_enumerate_degrees_projective_plane(corpus):
    _fan, cm, _ring, cone = corpus["p2"]
    assert enumerate_degrees(cone, cm, 6) == [(0,), (1,), (2,)]
    assert enumerate_degrees(cone, cm, 0) == [(0,)]


def test_enumerate_degrees_caps_the_box(corpus, monkeypatch):
    # p2 at bound 6 walks the box 0..2: three points
    _fan, cm, _ring, cone = corpus["p2"]
    assert toric.MAX_BOX_POINTS == 10**7
    monkeypatch.setattr(toric, "MAX_BOX_POINTS", 3)
    assert enumerate_degrees(cone, cm, 6) == [(0,), (1,), (2,)]
    monkeypatch.setattr(toric, "MAX_BOX_POINTS", 2)
    with pytest.raises(ValueError, match="bound 6 holds 3 points, more than 2"):
        enumerate_degrees(cone, cm, 6)


def test_enumerate_degrees_product(corpus):
    _fan, cm, _ring, cone = corpus["p1xp1"]
    assert enumerate_degrees(cone, cm, 4) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_enumerate_degrees_hirzebruch(corpus):
    _fan, cm, _ring, cone = corpus["hirzebruch1"]
    assert enumerate_degrees(cone, cm, 2) == [(0, 0), (1, 0), (0, 1), (2, 0)]


def test_enumerate_degrees_del_pezzo(corpus):
    _fan, cm, _ring, cone = corpus["dp2"]
    out = enumerate_degrees(cone, cm, 3)
    # Mori cone is the positive octant here; the cut-off is the total degree
    expected = sorted(
        ((a, b, c) for a in range(4) for b in range(4) for c in range(4)
         if a + b + c <= 3),
        key=lambda d: (sum(d), d))
    assert out == expected
    assert len(out) == 20


@pytest.mark.parametrize("name", SHIPPED)
def test_facet_normals_agree_with_in_cone(shipped, name):
    # on every point of the bounding box enumerate_degrees scans at B = 6,
    # the facet-normal test and in_cone equal the Caratheodory search over
    # the pruned wall classes, so neither side reads the cone under test
    fan, cm, _ring, cone = shipped[name]
    gens = reference_mori_generators(fan, cm)
    bound = 6
    box = []
    for j in range(cm.l):
        vals = [Fraction(bound * g[j], cm.c1_degree(g)) for g in gens] + [Fraction(0)]
        box.append(range(floor(min(vals)), ceil(max(vals)) + 1))
    inside = []
    for d in product(*box):
        member = reference_in_cone(d, gens)
        assert all(sum(a * b for a, b in zip(y, d)) >= 0 for y in cone.normals) == member, \
            (name, d)
        assert in_cone(d, cone) == member, (name, d)
        if member and 0 <= cm.c1_degree(d) <= bound:
            inside.append(d)
    assert enumerate_degrees(cone, cm, bound) == sorted(
        inside, key=lambda d: (cm.c1_degree(d), d))


def test_enumerate_degrees_rejects_unbounded(corpus):
    _fan, cm, _ring, _cone = corpus["p1"]
    # the cone spanned by 1 and -1 is the whole line, with no facet normals
    with pytest.raises(ValueError, match="unbounded"):
        enumerate_degrees(MoriCone(((1,), (-1,)), ()), cm, 4)


def test_enumerate_degrees_rejects_negative_bound(corpus):
    _fan, cm, _ring, cone = corpus["p1"]
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_degrees(cone, cm, -1)
