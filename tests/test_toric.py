"""Fan validation, charge matrices, Mori generators, degree enumeration."""

from fractions import Fraction
from itertools import product
from math import ceil, floor

import pytest

from qdm import (
    ChargeMatrix,
    FanError,
    NefBasisError,
    charge_matrix,
    enumerate_degrees,
    in_cone,
    make_fan,
    mori_generators,
    parse_fan,
    wall_relations,
)

from qdm.toric import _facet_normals

from conftest import SHIPPED, load_fan, reference_in_cone, reference_mori_generators


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


def test_rejects_singular_cone():
    # cone((-1,-2),(1,0)) has index two in the lattice
    with pytest.raises(FanError, match="not unimodular"):
        make_fan([[1, 0], [0, 1], [-1, -2]], [[0, 1], [1, 2], [2, 0]])


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
    for name, (fan, cm, _ring, _gens) in corpus.items():
        assert set(cm.m) == expected[name], name
        assert cm.l == fan.n_rays - fan.dim
        assert cm.n == fan.n_rays


def test_charge_matrix_rows_are_relations(corpus):
    for name, (fan, cm, _ring, _gens) in corpus.items():
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


def test_supplied_nef_basis_must_be_nef():
    fan = make_fan(P2_RAYS, P2_CONES, nef_basis=[[-1, 0, 0]])
    with pytest.raises(NefBasisError, match="pairs negatively"):
        charge_matrix(fan)


def test_supplied_nef_basis_must_be_lattice_basis():
    fan = make_fan(P2_RAYS, P2_CONES, nef_basis=[["1/2", 0, 0]])
    with pytest.raises(NefBasisError, match="lattice basis"):
        charge_matrix(fan)


def test_non_simplicial_nef_cone_needs_explicit_basis():
    fan = make_fan(DP3_RAYS, DP3_CONES)
    with pytest.raises(NefBasisError, match="not simplicial"):
        charge_matrix(fan)


def test_degree_six_del_pezzo_with_explicit_basis():
    fan = make_fan(DP3_RAYS, DP3_CONES, nef_basis=DP3_NEF)
    cm = charge_matrix(fan)
    assert cm.l == 4
    for row in cm.m:
        for nu in range(fan.dim):
            assert sum(row[k] * fan.rays[k][nu] for k in range(fan.n_rays)) == 0
    gens = mori_generators(fan, cm)
    assert gens == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0),
                    (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]
    assert [cm.c1_degree(g) for g in gens] == [1] * 6


# ---------------------------------------------------------------------------
# pairings


def test_pairing_values(corpus):
    _fan, cm, _ring, _gens = corpus["p2"]
    assert [cm.pairing((2,), k) for k in range(3)] == [2, 2, 2]
    assert cm.c1_degree((2,)) == 6
    _fan, cm, _ring, _gens = corpus["hirzebruch1"]
    assert [cm.pairing((1, 1), k) for k in range(4)] == [1, 0, 1, 1]
    assert cm.c1_degree((1, 0)) == 1
    assert cm.c1_degree((0, 1)) == 2


def test_pairing_index_out_of_range(corpus):
    _fan, cm, _ring, _gens = corpus["p2"]
    with pytest.raises(IndexError):
        cm.pairing((1,), 3)


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
    for name, (fan, cm, _ring, gens) in corpus.items():
        assert gens == expected[name], name
        assert gens == mori_generators(fan, cm), name


def test_hirzebruch_drops_non_extremal_wall_class(corpus):
    # the wall class (1,1) = section + fiber is a sum of the two generators
    from qdm.toric import _coords_in_basis

    fan, cm, _ring, gens = corpus["hirzebruch1"]
    wall_coords = {_coords_in_basis(cm.m, rel) for rel in wall_relations(fan)}
    assert wall_coords == {(1, 0), (0, 1), (1, 1)}
    assert (1, 1) not in gens


@pytest.mark.parametrize("name", SHIPPED)
def test_mori_generators_match_the_pruning_reference(shipped, name):
    fan, cm, _ring, gens = shipped[name]
    assert gens == reference_mori_generators(fan, cm)


def test_in_cone_rational_combination():
    assert in_cone((1, 1), [(2, 0), (0, 2)])
    assert not in_cone((1, -1), [(1, 0), (0, 1)])
    assert in_cone((0, 0), [(1, 0), (0, 1), (1, 1)])
    # the cone is described by its facet normals, so the generators must span
    for degree, gens in (((0, 0), []), ((1, 0), []), ((1, 0), [(1, 0)]),
                         ((2, 2), [(1, 1), (2, 2)])):
        with pytest.raises(ValueError, match="do not span"):
            in_cone(degree, gens)


# ---------------------------------------------------------------------------
# degree enumeration


def test_enumerate_degrees_projective_plane(corpus):
    _fan, cm, _ring, gens = corpus["p2"]
    assert enumerate_degrees(gens, cm, 6) == [(0,), (1,), (2,)]
    assert enumerate_degrees(gens, cm, 0) == [(0,)]


def test_enumerate_degrees_product(corpus):
    _fan, cm, _ring, gens = corpus["p1xp1"]
    assert enumerate_degrees(gens, cm, 4) == [
        (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def test_enumerate_degrees_hirzebruch(corpus):
    _fan, cm, _ring, gens = corpus["hirzebruch1"]
    assert enumerate_degrees(gens, cm, 2) == [(0, 0), (1, 0), (0, 1), (2, 0)]


def test_enumerate_degrees_del_pezzo(corpus):
    _fan, cm, _ring, gens = corpus["dp2"]
    out = enumerate_degrees(gens, cm, 3)
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
    # the facet-normal test and in_cone equal the Caratheodory search
    _fan, cm, _ring, gens = shipped[name]
    bound = 6
    facets = _facet_normals(gens, cm.l)
    box = []
    for j in range(cm.l):
        vals = [Fraction(bound * g[j], cm.c1_degree(g)) for g in gens] + [Fraction(0)]
        box.append(range(floor(min(vals)), ceil(max(vals)) + 1))
    inside = []
    for d in product(*box):
        member = reference_in_cone(d, gens)
        assert all(sum(a * b for a, b in zip(y, d)) >= 0 for y in facets) == member, \
            (name, d)
        assert in_cone(d, gens) == member, (name, d)
        if member and 0 <= cm.c1_degree(d) <= bound:
            inside.append(d)
    assert enumerate_degrees(gens, cm, bound) == sorted(
        inside, key=lambda d: (cm.c1_degree(d), d))


def test_enumerate_degrees_rejects_unbounded(corpus):
    _fan, cm, _ring, _gens = corpus["p1"]
    with pytest.raises(ValueError, match="unbounded"):
        enumerate_degrees([(1,), (-1,)], cm, 4)


def test_enumerate_degrees_names_generators_that_do_not_span(corpus):
    _fan, cm, _ring, _gens = corpus["p1xp1"]
    for gens in ([(1, 0)], []):
        with pytest.raises(ValueError, match="generators do not span") as info:
            enumerate_degrees(gens, cm, 4)
        assert not isinstance(info.value, NefBasisError), gens


def test_enumerate_degrees_rejects_negative_bound(corpus):
    _fan, cm, _ring, gens = corpus["p1"]
    with pytest.raises(ValueError, match="nonnegative"):
        enumerate_degrees(gens, cm, -1)
