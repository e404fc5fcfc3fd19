"""Finite-mode loop-space data and stabilization of Euler-class ratios."""

import json
from fractions import Fraction

import pytest

from qdm import (
    ComponentAbsentError,
    action_value,
    check_stabilization,
    critical_component,
    enumerate_degrees,
    euler_ratio,
    euler_ratio_n,
    min_modes,
)
from qdm.serialize import class_json, laurent_json


# ---------------------------------------------------------------------------
# the quadratic action


def test_action_value_single_modes():
    # one coordinate, cutoff N=1, unit mass in mode +1
    assert action_value([[0, 0, 1]]) == Fraction(1, 2)
    assert action_value([[1, 0, 0]]) == Fraction(-1, 2)
    assert action_value([[0, 1, 0]]) == 0
    # the degree-one component on the line freezes both coordinates in mode 1
    assert action_value([[0, 0, 1], [0, 0, 1]]) == 1


def test_action_value_is_linear():
    rows_a = [[1, 2, 0, 0, 3]]
    rows_b = [[0, 1, 1, 4, 0]]
    summed = [[a + b for a, b in zip(rows_a[0], rows_b[0])]]
    assert action_value(summed) == action_value(rows_a) + action_value(rows_b)
    doubled = [[2 * x for x in rows_a[0]]]
    assert action_value(doubled) == 2 * action_value(rows_a)


def test_action_value_exact_fractions():
    assert action_value([[Fraction(1, 3), 0, Fraction(1, 5)]]) == \
        Fraction(-1, 6) + Fraction(1, 10)


def test_action_value_input_errors():
    with pytest.raises(ValueError, match="no mode"):
        action_value([])
    with pytest.raises(ValueError, match="odd length"):
        action_value([[0, 1]])
    with pytest.raises(ValueError, match="same length"):
        action_value([[0, 0, 1], [0, 1]])


# ---------------------------------------------------------------------------
# component bookkeeping


def test_min_modes(corpus):
    _fan, cm, _ring, _gens = corpus["p1"]
    assert min_modes(cm, (0,)) == 0
    assert min_modes(cm, (1,)) == 1
    assert min_modes(cm, (3,)) == 3
    _fan, cm, _ring, _gens = corpus["hirzebruch1"]
    assert min_modes(cm, (1, 0)) == 1
    assert min_modes(cm, (2, 1)) == 2
    _fan, cm, _ring, _gens = corpus["dp2"]
    assert min_modes(cm, (1, 1, 0)) == 2


def test_critical_component_projective_plane(corpus):
    fan, cm, _ring, _gens = corpus["p2"]
    data = critical_component(fan, cm, None, (1,), 2)
    assert data.degree == (1,)
    assert data.modes == 2
    assert data.value == 1
    assert data.weights.positive == ((0, 2), (1, 2), (2, 2))
    assert data.weights.negative == tuple(sorted(
        (k, nu) for k in range(3) for nu in (-2, -1, 0)))


def test_critical_component_weight_count(corpus):
    # each coordinate contributes 2N transverse modes; the frozen mode a_k
    # belongs to neither sign class
    for name in ("p2", "p1xp1", "hirzebruch1", "dp2"):
        fan, cm, _ring, gens = corpus[name]
        for d in enumerate_degrees(gens, cm, 4):
            n_cut = min_modes(cm, d) + 1
            data = critical_component(fan, cm, None, d, n_cut)
            pos, neg = set(data.weights.positive), set(data.weights.negative)
            assert len(pos) + len(neg) == cm.n * 2 * n_cut, (name, d)
            assert not pos & neg
            for k in range(cm.n):
                assert (k, cm.pairing(d, k)) not in pos | neg


def test_critical_component_lam(corpus):
    fan, cm, _ring, _gens = corpus["p1xp1"]
    data = critical_component(fan, cm, [Fraction(5, 2), 3], (1, 2), 2)
    assert data.value == Fraction(5, 2) + 6
    with pytest.raises(ValueError, match="one coefficient per nef"):
        critical_component(fan, cm, [1], (1, 0), 2)
    with pytest.raises(ValueError, match="wrong number"):
        critical_component(fan, cm, None, (1,), 2)


def test_critical_component_mismatched_fan(corpus):
    fan = corpus["p2"][0]
    cm = corpus["p1"][1]
    with pytest.raises(ValueError, match="does not match"):
        critical_component(fan, cm, None, (1,), 2)


def test_component_absent_below_cutoff(corpus):
    fan, cm, ring, _gens = corpus["p2"]
    with pytest.raises(ComponentAbsentError, match="at least N = 1"):
        critical_component(fan, cm, None, (1,), 0)
    with pytest.raises(ComponentAbsentError):
        euler_ratio_n(ring, cm, (2,), 1)


# ---------------------------------------------------------------------------
# stabilization


def test_finite_mode_ratio_matches_stable_form(corpus):
    for name, (_fan, cm, ring, gens) in corpus.items():
        for d in enumerate_degrees(gens, cm, 4):
            stable = euler_ratio(ring, cm, d, allow_general_sign=True)
            base = min_modes(cm, d)
            for n_cut in (base, base + 1, base + 2):
                if n_cut == 0:
                    continue
                assert euler_ratio_n(ring, cm, d, n_cut) == stable, (name, d, n_cut)


def test_finite_mode_ratio_hirzebruch_numerator(corpus):
    # for the section class the zero mode of the second coordinate survives
    # in the numerator: the ratio is x_1 / ((x_0 + hbar)(x_2 + hbar))
    _fan, cm, ring, _gens = corpus["hirzebruch1"]
    ratio = euler_ratio_n(ring, cm, (1, 0), 1)
    by_hbar = {e["hbar"]: e["class"] for e in laurent_json(ratio, cm.c1_degree((1, 0)))}
    assert by_hbar[-2] == class_json(ring.generator(1))
    assert ratio == euler_ratio(ring, cm, (1, 0), allow_general_sign=True)


def test_check_stabilization_report(corpus):
    fan, cm, ring, _gens = corpus["p1"]
    report = check_stabilization(ring, cm, (1,), [2, 1, 2], fan=fan)
    assert report["degree"] == [1]
    assert report["min_modes"] == 1
    assert report["N_list"] == [1, 2]
    assert report["critical_value"] == "1"
    assert [c["N"] for c in report["mode_checks"]] == [1, 2]
    assert all(c["matches_stable"] for c in report["mode_checks"])
    assert report["stable"] is True
    assert "ratio" in report
    assert sorted(map(tuple, report["weights"]["positive"])) == [(0, 2), (1, 2)]
    json.dumps(report)  # must be serializable as-is


def test_check_stabilization_without_fan_omits_weights(corpus):
    _fan, cm, ring, _gens = corpus["p2"]
    report = check_stabilization(ring, cm, (1,), [1, 3])
    assert "weights" not in report
    assert report["stable"] is True


def test_check_stabilization_lam(corpus):
    _fan, cm, ring, _gens = corpus["p1xp1"]
    report = check_stabilization(ring, cm, (1, 2), [2], lam=[3, Fraction(1, 2)])
    assert report["critical_value"] == "4"
    assert report["min_modes"] == 2


def test_check_stabilization_requires_enough_modes(corpus):
    _fan, cm, ring, _gens = corpus["p2"]
    with pytest.raises(ComponentAbsentError):
        check_stabilization(ring, cm, (2,), [1, 2])
