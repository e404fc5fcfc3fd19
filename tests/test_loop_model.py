"""Finite-mode loop-space data and stabilization of Euler-class ratios."""

import json

import pytest

from conftest import (FAN_DIR, reference_euler_ratio_n, reference_linear_factor,
                      reference_weight_pairs)
from qdm import (
    ChargeMatrix,
    ComponentAbsentError,
    check_stabilization,
    critical_component,
    enumerate_degrees,
    euler_ratio,
    euler_ratio_n,
    min_modes,
)
from qdm.cli import main
from qdm.serialize import class_json, laurent_json


# ---------------------------------------------------------------------------
# component bookkeeping


def test_min_modes(corpus):
    _fan, cm, _ring, _cone = corpus["p1"]
    assert min_modes(cm, (0,)) == 0
    assert min_modes(cm, (1,)) == 1
    assert min_modes(cm, (3,)) == 3
    _fan, cm, _ring, _cone = corpus["hirzebruch1"]
    assert min_modes(cm, (1, 0)) == 1
    assert min_modes(cm, (2, 1)) == 2
    _fan, cm, _ring, _cone = corpus["dp2"]
    assert min_modes(cm, (1, 1, 0)) == 2


def test_critical_component_projective_plane(corpus):
    _fan, cm, _ring, _cone = corpus["p2"]
    data = critical_component(cm, (1,), 2)
    assert data.value == 1
    assert data.positive == ((2, 2),) * 3
    assert data.negative == ((-2, 0),) * 3


def test_critical_component_weight_count(corpus):
    # each coordinate contributes 2N transverse modes; the frozen mode a_k
    # belongs to neither sign class
    for name in ("p2", "p1xp1", "hirzebruch1", "dp2"):
        _fan, cm, _ring, cone = corpus[name]
        for d in enumerate_degrees(cone, cm, 4):
            n_cut = min_modes(cm, d) + 1
            data = critical_component(cm, d, n_cut)
            for k, (pos, neg) in enumerate(zip(data.positive, data.negative)):
                a_k = cm.pairings(d)[k]
                sizes = [max(0, hi - lo + 1) for lo, hi in (pos, neg)]
                assert sum(sizes) == 2 * n_cut, (name, d, k)
                assert neg[1] < a_k < pos[0], (name, d, k)


def test_critical_value_and_degree_length(corpus):
    # the symplectic form is the sum of the nef basis classes
    _fan, cm, ring, _cone = corpus["p1xp1"]
    assert critical_component(cm, (1, 2), 2).value == 3
    assert check_stabilization(ring, (1, 2), [2])["critical_value"] == "3"
    with pytest.raises(ValueError, match="degree needs 2 coordinates"):
        critical_component(cm, (1,), 2)


def test_component_absent_below_cutoff(corpus):
    _fan, cm, ring, _cone = corpus["p2"]
    with pytest.raises(ComponentAbsentError, match="at least N = 1"):
        critical_component(cm, (1,), 0)
    with pytest.raises(ComponentAbsentError):
        euler_ratio_n(ring, (2,), 1)


def _degrees_and_cutoffs(shipped, extra):
    """(name, cm, ring, d, N) for c1(d) <= 4 and N = N(d)..N(d)+extra."""
    for name, (_fan, cm, ring, cone) in shipped.items():
        for d in enumerate_degrees(cone, cm, 4):
            base = min_modes(cm, d)
            for n_cut in range(base, base + extra + 1):
                yield name, cm, ring, d, n_cut


def test_intervals_expand_to_reference_pairs(shipped):
    for name, cm, _ring, d, n_cut in _degrees_and_cutoffs(shipped, 2):
        data = critical_component(cm, d, n_cut)
        expanded = tuple(
            tuple(sorted((k, nu) for k, (lo, hi) in enumerate(side)
                         for nu in range(lo, hi + 1)))
            for side in (data.positive, data.negative))
        assert expanded == reference_weight_pairs(cm, d, n_cut), (name, d, n_cut)


def test_finite_mode_ratio_matches_reference_cancellation(shipped):
    for name, cm, ring, d, n_cut in _degrees_and_cutoffs(shipped, 2):
        assert euler_ratio_n(ring, d, n_cut) == \
            reference_euler_ratio_n(ring, cm, d, n_cut), (name, d, n_cut)


def test_finite_mode_ratio_times_degree_zero_euler_class(shipped):
    # the finite-mode identity with nothing cancelled or inverted:
    # R_d * prod_k prod_{nu=1}^{N} (alpha_k + nu) == prod_k prod_{nu=a_k+1}^{N} (alpha_k + nu)
    for name, cm, ring, d, n_cut in _degrees_and_cutoffs(shipped, 1):
        lhs = euler_ratio_n(ring, d, n_cut)
        rhs = ring.one()
        for k in range(cm.n):
            alpha = ring.generator(k)
            for nu in range(1, n_cut + 1):
                lhs = lhs * reference_linear_factor(ring, alpha, nu)
            for nu in range(cm.pairings(d)[k] + 1, n_cut + 1):
                rhs = rhs * reference_linear_factor(ring, alpha, nu)
        assert lhs == rhs, (name, d, n_cut)


# ---------------------------------------------------------------------------
# stabilization


def test_finite_mode_ratio_hirzebruch_numerator(corpus):
    # for the section class the zero mode of the second coordinate survives
    # in the numerator: the ratio is x_1 / ((x_0 + hbar)(x_2 + hbar))
    _fan, cm, ring, _cone = corpus["hirzebruch1"]
    ratio = euler_ratio_n(ring, (1, 0), 1)
    by_hbar = {e["hbar"]: e["class"] for e in laurent_json(ratio, cm.c1_degree((1, 0)))}
    assert by_hbar[-2] == class_json(ring.generator(1))
    assert ratio == euler_ratio(ring, (1, 0))


def test_check_stabilization_report(corpus):
    _fan, cm, ring, _cone = corpus["p1"]
    report = check_stabilization(ring, (1,), [2, 1, 2])
    assert report["degree"] == [1]
    assert report["min_modes"] == 1
    assert report["N_list"] == [1, 2]
    assert report["critical_value"] == "1"
    assert "mode_checks" not in report
    assert report["stable"] is True
    assert report["ratio"] == laurent_json(euler_ratio(ring, (1,)), 2)
    assert report["weights"] == {"positive": [[2, 2], [2, 2]],
                                 "negative": [[-2, 0], [-2, 0]]}
    json.dumps(report)  # must be serializable as-is


def test_check_stabilization_weights_at_largest_cutoff(corpus):
    _fan, cm, ring, _cone = corpus["p2"]
    report = check_stabilization(ring, (1,), [1, 3])
    assert report["weights"] == {"positive": [[2, 3]] * 3,
                                 "negative": [[-3, 0]] * 3}
    assert report["stable"] is True


def test_check_stabilization_requires_enough_modes(corpus, capsys):
    # cutoffs below N(d) are skipped, and with none left the report is the
    # CLI's error entry; only an empty request raises
    _fan, cm, ring, _cone = corpus["p2"]
    report = check_stabilization(ring, (2,), [1, 2, 3])
    assert report["N_list"] == [2, 3]
    assert report["skipped_modes"] == [1]
    assert report["stable"] is True
    assert "skipped_modes" not in check_stabilization(ring, (2,), [2, 3])
    error = {"degree": [2], "min_modes": 2, "skipped_modes": [0, 1],
             "stable": False, "error": "all requested cutoffs below N(d)"}
    assert check_stabilization(ring, (2,), [1, 0]) == error
    assert main(["loop-model", str(FAN_DIR / "p2.json"), "--degree", "2",
                 "--modes", "0..1"]) == 1
    assert json.loads(capsys.readouterr().out)["reports"] == [error]
    with pytest.raises(ValueError, match="no mode cutoffs"):
        check_stabilization(ring, (2,), [])


def test_check_stabilization_default_cutoffs_are_the_cli_entry(corpus, capsys):
    _fan, cm, ring, cone = corpus["dp2"]
    assert main(["loop-model", str(FAN_DIR / "dp2.json"), "--max-degree", "3"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    degrees = [d for d in enumerate_degrees(cone, cm, 3) if any(d)]
    assert reports == [check_stabilization(ring, d) for d in degrees]
    assert [r["N_list"] for r in reports] == \
        [list(range(min_modes(cm, d), min_modes(cm, d) + 4)) for d in degrees]


# a float, a string or a bool cutoff is refused, never truncated


def test_cutoffs_must_be_integers(corpus):
    _fan, cm, ring, _cone = corpus["p2"]
    with pytest.raises(ValueError, match="expected integers"):
        check_stabilization(ring, (1,), [1.9, "3", True])
    for bad in (1.9, "3", True):
        with pytest.raises(ValueError, match="expected integers"):
            check_stabilization(ring, (1,), [2, bad])


def test_critical_component_refuses_a_float_cutoff(corpus):
    _fan, cm, _ring, _cone = corpus["p2"]
    with pytest.raises(ValueError, match="expected integers"):
        critical_component(cm, (1,), 2.5)


def test_euler_ratio_n_refuses_a_bool_cutoff(corpus):
    _fan, cm, ring, _cone = corpus["p2"]
    with pytest.raises(ValueError, match="expected integers"):
        euler_ratio_n(ring, (1,), True)


def test_degree_entries_must_be_integers(corpus):
    # a float degree once gave the critical value 1.5 and the interval
    # (2.5, 2), and a bool one the critical value "1"
    _fan, cm, ring, _cone = corpus["p2"]
    with pytest.raises(ValueError, match="expected integers"):
        critical_component(cm, (1.5,), 2)
    with pytest.raises(ValueError, match="expected integers"):
        check_stabilization(ring, (True,), [2])
    with pytest.raises(ValueError, match="expected integers"):
        euler_ratio_n(ring, (1.5,), 2)


@pytest.mark.parametrize("degree, modes, error, message", [
    ((True,), 3, ValueError, "expected integers, got [True]"),
    ((1.5,), 3, ValueError, "expected integers, got [1.5]"),
    ((1, 0, 0), True, ValueError, "expected integers, got [True]"),
    ((1,), 0, ValueError, "degree needs 4 coordinates, got (1,)"),
    ((1, 0, 0, 0), 0, ComponentAbsentError,
     "component of degree [1, 0, 0, 0] needs at least N = 1 modes, got 0"),
])
def test_checks_run_entries_then_cutoff_then_length(shipped, degree, modes,
                                                    error, message):
    # an input bad in two ways reports the first check it fails, the same
    # through critical_component and euler_ratio_n
    _fan, cm, ring, _cone = shipped["dp3"]
    for call, first in ((critical_component, cm), (euler_ratio_n, ring)):
        with pytest.raises(error) as raised:
            call(first, degree, modes)
        assert type(raised.value) is error and str(raised.value) == message, call


def test_a_component_computes_its_pairings_once(monkeypatch, corpus):
    _fan, cm, ring, _cone = corpus["dp2"]
    euler_ratio(ring, (1, 0, 0))
    calls = []
    pairings = ChargeMatrix.pairings

    def spy(self, degree):
        calls.append(degree)
        return pairings(self, degree)

    monkeypatch.setattr(ChargeMatrix, "pairings", spy)
    critical_component(cm, (1, 0, 0), 3)
    assert calls == [(1, 0, 0)]
    calls.clear()
    euler_ratio_n(ring, (1, 0, 0), 3)
    assert calls == [(1, 0, 0)]


def test_an_iterator_degree_is_read_once(corpus):
    # the validated tuple, not the argument, is what the functions read
    _fan, cm, ring, _cone = corpus["p2"]
    assert critical_component(cm, iter([1]), 3) == critical_component(cm, (1,), 3)
    assert euler_ratio_n(ring, iter([1]), 3) == euler_ratio_n(ring, (1,), 3)
    assert check_stabilization(ring, iter([1])) == check_stabilization(ring, (1,))
