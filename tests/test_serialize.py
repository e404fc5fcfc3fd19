"""Stable renderings: fractions, monomials, operators, text reports."""

from fractions import Fraction

import pytest

from qdm import DiffOp, QuantumRelation, euler_ratio, gkz_operator, semiclassical
from qdm import serialize
from qdm.toric import parse_frac


def test_frac_str():
    assert serialize.frac_str(Fraction(3, 6)) == "1/2"
    assert serialize.frac_str(4) == "4"
    assert serialize.frac_str(Fraction(-2, 1)) == "-2"
    assert serialize.frac_str(Fraction(-5, 10)) == "-1/2"


def test_parse_frac():
    assert parse_frac(3) == Fraction(3)
    assert parse_frac("2/5") == Fraction(2, 5)
    assert parse_frac("-7") == Fraction(-7)
    assert parse_frac("10/10") == Fraction(1)
    for bad in (True, 1.5, None, [1], "x", "1/0",
                "1.0", "1e0", " 1 ", "+1", "1_0", "1/-2", "\u0663"):
        with pytest.raises(ValueError):
            parse_frac(bad)
    value = Fraction(-22, 7)
    assert parse_frac(serialize.frac_str(value)) == value


def test_mono_str():
    assert serialize.mono_str((0, 0, 0)) == "1"
    assert serialize.mono_str((1, 0, 2)) == "x1*x3^2"
    assert serialize.mono_str((0, 1, 0)) == "x2"


def test_class_json_ordering(corpus):
    _fan, _cm, ring, _gens = corpus["p2"]
    cls = ring.one().scale(2) + ring.generator(0)
    data = serialize.class_json(cls)
    assert data == {"1": "2", "x3": "1"}
    assert list(data) == ["1", "x3"]


def test_laurent_json(corpus):
    _fan, cm, ring, _gens = corpus["p1"]
    r1 = euler_ratio(ring, cm, (1,))
    assert serialize.laurent_json(r1, cm.c1_degree((1,))) == [
        {"hbar": -3, "class": {"x2": "-2"}},
        {"hbar": -2, "class": {"1": "1"}},
    ]


def test_op_str(corpus):
    _fan, cm, _ring, _gens = corpus["p1"]
    assert serialize.op_str(gkz_operator(cm, (1,))) == "theta1^2 - q1"
    # triples are graded by (q, theta, hbar), so low theta powers come first
    assert serialize.op_str(gkz_operator(cm, (2,))) == \
        "theta1^2*hbar^2 - 2*theta1^3*hbar + theta1^4 - q1^2"
    assert serialize.op_str(DiffOp.zero(cm)) == "0"
    assert serialize.op_str(DiffOp.identity(cm)) == "1"
    assert serialize.op_str(DiffOp.hbar(cm).scale(Fraction(1, 2))) == "1/2*hbar"


def test_op_json(corpus):
    _fan, cm, _ring, _gens = corpus["p1"]
    data = serialize.op_json(gkz_operator(cm, (1,)))
    assert data == [
        {"q": [0], "terms": [{"theta": [2], "hbar": 0, "coeff": "1"}]},
        {"q": [1], "terms": [{"theta": [0], "hbar": 0, "coeff": "-1"}]},
    ]
    # theta^2 (theta - hbar)^2 - q^2: each hbar exponent follows from the weight 4
    assert serialize.op_json(gkz_operator(cm, (2,))) == [
        {"q": [0], "terms": [{"theta": [2], "hbar": 2, "coeff": "1"},
                             {"theta": [3], "hbar": 1, "coeff": "-2"},
                             {"theta": [4], "hbar": 0, "coeff": "1"}]},
        {"q": [2], "terms": [{"theta": [0], "hbar": 0, "coeff": "-1"}]},
    ]


def test_relation_str(corpus):
    _fan, cm, _ring, _gens = corpus["p1"]
    assert serialize.relation_str(semiclassical(gkz_operator(cm, (1,)))) == \
        "p1^2 - q1"
    _fan, cm, _ring, _gens = corpus["hirzebruch1"]
    assert serialize.relation_str(semiclassical(gkz_operator(cm, (1, 0)))) == \
        "p1^2 - q1*p2 + q1*p1"
    assert serialize.relation_str(QuantumRelation(1, {})) == "0"
    assert serialize.relation_str(
        QuantumRelation(1, {((0,), (0,)): Fraction(1)})) == "1"


def test_render_text_scalars_and_inlining():
    data = {
        "ok": True,
        "failed": False,
        "dims": [1, 2, 1],
        "empty": [],
        "nothing": {},
        "nested": {"a": [10, 20]},
        "rows": [[1, 0], [0, 1]],
    }
    text = serialize.render_text(data)
    lines = text.splitlines()
    assert "ok: true" in lines
    assert "failed: false" in lines
    assert "dims: [1, 2, 1]" in lines
    assert "empty: []" in lines
    assert "nothing: {}" in lines
    assert "  a: [10, 20]" in lines
    assert "rows: [[1, 0], [0, 1]]" in lines


def test_render_text_long_lists_go_multiline():
    data = {"big": [list(range(20)), list(range(20, 40))]}
    text = serialize.render_text(data)
    assert text.splitlines()[0] == "big:"
    assert text.count("\n") >= 2
