"""End-to-end command line checks: exit codes, determinism, report shape."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from itertools import islice
from math import factorial

import pytest

from qdm import cli, cohomology, ifunction, loop_model, serialize, toric
from qdm.cli import main

from conftest import (BENCH_FANS, DOUBLE_CYCLE_CONES, DOUBLE_CYCLE_NEF, DOUBLE_CYCLE_RAYS,
                      FAN_DIR, SHIPPED, same_fan_copies)

LAYERS = FAN_DIR.parent / "perfbench" / "layers.py"
BENCHMARK = FAN_DIR.parent / "perfbench" / "run.py"


def fan_path(name):
    return str(FAN_DIR / ("%s.json" % name))


def golden_fan_path(name, tmp_path):
    """The shipped fan's path or, for a benchmark fan that fans/ lacks, its
    rays, max_cones and nef_basis written to tmp_path."""
    if (FAN_DIR / ("%s.json" % name)).exists():
        return fan_path(name)
    data = json.loads(BENCH_FANS.read_text())[name]
    path = tmp_path / ("%s.json" % name)
    path.write_text(json.dumps({key: data[key] for key in ("rays", "max_cones", "nef_basis")
                                if key in data}))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# exit codes


def test_missing_file_is_an_input_error(capsys):
    assert main(["cohomology", "no-such-fan.json"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_fan_is_an_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rays": [[2], [-1]], "max_cones": [[0], [1]]}')
    assert main(["cohomology", str(bad)]) == 2
    assert "not primitive" in capsys.readouterr().err


def test_deeply_nested_fan_is_an_input_error(tmp_path, capsys):
    # json gives up on deep nesting with a RecursionError, not a decode error
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main(["cohomology", str(deep)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed fan file")


@pytest.mark.parametrize("command", ["ifunction", "operators", "loop-model"])
def test_degree_box_too_large_to_list(capsys, command):
    # refused before a point of the box is listed
    assert main([command, fan_path("p2"), "--max-degree", "99999999999"]) == 2
    assert capsys.readouterr().err == (
        "error: the degree box at bound 99999999999 holds 33333333334 points, "
        "more than 10000000\n")


def test_bad_degree_option(capsys):
    assert main(["operators", fan_path("p1"), "--degree", "x"]) == 2
    assert "bad --degree" in capsys.readouterr().err
    assert main(["operators", fan_path("p1"), "--degree", "1,2"]) == 2


def test_bad_modes_option(capsys):
    assert main(["loop-model", fan_path("p1"), "--modes", "zz"]) == 2
    assert "bad --modes" in capsys.readouterr().err
    assert main(["loop-model", fan_path("p1"), "--modes", "3..1"]) == 2
    # the longest range allowed runs; one more cutoff is refused
    assert cli.MAX_MODE_CUTOFFS == 1000
    assert main(["loop-model", fan_path("p1"), "--modes", "5..1004"]) == 0
    assert json.loads(capsys.readouterr().out)["reports"][0]["N_list"] == list(range(5, 1005))
    assert main(["loop-model", fan_path("p1"), "--modes", "5..1005"]) == 2
    assert "--modes range '5..1005' lists 1001 cutoffs" in capsys.readouterr().err


P2_TEXT = '{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}'
P1XP1_TEXT = ('{"rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],'
              ' "max_cones": [[0, 2], [2, 1], [1, 3], [3, 0]]}')
NON_PROJECTIVE_TEXT = (
    '{"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [-1, -1, 0], [0, -1, -1],'
    ' [-1, 0, -1]], "max_cones": [[0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 4, 5], [1, 2, 6],'
    ' [1, 5, 6], [2, 4, 6], [3, 4, 5], [3, 4, 6], [3, 5, 6]]}')


@pytest.mark.parametrize("fan_text, argv, message", [
    ('{"rays": [[1.5, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}',
     ["cohomology"], "ray entries must be integers"),
    ('{"rays": [[true, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}',
     ["cohomology"], "ray entries must be integers"),
    ('{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 0.7], [1, 2], [0, 2]]}',
     ["cohomology"], "cone indices must be integers"),
    ('{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]],'
     ' "nef_basis": [[true, 0, 0]]}', ["cohomology"], "nef_basis entries"),
    (P2_TEXT, ["ifunction", "--components", "9"], "--components index 9"),
    (P2_TEXT, ["ifunction", "--components", "0,x"], "bad --components"),
    # a repeated index is refused, not merged into one entry
    (P2_TEXT, ["ifunction", "--components", "0,0"], "--components index 0 is repeated"),
    (P2_TEXT, ["ifunction", "--components", "2,1,2"], "--components index 2 is repeated"),
    (P2_TEXT, ["loop-model", "--degree", "-1"], "outside the Mori cone"),
    (P1XP1_TEXT, ["loop-model", "--degree", "1,,0"], "bad --degree"),
    (P1XP1_TEXT, ["loop-model", "--degree", "1_0,0"], "bad --degree"),
    (P2_TEXT, ["loop-model", "--modes", "1_0"], "bad --modes"),
    (P2_TEXT, ["ifunction", "--max-degree", "1_0"], "bad --max-degree"),
    (P2_TEXT, ["ifunction", "--max-degree", " +3"], "bad --max-degree"),
    (P2_TEXT, ["operators", "--theta-order", "0_2"], "bad --theta-order"),
    (P2_TEXT, ["loop-model", "--modes=-1"], "--modes cutoffs must be nonnegative"),
    (P2_TEXT, ["loop-model", "--modes=-2..1"], "--modes cutoffs must be nonnegative"),
    (P1XP1_TEXT, ["operators", "--degree", "0,0"], "zero degree"),
    (P2_TEXT, ["cohomology", "--out", "no-such-dir/report.json"], "cannot write the report"),
    (P2_TEXT, ["cohomology", "--out", "."], "cannot write the report"),
    ('{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]],'
     ' "nef_basis": [["1.0", 0, 0]]}', ["cohomology"], "nef_basis entries"),
    # unimodular cones, each wall in two of them, but the cones folded over
    # wall [0]: only the wall relation catches it
    ('{"rays": [[1, 0], [1, 1], [0, 1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}',
     ["cohomology"], "wall [0] does not span a hyperplane"),
    # each local check passes, but the cones wind twice around the origin;
    # the nef basis would carry them past charge_matrix to a ring
    (json.dumps({"rays": DOUBLE_CYCLE_RAYS, "max_cones": DOUBLE_CYCLE_CONES,
                 "nef_basis": DOUBLE_CYCLE_NEF}), ["cohomology"],
     "maximal cones [0, 1] and [8, 9] overlap: the cones are not a fan"),
    # a smooth complete fan with 2 nef rays in Picard rank 4 has no nef basis
    (NON_PROJECTIVE_TEXT, ["cohomology"],
     "nef cone spans 2 of 4 dimensions: the fan is not projective"),
    # the same fan with a supplied basis: a lattice basis, but the Mori cone
    # its curves span holds a line, so no basis can be nef
    (NON_PROJECTIVE_TEXT[:-1] + ', "nef_basis": [[0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0],'
     ' [0, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 0, 1]]}', ["cohomology"],
     "the Mori cone contains a line, so the fan is not projective"),
    (P2_TEXT[:-1] + ', "nef_basis": [[-1, 0, 0]]}', ["cohomology"],
     "wall curve class pairs negatively with the nef basis"),
    ('{"rays": [], "max_cones": [[0]]}', ["cohomology"], "fan has no rays"),
    ('{"rays": [[]], "max_cones": [[0]]}', ["cohomology"],
     "rays must have at least one coordinate"),
    ('{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": []}', ["cohomology"],
     "fan has no maximal cones"),
    (P2_TEXT, ["loop-model", "--modes", " 3"], "bad --modes"),
    (P2_TEXT, ["loop-model", "--modes", " 2..3 "], "bad --modes"),
    ('{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": 3}', ["cohomology"],
     "max_cones must be a list"),
    ('{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": 3.5}', ["cohomology"],
     "max_cones must be a list"),
    ('{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": true}', ["cohomology"],
     "max_cones must be a list"),
    # sizes past a machine index: the degree box and the mode range
    (P2_TEXT, ["ifunction", "--max-degree", "100000000000000000000000"],
     "--max-degree value '100000000000000000000000' is too large"),
    (P2_TEXT, ["loop-model", "--modes", "0..100000000000000000000000"],
     "--modes value '0..100000000000000000000000' is too large"),
    # a range within a machine index but too long to list
    (P2_TEXT, ["loop-model", "--modes", "0..4000000000"],
     "--modes range '0..4000000000' lists 4000000001 cutoffs, more than 1000"),
    (P2_TEXT, ["loop-model", "--modes", "0..9223372036854775807"],
     "--modes range '0..9223372036854775807' lists 9223372036854775808 cutoffs"),
    # a negative bound is named by its option, not by the library call it reaches
    (P2_TEXT, ["ifunction", "--max-degree=-1"], "--max-degree must be nonnegative, got '-1'"),
    (P2_TEXT, ["operators", "--theta-order=-1"], "--theta-order must be nonnegative, got '-1'"),
    (P2_TEXT, ["operators", "--q-degree=-2"], "--q-degree must be nonnegative, got '-2'"),
    (P2_TEXT, ["ifunction", "--components", "0", "--log-order=-1"],
     "--log-order must be nonnegative, got '-1'"),
    # a nef_basis vector that is not a list is refused, not walked as one:
    # "100" by its characters, {"100": 1} and the object by their keys
    ('{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]],'
     ' "nef_basis": ["100"]}', ["cohomology"], "nef_basis must be a list"),
    ('{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]],'
     ' "nef_basis": {"100": 1}}', ["cohomology"], "nef_basis must be a list"),
    ('{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]],'
     ' "nef_basis": [{"1": 5, "0": 7, "00": 1}]}', ["cohomology"],
     "nef_basis must be a list"),
])
def test_bad_input_is_one_error_line(tmp_path, monkeypatch, capfd, fan_text, argv, message):
    monkeypatch.chdir(tmp_path)  # so relative --out paths resolve inside tmp_path
    fan = tmp_path / "fan.json"
    fan.write_text(fan_text)
    assert main([argv[0], str(fan)] + argv[1:]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert message in lines[0]


def test_a_basis_that_is_not_nef_is_refused_before_the_ring(tmp_path, monkeypatch, capsys):
    # mori_generators judges the supplied basis, and the ring is never built
    fan = tmp_path / "fan.json"
    fan.write_text(P2_TEXT[:-1] + ', "nef_basis": [[-1, 0, 0]]}')
    built = []
    monkeypatch.setattr(cli, "build_ring", lambda *args: built.append(args))
    assert main(["cohomology", str(fan)]) == 2
    assert capsys.readouterr().err == ("error: wall curve class pairs negatively "
                                       "with the nef basis\n")
    assert built == []


def test_a_rational_nef_basis_vector_is_read(tmp_path, capsys):
    # on P^2, D1/2 + D2/2 = H: the same nef class as the derived basis
    fan = tmp_path / "fan.json"
    fan.write_text(P2_TEXT[:-1] + ', "nef_basis": [["1/2", "1/2", 0]]}')
    plain = tmp_path / "plain.json"
    plain.write_text(P2_TEXT)
    code, report = run_json(capsys, ["cohomology", str(fan)])
    assert code == 0
    assert report == run_json(capsys, ["cohomology", str(plain)])[1]


@pytest.mark.parametrize("argv, message", [
    # the window refuses a degree before its box operator is composed
    (["operators", "p2", "--degree", "99999999999"],
     "operator q-support exceeds the series truncation (bound 6)"),
    # the ansatz is counted before it is listed: the window would refuse
    # this one only after listing it, and on dp3, where c1(e_1) = 0, never
    (["operators", "p1xp1", "--q-degree", "100000"],
     "the ansatz has 50001500010 columns, more than 10000000"),
    # one R_d is refused by the size of its numbers before its linear passes
    (["loop-model", "p2", "--degree", "99999999999"],
     "R_d of degree [99999999999] may reach numbers of 11099999999889 bits, "
     "more than MAX_RATIO_BITS = 131072"),
    # 90,000 passes, far under the old 10^7-pass cap, yet it ran past 15 s
    (["loop-model", "p2", "--degree", "30000"],
     "R_d of degree [30000] may reach numbers of 1350000 bits, "
     "more than MAX_RATIO_BITS = 131072"),
    # 5,001 ratios, each under that cap, yet it ran past 100 s: their
    # bounds sum to 302703570 bits, times the chi = 2 numerators of each R_d
    (["ifunction", "p1", "--max-degree", "10000"],
     "the R_d of the series window at bound 10000 may reach 605407140 bits in all, "
     "more than MAX_WINDOW_BITS = 67108864"),
    (["loop-model", "p1", "--max-degree", "10000"],
     "the R_d of the series window at bound 10000 may reach 605407140 bits in all, "
     "more than MAX_WINDOW_BITS = 67108864"),
    # the last bounds the window budget admits on p1 and dp3 are 3565 and 25
    (["ifunction", "p1", "--max-degree", "3566"],
     "the R_d of the series window at bound 3566 may reach 67187076 bits in all, "
     "more than MAX_WINDOW_BITS = 67108864"),
    (["ifunction", "dp3", "--max-degree", "26"],
     "the R_d of the series window at bound 26 may reach 76550580 bits in all, "
     "more than MAX_WINDOW_BITS = 67108864"),
])
def test_a_size_past_the_cap_is_refused_before_the_work(argv, message):
    src = str(FAN_DIR.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "qdm.cli", argv[0], fan_path(argv[1])]
                          + argv[2:], capture_output=True, text=True, env=env, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: %s\n" % message)


def test_loop_model_refuses_an_oversized_window_before_any_ratio(monkeypatch, capsys):
    # the default loop-model window is build_f's, checked against
    # MAX_RATIO_BITS before the first ratio: on P^2 at bound 30000 degree
    # 3641 is the first past it, and none of the 3640 below it is stepped
    def refuse(*args):
        raise AssertionError("a ratio was stepped")

    for method in ("times_linear", "divide_linear"):
        monkeypatch.setattr(cohomology.CohomRing, method, refuse)
    assert main(["loop-model", fan_path("p2"), "--max-degree", "30000"]) == 2
    assert capsys.readouterr() == ("", "error: R_d of degree [3641] may reach numbers of "
                                       "131076 bits, more than MAX_RATIO_BITS = 131072\n")


def test_exact_rationals_print_past_the_digit_limit(tmp_path, capsys):
    # R_900 on P^1 has the constant term 1/(900!)^2, a denominator of 4,540
    # digits; the limit is lifted only after the fan is read, and restored
    # after the run
    limit = sys.get_int_max_str_digits()
    code, report = run_json(capsys, ["loop-model", fan_path("p1"), "--degree", "900"])
    assert code == 0 and sys.get_int_max_str_digits() == limit
    (term,) = [e for e in report["reports"][0]["ratio"] if e["hbar"] == -1800]
    sys.set_int_max_str_digits(0)
    try:
        assert term["class"] == {"1": "1/%d" % factorial(900) ** 2}
    finally:
        sys.set_int_max_str_digits(limit)
    fan = tmp_path / "fan.json"
    fan.write_text('{"rays": [[%s], [-1]], "max_cones": [[0], [1]]}' % ("9" * 5001))
    assert main(["cohomology", str(fan)]) == 2
    assert "Exceeds the limit (4300 digits)" in capsys.readouterr().err


@pytest.mark.parametrize("command, argv", [
    ("cohomology", []),
])
def test_a_singular_pairing_block_is_an_input_error(monkeypatch, capfd, command, argv):
    # the dual basis inverts each block; a singular one names its degree
    original = cohomology.CohomRing.pairing

    def singular(self, deg):
        rows, den = original(self, deg)
        return (((0,) * len(rows[0]),) + rows[1:] if deg == 1 else rows), den
    monkeypatch.setattr(cohomology.CohomRing, "pairing", singular)
    assert main([command, fan_path("p1xp1")] + argv) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: Poincare pairing block 1,1 is degenerate; "
                            "fan data is invalid\n")


@pytest.mark.parametrize("argv", [
    ["cohomology", "p1", "--max-degree", "4"],
    ["ifunction", "p1", "--modes", "1..2"],
    ["loop-model", "p1", "--theta-order", "2"],
    ["operators", "p1", "--hbar-order", "2"],
])
def test_subcommand_rejects_options_it_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main([argv[0], fan_path(argv[1])] + argv[2:])
    assert info.value.code == 2
    assert "unrecognized arguments: " + argv[2] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ifunction", "hirzebruch1"],
    ["operators", "hirzebruch1"],
    ["loop-model", "dp2", "--format", "text"],
])
def test_general_sign_flag_changes_nothing(capsys, argv):
    # general signs are always used; the flag is still accepted
    full = [argv[0], fan_path(argv[1])] + argv[2:]
    assert main(full) == 0
    plain = capsys.readouterr().out
    assert main(full + ["--allow-general-sign"]) == 0
    assert capsys.readouterr().out == plain


def test_corrupted_coefficient_fails_the_ratio_check(monkeypatch, capsys):
    # the step build_f and euler_ratio share returns a wrong R_2; the check
    # reads the degree's pairings afresh, so it cannot pass by construction
    exact = ifunction._step_ratio

    def corrupted(ring, key, target):
        r = exact(ring, key, target)
        return r + ring.generator(0) if key == (2,) else r

    monkeypatch.setattr(ifunction, "_step_ratio", corrupted)
    code, report = run_json(capsys, ["ifunction", fan_path("p1")])
    assert code == 1
    assert report["homogeneous"] is False
    assert report["ok"] is False


@pytest.mark.parametrize("command, key", [("ifunction", "homogeneous"),
                                          ("loop-model", "stable")])
def test_corrupted_multiplication_matrix_fails_the_ratio_check(monkeypatch, capsys,
                                                               command, key):
    # check_ratio multiplies through CohomRing.multiply, so one wrong entry
    # in the alpha_0 matrix that builds the ratios cannot pass it
    exact = cohomology.CohomRing._linear

    def corrupted(ring, lin):
        rows, den = exact(ring, lin)
        if lin != ring.generator(0):
            return rows, den
        unit = (0,) * ring.n
        (mb, c), *rest = rows[unit]
        return {**rows, unit: ((mb, c + 1), *rest)}, den

    monkeypatch.setattr(cohomology.CohomRing, "_linear", corrupted)
    code, report = run_json(capsys, [command, fan_path("p1xp1")])
    assert code == 1
    assert False in [entry[key] for entry in report.get("reports", [report])]
    assert report["ok"] is False


def _corrupt_memo_on_build(monkeypatch, corrupt):
    # the ring the command builds gets one entry of its Euler-ratio memos
    # corrupted before the command reads it
    exact = cli.build_ring

    def build(fan, cm):
        ring = exact(fan, cm)
        corrupt(ring)
        return ring

    monkeypatch.setattr(cli, "build_ring", build)


@pytest.mark.parametrize("command, key", [("ifunction", "homogeneous"),
                                          ("loop-model", "stable")])
@pytest.mark.parametrize("fan, k, a, wrong", [("p1", 0, 1, 2), ("hirzebruch1", 1, -1, 1)])
def test_corrupted_factor_product_fails_the_ratio_check(monkeypatch, capsys, command,
                                                        key, fan, k, a, wrong):
    # the one-factor products P+_0(1) = alpha_0 + 1 on P1 and P-_1(-1) =
    # alpha_1 on F1, each cached with its constant term off by one
    def corrupt(ring):
        ring.factor_products[(k, a)] = ring.generator(k) + ring.one().scale(wrong)

    _corrupt_memo_on_build(monkeypatch, corrupt)
    code, report = run_json(capsys, [command, fan_path(fan)])
    assert code == 1
    assert False in [entry[key] for entry in report.get("reports", [report])]
    assert report["ok"] is False


@pytest.mark.parametrize("command, key", [("ifunction", "homogeneous"),
                                          ("loop-model", "stable")])
def test_corrupted_memoized_ratio_fails_the_ratio_check(monkeypatch, capsys,
                                                        command, key):
    def corrupt(ring):
        exact = ifunction.euler_ratio(ring, (2,))
        ring.ratios[(2,)] = exact + ring.generator(0)

    _corrupt_memo_on_build(monkeypatch, corrupt)
    code, report = run_json(capsys, [command, fan_path("p1")])
    assert code == 1
    assert False in [entry[key] for entry in report.get("reports", [report])]
    assert report["ok"] is False


def test_insufficient_modes_is_a_verification_failure(capsys):
    code, report = run_json(capsys, ["loop-model", fan_path("p2"),
                                     "--degree", "2", "--modes", "1"])
    assert code == 1
    assert report["ok"] is False
    entry = report["reports"][0]
    assert entry["stable"] is False
    assert entry["skipped_modes"] == [1]
    assert "error" in entry


# ---------------------------------------------------------------------------
# report contents


def test_cohomology_report(capsys):
    code, report = run_json(capsys, ["cohomology", fan_path("p2")])
    assert code == 0
    assert report["ok"] is True
    assert report["charge_matrix"] == [[1, 1, 1]]
    assert report["mori_generators"] == [[1]]
    assert report["dimensions"] == [1, 1, 1]
    assert report["total_dimension"] == 3
    assert report["basis"]["1"] == ["x3"]
    assert report["pairing"]["0,2"] == [["1"]]
    assert report["pairing"]["1,1"] == [["1"]]


def test_ifunction_report(capsys):
    code, report = run_json(capsys, ["ifunction", fan_path("p1"),
                                     "--max-degree", "4",
                                     "--components", "0,1",
                                     "--log-order", "1"])
    assert code == 0
    assert report["homogeneous"] is True
    assert [e["degree"] for e in report["series"]] == [[0], [1], [2]]
    assert report["series"][1]["terms"] == [
        {"hbar": -3, "class": {"x2": "-2"}},
        {"hbar": -2, "class": {"1": "1"}},
    ]
    comp0 = report["components"]["0"]
    assert comp0[0] == {"degree": [0],
                        "terms": [{"log": [0], "hbar": 0, "coeff": "1"}]}
    assert comp0[2]["terms"] == [{"log": [0], "hbar": -4, "coeff": "1/4"}]


def test_operators_report(capsys):
    code, report = run_json(capsys, ["operators", fan_path("p1"),
                                     "--max-degree", "8",
                                     "--theta-order", "2"])
    assert code == 0
    assert report["ok"] is True
    gkz = report["gkz"][0]
    assert gkz["degree"] == [1]
    assert gkz["text"] == "theta1^2 - q1"
    assert gkz["annihilates_series"] is True
    assert gkz["relation"] == "p1^2 - q1"
    assert gkz["classical_check"] is True
    assert len(report["annihilators"]) == 1
    # the search's own output is not re-applied: it is exact on the window
    assert all("verified" not in e for e in report["annihilators"])
    assert report["annihilators"][0]["text"] == "theta1^2 - q1"


def test_operators_zero_ansatz(capsys):
    code, report = run_json(capsys, ["operators", fan_path("p1"),
                                     "--theta-order", "0", "--q-degree", "0"])
    assert code == 0
    assert report["annihilators"] == []
    assert report["ok"] is True


def annihilator_texts(capsys, argv):
    code, report = run_json(capsys, ["operators", fan_path(argv[0])] + argv[1:])
    assert (code, report["ok"]) == (0, True), argv
    return [e["text"] for e in report["annihilators"]]


@pytest.mark.parametrize("argv, texts", [
    # the window used to be narrower for the search than for its check, and
    # these lists held operators that do not kill the series
    (["p2"], ["theta1^3 - q1"]),
    (["p3", "--theta-order", "1"], []),
    (["p1", "--theta-order", "2", "--q-degree", "2"],
     ["theta1^2 - q1", "q1*theta1^2 - q1^2"]),
])
def test_operators_lists_only_annihilators(capsys, argv, texts):
    assert annihilator_texts(capsys, argv) == texts


@pytest.mark.parametrize("name", [n for n in SHIPPED if n not in ("p3", "p4", "p5")])
def test_operators_second_q_degree_passes(capsys, name):
    annihilator_texts(capsys, [name, "--q-degree", "2"])


@pytest.mark.parametrize("argv", [["p3", "--q-degree", "2"], ["p4", "--q-degree", "2"],
                                  ["p5", "--q-degree", "2"], ["p3", "--max-degree", "3"]])
def test_operators_refuses_q_support_past_the_window(capsys, argv):
    # c1(q1^2) is 8, 10 and 12 on P^3, P^4 and P^5; c1(q1) = 4 on P^3
    assert main(["operators", fan_path(argv[0])] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "q-support exceeds the series truncation" in captured.err


def test_loop_model_report(capsys):
    code, report = run_json(capsys, ["loop-model", fan_path("p1"),
                                     "--max-degree", "4"])
    assert code == 0
    assert report["ok"] is True
    degrees = [e["degree"] for e in report["reports"]]
    assert degrees == [[1], [2]]
    for entry in report["reports"]:
        assert entry["stable"] is True
        assert "mode_checks" not in entry
        assert entry["weights"]["positive"] == [[entry["degree"][0] + 1,
                                                 entry["N_list"][-1]]] * 2


def test_text_format(capsys):
    code = main(["cohomology", fan_path("p1xp1"), "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok: true" in out
    assert "dimensions: [1, 2, 1]" in out


# ---------------------------------------------------------------------------
# determinism and file output


@pytest.mark.parametrize("argv", [
    ["cohomology", fan_path("dp2")],
    ["ifunction", fan_path("p1xp1"), "--components", "0", "--max-degree", "4"],
    ["operators", fan_path("p2"), "--max-degree", "6"],
    ["loop-model", fan_path("hirzebruch1"), "--max-degree", "2"],
])
def test_output_is_deterministic(tmp_path, argv):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    code1 = main(argv + ["--out", str(out1)])
    code2 = main(argv + ["--out", str(out2)])
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    json.loads(out1.read_text())


@pytest.mark.parametrize("name", SHIPPED)
def test_seeded_copies_give_the_same_reports(tmp_path, capsys, name):
    # two seeded copies: ray signs flipped and cones shuffled, as in the
    # benchmark's seeded inputs; the same variety, so the same report apart
    # from "rays", whichever cone comes first
    paths = []
    for i, data in enumerate(islice(same_fan_copies(name), 3)):
        paths.append(tmp_path / ("%d.json" % i))
        paths[-1].write_text(json.dumps(data))
    for command in ("cohomology", "ifunction", "loop-model"):
        reports = []
        for path in paths:
            code, report = run_json(capsys, [command, str(path)])
            report.pop("rays", None)
            reports.append((code, report))
        assert reports[1] == reports[0] and reports[2] == reports[0], command


def test_out_file_suppresses_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["cohomology", fan_path("p1"), "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["ok"] is True


def test_console_entry_point():
    src = str(FAN_DIR.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from qdm.cli import main; sys.exit(main())",
         "cohomology", fan_path("p3")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_dimension"] == 4


# p2 derives its nef basis, dp3 supplies one; two Mori-cone degrees of each
CONE_DEGREES = {"p2": ["1", "2"], "dp3": ["0,0,0,1", "1,1,0,0"]}


@pytest.mark.parametrize("name", sorted(CONE_DEGREES))
@pytest.mark.parametrize("command", ["cohomology", "ifunction", "operators",
                                     "loop-model", "loop-model --degree"])
def test_one_mori_cone_derivation_per_run(monkeypatch, capsys, name, command):
    # make_fan derives the cone's facet normals and mori_generators its
    # generators from them, once each; the charge matrix, the degree
    # enumeration and each --degree test reuse them
    calls = []
    derive = toric._dual_cone_rays

    def spy(*args):
        calls.append(sys._getframe(1).f_code.co_name)
        return derive(*args)

    monkeypatch.setattr(toric, "_dual_cone_rays", spy)
    argv = [command.split()[0], fan_path(name)]
    if command.endswith("--degree"):
        argv += [arg for d in CONE_DEGREES[name] for arg in ("--degree", d)]
    assert main(argv) == 0
    capsys.readouterr()
    assert sorted(calls) == ["make_fan", "mori_generators"]


@pytest.mark.parametrize("argv, pairings, components", [
    # build_f's window pass, then the ratio check, over the 462 window degrees
    (["ifunction", "--components", "0,1,2"], 462 + 462, 0),
    # build_f's window pass, then, for each of the 461 nonzero degrees,
    # check_stabilization's one pass and the critical_component check that
    # euler_ratio_n makes
    (["loop-model"], 462 + 461 + 461, 461),
], ids=["ifunction", "loop-model"])
def test_a_series_run_computes_each_degree_pairings_once_per_reader(
        monkeypatch, capsys, argv, pairings, components):
    calls = {"pairings": 0, "critical_component": 0}

    def counted(name, fn):
        def spy(*args):
            calls[name] += 1
            return fn(*args)
        return spy

    monkeypatch.setattr(toric.ChargeMatrix, "pairings",
                        counted("pairings", toric.ChargeMatrix.pairings))
    monkeypatch.setattr(loop_model, "critical_component",
                        counted("critical_component", loop_model.critical_component))
    assert main([argv[0], fan_path("dp3")] + argv[1:]) == 0
    capsys.readouterr()
    assert calls == {"pairings": pairings, "critical_component": components}


def test_benchmark_tracer_still_wraps_the_entry_points(capsys):
    # the traced benchmark wraps module entry points by name; a renamed or
    # deleted one must fail here, not silently drop out of its spans
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer()
    uninstall = layers.install(tracer)
    try:
        assert main(["operators", fan_path("p1")]) == 0
        assert main(["loop-model", fan_path("p1")]) == 0
        assert main(["cohomology", fan_path("p1")]) == 0
    finally:
        uninstall()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    for name in ("dmodule.find_annihilators", "loop_model.check_stabilization",
                 "loop_model.euler_ratio_n", "loop_model.critical_component",
                 "cohomology.build_ring", "cohomology.CohomRing.dual_basis"):
        assert name in names, name


def load_benchmark(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends its dir
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCHMARK)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_benchmark_argv_still_parses(monkeypatch):
    # the benchmark passes fixed CLI options; an option removed or made
    # stricter under it must fail here, not in a benchmark run
    run = load_benchmark(monkeypatch)
    parser = cli.build_parser()
    argvs = [[sub, fan_path(fan)] + extra
             for invocations in run.WORKLOADS.values()
             for sub, fan, extra, _oracles in invocations]
    assert len(argvs) == 13
    for argv in argvs:
        cli._parse_int_options(parser.parse_args(argv))


# ---------------------------------------------------------------------------
# golden reports: SHA-256 of stdout and the exit code, pinned from a
# reference run, so any change to a report's bytes shows up here

GOLDEN = [
    ("cohomology", ["p1"], 0, "81f1789fada1a5c08b86da3ff2eef7dfb5c5532f58995828a5b9dfdc3fbfc1af"),
    ("cohomology", ["p2"], 0, "6a9f86d69f0d50f45af7db8638be2a1237a6f1019691e3c6ba82192160690dad"),
    ("cohomology", ["p3"], 0, "7aeb1b380173e4bce7c9e5c874547f5691ebdeb0e414b935bf50cd72bca0c04b"),
    ("cohomology", ["p1xp1"], 0, "e1761109b701d81e7ee16a34d7d4c7c33ea927cf60364379526796ee002e148c"),
    ("cohomology", ["hirzebruch1"], 0,
     "a6e2fa6dbee75914a10afc83a487bd0100d6bc48c9fa7e59f20ac3bd8cda7d5b"),
    ("cohomology", ["dp2"], 0, "29031ac825cd4946093d64c8e69dd39a72e7338c44cddc7d733779a8b27eb282"),
    ("cohomology", ["p4"], 0, "87a7c5189a448f9907132d70d2c527b15e29c507804abfa13680a18a80b5b940"),
    ("cohomology", ["p2xp2_sheared"], 0,
     "4df8d553a07c0c096531919d25fdab71e121a6233274609a11ad1cedcc508f8d"),
    ("cohomology", ["p5"], 0, "8b1e457ed3e7da69829ad047b3ba9cbea54147986e663a598adc1014d920bcae"),
    ("cohomology", ["p1x3"], 0, "e8db4b72e8a7470e834eedec477fc123f9161631f5fba1cc3a34da40734e47d2"),
    ("ifunction", ["p1"], 0, "dc40e3833cb3d2c226e56c9e0956c882a88f1c1497062aa2db3dbb08b6544f1d"),
    ("ifunction", ["p2"], 0, "278e9645fb4296c202154b9d1c4f2cc8862a22812aa240d0c57d7aaf2a6fafcc"),
    ("ifunction", ["p1xp1", "--components", "0"], 0,
     "45c69b4640fa4af121e6469b2e4f3f774d15a24bd58be1e870993cfffb294ce5"),
    ("ifunction", ["hirzebruch1"], 0,
     "5e1fb1a56f705a8c94dac50130718acbc3e81e748f7cd0228f57a22d05bb7247"),
    ("ifunction", ["p3", "--components", "0"], 0,
     "647422b63686a6121a8070d1fe34a4ab9b0ff06c896615b05f3af9b34bda5e56"),
    ("loop-model", ["p2"], 0, "6d58c3895156557250bb2c6c22054b3bc7cd8a43c600db69096098d75b902622"),
    ("loop-model", ["p1xp1"], 0, "da7266121b51b5226fb1f6bbbab9ef4652383e181d2d1d26c518901d0658f0f6"),
    ("operators", ["p1"], 0, "3835b40b2c0d03f098d898421d23d4a5ca9fcaaca2aaf3acb73c4d87cbabfca6"),
    ("operators", ["p1xp1"], 0, "78c2dbba1002d826129ee0f738d50373df9b3b26f7e830055eda703868d7e9df"),
    ("loop-model", ["dp3"], 0, "6055d95e9d03fbc873d7996b28332d97f0ca02a7b1d750da845c7befc294d8c0"),
    ("ifunction", ["dp3", "--components", "0,1,2"], 0,
     "4dab4e6c5322c1cdce98f4cd10202d7a451e24a49fd9c2d522afd8a79515f692"),
    ("loop-model", ["dp2", "--format", "text"], 0,
     "b655eb14a3a159add8a2661d47d5ba2133dd4140d2cedc3c22b76ebe305fe983"),
    ("operators", ["hirzebruch1"], 0,
     "f373ba4a59213927c45d1d8b6b25c81b552023ee9919aa837b503cc45712ad7b"),
    ("operators", ["p2xp1"], 0, "9063803dbdfeecd37209daa1cd3f33cb600d6506d7b4ce07699c0ab746b6a5d8"),
    ("operators", ["dp2"], 0,
     "2418808b7dae067e20813f7bb3c8055d6cbea094e159d695e52d44b526901248"),
    ("operators", ["p3"], 0, "e9a1229ac28836a132913b05ad515d3dd3e90a4908a8c8d266fb7855f3546321"),
    ("operators", ["dp3"], 0,
     "a4f11cbde6d4d9eb35d45186e17815232f0d796bdc3068e25786bcd9ae7df8de"),
    ("operators", ["dp2", "--format", "text"], 0,
     "a3a101b3c432b00a0f1b5cd16f5f63687d58da5dfe89a483dfeef681aab57bc3"),
    ("operators", ["p2xp2_sheared", "--theta-order", "2",
                   "--q-degree", "2"], 0,
     "35e2ef25a9ecb7753e195eb75ae090e00d84c3c26be738f822f9b8f7fcfe83c6"),
    ("loop-model", ["hirzebruch1", "--degree", "1,0", "--degree", "2,1",
                    "--modes", "1..3"], 0,
     "794f255aab9322daef81a9a3854b5c9f8d33c96482407c0426cf17e1fa20780a"),
    ("loop-model", ["p2", "--degree", "2", "--modes", "1"], 1,
     "f157829e99e3d06d67422611bb6a5c41c83c577c42c1dca76ab955945b08088a"),
    ("loop-model", ["p5", "--modes", "0..2"], 0,
     "5ee2bb050c947bfd8aff336bacfc545c83793cb90cc23c2a371be5ff53278b2b"),
    # with the entries above, every subcommand's default run on every shipped
    # fan; each of them exits 0
    ("cohomology", ["dp3"], 0, "a1c249253a789387ddb8d29f5f6d8cfad443f9b3979f0860c510fb1ba0a26396"),
    ("cohomology", ["p2xp1"], 0,
     "8abeecee226daceb2782e7463f343d674a1333c86cf74b1b86fece744ebcc0b4"),
    ("ifunction", ["dp2"], 0, "97f69f5cbdc423ebbfd88d00032148a831cf6b6c7c4ed7b506613618096ea3ca"),
    ("ifunction", ["dp3"], 0, "db9864c127b8bd2858d3612c9ee081e544caac432bd1f4e5aa8e933ac91894e7"),
    ("ifunction", ["p1x3"], 0, "6cae229e88bd8f7da739cf498f9848ab7adaadda8961d87bc035029e1cac99d5"),
    ("ifunction", ["p1xp1"], 0,
     "1ad56614ca3f1c51e4132597cb7c235c7a2ae35ddc139f6e55043a269b3ee283"),
    ("ifunction", ["p2xp1"], 0,
     "3882a0e74e22b1d0781a675cc5596238374e2ecd468e7baf93d9319e0c97fcfd"),
    ("ifunction", ["p2xp2_sheared"], 0,
     "ec20a3d68aa441386545cc2fbd04902b023874619a3db71dd01b27e6e81749a6"),
    ("ifunction", ["p3"], 0, "d77d8eaaf3d4b99f965ec8e1da46e372bbbda8c364d8880c6bf05ee55eda2bce"),
    ("ifunction", ["p4"], 0, "0c16c4b250ff6eccf8b531c8069c1078d6adb35a0c2b7bea82eb2a0715a2553e"),
    ("ifunction", ["p5"], 0, "84981d7f27f4370eef08936965712512c33a5183ce48fe581cddf4abf59b8285"),
    ("loop-model", ["dp2"], 0, "d723f55acd2eb274e55646379a03a6f1132c8617a7f66050f91229fac4155693"),
    ("loop-model", ["hirzebruch1"], 0,
     "2cf116791b9057121db68e9cc33357a832835a19f55ad4372a73e62d12fbd59b"),
    ("loop-model", ["p1"], 0, "7e9d129d46e61dc5c04a50f68915eba286192f9cd8058ddb59ed1d8b8393ad86"),
    ("loop-model", ["p1x3"], 0,
     "ac5b689db7e50176d5f648a6a0e41d68c044ccd0ac9eb82c40b542816b8047d2"),
    ("loop-model", ["p2xp1"], 0,
     "a952d26c6c633c4f52853841cf7fb6b5507bee6b6a9d349687250b06e3e6b658"),
    ("loop-model", ["p2xp2_sheared"], 0,
     "47c9536d4ac98dc155120ea73c3d66b1f136c1a60815012bfe6b99f646b6b483"),
    ("loop-model", ["p3"], 0, "9e7bb0b67e23f052c8f5940e035488d8d9f7b2ecbafb46e43df765b0aa80b080"),
    ("loop-model", ["p4"], 0, "70e71f37150f79d17fa138eb653180e12692637e1c442c3594ac902fb6cf5608"),
    ("loop-model", ["p5"], 0, "d2afc273e2f07a02500b8ce4074f71192f50a68baee0bf8afcf0ee49365b0b7c"),
    ("operators", ["p1x3"], 0, "da39ac388892540c9dea479badeef4dc3d64d0d29a06125e9f7e5663dc737eed"),
    ("operators", ["p2"], 0, "864a065d639c41f835af95a366afad1e5b60fd80344b3a45adf5ab9c2d52f3f5"),
    ("operators", ["p2xp2_sheared"], 0,
     "dcf3f3dc79df1290c2eacc806a242fb46d3ecdcc1708d22c6b11a343dbc0742b"),
    ("operators", ["p4"], 0, "a1f50856058aa44de852734a3425c7c8838dfae4cd96f00a96e98230f99558df"),
    ("operators", ["p5"], 0, "1d7fa6cf9d607a9a56a0c10387bf4de0e0eb1086c4dc0838828387161f054fa4"),
    # the ring-build fans that fans/ lacks, from perfbench/fans.json: both
    # derive their nef basis, so the nef-ray sort fixes their row order
    ("cohomology", ["p1x4"], 0, "3721e7176af9a47ce6d0aa397eb7a135e5f4839b5d9cdd9ce637872de3d4a62a"),
    ("cohomology", ["p2xp2"], 0, "06b2f8158d5409921a8d67e8d94665e0c2232aec8d5ecb3c921514a4629c54d4"),
    # the series-loop benchmark's long window
    ("ifunction", ["p3", "--max-degree", "32", "--components", "0"], 0,
     "265d0702722788ed6b210c90a33463a8866bdd0e3ab731163191b1e83635e7bb"),
]


@pytest.mark.parametrize("command, args, code, digest", GOLDEN,
                         ids=[" ".join([c] + a) for c, a, _, _ in GOLDEN])
def test_golden_report_digest(capsys, tmp_path, command, args, code, digest):
    assert main([command, golden_fan_path(args[0], tmp_path)] + args[1:]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("command, args", [(c, a) for c, a, _, _ in GOLDEN],
                         ids=[" ".join([c] + a) for c, a, _, _ in GOLDEN])
def test_report_writer_matches_json_dumps(tmp_path, command, args):
    # the report writer replaced json.dumps(report, indent=2); a text run's
    # report is compared too, though it is printed by render_text
    parsed = cli.build_parser().parse_args([command, golden_fan_path(args[0], tmp_path)]
                                           + args[1:])
    cli._parse_int_options(parsed)
    report, _ = cli._COMMANDS[command](parsed)
    assert serialize.render_json(report) == json.dumps(report, indent=2)


def test_benchmark_entry_point_gives_the_golden_reports(monkeypatch, tmp_path):
    # the benchmark spawns `python -m qdm.cli`, not main(): run each of its
    # invocations that way, flags included, against the digests above
    # (--allow-general-sign changes no byte)
    golden = {(command, tuple(args)): (code, digest) for command, args, code, digest in GOLDEN}
    invocations = [inv for invs in load_benchmark(monkeypatch).WORKLOADS.values()
                   for inv in invs]
    assert len(invocations) == 13
    src = str(FAN_DIR.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for sub, fan, extra, _oracles in invocations:
        code, digest = golden[sub, tuple([fan] + [a for a in extra
                                                  if a != "--allow-general-sign"])]
        proc = subprocess.run([sys.executable, "-m", "qdm.cli", sub,
                               golden_fan_path(fan, tmp_path)] + extra,
                              capture_output=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (code, b""), (fan, extra)
        assert hashlib.sha256(proc.stdout).hexdigest() == digest, (fan, extra)
