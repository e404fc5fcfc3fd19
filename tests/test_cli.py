"""End-to-end command line checks: exit codes, determinism, report shape."""

import hashlib
import importlib.util
import json
import subprocess
import sys

import pytest

from qdm import cohomology, ifunction
from qdm.cli import main

from conftest import FAN_DIR

LAYERS = FAN_DIR.parent / "perfbench" / "layers.py"


def fan_path(name):
    return str(FAN_DIR / ("%s.json" % name))


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


def test_strict_sign_violation_is_an_input_error(capsys):
    assert main(["ifunction", fan_path("hirzebruch1")]) == 2
    assert "pairs negatively" in capsys.readouterr().err
    capsys.readouterr()
    assert main(["ifunction", fan_path("hirzebruch1"),
                 "--allow-general-sign"]) == 0


def test_bad_degree_option(capsys):
    assert main(["operators", fan_path("p1"), "--degree", "x"]) == 2
    assert "bad --degree" in capsys.readouterr().err
    assert main(["operators", fan_path("p1"), "--degree", "1,2"]) == 2


def test_bad_modes_option(capsys):
    assert main(["loop-model", fan_path("p1"), "--modes", "zz"]) == 2
    assert "bad --modes" in capsys.readouterr().err
    assert main(["loop-model", fan_path("p1"), "--modes", "3..1"]) == 2


P2_TEXT = '{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}'
P1XP1_TEXT = ('{"rays": [[1, 0], [-1, 0], [0, 1], [0, -1]],'
              ' "max_cones": [[0, 2], [2, 1], [1, 3], [3, 0]]}')


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
    (P2_TEXT, ["loop-model", "--degree", "-1"], "outside the Mori cone"),
    (P1XP1_TEXT, ["loop-model", "--degree", "1,,0"], "bad --degree"),
    (P1XP1_TEXT, ["loop-model", "--degree", "1_0,0"], "bad --degree"),
    (P2_TEXT, ["loop-model", "--modes", "1_0"], "bad --modes"),
    (P2_TEXT, ["loop-model", "--modes=-1"], "--modes cutoffs must be nonnegative"),
    (P2_TEXT, ["loop-model", "--modes=-2..1"], "--modes cutoffs must be nonnegative"),
    (P1XP1_TEXT, ["operators", "--degree", "0,0"], "zero degree"),
    (P2_TEXT, ["cohomology", "--out", "no-such-dir/report.json"], "cannot write the report"),
    (P2_TEXT, ["cohomology", "--out", "."], "cannot write the report"),
    ('{"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]],'
     ' "nef_basis": [["1.0", 0, 0]]}', ["cohomology"], "nef_basis entries"),
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


def test_corrupted_coefficient_fails_the_ratio_check(monkeypatch, capsys):
    exact = ifunction.euler_ratio

    def corrupted(ring, cm, degree, allow_general_sign=False):
        r = exact(ring, cm, degree, allow_general_sign)
        return r + ring.generator(0) if degree == (2,) else r

    monkeypatch.setattr(ifunction, "euler_ratio", corrupted)
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
        rows = exact(ring, lin)
        if lin != ring.generator(0):
            return rows
        unit = (0,) * ring.n
        (mb, c), *rest = rows[unit]
        return {**rows, unit: ((mb, c + 1), *rest)}

    monkeypatch.setattr(cohomology.CohomRing, "_linear", corrupted)
    code, report = run_json(capsys, [command, fan_path("p1xp1")])
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
    assert all(e["verified"] for e in report["annihilators"])
    assert report["annihilators"][0]["text"] == "theta1^2 - q1"


def test_operators_zero_ansatz(capsys):
    code, report = run_json(capsys, ["operators", fan_path("p1"),
                                     "--theta-order", "0", "--q-degree", "0"])
    assert code == 0
    assert report["annihilators"] == []
    assert report["ok"] is True


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


def test_out_file_suppresses_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["cohomology", fan_path("p1"), "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["ok"] is True


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from qdm.cli import main; sys.exit(main())",
         "cohomology", fan_path("p3")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_dimension"] == 4


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
    ("ifunction", ["hirzebruch1", "--allow-general-sign"], 0,
     "5e1fb1a56f705a8c94dac50130718acbc3e81e748f7cd0228f57a22d05bb7247"),
    ("ifunction", ["p3", "--components", "0"], 0,
     "647422b63686a6121a8070d1fe34a4ab9b0ff06c896615b05f3af9b34bda5e56"),
    ("loop-model", ["p2"], 0, "6d58c3895156557250bb2c6c22054b3bc7cd8a43c600db69096098d75b902622"),
    ("loop-model", ["p1xp1"], 0, "da7266121b51b5226fb1f6bbbab9ef4652383e181d2d1d26c518901d0658f0f6"),
    ("operators", ["p1"], 0, "1a2228ac22681e1bffc43861562c668607db84887b4d7c28694ed81fb683d72a"),
    ("operators", ["p1xp1"], 0, "cc6250381c34b4f6c3e8836ebc642d5c05ee074077fb5325ffbb637c94dd195d"),
    ("loop-model", ["dp3"], 0, "6055d95e9d03fbc873d7996b28332d97f0ca02a7b1d750da845c7befc294d8c0"),
    ("ifunction", ["dp3", "--allow-general-sign", "--components", "0,1,2"], 0,
     "4dab4e6c5322c1cdce98f4cd10202d7a451e24a49fd9c2d522afd8a79515f692"),
    ("loop-model", ["dp2", "--allow-general-sign", "--format", "text"], 0,
     "b655eb14a3a159add8a2661d47d5ba2133dd4140d2cedc3c22b76ebe305fe983"),
    ("operators", ["hirzebruch1", "--allow-general-sign"], 0,
     "1bdb0f6d92db9b0c1c152af5d0d0786e1ebd81f4d097739d6d0fa9ee91f911a4"),
    ("operators", ["p2xp1"], 1, "9b95336e39705ab847b171146789272303a063ace716cbe16ef178876d5c5e80"),
    ("operators", ["dp2", "--allow-general-sign"], 0,
     "170519bcd0aaa5f868f403a834416ce7ac59415cf484cdfc72919d8801853051"),
    ("operators", ["p3"], 1, "408c105ee34f298fe4ba42210173cbeb6599a643b244633173da81ccccf8cef7"),
    ("operators", ["dp3", "--allow-general-sign"], 0,
     "21adb13b69551823669e8d2942f69feaff68a378bb67ef57b9712d670e4b962e"),
    ("operators", ["dp2", "--allow-general-sign", "--format", "text"], 0,
     "c631291858c22652038acc2616631d449780bee3bd2461b13ee2e078e874bcbe"),
    ("operators", ["p2xp2_sheared", "--allow-general-sign", "--theta-order", "2",
                   "--q-degree", "2"], 1,
     "2d91437d642408e76b934c5ca1dd0ea517fcec4f2d4933ff54be755c0bdd176d"),
]


@pytest.mark.parametrize("command, args, code, digest", GOLDEN,
                         ids=[" ".join([c] + a) for c, a, _, _ in GOLDEN])
def test_golden_report_digest(capsys, command, args, code, digest):
    assert main([command, fan_path(args[0])] + args[1:]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
