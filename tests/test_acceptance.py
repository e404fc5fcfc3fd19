"""Acceptance gate: one test per top-level requirement, exact arithmetic only.

Each test prints a single [PASS]/[FAIL] line naming the requirement it
certifies.  The line is emitted with capture disabled so it stays visible
in piped/tee'd runs even while pytest captures test output.
"""

import json
import time
from contextlib import contextmanager
from math import factorial

import pytest

from qdm import (
    ComponentAbsentError,
    apply,
    build_f,
    check_stabilization,
    component,
    enumerate_degrees,
    euler_ratio_n,
    find_annihilators,
    gkz_operator,
    semiclassical,
)
from qdm.cli import main

from conftest import (FAN_DIR, integrate, ratio_at, reference_euler_ratio_n,
                      reference_inverse_linear_factor, reference_linear_factor,
                      rescaled, spans)


@pytest.fixture
def report_line(capfd):
    def announce(verdict, num, label):
        with capfd.disabled():
            print("\n[%s] criterion %d: %s" % (verdict, num, label), flush=True)

    @contextmanager
    def report(num, label):
        try:
            yield
        except BaseException:
            announce("FAIL", num, label)
            raise
        announce("PASS", num, label)

    return report


PROJECTIVE_SPACES = (("p1", 1), ("p2", 2), ("p3", 3))


def test_criterion_1_closed_form_series(corpus, report_line):
    label = "projective-space series matches 1/(d!)^(n+1) through q^6"
    with report_line(1, label):
        for name, n in PROJECTIVE_SPACES:
            start = time.monotonic()
            _fan, cm, ring, cone = corpus[name]
            series = build_f(ring, cone, 6 * (n + 1))
            f0 = component(series, 0, log_order=0)
            assert sorted(f0) == [(d,) for d in range(7)]
            for d in range(7):
                want = {((0,), -(n + 1) * d): (1, factorial(d) ** (n + 1))}
                assert f0[(d,)] == want, (name, d)
            elapsed = time.monotonic() - start
            assert elapsed < 10.0, (name, elapsed)


def test_criterion_2_annihilator_recovery(corpus, report_line):
    label = "annihilator search recovers theta^(n+1) - q and verifies each op"
    with report_line(2, label):
        for name, n in PROJECTIVE_SPACES:
            _fan, cm, ring, cone = corpus[name]
            series = build_f(ring, cone, 4 * (n + 1))
            ops = find_annihilators(series, theta_order=n + 1, q_degree=1)
            assert ops, name
            for op in ops:
                assert apply(op, series).is_zero(), name
            box = gkz_operator(cm, (1,))
            assert box.weight == n + 1, name
            assert (box.num, box.den) == ({((0,), (n + 1,)): 1, ((1,), (0,)): -1}, 1), name
            assert spans(ops, [box]), name


def test_criterion_3_semiclassical_relations(corpus, report_line):
    label = "semiclassical limits give p^(n+1) = q and p_i^2 = q_i"
    with report_line(3, label):
        for name, n in PROJECTIVE_SPACES:
            _fan, cm, ring, cone = corpus[name]
            series = build_f(ring, cone, 4 * (n + 1))
            ops = find_annihilators(series, theta_order=n + 1, q_degree=1)
            rel = semiclassical(ops[0])
            assert (rel.num, rel.den) == ({((0,), (n + 1,)): 1, ((1,), (0,)): -1}, 1), name
            assert rel.classical_value(ring).is_zero(), name
        _fan, cm, ring, cone = corpus["p1xp1"]
        series = build_f(ring, cone, 8)
        ops = find_annihilators(series, theta_order=2, q_degree=1)
        for g, i in (((1, 0), 0), ((0, 1), 1)):
            box = gkz_operator(cm, g)
            assert spans(ops, [box]), g
            rel = semiclassical(box)
            t = tuple(2 if j == i else 0 for j in range(2))
            assert (rel.num, rel.den) == ({((0, 0), t): 1, (g, (0, 0)): -1}, 1), g
            assert rel.classical_value(ring).is_zero(), g


def test_criterion_4_loop_space_stabilization(corpus, report_line):
    label = "finite-mode Euler ratios equal the stable form for N >= N(d)"
    with report_line(4, label):
        for name in ("p2", "p1xp1"):
            start = time.monotonic()
            _fan, cm, ring, cone = corpus[name]
            for d in enumerate_degrees(cone, cm, 6):
                n_min = max(map(abs, cm.pairings(d)), default=0)
                report = check_stabilization(ring, d, range(n_min, n_min + 4))
                assert report["stable"] is True, (name, d)
                for n_cut in range(n_min, n_min + 4):
                    assert euler_ratio_n(ring, d, n_cut) == \
                        reference_euler_ratio_n(ring, cm, d, n_cut), (name, d, n_cut)
                if n_min > 0:
                    with pytest.raises(ComponentAbsentError):
                        euler_ratio_n(ring, d, n_min - 1)
            elapsed = time.monotonic() - start
            assert elapsed < 5.0, (name, elapsed)


def test_criterion_5_ring_sanity(corpus, report_line):
    label = "Betti numbers, fixed-point count and exact Poincare duality"
    with report_line(5, label):
        expected = {
            "p1": (1, 1),
            "p2": (1, 1, 1),
            "p3": (1, 1, 1, 1),
            "p1xp1": (1, 2, 1),
            "hirzebruch1": (1, 2, 1),
            "dp2": (1, 3, 1),
        }
        for name, (fan, cm, ring, cone) in corpus.items():
            assert ring.dims == expected[name], name
            assert sum(ring.dims) == len(fan.max_cones), name
            t, duals = ring.dual_basis()
            for i, ti in enumerate(t):
                for j, dj in enumerate(duals):
                    assert integrate(ring, ti * dj) == (1 if i == j else 0), name
            for nu in range(fan.dim):
                rel = ring.zero()
                for k in range(fan.n_rays):
                    if fan.rays[k][nu]:
                        rel = rel + ring.generator(k).scale(fan.rays[k][nu])
                assert rel.is_zero(), (name, nu)
            # every inversion used by the degree-6 run multiplies back to 1
            checked = set()
            for d in enumerate_degrees(cone, cm, 6):
                for k in range(cm.n):
                    for nu in range(1, cm.pairings(d)[k] + 1):
                        if (k, nu) in checked:
                            continue
                        checked.add((k, nu))
                        alpha = ring.generator(k)
                        prod = (reference_inverse_linear_factor(ring, alpha, nu)
                                * reference_linear_factor(ring, alpha, nu))
                        assert prod == ring.one(), (name, k, nu)


def test_criterion_6_homogeneity(corpus, report_line):
    label = "every series term satisfies 2*deg + 2*hbar = -2<c1, d>"
    with report_line(6, label):
        for name, (_fan, cm, ring, cone) in corpus.items():
            series = build_f(ring, cone, 6)
            for d in series.degrees:
                c1 = cm.c1_degree(d)
                r_d = series.coefficients[d]
                # the weight rule puts m at hbar^(-c1 - deg m), so every term
                # has 2*deg + 2*hbar = -2c1; evaluating the factors at other
                # values of hbar confirms that this is the true expansion
                for hbar in (2, 3):
                    assert rescaled(r_d, c1, hbar) == ratio_at(ring, cm, d, hbar), \
                        (name, d, hbar)


def test_criterion_7_gkz_annihilation(corpus, report_line):
    label = "box operators of all Mori generators annihilate the series"
    with report_line(7, label):
        for name, (_fan, cm, ring, cone) in corpus.items():
            series = build_f(ring, cone, 8)
            for g in cone.generators:
                out = apply(gkz_operator(cm, g), series)
                assert out.is_zero(), (name, g)
                assert out.degrees, (name, g)  # the window must be non-empty


def test_criterion_8_cli_determinism(corpus, tmp_path, report_line):
    label = "CLI reports are byte-identical across runs and exit 0"
    with report_line(8, label):
        fan = str(FAN_DIR / "p2.json")
        cases = [
            ["cohomology", fan],
            ["ifunction", fan, "--max-degree", "6", "--components", "0,1,2"],
            ["operators", fan, "--max-degree", "8"],
            ["loop-model", fan, "--max-degree", "6"],
        ]
        for idx, argv in enumerate(cases):
            first = tmp_path / ("run_%d_a.json" % idx)
            second = tmp_path / ("run_%d_b.json" % idx)
            assert main(argv + ["--out", str(first)]) == 0, argv
            assert main(argv + ["--out", str(second)]) == 0, argv
            assert first.read_bytes() == second.read_bytes(), argv
            assert json.loads(first.read_text())["ok"] is True, argv
