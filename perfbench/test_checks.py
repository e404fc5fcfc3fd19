"""Self-tests for the benchmark's own code.

    python3 -m unittest discover -s perfbench
"""

from __future__ import annotations

import json
import os
import random
import sys
import unittest
from fractions import Fraction
from math import factorial

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import run  # noqa: E402

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "fans.json"),
          encoding="utf-8") as _fh:
    FANS = json.load(_fh)

P2 = {"rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}
P1XP1 = FANS["p1xp1"]


def det(mat):
    if len(mat) == 1:
        return mat[0][0]
    return sum((-1) ** j * mat[0][j] * det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)))


def report(**fields):
    return json.dumps(dict(fields, ok=True))


class HVector(unittest.TestCase):
    def test_p2(self):
        self.assertEqual(checks.h_vector(P2["max_cones"], 2), [1, 1, 1])

    def test_p1xp1(self):
        self.assertEqual(checks.h_vector(P1XP1["max_cones"], 2), [1, 2, 1])

    def test_total_is_number_of_maximal_cones(self):
        for name, fan in FANS.items():
            h = checks.h_vector(fan["max_cones"], len(fan["rays"][0]))
            self.assertEqual(sum(h), len(fan["max_cones"]), name)
            self.assertEqual(h, h[::-1], name)


class Seeding(unittest.TestCase):
    def test_seed_zero_is_the_listed_fan(self):
        for name, fan in FANS.items():
            out = checks.seeded_fan(name, fan, 0)
            self.assertEqual(out["rays"], fan["rays"])
            self.assertEqual(out["max_cones"], fan["max_cones"])

    def test_transform_is_unimodular(self):
        for seed in range(1, 20):
            for dim in (1, 2, 3, 4):
                mat = checks.coordinate_signs(dim, random.Random(seed))
                self.assertIn(det(mat), (1, -1))

    def test_seeded_fan_keeps_sizes_and_cones(self):
        for name, fan in FANS.items():
            for seed in (1, 2, 3):
                out = checks.seeded_fan(name, fan, seed)
                self.assertEqual(out, checks.seeded_fan(name, fan, seed))
                self.assertEqual([sorted(map(abs, r)) for r in out["rays"]],
                                 [sorted(map(abs, r)) for r in fan["rays"]])
                self.assertEqual(sorted(map(sorted, out["max_cones"])),
                                 sorted(map(sorted, fan["max_cones"])))
                self.assertEqual(out.get("nef_basis"), fan.get("nef_basis"))

    def test_seeds_differ(self):
        fan = FANS["p2xp2_sheared"]
        seen = {json.dumps(checks.seeded_fan("p2xp2_sheared", fan, s)) for s in range(8)}
        self.assertGreater(len(seen), 4)


class Oracles(unittest.TestCase):
    def test_p3_component0(self):
        rows = [{"degree": [d], "terms": [{"log": [0], "hbar": -4 * d,
                                           "coeff": str(Fraction(1, factorial(d) ** 4))}]}
                for d in range(3)]
        good = {"max_degree": 8, "components": {"0": rows}}
        self.assertIsNone(checks.oracle_p3_component0(good, None))
        rows[2]["terms"][0]["coeff"] = "1/4"
        self.assertIsNotNone(checks.oracle_p3_component0(good, None))

    def test_box_relations(self):
        rep = {"charge_matrix": [[0, 0, 1, 1], [1, 1, 0, 0]],
               "gkz": [{"relation": "p1^2 - q1"}, {"relation": "p2^2 - q2"}]}
        self.assertIsNone(checks.oracle_box_relations(rep, P1XP1))
        rep["gkz"].pop()
        self.assertIn("p2^2 - q2", checks.oracle_box_relations(rep, P1XP1))

    def test_betti(self):
        self.assertIsNone(checks.oracle_betti({"dimensions": [1, 2, 1]}, P1XP1))
        self.assertIsNotNone(checks.oracle_betti({"dimensions": [1, 1, 1]}, P1XP1))


class Verdicts(unittest.TestCase):
    ref = (0, report(rays=[[1, 0]], dimensions=[1, 2, 1]))

    def verdict(self, code, out, ref=None, oracles=("betti",)):
        return checks.verdict(code, out, "json", oracles, P1XP1, ref or self.ref)[0]

    def test_good_and_rays_only_difference(self):
        self.assertEqual(self.verdict(0, self.ref[1]), "ok")
        self.assertEqual(self.verdict(0, report(rays=[[-1, 0]], dimensions=[1, 2, 1])), "ok")

    def test_corrupt_report_fails(self):
        self.assertEqual(self.verdict(0, self.ref[1][:-5]), "failed")
        self.assertEqual(self.verdict(0, "[]"), "failed")

    def test_nonzero_exit(self):
        self.assertEqual(self.verdict(2, ""), "failed")
        bad = json.dumps({"dimensions": [1, 2, 1], "rays": [[1, 0]], "ok": False})
        self.assertEqual(self.verdict(1, bad, ref=(1, bad)), "unverified")
        self.assertEqual(self.verdict(0, bad, ref=(0, bad)), "failed")
        self.assertEqual(self.verdict(1, self.ref[1]), "failed")

    def test_oracle_and_reference_mismatch_fail(self):
        self.assertEqual(self.verdict(0, report(rays=[[1, 0]], dimensions=[1, 1, 1]),
                                      oracles=()), "failed")
        self.assertEqual(self.verdict(0, report(rays=[[1, 0]], dimensions=[1, 1, 1])),
                         "failed")

    def test_text_reports(self):
        ref = (0, "a: 1\nok: true\n")
        self.assertEqual(checks.verdict(0, ref[1], "text", (), None, ref)[0], "ok")
        self.assertEqual(checks.verdict(0, "a: 1\n", "text", (), None, ref)[0], "failed")


class Tally(unittest.TestCase):
    def test_failures_count_against_attempted(self):
        inv = run.Invocation("cohomology", "p1xp1", [], ["betti"], P1XP1, "", "")
        ref = (0, report(rays=[[1, 0]], dimensions=[1, 2, 1]))
        tally = run.Tally()
        tally.add(inv, 0, ref[1], ref)
        tally.add(inv, 0, ref[1][:10], ref)          # corrupt
        tally.add(inv, 2, "", ref)                   # crash
        tally.add(inv, 0, ref[1].replace("1, 0", "2, 0"), ref, first=ref)  # not repeated
        self.assertEqual((tally.attempted, tally.failed), (4, 3))
        self.assertEqual(tally.fail_frac, 0.75)


if __name__ == "__main__":
    unittest.main()
