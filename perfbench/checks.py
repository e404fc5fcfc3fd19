"""Seeded inputs and output oracles for the qdm benchmark.

Nothing here imports qdm: every expected value is derived from the fan data
alone, so a check cannot pass because the program agrees with itself.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from math import comb, factorial


# -- seeded inputs -------------------------------------------------------

def coordinate_signs(dim, rng):
    """A random diagonal matrix with entries +-1: det is +1 or -1."""
    return [[rng.choice((1, -1)) if i == j else 0 for j in range(dim)]
            for i in range(dim)]


def seeded_fan(name, fan, seed):
    """The fan as the program receives it under a workload seed.

    Seed 0 is the fan as listed.  A positive seed flips the sign of a seeded
    subset of the lattice coordinates of every ray and shuffles the order of
    the maximal cones.  Entry sizes, ray order and every ray-indexed datum
    (nef basis, product factors) stay the same, and so does the report apart
    from "rays".  Coordinate permutations are left out on purpose: they
    reorder the ring-build relations, and that alone changes the cost of
    the same fan by up to 2x.
    """
    out = {"rays": [list(r) for r in fan["rays"]],
           "max_cones": [list(c) for c in fan["max_cones"]]}
    if "nef_basis" in fan:
        out["nef_basis"] = fan["nef_basis"]
    if seed == 0:
        return out
    rng = random.Random("%d:%s" % (seed, name))
    mat = coordinate_signs(len(out["rays"][0]), rng)
    out["rays"] = [[sum(m * x for m, x in zip(row, ray)) for row in mat]
                   for ray in out["rays"]]
    rng.shuffle(out["max_cones"])
    return out


# -- Betti numbers from the f-vector ---------------------------------------

def f_vector(max_cones, dim):
    """f_i = number of i-dimensional cones of the fan, for i = 0..dim."""
    faces = set()
    for cone in max_cones:
        for size in range(len(cone) + 1):
            faces.update(frozenset(s) for s in itertools.combinations(cone, size))
    f = [0] * (dim + 1)
    for face in faces:
        f[len(face)] += 1
    return f


def h_vector(max_cones, dim):
    """Betti numbers of a smooth complete toric variety:
    sum_i h_i t^i = sum_i f_i t^i (1 - t)^(dim - i)."""
    f = f_vector(max_cones, dim)
    h = [0] * (dim + 1)
    for i, fi in enumerate(f):
        for j in range(dim - i + 1):
            h[i + j] += fi * comb(dim - i, j) * (-1) ** j
    return h


# -- oracles ---------------------------------------------------------------
# Each takes (report, fan) and returns None when the check holds, else a
# one-line reason.

def oracle_betti(report, fan):
    dim = len(fan["rays"][0])
    want = h_vector(fan["max_cones"], dim)
    got = report.get("dimensions")
    if got != want:
        return "dimensions %r, f-vector gives %r" % (got, want)
    return None


def oracle_p3_component0(report, fan):
    """Component 0 of P^3 is sum_d q^d hbar^(-4d) / (d!)^4, one term per d."""
    bound = report.get("max_degree")
    rows = report.get("components", {}).get("0")
    if not isinstance(bound, int) or rows is None:
        return "component 0 missing"
    want = [{"degree": [d], "terms": [{"log": [0], "hbar": -4 * d,
                                       "coeff": str(Fraction(1, factorial(d) ** 4))}]}
            for d in range(bound // 4 + 1)]
    if rows != want:
        return "component 0 differs from 1/(d!)^4"
    return None


def oracle_box_relations(report, fan):
    """Each P^k factor with ray set S gives p_j^(k+1) - q_j, where row j of
    the charge matrix is the indicator of S."""
    cm = report.get("charge_matrix") or []
    seen = {e.get("relation") for e in report.get("gkz", []) + report.get("annihilators", [])}
    n = len(fan["rays"])
    for factor in fan["factors"]:
        indicator = [1 if k in factor else 0 for k in range(n)]
        if indicator not in cm:
            return "no charge-matrix row for factor %r" % factor
        j = cm.index(indicator) + 1
        want = "p%d^%d - q%d" % (j, len(factor), j)
        if want not in seen:
            return "relation %s missing" % want
    return None


ORACLES = {
    "betti": oracle_betti,
    "p3_component0": oracle_p3_component0,
    "box_relations": oracle_box_relations,
}


# -- one invocation's verdict -----------------------------------------------

def parse_report(stdout, fmt):
    """(report, ok) from the program's stdout; report is None for text output.
    Raises ValueError when the output is corrupt."""
    if fmt == "text":
        lines = stdout.rstrip("\n").split("\n")
        if lines[-1] not in ("ok: true", "ok: false"):
            raise ValueError("text report does not end in an ok line")
        return None, lines[-1] == "ok: true"
    report = json.loads(stdout)
    if not isinstance(report, dict) or not isinstance(report.get("ok"), bool):
        raise ValueError("report has no boolean ok")
    return report, report["ok"]


def same_report(a, b, fmt):
    """Equal apart from "rays", the only field a seed may change."""
    if a == b:
        return True
    if fmt == "text":
        return False
    try:
        ra, rb = json.loads(a), json.loads(b)
    except ValueError:
        return False
    if not (isinstance(ra, dict) and isinstance(rb, dict)):
        return False
    ra.pop("rays", None)
    rb.pop("rays", None)
    return ra == rb


def verdict(exit_code, stdout, fmt, oracles, fan, reference):
    """Classify one invocation.

    Returns (status, reason) with status one of
      "ok"         exit 0, "ok": true, every check holds;
      "unverified" exit 1 with "ok": false, the program's own verdict that
                   a verification failed, otherwise consistent;
      "failed"     anything else: another exit code, exit and ok disagree,
                   a corrupt report, a failed oracle, or output that differs
                   from the reference (first repetition, seed 0).
    reference is (exit_code, stdout) of the seed-0 run of the same command.
    """
    if exit_code not in (0, 1):
        return "failed", "exit code %d" % exit_code
    try:
        report, ok = parse_report(stdout, fmt)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        return "failed", "corrupt report: %s" % exc
    if ok != (exit_code == 0):
        return "failed", "exit %d disagrees with ok=%s" % (exit_code, ok)
    for name in oracles:
        reason = ORACLES[name](report, fan)
        if reason is not None:
            return "failed", "oracle %s: %s" % (name, reason)
    ref_exit, ref_stdout = reference
    if exit_code != ref_exit or not same_report(stdout, ref_stdout, fmt):
        return "failed", "output differs from the seed-0 reference"
    if exit_code != 0:
        return "unverified", "exit 1, ok false"
    return "ok", ""
