from fractions import Fraction
from pathlib import Path

import pytest

import qdm
from qdm.cohomology import CohomClass

FAN_DIR = Path(__file__).resolve().parent.parent / "fans"

CORPUS = ["p1", "p2", "p3", "p1xp1", "hirzebruch1", "dp2"]


def load_fan(name):
    return qdm.parse_fan((FAN_DIR / (name + ".json")).read_text())


def ratio_at(ring, cm, degree, hbar):
    """R_degree at the given integer value of hbar, straight from its factors
    (alpha_k + nu*hbar), independently of the weight rule."""
    out = ring.one()
    for k in range(cm.n):
        a_k = cm.pairing(degree, k)
        alpha = ring.generator(k)
        for nu in range(1, a_k + 1):
            out = out * qdm.inverse_linear_factor(ring, alpha, nu * hbar)
        for nu in range(a_k + 1, 1):
            out = out * qdm.linear_factor(ring, alpha, nu * hbar)
    return out


def rescaled(cls, c1, hbar):
    """A weight-0 q^d value stored at hbar = 1, moved to another hbar by the
    weight rule: the monomial m carries hbar^(-c1 - deg m)."""
    return CohomClass(cls.ring, {m: c * Fraction(hbar) ** (-c1 - sum(m))
                                 for m, c in cls.coeffs.items()})


@pytest.fixture(scope="session")
def corpus():
    """name -> (fan, charge matrix, ring, mori generators) for the test fans."""
    out = {}
    for name in CORPUS:
        fan = load_fan(name)
        cm = qdm.charge_matrix(fan)
        ring = qdm.build_ring(fan, cm)
        gens = qdm.mori_generators(fan, cm)
        out[name] = (fan, cm, ring, gens)
    return out
