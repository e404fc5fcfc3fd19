import importlib.util
import json
import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from math import factorial, gcd, lcm, prod
from operator import mul
from pathlib import Path

import pytest

import qdm
from qdm import linalg
from qdm.cohomology import monomials, poly_mul
from qdm.dmodule import DiffOp, _ansatz_key
from qdm.toric import FanError

FAN_DIR = Path(__file__).resolve().parent.parent / "fans"
BENCH_FANS = FAN_DIR.parent / "perfbench" / "fans.json"
BENCH_CHECKS = FAN_DIR.parent / "perfbench" / "checks.py"

CORPUS = ["p1", "p2", "p3", "p1xp1", "hirzebruch1", "dp2"]
SHIPPED = sorted(path.stem for path in FAN_DIR.glob("*.json"))


def load_fan(name):
    return qdm.parse_fan((FAN_DIR / (name + ".json")).read_text())


def load_bench_fan(name):
    """A fan of the benchmark's fans.json, which fans/ may lack."""
    data = json.loads(BENCH_FANS.read_text())[name]
    return qdm.make_fan(data["rays"], data["max_cones"], data.get("nef_basis"))


@lru_cache(maxsize=None)
def bench_checks():
    """The benchmark's checks.py, which imports nothing of qdm: its seeded
    fans and its Betti numbers from the h-vector."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", BENCH_CHECKS)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    return checks


def seeded_bench_fans(seeds=range(4)):
    """(name, seed, fan) for every fan of the benchmark's fans.json, as the
    benchmark hands it to the program at each seed (checks.seeded_fan)."""
    checks = bench_checks()
    for name, data in json.loads(BENCH_FANS.read_text()).items():
        for seed in seeds:
            seeded = checks.seeded_fan(name, data, seed)
            yield name, seed, qdm.make_fan(seeded["rays"], seeded["max_cones"],
                                           seeded.get("nef_basis"))


# The Fraction views the package does without, kept for the tests: a class's
# coordinates, and its integral normalized by one torus-fixed point.

def coeffs(cls):
    """{basis monomial: Fraction}, the coordinates of the class."""
    return {m: Fraction(c, cls.den) for m, c in cls.num.items()}


def integrate(ring, cls):
    """The integral of cls: its top-degree coordinate over that of the point
    class, the product of the generators over fan.max_cones[0].  The ring
    checks that every maximal cone gives the same point class."""
    top = ring.basis[-1]
    point = reduce(mul, [ring.generator(k) for k in ring.fan.max_cones[0]])
    return Fraction(cls.num.get(top, 0), cls.den) / Fraction(point.num[top], point.den)


# A dense fraction-free Gauss-Jordan, kept apart from linalg's sparse kernel
# so that the oracles which solve and invert do not run on the code they
# check.

def reference_rref(rows, width):
    """(rows, pivot_columns) of the reduced row echelon form, as Fractions,
    on the first width columns; zero rows are dropped.

    Each row is cleared to integers, eliminated by cross-multiplication
    with one gcd per updated row, and divided by its pivot at the end."""
    mat = []
    for row in rows:
        row = [Fraction(x) for x in row]
        den = lcm(*(x.denominator for x in row))
        mat.append([x.numerator * (den // x.denominator) for x in row])
    pivots = []
    r = 0
    for c in range(width):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        a = mat[r][c]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                b = mat[i][c]
                new = [a * x - b * y for x, y in zip(mat[i], mat[r])]
                g = gcd(*new)
                mat[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(mat, pivots)], pivots


def reference_solve_columns(cols, target):
    """Fraction x with sum_i x[i] * cols[i] = target, free coordinates zero,
    or None if inconsistent."""
    if not cols:
        return [] if all(t == 0 for t in target) else None
    height = len(cols[0])
    rows = [[col[i] for col in cols] + [target[i]] for i in range(height)]
    red, pivots = reference_rref(rows, len(cols) + 1)
    if len(cols) in pivots:
        return None
    x = [Fraction(0)] * len(cols)
    for row, c in zip(red, pivots):
        x[c] = row[-1]
    return x


def reference_invert(mat):
    """The Fraction inverse of a square matrix, or None if it is singular."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(mat)]
    red, pivots = reference_rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


# Cones that are unimodular, with each wall in two of them on opposite
# sides, but that wind twice around the origin: a multi-fan of degree two
# (Hattori-Masuda 2003), and a nef basis of ten of its 46 nef rays.
DOUBLE_CYCLE_RAYS = [[1, 0], [-2, 1], [-1, 0], [-2, -1], [-1, -1], [-1, -2], [0, -1],
                     [1, 1], [0, 1], [-1, 1], [1, -2], [1, -1]]
DOUBLE_CYCLE_CONES = [[i, (i + 1) % 12] for i in range(12)]
DOUBLE_CYCLE_NEF = [[0, 0, 0, 1, 1, 2, 1, -1, -1, -1, 2, 1],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1],
                    [0, 0, 1, 4, 3, 5, 2, -3, -1, 1, 0, 0],
                    [0, 0, 0, 0, 1, 3, 2, 0, 0, 0, 0, 0],
                    [0, 0, 0, 1, 1, 2, 2, 0, 0, 0, 0, 0],
                    [0, 0, 0, 0, 1, 3, 2, -1, -2, -3, 6, 3],
                    [0, 0, 0, 0, 0, 1, 1, 0, -1, -1, 2, 1],
                    [0, 0, 0, 0, 0, 0, 2, 2, 1, 0, 0, 0],
                    [0, 0, 1, 4, 3, 6, 3, -3, -3, -3, 6, 3],
                    [0, 0, 0, 0, 0, 1, 1, 0, -1, 0, 1, 0]]


def reference_cover_count(rays, max_cones, seed):
    """The number of maximal cones that hold a seeded point inside the first
    one, sum_k c_k v_k over its rays with rational c_k > 0: each cone's
    coordinates of the point are solved for by the dense reduction above,
    not read off make_fan's cone inverses.  Generic points of a multi-fan
    are held by its degree's worth of cones, of a fan by one."""
    rng = random.Random(seed)
    weights = [Fraction(rng.randint(1, 10**6), rng.randint(1, 10**3)) for _ in max_cones[0]]
    point = [sum(c * rays[k][i] for c, k in zip(weights, max_cones[0]))
             for i in range(len(rays[0]))]
    solutions = [reference_solve_columns([rays[k] for k in cone], point) for cone in max_cones]
    return sum(x is not None and min(x) >= 0 for x in solutions)


def star_subdivide(rays, cones, face):
    """(rays, cones) of the star subdivision at a face of at least two rays,
    the blow-up along its orbit closure: the new ray is the sum of the
    face's rays, and each maximal cone that holds the face becomes one cone
    per face ray, with that ray swapped for the new one.  A smooth
    projective fan stays smooth and projective (Fulton 1993, 2.4)."""
    new = len(rays)
    out = []
    for cone in cones:
        if set(face) <= set(cone):
            out += [[new if k == f else k for k in cone] for f in face]
        else:
            out.append(list(cone))
    return [list(r) for r in rays] + [[sum(x) for x in zip(*[rays[k] for k in face])]], out


def seeded_blow_ups(count, seed):
    """count seeded fans, each P^2 or P^3 star-subdivided 1 to 3 times at a
    random face of a random maximal cone, as (rays, cones)."""
    rng = random.Random(seed)
    starts = [([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]]),
              ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
               [list(c) for c in combinations(range(4), 3)])]
    for _ in range(count):
        rays, cones = rng.choice(starts)
        for _ in range(rng.randint(1, 3)):
            cone = rng.choice(cones)
            face = rng.sample(cone, rng.randint(2, len(cone)))
            rays, cones = star_subdivide(rays, cones, face)
        yield rays, cones


# Integration by localization at the torus-fixed points (Atiyah-Bott), kept
# as the oracle for the ring's integrals: it reads the rays and the maximal
# cones alone, not the reduction table or the point normalization.

@lru_cache(maxsize=None)
def _fixed_point_weights(rays, max_cones, lam):
    """For each maximal cone sigma, {k: x_k|sigma} over the rays k of sigma:
    x_k|sigma = <u_{sigma,k}, lam>, with u_{sigma,k} the basis dual to the
    rays of sigma, a column of their inverse."""
    out = []
    for cone in max_cones:
        inv = reference_invert([rays[k] for k in cone])
        weights = {k: sum(row[i] * x for row, x in zip(inv, lam)) for i, k in enumerate(cone)}
        if not all(weights.values()):
            raise ValueError("lam pairs to 0 with a dual ray of cone %r" % (cone,))
        out.append(weights)
    return out


def reference_localized_integral(fan, exps, lam):
    """The integral of prod_k x_k^exps[k] by localization: the sum over the
    maximal cones sigma of prod_k x_k|sigma^exps[k] / prod_{k in sigma}
    x_k|sigma, where x_k|sigma is <u_{sigma,k}, lam> for k in sigma and 0
    elsewhere.  lam is a rational vector that pairs nonzero with every
    u_{sigma,k}; on a monomial of top degree the sum does not depend on it."""
    total = Fraction(0)
    for weights in _fixed_point_weights(fan.rays, fan.max_cones, tuple(lam)):
        if all(k in weights for k, e in enumerate(exps) if e):
            total += (prod(weights[k] ** e for k, e in enumerate(exps) if e)
                      / prod(weights.values()))
    return total


def same_fan_copies(name):
    """The shipped fan's data, then copies with a seeded subset of the ray
    coordinates negated and the maximal cones shuffled: the same variety,
    with the same ray order."""
    data = json.loads((FAN_DIR / (name + ".json")).read_text())
    yield data
    for seed in range(1, 4):
        rng = random.Random("%d:%s" % (seed, name))
        signs = [rng.choice((1, -1)) for _ in data["rays"][0]]
        copy = dict(data, rays=[[s * x for s, x in zip(signs, ray)] for ray in data["rays"]],
                    max_cones=[list(c) for c in data["max_cones"]])
        rng.shuffle(copy["max_cones"])
        yield copy


# The class arithmetic that multiplication matrices replaced, kept as the
# oracle: every factor is a full class pushed through CohomRing.multiply, and
# each inverse is the terminating series sum_p (-cls)^p / nu^(p+1).

def reference_linear_factor(ring, cls, nu):
    """The factor (cls + nu*hbar) at hbar = 1."""
    return cls + ring.one().scale(nu)


def reference_inverse_linear_factor(ring, cls, nu):
    """Exact inverse of (cls + nu*hbar) at hbar = 1; needs nu != 0 and cls
    nilpotent of degree one."""
    if nu == 0:
        raise ValueError("cannot invert a factor with vanishing hbar part")
    out = ring.zero()
    power = ring.one()
    p = 0
    while not power.is_zero():
        out = out + power.scale(Fraction((-1) ** p, nu ** (p + 1)))
        power = power * cls
        p += 1
    return out


def reference_theta_values(ring, l):
    """Memoized value(d, t) = prod_j (omega_j + d_j)^t_j: theta^t on q^d at
    hbar = 1, up to the factor q^d."""
    omegas = [ring.omega_class(j) for j in range(l)]
    cache = {}

    def value(d, t):
        key = (d, t)
        if key not in cache:
            j = next((j for j, x in enumerate(t) if x), None)
            if j is None:
                cache[key] = ring.one()
            else:
                lower = t[:j] + (t[j] - 1,) + t[j + 1:]
                cache[key] = value(d, lower) * reference_linear_factor(
                    ring, omegas[j], d[j])
        return cache[key]
    return value


# The Fraction kernels that integer numerators over one denominator
# replaced, kept as the oracle.  They read the reduced forms off a
# reference_reduction_table (below), not off the ring's own table, and
# return coefficient dicts {basis monomial: Fraction}.

def _mono_product(m1, m2):
    return tuple(x + y for x, y in zip(m1, m2))


def reference_multiply(table, top, a, b):
    """a * b, every product of basis monomials reduced through the table."""
    out = {}
    for m1, c1 in coeffs(a).items():
        for m2, c2 in coeffs(b).items():
            prod = _mono_product(m1, m2)
            if sum(prod) > top:
                continue
            c12 = c1 * c2
            for mb, r in table[prod].items():
                out[mb] = out.get(mb, Fraction(0)) + c12 * r
    return {m: c for m, c in out.items() if c}


def _reference_linear_rows(table, basis, lin):
    """{b: ((mb, coeff), ...)}, row b the reduced product lin*b."""
    rows = {}
    for b in basis[:-1]:
        row = {}
        for m, c in coeffs(lin).items():
            for mb, r in table[_mono_product(m, b)].items():
                row[mb] = row.get(mb, Fraction(0)) + c * r
        rows[b] = tuple((mb, r) for mb, r in row.items() if r)
    return rows


def reference_times_linear(table, basis, cls, lin, nu):
    """(lin + nu) * cls for a degree-one class lin, in one sparse pass."""
    rows = _reference_linear_rows(table, basis, lin)
    out = {b: nu * c for b, c in coeffs(cls).items()}
    for b, c in coeffs(cls).items():
        for mb, r in rows.get(b, ()):
            out[mb] = out.get(mb, 0) + c * r
    return {m: Fraction(c) for m, c in out.items() if c}


def reference_divide_linear(table, basis, cls, lin, nu):
    """(lin + nu)^-1 * cls, solved degree by degree up the graded basis."""
    rows = _reference_linear_rows(table, basis, lin)
    values = coeffs(cls)
    out = {}
    spill = {}
    for b in basis:
        c = values.get(b, 0) - spill.get(b, 0)
        if c:
            out[b] = c = Fraction(c) / nu
            for mb, r in rows.get(b, ()):
                spill[mb] = spill.get(mb, 0) + c * r
    return out


# The direct product that the neighbour recurrence replaced, kept as the
# oracle: every R_d built from 1 by its sum_k |a_k| factors, with no memo.

def reference_euler_ratio(ring, cm, degree):
    """R_degree at hbar = 1, one linear pass per factor (alpha_k + nu)."""
    out = ring.one()
    for k in range(cm.n):
        a_k = cm.pairings(degree)[k]
        alpha = ring.generator(k)
        for nu in range(1, a_k + 1):
            out = ring.divide_linear(out, alpha, nu)
        for nu in range(a_k + 1, 1):
            out = ring.times_linear(out, alpha, nu)
    return out


def ratio_at(ring, cm, degree, hbar):
    """R_degree at the given integer value of hbar, straight from its factors
    (alpha_k + nu*hbar), independently of the weight rule."""
    out = ring.one()
    for k in range(cm.n):
        a_k = cm.pairings(degree)[k]
        alpha = ring.generator(k)
        for nu in range(1, a_k + 1):
            out = out * reference_inverse_linear_factor(ring, alpha, nu * hbar)
        for nu in range(a_k + 1, 1):
            out = out * reference_linear_factor(ring, alpha, nu * hbar)
    return out


def rescaled(cls, c1, hbar):
    """A weight-0 q^d value stored at hbar = 1, moved to another hbar by the
    weight rule: the monomial m carries hbar^(-c1 - deg m)."""
    ring = cls.ring
    return ring.combination(((Fraction(hbar) ** (-c1 - sum(m)) * c, ring.monomial_class(m))
                             for m, c in cls.num.items()), cls.den)


def _built(names):
    out = {}
    for name in names:
        fan = load_fan(name)
        cm = qdm.charge_matrix(fan)
        ring = qdm.build_ring(fan, cm)
        cone = qdm.mori_generators(fan, cm)
        out[name] = (fan, cm, ring, cone)
    return out


@pytest.fixture(scope="session")
def corpus():
    """name -> (fan, charge matrix, ring, Mori cone) for the test fans."""
    return _built(CORPUS)


@pytest.fixture(scope="session")
def shipped():
    """The same for every fan in fans/, the four-folds included."""
    return _built(SHIPPED)


# The pairing paths that one block per degree (CohomRing.pairing) replaced,
# kept as the oracle: the full chi x chi Gram matrix of integrals of basis
# products, inverted at once, and each component covector integrated basis
# class by basis class.

def reference_dual_basis(ring):
    """(T, T^) from the inverse of the whole Gram matrix of integrals."""
    t = [ring.monomial_class(m) for m in ring.basis]
    size = len(t)
    gram = [[integrate(ring, t[i] * t[j]) for j in range(size)] for i in range(size)]
    inv = reference_invert(gram)
    if inv is None:
        raise FanError("Poincare pairing is degenerate; fan data is invalid")
    return t, [ring.combination((inv[k][j], t[k]) for k in range(size))
               for j in range(size)]


def reference_component(series, beta, log_order, duals):
    """f_beta with every covector entry the integral of b * omega^t / t! *
    duals[beta], for duals from reference_dual_basis."""
    ring = series.ring
    dual = duals[beta]
    deg_beta = sum(ring.basis[beta])
    covectors = {}
    for total in range(min(log_order, ring.top) + 1):
        for t in monomials(ring.l, total):
            cls = ring.omega_power(t)
            if cls.is_zero():
                continue
            wcls = cls.scale(Fraction(1, prod(map(factorial, t)))) * dual
            covectors[t] = [(b, v) for b in ring.basis
                            if (v := integrate(ring, ring.monomial_class(b) * wcls))]
    out = {}
    for d in series.degrees:
        h = series.weight - ring.cm.c1_degree(d) - deg_beta
        values = coeffs(series.coefficients[d])
        entry = {}
        for t, cov in covectors.items():
            val = sum(v * values.get(b, 0) for b, v in cov)
            if val:
                entry[(t, h)] = val
        out[d] = dict(sorted(entry.items()))
    return out


def product_fan(*names):
    """The fan of the product of fans, each a shipped fan's name or a dict of
    fan data: block rays, and the products of their maximal cones.  When
    every factor supplies a nef basis, the product supplies their union,
    each vector zero on the other factors' rays."""
    datas = [json.loads((FAN_DIR / (name + ".json")).read_text())
             if isinstance(name, str) else name for name in names]
    dims = [len(data["rays"][0]) for data in datas]
    sizes = [len(data["rays"]) for data in datas]
    rays, cones, nef = [], [[]], []
    for i, data in enumerate(datas):
        shift = len(rays)
        rays += [[0] * sum(dims[:i]) + list(ray) + [0] * sum(dims[i + 1:])
                 for ray in data["rays"]]
        cones = [c + [shift + k for k in cone] for c in cones for cone in data["max_cones"]]
        nef += [[0] * shift + list(vec) + [0] * sum(sizes[i + 1:])
                for vec in data.get("nef_basis", ())]
    supplied = all("nef_basis" in data for data in datas)
    return qdm.make_fan(rays, cones, nef if supplied else None)


# The quantum period from the rays alone: it reads no charge matrix, Mori
# cone or ring, so it checks the degree window and the unit coefficients of
# the R_d independently (Coates-Corti-Galkin-Kasprzyk; Givental's mirror
# theorem).

def reference_quantum_period(fan, top):
    """[constant term of f^m for m = 0..top], f = sum_k x^{v_k} the Laurent
    polynomial of the rays.  It equals m! * sum over c1(d) = m of the unit
    coefficient of R_d."""
    zero = (0,) * fan.dim
    power = {zero: 1}
    out = [1]
    for _ in range(top):
        step = {}
        for e, c in power.items():
            for ray in fan.rays:
                key = tuple(a + b for a, b in zip(e, ray))
                step[key] = step.get(key, 0) + c
        power = step
        out.append(power.get(zero, 0))
    return out


# The pair-list loop model that per-ray intervals replaced, kept as the
# oracle: every transverse (k, nu) pair listed, and the finite-mode ratio
# formed by cancelling the common pairs of components d and 0.

def reference_weight_pairs(cm, degree, modes):
    """(positive, negative): the sorted transverse (k, nu) pairs of the
    degree-d component at cutoff N, split by the sign of nu - a_k."""
    positive = []
    negative = []
    for k in range(cm.n):
        a_k = cm.pairings(degree)[k]
        for nu in range(a_k + 1, modes + 1):
            positive.append((k, nu))
        for nu in range(-modes, a_k):
            negative.append((k, nu))
    return tuple(sorted(positive)), tuple(sorted(negative))


def reference_euler_ratio_n(ring, cm, degree, modes):
    """e(positive pairs of d) / e(positive pairs of 0) at cutoff N, with the
    common pairs cancelled before anything is inverted."""
    pos_d = set()
    pos_0 = set()
    for k in range(cm.n):
        a_k = cm.pairings(degree)[k]
        for nu in range(a_k + 1, modes + 1):
            pos_d.add((k, nu))
        for nu in range(1, modes + 1):
            pos_0.add((k, nu))
    out = ring.one()
    for k, nu in sorted(pos_d - pos_0):
        out = ring.times_linear(out, ring.generator(k), nu)
    for k, nu in sorted(pos_0 - pos_d):  # nu >= 1, so every inverse exists
        out = ring.divide_linear(out, ring.generator(k), nu)
    return out


# The reduction over all n ray variables that the free-variable presentation
# replaced, kept as the oracle: every monomial of degree <= dim + 1 gets an
# entry, the Stanley-Reisner divisible ones an empty one, and the rest are
# row-reduced against the linear relations times the lower monomials.

def reference_reduction_table(fan):
    """(table, basis_by_degree): the reduced form {basis monomial: coeff} of
    every n-variable monomial of degree <= dim + 1, and the standard
    monomials of each degree <= dim."""
    n = fan.n_rays
    cones = [set(c) for c in fan.max_cones]
    ray_rows = [[ray[nu] for ray in fan.rays] for nu in range(fan.dim)]

    def sr_divisible(mono):
        # divisible by a minimal nonface <=> the support lies in no maximal cone
        support = {i for i, e in enumerate(mono) if e}
        return not any(support <= c for c in cones)

    table = {}
    basis_by_degree = {}
    for deg in range(fan.dim + 2):
        alive = []
        for m in monomials(n, deg):
            if sr_divisible(m):
                table[m] = {}
            else:
                alive.append(m)
        index = {m: i for i, m in enumerate(alive)}
        rows = []
        if deg >= 1:
            for coeffs in ray_rows:
                for mu in monomials(n, deg - 1):
                    if sr_divisible(mu):
                        continue
                    row = [0] * len(alive)
                    for k in range(n):
                        j = index.get(tuple(e + (i == k) for i, e in enumerate(mu)))
                        if coeffs[k] and j is not None:
                            row[j] += coeffs[k]
                    rows.append(row)
        red, pivots = linalg.rref(rows, len(alive))
        pivset = set(pivots)
        basis = [alive[j] for j in range(len(alive)) if j not in pivset]
        for row, c in zip(red, pivots):
            table[alive[c]] = {alive[j]: Fraction(-row[j], row[c]) for j in range(len(alive))
                               if j not in pivset and row[j]}
        for m in basis:
            table[m] = {m: Fraction(1)}
        if deg <= fan.dim:
            basis_by_degree[deg] = basis
    return table, basis_by_degree


# The subset walk that primitive collections read off the face set replaced,
# kept as the oracle: every set of two or more rays is tested against every
# maximal cone, smallest first.

def reference_primitive_collections(fan):
    """The minimal sets of rays that lie in no maximal cone, as frozensets."""
    cones = [frozenset(c) for c in fan.max_cones]
    nonfaces = []
    for size in range(2, fan.n_rays + 1):
        for combo in combinations(range(fan.n_rays), size):
            s = frozenset(combo)
            if any(s <= c for c in cones) or any(nf < s for nf in nonfaces):
                continue
            nonfaces.append(s)
    return nonfaces


# Batyrev's primitive relations, kept as an oracle for the Mori cone: the
# rays of a primitive collection P sum to sum c_i v_i with c >= 0 on the rays
# of a maximal cone, and the class beta_P has D_k . beta_P = [k in P] - c_k.

def reference_primitive_relations(fan, cm):
    """beta_P in charge coordinates, one per primitive collection P."""
    out = []
    for collection in reference_primitive_collections(fan):
        target = [sum(fan.rays[k][nu] for k in collection) for nu in range(fan.dim)]
        for cone in fan.max_cones:
            c = reference_solve_columns([list(fan.rays[i]) for i in cone], target)
            if c is not None and min(c) >= 0:
                break
        rel = [int(k in collection) for k in range(fan.n_rays)]
        for i, x in zip(cone, c):
            rel[i] -= int(x)
        out.append(reference_coords_in_basis(cm.m, rel))
    return out


# The per-wall derivation that one inverse per maximal cone replaced, kept
# as the oracle: each wall's relation solved from its own rays, and each
# class's coordinates solved against the whole lattice basis, by Fraction
# elimination.

def reference_wall_relations(fan):
    """One relation u + u' + sum_i b_i v_i = 0 per wall, b solved over the
    wall's rays, deduplicated in sorted wall order."""
    walls = {}
    for ci, cone in enumerate(fan.max_cones):
        for wall in combinations(cone, fan.dim - 1):
            walls.setdefault(wall, []).append(ci)
    rels = []
    for wall, (ci, cj) in sorted(walls.items()):
        u = next(k for k in fan.max_cones[ci] if k not in wall)
        up = next(k for k in fan.max_cones[cj] if k not in wall)
        target = [-(fan.rays[u][nu] + fan.rays[up][nu]) for nu in range(fan.dim)]
        sol = reference_solve_columns([list(fan.rays[k]) for k in wall], target) if wall else []
        if sol is None:
            raise FanError("wall %r does not span a hyperplane" % (list(wall),))
        rel = [0] * fan.n_rays
        rel[u] += 1
        rel[up] += 1
        for k, b in zip(wall, sol):
            rel[k] += int(b)
        if tuple(rel) not in rels:
            rels.append(tuple(rel))
    return rels


def reference_basis_is_nef(fan, basis):
    """Does each basis vector, a divisor's coefficients on the rays, pair
    >= 0 with every wall relation?  The rule charge_matrix once checked."""
    rels = reference_wall_relations(fan)
    return all(sum(map(mul, vec, rel)) >= 0 for vec in basis for rel in rels)


def reference_coords_in_basis(basis_rows, vec):
    """Integer coordinates of vec in the lattice basis given by basis_rows,
    or None."""
    sol = reference_solve_columns([list(r) for r in basis_rows], list(vec))
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


# The dense kernel that sparse rows replaced, kept as the oracle: rows
# cleared to coprime integers, the first row with a nonzero entry as the
# pivot, every other row updated by cross-multiplication over its gcd.

def reference_reduce(rows, width):
    """(int_rows, pivot_columns) of the reduced row echelon form of dense
    rows, each row a coprime integer multiple of the Fraction one."""
    mat = [list(linalg.primitive_vector(row)) for row in rows if any(row)]
    pivots = []
    for c in range(width):
        r = len(pivots)
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        prow = mat[r]
        a = prow[c]
        for i, row in enumerate(mat):
            b = row[c]
            if b and i != r:
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
    return mat[:len(pivots)], pivots


# The Mori-cone tests that facet normals replaced, kept as the oracle: a
# Caratheodory search over generator subsets, and a pruning loop that drops
# every wall class lying in the cone of the others.

def reference_in_cone(degree, gens):
    """Is degree a nonnegative rational combination of the generators?  It
    suffices to test subsets of at most the ambient rank."""
    if all(x == 0 for x in degree):
        return True
    if not gens:
        return False
    l = len(degree)
    target = list(degree)
    for size in range(1, min(l, len(gens)) + 1):
        for sub in combinations(gens, size):
            sol = reference_solve_columns([list(g) for g in sub], target)
            if sol is not None and all(x >= 0 for x in sol):
                return True
    return False


def reference_mori_generators(fan, cm):
    """The primitive wall classes, pruned until none lies in the cone of the
    others, sorted by (c1, class)."""
    extremal = sorted({linalg.primitive_vector(reference_coords_in_basis(cm.m, rel))
                       for rel in reference_wall_relations(fan)})
    changed = True
    while changed:
        changed = False
        for g in list(extremal):
            others = [h for h in extremal if h != g]
            if others and reference_in_cone(g, others):
                extremal.remove(g)
                changed = True
    extremal.sort(key=lambda d: (cm.c1_degree(d), d))
    return extremal


# The nef cone's extreme rays by one nullspace per (l - 1)-subset of wall
# classes, which the double description replaced, kept as the oracle.

def reference_dual_cone_rays(wall_coords, l):
    """Primitive extreme rays of {y : y . c >= 0 for all classes c}, sorted:
    each (l - 1)-subset with a one-dimensional nullspace gives a candidate,
    kept with the sign on which every class is nonnegative.  The classes
    must span."""
    found = set()
    for sub in combinations(wall_coords, l - 1):
        null = linalg.nullspace(linalg._sparse(sub), l)
        if len(null) != 1:
            continue
        cand = linalg.primitive_vector([null[0][0].get(j, 0) for j in range(l)])
        for sign in (1, -1):
            y = tuple(sign * x for x in cand)
            if all(sum(a * b for a, b in zip(y, c)) >= 0 for c in wall_coords):
                found.add(y)
                break
    return sorted(found)


# The box operator as dict-polynomial products, which the operator algebra
# replaced, kept as the oracle: each side of the box is multiplied out in
# theta at hbar = 1 and put into one normal-ordered operator.

def reference_gkz_operator(cm, degree):
    """prod_{a_k>0} prod_{nu<a_k} (D_k - nu) - q^degree prod_{a_k<0}
    prod_{nu<-a_k} (D_k - nu), D_k = sum_j m[j][k] theta_j, of weight
    sum_{a_k>0} a_k."""
    l = cm.l
    one = (0,) * l
    pos = {one: 1}
    neg = {one: 1}
    weight = 0
    for k, a_k in enumerate(cm.pairings(degree)):
        d_k = {tuple(1 if i == j else 0 for i in range(l)): cm.m[j][k]
               for j in range(l) if cm.m[j][k]}
        for nu in range(abs(a_k)):
            factor = {**d_k, one: -nu} if nu else d_k
            if a_k > 0:
                pos = poly_mul(pos, factor)
            else:
                neg = poly_mul(neg, factor)
        weight += max(a_k, 0)
    terms = {(one, t): c for t, c in pos.items()}
    terms.update({(tuple(degree), t): -c for t, c in neg.items()})
    return DiffOp(cm, weight, terms)


# Normal ordering one commutator at a time, kept apart from the operator
# algebra's binomial shift: theta_j q^e = q^e (theta_j + e_j hbar), at
# hbar = 1 a multiplication by the linear factor theta_j + e_j.

def reference_compose(a, b):
    """The composition a * b of two DiffOps: each theta_j of a term of a is
    moved past q^e of a term of b on its own."""
    out = {}
    for (e1, t1), c1 in a.num.items():
        for (e2, t2), c2 in b.num.items():
            poly = {t2: c2}
            for j, tj in enumerate(t1):
                for _ in range(tj):
                    moved = {}
                    for s, c in poly.items():
                        up = s[:j] + (s[j] + 1,) + s[j + 1:]
                        moved[up] = moved.get(up, 0) + c
                        moved[s] = moved.get(s, 0) + e2[j] * c
                    poly = moved
            e = tuple(x + y for x, y in zip(e1, e2))
            for s, c in poly.items():
                out[e, s] = out.get((e, s), 0) + c1 * c
    return DiffOp(a.cm, a.weight + b.weight, out, a.den * b.den)


def spans(ops, targets):
    """Is every target a rational combination of the operators?  Decided at
    once, by comparing ranks of the integer numerator rows: scaling a row by
    its operator's den leaves the rank unchanged.  The ranks come from
    reference_rref, so that the oracle does not run on linalg's kernel."""
    rows = [{term[:3]: term[3] for term in op.walk()} for op in ops + targets]
    keys = sorted({k for row in rows for k in row}, key=lambda k: _ansatz_key(*k))

    def rank(group):
        return len(reference_rref([[row.get(k, 0) for k in keys] for row in group],
                                  len(keys))[1])
    return rank(rows) == rank(rows[:len(ops)])
