"""Fans of smooth complete toric varieties, charge matrices, curve classes.

A fan is given by its primitive ray generators v_1..v_n in Z^dim and the
index sets of its maximal cones.  Smoothness means every maximal cone is
unimodular; completeness is checked through its combinatorial shadow (every
wall, i.e. codimension-one face, is shared by exactly two maximal cones).

The charge matrix m is an l x n integer matrix (l = n - dim) whose rows form
a basis of the relation lattice {r in Z^n : sum_k r_k v_k = 0}.  The rows are
chosen dual to a basis omega_1..omega_l of the nef cone, so that a curve
class d has coordinates d_j = <omega_j, d> >= 0 exactly on the Mori cone, and
the divisor class alpha_k of the k-th ray satisfies
<alpha_k, d> = sum_j m[j][k] * d_j.

The Mori cone has one description: the facet normals y of the cone its
generators span (the extreme rays of its dual).  in_cone, mori_generators and
enumerate_degrees all test classes d by y . d against them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from . import linalg

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")  # the strings parse_frac reads


class FanError(ValueError):
    """Invalid or unsupported fan data."""


class NefBasisError(ValueError):
    """No suitable nef basis could be found or the supplied one is invalid."""


@dataclass(frozen=True)
class FanData:
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]
    nef_basis: tuple[tuple[Fraction, ...], ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.rays[0])

    @property
    def n_rays(self) -> int:
        return len(self.rays)


@dataclass(frozen=True)
class ChargeMatrix:
    m: tuple[tuple[int, ...], ...]

    @property
    def l(self) -> int:
        return len(self.m)

    @property
    def n(self) -> int:
        return len(self.m[0])

    def pairing(self, degree, k) -> int:
        """<alpha_k, d> = sum_j m[j][k] d_j for the k-th ray divisor (0-based k)."""
        return sum(self.m[j][k] * degree[j] for j in range(self.l))

    def c1_degree(self, degree) -> int:
        """Pairing of the anticanonical class sum_k alpha_k with the degree."""
        return sum(self.pairing(degree, k) for k in range(self.n))


def parse_frac(value) -> Fraction:
    """Accepts ints, Fractions and 'p/q' strings (as used in the JSON formats):
    ASCII digits with an optional minus sign and an optional '/' denominator."""
    if (isinstance(value, bool) or not isinstance(value, (int, Fraction, str))
            or isinstance(value, str) and not _RATIONAL.fullmatch(value)):
        raise ValueError("expected an integer or 'p/q' string, got %r" % (value,))
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (value,)) from None


def _int_tuple(values):
    """The entries as a tuple of genuine integers; floats, strings and
    booleans are rejected rather than truncated."""
    out = tuple(values)
    if any(isinstance(x, bool) or not isinstance(x, int) for x in out):
        raise ValueError("expected integers, got %r" % (list(out),))
    return out


def make_fan(rays, max_cones, nef_basis=None) -> FanData:
    """Validate raw fan data and freeze it into a FanData."""
    if not rays:
        raise FanError("fan has no rays")
    try:
        rays_t = tuple(_int_tuple(ray) for ray in rays)
    except (TypeError, ValueError):
        raise FanError("ray entries must be integers") from None
    dim = len(rays_t[0])
    if dim < 1:
        raise FanError("rays must have at least one coordinate")
    if any(len(r) != dim for r in rays_t):
        raise FanError("all rays must have the same number of coordinates")
    for i, ray in enumerate(rays_t):
        if all(x == 0 for x in ray):
            raise FanError("ray %d is the zero vector" % i)
        if linalg.vector_gcd(ray) != 1:
            raise FanError("ray %d is not primitive: %r" % (i, list(ray)))
    if len(set(rays_t)) != len(rays_t):
        raise FanError("duplicate rays")
    n = len(rays_t)
    if n <= dim:
        raise FanError("a complete fan in dimension %d needs more than %d rays" % (dim, dim))

    if not max_cones:
        raise FanError("fan has no maximal cones")
    cones = []
    for cone in max_cones:
        try:
            idx = _int_tuple(cone)
        except (TypeError, ValueError):
            raise FanError("maximal cone indices must be integers") from None
        if len(set(idx)) != len(idx):
            raise FanError("maximal cone %r repeats a ray" % (list(cone),))
        if any(k < 0 or k >= n for k in idx):
            raise FanError("maximal cone %r has an out-of-range ray index" % (list(cone),))
        if len(idx) != dim:
            raise FanError("maximal cone %r is not full dimensional" % (list(cone),))
        det = linalg.int_det([list(rays_t[k]) for k in idx])
        if det not in (1, -1):
            raise FanError("maximal cone %r is not unimodular (det %d); the variety "
                           "would be singular" % (list(cone), det))
        cones.append(tuple(sorted(idx)))
    if len(set(cones)) != len(cones):
        raise FanError("duplicate maximal cones")

    used = {k for cone in cones for k in cone}
    if used != set(range(n)):
        raise FanError("every ray must appear in some maximal cone")

    # Completeness proxy: each wall (codim-1 face) lies in exactly two cones.
    wall_count = {}
    for cone in cones:
        for wall in combinations(cone, dim - 1):
            wall_count[wall] = wall_count.get(wall, 0) + 1
    bad = [w for w, c in wall_count.items() if c != 2]
    if bad:
        raise FanError("fan is not complete: wall %r lies in %d maximal cones"
                       % (list(bad[0]), wall_count[bad[0]]))

    nef = None
    if nef_basis is not None:
        try:
            rows = [tuple(parse_frac(x) for x in vec) for vec in nef_basis]
        except (TypeError, ValueError):
            raise FanError("nef_basis entries must be integers or 'p/q' strings") from None
        if any(len(r) != n for r in rows):
            raise FanError("each nef_basis vector needs one coefficient per ray")
        if len(rows) != n - dim:
            raise FanError("nef_basis must contain exactly %d vectors" % (n - dim))
        nef = tuple(rows)
    return FanData(rays_t, tuple(cones), nef)


def parse_fan(text: str) -> FanData:
    """Parse the JSON fan format: {"rays": [[int]], "max_cones": [[int]],
    "nef_basis": optional [["p/q" or int]]}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FanError("malformed fan file: %s" % exc) from None
    if not isinstance(data, dict):
        raise FanError("fan file must contain a JSON object")
    unknown = set(data) - {"rays", "max_cones", "nef_basis"}
    if unknown:
        raise FanError("unknown fan file keys: %s" % ", ".join(sorted(unknown)))
    if "rays" not in data or "max_cones" not in data:
        raise FanError("fan file needs 'rays' and 'max_cones'")
    return make_fan(data["rays"], data["max_cones"], data.get("nef_basis"))


def _ray_matrix(fan: FanData):
    """dim x n matrix whose columns are the ray generators."""
    return [[ray[nu] for ray in fan.rays] for nu in range(fan.dim)]


def wall_relations(fan: FanData):
    """One integer relation vector per wall of the fan.

    For a wall shared by cones sigma = cone(u, tau) and sigma' = cone(u', tau)
    the relation u + u' + sum_i b_i v_i = 0 (v_i the rays of tau) defines a
    curve class r with r_u = r_u' = 1 and r_{v_i} = b_i.  Returned
    deduplicated, as vectors in Z^n.
    """
    n = fan.n_rays
    walls = {}
    for ci, cone in enumerate(fan.max_cones):
        for wall in combinations(cone, fan.dim - 1):
            walls.setdefault(wall, []).append(ci)
    rels = []
    seen = set()
    for wall, (ci, cj) in sorted(walls.items()):
        u = next(k for k in fan.max_cones[ci] if k not in wall)
        up = next(k for k in fan.max_cones[cj] if k not in wall)
        target = [-(fan.rays[u][nu] + fan.rays[up][nu]) for nu in range(fan.dim)]
        cols = [list(fan.rays[k]) for k in wall]
        sol = linalg.solve_columns(cols, target) if wall else []
        if sol is None:
            raise FanError("wall %r does not span a hyperplane" % (list(wall),))
        rel = [0] * n
        rel[u] += 1
        rel[up] += 1
        for k, b in zip(wall, sol):
            if b.denominator != 1:
                # cannot happen for a unimodular cone; guards invalid input
                raise FanError("non-integral wall relation on wall %r" % (list(wall),))
            rel[k] += int(b)
        key = tuple(rel)
        if key not in seen:
            seen.add(key)
            rels.append(key)
    return rels


def _coords_in_basis(basis_rows, vec):
    """Integer coordinates of vec in the lattice basis given by basis_rows."""
    sol = linalg.solve_columns([list(r) for r in basis_rows], list(vec))
    if sol is None:
        return None
    if any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _rank(classes, l):
    return len(linalg.rref([list(c) for c in classes], l)[1])


def _dual_cone_rays(wall_coords, l):
    """Primitive extreme rays of {y : y . c >= 0 for all wall classes c};
    the classes must span."""
    found = set()
    for sub in combinations(wall_coords, l - 1):
        null = linalg.nullspace([list(c) for c in sub], l)
        if len(null) != 1:
            continue
        cand = linalg.primitive_vector(null[0])
        for sign in (1, -1):
            y = tuple(sign * x for x in cand)
            if all(_dot(y, c) >= 0 for c in wall_coords):
                found.add(y)
                break
    return sorted(found)


def _facet_normals(classes, l):
    """Primitive inward facet normals of the cone the classes span: the
    extreme rays of its dual.  The classes must span Q^l, or a ValueError is
    raised; the cone is then described by y . d >= 0 for every normal y."""
    if _rank(classes, l) < l:
        raise ValueError("the generators do not span the curve lattice; the "
                         "cone has no facet normals to test membership by")
    return _dual_cone_rays(classes, l)


def charge_matrix(fan: FanData) -> ChargeMatrix:
    """Charge matrix of the fan, rows dual to a nef lattice basis.

    With no nef_basis in the fan data, the nef cone (dual to the cone spanned
    by the wall curve classes) must be simplicial and its primitive extreme
    rays must form a lattice basis; otherwise a NefBasisError asks for an
    explicit basis.  A supplied nef_basis is validated instead.
    """
    a = _ray_matrix(fan)
    kernel = linalg.integer_kernel(a)
    l = fan.n_rays - fan.dim
    if len(kernel) != l:
        raise FanError("rays do not span the ambient lattice")
    walls = wall_relations(fan)
    wall_coords = []
    for rel in walls:
        coords = _coords_in_basis(kernel, rel)
        if coords is None:
            raise FanError("wall relation is not in the relation lattice")
        wall_coords.append(coords)
    wall_coords = sorted(set(wall_coords))

    if fan.nef_basis is not None:
        y_rows = []
        for vec in fan.nef_basis:
            y = [sum(Fraction(kernel[i][k]) * vec[k] for k in range(fan.n_rays))
                 for i in range(l)]
            if any(x.denominator != 1 for x in y):
                raise NefBasisError("supplied nef_basis is not a lattice basis "
                                    "of the divisor class lattice")
            y_rows.append([int(x) for x in y])
        if abs(linalg.int_det(y_rows)) != 1:
            raise NefBasisError("supplied nef_basis is not a lattice basis "
                                "of the divisor class lattice")
        if any(_dot(y, c) < 0 for y in y_rows for c in wall_coords):
            raise NefBasisError("supplied nef_basis is not nef: a wall "
                                "curve pairs negatively")
    else:
        if _rank(wall_coords, l) < l:
            raise NefBasisError("curve classes do not span; cannot derive a nef basis")
        y_rows = [list(y) for y in _dual_cone_rays(wall_coords, l)]
        if len(y_rows) != l:
            raise NefBasisError("nef cone is not simplicial (%d extreme rays, need %d); "
                                "supply an explicit nef_basis" % (len(y_rows), l))
        if abs(linalg.int_det(y_rows)) != 1:
            raise NefBasisError("nef cone generators do not form a lattice basis; "
                                "supply an explicit nef_basis")
    y_inv = linalg.invert(y_rows)
    x = [[y_inv[j][i] for j in range(l)] for i in range(l)]  # (Y^T)^{-1}
    m_rows = []
    for i in range(l):
        row = [sum(x[i][j] * kernel[j][k] for j in range(l)) for k in range(fan.n_rays)]
        if any(v.denominator != 1 for v in map(Fraction, row)):
            raise NefBasisError("charge matrix is not integral in the chosen basis")
        m_rows.append(tuple(int(v) for v in row))
    if any(sum(row[k] * fan.rays[k][nu] for k in range(fan.n_rays))
           for row in m_rows for nu in range(fan.dim)):
        raise FanError("charge matrix rows are not relations among the rays")
    return ChargeMatrix(tuple(m_rows))


def in_cone(degree, gens) -> bool:
    """Is degree a nonnegative rational combination of the generators?  They
    must span, as the Mori generators of a complete fan do, or a ValueError
    is raised; degree is tested against the facet normals of their cone."""
    return all(_dot(y, degree) >= 0 for y in _facet_normals(gens, len(degree)))


def mori_generators(fan: FanData, cm: ChargeMatrix):
    """Extremal generators of the Mori cone in charge-matrix coordinates.

    Wall curve classes generate the cone.  A primitive wall class is kept
    when it lies on an extremal ray: the facet normals vanishing on it have
    rank l - 1.  This leaves one generator per extremal ray.
    """
    coords = set()
    for rel in wall_relations(fan):
        c = _coords_in_basis(cm.m, rel)
        if c is None:
            raise FanError("wall curve class is not integral in the charge basis")
        if any(x < 0 for x in c):
            raise FanError("wall curve class pairs negatively with the nef basis")
        coords.add(linalg.primitive_vector(c))
    l = cm.l
    facets = _facet_normals(sorted(coords), l)
    extremal = [g for g in coords
                if _rank([y for y in facets if _dot(y, g) == 0], l) == l - 1]
    extremal.sort(key=lambda d: (cm.c1_degree(d), d))
    return extremal


def enumerate_degrees(gens, cm: ChargeMatrix, bound: int):
    """All Mori-cone lattice points with anticanonical degree <= bound.

    Membership is tested against the facet normals of the cone the
    generators span; they must span, or a ValueError is raised.  Every
    generator must have positive anticanonical degree (Fano-type positivity);
    otherwise the set is infinite and a ValueError is raised.  Output is
    sorted by (degree, coordinates).
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    l = cm.l
    facets = _facet_normals(gens, l)
    degs = [cm.c1_degree(g) for g in gens]
    if any(d <= 0 for d in degs):
        raise ValueError("a Mori generator has nonpositive anticanonical degree; "
                         "the degree set is unbounded")
    los, his = [], []
    for j in range(l):
        vals = [Fraction(bound * g[j], d) for g, d in zip(gens, degs)]
        lo = min(vals + [Fraction(0)])
        hi = max(vals + [Fraction(0)])
        los.append(lo.numerator // lo.denominator)  # floor
        his.append(-((-hi.numerator) // hi.denominator))  # ceil
    out = []
    box = [range(lo, hi + 1) for lo, hi in zip(los, his)]
    for d in product(*box):
        c1 = cm.c1_degree(d)
        if 0 <= c1 <= bound and all(_dot(y, d) >= 0 for y in facets):
            out.append(tuple(d))
    out.sort(key=lambda d: (cm.c1_degree(d), d))
    return out
