"""Fans of smooth complete toric varieties, charge matrices, curve classes.

A fan is given by its primitive ray generators v_1..v_n in Z^dim and the
index sets of its maximal cones.  Smoothness means every maximal cone is
unimodular.  make_fan alone decides whether the cones form a complete fan.
Every wall, i.e. codimension-one face, must lie in exactly two maximal
cones, on opposite sides of it.  Then the cones cover each direction off
their boundaries the same number of times: crossing a wall keeps the
count, and the faces of codimension two disconnect nothing.  That number
is the degree of a multi-fan (Hattori-Masuda, Theory of multi-fans, 2003);
a cycle of unimodular cones that winds twice around the origin has degree
2 and passes every local check.  One exact test settles it: make_fan takes
c, the sum of the first maximal cone's rays, a point inside that cone, and
reads its coordinates in every other cone off the cone inverses of the
wall walk.  No other cone holds c (some coordinate is negative) exactly
when the degree is 1, and then the cones form a complete fan; else the
first cone listed that holds c is named as overlapping the first.

The charge matrix m is an l x n integer matrix (l = n - dim) whose rows form
a basis of the relation lattice {r in Z^n : sum_k r_k v_k = 0}.  The rows are
chosen dual to a basis omega_1..omega_l of the nef cone, so that a curve
class d has coordinates d_j = <omega_j, d> >= 0 exactly on the Mori cone, and
the divisor class alpha_k of the k-th ray satisfies
<alpha_k, d> = sum_j m[j][k] * d_j.

Every wall tau, shared by the maximal cones cone(u, tau) and cone(u', tau),
gives a relation u + u' + sum_i b_i v_i = 0 among the rays.  make_fan
computes these wall relations once per fan, in integers, and the fan holds
them.  They are the torus-invariant curves, which generate the relation
lattice (Fulton 1993, 5.1-5.2), so they are the one source of every
lattice object: the nef rays below, and the relation basis K that
charge_matrix reads off their Hermite form, whose nonzero rows are the
lattice's unique Hermite basis.
One walk across the walls gives both the relations and every cone's
inverse: it inverts the first maximal cone, and crossing a wall from sigma
to sigma' reads the coordinates x of u' in sigma, which give the wall's
relation and sigma''s inverse by an exact integer update (_cone_inverses).
A cone the walk cannot reach is inverted directly.  Errors keep the order
in which the cones are listed: the first listed cone that is not
unimodular is named.

The fan also holds its primitive collections, the minimal sets of rays
that span no cone (Batyrev 1991).  They are read off the face set, level
by level, since each is a nonface whose one-smaller subsets are faces, of
at most dim + 1 rays; they are the Stanley-Reisner generators of the ring.

Lattice work runs on Hermite forms, in integers.  A square integer matrix
has determinant +-1 exactly when its Hermite form is the identity, and the
transform is then its inverse (_unimodular_inverse): it inverts the first
maximal cone, the nef basis, and one l x l block of the charge matrix.  The
one other Hermite form a run computes is that of the wall relations, whose
nonzero rows are K.
int_det serves only a fan that is refused: once the walk finds a cone that
is not unimodular, or a cone is malformed, the first listed cone whose
determinant is not +-1 is named (_singular_cone).

Relations are read in outside coordinates: their entries on the l rays
outside the first maximal cone.  That cone's rays are a lattice basis, so a
relation is fixed by those entries, and any l integers are the entries of
one (the other divisors are a basis of Pic; Fulton 1993, 3.4).  So the
basis K's block K_N on the outside rays is unimodular, and so is the charge
matrix's block m_N exactly when its rows are a basis of the relation
lattice; a wall class r has coordinates r_N . m_N^-1.

Three checks could not fail and are not made: make_fan's unimodular cones
make the rays span the lattice, the wall relations are integer relations by
construction, and m = (Y^-1)^T K is an integer combination of K's rows.
CohomRing alone checks that charge matrix rows are relations, which guards
a ChargeMatrix built by hand.

The Mori cone has one description, derived once per fan: the facet normals
y of the cone the wall classes span, i.e. the nef cone's extreme rays.
make_fan finds them in outside coordinates, by a double description that
adds one wall class at a time and also checks that the classes span; a
derived nef basis is read off them, and mori_generators maps them to charge
coordinates for in_cone and enumerate_degrees, which test classes d by
y . d >= 0.  The nef and Mori cones are each other's double description:
mori_generators reads the cone's generators off a second run, on the
normals.

A nef basis exists only when the nef cone is full dimensional, that is when
the fan is projective (Cox-Little-Schenck, Toric Varieties, 2011, ch. 6).
charge_matrix checks only that a supplied basis is a lattice basis of the
divisor classes; mori_generators alone judges it against the curves.  A
generator's j-th coordinate is its pairing with the j-th basis class, and
the wall classes span the Mori cone, so a generator has a negative
coordinate exactly when some wall class pairs negatively with a basis
class.  On a fan that is not projective the normals do not span, and
mori_generators refuses whatever basis is supplied.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from itertools import combinations, product
from math import gcd, prod
from operator import mul

from . import linalg

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")  # the strings parse_frac reads

# A degree box holds at most this many lattice points: enumerate_degrees
# refuses a larger box before it lists any point.
MAX_BOX_POINTS = 10**7


class FanError(ValueError):
    """Invalid or unsupported fan data."""


class NefBasisError(ValueError):
    """No suitable nef basis could be found or the supplied one is invalid."""


class FanData(namedtuple("FanData", ("rays", "max_cones", "nef_basis",
                                     "wall_relations", "mori_normals",
                                     "primitive_collections"))):
    """rays: tuple of int tuples; max_cones: tuple of sorted ray-index
    tuples; nef_basis: None or one tuple per nef class, each entry an int,
    or a Fraction when it is not integral;
    wall_relations: the relation of each wall, as wall_relations returns
    them; mori_normals: the Mori cone's primitive facet normals in outside
    coordinates, sorted (the nef cone's extreme rays there);
    primitive_collections: the minimal sets of rays that span no cone, as
    sorted ray-index tuples, by size and then lexicographically."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return len(self.rays[0])

    @property
    def n_rays(self) -> int:
        return len(self.rays)


# The Mori cone in charge-matrix coordinates: generators, one primitive class
# per extremal ray, sorted by (c1, class), and normals, its primitive inward
# facet normals y, sorted; d lies in it exactly when y . d >= 0 for every y.
MoriCone = namedtuple("MoriCone", ("generators", "normals"))


class ChargeMatrix:
    """The l x n integer matrix m, a tuple of rows, compared by value."""

    __slots__ = ("m", "_c1_row")

    def __init__(self, m):
        self.m = m
        self._c1_row = tuple(map(sum, m))  # <sum_k alpha_k, e_j> for each j

    def __eq__(self, other):
        return isinstance(other, ChargeMatrix) and self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __repr__(self):
        return "ChargeMatrix(m=%r)" % (self.m,)

    @property
    def l(self) -> int:
        return len(self.m)

    @property
    def n(self) -> int:
        return len(self.m[0])

    def _check_length(self, degree):
        if len(degree) != self.l:
            raise ValueError("degree needs %d coordinates, got %r" % (self.l, degree))

    def pairings(self, degree) -> tuple[int, ...]:
        """(<alpha_k, d>)_k with <alpha_k, d> = sum_j m[j][k] d_j, one entry per
        ray divisor."""
        self._check_length(degree)
        return tuple([sum(map(mul, col, degree)) for col in zip(*self.m)])

    def c1_degree(self, degree) -> int:
        """Pairing of the anticanonical class sum_k alpha_k with the degree:
        the dot product of the degree with the row sums of m."""
        self._check_length(degree)
        return sum(map(mul, self._c1_row, degree))


def parse_frac(value):
    """The rational an int, a Fraction or a 'p/q' string (as used in the
    JSON formats: ASCII digits with an optional minus sign and an optional
    '/' denominator) stands for: an int when it is integral, else a
    Fraction.  Only a non-integral 'p/q' loads the fractions module."""
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        num, _, den = value.partition("/")
        num, den = int(num), int(den or 1)
        if not den:
            raise ValueError("zero denominator in %r" % (value,))
        if num % den:
            from fractions import Fraction
            return Fraction(num, den)
        return num // den
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    fractions = sys.modules.get("fractions")  # loaded wherever a Fraction exists
    if fractions is None or not isinstance(value, fractions.Fraction):
        raise ValueError("expected an integer or 'p/q' string, got %r" % (value,))
    return value.numerator if value.denominator == 1 else value


def _int_tuple(values):
    """The entries as a tuple of genuine integers; floats, strings and
    booleans are rejected rather than truncated."""
    out = tuple(values)
    if any(isinstance(x, bool) or not isinstance(x, int) for x in out):
        raise ValueError("expected integers, got %r" % (list(out),))
    return out


def make_fan(rays, max_cones, nef_basis=None) -> FanData:
    """Validate raw fan data and freeze it into a FanData: a FanError
    unless the rays and cones form a smooth complete fan (see the module
    docstring), overlapping cones included."""
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
        if gcd(*ray) != 1:
            raise FanError("ray %d is not primitive: %r" % (i, list(ray)))
    if len(set(rays_t)) != len(rays_t):
        raise FanError("duplicate rays")
    n = len(rays_t)
    if n <= dim:
        raise FanError("a complete fan in dimension %d needs more than %d rays" % (dim, dim))

    if not isinstance(max_cones, (list, tuple)):
        raise FanError("max_cones must be a list of maximal cones")
    if not max_cones:
        raise FanError("fan has no maximal cones")
    listed = []  # each cone's ray indices in the order the fan lists them
    try:
        for cone in max_cones:
            listed.append(_cone_indices(cone, n, dim))
    except FanError as exc:
        # the cones are read in order, so a singular cone listed before the
        # bad one is named first
        raise (_singular_cone(rays_t, listed) or exc) from None
    cones = [tuple(sorted(idx)) for idx in listed]
    walls = {}  # wall (codim-1 face) -> the maximal cones that hold it
    for cone in cones:
        for wall in combinations(cone, dim - 1):
            walls.setdefault(wall, []).append(cone)
    inverses, crossed = _cone_inverses(rays_t, cones, walls)
    if None in inverses.values():  # the walk found a cone that is not unimodular
        raise _singular_cone(rays_t, listed)
    if len(set(cones)) != len(cones):
        raise FanError("duplicate maximal cones")

    used = {k for cone in cones for k in cone}
    if used != set(range(n)):
        raise FanError("every ray must appear in some maximal cone")

    # Completeness proxy: each wall (codim-1 face) lies in exactly two cones.
    bad = [w for w, c in walls.items() if len(c) != 2]
    if bad:
        raise FanError("fan is not complete: wall %r lies in %d maximal cones"
                       % (list(bad[0]), len(walls[bad[0]])))
    relations = _wall_relations(n, walls, crossed)
    # the cones cover each direction equally often (see the module
    # docstring): once, unless another cone holds a point inside the first
    point = [sum(x) for x in zip(*[rays_t[k] for k in cones[0]])]
    for idx, cone in zip(listed[1:], cones[1:]):
        if all(_dot(point, col) >= 0 for col in inverses[cone].values()):
            raise FanError("maximal cones %r and %r overlap: the cones are not a fan"
                           % (list(listed[0]), list(idx)))

    nef = None
    if nef_basis is not None:
        # as for max_cones: a string or an object would be walked as a vector
        if not isinstance(nef_basis, (list, tuple)) or not all(
                isinstance(vec, (list, tuple)) for vec in nef_basis):
            raise FanError("nef_basis must be a list of coefficient lists")
        try:
            rows = [tuple(map(parse_frac, vec)) for vec in nef_basis]
        except (TypeError, ValueError):
            raise FanError("nef_basis entries must be integers or 'p/q' strings") from None
        if any(len(r) != n for r in rows):
            raise FanError("each nef_basis vector needs one coefficient per ray")
        if len(rows) != n - dim:
            raise FanError("nef_basis must contain exactly %d vectors" % (n - dim))
        nef = tuple(rows)
    l = n - dim
    wall_coords = sorted(set(map(tuple, _columns(relations, _outside(n, cones[0])))))
    return FanData(rays_t, tuple(cones), nef, relations,
                   tuple(_dual_cone_rays(wall_coords, l)),
                   _primitive_collections(cones, n, dim))


def parse_fan(text: str) -> FanData:
    """Parse the JSON fan format: {"rays": [[int]], "max_cones": [[int]],
    "nef_basis": optional [["p/q" or int]]}."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise FanError("malformed fan file: %s" % exc) from None
    if not isinstance(data, dict):
        raise FanError("fan file must contain a JSON object")
    unknown = set(data) - {"rays", "max_cones", "nef_basis"}
    if unknown:
        raise FanError("unknown fan file keys: %s" % ", ".join(sorted(unknown)))
    if "rays" not in data or "max_cones" not in data:
        raise FanError("fan file needs 'rays' and 'max_cones'")
    return make_fan(data["rays"], data["max_cones"], data.get("nef_basis"))


def _unimodular_inverse(rows):
    """The inverse of a square matrix as integer rows, when it is an integer
    matrix of determinant +-1, else None.

    Exactly then is its Hermite form H = U A the identity, and U = A^-1.
    Rows of Fractions are accepted: U A = I makes A = U^-1 integral.
    """
    h, u = linalg.hermite_form(rows)
    if h != [[int(i == j) for j in range(len(h))] for i in range(len(h))]:
        return None
    return u


def _cone_indices(cone, n, dim):
    """The maximal cone's ray indices as listed; a FanError unless they are
    dim distinct indices of the n rays."""
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
    return idx


def _cone_inverses(rays, cones, walls):
    """(inverses, crossed) from walks across the walls.

    inverses maps each sorted maximal cone to the inverse of its ray matrix,
    as {ray: column}, or to None when the cone is not unimodular.  A walk
    starts at the first cone not yet reached, which is inverted by its
    Hermite form; walls maps a wall to the cones that hold it, and only a
    wall of two distinct cones is crossed.  The columns of A_sigma^-1 give
    any vector's integer coordinates in the rays of sigma; crossing the wall
    tau from sigma = cone(u, tau) to sigma' = cone(u', tau) reads
    u' = x_u u + sum_i x_i v_i, and crossed maps tau to (u, u', x).  Then
    det sigma' = +-x_u det sigma, so sigma' is unimodular exactly when
    x_u = +-1, and its inverse is an integer update: the column of u' is
    x_u times the column of u, and the column of v_i loses x_i x_u times it.
    """
    dim = len(rays[0])
    inverses = {}
    crossed = {}
    for start in cones:
        if start in inverses:
            continue
        inv = _unimodular_inverse([rays[k] for k in start])
        inverses[start] = None if inv is None else dict(zip(start, zip(*inv)))
        queue = [start] if inv is not None else []
        for sigma in queue:
            cols = inverses[sigma]
            total = sum(sigma)
            # the i-th wall of a sorted cone leaves out its (dim - 1 - i)-th ray
            for i, wall in enumerate(combinations(sigma, dim - 1)):
                if wall in crossed:
                    continue
                pair = walls.get(wall, ())
                if len(pair) != 2 or pair[0] == pair[1]:
                    continue
                sigma_p = pair[1] if pair[0] == sigma else pair[0]
                u = sigma[dim - 1 - i]
                up = sum(sigma_p) - total + u  # the ray of sigma' off the wall
                ray = rays[up]
                x = {k: sum(map(mul, ray, col)) for k, col in cols.items()}
                crossed[wall] = (u, up, x)
                if sigma_p in inverses:
                    continue
                xu = x[u]
                if xu in (1, -1):
                    cu = cols[u]
                    new = {k: tuple([a - x[k] * xu * b for a, b in zip(col, cu)])
                           for k, col in cols.items() if k != u}
                    new[up] = tuple([xu * b for b in cu])
                    inverses[sigma_p] = new
                    queue.append(sigma_p)
                else:
                    inverses[sigma_p] = None
    return inverses, crossed


def _singular_cone(rays, listed):
    """The FanError naming the first listed cone whose determinant, with its
    rays in listed order, is not +-1, or None when there is none.  make_fan
    calls it only on a fan it refuses, so a valid fan computes no
    determinant."""
    for idx in listed:
        det = linalg.int_det([rays[k] for k in idx])
        if det not in (1, -1):
            return FanError("maximal cone %r is not unimodular (det %d); the variety "
                            "would be singular" % (list(idx), det))
    return None


def _wall_relations(n, walls, crossed):
    """The deduplicated relations of the walls, in sorted wall order (see
    wall_relations), from the coordinates _cone_inverses read.

    The wall spans a hyperplane exactly when x_u = -1; the relation is then
    u + u' - sum_i x_i v_i = 0, the same from either side of the wall.
    """
    rels = {}
    for wall in sorted(walls):
        u, up, x = crossed[wall]
        rel = [0] * n
        rel[up] = 1
        for k, xk in x.items():
            rel[k] -= xk
        if rel[u] != 1:
            raise FanError("wall %r does not span a hyperplane" % (list(wall),))
        rels.setdefault(tuple(rel), None)
    return tuple(rels)


def _primitive_collections(cones, n, dim):
    """The fan's primitive collections, its minimal nonfaces, sorted by size
    and then lexicographically.

    A collection is a nonface whose one-smaller subsets are all faces, so it
    has at most dim + 1 rays.  The candidates of each size join two faces of
    the size below that share all but their last ray (every ray is a face).
    """
    faces = {face for cone in cones for size in range(2, dim + 1)
             for face in combinations(cone, size)}
    out = []
    level = [(k,) for k in range(n)]  # the faces of the size below, sorted
    for size in range(2, dim + 2):
        groups = {}
        for face in level:
            groups.setdefault(face[:-1], []).append(face[-1])
        level = []
        for prefix, lasts in groups.items():
            for i, a in enumerate(lasts, 1):
                for b in lasts[i:]:
                    if size > 2 and (a, b) not in faces:
                        continue  # cand would hold a nonface pair
                    cand = prefix + (a, b)
                    if cand in faces:
                        level.append(cand)
                    elif all(cand[:j] + cand[j + 1:] in faces for j in range(size - 2)):
                        out.append(cand)
    return tuple(out)


def wall_relations(fan: FanData):
    """One integer relation vector per wall of the fan.

    For a wall shared by cones sigma = cone(u, tau) and sigma' = cone(u', tau)
    the relation u + u' + sum_i b_i v_i = 0 (v_i the rays of tau) defines a
    curve class r with r_u = r_u' = 1 and r_{v_i} = b_i.  Returned
    deduplicated, as vectors in Z^n, in the order of their first wall;
    make_fan computes them once per fan.
    """
    return list(fan.wall_relations)


def _dot(u, v):
    return sum(map(mul, u, v))


def _outside(n, cone):
    """The indices of the rays 0..n-1 outside the cone."""
    return [k for k in range(n) if k not in cone]


def _columns(rows, cols):
    """The rows restricted to the given columns."""
    return [[row[k] for k in cols] for row in rows]


def _dual_cone_rays(classes, l):
    """The sorted primitive extreme rays of {y : y . c >= 0 for every class
    c}, in integers; a FanError unless the classes span Q^l.  Run on the
    wall classes it gives the Mori cone's facet normals (the nef rays), and
    run on those normals the Mori cone's generators.

    Double description (Motzkin, Raiffa, Thompson and Thrall 1953; Fukuda
    and Prodon, Double description method revisited, 1996): the cone is
    lin(L) + cone(R), and the classes are added one at a time, starting
    from L = e_1..e_l and no rays.  Each ray carries the set of added
    classes it is tight on.  A class a with a . v != 0 for some v in L
    pivots on v, signed so that a . v > 0: every other u in L or R becomes
    (a . v) u - (a . u) v, and v becomes a ray.  Otherwise the rays with
    a . r < 0 are cut, and each adjacent pair (r+, r-) across a gives the
    ray (a . r+) r- - (a . r-) r+.  Two rays are adjacent when their common
    tight set lies in no other ray's and has at least l - dim L - 2
    classes: the face they span is two-dimensional modulo L.  A vector of L
    left after the last class means the classes do not span.
    """
    lineality = [tuple(int(i == j) for j in range(l)) for i in range(l)]
    rays = []  # (ray, bitmask of the added classes it is tight on)
    for i, a in enumerate(classes):
        bit = 1 << i
        dots = [_dot(a, v) for v in lineality]
        k = next((k for k, x in enumerate(dots) if x), None)
        if k is not None:
            av = dots.pop(k)
            piv = lineality.pop(k)
            if av < 0:
                av, piv = -av, tuple(-x for x in piv)
            lineality = [_combination(av, u, x, piv) for u, x in zip(lineality, dots)]
            rays = [(_combination(av, u, _dot(a, u), piv), z | bit) for u, z in rays]
            rays.append((piv, bit - 1))
            continue
        sides = [(_dot(a, u), u, z) for u, z in rays]
        pos = [(j, s, u, z) for j, (s, u, z) in enumerate(sides) if s > 0]
        neg = [(j, s, u, z) for j, (s, u, z) in enumerate(sides) if s < 0]
        tight = [z for _, _, z in sides]
        rays = [(u, z | bit if s == 0 else z) for s, u, z in sides if s >= 0]
        need = l - len(lineality) - 2
        for jp, sp, up, zp in pos:
            for jn, sn, un, zn in neg:
                common = zp & zn
                if common.bit_count() >= need and not any(
                        common & z == common for j, z in enumerate(tight)
                        if j != jp and j != jn):
                    rays.append((_combination(sp, un, sn, up), common | bit))
    if lineality:
        raise FanError("the wall curve classes do not span the relation lattice")
    return sorted(u for u, _ in rays)


def _combination(p, u, q, v):
    """p u - q v divided by the gcd of its entries, sign kept: u itself when
    q is 0, as p > 0 and u is primitive."""
    if not q:
        return u
    w = [p * x - q * y for x, y in zip(u, v)]
    g = gcd(*w)
    return tuple([x // g for x in w])


def charge_matrix(fan: FanData) -> ChargeMatrix:
    """Charge matrix of the fan, rows dual to a lattice basis of the
    divisor classes: the supplied nef_basis, or one derived from the nef
    cone.  The relation basis K it starts from is the Hermite basis of the
    lattice the wall relations generate (see the module docstring).

    A supplied basis must be a lattice basis (a NefBasisError otherwise);
    whether it is nef is judged by mori_generators (see the module
    docstring).  A derived basis is the nef cone's primitive extreme rays,
    which must be l rays forming a lattice basis.  When they are not, their
    rank r, read off a Hermite form, decides the NefBasisError: r < l means
    the nef cone spans r of l dimensions and the fan is not projective;
    else more than l rays make the cone not simplicial, and l rays are not
    a lattice basis.  Both of these ask for an explicit basis.
    """
    kernel = [row for row in linalg.hermite_form(fan.wall_relations)[0] if any(row)]
    l = fan.n_rays - fan.dim
    if fan.nef_basis is not None:
        y_rows = [[_dot(ker, vec) for ker in kernel] for vec in fan.nef_basis]
        y_inv = _unimodular_inverse(y_rows)
        if y_inv is None:
            raise NefBasisError("supplied nef_basis is not a lattice basis "
                                "of the divisor class lattice")
    else:
        # a nef ray y_N in outside coordinates is the class K_N . y_N, and
        # K_N is unimodular, so it stays primitive
        kernel_out = _columns(kernel, _outside(fan.n_rays, fan.max_cones[0]))
        y_rows = sorted([_dot(ker, y) for ker in kernel_out] for y in fan.mori_normals)
        y_inv = _unimodular_inverse(y_rows) if len(y_rows) == l else None
        if y_inv is None:
            rank = sum(map(any, linalg.hermite_form(y_rows)[0]))
            if rank < l:
                raise NefBasisError("nef cone spans %d of %d dimensions: "
                                    "the fan is not projective" % (rank, l))
            if len(y_rows) > l:
                raise NefBasisError("nef cone is not simplicial (%d extreme rays, need %d); "
                                    "supply an explicit nef_basis" % (len(y_rows), l))
            raise NefBasisError("nef cone generators do not form a lattice basis; "
                                "supply an explicit nef_basis")
    # m = (Y^-1)^T K, in integers
    m_rows = [tuple(sum(inv_row[i] * ker[k] for inv_row, ker in zip(y_inv, kernel))
                    for k in range(fan.n_rays)) for i in range(l)]
    return ChargeMatrix(tuple(m_rows))


def in_cone(degree, cone: MoriCone) -> bool:
    """Is degree in the cone, y . degree >= 0 for each of its facet normals
    y?  The degree must have as many coordinates as the cone's classes."""
    other = next((g for g in cone.generators if len(g) != len(degree)), None)
    if other is not None:
        raise ValueError("degree %r has length %d, a generator length %d"
                         % (tuple(degree), len(degree), len(other)))
    return all(_dot(y, degree) >= 0 for y in cone.normals)


def mori_generators(fan: FanData, cm: ChargeMatrix) -> MoriCone:
    """The Mori cone in charge-matrix coordinates.

    A wall class c has outside coordinates r_N = c . m_N, so a fan normal y
    pairs with it as y . r_N = (m_N y) . c: the cone's normals are the m_N y,
    primitive as m_N is unimodular.  The cone is {d : y . d >= 0} over them,
    so its generators are the extreme rays of that cone, by the double
    description that found the normals.  Normals that do not span leave a
    line in the cone: the fan is not projective, and no basis is nef.  Each
    generator is a multiple of a wall class, and each wall class a
    nonnegative sum of generators, so a negative entry in a generator is a
    wall class that pairs negatively with the basis the rows are dual to:
    this is the one test that a supplied nef_basis is nef.
    """
    m_out = _columns(cm.m, _outside(fan.n_rays, fan.max_cones[0]))
    if _unimodular_inverse(m_out) is None:
        raise FanError("charge matrix rows are not a basis of the relation lattice")
    normals = sorted(tuple(_dot(row, y) for row in m_out) for y in fan.mori_normals)
    try:
        gens = _dual_cone_rays(normals, cm.l)
    except FanError:
        raise FanError("the Mori cone contains a line, so the fan is not projective") from None
    if any(x < 0 for g in gens for x in g):
        raise FanError("wall curve class pairs negatively with the nef basis")
    gens.sort(key=lambda d: (cm.c1_degree(d), d))
    return MoriCone(tuple(gens), tuple(normals))


def enumerate_degrees(cone: MoriCone, cm: ChargeMatrix, bound: int):
    """All Mori-cone lattice points with anticanonical degree <= bound.

    Membership is tested against the cone's facet normals.  Every generator
    must have positive anticanonical degree (Fano-type positivity);
    otherwise the set is infinite and a ValueError is raised.  Output is
    sorted by (degree, coordinates).
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    gens = cone.generators
    degs = [cm.c1_degree(g) for g in gens]
    if any(d <= 0 for d in degs):
        raise ValueError("a Mori generator has nonpositive anticanonical degree; "
                         "the degree set is unbounded")
    # the cone's points with c1 <= bound lie in the hull of 0 and the
    # g * bound / c1(g), so each coordinate lies between their floor and ceiling
    box = [range(min([0] + [bound * g[j] // d for g, d in zip(gens, degs)]),
                 max([0] + [-(-bound * g[j] // d) for g, d in zip(gens, degs)]) + 1)
           for j in range(cm.l)]
    points = prod(r.stop - r.start for r in box)  # len() overflows past sys.maxsize
    if points > MAX_BOX_POINTS:
        raise ValueError("the degree box at bound %d holds %d points, more than %d"
                         % (bound, points, MAX_BOX_POINTS))
    out = []
    for d in product(*box):
        c1 = cm.c1_degree(d)
        if 0 <= c1 <= bound and all(_dot(y, d) >= 0 for y in cone.normals):
            out.append(tuple(d))
    out.sort(key=lambda d: (cm.c1_degree(d), d))
    return out
