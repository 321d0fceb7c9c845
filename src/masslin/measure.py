"""Exact volumes, moments and skeleton barycenters.

In a chamber each vertex is linear in the support vector kappa, v(kappa)
= A_v^{-1} kappa_B for the conormals A_v of the facets B through v, so
all quantities below, with faces measured in their direction lattice,
are exact polynomials in kappa.

Each is a sum over vertex cones (Lawrence, Math. Comp. 57, 1991; Brion
1988), with no triangulation.  Edge j at v leaves facet B_j along
w_j = -A_v^{-1} e_j.  One deterministic xi, checked to pair nonzero with
every edge, gives q_j = -<xi, w_j> and L_v = <xi, v(kappa)>.  The face F
spanned by the edges T at v gets c_{v,T} = iota_{v,T} / prod_{j in T} q_j,
iota_{v,T} being the index of the lattice of w_T in F's direction lattice
(1 whenever |det A_v| = 1).  With k = dim F:

    measure(F) = sum_{v in F} c_{v,T} L_v^k / k!
    int_F x_c  = sum_{v in F} c_{v,T} [v_c L_v^k / k!
                     + (sum_{j in T} w_{j,c} / q_j) L_v^(k+1) / (k+1)!]

the second being the xi_c-derivative of Lawrence's formula in degree 1.
A k-skeleton needs two scalars per vertex, sums over k-subsets T, which
``_vertex_cones`` memoizes.

Translating the polytope by xi adds <eta_i, xi> to kappa_i.  The
measures do not move and the moment of <H, x> moves by <H, xi> times the
measure, so every question that compares them is settled on the slice
kappa_B = 0, B being the facets through the first vertex: A_B is
invertible, so each kappa is a translate of exactly one point of it.
``_slice_coord_polys`` expands the skeleton polynomials there, once per
polytope and k, in the N - n variables off B: at a vertex, the terms of
L_v in kappa_B are dropped before the multinomial expansion, and the
first vertex adds only its degree-0 term.  Volumes and skeleton
barycenters are those polynomials evaluated at the slice point of the
polytope, the barycenters moved back by the first vertex.  Only the
public polynomials (``volume_poly``, ``moment_poly``,
``skeleton_measure_polys``) keep all N variables, from
``_skeleton_coord_polys``.

Monomial integrals use the same cones, by Brion's formula for a power of
a linear form l pairing nonzero with every edge (Baldoni, Berline,
De Loera, Koeppe, Vergne, Math. Comp. 80, 2011):

    int_P <l, x>^M dx = M! / (M+n)! sum_v iota_v <l, v>^(M+n) / prod_j <-l, w_j>,

iota_v being the index of the lattice of the edges at v in Z^n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count, product
from math import comb, factorial, lcm, prod
from operator import mul
from typing import NamedTuple, Sequence

from .errors import PolytopeError, StructuralInconsistency
from .linalg import Vec, dot, int_adjugate, int_det, integer_kernel_basis, scaled, vec
from .poly import MultiPoly
from .polytope import Face, HPolytope, memoize


def direction_lattice_basis(poly: HPolytope, face: Face) -> list[tuple[int, ...]]:
    """Integer lattice basis of the face's direction space, which its
    conormals alone cut out, the same for every kappa in the chamber."""
    rows = [poly.conormals[i] for i in sorted(face.index_set)]
    if not rows:
        return [tuple(1 if i == j else 0 for i in range(poly.dim)) for j in range(poly.dim)]
    B = integer_kernel_basis(rows, poly.dim)
    if len(B) != face.dimension:
        raise StructuralInconsistency("direction space dimension mismatch")
    return B


class VertexCone(NamedTuple):
    """The tangent cone at one vertex: its basis facets (sorted), edge
    vectors w (integer when unimodular) and q for one generic xi, and per
    k the sums over k-subsets T of c_{v,T} and c_{v,T} sum_{j in T} w_j / q_j."""

    basis: tuple[int, ...]
    w: tuple[tuple, ...]
    q: tuple
    unimodular: bool
    sums: tuple[tuple[Fraction, Vec], ...]


def _generic_xi(edges, n: int) -> tuple[int, ...]:
    """The first xi = (1, t, ..., t^(n-1)), t = 2, 3, ..., pairing nonzero
    with every edge; one edge vanishes at no more than n - 1 values of t."""
    t = next(t for t in count(2) if all(sum(a * t**i for i, a in enumerate(w)) for ws in edges for w in ws))
    return tuple(t**i for i in range(n))


def _lattice_index(poly: HPolytope, cone: VertexCone, T: Sequence[int]) -> Fraction:
    """iota_{v,T}: a nonzero maximal minor of w_T over that of a basis of
    the face's direction lattice.  w_T is rational, so its minor is taken
    on integer rows D w_T and divided by D^|T|."""
    face = poly.face(frozenset(cone.basis) - {cone.basis[j] for j in T})
    B = direction_lattice_basis(poly, face)
    for sel in combinations(range(poly.dim), len(T)):
        if d := int_det([[b[i] for i in sel] for b in B]):
            D, W = scaled([[cone.w[j][i] for i in sel] for j in T])
            return abs(Fraction(int_det(W), d * D ** len(T)))
    raise StructuralInconsistency("a lattice basis has an invertible minor")


def _cone_sums(poly: HPolytope, cone: VertexCone, Ts) -> tuple[Fraction, Vec]:
    """Sums over the edge sets T in Ts of the vertex's terms in the faces
    they span: c_{v,T} and c_{v,T} sum_{j in T} w_j / q_j.

    Over Q = prod_j q_j these are iota_{v,T} prod_{j not in T} q_j / Q
    and iota_{v,T} sum_{j in T} w_j prod_{i in T - j} q_i
    prod_{i not in T} q_i^2 / Q^2, whose numerators are integers when
    the cone is unimodular; one division per sum ends in Fractions."""
    n = poly.dim
    s0, s1 = 0, [0] * n
    for T in Ts:
        iota = _lattice_index(poly, cone, T) if T and not cone.unimodular else 1
        rest = prod(q for i, q in enumerate(cone.q) if i not in T)
        s0 += iota * rest
        for j in T:
            f = iota * rest * rest * prod(cone.q[i] for i in T if i != j)
            for c in range(n):
                s1[c] += f * cone.w[j][c]
    Q = prod(cone.q)
    return Fraction(s0) / Q, tuple(Fraction(x) / (Q * Q) for x in s1)


@memoize
def _vertex_cones(poly: HPolytope) -> tuple[VertexCone, ...]:
    """Every vertex cone with its skeleton scalars, for ``_generic_xi``.

    The edges are the columns of -A_v^{-1} = -adj / det, integral exactly
    when |det A_v| = 1, and v = -sum_j w_j kappa_{basis[j]} must give
    back the vertex."""
    n = poly.dim
    cones = []
    for v in poly.vertices:
        basis = tuple(sorted(v.basis))
        d, adj = int_adjugate([poly.conormals[j] for j in basis])
        if d == 0:
            raise StructuralInconsistency("vertex conormals must be invertible")
        unimodular = abs(d) == 1
        w = tuple(tuple(-d * adj[c][j] if unimodular else Fraction(-adj[c][j], d) for c in range(n)) for j in range(n))
        if tuple(-sum(e[c] * poly.support[f] for e, f in zip(w, basis)) for c in range(n)) != v.point:
            raise StructuralInconsistency("vertex map must reproduce the vertex")
        cones.append(VertexCone(basis, w, (), unimodular, ()))
    xi = _generic_xi([cone.w for cone in cones], n)
    out = []
    for cone in cones:
        cone = cone._replace(q=tuple(-sum(a * b for a, b in zip(xi, e)) for e in cone.w))
        if 0 in cone.q:
            raise StructuralInconsistency("xi must pair nonzero with every edge")
        sums = tuple(_cone_sums(poly, cone, combinations(range(n), k)) for k in range(n + 1))
        out.append(cone._replace(sums=sums))
    return tuple(out)


@lru_cache(maxsize=None)
def _exponents(n: int, d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(alpha, d! / alpha!) for every alpha in N^n of total degree d."""
    if n == 0:
        return (((), 1),) if d == 0 else ()
    return tuple(((e,) + r, m * comb(d, e)) for e in range(d + 1) for r, m in _exponents(n - 1, d - e))


def _powers(N: int, cone: VertexCone, d: int, drop: frozenset[int]):
    """L_v^d with the variables in drop set to zero, by the multinomial
    theorem: (monomial in kappa, (j, alpha_j) for each kept basis
    position j, coefficient) per exponent vector alpha on the kept basis
    variables."""
    kept = [j for j, f in enumerate(cone.basis) if f not in drop]
    for alpha, m in _exponents(len(kept), d):
        mono = [0] * N
        for j, a in zip(kept, alpha):
            mono[cone.basis[j]] = a
            m *= cone.q[j] ** a
        yield tuple(mono), zip(kept, alpha), m


def _integrate(poly: HPolytope, k: int, terms, drop: frozenset[int] = frozenset()) -> tuple[MultiPoly, tuple[MultiPoly, ...]]:
    """Measure and coordinate moments of k-faces from vertex terms (cone, s0, s1),
    restricted to kappa_i = 0 for the facets i in drop.

    As v_c(kappa) = -sum_j w_{j,c} kappa_{basis[j]}, the coefficient of
    kappa^alpha in a vertex's moment is that of L_v^(k+1) / (k+1)! times
    s1_c - s0 sum_j alpha_j w_{j,c} / q_j.  Dropped variables leave L_v
    before the expansion, so only the terms of the restriction are
    formed.  All scalars go over a common denominator D: with
    D / denominator(s0) a multiple of every numerator(q_j) times
    denominator(w_{j,c}), each D s0 w_{j,c} / q_j is an exact integer
    quotient, so the sums run in integers.
    """
    N, n = poly.n_facets, poly.dim
    parts = []
    for cone, s0, s1 in terms:
        m = lcm(*(q.numerator * x.denominator for e, q in zip(cone.w, cone.q) for x in e))
        D = lcm(s0.denominator * m, *(x.denominator for x in s1))
        unit = s0.numerator * (D // s0.denominator)
        b = [unit * e[c] // q for e, q in zip(cone.w, cone.q) for c in range(n)]
        parts.append((cone, D, unit, [x.numerator * (D // x.denominator) for x in s1], b))
    den = lcm(*(part[1] for part in parts))
    measure, coords = {}, [{} for _ in range(n)]
    for cone, D, s0, s1, b in parts:
        scale = den // D
        for mono, _, p in _powers(N, cone, k, drop):
            measure[mono] = measure.get(mono, 0) + scale * s0 * p
        for mono, alpha, p in _powers(N, cone, k + 1, drop):
            p *= scale
            alpha = [(j * n, a) for j, a in alpha if a]
            for c, dc in enumerate(coords):
                g = s1[c] - sum(a * b[j + c] for j, a in alpha)
                dc[mono] = dc.get(mono, 0) + p * g
    polys = [MultiPoly.from_dict(N, {m: Fraction(x, d) for m, x in dc.items()}) for dc, d in
             [(measure, den * factorial(k))] + [(dc, den * factorial(k + 1)) for dc in coords]]
    return polys[0], tuple(polys[1:])


def _face_polys(poly: HPolytope, face: Face) -> tuple[MultiPoly, tuple[MultiPoly, ...]]:
    """Lattice measure of a face and its n coordinate moments (the
    integrals of x_c over the face), as polynomials in kappa: one term per
    vertex v of the face, T the edges at v along the face."""
    cones = [_vertex_cones(poly)[vid] for vid in face.vertex_ids]
    Ts = [[j for j, f in enumerate(cone.basis) if f not in face.index_set] for cone in cones]
    return _integrate(poly, face.dimension, ((c, *_cone_sums(poly, c, [T])) for c, T in zip(cones, Ts)))


@memoize
def _skeleton_coord_polys(poly: HPolytope, k: int) -> tuple[MultiPoly, tuple[MultiPoly, ...]]:
    """Lattice measure of the k-skeleton and its n coordinate moments in
    all N variables, once per polytope and k."""
    return _integrate(poly, k, ((cone, *cone.sums[k]) for cone in _vertex_cones(poly)))


@memoize
def _slice(poly: HPolytope) -> tuple[frozenset[int], Vec]:
    """The facets B through the first vertex v0 and the support numbers
    kappa' = kappa - A v0 of the polytope moved by -v0, the one point of
    the slice kappa_B = 0 on its translation orbit."""
    v0 = poly.vertices[0].point
    return frozenset(_vertex_cones(poly)[0].basis), tuple(k - dot(eta, v0) for eta, k in zip(poly.conormals, poly.support))


@memoize
def _slice_coord_polys(poly: HPolytope, k: int) -> tuple[MultiPoly, tuple[MultiPoly, ...]]:
    """Lattice measure of the k-skeleton and its n coordinate moments on
    the slice kappa_B = 0 (``_slice``): the integration pass behind every
    pair space and symmetric facet, once per polytope and k."""
    return _integrate(poly, k, ((cone, *cone.sums[k]) for cone in _vertex_cones(poly)), _slice(poly)[0])


def _functional(poly: HPolytope, H: Sequence) -> Vec:
    """H as a rational vector, which must have n entries."""
    Hv = vec(H)
    if len(Hv) != poly.dim:
        raise ValueError("functional has wrong dimension")
    return Hv


def _pairing(poly: HPolytope, coords: Sequence[MultiPoly], H: Sequence) -> MultiPoly:
    """The <H, x> moment sum_c h_c * coords[c]; H must have n entries."""
    total: dict = {}
    for h, coord in zip(_functional(poly, H), coords):
        if h != 0:
            for m, c in (coord * h).terms:
                total[m] = total.get(m, 0) + c
    return MultiPoly.from_dict(poly.n_facets, total)


def volume_poly(poly: HPolytope) -> MultiPoly:
    """Exact volume of the polytope as a polynomial in kappa (degree <= n)."""
    return _skeleton_coord_polys(poly, poly.dim)[0]


def moment_poly(poly: HPolytope, H: Sequence) -> MultiPoly:
    """Exact first moment of <H, x> over the polytope (degree <= n+1),
    assembled from the memoized coordinate moments."""
    return _pairing(poly, _skeleton_coord_polys(poly, poly.dim)[1], H)


# The same function under its older name, which perfbench/tracer.py
# resolves when it counts moment requests.
cached_moment_poly = moment_poly


def volume(poly: HPolytope) -> Fraction:
    """Exact volume at the base kappa, from the slice pass: the volume
    does not move under translation."""
    return _slice_coord_polys(poly, poly.dim)[0].eval(_slice(poly)[1])


def center_of_mass(poly: HPolytope) -> Vec:
    """Exact center of mass at the base kappa: the n-skeleton barycenter."""
    return skeleton_barycenter(poly, poly.dim)


def face_measure_polys(poly: HPolytope, face: Face, H: Sequence | None = None):
    """Lattice measure of a face, and optionally its <H, x> moment, as
    polynomials in kappa."""
    measure, coords = _face_polys(poly, face)
    return measure, None if H is None else _pairing(poly, coords, H)


def face_measure(poly: HPolytope, face: Face) -> tuple[Fraction, Vec]:
    """Lattice k-volume of the face and its unnormalized coordinate moment
    (the integral of x over the face), both at the base kappa."""
    measure, coords = _face_polys(poly, face)
    return measure.eval(poly.support), tuple(c.eval(poly.support) for c in coords)


def skeleton_measure_polys(poly: HPolytope, k: int, H: Sequence):
    """Total lattice measure of the k-skeleton and total <H, x> moment over
    it, as exact polynomials in kappa."""
    if type(k) is not int or not 0 <= k <= poly.dim:
        raise ValueError("skeleton dimension out of range")
    measure, coords = _skeleton_coord_polys(poly, k)
    return measure, _pairing(poly, coords, H)


def integrate_monomial(poly: HPolytope, exponents: Sequence[int]) -> Fraction:
    """Exact integral of prod_i x_i^{e_i} over the polytope at the base kappa.

    By Brion's formula for powers of linear forms (module docstring).
    With M = |e|, the e-th finite difference of y -> <y, x>^M at any
    shift a gives x^e = 1/M! sum_{0<=p<=e} (-1)^(M-|p|) prod_i C(e_i, p_i)
    <p + a, x>^M; here a = t xi for the first t that makes every form
    generic.  On the integer vertices L v and edges W = D w of a cone,
    iota_v / prod_j <-l, w_j> = |det W| / prod_j <-l, W_j>, so each term
    is one integer quotient and the sum is divided once by (M+n)! L^(M+n).
    """
    n = poly.dim
    if len(exponents) != n or not all(type(e) is int and e >= 0 for e in exponents):
        raise ValueError("need one nonnegative exponent per coordinate")
    M = sum(exponents)
    L, verts = scaled([v.point for v in poly.vertices])
    edges = [scaled(cone.w)[1] for cone in _vertex_cones(poly)]
    dets = [abs(int_det(W)) for W in edges]
    xi = _generic_xi(edges, n)
    shifts = [(p, (-1) ** (M - sum(p)) * prod(map(comb, exponents, p)))
              for p in product(*(range(e + 1) for e in exponents))]
    t = next(t for t in count() if all(sum(map(mul, p, w)) + t * sum(map(mul, xi, w))
                                       for p, _ in shifts for W in edges for w in W))
    total = Fraction(0)
    for p, c in shifts:
        ell = [a + t * x for a, x in zip(p, xi)]
        for v, W, det in zip(verts, edges, dets):
            total += Fraction(c * det * sum(map(mul, ell, v)) ** (M + n), prod(-sum(map(mul, ell, w)) for w in W))
    return total / (factorial(M + n) * L ** (M + n))


@memoize
def skeleton_barycenter(poly: HPolytope, k: int) -> Vec:
    """Barycenter of the union of all k-faces, in the lattice measure.

    The slice polynomials at the support numbers of the polytope moved
    by -v0 (``_slice``) give its k-skeleton measure P_k and moments;
    moving back adds v0 to the barycenter."""
    if type(k) is not int or not 0 <= k <= poly.dim:
        raise ValueError("skeleton dimension out of range")
    measure, coords = _slice_coord_polys(poly, k)
    base = _slice(poly)[1]
    total = measure.eval(base)
    if total == 0:
        raise PolytopeError("zero skeleton measure")
    return tuple(c.eval(base) / total + x for c, x in zip(coords, poly.vertices[0].point))
