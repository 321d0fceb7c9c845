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
``_vertex_cones`` memoizes; ``_skeleton_coord_polys`` expands them once
per polytope and k.  Values at the base kappa (skeleton barycenters and
the gradient of the volume) are the same vertex sums evaluated there,
``_skeleton_at_base``, with no polynomial expanded.  ``triangulate`` and
``integrate_monomial`` remain as an independent oracle for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count
from math import comb, factorial, lcm, prod
from typing import NamedTuple, Sequence

from .errors import PolytopeError, StructuralInconsistency
from .linalg import Vec, int_adjugate, int_det, integer_kernel_basis, mat_vec, scaled, vec, vec_sub
from .poly import MultiPoly
from .polytope import Face, HPolytope, memoize


@dataclass(frozen=True)
class ParamVertex:
    """A vertex as a linear map kappa -> point.

    rows is an n x N rational matrix supported on the columns of the
    vertex basis; evaluating at the base kappa reproduces the vertex.
    """

    basis: tuple[int, ...]
    rows: tuple[Vec, ...]

    def at(self, kappa: Sequence) -> Vec:
        return mat_vec(self.rows, kappa)


@dataclass(frozen=True)
class Triangulation:
    """Simplices as vertex-id tuples, orientation signs frozen at base kappa."""

    simplices: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]


@memoize
def param_vertices(poly: HPolytope) -> tuple[ParamVertex, ...]:
    out = []
    N = poly.n_facets
    for v in poly.vertices:
        basis = tuple(sorted(v.basis))
        d, adj = int_adjugate([poly.conormals[j] for j in basis])
        if d == 0:
            raise StructuralInconsistency("vertex conormals must be invertible")
        rows = []
        for r in range(poly.dim):
            row = [Fraction(0)] * N
            for pos, j in enumerate(basis):
                row[j] = Fraction(adj[r][pos], d)
            rows.append(tuple(row))
        pv = ParamVertex(basis, tuple(rows))
        if pv.at(poly.support) != v.point:
            raise StructuralInconsistency("vertex map must reproduce the vertex")
        out.append(pv)
    return tuple(out)


def _face_children(poly: HPolytope, face: Face) -> list[Face]:
    """Facets of a face: canonical index grows by exactly one."""
    out = []
    for key, g in poly.face_lattice.items():
        if g.dimension == face.dimension - 1 and face.index_set < key:
            out.append(g)
    return sorted(out, key=lambda f: tuple(sorted(f.index_set)))


@memoize
def _pulling_simplices(poly: HPolytope, face: Face) -> tuple[tuple[int, ...], ...]:
    """Pulling triangulation of a face, anchored at its smallest vertex.

    Vertex ids refer to poly.vertices, which is sorted by coordinates, so
    the smallest id is the lexicographically smallest point.
    """
    if face.dimension == 0:
        return (face.vertex_ids,)
    anchor = min(face.vertex_ids)
    return tuple(
        simplex + (anchor,)
        for g in _face_children(poly, face)
        if anchor not in g.vertex_ids
        for simplex in _pulling_simplices(poly, g)
    )


def triangulate(poly: HPolytope) -> Triangulation:
    """Pulling triangulation of the whole polytope, deterministic."""
    simplices = _pulling_simplices(poly, poly.face_lattice[frozenset()])
    verts = poly.vertices
    signs = []
    for s in simplices:
        base = verts[s[0]].point
        d = int_det(scaled([vec_sub(verts[i].point, base) for i in s[1:]])[1])
        if d == 0:
            raise PolytopeError("degenerate simplex in triangulation")
        signs.append(1 if d > 0 else -1)
    return Triangulation(simplices, tuple(signs))


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


def _cone_term(poly: HPolytope, cone: VertexCone, T: Sequence[int]) -> tuple[Fraction, Vec]:
    """The vertex's term in the face spanned by its edges T: c_{v,T} and
    c_{v,T} sum_{j in T} w_j / q_j."""
    iota = _lattice_index(poly, cone, T) if T and not cone.unimodular else 1
    P = prod(cone.q[j] for j in T)
    others = [prod(cone.q[i] for i in T if i != j) for j in T]
    cw = (sum(cone.w[j][c] * o for j, o in zip(T, others)) for c in range(poly.dim))
    return Fraction(iota, P), tuple(Fraction(iota * x, P * P) for x in cw)


@memoize
def _vertex_cones(poly: HPolytope) -> tuple[VertexCone, ...]:
    """Every vertex cone with its skeleton scalars, for ``_generic_xi``."""
    n = poly.dim
    cones = []
    for pv in param_vertices(poly):
        w = tuple(tuple(-pv.rows[c][j] for c in range(n)) for j in pv.basis)
        # A_v^{-1} is integral exactly when |det A_v| = 1
        unimodular = all(x.denominator == 1 for e in w for x in e)
        w = tuple(tuple(map(int, e)) for e in w) if unimodular else w
        cones.append(VertexCone(pv.basis, w, (), unimodular, ()))
    xi = _generic_xi([cone.w for cone in cones], n)
    out = []
    for cone in cones:
        cone = cone._replace(q=tuple(-sum(a * b for a, b in zip(xi, e)) for e in cone.w))
        if 0 in cone.q:
            raise StructuralInconsistency("xi must pair nonzero with every edge")
        terms = [[_cone_term(poly, cone, T) for T in combinations(range(n), k)] for k in range(n + 1)]
        sums = tuple((sum(c for c, _ in ts), tuple(map(sum, zip(*(cw for _, cw in ts))))) for ts in terms)
        out.append(cone._replace(sums=sums))
    return tuple(out)


@lru_cache(maxsize=None)
def _exponents(n: int, d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(alpha, d! / alpha!) for every alpha in N^n of total degree d."""
    if n == 1:
        return (((d,), 1),)
    return tuple(((e,) + r, m * comb(d, e)) for e in range(d + 1) for r, m in _exponents(n - 1, d - e))


def _powers(N: int, cone: VertexCone, d: int):
    """L_v^d by the multinomial theorem: (monomial in kappa, alpha,
    coefficient) per exponent vector alpha on the basis variables."""
    for alpha, m in _exponents(len(cone.basis), d):
        mono = [0] * N
        for j, q, a in zip(cone.basis, cone.q, alpha):
            mono[j] = a
            m *= q**a
        yield tuple(mono), alpha, m


def _integrate(poly: HPolytope, k: int, terms) -> tuple[MultiPoly, tuple[MultiPoly, ...]]:
    """Measure and coordinate moments of k-faces from vertex terms (cone, s0, s1).

    As v_c(kappa) = -sum_j w_{j,c} kappa_{basis[j]}, the coefficient of
    kappa^alpha in a vertex's moment is that of L_v^(k+1) / (k+1)! times
    s1_c - s0 sum_j alpha_j w_{j,c} / q_j.  All scalars go over a common
    denominator, so the sums run in integers when every vertex is smooth.
    """
    N, n = poly.n_facets, poly.dim
    parts = []
    for cone, s0, s1 in terms:
        b = [s0 * e[c] / q for e, q in zip(cone.w, cone.q) for c in range(n)]
        D = lcm(*(x.denominator for x in (s0, *s1, *b)))
        ints = [int(x * D) for x in (s0, *s1, *b)]
        parts.append((cone, D, ints[0], ints[1:n + 1], ints[n + 1:]))
    den = lcm(*(part[1] for part in parts))
    measure, coords = {}, [{} for _ in range(n)]
    for cone, D, s0, s1, b in parts:
        scale = den // D
        for mono, _, p in _powers(N, cone, k):
            measure[mono] = measure.get(mono, 0) + scale * s0 * p
        for mono, alpha, p in _powers(N, cone, k + 1):
            p *= scale
            for c, dc in enumerate(coords):
                g = s1[c] - sum(a * b[j * n + c] for j, a in enumerate(alpha) if a)
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
    return _integrate(poly, face.dimension, ((c, *_cone_term(poly, c, T)) for c, T in zip(cones, Ts)))


@memoize
def _skeleton_coord_polys(poly: HPolytope, k: int) -> tuple[MultiPoly, tuple[MultiPoly, ...]]:
    """Lattice measure of the k-skeleton and its n coordinate moments:
    the one integration pass, once per polytope and k."""
    return _integrate(poly, k, ((cone, *cone.sums[k]) for cone in _vertex_cones(poly)))


def _pairing(poly: HPolytope, coords: Sequence[MultiPoly], H: Sequence) -> MultiPoly:
    """The <H, x> moment sum_c h_c * coords[c]; H must have n entries."""
    Hv = vec(H)
    if len(Hv) != poly.dim:
        raise ValueError("functional has wrong dimension")
    total: dict = {}
    for h, coord in zip(Hv, coords):
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
    return volume_poly(poly).eval(poly.support)


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
    if not 0 <= k <= poly.dim:
        raise ValueError("skeleton dimension out of range")
    measure, coords = _skeleton_coord_polys(poly, k)
    return measure, _pairing(poly, coords, H)


def integrate_monomial(poly: HPolytope, exponents: Sequence[int]) -> Fraction:
    """Exact integral of prod_i x_i^{e_i} over the polytope at the base kappa.

    Per simplex, substitute x = sum_j lambda_j v_j and expand in the
    barycentric variables lambda_j; a barycentric monomial integrates in
    closed form:  int_S prod lambda^a = n! vol(S) prod(a_j!) / (n+|a|)!.
    """
    n = poly.dim
    if len(exponents) != n or any(e < 0 for e in exponents):
        raise ValueError("need one nonnegative exponent per coordinate")
    verts = poly.vertices
    tri = triangulate(poly)
    total = Fraction(0)
    for s in tri.simplices:
        base = verts[s[0]].point
        D, M = scaled([vec_sub(verts[i].point, base) for i in s[1:]])
        vol = Fraction(abs(int_det(M)), D**n * factorial(n))
        p = MultiPoly.constant(n + 1, 1)
        for coord, e in enumerate(exponents):
            lin = MultiPoly.linear([verts[vid].point[coord] for vid in s])
            for _ in range(e):
                p = p * lin
        for mono, c in p.terms:
            total += c * vol * Fraction(factorial(n) * prod(map(factorial, mono)), factorial(n + sum(mono)))
    return total


@memoize
def _skeleton_at_base(poly: HPolytope, k: int) -> tuple[Fraction, Vec, Vec]:
    """The lattice measure P_k of the k-skeleton, its kappa-gradient and
    its n coordinate moments, all at the base kappa.

    They are Lawrence's vertex sums evaluated there, with no polynomial:
    at each vertex L = sum_j q_j kappa_{basis_j}, P_k adds s0 L^k / k!,
    dP_k/dkappa_{basis_j} adds s0 q_j L^(k-1) / (k-1)!, and int x_c adds
    s0 v_c L^k / k! + s1_c L^(k+1) / (k+1)!, v being the vertex and
    (s0, s1) its k-skeleton scalars."""
    N, n = poly.n_facets, poly.dim
    base = poly.support
    total, grad, moments = Fraction(0), [Fraction(0)] * N, [Fraction(0)] * n
    for cone, vertex in zip(_vertex_cones(poly), poly.vertices):
        s0, s1 = cone.sums[k]
        L = sum(q * base[j] for j, q in zip(cone.basis, cone.q))
        low = L**k / factorial(k)
        high = L * low / (k + 1)
        total += s0 * low
        if k:
            step = s0 * L ** (k - 1) / factorial(k - 1)
            for j, q in zip(cone.basis, cone.q):
                grad[j] += q * step
        for c in range(n):
            moments[c] += s0 * vertex.point[c] * low + s1[c] * high
    return total, tuple(grad), tuple(moments)


def skeleton_barycenter(poly: HPolytope, k: int) -> Vec:
    """Barycenter of the union of all k-faces, in the lattice measure."""
    if not 0 <= k <= poly.dim:
        raise ValueError("skeleton dimension out of range")
    total, _, moments = _skeleton_at_base(poly, k)
    if total == 0:
        raise PolytopeError("zero skeleton measure")
    return tuple(m / total for m in moments)
