"""Exact volumes, moments and skeleton barycenters.

Inside a chamber every vertex is a linear function of the support vector
kappa (solve the active system once, at the base kappa, and keep the
matrix).  A pulling triangulation with combinatorics fixed at the base
kappa therefore turns the volume and any first moment into honest
polynomials in kappa, valid on the whole chamber.  All identities this
package decides (mass linearity, symmetric facets, the skeleton
barycenter characterizations) are exact polynomial identities in these
variables.

Face measures use the measure induced by the integer lattice of the
face's direction space: integrate in coordinates given by a lattice
basis of that space.  A face's direction space depends only on its
conormals, so face measures are again polynomials in kappa.

One pass does all the integration.  ``_face_polys`` measures a face: its
lattice measure and its n coordinate moments (the integrals of x_c).
``_skeleton_coord_polys(poly, k)`` sums these over the k-faces, once per
polytope and k.  Everything else is derived from that pass:

- its k = n entry is ``volume_poly`` and the center-of-mass moments;
- ``moment_poly`` and ``skeleton_measure_polys`` pair a functional H
  with the coordinate moments, sum_c h_c * moment_c, on each call (the
  moment is linear in H, so nothing keyed by H is stored);
- ``skeleton_barycenter`` and ``center_of_mass`` evaluate the pass at
  the base kappa; ``face_measure`` and ``face_measure_polys`` evaluate
  or pair the polynomials of a single face.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Sequence

from .errors import PolytopeError, StructuralInconsistency
from .linalg import (
    Vec,
    det,
    integer_kernel_basis,
    invert,
    mat_vec,
    rank,
    transpose,
    vec,
    vec_sub,
)
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
    """Simplices as vertex-id tuples with orientation signs frozen at the
    base kappa."""

    simplices: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]


@memoize
def param_vertices(poly: HPolytope) -> tuple[ParamVertex, ...]:
    out = []
    N = poly.n_facets
    for v in poly.vertices:
        basis = tuple(sorted(v.basis))
        A = [poly.conormals[j] for j in basis]
        Ainv = invert(A)
        if Ainv is None:
            raise StructuralInconsistency("vertex conormals must be invertible")
        rows = []
        for r in range(poly.dim):
            row = [Fraction(0)] * N
            for pos, j in enumerate(basis):
                row[j] = Ainv[r][pos]
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
    simplices = _pulling_simplices(poly, _whole_face(poly))
    verts = poly.vertices
    signs = []
    for s in simplices:
        base = verts[s[0]].point
        M = [vec_sub(verts[i].point, base) for i in s[1:]]
        d = det(M)
        if d == 0:
            raise PolytopeError("degenerate simplex in triangulation")
        signs.append(1 if d > 0 else -1)
    return Triangulation(simplices, tuple(signs))


def _det_poly(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
    """Determinant of a small matrix of polynomials, by Leibniz expansion."""
    n = len(rows)
    nvars = rows[0][0].nvars
    total = MultiPoly.zero(nvars)
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = MultiPoly.constant(nvars, -1 if inv % 2 else 1)
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _whole_face(poly: HPolytope) -> Face:
    return poly.face_lattice[frozenset()]


def direction_lattice_basis(poly: HPolytope, face: Face) -> list[tuple[int, ...]]:
    """Integer lattice basis of the face's direction space.

    The direction space is cut out by the face's conormals alone, so it
    is the same for every kappa in the chamber.
    """
    rows = [poly.conormals[i] for i in sorted(face.index_set)]
    if not rows:
        return [tuple(1 if i == j else 0 for i in range(poly.dim)) for j in range(poly.dim)]
    B = integer_kernel_basis(rows, poly.dim)
    if len(B) != face.dimension:
        raise StructuralInconsistency("direction space dimension mismatch")
    return B


def _face_chart(poly: HPolytope, face: Face) -> dict[int, tuple[Vec, ...]]:
    """y-coordinates of each face vertex as linear maps in kappa.

    y solves  x(kappa) = x0(kappa) + B y  where B is the lattice basis of
    the direction space, so the chart identifies the face's lattice
    measure with Lebesgue measure in y.
    """
    k = face.dimension
    B = direction_lattice_basis(poly, face)
    pvs = param_vertices(poly)
    base = pvs[face.vertex_ids[0]]
    Bcols = transpose(B)  # n rows, k columns
    sel: list[int] = []
    for i in range(poly.dim):
        if rank([Bcols[j] for j in sel + [i]]) > len(sel):
            sel.append(i)
        if len(sel) == k:
            break
    Binv = invert([Bcols[i] for i in sel])
    if Binv is None:
        raise StructuralInconsistency("a lattice basis has an invertible minor")
    N = poly.n_facets
    out = {}
    for vid in face.vertex_ids:
        diff_rows = [vec_sub(pvs[vid].rows[i], base.rows[i]) for i in sel]
        out[vid] = tuple(
            tuple(
                sum((Binv[r][c] * diff_rows[c][col] for c in range(k)), Fraction(0))
                for col in range(N)
            )
            for r in range(k)
        )
    return out


def _face_polys(poly: HPolytope, face: Face) -> tuple[MultiPoly, tuple[MultiPoly, ...]]:
    """Lattice measure of a face and its n coordinate moments (the
    integrals of x_c over the face), as polynomials in kappa.

    Per simplex of the pulling triangulation: the lattice volume, a
    determinant in chart coordinates with its sign frozen at the base
    kappa, times the average of the simplex vertices.
    """
    N, n, k = poly.n_facets, poly.dim, face.dimension
    pvs = param_vertices(poly)
    y_of = _face_chart(poly, face) if k else None
    measure = MultiPoly.zero(N)
    coords = [MultiPoly.zero(N)] * n
    for s in _pulling_simplices(poly, face):
        if k == 0:
            vol = MultiPoly.constant(N, 1)
        else:
            base_y = y_of[s[0]]
            d = _det_poly([
                [MultiPoly.linear(vec_sub(y_of[vid][r], base_y[r])) for r in range(k)]
                for vid in s[1:]
            ])
            sign_val = d.eval(poly.support)
            if sign_val == 0:
                raise PolytopeError("degenerate simplex in face triangulation")
            vol = d * Fraction(1 if sign_val > 0 else -1, _factorial(k))
        measure = measure + vol
        for c in range(n):
            avg = [
                sum((pvs[vid].rows[c][j] for vid in s), Fraction(0)) / len(s)
                for j in range(N)
            ]
            coords[c] = coords[c] + vol * MultiPoly.linear(avg)
    return measure, tuple(coords)


@memoize
def _skeleton_coord_polys(poly: HPolytope, k: int) -> tuple[MultiPoly, tuple[MultiPoly, ...]]:
    """Lattice measure of the k-skeleton and its n coordinate moments:
    the one integration pass, run once per polytope and k."""
    measure = MultiPoly.zero(poly.n_facets)
    coords = (measure,) * poly.dim
    for face in poly.faces_of_dimension(k):
        m, cs = _face_polys(poly, face)
        measure = measure + m
        coords = tuple(a + b for a, b in zip(coords, cs))
    return measure, coords


def _pairing(poly: HPolytope, coords: Sequence[MultiPoly], H: Sequence) -> MultiPoly:
    """The <H, x> moment sum_c h_c * coords[c]; H must have n entries."""
    Hv = vec(H)
    if len(Hv) != poly.dim:
        raise ValueError("functional has wrong dimension")
    total = MultiPoly.zero(poly.n_facets)
    for h, coord in zip(Hv, coords):
        if h != 0:
            total = total + coord * h
    return total


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
    """Exact integral of prod_i x_i^{e_i} over the polytope at the base
    kappa.

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
        M = [vec_sub(verts[i].point, base) for i in s[1:]]
        vol = abs(det(M)) / _factorial(n)
        p = MultiPoly.constant(n + 1, 1)
        for coord, e in enumerate(exponents):
            lin = MultiPoly.linear([verts[vid].point[coord] for vid in s])
            for _ in range(e):
                p = p * lin
        for mono, c in p.terms:
            num = Fraction(_factorial(n), _factorial(n + sum(mono)))
            for a in mono:
                num *= _factorial(a)
            total += c * vol * num
    return total


@memoize
def skeleton_barycenter(poly: HPolytope, k: int) -> Vec:
    """Barycenter of the union of all k-faces, in the lattice measure."""
    if not 0 <= k <= poly.dim:
        raise ValueError("skeleton dimension out of range")
    measure, coords = _skeleton_coord_polys(poly, k)
    total = measure.eval(poly.support)
    if total == 0:
        raise PolytopeError("zero skeleton measure")
    return tuple(c.eval(poly.support) / total for c in coords)
