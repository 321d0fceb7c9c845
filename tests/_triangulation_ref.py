"""Triangulation reference for the integrals of ``masslin.measure``.

The library integrates over vertex cones (Lawrence's and Brion's
formulas).  This module integrates the other way, independently of the
cones: a pulling triangulation of the face lattice, then per simplex a
barycentric expansion of the monomial.  Tests compare the library's
integrals with these.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod

from masslin.errors import PolytopeError
from masslin.linalg import int_det, scaled, vec_sub
from masslin.poly import MultiPoly
from masslin.polytope import memoize


@dataclass(frozen=True)
class Triangulation:
    """Simplices as vertex-id tuples, orientation signs frozen at base kappa."""

    simplices: tuple[tuple[int, ...], ...]
    signs: tuple[int, ...]


def _face_children(poly, face):
    """Facets of a face: canonical index grows by exactly one."""
    out = []
    for key, g in poly.face_lattice.items():
        if g.dimension == face.dimension - 1 and face.index_set < key:
            out.append(g)
    return sorted(out, key=lambda f: tuple(sorted(f.index_set)))


@memoize
def _pulling_simplices(poly, face):
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


def triangulate(poly) -> Triangulation:
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


def triangulated_integral(poly, exponents) -> Fraction:
    """Exact integral of prod_i x_i^{e_i} over the polytope at the base kappa.

    Per simplex, substitute x = sum_j lambda_j v_j and expand in the
    barycentric variables lambda_j; a barycentric monomial integrates in
    closed form:  int_S prod lambda^a = n! vol(S) prod(a_j!) / (n+|a|)!.
    """
    n = poly.dim
    verts = poly.vertices
    total = Fraction(0)
    for s in triangulate(poly).simplices:
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
