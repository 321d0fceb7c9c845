"""Measures of a single face, kept as references: no library code calls them.

The library integrates whole skeletons, on the slice kappa_B = 0.
These integrate one face over the vertex cones of ``measure``, the
edges T at each of its vertices being those along the face, in all N
support numbers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from masslin.linalg import Vec
from masslin.measure import _pairing, _vertex_cones
from masslin.poly import MultiPoly
from masslin.polytope import Face, HPolytope

from _slice_ref import _cone_sums, _integrate


def face_polys(poly: HPolytope, face: Face) -> tuple[MultiPoly, tuple[MultiPoly, ...]]:
    """Lattice measure of a face and its n coordinate moments (the
    integrals of x_c over the face), as polynomials in kappa: one term per
    vertex v of the face, T the edges at v along the face."""
    cones = [_vertex_cones(poly)[vid] for vid in face.vertex_ids]
    Ts = [[j for j, f in enumerate(cone.basis) if f not in face.index_set] for cone in cones]
    D, measure, coords = _integrate(poly, face.dimension, ((c, *_cone_sums(poly, c, [T])) for c, T in zip(cones, Ts)))
    return measure / D, tuple(c / D for c in coords)


def face_measure_polys(poly: HPolytope, face: Face, H: Sequence | None = None):
    """Lattice measure of a face, and optionally its <H, x> moment, as
    polynomials in kappa."""
    measure, coords = face_polys(poly, face)
    return measure, None if H is None else _pairing(poly, coords, H)


def face_measure(poly: HPolytope, face: Face) -> tuple[Fraction, Vec]:
    """Lattice k-volume of the face and its unnormalized coordinate moment
    (the integral of x over the face), both at the base kappa."""
    measure, coords = face_polys(poly, face)
    return measure.eval(poly.support), tuple(c.eval(poly.support) for c in coords)
