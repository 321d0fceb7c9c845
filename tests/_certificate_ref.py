"""Reference certificate check that rebuilds the constructor's polytope.

The library checks a recognition certificate on facet data: it compares
the input's mapped facet data with the constructor's facet-data step
and runs the constructor's post-build checks on the input.  This
reference checks it as the library did before: it builds
``reconstruct(cert)``, a full polytope with its vertex scan, so every
parameter check, construction check and post-build check of the
constructor runs on the rebuilt polytope, and then compares the
dimension, conormals and support numbers.  ``holds`` counts a
``PolytopeError`` as no match, like ``recognize._holds``.
"""

from __future__ import annotations

from masslin.errors import PolytopeError
from masslin.linalg import int_det, int_vec
from masslin.masslinear import equivalence_classes
from masslin.recognize import _mapped, reconstruct


def certificate_holds(poly, cert) -> bool:
    if cert.transform is None:
        i, j = cert.base
        return (
            poly.face({i, j}) is None
            and frozenset(cert.base) in equivalence_classes(poly).classes
        )
    T = [int_vec(row) for row in cert.transform]
    if abs(int_det(T)) != 1:
        raise PolytopeError("lattice map must be unimodular")
    order = cert.facet_order
    if sorted(order) != list(range(poly.n_facets)):
        raise PolytopeError("order must be a permutation of facet indices")
    built = reconstruct(cert)
    mapped = tuple(tuple(part[x] for x in order) for part in _mapped(poly, T, cert.translation))
    return (poly.dim, *mapped) == (built.dim, built.conormals, built.support)


def holds(poly, cert) -> bool:
    try:
        return certificate_holds(poly, cert)
    except PolytopeError:
        return False
