"""References for the slice computations of ``masslinear`` and ``measure``.

The library decides pair spaces and symmetric facets on the slice
kappa_B = 0 of one vertex chart.  The full-variable references decide
the same questions from the k-skeleton polynomials in all N support
numbers, as the library did before the slice: the integer block of each
identity m_k(H) == (gamma . kappa) * P_k and the per-facet identity
d(mu)/dk_i * V == mu * dV/dk_i expanded in every variable.

Two more references keep the slice but compute as the library did
before it read the base values off the vertex cones and solved several
skeleton dimensions inside the pair space of the largest:
``slice_values`` evaluates the slice polynomials with every first
partial, and ``stacked_pair_space`` eliminates each dimension's slice
rows on their own and solves their stack in all n + N unknowns.
``slice_point`` forms kappa - A v0 in Fractions from the first vertex.
"""

from collections import defaultdict
from math import lcm

from masslin.errors import PolytopeError
from masslin.linalg import _echelon, dot, int_nullspace, scaled, vec
from masslin.masslinear import _identity_rows
from masslin.measure import SliceValues, _skeleton_coord_polys, _slice, _slice_coord_polys, moment_poly, volume_poly


def full_skeleton_block(poly, k):
    """Surviving rows of the system of m_k(H) == (gamma . kappa) * P_k,
    one equation per monomial in all N support numbers."""
    n, N = poly.dim, poly.n_facets
    measure, coords = _skeleton_coord_polys(poly, k)
    parts = [c.as_dict() for c in coords] + [measure.as_dict()]
    D = lcm(*(x.denominator for part in parts for x in part.values()))
    rows = defaultdict(lambda: [0] * (n + N))
    for c, part in enumerate(parts[:n]):
        for m, x in part.items():
            rows[m][c] = int(x * D)
    for m, x in parts[n].items():
        for i in range(N):
            rows[m[:i] + (m[i] + 1,) + m[i + 1:]][n + i] = -int(x * D)
    system = list(rows.values())
    pivots, _ = _echelon(system, n + N)
    return system[: len(pivots)]


def full_pair_space(poly, dims):
    """Reduced-echelon kernel basis of the stacked full-variable blocks."""
    n, N = poly.dim, poly.n_facets
    system = [row for k in dims for row in full_skeleton_block(poly, k)]
    return tuple((z[:n], z[n:]) for z in int_nullspace(system, n + N))


def full_symmetric_facets(poly, H):
    """(symmetric, asymmetric) from mu and V in all N variables: the
    identity at the base kappa first, then expanded where that is zero."""
    mu, vol = moment_poly(poly, vec(H)), volume_poly(poly)
    mu0, dmu0 = mu.eval_gradient(poly.support)
    vol0, dvol0 = vol.eval_gradient(poly.support)
    sym = frozenset(
        i
        for i in range(poly.n_facets)
        if dmu0[i] * vol0 == mu0 * dvol0[i] and (mu.partial(i) * vol - mu * vol.partial(i)).is_zero()
    )
    return sym, frozenset(range(poly.n_facets)) - sym


def slice_values(poly, k):
    """The base values of the slice polynomials, once evaluated with
    every first partial at the slice point and put on integers by
    ``scaled``; the barycenter is moved back by v0."""
    if type(k) is not int or not 0 <= k <= poly.dim:
        raise ValueError("skeleton dimension out of range")
    _, measure, coords = _slice_coord_polys(poly, k)
    base = _slice(poly)[1]
    values = [p.eval_gradient(base) for p in (measure, *coords)]
    _, ((V, *dV), *moments) = scaled([(v, *g) for v, g in values])
    if V == 0:
        raise PolytopeError("zero skeleton measure")
    e, (v0,) = scaled([poly.vertices[0].point])
    return SliceValues(
        V,
        tuple(dV),
        tuple(m[0] for m in moments),
        tuple(tuple(m[1:]) for m in moments),
        tuple(e * m[0] + V * x for m, x in zip(moments, v0)),
        e * V,
    )


def stacked_pair_space(poly, dims):
    """Reduced-echelon kernel basis of every k's slice rows, each block
    eliminated on its own, stacked with the n rows of
    H == sum_i gamma_i eta_i."""
    n, N = poly.dim, poly.n_facets
    system = []
    for k in dims:
        block = _identity_rows(poly, k)
        pivots, _ = _echelon(block, n + N)
        system += block[: len(pivots)]
    system += [[int(c == r) for c in range(n)] + [-eta[r] for eta in poly.conormals] for r in range(n)]
    return tuple((z[:n], z[n:]) for z in int_nullspace(system, n + N))


def slice_point(poly):
    """``measure._slice``: the facets through the first vertex v0 and
    the support numbers kappa - A v0."""
    v0 = poly.vertices[0]
    return v0.basis, tuple(k - dot(eta, v0.point) for eta, k in zip(poly.conormals, poly.support))
