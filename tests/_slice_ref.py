"""Full-variable references for the slice computations of ``masslinear``.

The library decides pair spaces and symmetric facets on the slice
kappa_B = 0 of one vertex chart.  These references decide the same
questions from the k-skeleton polynomials in all N support numbers, as
the library did before the slice: the integer block of each identity
m_k(H) == (gamma . kappa) * P_k and the per-facet identity
d(mu)/dk_i * V == mu * dV/dk_i expanded in every variable.
"""

from collections import defaultdict
from math import lcm

from masslin.linalg import _echelon, int_nullspace, vec
from masslin.measure import _skeleton_coord_polys, moment_poly, volume_poly


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
