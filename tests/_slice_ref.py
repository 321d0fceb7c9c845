"""References for the slice computations of ``masslinear`` and ``measure``.

The library decides pair spaces and symmetric facets on the slice
kappa_B = 0 of one vertex chart.  The full-variable references decide
the same questions from the k-skeleton polynomials in all N support
numbers, as the library did before the slice: the integer block of each
identity m_k(H) == (gamma . kappa) * P_k and the per-facet identity
d(mu)/dk_i * V == mu * dV/dk_i expanded in every variable.

Two more references read the polynomials of ``lawrence_skeleton``
below, not the library's: ``base_values`` evaluates the k-skeleton
measure and moments at the base kappa, and at k = n - 1 the first
partials of the volume and moments, which the library reads off one
closed-form vertex pass; ``stacked_pair_space`` builds every
dimension's identity rows on the slice from them, eliminates each block
on its own and solves their stack in all n + N unknowns, where the
library solves the k < n dimensions inside ``ml_space`` by the gamma
rows.  ``slice_point`` forms kappa - A v0 in Fractions from the first
vertex.  ``value_gradient`` evaluates a polynomial and its first
partials.

``lawrence_skeleton`` integrates each k-skeleton on its own, in all N
variables or on the slice, by Lawrence's formula over the k-subsets of
the edges at every vertex, each with its lattice index
(``_lattice_index``), as the library did before it derived the k < n
polynomials from the k = n ones by differentiation.  ``_face_ref``
integrates single faces with the same ``_cone_sums`` and ``_integrate``.
"""

from collections import defaultdict
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm, prod

from masslin.linalg import _echelon, dot, int_det, int_nullspace, vec
from masslin.measure import (
    _powers,
    _skeleton_coord_polys,
    _slice,
    _vertex_cones,
    moment_poly,
    volume_poly,
)
from masslin.poly import MultiPoly


def _lattice_index(cone, T):
    """iota_{v,T}: the gcd of the maximal minors of w_T.  The direction
    lattice of the face the edges T span is the saturation of the lattice
    of w_T, and by the Smith normal form a lattice's index in its
    saturation is the gcd of its maximal minors."""
    sels = combinations(range(len(cone.w)), len(T))
    return gcd(*(int_det([[cone.w[j][i] for i in sel] for j in T]) for sel in sels))


def _cone_sums(poly, cone, Ts):
    """Integer numerators of the sums over the edge sets T in Ts of the
    vertex's terms in the faces they span: c_{v,T} = iota_{v,T} /
    prod_{j in T} q_j, over Q = prod_j q_j, and c_{v,T} sum_{j in T} w_j /
    q_j, over Q^2.

    These are iota_{v,T} prod_{j not in T} q_j and iota_{v,T} sum_{j in T}
    w_j prod_{i in T - j} q_i prod_{i not in T} q_i^2."""
    n = poly.dim
    s0, s1 = 0, [0] * n
    for T in Ts:
        iota = _lattice_index(cone, T) if T and cone.d != 1 else 1
        rest = prod(q for i, q in enumerate(cone.q) if i not in T)
        s0 += iota * rest
        for j in T:
            f = iota * rest * rest * prod(cone.q[i] for i in T if i != j)
            for c in range(n):
                s1[c] += f * cone.w[j][c]
    return s0, tuple(s1)


def _integrate(poly, k, terms, drop=frozenset()):
    """Measure and coordinate moments of k-faces by Lawrence's formula,
    from vertex terms (cone, s0, s1) of ``_cone_sums``, restricted to
    kappa_i = 0 for the facets i in drop, as (D, D measure, D moments)
    with integer coefficients, D the lcm of Q^2 d^(k+1) over the vertices
    times (k+1)!.

    The face F spanned by the edges T at v gets c_{v,T} L_v^k / k! in its
    measure and c_{v,T} [v_c L_v^k / k! + (sum_{j in T} w_{j,c} / q_j)
    L_v^(k+1) / (k+1)!] in its moment.  A vertex adds s0 (d L_v)^k / (Q
    d^k k!) = s0 Q d (k+1) (d L_v)^k / (Q^2 d^(k+1) (k+1)!) to the
    measure.  As v_c(kappa) = -sum_j w_{j,c} kappa_{basis[j]} / d, the
    coefficient of kappa^alpha in its moment is that of (d L_v)^(k+1) /
    (Q^2 d^(k+1) (k+1)!) times s1_c - s0 sum_j alpha_j w_{j,c} Q / q_j."""
    N, n = poly.n_facets, poly.dim
    terms = [(cone, prod(cone.q), s0, s1) for cone, s0, s1 in terms]
    den = lcm(*(Q * Q * cone.d ** (k + 1) for cone, Q, _, _ in terms))
    measure, coords = {}, [{} for _ in range(n)]
    for cone, Q, s0, s1 in terms:
        scale = den // (Q * Q * cone.d ** (k + 1))
        f = scale * Q * cone.d * (k + 1) * s0
        for mono, _, p in _powers(N, cone, k, drop):
            measure[mono] = measure.get(mono, 0) + f * p
        b = [s0 * (Q // q) * e[c] for e, q in zip(cone.w, cone.q) for c in range(n)]
        for mono, alpha, p in _powers(N, cone, k + 1, drop):
            p *= scale
            alpha = [(j * n, a) for j, a in alpha if a]
            for c, dc in enumerate(coords):
                dc[mono] = dc.get(mono, 0) + p * (s1[c] - sum(a * b[j + c] for j, a in alpha))
    return den * factorial(k + 1), MultiPoly.from_dict(N, measure), tuple(MultiPoly.from_dict(N, dc) for dc in coords)


@lru_cache(maxsize=512)
def lawrence_skeleton(poly, k, drop=frozenset()):
    """The k-skeleton measure and coordinate moments by one Lawrence pass
    over the k-subsets of the edges at every vertex, restricted to
    kappa_i = 0 for i in drop, as rational polynomials."""
    terms = [(cone, *_cone_sums(poly, cone, combinations(range(poly.dim), k))) for cone in _vertex_cones(poly)]
    D, measure, coords = _integrate(poly, k, terms, drop)
    return measure / D, tuple(c / D for c in coords)


def _block(poly, measure, coords, dropped=frozenset()):
    """Surviving rows of the system of m_k(H) == (gamma . kappa) * P_k,
    one equation per monomial of the rational polynomials measure and
    coords, with the columns of the facets in dropped left zero."""
    n, N = poly.dim, poly.n_facets
    parts = [dict(c.terms) for c in coords] + [dict(measure.terms)]
    D = lcm(*(x.denominator for part in parts for x in part.values()))
    rows = defaultdict(lambda: [0] * (n + N))
    for c, part in enumerate(parts[:n]):
        for m, x in part.items():
            rows[m][c] = int(x * D)
    for m, x in parts[n].items():
        for i in range(N):
            if i not in dropped:
                rows[m[:i] + (m[i] + 1,) + m[i + 1:]][n + i] = -int(x * D)
    system = list(rows.values())
    pivots, _ = _echelon(system, n + N)
    return system[: len(pivots)]


def full_skeleton_block(poly, k):
    """Surviving rows of the system of m_k(H) == (gamma . kappa) * P_k,
    one equation per monomial in all N support numbers."""
    return _block(poly, *_skeleton_coord_polys(poly, k))


def full_pair_space(poly, dims):
    """Reduced-echelon kernel basis of the stacked full-variable blocks."""
    n, N = poly.dim, poly.n_facets
    system = [row for k in dims for row in full_skeleton_block(poly, k)]
    return tuple((z[:n], z[n:]) for z in int_nullspace(system, n + N))


def value_gradient(p, point):
    """The value and every first partial derivative of p at a point."""
    return p.eval(point), tuple(p.partial(i).eval(point) for i in range(p.nvars))


def full_symmetric_facets(poly, H):
    """(symmetric, asymmetric) from mu and V in all N variables: the
    identity at the base kappa first, then expanded where that is zero."""
    mu, vol = moment_poly(poly, vec(H)), volume_poly(poly)
    mu0, dmu0 = value_gradient(mu, poly.support)
    vol0, dvol0 = value_gradient(vol, poly.support)
    sym = frozenset(
        i
        for i in range(poly.n_facets)
        if dmu0[i] * vol0 == mu0 * dvol0[i] and (mu.partial(i) * vol - mu * vol.partial(i)).is_zero()
    )
    return sym, frozenset(range(poly.n_facets)) - sym


@lru_cache(maxsize=512)
def base_values(poly, s):
    """The k-skeleton measure and coordinate moments at the base kappa, k
    = n - s, and for s = 1 each facet's first partials of the volume and
    moments there, all from ``lawrence_skeleton`` in all N variables."""
    n, base = poly.dim, poly.support
    measure, coords = lawrence_skeleton(poly, n - s)
    facets = ()
    if s == 1:
        vol, moments = lawrence_skeleton(poly, n)
        facets = tuple(tuple(p.partial(i).eval(base) for p in (vol, *moments)) for i in range(poly.n_facets))
    return measure.eval(base), tuple(c.eval(base) for c in coords), facets


def stacked_pair_space(poly, dims):
    """Reduced-echelon kernel basis of every k's slice rows, from the
    slice polynomials of ``lawrence_skeleton``, each block eliminated on
    its own, stacked with the n rows of H == sum_i gamma_i eta_i."""
    n, N = poly.dim, poly.n_facets
    B = _slice(poly)[0]
    system = [row for k in dims for row in _block(poly, *lawrence_skeleton(poly, k, B), B)]
    system += [[int(c == r) for c in range(n)] + [-eta[r] for eta in poly.conormals] for r in range(n)]
    return tuple((z[:n], z[n:]) for z in int_nullspace(system, n + N))


def slice_point(poly):
    """``measure._slice``: the facets through the first vertex v0 and
    the support numbers kappa - A v0."""
    v0 = poly.vertices[0]
    return v0.basis, tuple(k - dot(eta, v0.point) for eta, k in zip(poly.conormals, poly.support))
