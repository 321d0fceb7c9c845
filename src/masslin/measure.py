"""Exact volumes, moments and skeleton barycenters.

In a chamber each vertex is linear in the support vector kappa, v(kappa)
= A_v^{-1} kappa_B for the conormals A_v of the facets B through v, so
all quantities below, with faces measured in their direction lattice,
are exact polynomials in kappa.

Each is a sum over vertex cones (Lawrence, Math. Comp. 57, 1991; Brion
1988), with no triangulation, in integers.  With d = |det A_v|, edge j
at v leaves facet B_j along the integer vector w_j = -d A_v^{-1} e_j.
Construction already has both, as a determinant and signed cofactor
vectors of its minor rows (``polytope._subsets``), and keeps them per
vertex; no vertex system is solved here, and the pass reads that
vertex table (``HPolytope._basic``) alone, never the face lattice.  One
deterministic xi, checked to pair nonzero with every edge, gives
q_j = -<xi, w_j> and L_v = <xi, v(kappa)> = sum_j q_j kappa_{B_j} / d.
The face F spanned by the edges T at v gets c_{v,T} = iota_{v,T} /
prod_{j in T} q_j, iota_{v,T} being the index of the lattice of w_T in
F's direction lattice, its saturation: the gcd of the maximal minors of
w_T, and 1 when d = 1.  The scale d^|T| of the edges cancels in the
quotient.  With k = dim F:

    measure(F) = sum_{v in F} c_{v,T} L_v^k / k!
    int_F x_c  = sum_{v in F} c_{v,T} [v_c L_v^k / k!
                     + (sum_{j in T} w_{j,c} / q_j) L_v^(k+1) / (k+1)!]

the second being the xi_c-derivative of Lawrence's formula in degree 1.
A k-skeleton needs two scalars per vertex, sums over the k-subsets T
that ``_cone_sums`` forms only for the k a caller integrates.

Translating the polytope by xi adds <eta_i, xi> to kappa_i.  The
measures do not move and the moment of <H, x> moves by <H, xi> times the
measure, so every question that compares them is settled on the slice
kappa_B = 0, B being the facets through the first vertex: A_B is
invertible, so each kappa is a translate of exactly one point of it.
``_slice_coord_polys`` expands the skeleton polynomials there, once per
polytope and k, in the N - n variables off B: at a vertex, the terms of
L_v in kappa_B are dropped before the multinomial expansion, and the
first vertex adds only its degree-0 term.  Its integer polynomials share
one denominator D, which cancels from every identity and ratio formed
of them.  Their values at the slice point of the polytope, with every
first partial, come from the vertex-cone terms in closed form
(``_slice_values``), once per polytope and k; skeleton barycenters are
those values moved back by the first vertex.  So a k < n polynomial is
expanded only where a pair space needs its rows, and never evaluated.  The
polynomials in all N variables come from ``_skeleton_coord_polys``,
divided by D.  Only ``volume_poly`` is public; ``moment_poly``,
``cached_moment_poly`` and ``skeleton_measure_polys`` have no library
caller and stay because the perfbench tracer patches them by name.

Monomial integrals use the same cones, by Brion's formula for a power of
a linear form l pairing nonzero with every edge (Baldoni, Berline,
De Loera, Koeppe, Vergne, Math. Comp. 80, 2011):

    int_P <l, x>^M dx = M! / (M+n)! sum_v iota_v <l, v>^(M+n) / prod_j <-l, w_j>,

iota_v being the index of the lattice of the edges at v in Z^n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, count, product
from math import comb, factorial, gcd, lcm, prod
from operator import mul
from typing import NamedTuple, Sequence

from .errors import PolytopeError, StructuralInconsistency
from .linalg import Vec, int_det, scaled, vec
from .poly import MultiPoly
from .polytope import HPolytope, _scaled_support, memoize


class VertexCone(NamedTuple):
    """The tangent cone at one vertex, in integers: its basis facets
    (sorted), d = |det A_v|, the edges w_j = -d A_v^{-1} e_j and q_j =
    -<xi, w_j> for one generic xi."""

    basis: tuple[int, ...]
    d: int
    w: tuple[tuple[int, ...], ...]
    q: tuple[int, ...]


def _generic_xi(edges, n: int) -> tuple[int, ...]:
    """The first xi = (1, t, ..., t^(n-1)), t = 2, 3, ..., pairing nonzero
    with every edge; one edge vanishes at no more than n - 1 values of t."""
    t = next(t for t in count(2) if all(sum(a * t**i for i, a in enumerate(w)) for ws in edges for w in ws))
    return tuple(t**i for i in range(n))


def _lattice_index(cone: VertexCone, T: Sequence[int]) -> int:
    """iota_{v,T}: the gcd of the maximal minors of w_T.  The direction
    lattice of the face the edges T span is the saturation of the lattice
    of w_T, and by the Smith normal form a lattice's index in its
    saturation is the gcd of its maximal minors."""
    sels = combinations(range(len(cone.w)), len(T))
    return gcd(*(int_det([[cone.w[j][i] for i in sel] for j in T]) for sel in sels))


def _cone_sums(poly: HPolytope, cone: VertexCone, Ts) -> tuple[int, tuple[int, ...]]:
    """Integer numerators of the sums over the edge sets T in Ts of the
    vertex's terms in the faces they span: c_{v,T}, over Q = prod_j q_j,
    and c_{v,T} sum_{j in T} w_j / q_j, over Q^2.

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


@memoize
def _vertex_cones(poly: HPolytope) -> tuple[VertexCone, ...]:
    """Every vertex cone, for ``_generic_xi``, in ``vertices`` order.

    Construction keeps each vertex y / (d L) with d and the edges w_j
    (``polytope._basic_points``).  d must be nonzero, checked before
    ``vertices`` divides by it, and the vertex map must give back the
    vertex: y = -sum_j w_j K_{basis[j]}, with kappa = K / L."""
    n = poly.dim
    _, K = _scaled_support(poly)
    if not all(d for _, d, _ in poly._basic.values()):
        raise StructuralInconsistency("vertex conormals must be invertible")
    cones = []
    for v in poly.vertices:
        basis = tuple(sorted(v.basis))
        y, d, w = poly._basic[v.basis]
        if any(-sum(e[c] * K[f] for e, f in zip(w, basis)) != y[c] for c in range(n)):
            raise StructuralInconsistency("vertex map must reproduce the vertex")
        cones.append(VertexCone(basis, d, w, ()))
    xi = _generic_xi([cone.w for cone in cones], n)
    cones = tuple(cone._replace(q=tuple(-sum(map(mul, xi, e)) for e in cone.w)) for cone in cones)
    if any(0 in cone.q for cone in cones):
        raise StructuralInconsistency("xi must pair nonzero with every edge")
    return cones


@cache
def _exponents(n: int, d: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(alpha, d! / alpha!) for every alpha in N^n of total degree d."""
    if n == 0:
        return (((), 1),) if d == 0 else ()
    return tuple(((e,) + r, m * comb(d, e)) for e in range(d + 1) for r, m in _exponents(n - 1, d - e))


def _powers(N: int, cone: VertexCone, e: int, drop: frozenset[int]):
    """(d L_v)^e = (sum_j q_j kappa_{basis[j]})^e with the variables in
    drop set to zero, by the multinomial theorem: (monomial in kappa,
    (j, alpha_j) for each kept basis position j, integer coefficient) per
    exponent vector alpha on the kept basis variables."""
    kept = [j for j, f in enumerate(cone.basis) if f not in drop]
    for alpha, m in _exponents(len(kept), e):
        mono = [0] * N
        for j, a in zip(kept, alpha):
            mono[cone.basis[j]] = a
            m *= cone.q[j] ** a
        yield tuple(mono), zip(kept, alpha), m


def _scales(k: int, terms) -> tuple[int, list]:
    """den = lcm of Q^2 d^(k+1), and each term as (cone, Q, s0, s1, scale)."""
    terms = [(cone, prod(cone.q), s0, s1) for cone, s0, s1 in terms]
    den = lcm(*(Q * Q * cone.d ** (k + 1) for cone, Q, _, _ in terms))
    return den, [(cone, Q, s0, s1, den // (Q * Q * cone.d ** (k + 1))) for cone, Q, s0, s1 in terms]


def _integrate(poly: HPolytope, k: int, terms, drop: frozenset[int] = frozenset()) -> tuple[int, MultiPoly, tuple[MultiPoly, ...]]:
    """Measure and coordinate moments of k-faces from vertex terms (cone,
    s0, s1) of ``_cone_sums``, restricted to kappa_i = 0 for the facets i
    in drop, as (D, D measure, D moments) with integer coefficients, D
    the lcm of Q^2 d^(k+1) over the vertices times (k+1)!.

    A vertex adds s0 (d L_v)^k / (Q d^k k!) = s0 Q d (k+1) (d L_v)^k /
    (Q^2 d^(k+1) (k+1)!) to the measure.  As v_c(kappa) = -sum_j w_{j,c}
    kappa_{basis[j]} / d, the coefficient of kappa^alpha in its moment
    is that of (d L_v)^(k+1) / (Q^2 d^(k+1) (k+1)!) times s1_c - s0
    sum_j alpha_j w_{j,c} Q / q_j.  Dropped variables leave L_v before
    the expansion, so only the terms of the restriction are formed.
    """
    N, n = poly.n_facets, poly.dim
    den, terms = _scales(k, terms)
    measure, coords = {}, [{} for _ in range(n)]
    for cone, Q, s0, s1, scale in terms:
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


@memoize
def _skeleton_terms(poly: HPolytope, k: int) -> tuple:
    """Each vertex's terms summed over the k-subsets of its edges, once
    per polytope and k."""
    return tuple((cone, *_cone_sums(poly, cone, combinations(range(poly.dim), k))) for cone in _vertex_cones(poly))


@memoize
def _skeleton_coord_polys(poly: HPolytope, k: int) -> tuple[MultiPoly, tuple[MultiPoly, ...]]:
    """Lattice measure of the k-skeleton and its n coordinate moments in
    all N variables, once per polytope and k."""
    D, measure, coords = _integrate(poly, k, _skeleton_terms(poly, k))
    return measure / D, tuple(c / D for c in coords)


@memoize
def _slice(poly: HPolytope) -> tuple[frozenset[int], Vec]:
    """The facets B through the first vertex v0 and the support numbers
    kappa' = kappa - A v0 of the polytope moved by -v0, the one point of
    the slice kappa_B = 0 on its translation orbit.  With kappa = K / L
    and v0 = y / (d L) as construction keeps it, kappa'_i is the integer
    d K_i - <eta_i, y> over d L."""
    B = poly.vertices[0].basis
    y, d, _ = poly._basic[B]
    L, K = _scaled_support(poly)
    return B, tuple(Fraction(d * k - sum(map(mul, eta, y)), d * L) for eta, k in zip(poly.conormals, K))


@memoize
def _slice_coord_polys(poly: HPolytope, k: int) -> tuple[int, MultiPoly, tuple[MultiPoly, ...]]:
    """Lattice measure of the k-skeleton and its n coordinate moments on
    the slice kappa_B = 0 (``_slice``), as integer polynomials over one
    denominator D (``_integrate``): the integration pass behind every
    pair space and symmetric facet, once per polytope and k."""
    return _integrate(poly, k, _skeleton_terms(poly, k), _slice(poly)[0])


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
    D, measure, _ = _slice_coord_polys(poly, poly.dim)
    return measure.eval(_slice(poly)[1]) / D


def center_of_mass(poly: HPolytope) -> Vec:
    """Exact center of mass at the base kappa: the n-skeleton barycenter."""
    return skeleton_barycenter(poly, poly.dim)


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
    generic.  On the integer vertices L v and the integer edges w of a
    cone, iota_v = |det w| = d^(n-1), so each term is one integer
    quotient and the sum is divided once by (M+n)! L^(M+n).
    """
    n = poly.dim
    if len(exponents) != n or not all(type(e) is int and e >= 0 for e in exponents):
        raise ValueError("need one nonnegative exponent per coordinate")
    M = sum(exponents)
    L, verts = scaled([v.point for v in poly.vertices])
    cones = _vertex_cones(poly)
    xi = _generic_xi([cone.w for cone in cones], n)
    shifts = [(p, (-1) ** (M - sum(p)) * prod(map(comb, exponents, p)))
              for p in product(*(range(e + 1) for e in exponents))]
    t = next(t for t in count() if all(sum(map(mul, p, w)) + t * sum(map(mul, xi, w))
                                       for p, _ in shifts for cone in cones for w in cone.w))
    total = Fraction(0)
    for p, c in shifts:
        ell = [a + t * x for a, x in zip(p, xi)]
        for v, cone in zip(verts, cones):
            total += Fraction(c * cone.d ** (n - 1) * sum(map(mul, ell, v)) ** (M + n),
                              prod(-sum(map(mul, ell, w)) for w in cone.w))
    return total / (factorial(M + n) * L ** (M + n))


class SliceValues(NamedTuple):
    """The k-skeleton measure and coordinate moments on the slice, with
    every first partial, at the slice point of the polytope, as integers
    over one denominator, which cancels from every identity and ratio
    formed of them; and the k-skeleton barycenter as integer numerators
    over one positive denominator."""

    measure: int
    measure_grad: tuple[int, ...]
    moments: tuple[int, ...]
    moment_grads: tuple[tuple[int, ...], ...]
    center: tuple[int, ...]
    center_den: int


@memoize
def _slice_values(poly: HPolytope, k: int) -> SliceValues:
    """The base values of the slice pass, once per polytope and k: the
    skeleton barycenter, and the value and gradient of every
    per-functional identity at the base kappa, in integers, read off the
    cone terms in closed form.  With Q, scale and f as in ``_integrate``,
    Lambda_v = sum_j q_j kappa_{B_j} and mu_{v,c} = sum_j w_{j,c}
    kappa_{B_j} over the j off B, the slice polynomials over its
    denominator are sum_v f Lambda_v^k and sum_v scale (s1_c
    Lambda_v^(k+1) - (k+1) s0 Q Lambda_v^k mu_{v,c}), as alpha_j times a
    term of Lambda_v^(k+1) is kappa_{B_j} times its partial; partials by
    the product rule, zero on B.  At the slice point K / e all are
    integers over e^(k+1); dividing by their gcd with e^(k+1) scales
    them as ``scaled`` does.  Moving back adds v0 to the barycenter."""
    if type(k) is not int or not 0 <= k <= poly.dim:
        raise ValueError("skeleton dimension out of range")
    B, base = _slice(poly)
    e, (K,) = scaled([base])
    rows = [[0] * (poly.n_facets + 1) for _ in range(poly.dim + 1)]  # (value, *gradient)
    for cone, Q, s0, s1, scale in _scales(k, _skeleton_terms(poly, k))[1]:
        kept = [(f, q, w) for f, q, w in zip(cone.basis, cone.q, cone.w) if f not in B]
        lam, mu = sum(q * K[f] for f, q, _ in kept), [sum(w[c] * K[f] for f, _, w in kept) for c in range(poly.dim)]
        a, f0, pk, dpk = (k + 1) * s0 * Q, scale * Q * cone.d * (k + 1) * s0, lam**k, k * lam ** (k - 1) if k else 0
        rows[0][0] += f0 * pk * e
        for c, row in enumerate(rows[1:]):
            row[0] += scale * (s1[c] * lam - a * mu[c]) * pk
        for f, q, w in kept:
            rows[0][f + 1] += f0 * dpk * q * e * e
            for c, row in enumerate(rows[1:]):
                row[f + 1] += scale * e * (((k + 1) * s1[c] * q - a * w[c]) * pk - a * dpk * q * mu[c])
    G = gcd(e ** (k + 1), *(x for row in rows for x in row))
    (V, *dV), *moments = [[x // G for x in row] for row in rows]
    if V == 0:
        raise PolytopeError("zero skeleton measure")
    e, (v0,) = scaled([poly.vertices[0].point])
    return SliceValues(V, tuple(dV), tuple(m[0] for m in moments), tuple(tuple(m[1:]) for m in moments),
                       tuple(e * m[0] + V * x for m, x in zip(moments, v0)), e * V)


def skeleton_barycenter(poly: HPolytope, k: int) -> Vec:
    """Barycenter of the union of all k-faces, in the lattice measure.

    The slice polynomials at the support numbers of the polytope moved
    by -v0 (``_slice``) give its k-skeleton measure P_k and moments over
    one denominator, which cancels from their ratio; moving back adds v0
    to the barycenter (``_slice_values``)."""
    at = _slice_values(poly, k)
    return tuple(Fraction(c, at.center_den) for c in at.center)
