"""Exact volumes, moments and skeleton barycenters.

In a chamber each vertex is linear in the support vector kappa, v(kappa)
= A_v^{-1} kappa_B for the conormals A_v of the facets B through v, so
all quantities below, with faces measured in their direction lattice,
are exact polynomials in kappa.

The volume and moments are a sum over vertex cones (Lawrence, Math.
Comp. 57, 1991; Brion 1988), with no triangulation, in integers.  With
d = |det A_v|, edge j at v leaves facet B_j along the integer vector w_j
= -d A_v^{-1} e_j.  Construction keeps both per vertex, as a determinant
and signed cofactor vectors (``HPolytope._basic``), and the pass reads
that table alone.  One deterministic xi, checked to pair nonzero with
every edge, gives q_j = -<xi, w_j> and L_v = <xi, v(kappa)> = sum_j q_j
kappa_{B_j} / d.  The edges at v span a lattice of index d^(n-1) in
Z^n, so with Q = prod_j q_j:

    vol        = sum_v d^(n-1) L_v^n / (Q n!)
    int_P x_c  = sum_v d^(n-1) / Q [v_c L_v^n / n!
                     + (sum_j w_{j,c} / q_j) L_v^(n+1) / (n+1)!]

the second being the xi_c-derivative of Lawrence's formula in degree 1.

Every lower skeleton is read off these by differentiation (Brion 1988;
Guillemin, Moment Maps and Combinatorial Invariants of Hamiltonian
T^n-spaces, 1994).  On a simple polytope the facets S cut out a face
F_S of dimension n - |S| exactly when they lie in one vertex basis, and
moving kappa_i moves facet i at unit lattice speed, so with d_S = prod_{i
in S} d/dkappa_i

    measure(F_S) = g_S d_S V,    int_{F_S} x_c = g_S d_S m_c,

g_S being the gcd of the maximal minors of the rows eta_S, the index of
their lattice in its saturation (1 on a smooth polytope), and d_S V = 0
when the facets S do not meet.  So P_k = sum_{|S| = n-k} g_S d_S V, the
sum over the k-faces, and where every g_S = 1 it is e_{n-k} of the
partials applied to V (``_elementary``).

Every base value, at the kappa of the polytope itself, is one
closed-form pass over the vertex cones per face size s = n - k
(``_base_values``): a vertex's terms depend on kappa_B alone, so d_S of
them, for S in its basis, is a closed form in lambda = d L_v and
v(kappa) by the Leibniz rule, evaluated in integers.  Weighted by g_S
and summed over |S| = s they give the k-skeleton measure and moments, so
every barycenter, ``volume`` and ``center_of_mass``; kept per facet at s
= 1 they are the first partials of V and m_c in all N variables.

The polynomials are formed on the slice kappa_B = 0, B being the facets
through the first vertex v0, where each translation orbit meets it once
(A_B is invertible): ``_slice_coord_polys`` gives the volume and moments
in the N - n variables off B, with the terms of L_v in kappa_B dropped
before the multinomial expansion (``_integrate``).  Face measures are
translation invariant, so their partials follow from V' by the chain
rule through the translation that keeps kappa on the slice: off B,
d/dkappa_j is the slice partial; at the facet B_p, whose edge at v0 is
w_p, it is sum_{j not in B} (<eta_j, w_p> / d) d/dkappa_j
(``_slice_chain``, ``_slice_measures``).  In all N variables the
partials are plain, and ``_skeleton_coord_polys`` is the face sum itself:
g_S d_S V and g_S d_S m_c over the k-faces F_S, the polytope being its
one n-face (S empty, g_S = 1).  Only ``volume_poly`` is public;
``moment_poly``, ``cached_moment_poly`` and ``skeleton_measure_polys``
have no library caller and stay because the perfbench tracer patches
them by name.  Monomial integrals use the same cones, by Brion's formula
for a power of a linear form l pairing nonzero with every edge (Baldoni,
Berline, De Loera, Koeppe, Vergne, Math. Comp. 80, 2011):

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
    (sorted), d = |det A_v|, the edges w_j = -d A_v^{-1} e_j, q_j =
    -<xi, w_j> for one generic xi, Q = prod_j q_j and u = sum_j (Q / q_j)
    w_j, which every cone sum reads."""

    basis: tuple[int, ...]
    d: int
    w: tuple[tuple[int, ...], ...]
    q: tuple[int, ...]
    Q: int
    u: tuple[int, ...]


def _generic_xi(edges, n: int) -> tuple[int, ...]:
    """The first xi = (1, t, ..., t^(n-1)), t = 2, 3, ..., pairing nonzero
    with every edge; one edge vanishes at no more than n - 1 values of t."""
    t = next(t for t in count(2) if all(sum(a * t**i for i, a in enumerate(w)) for ws in edges for w in ws))
    return tuple(t**i for i in range(n))


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
        cones.append((basis, d, w))
    xi = _generic_xi([w for _, _, w in cones], n)
    out = []
    for basis, d, w in cones:
        q = tuple(-sum(map(mul, xi, e)) for e in w)
        if 0 in q:
            raise StructuralInconsistency("xi must pair nonzero with every edge")
        Q = prod(q)
        out.append(VertexCone(basis, d, w, q, Q, tuple(sum(Q // x * e[c] for e, x in zip(w, q)) for c in range(n))))
    return tuple(out)


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


@memoize
def _integrate(poly: HPolytope, drop: frozenset[int]) -> tuple[int, MultiPoly, tuple[MultiPoly, ...]]:
    """Volume and coordinate moments from the vertex cones, restricted to
    kappa_i = 0 for the facets i in drop, as (D, D V, D moments) with
    integer coefficients, D the lcm of Q^2 d^2 over the vertices
    (``_cone_terms``) times (n+1)!; once per polytope and drop.

    A vertex adds (d L_v)^n / (Q d n!) = (n+1) Q d (d L_v)^n / (Q^2 d^2
    (n+1)!) to the volume.  As v_c(kappa) = -sum_j w_{j,c} kappa_{basis[j]}
    / d, the coefficient of kappa^alpha in its moment is that of
    (d L_v)^(n+1) / (Q^2 d^2 (n+1)!) times sum_j (1 - alpha_j) w_{j,c}
    Q / q_j.  Dropped variables leave L_v before the expansion, so only
    the terms of the restriction are formed.
    """
    N, n = poly.n_facets, poly.dim
    den, _, terms = _cone_terms(poly)
    measure, coords = {}, [{} for _ in range(n)]
    for scale, *_, cone in terms:
        f = scale * cone.Q * cone.d * (n + 1)
        for mono, _, p in _powers(N, cone, n, drop):
            measure[mono] = measure.get(mono, 0) + f * p
        b = [(cone.Q // q) * e[c] for e, q in zip(cone.w, cone.q) for c in range(n)]
        for mono, alpha, p in _powers(N, cone, n + 1, drop):
            p *= scale
            alpha = [(j * n, a) for j, a in alpha if a]
            for c, dc in enumerate(coords):
                dc[mono] = dc.get(mono, 0) + p * (cone.u[c] - sum(a * b[j + c] for j, a in alpha))
    return den * factorial(n + 1), MultiPoly.from_dict(N, measure), tuple(MultiPoly.from_dict(N, dc) for dc in coords)


def _derive(op, p: dict) -> dict:
    """sum_j x dp/dkappa_j over the pairs (j, x) of op, for an integer
    polynomial p kept as a dict of its terms."""
    out: dict = {}
    for m, c in p.items():
        for j, x in op:
            if e := m[j]:
                m2 = m[:j] + (e - 1,) + m[j + 1 :]
                out[m2] = out.get(m2, 0) + x * e * c
    return out


def _add(p: dict, q: dict, f: int = 1) -> dict:
    """p + f q, in place."""
    for m, c in q.items():
        p[m] = p.get(m, 0) + f * c
    return p


def _face_index(poly: HPolytope, S: Sequence[int]) -> int:
    """g_S: the gcd of the maximal minors of the conormals eta_S.  By the
    Smith normal form it is the index of their lattice in its
    saturation."""
    rows = [poly.conormals[i] for i in S]
    return gcd(*(int_det([[r[c] for c in sel] for r in rows]) for sel in combinations(range(poly.dim), len(S))))


def _elementary(ops, top: dict, n: int) -> tuple[list[dict], list[dict]]:
    """(R, first): R[s] = e_s(ops) top, s = 0..n >= 1, by the pass R_s +=
    ops[i] R_{s-1}, s = n..1, over the facets i, ops[i] = ((j, x), ...)
    being sum_j x d/dkappa_j; first[i] = ops[i] top."""
    R = [top] + [{} for _ in range(n)]
    first = []
    for op in ops:
        for s in range(n, 0, -1):
            term = _derive(op, R[s - 1])
            _add(R[s], term)
        first.append(term)
    return R, first


def _face_indices(poly: HPolytope) -> dict[tuple[int, ...], int]:
    """g_S for each face S with g_S != 1, S sorted: a subset of the basis
    of a vertex with d != 1, every subset of a lattice basis being
    saturated."""
    faces = {S for cone in _vertex_cones(poly) if cone.d != 1 for s in range(1, poly.dim + 1) for S in combinations(cone.basis, s)}
    return {S: g for S in sorted(faces) if (g := _face_index(poly, S)) != 1}


@memoize
def _skeleton_coord_polys(poly: HPolytope, k: int) -> tuple[MultiPoly, tuple[MultiPoly, ...]]:
    """Lattice measure of the k-skeleton and its n coordinate moments in
    all N variables, once per polytope and k: the sum of g_S d_S V and
    g_S d_S m_c over the k-faces F_S (module docstring), the polytope
    itself being its one n-face, S empty."""
    D, V, coords = _integrate(poly, frozenset())
    tops = [dict(p.terms) for p in (V, *coords)]
    sums = [{} for _ in tops]
    for face in poly.faces_of_dimension(k):
        terms = tops
        for i in face.index_set:
            terms = [_derive(((i, 1),), p) for p in terms]
        g = _face_index(poly, sorted(face.index_set))
        for acc, t in zip(sums, terms):
            _add(acc, t, g)
    measure, *moments = (MultiPoly.from_dict(poly.n_facets, p) / D for p in sums)
    return measure, tuple(moments)


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


def _slice_coord_polys(poly: HPolytope) -> tuple[int, MultiPoly, tuple[MultiPoly, ...]]:
    """Volume and coordinate moments on the slice kappa_B = 0 (``_slice``)
    as integer polynomials over one denominator, once per polytope."""
    return _integrate(poly, _slice(poly)[0])


@memoize
def _slice_chain(poly: HPolytope) -> tuple[tuple[int, tuple[tuple[int, int], ...], tuple[int, ...]], ...]:
    """(B_p, mix, w_p) for each facet B_p through the first vertex, w_p
    being its edge there: on the slice, d times the derivative along B_p
    is sum_j x d/dkappa_j over mix = ((j, <eta_j, w_p>), ...), the facets j
    off B where that pairing is nonzero."""
    B = _slice(poly)[0]
    cone = _vertex_cones(poly)[0]
    return tuple(
        (f, tuple((j, x) for j, eta in enumerate(poly.conormals) if j not in B and (x := sum(map(mul, eta, w)))), w)
        for f, w in zip(cone.basis, cone.w)
    )


@memoize
def _slice_measures(poly: HPolytope) -> tuple[tuple[dict, ...], ...]:
    """R[j][i] = e_j(D without D_i) V' for j = 0..n-1 and every facet i on
    the slice of a smooth polytope, once per polytope, D_i the slice
    partial off B and the chain-rule mix at B (``_slice_chain``): one
    pass gives e_s (``_elementary``), and e_s = e_s(without i) + D_i
    e_{s-1}(without i) peels facet i off.  e_n must count the vertices,
    which checks that chain rule."""
    N, n = poly.n_facets, poly.dim
    D, V, _ = _slice_coord_polys(poly)
    ops = [((i, 1),) for i in range(N)]
    for f, mix, _ in _slice_chain(poly):
        ops[f] = mix
    R, first = _elementary(ops, dict(V.terms), n)
    if MultiPoly.from_dict(N, R[n]) != MultiPoly.constant(N, D * len(poly.vertices)):
        raise StructuralInconsistency("the 0-skeleton measure is the vertex count")
    rows = [(R[0],) * N]
    for s in range(1, n):
        rows.append(tuple(_add(dict(R[s]), f if s == 1 else _derive(op, r), -1) for op, r, f in zip(ops, rows[-1], first)))
    return tuple(rows)


class BaseValues(NamedTuple):
    """The k-skeleton measure and moments at the base kappa over den > 0;
    at k = n - 1 also each facet's first partials of V and m_c there."""

    den: int
    measure: int
    moments: tuple[int, ...]
    facets: tuple[tuple[int, ...], ...]


@memoize
def _cone_terms(poly: HPolytope) -> tuple[int, int, tuple]:
    """(scale, e, terms): the lcm of Q^2 d^2 over the cones, the support
    denominator and per cone (scale / (Q^2 d^2), lambda, e d Q, X = lambda
    u, Y = Q y for its vertex y / (d e), the cone), for every face size
    and the Lawrence pass (``_integrate``)."""
    e, K = _scaled_support(poly)
    cones = _vertex_cones(poly)
    scale = lcm(*(cone.Q**2 * cone.d**2 for cone in cones))
    terms = []
    for cone, vertex in zip(cones, poly.vertices):
        lam = sum(map(mul, cone.q, map(K.__getitem__, cone.basis)))
        terms.append((scale // (cone.Q**2 * cone.d**2), lam, e * cone.d * cone.Q, [lam * x for x in cone.u],
                      [cone.Q * y for y in poly._basic[vertex.basis][0]], cone))
    return scale, e, tuple(terms)


@memoize
def _base_values(poly: HPolytope, s: int) -> BaseValues:
    """The k-skeleton's base values, k = n - s, once per polytope and s:
    d_S of each vertex's Lawrence terms at kappa = K / e over the s-sets
    S of basis positions, weighted by g_S (module docstring).  With
    lambda = e d L_v and q_S = prod_{j in S} q_j, the Leibniz rule gives
    over den = lcm(Q^2 d^2) e^(k+1) (k+1)! the numerators q_S lambda^k
    (k+1) e d Q of the measure and q_S lambda^k (X_c + (k+1) Y_c -
    sum_{j in S} (lambda Q / q_j) w_{j,c}) of the moment (``_cone_terms``);
    summed over S, with E = sum_S g_S q_S and c_j its part over the S
    that hold j, the latter is E (X_c + (k+1) Y_c) - sum_j c_j (lambda Q
    / q_j) w_{j,c}."""
    N, n = poly.n_facets, poly.dim
    k = n - s
    scale, e, cones = _cone_terms(poly)
    g = _face_indices(poly) if s > 1 else {}
    measure, moments = 0, [0] * n
    facets = [[0] * (n + 1) for _ in range(N)] if s == 1 else []
    for sf, lam, v, X, Y, cone in cones:
        f = sf * lam**k
        top = [x + (k + 1) * y for x, y in zip(X, Y)]
        lq = [lam * (cone.Q // q) for q in cone.q] if s else ()
        if s == 1:
            for i, qi, x, w in zip(cone.basis, cone.q, lq, cone.w):
                fq, row = f * qi, facets[i]
                row[0] += fq * (k + 1) * v
                row[1:] = [r + fq * (t - x * a) for r, t, a in zip(row[1:], top, w)]
            continue
        E = 1
        if s:
            E, c = 0, [0] * n
            for S in combinations(range(n), s):
                qS = prod(map(cone.q.__getitem__, S)) * (g.get(tuple(cone.basis[j] for j in S), 1) if g else 1)
                E += qS
                for j in S:
                    c[j] += qS
            cx = [a * x for a, x in zip(c, lq)]
            top = [E * t - sum(map(mul, cx, wc)) for t, wc in zip(top, zip(*cone.w))]
        measure += f * E * (k + 1) * v
        moments = [m + f * t for m, t in zip(moments, top)]
    if s == 1:
        measure, *moments = [sum(col) for col in zip(*facets)]
    return BaseValues(scale * e ** (k + 1) * factorial(k + 1), measure, tuple(moments), tuple(map(tuple, facets)))


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
    """Exact volume at the base kappa, from the vertex pass."""
    at = _base_values(poly, 0)
    return Fraction(at.measure, at.den)


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


def skeleton_barycenter(poly: HPolytope, k: int) -> Vec:
    """Barycenter of the union of all k-faces, in the lattice measure:
    moments over measure from the vertex pass (``_base_values``)."""
    if type(k) is not int or not 0 <= k <= poly.dim:
        raise ValueError("skeleton dimension out of range")
    at = _base_values(poly, poly.dim - k)
    if at.measure == 0:
        raise PolytopeError("zero skeleton measure")
    return tuple(Fraction(m, at.measure) for m in at.moments)
