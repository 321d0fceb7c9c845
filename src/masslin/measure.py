"""Exact volumes, moments and skeleton barycenters.

In a chamber each vertex is linear in the support vector kappa, v(kappa)
= A_v^{-1} kappa_B for the conormals A_v of the facets B through v, so
all quantities below, with faces measured in their direction lattice,
are exact polynomials in kappa.

The volume and moments are a sum over vertex cones (Lawrence, Math.
Comp. 57, 1991; Brion 1988), with no triangulation, in integers.  With
d = |det A_v|, edge j at v leaves facet B_j along the integer vector w_j
= -d A_v^{-1} e_j.  Construction already has both, as a determinant and
signed cofactor vectors of its minor rows (``polytope._subsets``), and
keeps them per vertex; no vertex system is solved here, and the pass
reads that vertex table (``HPolytope._basic``) alone, never the face
lattice.  One deterministic xi, checked to pair nonzero with every edge,
gives q_j = -<xi, w_j> and L_v = <xi, v(kappa)> = sum_j q_j kappa_{B_j}
/ d.  The edges at v span a lattice of index d^(n-1) in Z^n, so with Q =
prod_j q_j:

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

g_S being the index of the lattice of the rows eta_S in its saturation,
the gcd of their maximal minors (1 on every face of a smooth polytope),
and d_S V = 0 when the facets S do not meet.  So the k-skeleton measure
P_k = sum_{|S| = n-k} g_S d_S V is the elementary symmetric polynomial
e_{n-k} of the partials applied to V, plus a correction on the faces
where g_S != 1; one pass over the facets forms every e_j
(``_lower_skeleta``).

Translating the polytope by xi adds <eta_i, xi> to kappa_i.  The
measures do not move and the moment of <H, x> moves by <H, xi> times the
measure, so every question that compares them is settled on the slice
kappa_B = 0, B being the facets through the first vertex v0: A_B is
invertible, so each kappa is a translate of exactly one point of it.
``_slice_coord_polys`` gives the skeleton polynomials there, once per
polytope, in the N - n variables off B.  At k = n they come from the
vertex cones, with the terms of L_v in kappa_B dropped before the
multinomial expansion (``_integrate``).  Below n they are derivatives of
those by the chain rule through the translation that keeps kappa on the
slice: off B, d/dkappa_j is the slice partial; at the facet B_p, whose
edge at v0 is w_p, it is D_{B_p} = sum_{j not in B} (<eta_j, w_p> / d)
d/dkappa_j (``_slice_chain``); and as the translation moves m_c by xi_c
V, each B_p in S adds a term to the moments:

    m'_{k,c} = sum_S g_S [D_S m'_c - sum_{B_p in S} (w_{p,c} / d) D_{S - B_p} V'].

The integer polynomials of each k share one denominator, which cancels
from every identity and ratio formed of them.  Their values at the slice
point of the polytope, with every first partial, are integers over one
power of its denominator (``_slice_values``), once per polytope and k;
skeleton barycenters are those values moved back by the first vertex.
The polynomials in all N variables come from ``_skeleton_coord_polys``,
by plain partials.  Only ``volume_poly`` is public; ``moment_poly``,
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


@memoize
def _integrate(poly: HPolytope, drop: frozenset[int]) -> tuple[int, MultiPoly, tuple[MultiPoly, ...]]:
    """Volume and coordinate moments from the vertex cones, restricted to
    kappa_i = 0 for the facets i in drop, as (D, D V, D moments) with
    integer coefficients, D the lcm of Q^2 d^2 over the vertices times
    (n+1)!; once per polytope and drop.

    A vertex adds (d L_v)^n / (Q d n!) = (n+1) Q d (d L_v)^n / (Q^2 d^2
    (n+1)!) to the volume.  As v_c(kappa) = -sum_j w_{j,c} kappa_{basis[j]}
    / d, the coefficient of kappa^alpha in its moment is that of
    (d L_v)^(n+1) / (Q^2 d^2 (n+1)!) times sum_j (1 - alpha_j) w_{j,c}
    Q / q_j.  Dropped variables leave L_v before the expansion, so only
    the terms of the restriction are formed.
    """
    N, n = poly.n_facets, poly.dim
    cones = _vertex_cones(poly)
    den = lcm(*(prod(cone.q) ** 2 * cone.d**2 for cone in cones))
    measure, coords = {}, [{} for _ in range(n)]
    for cone in cones:
        Q = prod(cone.q)
        scale = den // (Q * Q * cone.d**2)
        f = scale * Q * cone.d * (n + 1)
        for mono, _, p in _powers(N, cone, n, drop):
            measure[mono] = measure.get(mono, 0) + f * p
        b = [(Q // q) * e[c] for e, q in zip(cone.w, cone.q) for c in range(n)]
        s = [sum(b[j * n + c] for j in range(n)) for c in range(n)]
        for mono, alpha, p in _powers(N, cone, n + 1, drop):
            p *= scale
            alpha = [(j * n, a) for j, a in alpha if a]
            for c, dc in enumerate(coords):
                dc[mono] = dc.get(mono, 0) + p * (s[c] - sum(a * b[j + c] for j, a in alpha))
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


def _lower_skeleta(poly: HPolytope, top, ops, d: int, shift) -> tuple[tuple[int, MultiPoly, tuple[MultiPoly, ...]], ...]:
    """The k-skeleton measure and moments for k = 0..n-1 from the volume
    and moments top = (D, D V, D m) of ``_integrate``, as (D d^(n-k),
    measure, moments) with integer coefficients (module docstring).

    ops[i] = ((j, x), ...) is d times the derivative along facet i,
    sum_j x d/dkappa_j on the variables of top; shift holds (B_p, w_p)
    for each facet whose derivative adds the translation term, none in
    all N variables.  The pass R_s += ops[i] R_{s-1}, s = n..1, over the
    facets leaves e_s of the ops applied to each polynomial.  The sums
    over the S that hold B_p, in the translation term, are those of e_{s-1}
    without B_p, R^p_s = R_s - ops[B_p] R^p_{s-1}.  The faces with g_S
    != 1, subsets of a vertex basis with d != 1, add g_S - 1 times their
    own term."""
    N, n = poly.n_facets, poly.dim
    D, V, coords = top
    tops = [dict(V.terms), *(dict(c.terms) for c in coords)]
    R = [tops] + [[{} for _ in tops] for _ in range(n)]
    for op in ops:
        for s in range(n, 0, -1):
            for acc, p in zip(R[s], R[s - 1]):
                _add(acc, _derive(op, p))
    for f, w in shift:
        rest = tops[0]
        for s in range(1, n + 1):
            for c in range(n):
                _add(R[s][c + 1], rest, -w[c])
            rest = _add(dict(R[s][0]), _derive(ops[f], rest), -1)
    faces = {S for cone in _vertex_cones(poly) if cone.d != 1 for s in range(1, n + 1) for S in combinations(cone.basis, s)}
    for S in sorted(faces):
        if (g := _face_index(poly, S)) == 1:
            continue
        terms = tops
        for i in S:
            terms = [_derive(ops[i], p) for p in terms]
        for f, w in shift:
            if f in S:
                rest = tops[0]
                for i in S:
                    rest = rest if i == f else _derive(ops[i], rest)
                terms[1:] = [_add(t, rest, -w[c]) for c, t in enumerate(terms[1:])]
        for acc, t in zip(R[len(S)], terms):
            _add(acc, t, g - 1)
    return tuple(
        (D * d ** (n - k), MultiPoly.from_dict(N, R[n - k][0]), tuple(MultiPoly.from_dict(N, p) for p in R[n - k][1:]))
        for k in range(n)
    )


@memoize
def _full_skeleta(poly: HPolytope) -> tuple:
    """The k < n skeleton polynomials in all N variables, once per
    polytope: plain partials, with no translation term."""
    return _lower_skeleta(poly, _integrate(poly, frozenset()), [((i, 1),) for i in range(poly.n_facets)], 1, ())


@memoize
def _skeleton_coord_polys(poly: HPolytope, k: int) -> tuple[MultiPoly, tuple[MultiPoly, ...]]:
    """Lattice measure of the k-skeleton and its n coordinate moments in
    all N variables, once per polytope and k."""
    D, measure, coords = _integrate(poly, frozenset()) if k == poly.dim else _full_skeleta(poly)[k]
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
def _slice_skeleta(poly: HPolytope) -> tuple:
    """The k < n skeleton polynomials on the slice, once per polytope:
    the derivatives of the k = n ones by the chain rule, with the
    translation term."""
    d = _vertex_cones(poly)[0].d
    chain = _slice_chain(poly)
    ops = [((i, d),) for i in range(poly.n_facets)]
    for f, mix, _ in chain:
        ops[f] = mix
    top = _integrate(poly, _slice(poly)[0])
    return _lower_skeleta(poly, top, ops, d, [(f, w) for f, _, w in chain])


def _slice_coord_polys(poly: HPolytope, k: int) -> tuple[int, MultiPoly, tuple[MultiPoly, ...]]:
    """Lattice measure of the k-skeleton and its n coordinate moments on
    the slice kappa_B = 0 (``_slice``), as integer polynomials over one
    denominator: the pass behind every pair space and symmetric facet.
    k = n is integrated once per polytope, and the k < n polynomials are
    derived from it once, when a caller first needs one."""
    return _integrate(poly, _slice(poly)[0]) if k == poly.dim else _slice_skeleta(poly)[k]


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


def _value_gradient(p: MultiPoly, K: Sequence[int]) -> list[int]:
    """[p(K), *grad p(K)] for an integer polynomial p in the slice
    variables, in one pass over its terms.  Each slice variable is
    positive at K, the support number of a facet off the first vertex of
    a simple polytope, so a term v with exponent a > 0 in it adds a v /
    K_j to the partial."""
    row = [0] * (len(K) + 1)
    for m, c in p.terms:
        nz = [(j, a) for j, a in enumerate(m) if a]
        v = c * prod(K[j] ** a for j, a in nz)
        row[0] += v
        for j, a in nz:
            row[j + 1] += a * v // K[j]
    return row


@memoize
def _slice_values(poly: HPolytope, k: int) -> SliceValues:
    """The base values of the slice pass, once per polytope and k: the
    skeleton barycenter, and the value and gradient of every
    per-functional identity at the base kappa, in integers.  The slice
    polynomials (``_slice_coord_polys``) have integer coefficients and
    are homogeneous, of degree k for the measure and k + 1 for a moment,
    so at the slice point K / e the values and partials are integers over
    e^(k+1): e P(K) and e^2 dP(K) for the measure, m(K) and e dm(K) for a
    moment.  Dividing them by their gcd with e^(k+1) scales them as
    ``scaled`` does.  Moving back adds v0 to the barycenter."""
    if type(k) is not int or not 0 <= k <= poly.dim:
        raise ValueError("skeleton dimension out of range")
    e, (K,) = scaled([_slice(poly)[1]])
    _, measure, coords = _slice_coord_polys(poly, k)
    (V0, *dV0), *moments = [_value_gradient(p, K) for p in (measure, *coords)]
    rows = [[e * V0, *(e * e * x for x in dV0)], *([m0, *(e * x for x in dm)] for m0, *dm in moments)]
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
