"""Mass linearity of linear functionals on smooth polytopes.

The pairing of a functional H with the center of mass is a rational
function of the support vector kappa: moment over volume, both exact
polynomials on the chamber of the base polytope.  H is mass linear when
that pairing is linear in kappa, that is when the polynomial identity

    moment_H - (sum_i gamma_i kappa_i) * volume == 0

holds for some gamma; it is decided exactly.  The identity is linear in
the pair (H, gamma), so the pairs that satisfy it form a vector space,
``ml_space``.  The same holds for the skeleton identities
moment_k(H) == (gamma . kappa) * measure_k of full mass linearity: one
space of pairs per tuple of skeleton dimensions, memoized per polytope
with its reduced echelon form.  Those forms are the one source of every
chamber-wide verdict: H passes exactly when it lies in the span of the
H parts, gamma is then the same combination of the gamma parts (unique,
because the products kappa_i * measure_k are independent), and
otherwise the nonzero residual of H against that span is the witness.

The spaces are cut out on the slice kappa_B = 0 of the first vertex's
chart (``measure._slice``).  Translating by xi adds <eta_i, xi> to
kappa_i, moves moment_k by <H, xi> * measure_k and gamma . kappa by
<sum_i gamma_i eta_i, xi>, and leaves measure_k fixed.  So an identity
that holds in all N variables forces H == sum_i gamma_i eta_i, and an
identity on the slice together with that equation holds everywhere,
every kappa being a translate of a slice point.  Each pair space is the
kernel of the slice rows and those n rows.

Facets with zero coefficient are symmetric (moving them does not move
the pairing); the same notion is decided for non-mass-linear H by the
per-facet identity d(moment)/dk_i * V == moment * dV/dk_i, which is
translation invariant and so decided on the slice as well.  Negative
answers are witness-first: an identity whose two sides differ at the
base kappa fails, and that exact nonzero value is its certificate, so
only the identities that hold at the base kappa are expanded
symbolically.  Facet equivalence and generating vectors are exact
linear algebra on the integer conormals.  H is fitted in one place,
``_gamma``, and an inessential witness is that gamma when its sum over
every equivalence class vanishes (``_beta``), read off a report.

All elimination and integration is per polytope, memoized on it: the
slice pass (one vertex-cone integration at k = n, whose partials give
every lower skeleton), the pair spaces with their reduced echelon rows,
and the base values and barycenters, which are the slice polynomials
and their first partials evaluated in integers at the slice point
(``measure._slice_values``).  Each is kept as integers over one
denominator.  The work per functional is integer arithmetic: H is
scaled once to Hi / L, every sum and comparison runs on Hi against those
forms, equalities of quotients are cross-multiplied, and Fractions are
formed only for the values a report returns (gamma, which is also beta,
the pairings, xi).  The one polynomial it forms is
the moment mu_H of ``symmetric_facets``, whose products are expanded
only for facets whose base value vanishes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import PolytopeError, StructuralInconsistency
from .linalg import (
    IntVec,
    Vec,
    _echelon,
    _reduce,
    dot,
    int_nullspace,
    int_rank,
    int_rref,
    int_vec,
    integer_kernel_basis,
    scaled,
    vec,
    vec_sub,
)
from .measure import (
    _functional,
    _pairing,
    _slice,
    _slice_chain,
    _slice_coord_polys,
    _slice_values,
    _vertex_cones,
    volume_poly,  # unused here; perfbench's tracer test reads it from this module
)
from .poly import MultiPoly
from .polytope import Face, HPolytope, _scaled_support, memoize


def _require_smooth(poly: HPolytope) -> None:
    if not poly.is_smooth():
        raise PolytopeError("mass linearity analysis requires a smooth polytope")


@dataclass(frozen=True)
class MassLinearReport:
    """Outcome of the mass linearity decision for one (polytope, H) pair.

    gamma is defined only on a positive verdict; symmetric/asymmetric
    partition the facet indices either way.  pervasive and flat record,
    for each asymmetric facet, whether it meets every other facet and
    whether the conormals of the facets it meets span a hyperplane.
    """

    verdict: bool
    gamma: Vec | None
    symmetric: frozenset[int]
    asymmetric: frozenset[int]
    pervasive: dict[int, bool]
    flat: dict[int, bool]


@dataclass(frozen=True)
class EquivalenceClasses:
    """Partition of facet indices, in the order of each class's first
    facet.  complement_rank maps each class of m facets to the rank of
    the other conormals, n - m + 1: the class's codimension m - 1
    condition."""

    classes: tuple[frozenset[int], ...]
    complement_rank: dict[frozenset, int]

    def class_of(self, i: int) -> frozenset[int]:
        """The class holding facet i; KeyError if none does."""
        for cls in self.classes:
            if i in cls:
                return cls
        raise KeyError(i)


@dataclass(frozen=True)
class InessentialWitness:
    """The coefficients beta of an inessential H: H = sum_i beta_i eta_i
    and sum_{i in C} beta_i = 0 for every equivalence class C.  They are
    unique: the gamma of H's ``MassLinearReport``, read off by ``_beta``."""

    beta: Vec


@dataclass(frozen=True)
class Restriction:
    """A symmetric face presented as a full-dimensional polytope.

    chart rows form a lattice basis B of the face's direction space:
    points of the face are base_vertex + B^T y, the face's lattice
    measure is Lebesgue measure in y, and functional pairs with y
    through B H.  facet_origin[j] is the original facet cutting the
    j-th facet of the restricted polytope.
    """

    poly: HPolytope
    functional: Vec
    facet_origin: tuple[int, ...]
    base_vertex: Vec
    chart: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FullMassLinearReport:
    """Pairings <H, B_k> of H with the skeleton barycenters at the base
    kappa, their equality there (at_base), and chamber-wide equality for
    every k (verdict): H lies in the memoized space of pairs (H, gamma)
    with moment_k == (gamma . kappa) * measure_k for k = 0..n, where the
    k = 0 identity makes gamma . kappa the pairing with the vertex
    average.  A verdict never holds without at_base."""

    values: tuple[Fraction, ...]
    at_base: bool
    verdict: bool


def is_pervasive(poly: HPolytope, i: int) -> bool:
    """Does facet i meet every other facet?"""
    return i in _pervasive_facets(poly)


def _neighbours(poly: HPolytope) -> list[set[int]]:
    """The other facets that meet each facet: on a simple polytope two
    facets meet exactly when some vertex basis holds both."""
    meets = [set() for _ in range(poly.n_facets)]
    for v in poly.vertices:
        for i in v.basis:
            meets[i] |= v.basis
    return [m - {i} for i, m in enumerate(meets)]


@memoize
def _pervasive_facets(poly: HPolytope) -> frozenset[int]:
    """The facets that meet every other facet."""
    return frozenset(i for i, m in enumerate(_neighbours(poly)) if len(m) == poly.n_facets - 1)


def is_flat(poly: HPolytope, i: int) -> bool:
    """Do the conormals of the other facets meeting facet i lie in a
    hyperplane?"""
    return i in _flat_facets(poly)


@memoize
def _flat_facets(poly: HPolytope) -> frozenset[int]:
    """The facets whose neighbours' conormals lie in a hyperplane."""
    return frozenset(
        i for i, m in enumerate(_neighbours(poly)) if int_rank([poly.conormals[j] for j in sorted(m)]) <= poly.dim - 1
    )


def symmetric_facets(poly: HPolytope, H) -> tuple[frozenset[int], frozenset[int]]:
    """Partition facets into (symmetric, asymmetric) for H.

    Facet i is symmetric when the center-of-mass pairing does not depend
    on kappa_i: the exact identity F_i = d(mu)/dk_i * V - mu * dV/dk_i
    == 0.  Works whether or not H is mass linear.  F_i is translation
    invariant, so it is decided on the slice kappa_B = 0 from the slice
    polynomials mu' and V', over one denominator that scales every F_i
    alike.  Off B, d/dk_i is the slice partial.  At the facet B_p, the
    chain rule through the translation that keeps kappa on the slice
    (``measure._slice_chain``) gives dmu/dk_{B_p} = sum_j <eta_j, w_p>
    dmu'/dk_j - <H, w_p> V' and dV/dk_{B_p} = sum_j <eta_j, w_p>
    dV'/dk_j, w_p being the first vertex's edge that leaves B_p.
    Witness-first: F_i is evaluated at the slice point of the base
    polytope, where it takes its base value, and a nonzero value proves
    facet i asymmetric; only facets whose value is zero get the symbolic
    product.  F_i is homogeneous in H, so H is scaled to integers once,
    and the base values come in integers from ``_slice_values``.
    """
    _require_smooth(poly)
    n, N = poly.dim, poly.n_facets
    _, Hi = _integral(poly, H)
    _, vol, coords = _slice_coord_polys(poly, n)
    mu = _pairing(poly, coords, Hi)
    edges = [(i, mix, sum(map(mul, Hi, w))) for i, mix, w in _slice_chain(poly)]

    def on_basis(dmu: list, dvol: list, vol) -> tuple[list, list]:
        """Fill in the partials at B from those off B; vol is V' or its
        value, and 0 * vol the zero of the same kind."""
        for i, mix, h in edges:
            dmu[i] = sum((x * dmu[j] for j, x in mix), -h * vol)
            dvol[i] = sum((x * dvol[j] for j, x in mix), 0 * vol)
        return dmu, dvol

    at = _slice_values(poly, n)
    mu0 = sum(map(mul, Hi, at.moments))
    vol0 = at.measure
    dmu0 = [sum(h * grad[j] for h, grad in zip(Hi, at.moment_grads)) for j in range(N)]
    dmu0, dvol0 = on_basis(dmu0, list(at.measure_grad), vol0)
    sym = set()
    partials = None
    for i in range(N):
        if dmu0[i] * vol0 != mu0 * dvol0[i]:
            continue
        if partials is None:
            partials = on_basis([mu.partial(j) for j in range(N)], [vol.partial(j) for j in range(N)], vol)
        dmu, dvol = partials
        if (dmu[i] * vol - mu * dvol[i]).is_zero():
            sym.add(i)
    return frozenset(sym), frozenset(range(N)) - sym


def mass_linear_test(poly: HPolytope, H) -> MassLinearReport:
    """Decide whether the center-of-mass pairing of H is linear in kappa:
    gamma is the one fit ``_gamma``, its zero entries the symmetric
    facets, which ``symmetric_facets`` decides when there is no gamma."""
    gamma = _gamma(poly, H)
    if gamma is None:
        sym, asym = symmetric_facets(poly, H)
    else:
        sym = frozenset(i for i, g in enumerate(gamma) if g == 0)
        asym = frozenset(range(poly.n_facets)) - sym
    pervasive = {i: is_pervasive(poly, i) for i in sorted(asym)}
    flat = {i: is_flat(poly, i) for i in sorted(asym)}
    return MassLinearReport(gamma is not None, gamma, sym, asym, pervasive, flat)


def _gamma(poly: HPolytope, H) -> Vec | None:
    """gamma with mu_H == (gamma . kappa) V, or None, read off the memoized
    reduced echelon form of ``ml_space`` (``_fit``).  With H = Hi / L and
    gamma = G / (L D), the checks of gamma run on the integers Hi and G,
    here for every caller."""
    _require_smooth(poly)
    L, Hi = _integral(poly, H)
    fit = _fit(poly, Hi, (poly.dim,))
    if fit is None:
        return None
    D, G = fit
    if sum(G) != 0:
        raise StructuralInconsistency("coefficient sum must vanish")
    # <H, center of mass> == gamma . kappa at the base kappa, the
    # numerators cross-multiplied with those of K / e, L cancelling
    ((a, q),) = _center_pairings(poly, Hi, (poly.dim,))
    e, K = _scaled_support(poly)
    if a * D * e != sum(map(mul, G, K)) * q:
        raise StructuralInconsistency("no constant term allowed")
    if any(sum(g * eta[c] for g, eta in zip(G, poly.conormals)) != h * D for c, h in enumerate(Hi)):
        raise StructuralInconsistency("H must equal sum of gamma_i times conormals")
    return tuple(Fraction(g, L * D) for g in G)


def _integral(poly: HPolytope, H) -> tuple[int, IntVec]:
    """(L, L H) for the lcm L of the denominators of H, which must have
    n entries: the functional on integers, formed once per call."""
    L, (Hi,) = scaled([_functional(poly, H)])
    return L, tuple(Hi)


@memoize
def equivalence_classes(poly: HPolytope) -> EquivalenceClasses:
    """Facet equivalence classes, read off the linear relations of the
    conormals (Gale duality), in the order of their first facet.

    Facets i and j are equivalent when the other conormals span a
    hyperplane containing eta_i + eta_j.  The relations
    sum_k lambda_k eta_k = 0 form a space of dimension N - n; with g_k
    the k-th entries of a basis of it, they are lambda_k = <g_k, t>.

    - The relations vanishing at i and j have dimension
      N - n - rank(g_i, g_j), so the other conormals have rank
      n - 2 + rank(g_i, g_j): n - 1 exactly when that rank is 1.
    - eta_i + eta_j lies in their span exactly when some relation has
      lambda_i = lambda_j = 1.
    - So i ~ j exactly when g_i = g_j != 0.  A bounded polytope has a
      relation with every lambda_k > 0, so no g_k is zero, and the
      classes are the groups of equal g_k: the relation is transitive.
    - A class of m facets shares one nonzero g, so the relations
      vanishing on it have dimension N - n - 1 and its complement has
      rank n - m + 1, the codimension m - 1 condition.  That rank is
      computed per class as the certificate ``complement_rank``.
    - A combination sum_{i in cls} c_i eta_i that lies in the complement
      span is a relation, so every c_i equals <g, t>: only balanced
      combinations land there.
    """
    _require_smooth(poly)
    n = poly.dim
    groups: dict[tuple[int, ...], list[int]] = {}
    relations = integer_kernel_basis(list(zip(*poly.conormals)), poly.n_facets)
    for i, g in enumerate(zip(*relations)):
        groups.setdefault(g, []).append(i)
    classes = tuple(frozenset(members) for members in groups.values())
    complement_rank: dict[frozenset, int] = {}
    for cls in classes:
        r = int_rank([eta for k, eta in enumerate(poly.conormals) if k not in cls])
        if r != n - len(cls) + 1:
            raise StructuralInconsistency(
                f"facet class {sorted(cls)} fails the codimension condition"
            )
        complement_rank[cls] = r
    return EquivalenceClasses(classes, complement_rank)


def _row_basis(rows) -> list[int]:
    """Indices of the first maximal independent subset of integer rows:
    the pivot columns of the matrix that has them as its columns."""
    return _echelon([list(col) for col in zip(*rows)], len(rows))[0]


def is_inessential(poly: HPolytope, H) -> InessentialWitness | None:
    """A witness beta with H = sum beta_i eta_i and zero sum over every
    equivalence class, or None: for H essential and for H not mass linear.

    By Part I such a beta makes H mass linear with pairing
    sum beta_i kappa_i, so beta = gamma; and a gamma with zero class sums
    is a beta, as H = sum gamma_i eta_i.  So beta is the gamma of
    ``mass_linear_test`` (``_gamma``), when its class sums vanish
    (``_beta``).  It is unique: a relation lambda_k = <g_k, t> of the
    conormals (``equivalence_classes``) with zero class sums has
    <g_k, t> = 0 for every k, and the g_k span R^(N - n), so t = 0."""
    return _beta(poly, _gamma(poly, H))


def _beta(poly: HPolytope, gamma: Vec | None) -> InessentialWitness | None:
    """The inessential witness of a report's gamma: gamma itself when its
    sum over every equivalence class vanishes, else None."""
    if gamma is None or any(sum(gamma[i] for i in cls) for cls in equivalence_classes(poly).classes):
        return None
    return InessentialWitness(gamma)


def _resolve_face(poly: HPolytope, face) -> Face:
    """A Face as given, or the face cut out by a facet index set;
    raises PolytopeError when that face is empty."""
    if isinstance(face, Face):
        return face
    found = poly.face(frozenset(face))
    if found is None:
        raise PolytopeError("empty face")
    return found


@memoize
def direction_lattice_basis(poly: HPolytope, face: Face) -> tuple[tuple[int, ...], ...]:
    """Integer lattice basis of the face's direction space, which its
    conormals alone cut out, the same for every kappa in the chamber:
    the one chart of the face, once per polytope and face."""
    rows = [poly.conormals[i] for i in sorted(face.index_set)]
    if not rows:
        return tuple(tuple(1 if i == j else 0 for i in range(poly.dim)) for j in range(poly.dim))
    B = integer_kernel_basis(rows, poly.dim)
    if len(B) != face.dimension:
        raise StructuralInconsistency("direction space dimension mismatch")
    return tuple(map(tuple, B))


def _face_slice(poly: HPolytope, face) -> tuple[HPolytope, tuple[int, ...]]:
    """A face as a full-dimensional polytope in a chart of its direction
    lattice, plus the input facet cutting each slice facet.

    The chart is x = v0 + B^T y, with v0 the face's first vertex and B
    from ``direction_lattice_basis``, the library's one face chart, which
    ``restrict_to_face`` also reports.  face is a Face or a facet index
    set naming the face it cuts out; an empty face raises PolytopeError,
    and a slice that is not smooth raises StructuralInconsistency."""
    face = _resolve_face(poly, face)
    B = direction_lattice_basis(poly, face)
    v0 = poly.vertices[face.vertex_ids[0]].point
    conormals, support, origins, labels = [], [], [], []
    for j in range(poly.n_facets):
        if j in face.index_set or poly.face(face.index_set | {j}) is None:
            continue
        eta = poly.conormals[j]
        conormals.append(int_vec(tuple(dot(b, eta) for b in B)))
        support.append(poly.support[j] - dot(eta, v0))
        origins.append(j)
        labels.append(poly.labels[j])
    out = HPolytope(face.dimension, tuple(conormals), tuple(support), tuple(labels))
    if not out.is_smooth():
        raise StructuralInconsistency("a face of a smooth polytope must be smooth")
    return out, tuple(origins)


def restrict_to_face(poly: HPolytope, H, face) -> Restriction:
    """Present a symmetric face as a smooth polytope in chart coordinates
    of its direction lattice and restrict H to it.

    Every facet in the face's canonical index set must be H-symmetric.
    """
    face = _resolve_face(poly, face)
    if face.dimension < 1:
        raise PolytopeError("cannot restrict to a vertex")
    if face.dimension == poly.dim:
        raise PolytopeError("not a proper face")
    Hv = vec(H)
    sym, _ = symmetric_facets(poly, Hv)
    if not face.index_set <= sym:
        raise PolytopeError("face is not symmetric for this functional")
    restricted, origins = _face_slice(poly, face)
    B = direction_lattice_basis(poly, face)
    functional = tuple(dot(vec(b), Hv) for b in B)
    return Restriction(restricted, functional, origins, poly.vertices[face.vertex_ids[0]].point, B)


def generating_vector(
    poly: HPolytope, H, report: MassLinearReport | None = None
) -> Vec | None:
    """The vector xi with <eta_i, xi> = gamma_i for every facet, if any.

    Exists only for mass linear H (returns None otherwise, and None when
    the overdetermined system has no solution).  The conormals at the
    first vertex form an invertible A_v, so the only candidate is
    xi = A_v^{-1} gamma_B = -sum_j gamma_{B_j} w_j / d on the first
    vertex cone (``VertexCone``); every equation is then checked, in
    integers: with gamma = G / L, the numerators X = -sum_j G_{B_j} w_j
    of xi = X / (L d) must give <eta_i, X> == G_i d.
    """
    if report is None:
        report = mass_linear_test(poly, H)
    if not report.verdict:
        return None
    cone = _vertex_cones(poly)[0]
    L, (G,) = scaled([report.gamma])
    X = [-sum(G[f] * e[c] for f, e in zip(cone.basis, cone.w)) for c in range(poly.dim)]
    if any(sum(map(mul, eta, X)) != g * cone.d for eta, g in zip(poly.conormals, G)):
        return None
    return tuple(Fraction(x, L * cone.d) for x in X)


def fully_mass_linear_test(poly: HPolytope, H) -> FullMassLinearReport:
    """Pair H with the barycenters of all k-skeletons.

    values are exact pairings at the base kappa.  The verdict is the fit
    of H into the memoized space of pairs (H, gamma) with
    m_k == (gamma . kappa) * P_k for every k = 0..n, P_k and m_k being
    the measure and moment of the k-skeleton, solved inside ``ml_space``
    as the part of it that the k < n identities cut out (``_pair_space``);
    the k = 0 identity makes gamma . kappa the pairing with the vertex
    average.  Unequal values are the witness of a negative verdict.
    """
    _require_smooth(poly)
    L, Hi = _integral(poly, H)
    dims = tuple(range(poly.dim + 1))
    pairings = _center_pairings(poly, Hi, dims)
    values = tuple(Fraction(a, L * q) for a, q in pairings)
    return FullMassLinearReport(values, *_agree(poly, Hi, dims, pairings))


def _center_pairings(poly: HPolytope, Hi: IntVec, dims) -> list[tuple[int, int]]:
    """L <H, B_k> for each k in dims, as an integer numerator over the
    barycenter's positive denominator (``_slice_values``)."""
    return [(sum(map(mul, Hi, at.center)), at.center_den) for at in (_slice_values(poly, k) for k in dims)]


def _agree(poly: HPolytope, Hi: IntVec, dims: tuple[int, ...], pairings) -> tuple[bool, bool]:
    """(at_base, fits): are the pairings equal at the base kappa, compared
    by cross-multiplication, and does H fit the pair space of dims?
    Pairings equal chamber-wide are equal at the base kappa, so a fit
    must come with at_base."""
    a0, q0 = pairings[0]
    at_base = all(a * q0 == a0 * q for a, q in pairings)
    fits = _fit(poly, Hi, dims) is not None
    if fits and not at_base:
        raise StructuralInconsistency("pairings equal chamber-wide agree at the base kappa")
    return at_base, fits


def _fit(poly: HPolytope, Hi: IntVec, dims: tuple[int, ...]) -> tuple[int, IntVec] | None:
    """(D, G) with (H, G / (L D)) in the pair space of dims, for
    H = Hi / L, or None.

    The reduced echelon rows R_p of that space, one per pivot column p
    of the H part, give the combination sum_p H[p] * R_p, whose H part
    equals H exactly when H lies in the space; its gamma part is then
    gamma.  On the integer rows D R_p (``_space_echelon``) the test is
    sum_p Hi[p] D R_p[c] == Hi[c] D, and G is the gamma part of the same
    sum."""
    D, rows = _space_echelon(poly, dims)

    def fit(c: int) -> int:
        return sum(Hi[p] * row[c] for p, row in rows)

    if any(fit(c) != h * D for c, h in enumerate(Hi)):
        return None
    n = poly.dim
    return D, tuple(fit(c) for c in range(n, n + poly.n_facets))


def _identity_rows(poly: HPolytope, k: int) -> list[list[int]]:
    """The integer system of m_k(H) == (gamma . kappa) * P_k on the slice
    kappa_B = 0 in the unknowns (H, gamma), one row per monomial in the
    N - n slice variables: column c < n holds the coefficients of int x_c
    over the k-skeleton, column n + i those of -kappa_i * P_k (zero for i
    in B), as the slice pass's integer numerators over one denominator.
    The k = 0 rows guard that P_0 is the vertex count and every vertex
    moment is linear in kappa, as every vertex is.  The k < n slice
    polynomials are partials of the k = n ones (``measure._lower_skeleta``),
    so on every full check the measure guard also checks that
    derivation's chain rule, whose e_n must count the vertices."""
    n, N = poly.dim, poly.n_facets
    D, measure, coords = _slice_coord_polys(poly, k)
    if k == 0:
        if measure != MultiPoly.constant(N, D * len(poly.vertices)):
            raise StructuralInconsistency("the 0-skeleton measure is the vertex count")
        if any(sum(m) != 1 for c in coords for m, _ in c.terms):
            raise StructuralInconsistency("the vertex moment is linear in kappa")
    B = _slice(poly)[0]
    rows: dict[tuple[int, ...], list[int]] = defaultdict(lambda: [0] * (n + N))
    for c, coord in enumerate(coords):
        for m, x in coord.terms:
            rows[m][c] = x
    for m, x in measure.terms:
        for i in range(N):
            if i not in B:
                rows[m[:i] + (m[i] + 1,) + m[i + 1 :]][n + i] = -x
    return list(rows.values())


@memoize
def _pair_space(poly: HPolytope, dims: tuple[int, ...]) -> tuple[tuple[Vec, Vec], ...]:
    """Basis of the pairs (H, gamma) with m_k(H) == (gamma . kappa) * P_k
    for every k in dims, in the reduced-echelon kernel convention (one
    vector per free column, 1 there and 0 in the other free columns).
    For one k it is the kernel of its slice rows (``_identity_rows``)
    and the n rows of H == sum_i gamma_i eta_i, which together cut out
    the identity in all N variables.  Several are solved inside the
    memoized space of top = max(dims), with basis z_1..z_r (for top = n,
    that of ``ml_space``): the space of dims is the intersection of the
    spaces of its k, each of which satisfies H == sum_i gamma_i eta_i,
    so it is the part of top's space that the other k's rows cut out,
    the sums sum_j t_j z_j with t in the kernel of those rows times Z.
    The z_j are independent, so these sums are a basis.  A convention
    vector is 0 past its free column, so the convention's basis is their
    reduced form with the columns reversed, in reverse order."""
    n, N = poly.dim, poly.n_facets
    top = max(dims)
    if set(dims) == {top}:
        system = _identity_rows(poly, top)
        system += [[int(c == r) for c in range(n)] + [-eta[r] for eta in poly.conormals] for r in range(n)]
        return tuple((z[:n], z[n:]) for z in int_nullspace(system, n + N))
    others = [row for k in sorted(set(dims) - {top}) for row in _identity_rows(poly, k)]
    Z = scaled([H + gamma for H, gamma in _pair_space(poly, (top,))])[1]
    T = scaled(int_nullspace([[sum(map(mul, row, z)) for z in Z] for row in others], len(Z)))[1]
    R, _ = int_rref([[sum(t * z[c] for t, z in zip(ts, Z)) for c in reversed(range(n + N))] for ts in T])
    return tuple((x[::-1][:n], x[::-1][n:]) for x in reversed(R))


def ml_space(poly: HPolytope) -> tuple[tuple[Vec, Vec], ...]:
    """Basis of all pairs (H, gamma) with mu_H == (sum gamma_i kappa_i) V.

    The defining identity is linear in the unknowns (H, gamma), so the
    mass linear functionals on a fixed polytope form a vector space; the
    returned H parts are a basis of it.  It is the pair space of the
    n-skeleton alone, memoized per polytope; the pair spaces of several
    skeleton dimensions are solved inside it (``_pair_space``)."""
    _require_smooth(poly)
    return _pair_space(poly, (poly.dim,))


@memoize
def _space_echelon(poly: HPolytope, dims: tuple[int, ...]) -> tuple[int, tuple[tuple[int, IntVec], ...]]:
    """D and the integer rows D R of the reduced echelon form R of the
    basis rows (H | gamma) of ``_pair_space`` for dims (for several
    dims solved inside the space of the largest), each with its pivot
    column.  Every pivot lies in the H columns, since gamma is
    determined by H.  Scaling the basis rows to integers leaves their
    reduced form unchanged, and ``_reduce`` gives D R with D its last
    pivot; the basis rows are independent, so every row is a pivot
    row."""
    n = poly.dim
    rows = scaled([H + gamma for H, gamma in _pair_space(poly, dims)])[1]
    pivots, _ = _echelon(rows, n + poly.n_facets)
    if any(p >= n for p in pivots):
        raise StructuralInconsistency("the products kappa_i * P_k are independent")
    D = _reduce(rows, pivots)
    return D, tuple((p, tuple(row)) for p, row in zip(pivots, rows))


def inessential_space(poly: HPolytope) -> tuple[Vec, ...]:
    """Basis of the inessential functionals: differences of conormals
    within an equivalence class span them."""
    eq = equivalence_classes(poly)
    gens = []
    for cls in eq.classes:
        members = sorted(cls)
        for i in members[1:]:
            gens.append(vec_sub(vec(poly.conormals[i]), vec(poly.conormals[members[0]])))
    basis_idx = _row_basis([int_vec(g) for g in gens])
    return tuple(gens[i] for i in basis_idx)
