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
symbolically.  Facet equivalence, inessential witnesses and generating
vectors are exact linear algebra on the integer conormals, read through
per-polytope reductions, so a functional on a known polytope costs no
elimination and no polynomial product.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import PolytopeError, StructuralInconsistency
from .linalg import (
    Vec,
    _echelon,
    dot,
    int_nullspace,
    int_rank,
    int_rref,
    int_vec,
    integer_kernel_basis,
    scaled,
    vec,
    vec_sub,
    zero_vec,
)
from .measure import (
    _functional,
    _pairing,
    _slice,
    _slice_coord_polys,
    _vertex_cones,
    direction_lattice_basis,
    skeleton_barycenter,
    volume_poly,  # unused here; perfbench's tracer test reads it from this module
)
from .poly import MultiPoly
from .polytope import Face, HPolytope, memoize


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
    """Partition of facet indices; complement_rank certifies each class
    of size m against the codimension m-1 condition."""

    classes: tuple[frozenset[int], ...]
    complement_rank: dict[frozenset, int]

    def class_of(self, i: int) -> frozenset[int]:
        for cls in self.classes:
            if i in cls:
                return cls
        raise KeyError(i)


@dataclass(frozen=True)
class InessentialWitness:
    beta: Vec


@dataclass(frozen=True)
class Reduction:
    """H = h_tilde + h_prime with h_prime inessential and h_tilde
    symmetric on all but the last facet of the reduced class."""

    h_prime: Vec
    h_tilde: Vec
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
    return all(
        poly.face(frozenset({i, j})) is not None
        for j in range(poly.n_facets)
        if j != i
    )


def is_flat(poly: HPolytope, i: int) -> bool:
    """Do the conormals of the other facets meeting facet i lie in a
    hyperplane?"""
    return i in _flat_facets(poly)


@memoize
def _flat_facets(poly: HPolytope) -> frozenset[int]:
    """The facets whose neighbours' conormals lie in a hyperplane."""
    flat = set()
    for i in range(poly.n_facets):
        rows = [
            poly.conormals[j]
            for j in range(poly.n_facets)
            if j != i and poly.face(frozenset({i, j})) is not None
        ]
        if int_rank(rows) <= poly.dim - 1:
            flat.add(i)
    return frozenset(flat)


def symmetric_facets(poly: HPolytope, H) -> tuple[frozenset[int], frozenset[int]]:
    """Partition facets into (symmetric, asymmetric) for H.

    Facet i is symmetric when the center-of-mass pairing does not depend
    on kappa_i: the exact identity F_i = d(mu)/dk_i * V - mu * dV/dk_i
    == 0.  Works whether or not H is mass linear.  F_i is translation
    invariant, so it is decided on the slice kappa_B = 0 from the slice
    polynomials mu' and V'.  Off B, d/dk_i is the slice partial.  At the
    facet B_p, the chain rule through the translation that keeps kappa
    on the slice gives dmu/dk_{B_p} = sum_j <eta_j, w_p> dmu'/dk_j
    - <H, w_p> V' and dV/dk_{B_p} = sum_j <eta_j, w_p> dV'/dk_j, w_p
    being the first vertex's edge that leaves B_p.  Witness-first: F_i
    is evaluated at the slice point of the base polytope, where it takes
    its base value, and a nonzero value proves facet i asymmetric; only
    facets whose value is zero get the symbolic product.
    """
    _require_smooth(poly)
    Hv = vec(H)
    n, N = poly.dim, poly.n_facets
    B, base = _slice(poly)
    vol, coords = _slice_coord_polys(poly, n)
    mu = _pairing(poly, coords, Hv)
    cone = _vertex_cones(poly)[0]
    edges = [
        (i, [(j, x) for j in range(N) if j not in B and (x := dot(poly.conormals[j], w))], dot(Hv, w))
        for i, w in zip(cone.basis, cone.w)
    ]

    def on_basis(dmu: list, dvol: list, vol) -> tuple[list, list]:
        """Fill in the partials at B from those off B; vol is V' or its
        value, and 0 * vol the zero of the same kind."""
        for i, mix, h in edges:
            dmu[i] = sum((x * dmu[j] for j, x in mix), -h * vol)
            dvol[i] = sum((x * dvol[j] for j, x in mix), 0 * vol)
        return dmu, dvol

    mu0, dmu0 = mu.eval_gradient(base)
    vol0, dvol0 = vol.eval_gradient(base)
    dmu0, dvol0 = on_basis(list(dmu0), list(dvol0), vol0)
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
    """Decide whether the center-of-mass pairing of H is linear in kappa.

    The verdict comes from exact algebra, read off the memoized reduced
    echelon form of ``ml_space``: its rows R_p, one per pivot column p of
    the H part, give the combination sum_p H[p] * R_p, whose H part
    equals H exactly when H is mass linear; its gamma part is then
    gamma, and otherwise the nonzero difference is the witness.
    """
    _require_smooth(poly)
    Hv = _functional(poly, H)
    n = poly.dim
    N = poly.n_facets
    base = poly.support
    gamma_t = _fit(poly, Hv, (n,))

    if gamma_t is not None:
        if sum(gamma_t, Fraction(0)) != 0:
            raise StructuralInconsistency("coefficient sum must vanish")
        if dot(Hv, skeleton_barycenter(poly, n)) != dot(gamma_t, base):
            raise StructuralInconsistency("no constant term allowed")
        recon = zero_vec(n)
        for g, eta in zip(gamma_t, poly.conormals):
            recon = tuple(r + g * e for r, e in zip(recon, eta))
        if recon != Hv:
            raise StructuralInconsistency("H must equal sum of gamma_i times conormals")
        sym = frozenset(i for i, g in enumerate(gamma_t) if g == 0)
        asym = frozenset(range(N)) - sym
    else:
        sym, asym = symmetric_facets(poly, Hv)

    pervasive = {i: is_pervasive(poly, i) for i in sorted(asym)}
    flat = {i: is_flat(poly, i) for i in sorted(asym)}
    return MassLinearReport(gamma_t is not None, gamma_t, sym, asym, pervasive, flat)


@memoize
def equivalence_classes(poly: HPolytope) -> EquivalenceClasses:
    """Facet equivalence classes.

    Two facets are equivalent when the remaining conormals span a
    hyperplane containing the sum of the two.  Classes are connected
    components of the pairwise relation; each multi-facet class is then
    re-verified against the full condition (complement spans codimension
    m-1, and only balanced combinations of the class conormals land in
    the complement span).
    """
    _require_smooth(poly)
    n = poly.dim
    N = poly.n_facets
    parent = list(range(N))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(N):
        for j in range(i + 1, N):
            others = [poly.conormals[k] for k in range(N) if k not in (i, j)]
            if int_rank(others) != n - 1:
                continue
            pair_sum = tuple(
                a + b for a, b in zip(poly.conormals[i], poly.conormals[j])
            )
            if int_rank(others + [pair_sum]) == n - 1:
                parent[find(i)] = find(j)

    groups: dict[int, set[int]] = {}
    for i in range(N):
        groups.setdefault(find(i), set()).add(i)
    classes = tuple(
        sorted((frozenset(g) for g in groups.values()), key=lambda s: min(s))
    )

    complement_rank: dict[frozenset, int] = {}
    for cls in classes:
        members = sorted(cls)
        complement = [poly.conormals[k] for k in range(N) if k not in cls]
        r = int_rank(complement)
        complement_rank[cls] = r
        if r != n - (len(cls) - 1):
            raise StructuralInconsistency(
                f"facet class {members} fails the codimension condition"
            )
        if len(cls) < 2:
            continue
        # combinations sum_{i in cls} c_i eta_i landing in the complement
        # span must have all c_i equal
        comp_basis = [complement[p] for p in _row_basis(complement)]
        m = len(members)
        cols = m + len(comp_basis)
        rows = []
        for r_ in range(n):
            row = [poly.conormals[i][r_] for i in members]
            row += [-w[r_] for w in comp_basis]
            rows.append(tuple(row))
        c_parts = [z[:m] for z in integer_kernel_basis(rows, cols)]
        if int_rank(c_parts) != 1 or int_rank(c_parts + [(1,) * m]) != 1:
            raise StructuralInconsistency(
                f"facet class {members} admits an unbalanced combination"
            )
    return EquivalenceClasses(classes, complement_rank)


def _row_basis(rows) -> list[int]:
    """Indices of the first maximal independent subset of integer rows:
    the pivot columns of the matrix that has them as its columns."""
    return _echelon([list(col) for col in zip(*rows)], len(rows))[0]


@memoize
def _inessential_echelon(poly: HPolytope) -> tuple[tuple[int, ...], tuple[Vec, ...]]:
    """Pivot columns and transform E of the reduced form [R | E] of
    [A | I], A being the system of ``is_inessential``: the n coordinate
    rows of the conormals, then one indicator row per equivalence class.

    E A = R, so A beta = b is solvable exactly when the rows of E b past
    the rank vanish, and then the reduced echelon solution has E b's
    first rows in the pivot columns and zero elsewhere: E is not unique,
    but those images of a solvable b are.  ``int_rref`` reduces the
    integer [A | I]."""
    N = poly.n_facets
    rows = [tuple(eta[r] for eta in poly.conormals) for r in range(poly.dim)]
    rows += [tuple(int(i in cls) for i in range(N)) for cls in equivalence_classes(poly).classes]
    m = len(rows)
    R, pivots = int_rref([row + tuple(int(i == j) for j in range(m)) for i, row in enumerate(rows)], N)
    return pivots, tuple(row[N:] for row in R)


def is_inessential(poly: HPolytope, H) -> InessentialWitness | None:
    """A witness beta with H = sum beta_i eta_i and zero sum over every
    equivalence class, or None when H is essential.  beta is the reduced
    echelon solution, read through ``_inessential_echelon``."""
    _require_smooth(poly)
    Hv = _functional(poly, H)
    pivots, E = _inessential_echelon(poly)

    def image(row: Vec) -> Fraction:
        return sum((e * h for e, h in zip(row, Hv)), Fraction(0))

    if any(image(row) for row in E[len(pivots) :]):
        return None
    beta = [Fraction(0)] * poly.n_facets
    for p, row in zip(pivots, E):
        beta[p] = image(row)
    beta = tuple(beta)
    # inessential functions pair with the center through sum beta_i k_i
    if dot(Hv, skeleton_barycenter(poly, poly.dim)) != dot(beta, poly.support):
        raise StructuralInconsistency("an inessential pairing is sum beta_i kappa_i")
    return InessentialWitness(beta)


def inessential_reduction(
    poly: HPolytope, H, cls, report: MassLinearReport | None = None
) -> Reduction:
    """Split a mass linear H as h_tilde + h_prime, h_prime inessential,
    so that every facet of the class except its last is h_tilde-symmetric
    and other facets keep their symmetry status."""
    if report is None:
        report = mass_linear_test(poly, H)
    if not report.verdict:
        raise ValueError("reduction requires a mass linear functional")
    members = sorted(cls)
    eq = equivalence_classes(poly)
    if frozenset(members) not in eq.classes:
        raise ValueError("not an equivalence class of this polytope")
    N = poly.n_facets
    beta = [Fraction(0)] * N
    for i in members[:-1]:
        beta[i] = report.gamma[i]
    beta[members[-1]] = -sum((report.gamma[i] for i in members[:-1]), Fraction(0))
    h_prime = zero_vec(poly.dim)
    for i in members:
        h_prime = tuple(
            a + beta[i] * b for a, b in zip(h_prime, poly.conormals[i])
        )
    h_tilde = vec_sub(vec(H), h_prime)
    return Reduction(h_prime, h_tilde, vec(beta))


def _resolve_face(poly: HPolytope, face) -> Face:
    """A Face as given, or the face cut out by a facet index set;
    raises PolytopeError when that face is empty."""
    if isinstance(face, Face):
        return face
    found = poly.face(frozenset(face))
    if found is None:
        raise PolytopeError("empty face")
    return found


def _face_slice(poly: HPolytope, face) -> tuple[HPolytope, tuple[int, ...]]:
    """A face as a full-dimensional polytope in a chart of its direction
    lattice, plus the input facet cutting each slice facet.

    The chart is x = v0 + B^T y, with B from direction_lattice_basis and
    v0 the face's first vertex.  face is a Face or a facet index set
    naming the face it cuts out; an empty face raises PolytopeError, and
    a slice that is not smooth raises StructuralInconsistency."""
    face = _resolve_face(poly, face)
    B = direction_lattice_basis(poly, face)
    v0 = poly.vertices[face.vertex_ids[0]].point
    k = face.dimension
    conormals, support, origins, labels = [], [], [], []
    for j in range(poly.n_facets):
        if j in face.index_set:
            continue
        sub = poly.face(face.index_set | {j})
        if sub is None or sub.dimension != k - 1:
            continue
        eta = poly.conormals[j]
        conormals.append(int_vec(tuple(dot(b, eta) for b in B)))
        support.append(poly.support[j] - dot(eta, v0))
        origins.append(j)
        labels.append(poly.labels[j])
    out = HPolytope(k, tuple(conormals), tuple(support), tuple(labels))
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
    v0 = poly.vertices[face.vertex_ids[0]].point
    functional = tuple(dot(vec(b), Hv) for b in B)
    return Restriction(restricted, functional, origins, v0, tuple(tuple(b) for b in B))


def generating_vector(
    poly: HPolytope, H, report: MassLinearReport | None = None
) -> Vec | None:
    """The vector xi with <eta_i, xi> = gamma_i for every facet, if any.

    Exists only for mass linear H (returns None otherwise, and None when
    the overdetermined system has no solution).  The conormals at the
    first vertex form an invertible A_v, so the only candidate is
    xi = A_v^{-1} gamma_B = -sum_j gamma_{B_j} w_j, w_j being the edges
    of the first vertex cone; every equation is then checked.
    """
    if report is None:
        report = mass_linear_test(poly, H)
    if not report.verdict:
        return None
    cone = _vertex_cones(poly)[0]
    xi = tuple(
        -sum((report.gamma[f] * e[c] for f, e in zip(cone.basis, cone.w)), Fraction(0)) for c in range(poly.dim)
    )
    if any(dot(eta, xi) != g for eta, g in zip(poly.conormals, report.gamma)):
        return None
    return xi


def fully_mass_linear_test(poly: HPolytope, H) -> FullMassLinearReport:
    """Pair H with the barycenters of all k-skeletons.

    values are exact pairings at the base kappa.  The verdict is the fit
    of H into the memoized space of pairs (H, gamma) with
    m_k == (gamma . kappa) * P_k for every k = 0..n, P_k and m_k being
    the measure and moment of the k-skeleton; the k = 0 identity makes
    gamma . kappa the pairing with the vertex average.  Unequal values
    are the witness of a negative verdict.
    """
    _require_smooth(poly)
    Hv = _functional(poly, H)
    dims = tuple(range(poly.dim + 1))
    values = tuple(dot(Hv, skeleton_barycenter(poly, k)) for k in dims)
    at_base = len(set(values)) == 1
    return FullMassLinearReport(values, at_base, _agree(poly, Hv, dims, at_base))


def barycenter_pairings_agree(poly: HPolytope, H, dims) -> bool:
    """Chamber-wide equality of <H, B_k> for the listed skeleton
    dimensions, which must include 0 (used for the mass-linearity and
    generated-vector characterizations).

    H must fit the memoized pair space of those dimensions, where every
    listed k satisfies m_k == (gamma . kappa) * P_k with gamma . kappa
    the pairing with the vertex average.  Unequal pairings at the base
    kappa are the witness of a negative answer."""
    if 0 not in dims:
        raise ValueError("skeleton dimensions must include 0")
    Hv = _functional(poly, H)
    # skeleton_barycenter rejects a bad dimension before dims is sorted
    at_base = len({dot(Hv, skeleton_barycenter(poly, k)) for k in dims}) == 1
    return _agree(poly, Hv, tuple(sorted(set(dims))), at_base)


def _agree(poly: HPolytope, Hv: Vec, dims: tuple[int, ...], at_base: bool) -> bool:
    """Does H fit the pair space of dims?  Pairings equal chamber-wide
    are equal at the base kappa, so a fit must come with at_base."""
    fits = _fit(poly, Hv, dims) is not None
    if fits and not at_base:
        raise StructuralInconsistency("pairings equal chamber-wide agree at the base kappa")
    return fits


def _fit(poly: HPolytope, Hv: Vec, dims: tuple[int, ...]) -> Vec | None:
    """gamma with (H, gamma) in the pair space of dims, or None.

    The reduced echelon rows R_p of that space, one per pivot column p
    of the H part, give the combination sum_p H[p] * R_p, whose H part
    equals H exactly when H lies in the space; its gamma part is then
    gamma."""
    n = poly.dim
    rows = _space_echelon(poly, dims)

    def fit(c: int) -> Fraction:
        return sum((Hv[p] * row[c] for p, row in rows), Fraction(0))

    if any(fit(c) != h for c, h in enumerate(Hv)):
        return None
    return tuple(fit(c) for c in range(n, n + poly.n_facets))


@memoize
def _skeleton_block(poly: HPolytope, k: int) -> tuple[tuple[int, ...], ...]:
    """The rows left by fraction-free elimination of the integer system
    of m_k(H) == (gamma . kappa) * P_k on the slice kappa_B = 0, in the
    unknowns (H, gamma).

    The identity is one equation per monomial in the N - n slice
    variables: column c < n holds the coefficients of the k-skeleton's
    coordinate moment int x_c, column n + i those of -kappa_i * P_k, all
    over one common denominator; kappa_i vanishes on the slice for i in
    B, so those columns are zero.  At most n + N rows span the same row
    space.  The k = 0 block guards that P_0 is the vertex count and
    every vertex moment is linear in kappa, as every vertex is."""
    n, N = poly.dim, poly.n_facets
    measure, coords = _slice_coord_polys(poly, k)
    if k == 0:
        if measure != MultiPoly.constant(N, len(poly.vertices)):
            raise StructuralInconsistency("the 0-skeleton measure is the vertex count")
        if any(sum(m) != 1 for c in coords for m, _ in c.terms):
            raise StructuralInconsistency("the vertex moment is linear in kappa")
    B = _slice(poly)[0]
    parts = [c.as_dict() for c in coords] + [measure.as_dict()]
    D = lcm(*(x.denominator for part in parts for x in part.values()))
    rows: dict[tuple[int, ...], list[int]] = defaultdict(lambda: [0] * (n + N))
    for c, part in enumerate(parts[:n]):
        for m, x in part.items():
            rows[m][c] = int(x * D)
    for m, x in parts[n].items():
        for i in range(N):
            if i not in B:
                rows[m[:i] + (m[i] + 1,) + m[i + 1 :]][n + i] = -int(x * D)
    system = list(rows.values())
    pivots, _ = _echelon(system, n + N)
    return tuple(tuple(row) for row in system[: len(pivots)])


@memoize
def _pair_space(poly: HPolytope, dims: tuple[int, ...]) -> tuple[tuple[Vec, Vec], ...]:
    """Basis of the pairs (H, gamma) with m_k(H) == (gamma . kappa) * P_k
    for every k in dims: the kernel, in the reduced-echelon convention
    (which depends only on the row space), of the stacked surviving rows
    of each k's slice block and the n rows of H == sum_i gamma_i eta_i,
    which together cut out the same space as the identities in all N
    variables."""
    n, N = poly.dim, poly.n_facets
    system = [row for k in dims for row in _skeleton_block(poly, k)]
    system += [tuple(int(c == r) for c in range(n)) + tuple(-eta[r] for eta in poly.conormals) for r in range(n)]
    return tuple((z[:n], z[n:]) for z in int_nullspace(system, n + N))


def ml_space(poly: HPolytope) -> tuple[tuple[Vec, Vec], ...]:
    """Basis of all pairs (H, gamma) with mu_H == (sum gamma_i kappa_i) V.

    The defining identity is linear in the unknowns (H, gamma), so the
    mass linear functionals on a fixed polytope form a vector space; the
    returned H parts are a basis of it.  It is the pair space of the
    n-skeleton alone, memoized per polytope."""
    _require_smooth(poly)
    return _pair_space(poly, (poly.dim,))


@memoize
def _space_echelon(poly: HPolytope, dims: tuple[int, ...]) -> tuple[tuple[int, Vec], ...]:
    """The reduced echelon rows of the pair space basis rows
    (H | gamma) for dims, each with its pivot column.  Every pivot lies
    in the H columns, since gamma is determined by H.  Scaling the basis
    rows to integers leaves their reduced form unchanged."""
    n = poly.dim
    R, pivots = int_rref(scaled([H + gamma for H, gamma in _pair_space(poly, dims)])[1], n + poly.n_facets)
    if any(p >= n for p in pivots):
        raise StructuralInconsistency("the products kappa_i * P_k are independent")
    return tuple(zip(pivots, R))


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
