"""Mass linearity of linear functionals on smooth polytopes.

The pairing of a functional H with the center of mass is a rational
function of the support vector kappa: moment over volume, both exact
polynomials on the chamber of the base polytope.  H is mass linear when
that pairing is linear in kappa.  With candidate coefficients gamma in
hand this is the polynomial identity

    moment_H - (sum_i gamma_i kappa_i) * volume == 0,

which is decided exactly.  The candidates come from two-point difference
quotients inside the chamber box; disagreement between two step sizes,
or at seeded random chamber points, is already a sound negative verdict.

Facets with zero coefficient are symmetric (moving them does not move
the pairing); the same notion is decided for non-mass-linear H by the
per-facet identity d(moment)/dk_i * V == moment * dV/dk_i.  Facet
equivalence, inessential witnesses, restriction to symmetric faces and
the skeleton-barycenter tests follow the same pattern: reduce to exact
linear algebra or polynomial identities in kappa.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import PolytopeError, StructuralInconsistency
from .linalg import (
    Vec,
    dot,
    in_row_span,
    int_vec,
    nullspace,
    rank,
    solve_linear,
    vec,
    vec_sub,
    zero_vec,
)
from .measure import (
    direction_lattice_basis,
    moment_poly,
    skeleton_barycenter,
    skeleton_measure_polys,
    volume_poly,
)
from .poly import MultiPoly
from .polytope import Face, HPolytope, memoize


def _require_smooth(poly: HPolytope) -> None:
    if not poly.is_smooth():
        raise PolytopeError("mass linearity analysis requires a smooth polytope")


def _hhat(poly: HPolytope, mu: MultiPoly, vol: MultiPoly, kappa) -> Fraction:
    v = vol.eval(kappa)
    if v == 0:
        raise PolytopeError("zero volume inside chamber box")
    return mu.eval(kappa) / v


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
    kappa, with equality checked both at the base and chamber-wide."""

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
    rows = [
        poly.conormals[j]
        for j in range(poly.n_facets)
        if j != i and poly.face(frozenset({i, j})) is not None
    ]
    return rank(rows) <= poly.dim - 1


def symmetric_facets(poly: HPolytope, H) -> tuple[frozenset[int], frozenset[int]]:
    """Partition facets into (symmetric, asymmetric) for H.

    Facet i is symmetric when the center-of-mass pairing does not depend
    on kappa_i: the exact identity d(mu)/dk_i * V - mu * dV/dk_i == 0.
    Works whether or not H is mass linear.
    """
    _require_smooth(poly)
    mu = moment_poly(poly, vec(H))
    vol = volume_poly(poly)
    sym = set()
    for i in range(poly.n_facets):
        if (mu.partial(i) * vol - mu * vol.partial(i)).is_zero():
            sym.add(i)
    return frozenset(sym), frozenset(range(poly.n_facets)) - sym


def mass_linear_test(
    poly: HPolytope, H, seed: int | None = None, trials: int = 8
) -> MassLinearReport:
    """Decide whether the center-of-mass pairing of H is linear in kappa.

    The verdict always comes from exact linear algebra: gamma must solve
    mu_H == (sum gamma_i kappa_i) * V coefficient by coefficient.  A seed
    turns on a randomized pre-filter probing the midpoint law of
    kappa -> <H, c> at chamber points; it can only reject nonlinear
    pairings early, never change a verdict.
    """
    _require_smooth(poly)
    Hv = vec(H)
    if len(Hv) != poly.dim:
        raise ValueError("functional has wrong dimension")
    N = poly.n_facets
    mu = moment_poly(poly, Hv)
    vol = volume_poly(poly)
    base = poly.support

    linear = True
    if seed is not None:
        rng = random.Random(seed)
        radius = poly.chamber_radius()

        def sample():
            return tuple(
                k + radius[i] * Fraction(rng.randint(-8, 8), 16)
                for i, k in enumerate(base)
            )

        for _ in range(trials):
            p, q = sample(), sample()
            mid = tuple((a + b) / 2 for a, b in zip(p, q))
            left = 2 * _hhat(poly, mu, vol, mid)
            if left != _hhat(poly, mu, vol, p) + _hhat(poly, mu, vol, q):
                linear = False
                break

    gamma_t = None
    verdict = False
    if linear:
        monomials = {m for m, _ in mu.terms}
        for m, _ in vol.terms:
            for i in range(N):
                monomials.add(tuple(e + (j == i) for j, e in enumerate(m)))
        rows = []
        rhs = []
        for m in sorted(monomials):
            rows.append(
                tuple(
                    vol.coefficient(tuple(e - (j == i) for j, e in enumerate(m)))
                    if m[i]
                    else Fraction(0)
                    for i in range(N)
                )
            )
            rhs.append(mu.coefficient(m))
        sol = solve_linear(rows, rhs, ncols=N)
        if sol is not None:
            if sol.nullspace:
                raise StructuralInconsistency("the products kappa_i * V are independent")
            gamma_t = sol.solution
            verdict = True

    if verdict:
        if sum(gamma_t, Fraction(0)) != 0:
            raise StructuralInconsistency("coefficient sum must vanish")
        if _hhat(poly, mu, vol, base) != dot(gamma_t, base):
            raise StructuralInconsistency("no constant term allowed")
        recon = zero_vec(poly.dim)
        for g, eta in zip(gamma_t, poly.conormals):
            recon = tuple(r + g * e for r, e in zip(recon, eta))
        if recon != Hv:
            raise StructuralInconsistency("H must equal sum of gamma_i times conormals")
        sym = frozenset(i for i, g in enumerate(gamma_t) if g == 0)
        asym = frozenset(range(N)) - sym
    else:
        gamma_t = None
        sym, asym = symmetric_facets(poly, Hv)

    pervasive = {i: is_pervasive(poly, i) for i in sorted(asym)}
    flat = {i: is_flat(poly, i) for i in sorted(asym)}
    return MassLinearReport(verdict, gamma_t, sym, asym, pervasive, flat)


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
            if rank(others) != n - 1:
                continue
            pair_sum = tuple(
                a + b for a, b in zip(poly.conormals[i], poly.conormals[j])
            )
            if in_row_span(others, pair_sum):
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
        r = rank(complement)
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
        kernel = nullspace(rows, ncols=cols)
        c_parts = [z[:m] for z in kernel]
        if rank(c_parts) != 1 or not in_row_span(c_parts, (Fraction(1),) * m):
            raise StructuralInconsistency(
                f"facet class {members} admits an unbalanced combination"
            )
    return EquivalenceClasses(classes, complement_rank)


def _row_basis(rows) -> list[int]:
    """Indices of a maximal independent subset of rows."""
    picked: list[int] = []
    chosen = []
    for idx, row in enumerate(rows):
        if rank(chosen + [row]) > len(chosen):
            picked.append(idx)
            chosen.append(row)
    return picked


def is_inessential(poly: HPolytope, H) -> InessentialWitness | None:
    """A witness beta with H = sum beta_i eta_i and zero sum over every
    equivalence class, or None when H is essential."""
    _require_smooth(poly)
    Hv = vec(H)
    eq = equivalence_classes(poly)
    N = poly.n_facets
    rows = []
    rhs = []
    for r in range(poly.dim):
        rows.append(tuple(poly.conormals[i][r] for i in range(N)))
        rhs.append(Hv[r])
    for cls in eq.classes:
        rows.append(tuple(Fraction(1 if i in cls else 0) for i in range(N)))
        rhs.append(Fraction(0))
    sol = solve_linear(rows, rhs, ncols=N)
    if sol is None:
        return None
    beta = sol.solution
    # inessential functions pair with the center through sum beta_i k_i
    mu = moment_poly(poly, Hv)
    vol = volume_poly(poly)
    if _hhat(poly, mu, vol, poly.support) != dot(beta, poly.support):
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
    the overdetermined system has no solution).
    """
    if report is None:
        report = mass_linear_test(poly, H)
    if not report.verdict:
        return None
    sol = solve_linear(list(poly.conormals), list(report.gamma), ncols=poly.dim)
    if sol is None:
        return None
    if sol.nullspace:
        raise StructuralInconsistency("conormals span, so xi is unique")
    return sol.solution


def fully_mass_linear_test(poly: HPolytope, H) -> FullMassLinearReport:
    """Pair H with the barycenters of all k-skeletons.

    values are exact pairings at the base kappa.  The verdict requires
    the chamber-wide identity: for every k, the skeleton moment and
    measure polynomials satisfy P_k * m_n == P_n * m_k.
    """
    _require_smooth(poly)
    Hv = vec(H)
    n = poly.dim
    values = tuple(dot(Hv, skeleton_barycenter(poly, k)) for k in range(n + 1))
    at_base = len(set(values)) == 1
    mn, pn = skeleton_measure_polys(poly, n, Hv)
    verdict = True
    for k in range(n):
        mk, pk = skeleton_measure_polys(poly, k, Hv)
        if not (pk * mn - pn * mk).is_zero():
            verdict = False
            break
    if verdict and not at_base:
        raise StructuralInconsistency("a chamber-wide identity holds at the base")
    return FullMassLinearReport(values, at_base, verdict)


def barycenter_pairings_agree(poly: HPolytope, H, dims) -> bool:
    """Chamber-wide equality of <H, B_k> for the listed skeleton
    dimensions (used for the mass-linearity and generated-vector
    characterizations)."""
    Hv = vec(H)
    dims = list(dims)
    m0, p0 = skeleton_measure_polys(poly, dims[0], Hv)
    for k in dims[1:]:
        mk, pk = skeleton_measure_polys(poly, k, Hv)
        if not (p0 * mk - pk * m0).is_zero():
            return False
    return True


def ml_space(poly: HPolytope) -> tuple[tuple[Vec, Vec], ...]:
    """Basis of all pairs (H, gamma) with mu_H == (sum gamma_i kappa_i) V.

    The defining identity is linear in the unknowns (H, gamma), so the
    mass linear functionals on a fixed polytope form a vector space; the
    returned H parts are a basis of it.
    """
    _require_smooth(poly)
    n = poly.dim
    N = poly.n_facets
    vol = volume_poly(poly)
    coord_moments = [
        moment_poly(poly, tuple(Fraction(1 if c == r else 0) for r in range(n)))
        for c in range(n)
    ]
    kappa_vols = [MultiPoly.variable(N, i) * vol for i in range(N)]
    monomials = set()
    for p in coord_moments + kappa_vols:
        monomials.update(m for m, _ in p.terms)
    rows = []
    for m in sorted(monomials):
        row = [p.coefficient(m) for p in coord_moments]
        row += [-p.coefficient(m) for p in kappa_vols]
        rows.append(tuple(row))
    kernel = nullspace(rows, ncols=n + N)
    return tuple((z[:n], z[n:]) for z in kernel)


def inessential_space(poly: HPolytope) -> tuple[Vec, ...]:
    """Basis of the inessential functionals: differences of conormals
    within an equivalence class span them."""
    eq = equivalence_classes(poly)
    gens = []
    for cls in eq.classes:
        members = sorted(cls)
        for i in members[1:]:
            gens.append(vec_sub(vec(poly.conormals[i]), vec(poly.conormals[members[0]])))
    basis_idx = _row_basis(gens)
    return tuple(gens[i] for i in basis_idx)
