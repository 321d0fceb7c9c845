"""Reference per-functional routines of ``masslinear``, in Fractions.

The library scales H to integers once and reads every per-functional
sum and comparison off integer per-polytope forms: integer reduced
echelon rows over one denominator, integer base values and barycenter
numerators, integer edges.  These references decide the same questions
as the library did before, in rational arithmetic over the same
memoized pair spaces and slice polynomials: gamma and the fit from the
Fraction reduced echelon form, the post-checks with ``dot``, beta from
the Fraction transform E, the pairings with the Fraction barycenters of
the reference polynomials (``_slice_ref.lawrence_skeleton``), xi as
A_v^{-1} gamma_B, and the symmetric facets from Fraction base values
and gradients of the slice polynomials.  Each returns what the library function of the
same name returns.  The library reads beta off the gamma fit, so the
[A | I] solve of ``is_inessential`` here is the independent reference
for beta.  ``barycenter_pairings_agree`` has no library counterpart: it
fits H into the library's pair space of the listed skeleton dimensions,
for the barycenter characterizations of mass linearity and generation.
"""

from __future__ import annotations

from fractions import Fraction

from masslin.errors import StructuralInconsistency
from masslin.linalg import dot, int_rref, scaled, vec, zero_vec
from masslin.masslinear import (
    FullMassLinearReport,
    InessentialWitness,
    MassLinearReport,
    _pair_space,
    equivalence_classes,
    is_flat,
    is_pervasive,
)
from masslin.measure import _functional, _pairing, _slice, _slice_coord_polys, _vertex_cones

from _slice_ref import base_values, value_gradient


def skeleton_barycenter(poly, k):
    """The k-skeleton barycenter from the reference polynomials of
    ``_slice_ref.lawrence_skeleton`` at the base kappa."""
    total, moments, _ = base_values(poly, poly.dim - k)
    return tuple(m / total for m in moments)


def space_echelon(poly, dims):
    """(pivot, row) of the Fraction reduced echelon form of the pair
    space basis rows (H | gamma)."""
    rows = [H + gamma for H, gamma in _pair_space(poly, dims)]
    R, pivots = int_rref(scaled(rows)[1], poly.dim + poly.n_facets)
    return tuple(zip(pivots, R))


def fit(poly, Hv, dims):
    """gamma with (H, gamma) in the pair space of dims, or None."""
    n = poly.dim
    rows = space_echelon(poly, dims)

    def comb(c):
        return sum((Hv[p] * row[c] for p, row in rows), Fraction(0))

    if any(comb(c) != h for c, h in enumerate(Hv)):
        return None
    return tuple(comb(c) for c in range(n, n + poly.n_facets))


def symmetric_facets(poly, H):
    """(symmetric, asymmetric) from Fraction base values and gradients of
    mu' and V' at the slice point, and the symbolic identity where the
    base value is zero."""
    Hv = vec(H)
    n, N = poly.dim, poly.n_facets
    B, base = _slice(poly)
    _, vol, coords = _slice_coord_polys(poly)
    mu = _pairing(poly, coords, Hv)
    cone = _vertex_cones(poly)[0]
    edges = [
        (i, [(j, x) for j in range(N) if j not in B and (x := dot(poly.conormals[j], w))], dot(Hv, w))
        for i, w in zip(cone.basis, cone.w)
    ]

    def on_basis(dmu, dvol, vol):
        for i, mix, h in edges:
            dmu[i] = sum((x * dmu[j] for j, x in mix), -h * vol)
            dvol[i] = sum((x * dvol[j] for j, x in mix), 0 * vol)
        return dmu, dvol

    mu0, dmu0 = value_gradient(mu, base)
    vol0, dvol0 = value_gradient(vol, base)
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


def mass_linear_test(poly, H):
    Hv = _functional(poly, H)
    n, N = poly.dim, poly.n_facets
    gamma = fit(poly, Hv, (n,))
    if gamma is not None:
        if sum(gamma, Fraction(0)) != 0:
            raise StructuralInconsistency("coefficient sum must vanish")
        if dot(Hv, skeleton_barycenter(poly, n)) != dot(gamma, poly.support):
            raise StructuralInconsistency("no constant term allowed")
        recon = zero_vec(n)
        for g, eta in zip(gamma, poly.conormals):
            recon = tuple(r + g * e for r, e in zip(recon, eta))
        if recon != Hv:
            raise StructuralInconsistency("H must equal sum of gamma_i times conormals")
        sym = frozenset(i for i, g in enumerate(gamma) if g == 0)
        asym = frozenset(range(N)) - sym
    else:
        sym, asym = symmetric_facets(poly, Hv)
    pervasive = {i: is_pervasive(poly, i) for i in sorted(asym)}
    flat = {i: is_flat(poly, i) for i in sorted(asym)}
    return MassLinearReport(gamma is not None, gamma, sym, asym, pervasive, flat)


def is_inessential(poly, H):
    """The reduced echelon solution beta of H = sum beta_i eta_i with zero
    class sums, from the Fraction reduced form [R | E] of [A | I]."""
    Hv = _functional(poly, H)
    N = poly.n_facets
    rows = [tuple(eta[r] for eta in poly.conormals) for r in range(poly.dim)]
    rows += [tuple(int(i in cls) for i in range(N)) for cls in equivalence_classes(poly).classes]
    m = len(rows)
    R, pivots = int_rref([row + tuple(int(i == j) for j in range(m)) for i, row in enumerate(rows)], N)
    # b = (H, 0, ..., 0): the class sums vanish, so E b reads n columns
    E = [row[N : N + poly.dim] for row in R]
    if any(dot(row, Hv) for row in E[len(pivots) :]):
        return None
    beta = [Fraction(0)] * N
    for p, row in zip(pivots, E):
        beta[p] = dot(row, Hv)
    beta = tuple(beta)
    if dot(Hv, skeleton_barycenter(poly, poly.dim)) != dot(beta, poly.support):
        raise StructuralInconsistency("an inessential pairing is sum beta_i kappa_i")
    return InessentialWitness(beta)


def fully_mass_linear_test(poly, H):
    Hv = _functional(poly, H)
    dims = tuple(range(poly.dim + 1))
    values = tuple(dot(Hv, skeleton_barycenter(poly, k)) for k in dims)
    at_base = len(set(values)) == 1
    return FullMassLinearReport(values, at_base, fit(poly, Hv, dims) is not None)


def barycenter_pairings_agree(poly, H, dims):
    Hv = _functional(poly, H)
    return fit(poly, Hv, tuple(sorted(set(dims)))) is not None


def generating_vector(poly, H, report=None):
    if report is None:
        report = mass_linear_test(poly, H)
    if not report.verdict:
        return None
    cone = _vertex_cones(poly)[0]
    xi = tuple(
        -sum((report.gamma[f] * e[c] for f, e in zip(cone.basis, cone.w)), Fraction(0)) / cone.d
        for c in range(poly.dim)
    )
    if any(dot(eta, xi) != g for eta, g in zip(poly.conormals, report.gamma)):
        return None
    return xi
