"""Constructors for the structured polytope families, plus blowups and
blowdowns.

All builders emit facets in a fixed documented order so that coefficient
vectors in tests refer to stable indices:

  * simplex bundles over a segment: fiber facets F1..F{k+1}, then the two
    base facets G1, G2;
  * segment bundles over a segment bundle ("121" towers): the two segment
    fiber facets T0, T1, then F2..F6;
  * triangle bundles over a polygon: fiber facets F1..F3, then base facets
    G1..Gk in edge-adjacency order;
  * expansions: the surviving facets of the core in their original order,
    then the new base-type facets B1, B2, ...;
  * blowups: the exceptional facet first (label E1, E2, ... as needed),
    then every original facet unchanged.

The three ml_space_* solvers return the closed-form mass-linear and
inessential coefficient spaces of the bundle families as reduced-echelon
bases of (H, gamma) pairs, where H = sum_i gamma_i eta_i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .errors import PolytopeError, StructuralInconsistency
from .linalg import (
    IntVec,
    Vec,
    frac,
    int_nullspace,
    int_rank,
    int_rref,
    int_vec,
    primitive,
    vec,
)
from .masslinear import equivalence_classes
from .measure import volume_poly
from .poly import MultiPoly
from .polytope import HPolytope, _scaled_support


def _built(data, labels: tuple[str, ...], check) -> HPolytope:
    """The polytope of a constructor's facet data (dimension, conormals,
    support numbers), after its post-build check with every facet at its
    own position in the constructor's order."""
    poly = HPolytope(*data, labels)
    check(poly, range(poly.n_facets))
    return poly


# ---------------------------------------------------------------------------
# elementary builders


def simplex(n: int, size=1) -> HPolytope:
    """The standard n-simplex {x_i >= 0, sum x_i <= size}."""
    size = frac(size)
    if size <= 0:
        raise PolytopeError("simplex size must be positive")
    conormals = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(n)]
    conormals.append((1,) * n)
    support = (Fraction(0),) * n + (size,)
    return HPolytope(n, tuple(conormals), support)


def product(a: HPolytope, b: HPolytope) -> HPolytope:
    """Orthogonal product; a's coordinates come first."""
    n = a.dim + b.dim
    conormals = [eta + (0,) * b.dim for eta in a.conormals]
    conormals += [(0,) * a.dim + eta for eta in b.conormals]
    labels = list(a.labels)
    for lab in b.labels:
        while lab in labels:
            lab = lab + "'"
        labels.append(lab)
    return HPolytope(n, tuple(conormals), a.support + b.support, tuple(labels))


# ---------------------------------------------------------------------------
# the three bundle families


@dataclass(frozen=True)
class YkBundleSpec:
    """Simplex bundle over a segment: fiber dimension k, integer twist
    vector a, and k+3 support numbers (fiber facets first)."""

    k: int
    a: tuple[int, ...]
    kappa: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", _yk_twists(self.k, self.a))
        object.__setattr__(self, "kappa", vec(self.kappa))
        if len(self.kappa) != self.k + 3:
            raise PolytopeError("need k + 3 support numbers")


def _yk_twists(k: int, a: Sequence[int]) -> IntVec:
    """The twist vector of Y_k, checked against the fiber dimension k."""
    a = int_vec(a)
    if k < 1:
        raise PolytopeError("fiber dimension must be at least 1")
    if len(a) != k:
        raise PolytopeError("twist vector must have length k")
    return a


def _yk_conormals(k: int, a: Sequence[int]) -> tuple[IntVec, ...]:
    n = k + 1
    rows = [tuple(-1 if j == i else 0 for j in range(n)) for i in range(k)]
    rows.append((1,) * k + (0,))
    rows.append((0,) * k + (-1,))
    rows.append(tuple(a) + (1,))
    return tuple(rows)


def yk_structural_values(spec: YkBundleSpec) -> tuple[Fraction, Fraction]:
    """(lam, h): the fiber size and the height over the fiber origin.

    The support vector is admissible exactly when lam > 0 and
    h > max(0, a_1, ..., a_k) * lam.
    """
    kp = spec.kappa
    lam = sum(kp[: spec.k + 1], Fraction(0))
    h = sum((ai * ki for ai, ki in zip(spec.a, kp)), Fraction(0))
    h += kp[spec.k + 1] + kp[spec.k + 2]
    return lam, h


def _yk_data(spec: YkBundleSpec) -> tuple:
    """The facet data of bundle_Yk(spec), after its chamber test."""
    lam, h = yk_structural_values(spec)
    bound = max(0, *spec.a) * lam
    if lam <= 0 or h <= bound:
        raise PolytopeError(
            "support vector lies outside the structural chamber: "
            f"fiber size {lam} must be positive and height {h} must exceed "
            f"{bound}"
        )
    return spec.k + 1, _yk_conormals(spec.k, spec.a), spec.kappa


def _yk_check(poly: HPolytope, position) -> None:
    if len(poly.vertices) != 2 * poly.dim or not poly.is_smooth():
        raise StructuralInconsistency("chamber test failed to reject a bad bundle")


def bundle_Yk(spec: YkBundleSpec) -> HPolytope:
    """Simplex bundle over a segment with the canonical conormals."""
    labels = tuple(f"F{i + 1}" for i in range(spec.k + 1)) + ("G1", "G2")
    return _built(_yk_data(spec), labels, _yk_check)


def trapezoid(twist: int = 1, kappa=(0, 1, 0, 2)) -> HPolytope:
    """Segment bundle over a segment (a smooth quadrilateral)."""
    return bundle_Yk(YkBundleSpec(1, (twist,), tuple(kappa)))


@dataclass(frozen=True)
class Bundle121Spec:
    """Segment bundle over a (triangle bundle over a segment): integer
    twists (d; a1, a2, a3) and 7 support numbers in facet order
    T0, T1, F2..F6."""

    a: tuple[int, int, int]
    d: int
    kappa: tuple[Fraction, ...]

    def __post_init__(self):
        a, d = _121_twists(self.a, self.d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "kappa", vec(self.kappa))
        if len(self.kappa) != 7:
            raise PolytopeError("need 7 support numbers")


def _121_twists(a: Sequence[int], d: int) -> tuple[IntVec, int]:
    """The twists (a1, a2, a3) and d of the 121 tower, checked to be
    integers, with d nonnegative."""
    a, (d,) = int_vec(a), int_vec((d,))
    if len(a) != 3:
        raise PolytopeError("need a 3-vector of twists")
    if d < 0:
        raise PolytopeError("the segment twist d must be nonnegative")
    return a, d


def _121_conormals(a: Sequence[int], d: int) -> tuple[IntVec, ...]:
    a1, a2, a3 = a
    return (
        (1, 0, 0, 0),
        (-1, 0, 0, 0),
        (0, -1, 0, 0),
        (0, 0, -1, 0),
        (d, 1, 1, 0),
        (0, 0, 0, -1),
        (a1, a2, a3, 1),
    )


def _reject_unless_combinatorial_product(
    poly: HPolytope, expected_vertices: int, what: str
) -> None:
    """Raise at the first vertex whose |det A_v|, as construction found
    it, is not 1, and unless there are expected_vertices vertices."""
    for v in poly.vertices:
        if poly._basic[v.basis][1] != 1:
            raise PolytopeError(f"{what}: vertex {v.point} is not smooth")
    if len(poly.vertices) != expected_vertices:
        raise PolytopeError(
            f"{what}: expected {expected_vertices} vertices, found "
            f"{len(poly.vertices)} (support numbers leave the product chamber)"
        )


def _121_data(spec: Bundle121Spec) -> tuple:
    return 4, _121_conormals(spec.a, spec.d), spec.kappa


def _121_check(poly: HPolytope, position) -> None:
    _reject_unless_combinatorial_product(poly, 12, "121 bundle")


def bundle_121(spec: Bundle121Spec) -> HPolytope:
    """The 121 tower of spec, facets labelled T0, T1, F2..F6; raises
    PolytopeError unless it has the product's 12 vertices, all smooth."""
    labels = ("T0", "T1", "F2", "F3", "F4", "F5", "F6")
    return _built(_121_data(spec), labels, _121_check)


@dataclass(frozen=True)
class D2PolygonBundleSpec:
    """Triangle bundle over a polygon.

    polygon: smooth 2-polytope with edges listed in adjacency order.
    twists: one integer pair per edge; the first two must be (0, 0).
    kappa: 3 fiber support numbers followed by one per edge.
    """

    polygon: HPolytope
    twists: tuple[tuple[int, int], ...]
    kappa: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple(int_vec(t) for t in self.twists))
        object.__setattr__(self, "kappa", vec(self.kappa))
        k = self.polygon.n_facets
        if self.polygon.dim != 2:
            raise PolytopeError("base must be a polygon")
        if not self.polygon.is_smooth():
            raise PolytopeError("base polygon must be smooth")
        for i in range(k):
            if self.polygon.face({i, (i + 1) % k}) is None:
                raise PolytopeError(
                    "polygon edges must be listed in adjacency order "
                    f"(edges {i} and {(i + 1) % k} do not meet)"
                )
        if any(len(t) != 2 for t in self.twists) or len(self.twists) != k:
            raise PolytopeError("need one twist pair per edge")
        if self.twists[0] != (0, 0) or self.twists[1] != (0, 0):
            raise PolytopeError("the first two twist pairs must be (0, 0)")
        if len(self.kappa) != 3 + k:
            raise PolytopeError("need 3 fiber and one support number per edge")


def _d2_conormals(
    polygon: HPolytope, twists: Sequence[tuple[int, int]]
) -> tuple[IntVec, ...]:
    rows = [(-1, 0, 0, 0), (0, -1, 0, 0), (1, 1, 0, 0)]
    for eta, (b1, b2) in zip(polygon.conormals, twists):
        rows.append((b1, b2, eta[0], eta[1]))
    return tuple(rows)


def _d2_data(spec: D2PolygonBundleSpec) -> tuple:
    return 4, _d2_conormals(spec.polygon, spec.twists), spec.kappa


def _d2_check(poly: HPolytope, position) -> None:
    """The product chamber, and two adjacent base facets at every vertex."""
    k = poly.n_facets - 3
    _reject_unless_combinatorial_product(poly, 3 * k, "triangle bundle over polygon")
    for v in poly.vertices:
        base = sorted(position[i] - 3 for i in v.basis if position[i] >= 3)
        if len(base) != 2 or (base[1] - base[0]) % k not in (1, k - 1):
            raise PolytopeError(
                f"triangle bundle over polygon: vertex {v.point} does not sit "
                "over a polygon vertex (support numbers leave the product "
                "chamber)"
            )


def bundle_D2_polygon(spec: D2PolygonBundleSpec) -> HPolytope:
    """The triangle bundle of spec, facets F1..F3 then G1..Gk; raises
    PolytopeError unless its 3k smooth vertices sit over the polygon's."""
    k = spec.polygon.n_facets
    labels = ("F1", "F2", "F3") + tuple(f"G{i + 1}" for i in range(k))
    return _built(_d2_data(spec), labels, _d2_check)


# ---------------------------------------------------------------------------
# expansions


def _fresh_labels(taken: Sequence[str], stem: str, count: int) -> list[str]:
    out = []
    used = set(taken)
    i = 1
    while len(out) < count:
        lab = f"{stem}{i}"
        if lab not in used:
            out.append(lab)
            used.add(lab)
        i += 1
    return out


def _expand(core: HPolytope, folds: Sequence[tuple[int, int]]) -> tuple:
    """The facet data of the core expanded along each facet j of the
    (j, fold) pairs in folds, fold times, after the expansion checks.

    The surviving core facets come first in their order; then, per
    expanded facet in the order of folds, its fold pure-slot facets
    (minus a new coordinate vector, support 0) and its lifted facet (the
    core conormal plus the indicator of those new coordinates, the core
    support number).
    """
    if not core.is_smooth():
        raise PolytopeError("expansion requires a smooth core")
    expanded = dict(folds)
    if len(expanded) != len(folds):
        raise PolytopeError("double expansion needs two distinct facets")
    for j, fold in folds:
        if not 0 <= j < core.n_facets:
            raise PolytopeError("no such facet")
        if fold < 1:
            raise PolytopeError("fold must be at least 1")
    f = sum(expanded.values())
    kept = [j for j in range(core.n_facets) if j not in expanded]
    conormals = [core.conormals[j] + (0,) * f for j in kept]
    support = [core.support[j] for j in kept]
    start = 0
    for j, fold in folds:
        for c in range(start, start + fold):
            pure = tuple(-1 if r == c else 0 for r in range(f))
            conormals.append((0,) * core.dim + pure)
        support += [Fraction(0)] * fold
        lift = tuple(int(start <= r < start + fold) for r in range(f))
        conormals.append(core.conormals[j] + lift)
        support.append(core.support[j])
        start += fold
    return core.dim + f, tuple(conormals), tuple(support)


def _expansion_check(poly: HPolytope, position) -> None:
    if not poly.is_smooth():
        raise StructuralInconsistency("expansion of a smooth core must be smooth")


def _expansion(core: HPolytope, folds: Sequence[tuple[int, int]]) -> HPolytope:
    """The polytope of _expand(core, folds): the surviving core facets
    keep their labels, and the new ones are B1, B2, ..."""
    data = _expand(core, folds)
    labels = [core.labels[j] for j in range(core.n_facets) if j not in dict(folds)]
    labels += _fresh_labels(labels, "B", len(data[1]) - len(labels))
    return _built(data, tuple(labels), _expansion_check)


def expansion(core: HPolytope, facet: int, fold: int = 1) -> HPolytope:
    """k-fold expansion of the core along one of its facets.

    The chosen facet is replaced by fold + 1 pairwise equivalent base-type
    facets living in fold new coordinates; every other facet survives as a
    fiber-type facet with the same support number.
    """
    return _expansion(core, ((facet, fold),))


def double_expansion(core: HPolytope, j1: int, j2: int) -> HPolytope:
    """Expand once along facet j1 and once along facet j2 (j1 != j2).

    Base-type facets come last, in the order B1, B2 (from j1) then
    B3, B4 (from j2).
    """
    return _expansion(core, ((j1, 1), (j2, 1)))


# each constructor's facet-data step, which takes its arguments and
# checks them, and its post-build check on a polytope with that facet
# data, where facet i has position[i] in the constructor's order
CONSTRUCTOR_STEPS = {
    bundle_Yk: (_yk_data, _yk_check),
    bundle_121: (_121_data, _121_check),
    bundle_D2_polygon: (_d2_data, _d2_check),
    _expansion: (_expand, _expansion_check),
}


# ---------------------------------------------------------------------------
# blowing up and down


def _exceptional_label(taken: Sequence[str]) -> str:
    return _fresh_labels(taken, "E", 1)[0]


def blowup(poly: HPolytope, face_indices, eps=None) -> HPolytope:
    """Cut the corner along the face shared by the given facets.

    The new half-space has conormal sum(eta_i) and support sum(kappa_i) - eps;
    the exceptional facet is placed first.  eps defaults to half the largest
    admissible value.
    """
    return _blowup(poly, face_indices, eps, 0, _exceptional_label(poly.labels))


def _blowup(poly: HPolytope, face_indices, eps, at: int, label: str) -> HPolytope:
    """blowup, with the exceptional facet inserted at position at as label."""
    if not poly.is_smooth():
        raise PolytopeError("blowup requires a smooth polytope")
    I = sorted(set(face_indices))
    if any(not 0 <= i < poly.n_facets for i in I):
        raise PolytopeError("no such facet")
    names = ", ".join(poly.labels[i] for i in I)
    if len(I) < 2:
        raise PolytopeError("blowup needs a face of codimension at least 2")
    # on a simple polytope, facets meet exactly when a vertex lies on all
    if not any(active.issuperset(I) for active in poly._basic):
        raise PolytopeError(f"facets {names} do not meet in a face")
    eta0 = tuple(sum(poly.conormals[i][j] for i in I) for j in range(poly.dim))
    if primitive(eta0) != eta0:
        raise StructuralInconsistency("conormal sum over a smooth face is primitive")
    ksum = sum((poly.support[i] for i in I), Fraction(0))
    # ksum - <eta0, v> over the vertices off the face, in integers over L
    # (every d is 1)
    L, K = _scaled_support(poly)
    kI = sum(K[i] for i in I)
    slack = Fraction(min(kI - sum(map(mul, eta0, y)) for active, (y, _, _) in poly._basic.items()
                         if not active.issuperset(I)), L)
    if eps is None:
        eps = slack / 2
    eps = frac(eps)
    if not 0 < eps < slack:
        raise PolytopeError(
            f"eps must lie strictly between 0 and {slack} for this face"
        )
    out = HPolytope(
        poly.dim,
        poly.conormals[:at] + (eta0,) + poly.conormals[at:],
        poly.support[:at] + (ksum - eps,) + poly.support[at:],
        poly.labels[:at] + (label,) + poly.labels[at:],
        poly.name,
        poly,
    )
    if not out.is_smooth():
        raise StructuralInconsistency("blowup of a smooth polytope must be smooth")
    return out


@dataclass(frozen=True)
class BlowdownReport:
    """Outcome of a blowdown attempt.

    ok=True: polytope is the relaxed polytope (facet removed, labels kept,
    derived from the input by the local update of ``polytope``),
    index_set the recovered fiber facets in the input's indexing, epsilon
    the cut depth, alternatives any other index sets that also satisfy
    every condition.  Blowing polytope up along index_set (shifted past
    the facet) by epsilon gives the input with the facet moved first.
    ok=False: failed_condition names the first violated requirement -
    "bundle structure" (the facet is no simplex-bundle), "conormal sum"
    (no fiber set sums to the facet conormal), or "face pattern" (removing
    the facet creates vertices off the blown-down face).
    """

    ok: bool
    polytope: HPolytope | None = None
    index_set: tuple[int, ...] | None = None
    epsilon: Fraction | None = None
    alternatives: tuple[tuple[int, ...], ...] = ()
    failed_condition: str | None = None
    detail: str = ""


def _facet_fiber_structure(poly: HPolytope, e: int, I: Sequence[int]) -> bool:
    """Does facet e carry a simplex-bundle structure with fiber facets
    {F_i cap F_e : i in I}?  Yes when the conormal sum over I is
    proportional to eta_e, as any simplex fiber forces, and every vertex
    of F_e misses exactly one facet of I.  The product structure follows:
    from a vertex w missing i, the edge of F_e leaving F_j (j in I - {i})
    ends at a vertex that has lost j, so it gains i and keeps w's base
    facets (those outside I and e).  So the base patterns agree across I,
    and as a vertex is fixed by its basis, F_e has |I| vertices per
    pattern."""
    s = tuple(sum(poly.conormals[i][j] for i in I) for j in range(poly.dim))
    if int_rank([s, poly.conormals[e]]) > 1:
        return False
    vertices = poly.vertices
    return all(sum(i not in vertices[w].basis for i in I) == 1 for w in poly.face({e}).vertex_ids)


def _drop_facet(poly: HPolytope, e: int) -> HPolytope:
    keep = [i for i in range(poly.n_facets) if i != e]
    return HPolytope(
        poly.dim,
        tuple(poly.conormals[i] for i in keep),
        tuple(poly.support[i] for i in keep),
        tuple(poly.labels[i] for i in keep),
        poly.name,
        poly,
    )


def blowdown(poly: HPolytope, facet: int = 0) -> BlowdownReport:
    """Try to undo a blowup whose exceptional facet is the given one.

    Candidate fiber sets I are the sets of 2..n neighbors over which the
    facet is a simplex bundle (``_facet_fiber_structure``) and whose
    conormals sum to its conormal.  The facet is dropped once, the only
    build, which takes the relaxed polytope's vertices from the input's
    by the local update of ``polytope``.  A candidate holds when every
    vertex the drop creates lies on F_I, which makes it an exact inverse
    of blowup.  Failure is an outcome; when no candidate holds, the
    detail names a created vertex off the first candidate's F_I.
    """
    if not poly.is_smooth():
        raise PolytopeError("blowdown requires a smooth polytope")
    if not 0 <= facet < poly.n_facets:
        raise PolytopeError("no such facet")
    n = poly.dim
    e = facet
    neigh = [
        j for j in range(poly.n_facets) if j != e and poly.face({j, e}) is not None
    ]
    structured = [
        I
        for size in range(2, n + 1)
        for I in itertools.combinations(neigh, size)
        if _facet_fiber_structure(poly, e, I)
    ]
    if not structured:
        return BlowdownReport(
            ok=False,
            failed_condition="bundle structure",
            detail=f"facet {poly.labels[e]} is not a simplex bundle over any "
            "fiber set of its neighbors",
        )
    eta_e = poly.conormals[e]
    summed = [
        I
        for I in structured
        if tuple(sum(poly.conormals[i][j] for i in I) for j in range(n)) == eta_e
    ]
    if not summed:
        return BlowdownReport(
            ok=False,
            failed_condition="conormal sum",
            detail=f"no fiber set of facet {poly.labels[e]} has conormals "
            "summing to its conormal",
        )
    try:
        bar = _drop_facet(poly, e)
        bar_vertices = bar.vertices
    except PolytopeError as exc:
        detail = f"relaxing facet {poly.labels[e]} fails: {exc}"
        return BlowdownReport(ok=False, failed_condition="face pattern", detail=detail)
    # the vertices the drop creates are those of bar whose basis, in poly's
    # indexing, is no vertex basis of poly; bar is simple, so a vertex lies
    # on a facet exactly when the facet is in its basis
    created = [(v, frozenset([i + (i >= e) for i in v.basis])) for v in bar_vertices]
    created = [(v, basis) for v, basis in created if basis not in poly._basic]
    escaped = [next((v for v, basis in created if not basis.issuperset(I)), None) for I in summed]
    held = [I for I, v in zip(summed, escaped) if v is None]
    if not held:
        culprits = ", ".join(bar.labels[i] for i in sorted(escaped[0].basis))
        detail = f"new vertex {escaped[0].point} (on {culprits}) misses the blown-down face"
        return BlowdownReport(ok=False, failed_condition="face pattern", detail=detail)
    if not bar.is_smooth():
        raise StructuralInconsistency(
            "all blowdown conditions hold but the relaxed polytope is not smooth"
        )
    # bar blown up along I by eps is poly with facet e first: the cut is
    # (eta_e, kappa_e), and no check of blowup can fail, since a vertex of
    # bar off F_I with <eta_e, v> = kappa_e would make poly non-simple
    depths = [sum((poly.support[i] for i in I), Fraction(0)) - poly.support[e] for I in held]
    if min(depths) <= 0:
        raise StructuralInconsistency("a genuine facet forces positive depth")
    return BlowdownReport(
        ok=True,
        polytope=bar,
        index_set=held[0],
        epsilon=depths[0],
        alternatives=tuple(held[1:]),
    )


# ---------------------------------------------------------------------------
# closed-form coefficient spaces for the bundle families


@dataclass(frozen=True)
class FunctionalSpace:
    """Bases of the mass-linear and inessential coefficient spaces.

    Entries are (H, gamma) pairs with H = sum_i gamma_i eta_i; the gammas
    form a reduced-echelon basis.  The inessential entries span a subspace
    of the mass-linear ones.
    """

    mass_linear: tuple[tuple[Vec, Vec], ...]
    inessential: tuple[tuple[Vec, Vec], ...]

    @property
    def has_essential(self) -> bool:
        return len(self.mass_linear) > len(self.inessential)


def _echelon_pairs(
    gammas: Sequence[IntVec], conormals: Sequence[IntVec]
) -> tuple[tuple[Vec, Vec], ...]:
    reduced, _ = int_rref(gammas)
    n = len(conormals[0])
    out = []
    for g in reduced:
        h = tuple(
            sum((gi * eta[j] for gi, eta in zip(g, conormals)), Fraction(0))
            for j in range(n)
        )
        out.append((h, g))
    return tuple(out)


def ml_space_Yk(k: int, a: Sequence[int]) -> FunctionalSpace:
    """Mass-linear and inessential spaces of the simplex bundle over a
    segment, in its canonical facet order and gamma normalization."""
    a = _yk_twists(k, a)
    N = k + 3
    rows = [
        [1] * (k + 1) + [0, 0],
        list(a) + [0, 0, 0],
        [0] * (k + 1) + [1, 1],
    ]
    _, ml = int_nullspace(rows, N)
    levels = list(a) + [0]
    class_rows = [
        [1 if i <= k and levels[i] == alpha else 0 for i in range(N)]
        for alpha in sorted(set(levels))
    ]
    _, iness = int_nullspace(rows + class_rows, N)
    etas = _yk_conormals(k, a)
    return FunctionalSpace(_echelon_pairs(ml, etas), _echelon_pairs(iness, etas))


def ml_space_121(a: Sequence[int], d: int) -> FunctionalSpace:
    """Mass-linear and inessential spaces of the 121 tower, facet order
    T0, T1, F2..F6."""
    a, d = _121_twists(a, d)
    a1, a2, a3 = a
    rows = [
        [1, 1, 0, 0, 0, 0, 0],
        [d, 0, 0, 0, 0, 0, 0],
        [a1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 1, 0, 0],
        [0, 0, a2, a3, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 1],
    ]
    _, ml = int_nullspace(rows, 7)
    if a2 * a3 * (a2 - a3) != 0:
        pins = [
            [0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0],
        ]
        _, iness = int_nullspace(rows + pins, 7)
    else:
        iness = ml
    etas = _121_conormals(a, d)
    return FunctionalSpace(_echelon_pairs(ml, etas), _echelon_pairs(iness, etas))


def area_polynomial(polygon: HPolytope) -> MultiPoly:
    """Area of the polygon as a quadratic in its support numbers."""
    if polygon.dim != 2:
        raise PolytopeError("area polynomial needs a polygon")
    p = volume_poly(polygon)
    if p.degree() != 2:
        raise StructuralInconsistency("polygon area must be quadratic")
    return p


def ml_space_D2_polygon(spec: D2PolygonBundleSpec) -> FunctionalSpace:
    """Mass-linear and inessential spaces of a triangle bundle over a
    polygon: lifts of inessential base functions, plus the fiber line when
    the twists are collinear and the area polynomial vanishes at the twist
    ratios (or the line has a zero coordinate)."""
    polygon = spec.polygon
    k = polygon.n_facets
    N = 3 + k
    etas = _d2_conormals(polygon, spec.twists)

    lifted: list[IntVec] = []
    for cls in equivalence_classes(polygon).classes:
        members = sorted(cls)
        for m in members[1:]:
            g = [0] * N
            g[3 + members[0]] = 1
            g[3 + m] = -1
            lifted.append(tuple(g))

    fiber: list[IntVec] = []
    fiber_inessential = False
    nonzero = [t for t in spec.twists if t != (0, 0)]
    if not nonzero:
        fiber = [(1, 0, -1) + (0,) * k, (0, 1, -1) + (0,) * k]
        fiber_inessential = True
    else:
        u = primitive(nonzero[0])
        if all(b1 * u[1] == b2 * u[0] for b1, b2 in nonzero):
            # twist ratios s_i with twist_i = s_i * u; P is homogeneous, so
            # its vanishing at the r_i of the statement is its vanishing here
            s = [
                Fraction(b1, u[0]) if u[0] else Fraction(b2, u[1])
                for b1, b2 in spec.twists
            ]
            g1, g2 = -u[1], u[0]
            g3 = -g1 - g2
            P = area_polynomial(polygon)
            if P.eval(s) == 0 or g1 * g2 * g3 == 0:
                fiber = [(g1, g2, g3) + (0,) * k]
                fiber_inessential = g1 * g2 * g3 == 0
    ml = _echelon_pairs(lifted + fiber, etas)
    iness = _echelon_pairs(
        lifted + (fiber if fiber_inessential else []), etas
    )
    return FunctionalSpace(ml, iness)


# ---------------------------------------------------------------------------
# minimal families with many facets


def _corner_cut_polygon(k: int) -> HPolytope:
    """Triangle with k - 3 corners cut off: edges e1..ek in adjacency
    order, each new edge between its predecessor and e1."""
    p = HPolytope(2, ((-1, 0), (0, -1), (1, 1)), (0, 0, 1), ("e1", "e2", "e3"))
    for j in range(4, k + 1):
        p = _blowup(p, (j - 2, 0), None, p.n_facets, f"e{j}")
    return p


def minimal_family_a3(N: int) -> HPolytope:
    """Triangle bundle over a corner-cut polygon with N facets, minimal and
    carrying an essential mass-linear function (twist ratios
    0, 0, 1, ..., 1, 2 against the direction (1, -1))."""
    if N < 7:
        raise PolytopeError("the family needs at least 7 facets")
    k = N - 3
    base = _corner_cut_polygon(k)
    r = [0, 0] + [1] * (k - 3) + [2]
    twists = tuple((ri, -ri) for ri in r)
    scale = 1
    while scale <= 2 ** 20:
        scaled = base.with_support(tuple(scale * x for x in base.support))
        kappa = (Fraction(0), Fraction(0), Fraction(1)) + scaled.support
        try:
            return bundle_D2_polygon(D2PolygonBundleSpec(scaled, twists, kappa))
        except PolytopeError:
            scale *= 2
    raise StructuralInconsistency(
        "no base scaling realizes the bundle; the twist data must be wrong"
    )


def minimal_family_b(N: int) -> HPolytope:
    """Double expansion of a corner-cut polygon with N facets, minimal and
    carrying an inessential function asymmetric exactly on the four
    base-type facets."""
    if N < 5:
        raise PolytopeError("the family needs at least 5 facets")
    k = N - 2
    base = _corner_cut_polygon(k)
    if k == 5:
        j1, j2 = base.label_index("e5"), base.label_index("e1")
    else:
        j1, j2 = base.label_index(f"e{k}"), base.label_index(f"e{k - 2}")
    return double_expansion(base, j1, j2)
