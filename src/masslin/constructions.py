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
from typing import Sequence

from .errors import PolytopeError, StructuralInconsistency
from .linalg import (
    IntVec,
    Vec,
    dot,
    frac,
    int_det,
    int_nullspace,
    int_rank,
    int_rref,
    int_vec,
    primitive,
    scaled,
    vec,
)
from .masslinear import equivalence_classes
from .measure import volume_poly
from .poly import MultiPoly
from .polytope import HPolytope


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
        object.__setattr__(self, "a", int_vec(self.a))
        object.__setattr__(self, "kappa", vec(self.kappa))
        if self.k < 1:
            raise PolytopeError("fiber dimension must be at least 1")
        if len(self.a) != self.k:
            raise PolytopeError("twist vector must have length k")
        if len(self.kappa) != self.k + 3:
            raise PolytopeError("need k + 3 support numbers")


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


def bundle_Yk(spec: YkBundleSpec) -> HPolytope:
    """Simplex bundle over a segment with the canonical conormals."""
    k = spec.k
    lam, h = yk_structural_values(spec)
    bound = max(0, *spec.a) * lam
    if lam <= 0 or h <= bound:
        raise PolytopeError(
            "support vector lies outside the structural chamber: "
            f"fiber size {lam} must be positive and height {h} must exceed "
            f"{bound}"
        )
    labels = tuple(f"F{i + 1}" for i in range(k + 1)) + ("G1", "G2")
    poly = HPolytope(k + 1, _yk_conormals(k, spec.a), spec.kappa, labels)
    if len(poly.vertices) != 2 * (k + 1) or not poly.is_smooth():
        raise StructuralInconsistency("chamber test failed to reject a bad bundle")
    return poly


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
        object.__setattr__(self, "a", int_vec(self.a))
        object.__setattr__(self, "kappa", vec(self.kappa))
        if len(self.a) != 3:
            raise PolytopeError("need a 3-vector of twists")
        if self.d < 0:
            raise PolytopeError("the segment twist d must be nonnegative")
        if len(self.kappa) != 7:
            raise PolytopeError("need 7 support numbers")


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
    bad = None
    for v in poly.vertices:
        if abs(int_det([poly.conormals[i] for i in v.basis])) != 1:
            bad = v
            break
    if bad is not None:
        raise PolytopeError(f"{what}: vertex {bad.point} is not smooth")
    if len(poly.vertices) != expected_vertices:
        raise PolytopeError(
            f"{what}: expected {expected_vertices} vertices, found "
            f"{len(poly.vertices)} (support numbers leave the product chamber)"
        )


def bundle_121(spec: Bundle121Spec) -> HPolytope:
    labels = ("T0", "T1", "F2", "F3", "F4", "F5", "F6")
    poly = HPolytope(4, _121_conormals(spec.a, spec.d), spec.kappa, labels)
    _reject_unless_combinatorial_product(poly, 12, "121 bundle")
    return poly


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
        object.__setattr__(
            self, "twists", tuple(tuple(int(x) for x in t) for t in self.twists)
        )
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


def bundle_D2_polygon(spec: D2PolygonBundleSpec) -> HPolytope:
    k = spec.polygon.n_facets
    labels = ("F1", "F2", "F3") + tuple(f"G{i + 1}" for i in range(k))
    poly = HPolytope(4, _d2_conormals(spec.polygon, spec.twists), spec.kappa, labels)
    _reject_unless_combinatorial_product(poly, 3 * k, "triangle bundle over polygon")
    for v in poly.vertices:
        base = sorted(i - 3 for i in v.basis if i >= 3)
        if len(base) != 2 or (base[1] - base[0]) % k not in (1, k - 1):
            raise PolytopeError(
                f"triangle bundle over polygon: vertex {v.point} does not sit "
                "over a polygon vertex (support numbers leave the product "
                "chamber)"
            )
    return poly


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


def expansion(core: HPolytope, facet: int, fold: int = 1) -> HPolytope:
    """k-fold expansion of the core along one of its facets.

    The chosen facet is replaced by fold + 1 pairwise equivalent base-type
    facets living in fold new coordinates; every other facet survives as a
    fiber-type facet with the same support number.
    """
    if not core.is_smooth():
        raise PolytopeError("expansion requires a smooth core")
    if not 0 <= facet < core.n_facets:
        raise PolytopeError("no such facet")
    if fold < 1:
        raise PolytopeError("fold must be at least 1")
    pad = (0,) * fold
    conormals = [core.conormals[j] + pad for j in range(core.n_facets) if j != facet]
    support = [core.support[j] for j in range(core.n_facets) if j != facet]
    labels = [core.labels[j] for j in range(core.n_facets) if j != facet]
    zero = (0,) * core.dim
    for i in range(fold):
        conormals.append(zero + tuple(-1 if j == i else 0 for j in range(fold)))
        support.append(Fraction(0))
    conormals.append(core.conormals[facet] + (1,) * fold)
    support.append(core.support[facet])
    labels += _fresh_labels(labels, "B", fold + 1)
    out = HPolytope(core.dim + fold, tuple(conormals), tuple(support), tuple(labels))
    if not out.is_smooth():
        raise StructuralInconsistency("expansion of a smooth core must be smooth")
    return out


def double_expansion(core: HPolytope, j1: int, j2: int) -> HPolytope:
    """Expand once along facet j1 and once along facet j2 (j1 != j2).

    Base-type facets come last, in the order B1, B2 (from j1) then
    B3, B4 (from j2).
    """
    if not core.is_smooth():
        raise PolytopeError("expansion requires a smooth core")
    if j1 == j2:
        raise PolytopeError("double expansion needs two distinct facets")
    for j in (j1, j2):
        if not 0 <= j < core.n_facets:
            raise PolytopeError("no such facet")
    conormals = [
        core.conormals[j] + (0, 0) for j in range(core.n_facets) if j not in (j1, j2)
    ]
    support = [core.support[j] for j in range(core.n_facets) if j not in (j1, j2)]
    labels = [core.labels[j] for j in range(core.n_facets) if j not in (j1, j2)]
    zero = (0,) * core.dim
    conormals += [
        zero + (-1, 0),
        core.conormals[j1] + (1, 0),
        zero + (0, -1),
        core.conormals[j2] + (0, 1),
    ]
    support += [Fraction(0), core.support[j1], Fraction(0), core.support[j2]]
    labels += _fresh_labels(labels, "B", 4)
    out = HPolytope(core.dim + 2, tuple(conormals), tuple(support), tuple(labels))
    if not out.is_smooth():
        raise StructuralInconsistency("double expansion of a smooth core must be smooth")
    return out


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
    if not poly.is_smooth():
        raise PolytopeError("blowup requires a smooth polytope")
    I = sorted(set(face_indices))
    if any(not 0 <= i < poly.n_facets for i in I):
        raise PolytopeError("no such facet")
    names = ", ".join(poly.labels[i] for i in I)
    if len(I) < 2:
        raise PolytopeError("blowup needs a face of codimension at least 2")
    f = poly.face(I)
    if f is None:
        raise PolytopeError(f"facets {names} do not meet in a face")
    if f.index_set != frozenset(I):
        raise PolytopeError(
            f"facets {names} cut a face of codimension "
            f"{poly.dim - f.dimension}, not {len(I)}"
        )
    eta0 = tuple(sum(poly.conormals[i][j] for i in I) for j in range(poly.dim))
    if primitive(eta0) != eta0:
        raise StructuralInconsistency("conormal sum over a smooth face is primitive")
    ksum = sum((poly.support[i] for i in I), Fraction(0))
    on_face = set(f.vertex_ids)
    slack = min(
        ksum - dot(eta0, v.point)
        for w, v in enumerate(poly.vertices)
        if w not in on_face
    )
    if eps is None:
        eps = slack / 2
    eps = frac(eps)
    if not 0 < eps < slack:
        raise PolytopeError(
            f"eps must lie strictly between 0 and {slack} for this face"
        )
    out = HPolytope(
        poly.dim,
        (eta0,) + poly.conormals,
        (ksum - eps,) + poly.support,
        (_exceptional_label(poly.labels),) + poly.labels,
        poly.name,
    )
    if not out.is_smooth():
        raise StructuralInconsistency("blowup of a smooth polytope must be smooth")
    return out


@dataclass(frozen=True)
class BlowdownReport:
    """Outcome of a blowdown attempt.

    ok=True: polytope is the relaxed polytope (facet removed), index_set the
    recovered fiber facets in the input's indexing, epsilon the cut depth,
    alternatives any other index sets that also satisfy every condition.
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
    {F_i cap F_e : i in I}?  Purely combinatorial plus the conormal-sum
    proportionality that any simplex fiber forces."""
    s = tuple(sum(poly.conormals[i][j] for i in I) for j in range(poly.dim))
    if int_rank([s, poly.conormals[e]]) > 1:
        return False
    if poly.face(set(I) | {e}) is not None:
        return False
    face_e = poly.face({e})
    ids = face_e.vertex_ids
    missing: dict[int, int] = {}
    for w in ids:
        basis = poly.vertices[w].basis
        gone = [i for i in I if i not in basis]
        if len(gone) != 1:
            return False
        missing[w] = gone[0]
    if set(missing.values()) != set(I):
        return False
    neighbors = {
        j
        for w in ids
        for j in poly.vertices[w].basis
        if j != e and j not in I
    }
    patterns: dict[int, set[frozenset[int]]] = {i: set() for i in I}
    for w in ids:
        patterns[missing[w]].add(poly.vertices[w].basis & neighbors)
    base_patterns = next(iter(patterns.values()))
    if any(p != base_patterns for p in patterns.values()):
        return False
    return len(ids) == len(I) * len(base_patterns)


def _drop_facet(poly: HPolytope, e: int) -> HPolytope:
    keep = [i for i in range(poly.n_facets) if i != e]
    return HPolytope(
        poly.dim,
        tuple(poly.conormals[i] for i in keep),
        tuple(poly.support[i] for i in keep),
        tuple(poly.labels[i] for i in keep),
        poly.name,
    )


def blowdown(poly: HPolytope, facet: int = 0) -> BlowdownReport:
    """Try to undo a blowup whose exceptional facet is the given one.

    Candidate fiber sets are enumerated from the facet's bundle structures;
    each surviving candidate is verified by an exact round trip.  Failure is
    an outcome, not an error.
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
    valid: list[tuple[tuple[int, ...], HPolytope, Fraction]] = []
    first_detail = ""
    for I in summed:
        try:
            bar = _drop_facet(poly, e)
            bar_vertices = bar.vertices
        except PolytopeError as exc:
            if not first_detail:
                first_detail = f"relaxing facet {poly.labels[e]} fails: {exc}"
            continue
        escaped = None
        planes = [poly.conormals[i] for i in I]
        offsets = [poly.support[i] for i in I]
        for v in bar_vertices:
            if dot(eta_e, v.point) <= poly.support[e]:
                continue
            if any(dot(pl, v.point) != off for pl, off in zip(planes, offsets)):
                escaped = v
                break
        if escaped is not None:
            if not first_detail:
                culprits = ", ".join(
                    bar.labels[i] for i in sorted(escaped.basis)
                )
                first_detail = (
                    f"new vertex {escaped.point} (on {culprits}) misses the "
                    "blown-down face"
                )
            continue
        eps = sum((poly.support[i] for i in I), Fraction(0)) - poly.support[e]
        if eps <= 0:
            raise StructuralInconsistency("a genuine facet forces positive depth")
        if not bar.is_smooth():
            raise StructuralInconsistency(
                "all blowdown conditions hold but the relaxed polytope is not smooth"
            )
        shifted = tuple(i - 1 if i > e else i for i in I)
        order = [e] + [i for i in range(poly.n_facets) if i != e]
        if blowup(bar, shifted, eps) != poly.permute_facets(order):
            if not first_detail:
                names = ", ".join(poly.labels[i] for i in I)
                first_detail = (
                    f"cutting the relaxed polytope along {names} does not "
                    "reproduce the input"
                )
            continue
        valid.append((tuple(I), bar, eps))
    if not valid:
        return BlowdownReport(
            ok=False,
            failed_condition="face pattern",
            detail=first_detail or "removing the facet changes distant incidences",
        )
    (I0, bar0, eps0) = valid[0]
    return BlowdownReport(
        ok=True,
        polytope=bar0,
        index_set=I0,
        epsilon=eps0,
        alternatives=tuple(I for I, _, _ in valid[1:]),
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
    gammas: Sequence[Sequence], conormals: Sequence[IntVec]
) -> tuple[tuple[Vec, Vec], ...]:
    if not gammas:
        return ()
    reduced, _ = int_rref(scaled(gammas)[1])
    n = len(conormals[0])
    out = []
    for g in reduced:
        if all(x == 0 for x in g):
            continue
        h = tuple(
            sum((gi * eta[j] for gi, eta in zip(g, conormals)), Fraction(0))
            for j in range(n)
        )
        out.append((h, g))
    return tuple(out)


def ml_space_Yk(k: int, a: Sequence[int]) -> FunctionalSpace:
    """Mass-linear and inessential spaces of the simplex bundle over a
    segment, in its canonical facet order and gamma normalization."""
    a = int_vec(a)
    if len(a) != k:
        raise PolytopeError("twist vector must have length k")
    N = k + 3
    rows = [
        [1] * (k + 1) + [0, 0],
        list(a) + [0, 0, 0],
        [0] * (k + 1) + [1, 1],
    ]
    ml = int_nullspace(rows, N)
    levels = list(a) + [0]
    class_rows = [
        [1 if i <= k and levels[i] == alpha else 0 for i in range(N)]
        for alpha in sorted(set(levels))
    ]
    iness = int_nullspace(rows + class_rows, N)
    etas = _yk_conormals(k, a)
    return FunctionalSpace(_echelon_pairs(ml, etas), _echelon_pairs(iness, etas))


def ml_space_121(a: Sequence[int], d: int) -> FunctionalSpace:
    """Mass-linear and inessential spaces of the 121 tower, facet order
    T0, T1, F2..F6."""
    a = int_vec(a)
    if len(a) != 3:
        raise PolytopeError("need a 3-vector of twists")
    a1, a2, a3 = a
    rows = [
        [1, 1, 0, 0, 0, 0, 0],
        [d, 0, 0, 0, 0, 0, 0],
        [a1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 1, 0, 0],
        [0, 0, a2, a3, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 1],
    ]
    ml = int_nullspace(rows, 7)
    if a2 * a3 * (a2 - a3) != 0:
        pins = [
            [0, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, 0],
        ]
        iness = int_nullspace(rows + pins, 7)
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

    lifted: list[Vec] = []
    for cls in equivalence_classes(polygon).classes:
        members = sorted(cls)
        for m in members[1:]:
            g = [Fraction(0)] * N
            g[3 + members[0]] = Fraction(1)
            g[3 + m] = Fraction(-1)
            lifted.append(tuple(g))

    fiber: list[Vec] = []
    fiber_inessential = False
    nonzero = [t for t in spec.twists if t != (0, 0)]
    if not nonzero:
        fiber = [
            (Fraction(1), Fraction(0), Fraction(-1)) + (Fraction(0),) * k,
            (Fraction(0), Fraction(1), Fraction(-1)) + (Fraction(0),) * k,
        ]
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
                fiber = [
                    (frac(g1), frac(g2), frac(g3)) + (Fraction(0),) * k
                ]
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
        prev = f"e{j - 1}"
        bl = blowup(p, (p.label_index(prev), p.label_index("e1")))
        order = [bl.label_index(f"e{m}") for m in range(1, j)] + [0]
        p = bl.permute_facets(order)
        p = HPolytope(2, p.conormals, p.support, p.labels[:-1] + (f"e{j}",))
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
