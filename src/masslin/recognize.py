"""Recognizers for the structured families and the classification
pipeline for 4-dimensional mass linear pairs.

A recognition certificate records how an input polytope matches one of
the constructors: which facets play which role, the recovered
constructor parameters, and a unimodular map plus translation carrying
the input into constructor coordinates.  reconstruct() reruns the
constructor on the recovered parameters.  certificate_holds() is the
one verifier, and builds no polytope: it compares the input's facet
data, mapped, translated and reordered by the one chart map _mapped(),
with the facet data of the constructor's facet-data step, and on a
match runs the constructor's post-build checks on the input itself.
Every recognizer reads the roles it proposes off the input's own facet
incidence and conormal relations, with no slice polytope, reads mapped
facet data from _mapped() too (the polygon recognizer at
the translation that moves its corner vertex to the origin, where the
base polygon is read) and returns a certificate only when
certificate_holds() accepts it, so a certificate is checkable evidence
rather than a bare claim.

classify4d() takes every 4-dimensional mass linear pair through one
flow: it greedily blows the pair down to a terminal model, tags each
blowdown step by the kind of face that had been blown up (symmetric
2-face, cancelling-coefficient edge on a symmetric facet, vertex, or
other), and names the terminal family:

  * "a1"  segment bundle with 3-simplex fiber,
  * "a2"  segment bundle over a (triangle bundle over a segment),
  * "a3"  triangle bundle over a polygon,
  * "b"   double expansion of a polygon on which the functional is
          inessential with the four base-type facets asymmetric,

plus "inessential" and "zero", with the empty trace, for functionals
that never were essential and "unclassified" when no structured family
matches.  Replaying the trace as blowups on the terminal reconstructs
the input exactly, and the support-number coefficients of the
functional are unchanged at every stage; both are asserted before a
result is returned.  The recognizers are memoized per polytope, so
recognizing the terminal again checks no certificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import mul

from .constructions import (
    CONSTRUCTOR_STEPS,
    Bundle121Spec,
    D2PolygonBundleSpec,
    YkBundleSpec,
    _blowup,
    _expansion,
    blowdown,
    blowup,
    bundle_121,
    bundle_D2_polygon,
    bundle_Yk,
)
from .errors import PolytopeError, StructuralInconsistency
from .linalg import (
    IntVec,
    Vec,
    int_adjugate,
    int_det,
    int_rank,
    int_vec,
    integer_kernel_basis,
    vec,
    zero_vec,
)
from .masslinear import (
    InessentialWitness,
    MassLinearReport,
    _beta,
    equivalence_classes,
    mass_linear_test,
)
from .polytope import HPolytope, memoize


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class RecognitionCertificate:
    """How an input polytope matches one constructor family.

    base / fiber list the input facet indices playing the base(-type)
    and fiber(-type) roles.  facet_order lists input facet indices in
    the constructor's facet order: the input's conormals mapped by
    transform, with support numbers translated by translation and taken
    in facet_order, are the facet data of reconstruct(certificate), and
    certificate_holds checks them against the constructor's facet-data
    step, with its post-build checks run on the input.

    params carries the recovered constructor spec for the bundle
    families; core, core_expanded and fold carry the recovered core
    polytope and expansion data for the expansion families.  A segment
    bundle whose fiber is not a simplex has no constructor parameters
    and only the role assignment is recorded.
    """

    family: str
    base: tuple[int, ...]
    fiber: tuple[int, ...]
    params: object | None = None
    core: HPolytope | None = None
    core_expanded: tuple[int, ...] = ()
    fold: int = 0
    transform: tuple[IntVec, ...] | None = None
    translation: Vec | None = None
    facet_order: tuple[int, ...] | None = None
    alternatives: tuple["RecognitionCertificate", ...] = ()


def _constructor_call(cert: RecognitionCertificate):
    """The certificate family's constructor and its recovered arguments."""
    if cert.family == "segment_bundle":
        if cert.params is None:
            raise ValueError(
                "no constructor parameters were recovered (non-simplex fiber)"
            )
        return bundle_Yk, (cert.params,)
    if cert.family == "bundle_121":
        return bundle_121, (cert.params,)
    if cert.family == "polygon_bundle":
        return bundle_D2_polygon, (cert.params,)
    if cert.family == "expansion":
        return _expansion, (cert.core, ((cert.core_expanded[0], cert.fold),))
    if cert.family == "double_expansion":
        return _expansion, (cert.core, tuple((j, 1) for j in cert.core_expanded))
    raise ValueError(f"unknown certificate family {cert.family!r}")


def reconstruct(cert: RecognitionCertificate) -> HPolytope:
    """Rerun the matching constructor on the recovered parameters."""
    build, args = _constructor_call(cert)
    return build(*args)


def certificate_holds(poly: HPolytope, cert: RecognitionCertificate) -> bool:
    """Re-verify a certificate against the polytope it was issued for.

    The input's facet data, mapped by the unimodular transform, translated
    and put in facet_order, must equal the dimension, conormals and support
    numbers of the constructor's facet-data step, which raises
    PolytopeError on a parameter the constructor rejects.  Equal facet
    data make the same polytope, so the constructor's post-build checks
    then run on the input, read through facet_order, and no polytope is
    built.  Unequal facet data give False, also where the constructor
    would have rejected its build (which raised PolytopeError before).  A
    segment bundle with non-simplex fiber has no transform; its base pair
    is checked.
    """
    if cert.transform is None:
        i, j = cert.base
        return (
            poly.face({i, j}) is None
            and frozenset(cert.base) in equivalence_classes(poly).classes
        )
    T = [int_vec(row) for row in cert.transform]
    if abs(int_det(T)) != 1:
        raise PolytopeError("lattice map must be unimodular")
    order = cert.facet_order
    if sorted(order) != list(range(poly.n_facets)):
        raise PolytopeError("order must be a permutation of facet indices")
    build, args = _constructor_call(cert)
    facet_data, check = CONSTRUCTOR_STEPS[build]
    data = facet_data(*args)
    mapped = tuple(tuple(part[x] for x in order) for part in _mapped(poly, T, cert.translation))
    if (poly.dim, *mapped) != data:
        return False
    check(poly, {x: p for p, x in enumerate(order)})
    return True


def _holds(poly: HPolytope, cert: RecognitionCertificate) -> bool:
    """certificate_holds, with a constructor that rejects the recovered
    parameters counting as no match."""
    try:
        return certificate_holds(poly, cert)
    except PolytopeError:
        return False


# ---------------------------------------------------------------------------
# the chart map


def _chart(columns) -> tuple[IntVec, ...] | None:
    """The integer map S with S c_j = -e_j for the given columns c_j, that
    is minus the inverse of the matrix they form, or None when they are
    not a lattice basis."""
    d, adj = int_adjugate(list(zip(*columns)))
    if abs(d) != 1:
        return None
    return tuple(tuple(-d * x for x in row) for row in adj)


def _mapped(poly: HPolytope, S, xi=()) -> tuple[tuple[IntVec, ...], Vec]:
    """The one chart map: every facet's conormal mapped by the integer
    matrix S, in plain integers, and its support number moved by the
    translation xi to kappa + <S eta, xi>, in facet index order."""
    conormals = tuple(tuple(sum(map(mul, row, eta)) for row in S) for eta in poly.conormals)
    support = tuple(k + sum(map(mul, eta, xi)) for eta, k in zip(conormals, poly.support))
    return conormals, support


# ---------------------------------------------------------------------------
# bundles over a segment


@memoize
def recognize_bundle_over_segment(poly: HPolytope) -> RecognitionCertificate | None:
    """Detect a bundle over a segment.

    A two-facet equivalence class whose members do not meet is a base
    pair; every other facet is a fiber facet.  When the fiber is a
    simplex (facet count dim + 2) the constructor parameters are
    recovered: the last fiber facet in index order takes the all-ones
    conormal slot and the smaller base index takes the untwisted slot.
    Further base pairs are attached as alternatives in index order.
    """
    if not poly.is_smooth():
        raise PolytopeError("recognition requires a smooth polytope")
    certs = []
    for cls in equivalence_classes(poly).classes:
        if len(cls) != 2:
            continue
        i, j = sorted(cls)
        if poly.face({i, j}) is not None:
            continue
        certs.append(_segment_bundle_certificate(poly, i, j))
    if not certs:
        return None
    return replace(certs[0], alternatives=tuple(certs[1:]))


def _segment_bundle_certificate(
    poly: HPolytope, i: int, j: int
) -> RecognitionCertificate:
    n, N = poly.dim, poly.n_facets
    others = tuple(m for m in range(N) if m not in (i, j))
    if N != n + 2 or n < 2:
        return RecognitionCertificate("segment_bundle", base=(i, j), fiber=others)
    k = n - 1
    body, last = others[:-1], others[-1]
    S = _chart(poly.conormals[f] for f in body + (i,))
    if S is None:
        raise StructuralInconsistency(
            "base pair of a segment bundle admits no vertex basis"
        )
    images = _mapped(poly, S)[0]
    order = body + (last, i, j)
    cert = RecognitionCertificate(
        "segment_bundle",
        base=(i, j),
        fiber=others,
        params=YkBundleSpec(k, images[j][:k], tuple(poly.support[m] for m in order)),
        transform=S,
        translation=zero_vec(n),
        facet_order=order,
    )
    try:
        holds = certificate_holds(poly, cert)
    except PolytopeError as exc:
        raise StructuralInconsistency(
            f"recovered segment-bundle parameters are not buildable: {exc}"
        ) from exc
    if not holds:
        raise StructuralInconsistency(
            "normalized polytope differs from the segment bundle it determines"
        )
    return cert


# ---------------------------------------------------------------------------
# expansions


def _quotient_normalization(
    poly: HPolytope, b_roles, group_sums
) -> tuple[tuple[IntVec, ...], ...] | None:
    """Unimodular map splitting coordinates into core block | new block.

    The core block is the saturated span of the conormals of the facets
    outside the roles together with the per-group conormal sums (each
    lifted-slot conormal lands back in the core block only jointly with
    its group's pure-slot partners); each b_role conormal is sent to
    minus a new-block coordinate vector.  Returns None when that span
    has the wrong rank or the b_roles do not complement it unimodularly.
    """
    n, N = poly.dim, poly.n_facets
    members = set(b_roles) | {x for grp in group_sums for x in grp}
    f = len(b_roles)
    m = n - f
    core_rows = [poly.conormals[x] for x in range(N) if x not in members]
    for grp in group_sums:
        core_rows.append(
            tuple(sum(poly.conormals[x][r] for x in grp) for r in range(n))
        )
    if int_rank(core_rows) != m:
        return None
    # killed is a basis of a rank-(n - m) kernel, so vsat has m rows
    killed = integer_kernel_basis(core_rows, n)
    vsat = integer_kernel_basis(killed, n)
    return _chart([*(tuple(-c for c in v) for v in vsat), *(poly.conormals[b] for b in b_roles)])


def _expansion_certificate(poly: HPolytope, groups) -> RecognitionCertificate | None:
    """Propose groups of base-type facets as an expansion and verify it.

    One group of f + 1 facets is an f-fold expansion, two disjoint pairs
    a double expansion.  In each group the last index takes the
    lifted-core-conormal slot and the others the pure slots, which map
    to the new coordinate directions in order; a lifted slot's new
    coordinate block is the indicator of its group's pure slots.
    """
    pure = tuple(x for grp in groups for x in grp[:-1])
    f = len(pure)
    m = poly.dim - f
    S = _quotient_normalization(poly, pure, groups)
    if S is None:
        return None
    base = tuple(x for grp in groups for x in grp)
    fiber = tuple(x for x in range(poly.n_facets) if x not in base)
    blocks = {x: (0,) * f for x in fiber}
    for grp in groups:
        blocks[grp[-1]] = tuple(int(b in grp) for b in pure)
    # the lattice map keeps support numbers: move the pure slots to zero
    xi = zero_vec(m) + tuple(poly.support[b] for b in pure)
    images, support = _mapped(poly, S, xi)
    if any(images[x][m:] != block for x, block in blocks.items()):
        return None
    try:
        core = HPolytope(
            m,
            tuple(images[x][:m] for x in blocks),
            tuple(support[x] for x in blocks),
            tuple(poly.labels[x] for x in blocks),
        )
    except PolytopeError:
        return None
    k = core.n_facets
    cert = RecognitionCertificate(
        "expansion" if len(groups) == 1 else "double_expansion",
        base=base,
        fiber=fiber,
        core=core,
        core_expanded=tuple(range(k - len(groups), k)),
        fold=f,
        transform=S,
        translation=xi,
        facet_order=fiber + base,
    )
    return cert if _holds(poly, cert) else None


def _meeting_pairs(poly: HPolytope, cls) -> list[tuple[int, int]]:
    """The pairs of facets of a class that meet, in ``combinations`` order."""
    return [pq for pq in itertools.combinations(sorted(cls), 2) if poly.face(set(pq)) is not None]


def recognize_expansion(poly: HPolytope) -> RecognitionCertificate | None:
    """Detect an expansion along an equivalence class that cuts a face.

    Full classes are tried first (fold = class size - 1), then pairs
    inside larger classes (1-fold substructures, which is how a simplex
    is recognized); each candidate is verified by certificate_holds.
    """
    if not poly.is_smooth():
        raise PolytopeError("recognition requires a smooth polytope")
    eq = equivalence_classes(poly)
    candidates = []
    for cls in eq.classes:
        if len(cls) >= 2 and poly.face(cls) is not None:
            candidates.append(tuple(sorted(cls)))
    for cls in eq.classes:
        if len(cls) >= 3:
            candidates += _meeting_pairs(poly, cls)
    for I in candidates:
        cert = _expansion_certificate(poly, (I,))
        if cert is not None:
            return cert
    return None


@memoize
def _double_expansion_candidates(poly: HPolytope) -> tuple[RecognitionCertificate, ...]:
    """All verified double-expansion structures, in index order; memoized
    per polytope, like every recognizer that classify4d repeats."""
    if not poly.is_smooth():
        raise PolytopeError("recognition requires a smooth polytope")
    if poly.dim < 3:
        return ()
    pairs = sorted(pq for cls in equivalence_classes(poly).classes for pq in _meeting_pairs(poly, cls))
    certs = []
    for P, Q in itertools.combinations(pairs, 2):
        if set(P) & set(Q):
            continue
        cert = _expansion_certificate(poly, (P, Q))
        if cert is not None:
            certs.append(cert)
    return tuple(certs)


def recognize_double_expansion(poly: HPolytope) -> RecognitionCertificate | None:
    """Detect a double expansion: two disjoint pairs of equivalent,
    mutually intersecting facets.  The core is the face cut by the two
    pure-slot members, recovered as a polytope in its own lattice."""
    return next(iter(_double_expansion_candidates(poly)), None)


# ---------------------------------------------------------------------------
# the two remaining 4-dimensional bundle shapes


@memoize
def _recognize_121(poly: HPolytope) -> RecognitionCertificate | None:
    """Segment bundle over a (triangle bundle over a segment).

    The segment fiber shows up as a pair of opposite parallel facets.
    The tower's other roles are read off the facet incidence: of the
    remaining five facets, the one pair that does not meet is the base
    segment (F5, F6, in index order) and the other three, in index
    order, are the triangle facets F2, F3, F4.  The orientation of the
    parallel pair is chosen to make the inner segment twist
    nonnegative; certificate_holds decides every proposal.
    """
    n, N = poly.dim, poly.n_facets
    if n != 4 or N != 7:
        return None
    for p, q in itertools.combinations(range(N), 2):
        if tuple(-c for c in poly.conormals[p]) != poly.conormals[q]:
            continue
        others = [x for x in range(N) if x not in (p, q)]
        apart = [pq for pq in itertools.combinations(others, 2) if poly.face(set(pq)) is None]
        if len(apart) != 1:
            continue
        f5, f6 = apart[0]
        f2, f3, f4 = (x for x in others if x not in apart[0])
        for t0, t1 in ((p, q), (q, p)):
            S = _chart(poly.conormals[f] for f in (t1, f2, f3, f5))
            if S is None:
                continue
            images = _mapped(poly, S)[0]
            v4, v6 = images[f4], images[f6]
            if v4[1:] != (1, 1, 0) or v4[0] < 0 or v6[3] != 1:
                continue
            order = (t0, t1, f2, f3, f4, f5, f6)
            spec = Bundle121Spec(v6[:3], v4[0], tuple(poly.support[x] for x in order))
            cert = RecognitionCertificate(
                "bundle_121",
                base=(f2, f3, f4, f5, f6),
                fiber=(t0, t1),
                params=spec,
                transform=S,
                translation=zero_vec(4),
                facet_order=order,
            )
            if _holds(poly, cert):
                return cert
    return None


@memoize
def _recognize_polygon_bundle(poly: HPolytope) -> RecognitionCertificate | None:
    """Triangle bundle over a polygon.

    The fiber shows up as three facets whose conormals sum to zero, two
    of them on a vertex (so they span rank 2); the remaining facets must
    close into a single adjacency cycle.  A vertex over a polygon corner
    fixes the chart: its two base facets start the cycle with zero
    twists, and the base polygon and spec are read with the corner moved
    to the origin.  Where the base facets form several cycles, the walk
    repeats a facet and the polygon's duplicate half-space is rejected.
    """
    n, N = poly.dim, poly.n_facets
    if n != 4 or N < 6:
        return None
    for triple in itertools.combinations(range(N), 3):
        u, v, w = triple
        s = tuple(sum(poly.conormals[x][r] for x in triple) for r in range(n))
        if any(s):
            continue
        vert = next(
            (
                vv
                for vv in poly.vertices
                if u in vv.basis and v in vv.basis and w not in vv.basis
            ),
            None,
        )
        if vert is None:
            continue
        g, gp = sorted(x for x in vert.basis if x not in (u, v))
        S = _chart(poly.conormals[f] for f in (u, v, g, gp))
        if S is None:
            continue
        base = [x for x in range(N) if x not in triple]
        # the corner over which vert sits moves to the origin
        xi = tuple(poly.support[x] for x in (u, v, g, gp))
        images, support = _mapped(poly, S, xi)
        if any(images[x][2:] == (0, 0) for x in base):
            continue
        nb = {
            x: [y for y in base if y != x and poly.face({x, y}) is not None]
            for x in base
        }
        if any(len(ys) != 2 for ys in nb.values()):
            continue
        cycle = [g, gp]
        while len(cycle) < len(base):
            cycle += [y for y in nb[cycle[-1]] if y != cycle[-2]]
        try:
            polygon = HPolytope(
                2,
                tuple(images[x][2:] for x in cycle),
                tuple(support[x] for x in cycle),
                tuple(poly.labels[x] for x in cycle),
            )
            spec = D2PolygonBundleSpec(
                polygon,
                tuple(images[x][:2] for x in cycle),
                tuple(support[x] for x in triple + tuple(cycle)),
            )
        except PolytopeError:
            continue
        cert = RecognitionCertificate(
            "polygon_bundle",
            base=tuple(cycle),
            fiber=triple,
            params=spec,
            transform=S,
            translation=xi,
            facet_order=triple + tuple(cycle),
        )
        if _holds(poly, cert):
            return cert
    return None


# ---------------------------------------------------------------------------
# family types for 4-dimensional mass linear pairs


@dataclass(frozen=True)
class TypeRecognition:
    """Family tags for a (polytope, functional) pair, with certificates.

    tags lists every matching family in preference order (a1, a2, a3
    for essential functionals; b for inessential ones); empty means no
    structured family matched.  certificates pairs each tag with its
    recognition certificate.
    """

    tags: tuple[str, ...]
    certificates: tuple[tuple[str, RecognitionCertificate], ...]


def _recognize_simplex_segment_bundle(
    poly: HPolytope,
) -> RecognitionCertificate | None:
    """A segment bundle whose fiber is a simplex, i.e. one whose
    constructor parameters were recovered."""
    cert = recognize_bundle_over_segment(poly)
    return cert if cert is not None and cert.params is not None else None


def _b_certificate(poly: HPolytope, asymmetric) -> RecognitionCertificate | None:
    """The first double expansion of a polygon whose base-type facets
    are exactly the asymmetric facets: the shape of family b."""
    for cert in _double_expansion_candidates(poly):
        if cert.core.dim == 2 and frozenset(cert.base) == asymmetric:
            return cert
    return None


# the bundle shapes of essential pairs, in preference order
_BUNDLE_RECOGNIZERS = (
    ("a1", _recognize_simplex_segment_bundle),
    ("a2", _recognize_121),
    ("a3", _recognize_polygon_bundle),
)


def recognize_type(poly: HPolytope, H) -> TypeRecognition:
    """Match a 4-dimensional mass linear pair against the four families.

    Essential functionals are tested against the bundle shapes a1, a2,
    a3 (a polytope may match both a2 and a3); inessential ones against
    the double-expansion shape b, which additionally requires the four
    base-type facets to be exactly the asymmetric facets.  A non
    mass-linear functional or a polytope of the wrong dimension simply
    matches nothing.  The pair is fitted once, by ``mass_linear_test``,
    and ``_recognize`` reads the rest off its report.
    """
    if poly.dim != 4 or not poly.is_smooth():
        return TypeRecognition((), ())
    return _recognize(poly, mass_linear_test(poly, H))


def _recognize(poly: HPolytope, report: MassLinearReport) -> TypeRecognition:
    """``recognize_type`` of a smooth 4-d polytope and the functional of
    report: whether it is essential is read off the report's gamma
    (``_beta``), so no fit runs again."""
    if not report.verdict:
        return TypeRecognition((), ())
    if _beta(poly, report.gamma) is None:
        found = [(tag, cert) for tag, recognizer in _BUNDLE_RECOGNIZERS if (cert := recognizer(poly)) is not None]
    else:
        cert = _b_certificate(poly, report.asymmetric)
        found = [("b", cert)] if cert is not None else []
    return TypeRecognition(tuple(t for t, _ in found), tuple(found))


# ---------------------------------------------------------------------------
# classification pipeline


@dataclass(frozen=True)
class BlowdownStep:
    """One blowdown performed during classification.

    index_set and face both name the facets that cut out the blown-up
    face.  facet and index_set are in the indexing of the polytope the
    step was applied to; face is in the indexing of the polytope the
    step produced (the blown-down one, where facets after the removed
    one move down by one), and replaying the step blows it up.  label is
    the removed facet's label, restored when the trace is replayed; tag
    names the kind of face that had been blown up, judged on the
    blown-down polytope."""

    facet: int
    label: str
    index_set: tuple[int, ...]
    epsilon: Fraction
    tag: str
    face: tuple[int, ...]


@dataclass(frozen=True)
class TerminalRecognition:
    """A polytope recognized as a constructor output, independently of
    any functional.

    certificate is the first match, in recognize_type's order, among a
    segment bundle with simplex fiber (a1 shape), a segment bundle over
    a triangle bundle over a segment (a2), a triangle bundle over a
    polygon (a3) and a double expansion."""

    certificate: RecognitionCertificate


def _recognize_terminal(poly: HPolytope) -> TerminalRecognition | None:
    for _, recognizer in _BUNDLE_RECOGNIZERS:
        cert = recognizer(poly)
        if cert is not None:
            return TerminalRecognition(cert)
    cert = recognize_double_expansion(poly)
    return TerminalRecognition(cert) if cert is not None else None


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of the 4-dimensional classification pipeline.

    type is one of a1 / a2 / a3 / b / inessential / zero /
    unclassified.  trace lists the blowdowns performed, terminal the
    polytope they ended on, with its mass-linearity report and the
    inessential witness read off its gamma (None when essential there).
    certificate backs the family tag; alternatives lists further matching
    families (a polytope matching both a2 and a3 is reported as a2 with
    the a3 certificate here).  detail explains unclassified outcomes.

    stages are the polytopes walked, the input first and the terminal
    last; trace[k] was applied to stages[k].

    terminal_recognition names the terminal polytope's constructor
    shape without reference to the functional (see TerminalRecognition),
    or is None when no shape matches.  For a1 / a2 / a3 it holds the
    tag's certificate; under b it may be a bundle (the Y3 bundle under
    the golden b pair, say) or a double expansion other than the tag's."""

    type: str
    trace: tuple[BlowdownStep, ...]
    terminal: HPolytope
    terminal_report: MassLinearReport
    terminal_inessential: InessentialWitness | None
    certificate: RecognitionCertificate | None
    alternatives: tuple[tuple[str, RecognitionCertificate], ...]
    detail: str = ""
    terminal_recognition: TerminalRecognition | None = None
    stages: tuple[HPolytope, ...] = ()


def _is_edge_type(poly: HPolytope, report: MassLinearReport, i, j, g) -> bool:
    """Is the edge cut by asymmetric facets i, j and symmetric facet g
    one whose blowup keeps the functional mass linear: coefficients of
    i and j cancel and the edge meets every asymmetric facet?"""
    if g not in report.symmetric:
        return False
    if i not in report.asymmetric or j not in report.asymmetric:
        return False
    if report.gamma[i] + report.gamma[j] != 0:
        return False
    f = poly.face({i, j, g})
    if f is None or f.dimension != 1:
        return False
    return all(
        x in (i, j, g) or poly.face({i, j, g, x}) is not None
        for x in report.asymmetric
    )


def _first_edge(poly: HPolytope, report: MassLinearReport, candidates) -> tuple | None:
    """The first (i, j, g) among the candidates that ``_is_edge_type``
    accepts, or None."""
    return next((c for c in candidates if _is_edge_type(poly, report, *c)), None)


def _blowup_type_tag(bar: HPolytope, report: MassLinearReport, I) -> str:
    """Classify the face of bar whose blowup the removed facet was."""
    if len(I) == 2:
        if all(x in report.symmetric for x in I):
            return "symmetric_2face"
        return "other"
    if len(I) == 4:
        return "vertex"
    if len(I) == 3:
        asym = [x for x in I if x in report.asymmetric]
        sym = [x for x in I if x in report.symmetric]
        if len(asym) == 2 and _is_edge_type(bar, report, asym[0], asym[1], sym[0]):
            return "edge_type_Fij_G"
    return "other"


def _first_blowdown(cur: HPolytope, cur_report: MassLinearReport, Hv):
    """Blow down the first facet that admits it, checking that the
    functional's coefficients survive unchanged."""
    for e in range(cur.n_facets):
        rep = blowdown(cur, e)
        if not rep.ok:
            continue
        bar = rep.polytope
        bar_report = mass_linear_test(bar, Hv)
        if not bar_report.verdict:
            raise StructuralInconsistency("a blowdown broke mass linearity")
        if cur_report.gamma[e] != 0:
            raise StructuralInconsistency(
                "a removable facet carried a nonzero coefficient"
            )
        expected = tuple(g for x, g in enumerate(cur_report.gamma) if x != e)
        if bar_report.gamma != expected:
            raise StructuralInconsistency("coefficients changed across a blowdown")
        face = tuple(x - 1 if x > e else x for x in rep.index_set)
        tag = _blowup_type_tag(bar, bar_report, face)
        step = BlowdownStep(e, cur.labels[e], rep.index_set, rep.epsilon, tag, face)
        return step, bar, bar_report
    return None


def replay_trace(terminal: HPolytope, trace) -> HPolytope:
    """Apply the recorded blowdowns in reverse as blowups, restoring
    each removed facet at its original position with its label, one
    build per step, with every check of ``blowup``."""
    cur = terminal
    for step in reversed(tuple(trace)):
        cur = _blowup(cur, step.face, step.epsilon, step.facet, step.label)
    return cur


def _smooth_4d_pair(poly: HPolytope, H, task: str) -> tuple[Vec, MassLinearReport]:
    """H and its report, checked to be a smooth 4-d mass linear pair."""
    if poly.dim != 4:
        raise ValueError(f"{task} works on 4-dimensional polytopes")
    if not poly.is_smooth():
        raise PolytopeError(f"{task} requires a smooth polytope")
    Hv = vec(H)
    report = mass_linear_test(poly, Hv)
    if not report.verdict:
        raise ValueError("functional is not mass linear on this polytope")
    return Hv, report


def classify4d(poly: HPolytope, H) -> ClassificationResult:
    """Classify a 4-dimensional mass linear pair, every outcome in one flow.

    Zero and inessential functionals take the empty trace.  For an
    essential one, facets are blown down greedily in index order
    (restarting after each success, with the coefficient vector checked
    invariant) until recognize_type names the pair a1 / a2 / a3 (still
    essential) or b (turned inessential on a double expansion with
    asymmetric base-type facets), else unclassified once no facet blows
    down.  Each stage is fitted once, by ``mass_linear_test`` in
    ``_smooth_4d_pair`` or ``_first_blowdown``, and its type and
    inessential witness are read off that report; the terminal's
    recognition reuses the memoized recognizers, so for a1 / a2 / a3 it
    is the tag's own.
    """
    Hv, report = _smooth_4d_pair(poly, H, "classification")
    cur, cur_report, trace, stages = poly, report, [], [poly]
    tag, cert, alternatives, detail = "unclassified", None, (), ""
    if not any(Hv):
        tag, detail = "zero", "the zero functional"
    elif _beta(poly, report.gamma) is not None:
        tag, detail = "inessential", "functional is inessential on the input"
    else:
        while not (rec := _recognize(cur, cur_report)).tags:
            found = _first_blowdown(cur, cur_report, Hv)
            if found is None:
                break
            step, cur, cur_report = found
            trace.append(step)
            stages.append(cur)
        if rec.tags:
            tag, cert = rec.certificates[0]
            alternatives = rec.certificates[1:]
        else:
            still = "essential" if _beta(cur, cur_report.gamma) is None else "inessential"
            detail = (
                "terminal polytope is minimal but matches no structured "
                f"family; the functional is {still} there"
            )
    rebuilt = replay_trace(cur, trace)
    if rebuilt != poly or rebuilt.labels != poly.labels:
        raise StructuralInconsistency("trace replay failed to rebuild the input")
    return ClassificationResult(
        tag, tuple(trace), cur, cur_report, _beta(cur, cur_report.gamma), cert, alternatives, detail,
        _recognize_terminal(cur), tuple(stages),
    )


# ---------------------------------------------------------------------------
# planning blowups that make an inessential functional essential


@dataclass(frozen=True)
class BlowupPlan:
    """A concrete sequence of edge blowups, or a reason none exists.

    Each step is (facet index set, cut depth); step indices refer to
    the polytope produced by the previous steps (the exceptional facet
    is inserted first, shifting the rest up by one).  result is the
    polytope after all steps, on which the functional is essential."""

    feasible: bool
    reason: str = ""
    steps: tuple[tuple[tuple[int, ...], Fraction], ...] = ()
    result: HPolytope | None = None


def essential_blowup_planner(poly: HPolytope, H) -> BlowupPlan:
    """Plan blowups turning an inessential functional essential.

    The input must be a double expansion of a polygon whose base-type
    facets are exactly the asymmetric facets.  A plan exists exactly
    when the four base-type coefficients share one absolute value, the
    core polygon is not a triangle, and some core edge runs between the
    two expanded edges.  One cancelling-coefficient edge blowup
    suffices when the expanded edges are inequivalent in the core; a
    second one is appended when they are equivalent.
    """
    Hv, report = _smooth_4d_pair(poly, H, "planning")
    if _beta(poly, report.gamma) is None:
        return BlowupPlan(False, "functional is already essential on the input")
    cert = _b_certificate(poly, report.asymmetric)
    if cert is None:
        raise PolytopeError(
            "input is not a double expansion of a polygon whose base-type "
            "facets are the asymmetric facets"
        )
    gammas = [report.gamma[x] for x in cert.base]
    if len({abs(g) for g in gammas}) != 1:
        return BlowupPlan(
            False, "the four base-type coefficients do not share one absolute value"
        )
    core = cert.core
    if core.n_facets == 3:
        return BlowupPlan(False, "the core polygon is a triangle")
    j1, j2 = cert.core_expanded
    bridges = [
        g
        for g in range(core.n_facets)
        if g not in (j1, j2)
        and core.face({g, j1}) is not None
        and core.face({g, j2}) is not None
    ]
    if not bridges:
        return BlowupPlan(False, "no core edge runs between the two expanded edges")
    first = _first_edge(poly, report, ((bi, bj, cert.fiber[g]) for g in bridges
                                       for bi in cert.base[:2] for bj in cert.base[2:]))
    if first is None:
        raise StructuralInconsistency(
            "feasibility criteria hold but no admissible edge exists"
        )
    step1 = tuple(sorted(first))
    blown = blowup(poly, step1)
    eps1 = sum((poly.support[x] for x in step1), Fraction(0)) - blown.support[0]
    steps = [(step1, eps1)]
    out = blown
    tied = j2 in equivalence_classes(core).class_of(j1)
    if tied:
        rep1 = mass_linear_test(blown, Hv)
        others = [x for x in cert.base if x not in first[:2]]
        second = _first_edge(blown, rep1, ((shared + 1, k + 1, gp) for shared in first[:2]
                                           for k in others for gp in sorted(rep1.symmetric)))
        if second is None:
            raise StructuralInconsistency(
                "equivalent expanded edges but no second admissible edge exists"
            )
        step2 = tuple(sorted(second))
        out = blowup(blown, step2)
        eps2 = sum((blown.support[x] for x in step2), Fraction(0)) - out.support[0]
        steps.append((step2, eps2))
    final = mass_linear_test(out, Hv)
    if not final.verdict or _beta(out, final.gamma) is not None:
        raise StructuralInconsistency(
            "planned blowups failed to make the functional essential"
        )
    return BlowupPlan(True, "", tuple(steps), out)
