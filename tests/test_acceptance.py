"""Acceptance gate: the eleven primary criteria, one pass/fail line each.

Every check is exact rational arithmetic; there are no tolerances
anywhere.  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines (pytest captures them otherwise, but they still
appear in captured output on failure).

The data-driven criteria (4 through 8, 11) run over the deterministic
suite in tests/_suite.py: 200+ (polytope, functional) pairs spanning
products, simplex bundles, two-stage towers, polygon bundles,
expansions, double expansions, the minimal families, and blowups.
"""

from __future__ import annotations

import functools
import math
import random
import time
from fractions import Fraction as Fr
from itertools import combinations, product as iproduct

from masslin import (
    HPolytope,
    YkBundleSpec,
    blowdown,
    blowup,
    bundle_Yk,
    center_of_mass,
    classify4d,
    double_expansion,
    equivalence_classes,
    essential_blowup_planner,
    expansion,
    fully_mass_linear_test,
    generating_vector,
    integrate_monomial,
    is_inessential,
    mass_linear_test,
    minimal_family_a3,
    minimal_family_b,
    ml_space_D2_polygon,
    recognize_bundle_over_segment,
    recognize_double_expansion,
    simplex,
    skeleton_barycenter,
    trapezoid,
)
from masslin.masslinear import _face_slice

from _functional_ref import barycenter_pairings_agree
from _suite import (
    SEED,
    combine_conormals,
    expanded_pair_functional,
    polygon_bundle,
    report_for,
    suite_pairs,
    suite_polytopes,
)


def criterion(number, label):
    """Print exactly one acceptance line for the wrapped test."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:02d} FAIL  {label}")
                raise
            print(f"criterion {number:02d} PASS  {label}")

        return wrapper

    return deco


def dot(u, v):
    assert len(u) == len(v)
    return sum(a * b for a, b in zip(u, v))


def pairing(poly, H):
    return dot(H, center_of_mass(poly))


def suite_poly(name):
    for sp in suite_polytopes():
        if sp.name == name:
            return sp.poly
    raise KeyError(name)


# ---------------------------------------------------------------------------
# 1. Golden worked example


@criterion(1, "golden example: verdict, blowup, classification")
def test_01_golden_example():
    bar = bundle_Yk(YkBundleSpec(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)))
    assert equivalence_classes(bar).classes == (
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset({4, 5}),
    )

    H = (0, 2, 2, 0)
    rep = mass_linear_test(bar, H)
    assert rep.verdict
    assert rep.gamma == (1, -1, -1, 1, 0, 0)
    assert rep.asymmetric == frozenset({0, 1, 2, 3})
    # pairing is kappa_1 - kappa_2 - kappa_3 + kappa_4 on the whole chamber
    assert pairing(bar, H) == dot(rep.gamma, bar.support) == 1
    wit = is_inessential(bar, H)
    assert wit is not None

    blown = blowup(bar, (1, 3, 4))
    assert blown.conormals[0] == (1, 0, 1, -1)
    rep2 = mass_linear_test(blown, (0, 2, 2, 0))
    assert rep2.verdict
    assert rep2.gamma == (0, 1, -1, -1, 1, 0, 0)
    assert all(len(c) == 1 for c in equivalence_classes(blown).classes)
    assert is_inessential(blown, (0, 2, 2, 0)) is None

    res = classify4d(blown, (0, 2, 2, 0))
    assert res.type == "b"
    assert len(res.trace) == 1
    step = res.trace[0]
    assert step.tag == "edge_type_Fij_G"
    assert step.face == (1, 3, 4)
    rec = res.terminal_recognition
    assert rec is not None and rec.certificate is not None
    assert rec.certificate.params == YkBundleSpec(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))


# ---------------------------------------------------------------------------
# 2. Simplex bundles over a segment: twist criterion and moment formula


A_VECTORS = {
    2: ((0, 0), (1, 0), (1, 1), (1, 2), (-1, 2)),
    3: ((0, 0, 0), (1, 1, 0), (1, 2, 3), (2, 2, 1), (-1, 0, 2)),
}


def _yk_supports(k, a):
    big = 3 * (max((0, *a)) - min((0, *a)) + 1)
    return (
        (0,) * k + (1, 0, big),
        (0,) * (k - 1) + (1, 1, 0, 2 * big),
        (1,) + (0,) * (k - 1) + (1, 0, big),
    )


def _gamma_samples(rng, k, a):
    out = []
    nz = [i for i, x in enumerate(a) if x]
    if nz:
        i = nz[0]
        j = (i + 1) % k
        g = [0] * (k + 1)
        g[i], g[j] = a[j], -a[i]
        g[k] = -(g[i] + g[j])
        out.append(tuple(g))  # orthogonal to a: always mass linear
        g = [0] * (k + 1)
        g[i], g[k] = 1, -1
        out.append(tuple(g))  # pairs with a: never mass linear
    else:
        out.append((1,) + (0,) * (k - 1) + (-1,))
    while len(out) < 20:
        g = [rng.randint(-3, 3) for _ in range(k)]
        g.append(-sum(g))
        out.append(tuple(g))
    return out


def _segment_bundle_pairing(k, a, gamma, kappa):
    """Independent oracle for <H, center_of_mass> on a simplex bundle.

    Closed form at the normalized support (0,...,0,lam,0,h), extended to
    arbitrary support points by the translation rule: shifting the
    polytope by xi shifts the pairing by -<H, xi>.
    """
    lam = sum(kappa[: k + 1])
    h = sum(x * kp for x, kp in zip(a, kappa)) + kappa[k + 1] + kappa[k + 2]
    sa = sum(a)
    sga = sum(g * x for g, x in zip(gamma, a))
    base = lam * (gamma[k] + Fr(lam * sga, (k + 2) * (h * (k + 1) - lam * sa)))
    xi = kappa[:k] + (kappa[k + 1],)
    eta = [tuple(-(i == j) for j in range(k + 1)) for i in range(k)]
    eta.append((1,) * k + (0,))
    eta.append((0,) * k + (-1,))
    H = tuple(sum(g * e[c] for g, e in zip(gamma, eta)) for c in range(k + 1))
    return base - dot(H, xi)


@criterion(2, "segment bundles: twist test matches the closed moment form")
def test_02_segment_bundles():
    rng = random.Random(SEED + 2)
    verdicts = set()
    for k, a_list in A_VECTORS.items():
        for a in a_list:
            gammas = _gamma_samples(rng, k, a)
            for kappa in _yk_supports(k, a):
                poly = bundle_Yk(YkBundleSpec(k, a, kappa))
                for g in gammas:
                    assert sum(g) == 0
                    H = combine_conormals(poly, dict(enumerate(g)))
                    rep = mass_linear_test(poly, H)
                    expected = sum(g[i] * a[i] for i in range(k)) == 0
                    assert rep.verdict is expected
                    verdicts.add(expected)
                    if expected and any(g):
                        assert rep.gamma == tuple(Fr(x) for x in g) + (0, 0)
                        assert dot(rep.gamma, kappa) == pairing(poly, H)
                    # the closed form holds whether or not H is mass linear
                    assert pairing(poly, H) == _segment_bundle_pairing(
                        k, a, g, kappa
                    )
    assert verdicts == {True, False}

    # pinned deviation value on the golden bundle
    bar = bundle_Yk(YkBundleSpec(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)))
    g = (1, 0, -1, 0)
    H = combine_conormals(bar, dict(enumerate(g)))
    assert H == (-1, 0, 1, 0)
    assert not mass_linear_test(bar, H).verdict
    assert pairing(bar, H) - dot(g + (0, 0), bar.support) == Fr(1, 30)


# ---------------------------------------------------------------------------
# 3. Monomial integrals over scaled simplices


@criterion(3, "monomial integrals over simplices match the factorial form")
def test_03_simplex_integrals():
    for k in range(1, 5):
        for lam in (1, 2, Fr(3, 2)):
            poly = simplex(k, size=lam)
            for exps in iproduct(range(5), repeat=k):
                total = sum(exps)
                if total > 4:
                    continue
                num = math.prod(math.factorial(e) for e in exps)
                expected = Fr(num, math.factorial(total + k)) * lam ** (
                    total + k
                )
                assert integrate_monomial(poly, exps) == expected


# ---------------------------------------------------------------------------
# 4. Suite-wide sanity of the symbolic verdicts


@criterion(4, "suite of 200+ pairs: verdicts exist and coefficients balance")
def test_04_suite_verdicts():
    pairs = suite_pairs()
    assert len(pairs) >= 200
    n_pos = n_neg = 0
    for p in pairs:
        rep = report_for(p)
        if rep.verdict:
            n_pos += 1
            assert sum(rep.gamma) == 0
            assert dot(rep.gamma, p.poly.support) == pairing(p.poly, p.H)
        else:
            n_neg += 1
            assert rep.gamma is None
    assert n_pos >= 100 and n_neg >= 30


# ---------------------------------------------------------------------------
# 5. Full mass linearity on every low-dimensional mass linear pair


@criterion(5, "every mass linear pair of dim <= 4 is fully mass linear")
def test_05_fully_mass_linear():
    checked = 0
    for p in suite_pairs():
        if p.poly.dim > 4:
            continue
        rep = report_for(p)
        if not rep.verdict:
            continue
        full = fully_mass_linear_test(p.poly, p.H)
        assert full.verdict and full.at_base
        assert generating_vector(p.poly, p.H) is not None
        checked += 1
    assert checked >= 100

    # skeleton barycenters genuinely differ on a polytope that is not
    # centrally symmetric, so the full test is not vacuous
    trap = trapezoid(1, (0, 1, 0, 2))
    pts = [skeleton_barycenter(trap, k) for k in range(3)]
    assert pts[0] != pts[1] and pts[0] != pts[2] and pts[1] != pts[2]


# ---------------------------------------------------------------------------
# 6. Barycenter characterizations agree with the symbolic verdicts


@criterion(6, "skeleton barycenter pairings characterize both properties")
def test_06_barycenter_characterizations():
    for p in suite_pairs():
        n = p.poly.dim
        rep = report_for(p)
        assert rep.verdict == barycenter_pairings_agree(
            p.poly, p.H, (0, n - 1, n)
        )
        has_xi = generating_vector(p.poly, p.H) is not None
        assert has_xi == barycenter_pairings_agree(p.poly, p.H, (0, n - 2, n))


# ---------------------------------------------------------------------------
# 7. Blowup calculus: what preserves mass linearity and what destroys it


def _symmetric_faces(poly, symmetric):
    for pair in combinations(sorted(symmetric), 2):
        face = poly.face(frozenset(pair))
        if face is None or face.dimension > poly.dim - 2:
            continue
        if not face.index_set <= symmetric:
            continue
        yield face.index_set


@criterion(7, "blowups: symmetric faces and good vertices keep mass"
              " linearity, missing asymmetric facets destroy it, planner"
              " flips inessential to essential")
def test_07_blowup_calculus():
    ml_pairs = [
        p
        for p in suite_pairs()
        if any(p.H) and report_for(p).verdict
    ]

    # (i) blowing up a symmetric face preserves the pairing exactly
    count = 0
    for p in ml_pairs:
        rep = report_for(p)
        for I in _symmetric_faces(p.poly, rep.symmetric):
            blown = blowup(p.poly, tuple(sorted(I)))
            assert pairing(blown, p.H) == pairing(p.poly, p.H)
            rep2 = mass_linear_test(blown, p.H)
            assert rep2.verdict
            assert rep2.gamma == (0,) + rep.gamma
            count += 1
            break
        if count >= 6:
            break
    assert count >= 5

    # (ii) the planner turns an inessential pair essential, one blowup at
    # a time, without changing the facet coefficients
    flip_cases = [
        (suite_poly("bar"), (0, 2, 2, 0)),
        (suite_poly("dexp_square"), None),
        (double_expansion(trapezoid(1), 0, 1), None),
        (suite_poly("minimal_b6"), None),
        (suite_poly("minimal_b8"), None),
    ]
    tied = double_expansion(HPolytope(
        2,
        ((-1, 0), (0, -1), (1, 0), (0, 1)),
        (0, 0, 3, 3),
    ), 0, 2)
    flip_cases.append((tied, combine_conormals(tied, {2: 1, 3: -1, 4: 1, 5: -1})))

    flips = 0
    for poly, H in flip_cases:
        if H is None:
            H = expanded_pair_functional(poly)
        rep = mass_linear_test(poly, H)
        assert rep.verdict and is_inessential(poly, H) is not None
        plan = essential_blowup_planner(poly, H)
        assert plan.feasible
        cur, gamma = poly, rep.gamma
        for face, eps in plan.steps:
            cur = blowup(cur, face, eps=eps)
            step_rep = mass_linear_test(cur, H)
            assert step_rep.verdict
            assert step_rep.gamma == (0,) + gamma
            gamma = step_rep.gamma
        assert is_inessential(cur, H) is None
        flips += 1
    assert flips >= 5

    # (iii) blowing up a vertex whose facets include every asymmetric one
    count = 0
    for p in ml_pairs:
        rep = report_for(p)
        vert = next(
            (v for v in p.poly.vertices if rep.asymmetric <= v.basis), None
        )
        if vert is None:
            continue
        blown = blowup(p.poly, tuple(sorted(vert.basis)))
        rep2 = mass_linear_test(blown, p.H)
        assert rep2.verdict
        assert rep2.gamma == (0,) + rep.gamma
        count += 1
        if count >= 6:
            break
    assert count >= 5

    # (iv) blowing up a face that misses some asymmetric facet entirely
    # (the enlarged face is empty) destroys mass linearity
    count = 0
    for p in ml_pairs:
        rep = report_for(p)
        hit = None
        for face in p.poly.faces_of_dimension(p.poly.dim - 2):
            I = face.index_set
            if any(
                j not in I and p.poly.face(I | {j}) is None
                for j in rep.asymmetric
            ):
                hit = I
                break
        if hit is None:
            continue
        blown = blowup(p.poly, tuple(sorted(hit)))
        assert not mass_linear_test(blown, p.H).verdict
        count += 1
        if count >= 6:
            break
    assert count >= 5


# ---------------------------------------------------------------------------
# 8. Blowdown inverts blowup; equivalent facets never blow down


@criterion(8, "blowdown undoes blowup and rejects equivalent facets")
def test_08_blowdown_roundtrip():
    rng = random.Random(SEED + 8)
    polys = [sp.poly for sp in suite_polytopes() if sp.poly.dim >= 2]
    done = 0
    while done < 30:
        poly = polys[rng.randrange(len(polys))]
        faces = [
            f
            for d in range(poly.dim - 1)
            for f in poly.faces_of_dimension(d)
        ]
        face = faces[rng.randrange(len(faces))]
        blown = blowup(poly, tuple(sorted(face.index_set)))
        report = blowdown(blown, 0)
        assert report.ok
        assert report.polytope == poly
        assert report.polytope.labels == poly.labels
        done += 1

    for sp in suite_polytopes():
        for cls in equivalence_classes(sp.poly).classes:
            if len(cls) < 2:
                continue
            for i in sorted(cls):
                assert not blowdown(sp.poly, i).ok


# ---------------------------------------------------------------------------
# 9. Expansion does not preserve mass linearity in general


@criterion(9, "expansion counterexample: essential pair goes non-linear")
def test_09_expansion_counterexample():
    a = (1, 2)
    assert a[0] * a[1] * (a[1] - a[0]) != 0
    Y = bundle_Yk(YkBundleSpec(2, a, (0, 0, 1, 0, 5)))
    H = combine_conormals(Y, {0: a[1], 1: -a[0], 2: a[0] - a[1]})
    assert H == (-3, 0, 0)
    rep = mass_linear_test(Y, H)
    assert rep.verdict
    assert is_inessential(Y, H) is None

    expanded = expansion(Y, 3)
    assert expanded.conormals == (
        (-1, 0, 0, 0),
        (0, -1, 0, 0),
        (1, 1, 0, 0),
        (1, 2, 1, 0),
        (0, 0, 0, -1),
        (0, 0, -1, 1),
    )
    lifted = H + (0,)
    assert not mass_linear_test(expanded, lifted).verdict


# ---------------------------------------------------------------------------
# 10. Minimal families: smooth, no blowdowns, and the planner routes


@criterion(10, "minimal families are blowdown-free and reach essential pairs")
def test_10_minimal_families():
    start = time.monotonic()

    ma3 = suite_poly("minimal_a3_7")
    assert ma3 == minimal_family_a3(7)
    assert ma3.is_smooth()
    for i in range(ma3.n_facets):
        assert not blowdown(ma3, i).ok
    found = None
    for p in suite_pairs():
        if p.poly is ma3 and report_for(p).verdict:
            rep = report_for(p)
            if is_inessential(ma3, p.H) is None:
                found = rep
                break
    assert found is not None

    for n in (5, 6, 8):
        poly = suite_poly(f"minimal_b{n}")
        assert poly == minimal_family_b(n)
        assert poly.is_smooth()
        assert poly.n_facets == n
        for i in range(poly.n_facets):
            assert not blowdown(poly, i).ok
        H = expanded_pair_functional(poly)
        rep = mass_linear_test(poly, H)
        assert rep.verdict and is_inessential(poly, H) is not None
        assert len(rep.asymmetric) == 4
        assert len({abs(rep.gamma[i]) for i in rep.asymmetric}) == 1

        plan = essential_blowup_planner(poly, H)
        if n in (6, 8):
            assert plan.feasible
            cur = poly
            for face, eps in plan.steps:
                cur = blowup(cur, face, eps=eps)
            assert mass_linear_test(cur, H).verdict
            assert is_inessential(cur, H) is None
        else:
            # the five-facet member needs a vertex blowup first: its core
            # polygon is a triangle, so no edge flip is available directly
            assert not plan.feasible
            assert "triangle" in plan.reason
            vert = next(v for v in poly.vertices if rep.asymmetric <= v.basis)
            cur = blowup(poly, tuple(sorted(vert.basis)))
            rep2 = mass_linear_test(cur, H)
            assert rep2.verdict and is_inessential(cur, H) is not None
            assert recognize_double_expansion(cur) is not None
            plan2 = essential_blowup_planner(cur, H)
            assert plan2.feasible
            for face, eps in plan2.steps:
                cur = blowup(cur, face, eps=eps)
            assert mass_linear_test(cur, H).verdict
            assert is_inessential(cur, H) is None

    assert time.monotonic() - start < 60


# ---------------------------------------------------------------------------
# 11. Triangle bundles over a triangle, and the seven-asymmetric census


def _splits_off_segment_with_k2_fiber(poly):
    """Is poly a lattice product of a segment with a Y(2, a) bundle?

    A disjoint equivalent pair with exactly opposite conormals splits the
    polytope as segment x slice up to a lattice shear, so it remains to
    recognize the slice.
    """
    cert = recognize_bundle_over_segment(poly)
    if cert is None:
        return False
    for c in (cert, *cert.alternatives):
        i, j = c.base
        eta_i, eta_j = poly.conormals[i], poly.conormals[j]
        if tuple(-x for x in eta_i) != eta_j:
            continue
        slice_poly, _ = _face_slice(poly, frozenset({i}))
        inner = recognize_bundle_over_segment(slice_poly)
        if inner is None:
            continue
        for ic in (inner, *inner.alternatives):
            if ic.params is not None and ic.params.k == 2:
                return True
    return False


@criterion(11, "triangle-over-triangle bundles are never essential; every"
               " 7-asymmetric pair lives on a segment times a triangle"
               " bundle")
def test_11_triangle_bundles_and_census():
    rng = random.Random(SEED + 11)
    base = simplex(2)
    for _ in range(10):
        twists = ((0, 0), (0, 0), (rng.randint(-3, 3), rng.randint(-3, 3)))
        poly, spec = polygon_bundle(base, twists)
        assert spec.polygon == base and spec.twists == twists
        space = ml_space_D2_polygon(spec)
        assert not space.has_essential
        assert space.mass_linear
        for H, _ in space.mass_linear:
            scale = math.lcm(*(x.denominator for x in map(Fr, H)))
            Hi = tuple(int(x * scale) for x in map(Fr, H))
            rep = mass_linear_test(poly, Hi)
            assert rep.verdict
            assert is_inessential(poly, Hi) is not None

    hits = 0
    for p in suite_pairs():
        rep = report_for(p)
        if not rep.verdict or len(rep.asymmetric) != 7:
            continue
        assert p.poly.n_facets == 7 and p.poly.dim == 4
        assert _splits_off_segment_with_k2_fiber(p.poly)
        hits += 1
    assert hits >= 1
