"""Deterministic corpus of (polytope, functional) pairs shared by the
property and acceptance tests.

The corpus mixes the bundle families, expansions, double expansions,
blowups of all of these, and a few products and simplices.  Functionals
per polytope come from the family's mass-linear space (guaranteed
positives), in-class conormal differences (guaranteed inessential
positives), and a seeded random draw (mostly negatives).  Reports are
memoized so the acceptance criteria share one pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from masslin import (
    Bundle121Spec,
    D2PolygonBundleSpec,
    HPolytope,
    PolytopeError,
    YkBundleSpec,
    blowup,
    bundle_121,
    bundle_D2_polygon,
    bundle_Yk,
    double_expansion,
    equivalence_classes,
    expansion,
    essential_blowup_planner,
    is_inessential,
    mass_linear_test,
    minimal_family_a3,
    minimal_family_b,
    ml_space,
    ml_space_121,
    ml_space_D2_polygon,
    ml_space_Yk,
    product,
    recognize_double_expansion,
    simplex,
    trapezoid,
)

SEED = 98231


@dataclass(frozen=True)
class SuitePolytope:
    name: str
    origin: str
    poly: HPolytope = field(compare=False)
    functionals: tuple[tuple, ...] = field(compare=False)


@dataclass(frozen=True)
class SuitePair:
    name: str
    origin: str
    poly: HPolytope = field(compare=False)
    H: tuple = ()


_reports: dict = {}


def report_for(pair: SuitePair):
    key = (pair.name, pair.H)
    if key not in _reports:
        _reports[key] = mass_linear_test(pair.poly, pair.H)
    return _reports[key]


def _int_scale(v) -> tuple[int, ...]:
    mult = lcm(*(Fraction(x).denominator for x in v)) if v else 1
    return tuple(int(Fraction(x) * mult) for x in v)


def combine_conormals(poly: HPolytope, coeffs: dict[int, int]) -> tuple:
    """H = sum of coeffs[i] * conormal_i."""
    n = poly.dim
    out = [0] * n
    for i, c in coeffs.items():
        for r in range(n):
            out[r] += c * poly.conormals[i][r]
    return tuple(out)


def _class_functionals(poly: HPolytope, limit: int = 2) -> list[tuple]:
    out = []
    for cls in sorted(equivalence_classes(poly).classes, key=min):
        members = sorted(cls)
        for i, j in zip(members, members[1:]):
            out.append(combine_conormals(poly, {i: 1, j: -1}))
    return out[:limit]


def _space_functionals(space, limit: int = 3) -> list[tuple]:
    out = [_int_scale(h) for h, _ in space.mass_linear]
    if len(out) >= 2:
        out.append(tuple(x + y for x, y in zip(out[0], out[1])))
    return out[:limit]


def _random_functionals(rng, n: int, count: int = 2) -> list[tuple]:
    out = []
    while len(out) < count:
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(v):
            out.append(v)
    return out


def first_essential(poly: HPolytope) -> tuple:
    """The first essential functional found in the mass-linear space,
    scanning basis elements and then pairwise sums."""
    basis = [h for h, _ in ml_space(poly)]
    candidates = list(basis)
    candidates += [
        tuple(x + y for x, y in zip(basis[i], basis[j]))
        for i in range(len(basis))
        for j in range(i + 1, len(basis))
    ]
    for h in candidates:
        if any(h) and is_inessential(poly, h) is None:
            return _int_scale(h)
    raise AssertionError(f"no essential functional on {poly.name}")


def all_asymmetric_functional(poly: HPolytope) -> tuple:
    """A mass linear functional whose coefficient is nonzero on every
    facet, found by combining basis elements of the mass-linear space."""
    basis = [h for h, _ in ml_space(poly)]
    rng = random.Random(SEED)
    for _ in range(200):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        h = tuple(
            sum(c * Fraction(b[r]) for c, b in zip(coeffs, basis))
            for r in range(poly.dim)
        )
        if not any(h):
            continue
        rep = mass_linear_test(poly, h)
        if rep.verdict and len(rep.asymmetric) == poly.n_facets:
            return _int_scale(h)
    raise AssertionError(f"no all-asymmetric functional on {poly.name}")


def moved_copies(poly: HPolytope) -> list[HPolytope]:
    """The polytope translated, sheared by a unimodular map and with its
    facets reversed: a new first vertex, slice basis and slice point."""
    n = poly.dim
    shear = [[int(i == j) + int(i == 0 and j == n - 1 and n > 1) for j in range(n)] for i in range(n)]
    return [
        poly.translate(tuple(range(1, n + 1))),
        poly.apply_lattice_map(shear),
        poly.permute_facets(tuple(reversed(range(poly.n_facets)))),
    ]


def square(side=3) -> HPolytope:
    return HPolytope(2, ((-1, 0), (0, -1), (1, 0), (0, 1)), (0, 0, side, side))


def polygon_bundle(
    base: HPolytope, twists
) -> tuple[HPolytope, D2PolygonBundleSpec]:
    """Triangle bundle over the polygon, with the base support numbers
    scaled up until the twists fit inside the product chamber.  Returns
    the polytope and the spec it was built from."""
    for scale in (1, 2, 4, 8, 16, 32):
        kappa = (0, 0, 1) + tuple(k * scale for k in base.support)
        spec = D2PolygonBundleSpec(base, tuple(twists), kappa)
        try:
            return bundle_D2_polygon(spec), spec
        except PolytopeError:
            continue
    raise AssertionError("no chamber scale found for the polygon bundle")


def expanded_pair_functional(poly: HPolytope) -> tuple:
    """For a double expansion: +1/-1 on each expanded couple."""
    cert = recognize_double_expansion(poly)
    assert cert is not None
    p1, p2, p3, p4 = cert.base
    return combine_conormals(poly, {p1: 1, p2: -1, p3: 1, p4: -1})


@lru_cache(maxsize=1)
def suite_polytopes() -> tuple[SuitePolytope, ...]:
    rng = random.Random(SEED)
    roster: list[SuitePolytope] = []
    names = set()

    def add(name, origin, poly, planned=()):
        assert name not in names, name
        names.add(name)
        functionals = []
        for H in (
            list(planned)
            + _class_functionals(poly)
            + _random_functionals(rng, poly.dim)
        ):
            H = tuple(int(x) for x in H)
            if any(H) and H not in functionals:
                functionals.append(H)
        roster.append(SuitePolytope(name, origin, poly, tuple(functionals)))
        return poly

    # simplices and products
    add("simplex2", "product", simplex(2))
    add("simplex3", "product", simplex(3))
    add("simplex4", "product", simplex(4))
    add("simplex2_size2", "product", simplex(2, size=2))
    add("square", "product", square())
    add("cube", "product", product(product(simplex(1), simplex(1)), simplex(1)))
    add("prism", "product", product(simplex(2), simplex(1)))
    d2xd2 = add("d2xd2", "product", product(simplex(2), simplex(2)))
    add("trap_prism", "product", product(trapezoid(1), simplex(1)))

    seg_x_y22 = product(simplex(1), bundle_Yk(YkBundleSpec(2, (1, 2), (0, 0, 1, 0, 5))))
    add(
        "seg_x_y22",
        "product_segment",
        seg_x_y22,
        planned=[all_asymmetric_functional(seg_x_y22)],
    )

    # simplex bundles over a segment
    yk_cases = [(2, a) for a in [(0, 0), (1, 0), (1, 2), (-1, 1)]]
    yk_cases += [(3, a) for a in [(0, 0, 0), (1, 1, 0), (1, 2, 3), (2, 1, 1)]]
    for k, a in yk_cases:
        hi = max(0, max(a)) + 2
        kappas = [
            (0,) * k + (1, 0, hi),
            (0,) * (k - 1) + (1, 1, 0, 2 * hi + 1),
        ]
        planned = _space_functionals(ml_space_Yk(k, a))
        for idx, kappa in enumerate(kappas):
            name = f"yk{k}_" + "_".join(str(x) for x in a) + f"_{idx}"
            add(name, "bundle_yk", bundle_Yk(YkBundleSpec(k, a, kappa)), planned)

    # towers: segment bundles over (triangle bundle over a segment)
    for a, d in [((1, 2, 3), 1), ((0, 1, 2), 2), ((5, 2, 3), 0), ((0, 2, 3), 0)]:
        name = "tower_" + "_".join(str(x) for x in a) + f"_{d}"
        planned = _space_functionals(ml_space_121(a, d))
        add(
            name,
            "bundle_121",
            bundle_121(Bundle121Spec(a, d, (0, 1, 0, 0, 4, 0, 40))),
            planned,
        )

    # triangle bundles over polygons
    for name, base, twists in [
        ("d2poly_sq_flat", square(), ((0, 0),) * 4),
        ("d2poly_sq_tw", square(), ((0, 0), (0, 0), (1, -1), (0, 0))),
        ("d2poly_sq_tw2", square(), ((0, 0), (0, 0), (2, 1), (-1, 1))),
        ("d2poly_tri", simplex(2), ((0, 0), (0, 0), (1, 1))),
    ]:
        poly, spec = polygon_bundle(base, twists)
        add(name, "polygon_bundle", poly, _space_functionals(ml_space_D2_polygon(spec)))

    # expansions and double expansions
    add("expan_trap", "expansion", expansion(trapezoid(1), 0))
    add("expan_trap2", "expansion", expansion(trapezoid(1), 2, fold=2))
    add("expan_tri", "expansion", expansion(simplex(2), 1))
    # expand two opposite, hence equivalent, edges; adjacent edges 0 and 1
    # would give the product of two triangles, already in as d2xd2
    dexp = double_expansion(square(), 0, 2)
    add("dexp_square", "double_expansion", dexp, planned=[expanded_pair_functional(dexp)])
    for n in (5, 6, 8):
        poly = minimal_family_b(n)
        add(
            f"minimal_b{n}",
            "double_expansion",
            poly,
            planned=[expanded_pair_functional(poly)],
        )
    ma3 = minimal_family_a3(7)
    add("minimal_a3_7", "polygon_bundle", ma3, planned=[first_essential(ma3)])

    # blowups
    bar = bundle_Yk(YkBundleSpec(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)))
    bar_H = (0, 2, 2, 0)
    golden = add("golden_blowup", "blowup", blowup(bar, (1, 3, 4)), planned=[bar_H])
    edge2 = next(
        f.index_set
        for f in golden.faces_of_dimension(1)
        if 0 not in f.index_set
    )
    add("golden_twice", "blowup", blowup(golden, edge2), planned=[bar_H])
    add("s4_vertex_blowup", "blowup", blowup(simplex(4), (0, 1, 2, 3)))
    add("s4_face_blowup", "blowup", blowup(simplex(4), (0, 1)))
    add("d2xd2_blowup", "blowup", blowup(d2xd2, (0, 3)))
    add(
        "bar_vertex_blowup",
        "blowup",
        blowup(bar, tuple(bar.vertices[0].basis)),
        planned=[bar_H],
    )
    tower = bundle_121(Bundle121Spec((1, 2, 3), 1, (0, 1, 0, 0, 4, 0, 40)))
    face2 = min(
        (f.index_set for f in tower.faces_of_dimension(2)), key=lambda s: sorted(s)
    )
    add(
        "tower_blowup",
        "blowup",
        blowup(tower, face2),
        planned=_space_functionals(ml_space_121((1, 2, 3), 1))[:1],
    )
    mb6 = minimal_family_b(6)
    h6 = expanded_pair_functional(mb6)
    plan = essential_blowup_planner(mb6, h6)
    assert plan.feasible
    index_set, eps = plan.steps[0]
    add("mb6_plan_blowup", "blowup", blowup(mb6, index_set, eps), planned=[h6])
    # appended last: every add draws from the shared rng, so the entries
    # above keep their functionals
    add("bar", "bundle_yk", bar, planned=[bar_H])

    return tuple(roster)


@lru_cache(maxsize=1)
def suite_pairs() -> tuple[SuitePair, ...]:
    return tuple(
        SuitePair(sp.name, sp.origin, sp.poly, H)
        for sp in suite_polytopes()
        for H in sp.functionals
    )
