"""Seeded request corpus for the benchmark workloads.

Every polytope is built with the public constructors of ``masslin``
(bundles, expansions, products, blowups, the minimal families), moved by
a seeded dilation and lattice translation, and emitted as a
``*.polytope.json`` document.  Every functional carries the answer that
was planted when it was drawn:

* ``twist``: a fiber functional on a simplex bundle over a segment Y_k.
  It is mass linear exactly when the twist criterion sum g_i a_i = 0
  holds, and <H, center> has a closed form (see ``oracle``).
* ``ml``: a combination of the closed-form mass linear basis of a
  bundle family (``ml_space_Yk`` / ``ml_space_121`` /
  ``ml_space_D2_polygon``), or of a symmetric-face blowup of one, with
  its coefficient vector gamma.
* ``inessential``: a difference of conormals inside one facet
  equivalence class that is known from the construction (simplex
  factors, expansion base facets, the closed-form inessential spaces).
* ``random``: a generic functional (entries -2, -1, 1, 2) with no planted
  verdict; only the internal consistency of the report is checked.
* ``classify``: an essential pair planted in family a1 / a2 / a3 / b,
  blown up along faces whose facets all have zero coefficient, with the
  family and the coefficient vector of the blown-up input.

A workload is a list of rounds; a round holds one request per slot, and
slots are fixed per workload so that every seed yields the same mix of
families, sizes and functional kinds.  Structural choices (twist vectors,
facet counts) follow the round; the seed chooses support numbers,
functionals and blowup faces.  Inputs are not filtered request by
request on what the measured code answers: a request the code gets wrong
counts as failed.  One input class is left out as a whole, because a
benchmark needs workloads on which no request fails: the classify
workload does not translate its a3 inputs (see ``_essential_a3``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from masslin import cli
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
    expansion,
    minimal_family_a3,
    minimal_family_b,
    ml_space_121,
    ml_space_D2_polygon,
    ml_space_Yk,
    product,
    simplex,
    trapezoid,
)

WORKLOADS = {
    "check_cold": (
        "every request parses a fresh 2-4 dimensional document, so per-polytope caches "
        "miss and vertex scans, triangulation and volume/moment/skeleton polynomials dominate"
    ),
    "check_scan": (
        "three 4-d polytopes parsed once, many functionals each, so polynomial caches "
        "hit and per-functional work (symmetric_facets, gamma solve, skeleton identities) dominates"
    ),
    "classify_blowups": (
        "essential a1/a2/a3/b pairs blown up 0-3 times along symmetric faces, so the "
        "blowdown loop (construction, blowdown, recognize_type, replay_trace) dominates"
    ),
}


@dataclass(frozen=True)
class Expect:
    """The answer planted with a request (see the module docstring)."""

    kind: str
    gamma: tuple[Fraction, ...] | None = None
    twist: tuple[int, tuple[int, ...], tuple[int, ...]] | None = None
    family: str | None = None


@dataclass(frozen=True)
class Request:
    rid: str
    op: str  # "check" or "classify"
    source: str  # key into Corpus.documents
    H: tuple[int, ...]
    expect: Expect


@dataclass(frozen=True)
class Corpus:
    workload: str
    seed: int
    documents: dict[str, str]
    rounds: tuple[tuple[Request, ...], ...]
    reuse_polytopes: bool  # parse each document once per run

    def dump(self) -> str:
        """Canonical text of every document and request, for comparing
        two generations byte for byte."""
        lines = [self.documents[key] for key in sorted(self.documents)]
        for rnd in self.rounds:
            lines += [repr(r) for r in rnd]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# documents and small exact helpers


def to_document(poly: HPolytope, name: str) -> str:
    doc = cli.polytope_to_document(poly)
    doc["name"] = name
    return cli.dumps(doc)


def combine(coeffs, normals) -> tuple[Fraction, ...]:
    """sum_i coeffs[i] * normals[i]."""
    n = len(normals[0])
    return tuple(
        sum((Fraction(c) * eta[r] for c, eta in zip(coeffs, normals)), Fraction(0))
        for r in range(n)
    )


def _rank(rows) -> int:
    """Rank over the rationals (masslin.linalg is not public API)."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank, col = 0, 0
    ncols = len(m[0]) if m else 0
    while rank < len(m) and col < ncols:
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        col += 1
    return rank


def _integral(H, gamma) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """Scale (H, gamma) so that H is an integer vector."""
    mult = lcm(*(Fraction(x).denominator for x in H))
    return tuple(int(Fraction(x) * mult) for x in H), tuple(
        Fraction(g) * mult for g in gamma
    )


def _combo(rng, pairs, avoid=()):
    """A random nonzero integer combination of (H, gamma) basis pairs whose
    gamma lies outside the span of ``avoid`` (gammas)."""
    base = _rank(avoid) if avoid else 0
    for _ in range(100):
        coeffs = [rng.randint(-2, 2) for _ in pairs]
        H = tuple(sum((c * h[r] for c, (h, _) in zip(coeffs, pairs)), Fraction(0))
                  for r in range(len(pairs[0][0])))
        gamma = tuple(sum((c * g[i] for c, (_, g) in zip(coeffs, pairs)), Fraction(0))
                      for i in range(len(pairs[0][1])))
        if not any(H):
            continue
        if avoid and _rank(list(avoid) + [gamma]) == base:
            continue
        return _integral(H, gamma)
    raise RuntimeError("no admissible combination found")


class SeededDraw(random.Random):
    """The generator's random stream.

    ``pick`` makes the structural choices (twist vectors, facet counts):
    they follow the variant being generated, not the seed, so every seed
    yields the same shapes and the seed moves support numbers,
    functionals and blowup faces.  ``once`` memoizes constructions that
    depend on no random choice, so one generation builds each of them
    once and every generation pays for them again."""

    def __init__(self, seed):
        super().__init__(seed)
        self.variant = 0
        self._memo = {}

    def pick(self, options):
        return options[self.variant % len(options)]

    def once(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]


def _random_functional(rng, n: int) -> tuple[int, ...]:
    """A generic functional: every entry is one of -2, -1, 1, 2."""
    return tuple(rng.choice((-2, -1, 1, 2)) for _ in range(n))


def _moved(rng, poly: HPolytope, translate: bool = True) -> HPolytope:
    """Dilate by 1..3 and translate by a small lattice vector: the
    combinatorics, the classes and every planted gamma are unchanged."""
    t = rng.randint(1, 3)
    xi = [rng.randint(-2, 2) if translate else 0 for _ in range(poly.dim)]
    support = tuple(
        t * k + sum(e * x for e, x in zip(eta, xi))
        for eta, k in zip(poly.conormals, poly.support)
    )
    return HPolytope(poly.dim, poly.conormals, support, poly.labels)


def _symmetric_faces(poly: HPolytope, gamma) -> list[tuple[int, ...]]:
    """Faces of codimension 2 or 3 cut exactly by facets with gamma = 0."""
    zero = [i for i, g in enumerate(gamma) if g == 0]
    out = []
    for r in (2, 3):
        for I in combinations(zero, r):
            f = poly.face(I)
            if f is not None and f.index_set == frozenset(I):
                out.append(I)
    return out


def _blown_up(rng, draw, times: int):
    """Draw a polytope and its functional sampler with ``draw(rng) ->
    (poly, draw_gamma)`` and blow the pair up along ``times`` seeded
    symmetric faces; the exceptional facet enters first with coefficient
    0.  A functional whose chain runs out of symmetric faces is replaced
    by a fresh one on the same polytope (a structural precondition, not
    a verdict); a retry does not rebuild the polytope, so set-up time
    does not swing with the seed."""
    base, draw_gamma = draw(rng)
    for _ in range(100):
        poly, gamma = base, tuple(draw_gamma())
        for _ in range(times):
            faces = _symmetric_faces(poly, gamma)
            if not faces:
                break
            poly = blowup(poly, rng.choice(faces))
            gamma = (Fraction(0),) + gamma
        else:
            return poly, gamma
    raise RuntimeError("no blowup chain along symmetric faces found")


# ---------------------------------------------------------------------------
# families with planted functionals


@dataclass(frozen=True)
class Planted:
    poly: HPolytope
    H: tuple[int, ...]
    expect: Expect


YK_TWISTS = {
    1: ((1,), (2,)),
    2: ((1, 2), (1, 0), (-1, 1), (2, 1), (0, 0)),
    3: ((1, 2, 3), (1, 3, 2), (2, 1, 3), (1, -1, 2), (2, 2, 1)),
}
YK_ESSENTIAL = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (1, -1, 2), (2, 3, 1))
TOWERS = (((1, 2, 3), 1), ((0, 1, 2), 2))
SQUARE_TWISTS = (
    ((0, 0), (0, 0), (1, -1), (0, 0)),
    ((0, 0), (0, 0), (2, 1), (-1, 1)),
)


def _square(side: int = 3) -> HPolytope:
    """Square with its edges in adjacency order."""
    return HPolytope(2, ((-1, 0), (0, -1), (1, 0), (0, 1)), (0, 0, side, side))


def _yk(rng, k: int, a) -> HPolytope:
    hi = max(0, *a) + 1 + rng.randint(0, 2)
    kappa = (0,) * k + (1, 0, hi)
    return _moved(rng, bundle_Yk(YkBundleSpec(k, a, kappa)))


def _twist_vector(rng, k: int, a, mass_linear: bool) -> tuple[int, ...]:
    """Fiber coefficients g (sum zero) with sum g_i a_i zero or not.

    Mass linear draws combine the kernel vectors a_i e_j - a_j e_i of the
    twist, so the criterion holds by construction."""
    pivot = next((i for i, x in enumerate(a) if x), None)
    while True:
        if mass_linear and pivot is not None:
            g = [0] * k
            for j in range(k):
                if j != pivot:
                    c = rng.randint(-2, 2)
                    g[j] += c * a[pivot]
                    g[pivot] -= c * a[j]
        else:
            g = [rng.randint(-3, 3) for _ in range(k)]
        g.append(-sum(g))
        if any(g) and (sum(x * y for x, y in zip(g, a)) == 0) == mass_linear:
            return tuple(g)


def twist_pair(rng, k: int, mass_linear: bool) -> Planted:
    a = rng.pick([t for t in YK_TWISTS[k] if any(t) or mass_linear])
    poly = _yk(rng, k, a)
    g = _twist_vector(rng, k, a, mass_linear)
    H = combine(g + (0, 0), poly.conormals)
    return Planted(poly, tuple(int(x) for x in H), Expect("twist", twist=(k, a, g)))


def _space_pair(rng, poly, space, kind: str) -> Planted:
    pairs = space.inessential if kind == "inessential" else space.mass_linear
    H, gamma = _combo(rng, pairs)
    return Planted(poly, H, Expect(kind, gamma=gamma))


def yk_space_pair(rng, k: int, kind: str) -> Planted:
    a = rng.pick(YK_TWISTS[k])
    return _space_pair(rng, _yk(rng, k, a), ml_space_Yk(k, a), kind)


def _tower(rng, a, d) -> HPolytope:
    return _moved(rng, bundle_121(Bundle121Spec(a, d, (0, 1, 0, 0, 4, 0, 40))))


def tower_pair(rng, kind: str) -> Planted:
    a, d = rng.pick(TOWERS)
    poly = _tower(rng, a, d)
    if kind == "random":
        return Planted(poly, _random_functional(rng, 4), Expect("random"))
    return _space_pair(rng, poly, ml_space_121(a, d), kind)


def _polygon_bundle(base: HPolytope, twists):
    for scale in (1, 2, 4, 8, 16):
        kappa = (0, 0, 1) + tuple(k * scale for k in base.support)
        spec = D2PolygonBundleSpec(base, tuple(twists), kappa)
        try:
            return bundle_D2_polygon(spec), spec
        except PolytopeError:
            continue
    raise RuntimeError("no chamber scale found for the polygon bundle")


def polygon_bundle_pair(rng, kind: str) -> Planted:
    twists = rng.pick(SQUARE_TWISTS)
    poly, spec = rng.once(twists, lambda: _polygon_bundle(_square(), twists))
    return _space_pair(rng, _moved(rng, poly), ml_space_D2_polygon(spec), kind)


def _label_difference(poly: HPolytope, first: str, second: str) -> tuple[int, ...]:
    i, j = poly.label_index(first), poly.label_index(second)
    return tuple(x - y for x, y in zip(poly.conormals[i], poly.conormals[j]))


def product_pair(rng, factors, kind: str) -> Planted:
    """Product of simplices: facets of one simplex factor are equivalent."""
    poly = simplex(factors[0], rng.randint(1, 3))
    for m in factors[1:]:
        poly = product(poly, simplex(m, rng.randint(1, 3)))
    poly = _moved(rng, poly)
    if kind == "random":
        return Planted(poly, _random_functional(rng, poly.dim), Expect("random"))
    i, j = rng.sample(range(factors[0] + 1), 2)
    return Planted(
        poly,
        _label_difference(poly, poly.labels[i], poly.labels[j]),
        Expect("inessential"),
    )


def polygon_pair(rng, cuts: int) -> Planted:
    """A square with ``cuts`` corners cut off; random functional."""
    poly = _moved(rng, _square(rng.randint(3, 5)))
    for _ in range(cuts):
        faces = [f.index_set for f in poly.faces_of_dimension(0)]
        poly = blowup(poly, tuple(sorted(rng.choice(faces))))
    return Planted(poly, _random_functional(rng, 2), Expect("random"))


def expansion_pair(rng) -> Planted:
    """Expansion of a trapezoid: the base-type facets B1, B2 are equivalent."""
    twist, facet = rng.pick(((1, 0), (2, 2)))
    core = trapezoid(twist, (0, 1, 0, rng.randint(3, 5)))
    poly = _moved(rng, expansion(core, facet))
    return Planted(poly, _label_difference(poly, "B1", "B2"), Expect("inessential"))


def double_expansion_pair(rng) -> Planted:
    poly = _moved(rng, double_expansion(_square(rng.randint(2, 4)), 0, 1))
    first, second = rng.choice((("B1", "B2"), ("B3", "B4")))
    return Planted(poly, _label_difference(poly, first, second), Expect("inessential"))


def minimal_b_pair(rng) -> Planted:
    poly = _moved(rng, minimal_family_b(5))
    return Planted(poly, _random_functional(rng, 4), Expect("random"))


A3_GAMMA = (1, 1, -2)  # fiber line of the minimal a3 family (twists along (1, -1))


def _a3_gamma(rng, facets: int) -> tuple[Fraction, ...]:
    s = rng.choice((1, 2, -1))
    return tuple(Fraction(s * g) for g in A3_GAMMA) + (Fraction(0),) * (facets - 3)


def minimal_a3_pair(rng, facets: int) -> Planted:
    poly = _moved(rng, rng.once(("a3", facets), lambda: minimal_family_a3(facets)))
    gamma = _a3_gamma(rng, facets)
    H = tuple(int(x) for x in combine(gamma, poly.conormals))
    return Planted(poly, H, Expect("ml", gamma=gamma))


def _essential_y3(rng):
    """Y_3 with distinct fiber levels and a sampler of its essential twist
    functionals."""
    a = rng.pick(YK_ESSENTIAL)
    return _yk(rng, 3, a), lambda: tuple(
        Fraction(x) for x in _twist_vector(rng, 3, a, True)
    ) + (Fraction(0),) * 2


def symmetric_blowup_pair(rng, times: int) -> Planted:
    """An essential Y_3 pair blown up along symmetric faces: still mass
    linear with the exceptional coefficients zero."""
    poly, gamma = _blown_up(rng, _essential_y3, times)
    H = tuple(int(x) for x in combine(gamma, poly.conormals))
    return Planted(poly, H, Expect("ml", gamma=gamma))


# essential pairs for the classification workload: each draw returns the
# polytope and a sampler of its planted coefficient vectors gamma


def _essential_121(rng):
    a, d = rng.pick(TOWERS)
    space = ml_space_121(a, d)
    avoid = [g for _, g in space.inessential]
    return _tower(rng, a, d), lambda: _combo(rng, space.mass_linear, avoid)[1]


def _essential_a3(rng):
    """Dilated only: ``classify_document`` answers ``unclassified`` for
    some lattice translates of a triangle bundle over a polygon, because
    recognition builds the base polygon from the untranslated support
    numbers.  The benchmark needs workloads on which no request fails;
    ``test_translated_a3_pair_classifies`` keeps the defect on record."""
    facets = rng.pick((7, 8))
    base = rng.once(("a3", facets), lambda: minimal_family_a3(facets))
    return _moved(rng, base, translate=False), lambda: _a3_gamma(rng, facets)


def _essential_b(rng):
    """A double expansion of a square, written as Y_3 with twist (t, t, 0),
    made essential by blowing up the edge F2 F4 G1 whose asymmetric
    coefficients cancel."""
    t = rng.pick((1, 2))

    def draw_gamma():
        s = rng.choice((1, 2, -1))
        return (Fraction(0),) + tuple(Fraction(s * g) for g in (1, -1, -1, 1, 0, 0))

    return blowup(_yk(rng, 3, (t, t, 0)), (1, 3, 4)), draw_gamma


ESSENTIAL = {"a1": _essential_y3, "a2": _essential_121, "a3": _essential_a3, "b": _essential_b}


def essential_pair(rng, family: str, blowups: int) -> Planted:
    poly, gamma = _blown_up(rng, ESSENTIAL[family], blowups)
    H = tuple(int(x) for x in combine(gamma, poly.conormals))
    return Planted(poly, H, Expect("classify", gamma=gamma, family=family))


# ---------------------------------------------------------------------------
# workloads

# check_cold: one slot per (shape, functional kind); 2-d and 3-d requests
# are cheap, 4-d requests with 5-8 facets carry most of the time.  With 23
# slots and two rounds, the median falls in the middle of the 4-d requests
# with 5-6 facets (minimal b, double expansion, d2xd2) and the tail
# percentile inside the group of 7-facet requests, so neither sits on the
# edge between groups of different cost.
COLD_SLOTS = (
    ("square_inessential", lambda rng: product_pair(rng, (1, 1), "inessential")),
    ("trapezoid_twist_non_ml", lambda rng: twist_pair(rng, 1, False)),
    ("pentagon_random", lambda rng: polygon_pair(rng, 1)),
    ("hexagon_random", lambda rng: polygon_pair(rng, 2)),
    ("y2_twist_ml", lambda rng: twist_pair(rng, 2, True)),
    ("y2_twist_non_ml", lambda rng: twist_pair(rng, 2, False)),
    ("prism_inessential", lambda rng: product_pair(rng, (2, 1), "inessential")),
    ("cube_inessential", lambda rng: product_pair(rng, (1, 1, 1), "inessential")),
    ("expansion_inessential", expansion_pair),
    ("y2_space_ml", lambda rng: yk_space_pair(rng, 2, "ml")),
    ("y3_twist_ml", lambda rng: twist_pair(rng, 3, True)),
    ("y3_twist_non_ml", lambda rng: twist_pair(rng, 3, False)),
    ("y3_space_inessential", lambda rng: yk_space_pair(rng, 3, "inessential")),
    ("tower_ml", lambda rng: tower_pair(rng, "ml")),
    ("tower_random", lambda rng: tower_pair(rng, "random")),
    ("polygon_bundle_ml", lambda rng: polygon_bundle_pair(rng, "ml")),
    ("double_expansion_inessential", double_expansion_pair),
    ("minimal_b_random", minimal_b_pair),
    ("minimal_a3_ml", lambda rng: minimal_a3_pair(rng, 7)),
    ("d2xd2_random", lambda rng: product_pair(rng, (2, 2), "random")),
    ("y3_blowup_ml", lambda rng: symmetric_blowup_pair(rng, 1)),
    ("y3_blowup2_ml", lambda rng: symmetric_blowup_pair(rng, 2)),
    ("minimal_a3_8_ml", lambda rng: minimal_a3_pair(rng, 8)),
)
COLD_VARIANTS = 2

# check_scan: per polytope and round, one planted mass linear, one planted
# inessential and two random functionals.
SCAN_POLYTOPES = ("y3", "tower", "polygon_bundle")
SCAN_VARIANTS = 8

# classify_blowups: (family, number of symmetric-face blowups) per slot.
# Inputs of family b already carry the edge blowup that makes them
# essential, so ("b", 2) has been blown up three times.
CLASSIFY_SLOTS = (
    ("a1", 0), ("a1", 0), ("a1", 1), ("a1", 2),
    ("a2", 0), ("a2", 1),
    ("a3", 0), ("a3", 0), ("a3", 1),
    ("b", 0), ("b", 2),
)
CLASSIFY_VARIANTS = 2


def _cold(rng) -> tuple[dict, list]:
    documents, rounds = {}, []
    for v in range(COLD_VARIANTS):
        rng.variant = v
        rnd = []
        for slot, make in COLD_SLOTS:
            p = make(rng)
            key = f"{slot}/{v}"
            documents[key] = to_document(p.poly, key)
            rnd.append(Request(key, "check", key, p.H, p.expect))
        rounds.append(tuple(rnd))
    return documents, rounds


def _scan_polytope(rng, which: str):
    """A 4-d polytope with its planted mass linear and inessential bases."""
    if which == "y3":
        a = rng.pick(YK_ESSENTIAL)
        return _yk(rng, 3, a), ml_space_Yk(3, a)
    if which == "tower":
        a, d = rng.pick(TOWERS)
        return _tower(rng, a, d), ml_space_121(a, d)
    twists = rng.pick(SQUARE_TWISTS)
    poly, spec = rng.once(twists, lambda: _polygon_bundle(_square(), twists))
    return _moved(rng, poly), ml_space_D2_polygon(spec)


def _scan(rng) -> tuple[dict, list]:
    documents, bases = {}, {}
    for which in SCAN_POLYTOPES:
        poly, space = _scan_polytope(rng, which)
        documents[which] = to_document(poly, which)
        bases[which] = (poly.dim, space)
    rounds = []
    for v in range(SCAN_VARIANTS):
        rnd = []
        for which in SCAN_POLYTOPES:
            n, space = bases[which]
            H, gamma = _combo(rng, space.mass_linear)
            rnd.append(Request(f"{which}/{v}/ml", "check", which, H, Expect("ml", gamma=gamma)))
            H, gamma = _combo(rng, space.inessential)
            rnd.append(Request(f"{which}/{v}/inessential", "check", which, H,
                               Expect("inessential", gamma=gamma)))
            for j in range(2):
                rnd.append(Request(f"{which}/{v}/random{j}", "check", which,
                                   _random_functional(rng, n), Expect("random")))
        rounds.append(tuple(rnd))
    return documents, rounds


def _classify(rng) -> tuple[dict, list]:
    documents, rounds = {}, []
    for v in range(CLASSIFY_VARIANTS):
        rng.variant = v
        rnd = []
        for slot, (family, times) in enumerate(CLASSIFY_SLOTS):
            p = essential_pair(rng, family, times)
            key = f"{family}_x{times}_{slot}/{v}"
            documents[key] = to_document(p.poly, key)
            rnd.append(Request(key, "classify", key, p.H, p.expect))
        rounds.append(tuple(rnd))
    return documents, rounds


_GENERATORS = {"check_cold": _cold, "check_scan": _scan, "classify_blowups": _classify}


def generate(workload: str, seed: int) -> Corpus:
    if workload not in _GENERATORS:
        raise KeyError(f"unknown workload {workload!r}")
    rng = SeededDraw(f"{workload}:{seed}")
    documents, rounds = _GENERATORS[workload](rng)
    return Corpus(workload, seed, documents, tuple(rounds), workload == "check_scan")
