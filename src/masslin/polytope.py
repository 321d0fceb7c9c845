"""Half-space model of bounded rational polytopes.

A polytope is the intersection of N half-spaces ``<eta_i, x> <= kappa_i``
with primitive integer outward conormals eta_i and rational support
numbers kappa_i.  Construction validates that the data defines a bounded,
nonempty, full-dimensional polytope in which every half-space contributes
a genuine facet; redundant half-spaces are an error, not silently dropped.

Vertex enumeration from facet data is an exhaustive scan over all
C(N, n) n-element facet subsets, an O(C(N, n)) bound that is perfectly
fine at this package's scale (n <= 4, N <= 14 or so).  No subset is
solved on its own.  The signed maximal minors of the conormal matrix
(``_minor_rows``) give the rank, the recession rays and, by Cramer's
rule (``_subsets``), each n-subset's determinant, slacks and basic
point.  Each point keeps its numerators y over d L, and the determinant
d and edges of its first feasible subset, the vertex cones of
``measure``.  A vertex on exactly n facets settles the full-dimension
check and the hyperplane checks of its facets, so the affine rank is
computed only where no such vertex does.

Each facet-indexed row of the scan is one Python int, sum_i v_i 2^(B i)
(``_Packing``).  Packing is linear, so a row of minors costs n
multiply-adds of packed rows, a subset's slack row n + 1, and a sign
test over all N facets one mask compare.  The fields decode exactly
while every |v| < 2^(B-1), which ``_field_width`` makes sure of.  Every
field is a determinant of at most n distinct conormal rows (and unit
rows), so by Hadamard's inequality it is at most H, the square root of
the product of the n largest |eta_i|^2, in absolute value; a slack, an
(n+1) x (n+1) determinant bordered by the integer support numbers K,
expanded along K, is at most (n+1) max|K| H.

The scan is for polytopes built from facet data alone, such as parsed
documents.  A polytope derived from a parent whose half-spaces are its
own with one inserted (a blowup, a replayed stage) or one dropped (the
relaxed polytope of a blowdown) takes the parent as the private
``_parent`` argument and gets its table by a local update
(``_derived_points``).  A vertex cone depends only on its basis
facets, so a parent vertex that the change leaves a vertex keeps its
d and edges, its facet indices shifted and y rescaled to the child's L;
that is every vertex strictly inside an inserted half-space, and every
vertex off a dropped facet.  The new vertices come from pivots, as in the simplex method, on
the lines of the parent's edges: where an inserted facet crosses an edge
of a vertex it cuts off, and, past a dropped facet, where the line of an
edge that leaves it first meets another facet.  Every edge of a new
vertex then gets a ratio test, whose landing, if not yet listed, is
pivoted to and walked in turn.  Each new vertex is checked, in
integers, to lie on its basis facets, to be feasible and to be simple,
and each edge it walks to leave exactly its own facet.  An edge between
two kept vertices lies in the parent, so inside an inserted half-space
that holds at both ends, and needs no test.  The listed vertices are
then closed under edges, and as the graph of a polytope is connected
(Balinski 1961), they are all of them.  Wherever the update meets a
vertex on an inserted hyperplane, a point on more than n facets or an
unbounded edge, it leaves the build to the scan, so every error is the
scan's.  The child keeps no reference to its parent.

Construction keeps one table, ``_basic``, which it validates against:
per basic point, keyed by its active facets, the integers (y, d, W) of
``_basic_points``.  Everything else a polytope derives, its vertices and
face lattice included, goes through ``memoize`` into its one ``_memo``
dict: there is no other per-polytope store.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from fractions import Fraction
from functools import cache, wraps
from itertools import combinations
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Sequence

from .errors import NotSimpleError, PolytopeError, StructuralInconsistency
from .linalg import (
    IntVec,
    Vec,
    dot,
    frac,
    int_det,
    int_rank,
    int_vec,
    scaled,
    vec,
)


@dataclass(frozen=True)
class Vertex:
    """An extreme point together with the facets supporting it.

    basis is the set of supporting facets, like ``Face.index_set``;
    iterate ``sorted(basis)`` wherever the order is visible."""

    point: Vec
    basis: frozenset[int]


@dataclass(frozen=True)
class Face:
    """A nonempty face, keyed by the set of ALL facets containing it.

    On a simple polytope that set is the set of facets that cut it out,
    and the face has dimension n minus its size."""

    index_set: frozenset[int]
    vertex_ids: tuple[int, ...]
    dimension: int


def default_labels(n_facets: int) -> tuple[str, ...]:
    return tuple(f"F{i+1}" for i in range(n_facets))


def memoize(fn):
    """Memoize ``fn(poly, *args)`` on the polytope it is called with.

    Results live in the ``_memo`` dict that construction gives each
    polytope, keyed by the function's name alone or, with further
    arguments (which must be hashable), by the name, the arguments and
    their types, so that 1, 1.0 and True do not share an entry.  Memoize
    only data of the polytope itself: a functional H is never part of a
    key, so whatever depends on H is assembled from memoized parts on
    each call and the memo does not grow over a scan of functionals.  An
    exception is not memoized.
    """
    name = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memoized(poly, *args):
        key = (name, *args, *map(type, args)) if args else name
        memo = poly._memo
        if key not in memo:
            memo[key] = fn(poly, *args)
        return memo[key]

    return memoized


def _field_width(conormals: Sequence[IntVec], K: Sequence[int], n: int) -> int:
    """Bits per packed field: every entry v of a row of the scan has
    |v| <= (n+1) max(1, |K|) H < 2^(B-1) (module docstring)."""
    H = isqrt(prod(sorted(sum(x * x for x in eta) for eta in conormals)[-n:]))
    return ((n + 1) * max(1, *map(abs, K)) * H).bit_length() + 1


class _Packing:
    """Rows of N facet fields, then n coordinate fields, B bits each.  Added
    to a row, ``bias`` (2^(B-1) a field) makes every field nonnegative, with
    its top bit set exactly when the entry is; carries only run up, so
    ``top``, the facet part of it, tests the facet fields alone."""

    def __init__(self, B: int, N: int, n: int):
        self.B, self.N, self.n = B, N, n
        self.mask, self.half = (1 << B) - 1, 1 << (B - 1)
        self.bias = self.half * (((1 << (B * (N + n))) - 1) // self.mask)
        self.top = self.bias & ((1 << (B * N)) - 1)

    def pack(self, row: Sequence[int]) -> int:
        return sum(v << (self.B * i) for i, v in enumerate(row))

    def nonneg(self, X: int) -> bool:
        return (X + self.top) & self.top == self.top

    def fields(self, X: int, start: int, stop: int) -> list[int]:
        B, mask, half = self.B, self.mask, self.half
        X = (X + self.bias) >> (B * start)
        return [((X >> (B * i)) & mask) - half for i in range(stop - start)]


@cache
def _expansion_plans(n: int) -> tuple[list[list[tuple[int, int]]], ...]:
    """Per prefix length k < n-1, (n-k-2)-subset T' and column s, the sign
    of e_s moved into place in e_T' (0 for s in T') and the index of s + T'
    among the (n-k-1)-subsets of the columns (``_minor_rows``)."""
    plans = []
    for k in range(n - 1):
        index = {T: q for q, T in enumerate(combinations(range(n), n - k - 1))}
        plans.append([
            [(0, 0) if s in T else ((-1) ** sum(t < s for t in T), index[tuple(sorted((s, *T)))])
             for s in range(n)]
            for T in combinations(range(n), n - k - 2)
        ])
    return tuple(plans)


def _minor_rows(conormals: Sequence[IntVec], n: int, packing: _Packing) -> dict[tuple[int, ...], int]:
    """Per (n-1)-subset S of the facets, in ``combinations`` order, the
    packed row P_S of det(rows S, then x) over x = eta_i, then x = e_j:
    the pairings of the cofactor vector c_S, then c_S itself.  A prefix R
    of k facets keeps the rows of det(rows R, e_T, then x), T over the
    (n-k-1)-subsets of the columns; R + (b,) has the rows sum_s b_s
    det(rows R, e_s, e_T', then x), each term a row of R up to sign."""
    N = len(conormals)
    cols = [packing.pack((*col, *(int(u == j) for j in range(n)))) for u, col in enumerate(zip(*conormals))]
    plans = _expansion_plans(n)
    table: dict[tuple[int, ...], int] = {}

    def expand(S: tuple[int, ...], state: list[int]) -> None:
        k = len(S)
        if k == n - 1:  # n = 1 only
            table[S] = state[0]
            return
        G = [[sign * state[q] for sign, q in plan] for plan in plans[k]]
        for i in range(S[-1] + 1 if S else 0, N - n + 2 + k):
            if k == n - 2:
                table[S + (i,)] = sum(map(mul, conormals[i], G[0]))
            else:
                expand(S + (i,), [sum(map(mul, conormals[i], g)) for g in G])

    # det(e_T, then x) = (-1)^(n-1+u) x_u for T all columns but u
    expand((), [(-1) ** (n - 1 + u) * cols[u] for u in reversed(range(n))])
    return table


def _check_bounded(table: dict[tuple[int, ...], int], packing: _Packing) -> None:
    nonneg = packing.nonneg
    if all(nonneg(P) and nonneg(-P) for P in table.values()):
        raise PolytopeError("unbounded: conormals do not span the ambient space")
    # The recession cone is pointed (full conormal rank), so if it is
    # nontrivial some n-1 conormals S of rank n-1 vanish on an extreme ray:
    # c_S, nonzero (as P_S is) exactly then, is a ray if its pairings have one sign.
    for P in table.values():
        if P and (nonneg(P) or nonneg(-P)):
            c = packing.fields(P, packing.N, packing.N + packing.n)
            last = next(x for x in reversed(c) if x)
            sign = 1 if nonneg(-P if last > 0 else P) else -1
            ray = tuple(Fraction(sign * x, last) for x in c)
            raise PolytopeError(f"unbounded: recession direction {ray}")


def _subsets(table: dict[tuple[int, ...], int], K: Sequence[int], n: int, packing: _Packing):
    """Cramer's rule on each nonsingular n-subset J of the facets, in
    ``combinations`` order: (J, d, s, minors, slack), minors[r] = P_r the
    row of J minus its r-th facet J_r, d = |det A_J| = |P_{n-1}[J_{n-1}]|,
    s_r = (-1)^(r+n) sign(det A_J).  With w_r = s_r K_{J_r}, y = -sum_r
    w_r c_r solves A_J y = d K_J, and slack = d K + sum_r w_r P_r (A_J
    bordered by x and K, expanded along K; s_{n-1} = -sign(det A_J))
    holds d K_i - <eta_i, y>, then -y.  As P_r[J_r] = (-1)^(n-1-r) det
    A_J, s_r c_r is the edge -d A_J^{-1} e_r leaving facet J_r."""
    B, mask, half, top, N = packing.B, packing.mask, packing.half, packing.top, packing.N
    Kp = packing.pack(K)
    alternating = [(-1) ** (r + n) for r in range(n)]
    for S, P in table.items():
        biased = P + top
        fronts = [S[:r] + S[r + 1 :] for r in range(n - 1)]
        w = [a * K[i] for a, i in zip(alternating, S)]
        for j in range(S[-1] + 1 if S else 0, N):
            det = ((biased >> (B * j)) & mask) - half
            if not det:
                continue
            # J without J_r, r < n-1, is S without S_r, then j
            minors = [table[T + (j,)] for T in fronts]
            slack = det * Kp - K[j] * P + sum(map(mul, w, minors))
            minors.append(P)
            d, s = (det, alternating) if det > 0 else (-det, [-a for a in alternating])
            yield S + (j,), d, s, minors, slack if det > 0 else -slack


Table = dict[frozenset[int], tuple[IntVec, int, tuple[IntVec, ...]]]


def _basic_points(conormals: Sequence[IntVec], support: Sequence[Fraction], n: int) -> Table:
    """All feasible basic points, after the boundedness check; raises if
    there are none.  Each is keyed by its full active facet set and held
    as (y, d, W) of its first feasible subset J (``_subsets``): the point
    is y / (d L), L the lcm of the support denominators, d = |det A_J|
    and W the edges w_r = -d A_J^{-1} e_r, r over the sorted facets of J,
    so the minor rows can be freed.  At a simple vertex J is its basis.

    J is feasible when no facet field of its slack row is negative.
    Points enter the table in the order of their first feasible subset in
    ``combinations`` order."""
    N = len(conormals)
    _, (K,) = scaled([support])
    packing = _Packing(_field_width(conormals, K, n), N, n)
    table = _minor_rows(conormals, n, packing)
    _check_bounded(table, packing)
    B, mask, nonneg, fields = packing.B, packing.mask, packing.nonneg, packing.fields
    points: Table = {}
    for J, d, s, minors, slack in _subsets(table, K, n, packing):
        if not nonneg(slack):
            continue
        # nonnegative fields carry nothing into the next one
        active = frozenset([i for i in range(N) if not (slack >> (B * i)) & mask])
        if not active.issuperset(J):
            # a basic point lies on the facets it solves: the fields were too narrow
            raise StructuralInconsistency("a basic point has zero slack on its own facets")
        if active not in points:
            points[active] = (tuple([-y for y in fields(slack, N, N + n)]), d,
                              tuple([tuple(fields(sr * P, N, N + n)) for sr, P in zip(s, minors)]))
    if not points:
        raise PolytopeError("empty polytope")
    return points


class _Degenerate(Exception):
    """The local update met a vertex that is not simple or an unbounded
    edge: the scan decides."""


def _pivot(B, y, d, W, r, k, S, a):
    """The basic solution where facet k enters basis B (sorted facets;
    y / (d L) its point, W its edges) on the line of edge r, the facet
    B[r] leaving: (B', y', d', W') in the same terms, B' sorted.  S is the
    slack of facet k at B scaled by d L, and a[j] = <eta_k, W[j]>.  With
    d' = |a_r| and s its sign, the edge that leaves k is -s W[r] and the
    one that leaves B[j] is s (a_r W[j] - a_j W[r]) / d, both exact."""
    ar = a[r]
    sign, wr = (1 if ar > 0 else -1), W[r]
    y2 = []
    for yc, wc in zip(y, wr):
        # y' / (d' L) = y / (d L) + S wr / (d L a_r)
        q, rem = divmod(sign * (ar * yc + S * wc), d)
        if rem:
            raise StructuralInconsistency("a pivot must land on a point of its basis lattice")
        y2.append(q)
    pairs = sorted(
        (k, tuple([-sign * x for x in wr])) if j == r
        else (f, tuple([sign * (ar * x - aj * z) // d for x, z in zip(w, wr)]))
        for j, (f, w, aj) in enumerate(zip(B, W, a))
    )
    return tuple(f for f, _ in pairs), tuple(y2), abs(ar), tuple(w for _, w in pairs)


def _derived_points(
    parent: HPolytope, conormals: Sequence[IntVec], support: Sequence[Fraction], n: int
) -> Table | None:
    """``_basic_points`` of a polytope whose half-spaces are parent's with
    one inserted or one dropped, by the local update of the module
    docstring; None where the update meets anything but simple, bounded
    vertices, so that the scan decides.  The table comes in the scan's
    order, lexicographic in the sorted bases."""
    old = tuple(zip(parent.conormals, parent.support))
    new = tuple(zip(conormals, support))
    inserted = len(new) == len(old) + 1
    short, long = (old, new) if inserted else (new, old)
    at = next((i for i, pair in enumerate(short) if pair != long[i]), len(short))
    if len(long) != len(short) + 1 or short[at:] != long[at + 1 :]:
        raise StructuralInconsistency("a derived polytope must differ from its parent in one facet")
    if not parent.is_simple():
        return None
    # The walk runs in the frame of the longer system, which parent points
    # move up into by L / L_parent: a basic point with |det A_B| = d is y /
    # (d L), with slacks d K - <eta, y> over d L, and ``_field_width`` of
    # that system bounds the packed fields.
    L, (K,) = scaled([[k for _, k in long]])
    up, down = L // _scaled_support(parent)[0], L // lcm(*(k.denominator for k in support))
    N = len(conormals)
    packing = _Packing(_field_width([eta for eta, _ in long], K, n), N, 0)
    eta_x, K_x = long[at][0], K[at]
    if not inserted:
        del K[at]
    cols = [packing.pack(col) for col in zip(*conormals)]
    Kp, fields = packing.pack(K), packing.fields

    def slacks(y, d):
        return fields(d * Kp - sum(map(mul, y, cols)), 0, N)

    def pairings(w):
        return fields(sum(map(mul, w, cols)), 0, N)

    shift = [i + (i >= at) if inserted else i - (i > at) for i in range(len(old))]
    rows: Table = {}  # every listed vertex
    found: list[tuple] = []  # the new ones, to walk: (B, y, d, W, S)

    def admit(B, y, d, W, seed=False):
        """List the basic point y / (d L) of the sorted basis B, after the
        checks that it lies on B and is feasible and simple; an infeasible
        seed of an insertion is no vertex and is left out."""
        S = slacks(y, d)
        if any([S[f] for f in B]):
            raise StructuralInconsistency("a derived vertex must lie on its basis facets")
        if min(S) < 0:
            if seed:
                return
            raise StructuralInconsistency("a ratio test must land on a feasible point")
        if S.count(0) > n:
            raise _Degenerate
        rows[frozenset(B)] = y, d, W
        found.append((B, y, d, W, S))

    try:
        for active, (y, d, W) in parent._basic.items():
            y = tuple([c * up for c in y]) if up != 1 else y
            if inserted:
                S = K_x * d - sum(map(mul, eta_x, y))
                if S > 0:
                    rows[frozenset([shift[i] for i in active])] = y, d, W
                    continue
                if not S:
                    raise _Degenerate
                # a cut vertex: the new facet enters along each edge toward it
                B = [shift[i] for i in sorted(active)]
                a = [sum(map(mul, eta_x, w)) for w in W]
                for r, ar in enumerate(a):
                    if ar < 0:
                        admit(*_pivot(B, y, d, W, r, at, S, a), seed=True)
            elif at not in active:
                rows[frozenset([shift[i] for i in active])] = y, d, W
            else:
                # past the dropped facet, on the line of the edge leaving it,
                # the first facet met enters in its place B[r]
                Bp = sorted(active)
                r = Bp.index(at)
                S = slacks(y, d)
                k = _ratio_test(S, [-a for a in pairings(W[r])])
                B = [shift[i] for i in Bp]
                if frozenset([*B[:r], *B[r + 1 :], k]) not in rows:
                    a = [sum(map(mul, conormals[k], w)) for w in W]
                    admit(*_pivot(B, y, d, W, r, k, S[k], a))
        # closure: every edge of a new vertex lands on a listed vertex; an
        # edge between two vertices is tested from one end
        tested = set()
        for B, y, d, W, S in found:
            key = frozenset(B)
            for t, w in enumerate(W):
                if (key, B[t]) in tested:
                    continue
                A = pairings(w)
                if [A[f] for f in B] != [-d if j == t else 0 for j in range(n)]:
                    raise StructuralInconsistency("a derived edge must leave exactly its own facet")
                k = _ratio_test(S, A)
                landing = frozenset([*B[:t], *B[t + 1 :], k])
                if landing not in rows:
                    a = [sum(map(mul, conormals[k], v)) for v in W]
                    admit(*_pivot(B, y, d, W, t, k, S[k], a))
                tested.add((landing, k))
    except _Degenerate:
        return None
    if not rows:
        return None
    # down into the child's frame by L / L_child, exactly: y is then
    # +-adj(A_B) K_B, K the child's integer support numbers
    return {B: (tuple([c // down for c in rows[B][0]]), *rows[B][1:]) if down != 1 else rows[B]
            for B in sorted(rows, key=sorted)}


def _ratio_test(S: Sequence[int], A: Sequence[int]) -> int:
    """The facet k that a move along an edge meets first: the least S_k /
    A_k over A_k > 0, exact by cross-multiplying, the first of a tie (whose
    point, on more than n facets, ``admit`` rejects); raises
    ``_Degenerate`` on an unbounded edge."""
    best = None
    for k, a in enumerate(A):
        if a > 0 and (best is None or S[k] * A[best] < S[best] * a):
            best = k
    if best is None:
        raise _Degenerate
    return best


def _affine_rank(rows) -> int:
    """Dimension of the affine span of basic points (y, d, W) of one
    table: the rank of the rows (p, 1), p = y / (d L), minus one.  The
    row (y, d) is d (L p, 1), a row scale by d and a column scale by L,
    common to all rows, so it has the same rank."""
    return int_rank([(*y, d) for y, d, _ in rows]) - 1


def _facet_spans(points: Table, n_facets: int, n: int) -> tuple[bool, list[bool | None]]:
    """Whether the basic points span R^n, and per facet None when no
    basic point lies on it, else whether those on it span a hyperplane.

    A basic point on exactly n facets is a vertex with a simplicial
    neighbourhood: it solves those n facets, so their conormals are
    independent, and near it the polytope is the cone they cut out.  So
    one such vertex makes the polytope full-dimensional, and each of its
    n facets holds an (n-1)-dimensional piece of that cone's boundary, so
    spans a hyperplane.  ``_affine_rank`` runs only for a facet that
    meets no such vertex, or for the whole polytope when none exists.
    """
    simple = {i for active in points if len(active) == n for i in active}
    full = bool(simple) or _affine_rank(points.values()) == n
    spans: list[bool | None] = []
    for i in range(n_facets):
        if i in simple:
            spans.append(True)
            continue
        on_facet = [row for act, row in points.items() if i in act]
        spans.append(_affine_rank(on_facet) == n - 1 if on_facet else None)
    return full, spans


@dataclass(frozen=True, eq=False)
class HPolytope:
    """The polytope of the facets <conormals[i], x> <= support[i] in R^dim,
    primitive integer conormals, Fraction support numbers.  Labels and name
    are presentation only: polytopes are equal when dim, conormals and
    support agree, in order.  Construction raises ``PolytopeError`` unless
    each half-space is a facet of a bounded, nonempty, full-dimensional
    polytope, and keeps the table ``_basic`` (``_basic_points``) and an
    empty ``_memo``; the private ``_parent``, sharing all facets but one,
    is a polytope to derive the table from (``_derived_points``)."""

    dim: int
    conormals: tuple[IntVec, ...]
    support: tuple[Fraction, ...]
    labels: tuple[str, ...] = ()
    name: str | None = None
    _parent: InitVar[HPolytope | None] = None

    def __post_init__(self, _parent=None):
        n = self.dim
        if n < 1:
            raise PolytopeError("dimension must be at least 1")
        conormals = tuple(int_vec(v) for v in self.conormals)
        support = tuple(frac(k) for k in self.support)
        if len(conormals) != len(support):
            raise PolytopeError("conormal and support counts differ")
        if len(conormals) < n + 1:
            raise PolytopeError("a bounded n-polytope needs at least n+1 facets")
        for v in conormals:
            if len(v) != n:
                raise PolytopeError(f"conormal {v} has wrong length")
            if gcd(*v) != 1:
                if not any(v):
                    raise ValueError("zero vector has no primitive representative")
                raise PolytopeError(f"conormal {v} is not primitive")
        labels = tuple(self.labels) if self.labels else default_labels(len(conormals))
        if len(labels) != len(conormals):
            raise PolytopeError("label count does not match facet count")
        if len(set(labels)) != len(labels):
            raise PolytopeError("facet labels must be unique")
        seen = {}
        for i, (eta, k) in enumerate(zip(conormals, support)):
            if (eta, k) in seen:
                raise PolytopeError(f"duplicate half-space at facets {seen[(eta, k)]} and {i}")
            seen[(eta, k)] = i
        object.__setattr__(self, "conormals", conormals)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "labels", labels)
        derived = None if _parent is None else _derived_points(_parent, conormals, support, n)
        pts = derived or _basic_points(conormals, support, n)
        full, spans = _facet_spans(pts, len(conormals), n)
        if not full:
            raise PolytopeError("polytope is not full-dimensional")
        for label, spanning in zip(labels, spans):
            if spanning is None:
                raise PolytopeError(f"facet {label} is redundant (empty)")
            if not spanning:
                raise PolytopeError(
                    f"facet {label} does not span a hyperplane (redundant half-space)"
                )
        object.__setattr__(self, "_basic", pts)
        object.__setattr__(self, "_memo", {})

    def __eq__(self, other):
        if not isinstance(other, HPolytope):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.conormals == other.conormals
            and self.support == other.support
        )

    def __hash__(self):
        return hash((self.dim, self.conormals, self.support))

    @property
    def n_facets(self) -> int:
        return len(self.conormals)

    def label_index(self, label: str) -> int:
        """The index of the facet with the given label; KeyError if none."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no facet labeled {label!r}") from None

    @property
    @memoize
    def vertices(self) -> tuple[Vertex, ...]:
        """All vertices, sorted by coordinates; raises if not simple."""
        L, verts = _scaled_support(self)[0], []
        for active, (y, d, _) in self._basic.items():
            point = tuple([Fraction(c, d * L) for c in y])
            if len(active) != self.dim:
                raise NotSimpleError(
                    f"vertex {point} lies on {len(active)} facets",
                    point=point,
                    active=active,
                )
            verts.append(Vertex(point, active))
        verts.sort(key=lambda v: v.point)
        return tuple(verts)

    def is_simple(self) -> bool:
        """Whether every vertex lies on exactly dim facets."""
        return all(len(active) == self.dim for active in self._basic)

    @memoize
    def is_smooth(self) -> bool:
        """Simple, and the active conormals at each vertex form a lattice
        basis: every |det A_v| that construction found is 1."""
        return self.is_simple() and all(d == 1 for _, d, _ in self._basic.values())

    @property
    @memoize
    def face_lattice(self) -> dict[frozenset[int], Face]:
        """All nonempty faces keyed by canonical (maximal) facet index set.

        Includes the polytope itself under the empty key.  Requires a
        simple polytope, where the facets through a vertex are exactly
        its n basis facets: a subset S of a vertex basis cuts out a face
        of dimension n - |S|, with the vertices whose basis contains S,
        that lies on no other facet.
        """
        ids: dict[frozenset[int], list[int]] = {}
        for vid, v in enumerate(self.vertices):
            basis = sorted(v.basis)
            for r in range(self.dim + 1):
                for S in combinations(basis, r):
                    ids.setdefault(frozenset(S), []).append(vid)
        return {S: Face(S, tuple(vs), self.dim - len(S)) for S, vs in ids.items()}

    def face(self, index_set) -> Face | None:
        """The face cut out by the given facets, or None when empty.

        Facets that meet lie in a vertex basis, so on a simple polytope
        they are the canonical index set of their face."""
        return self.face_lattice.get(frozenset(index_set))

    def faces_of_dimension(self, k: int) -> list[Face]:
        """The faces of dimension k, sorted by their sorted index sets."""
        return sorted(
            (f for f in self.face_lattice.values() if f.dimension == k),
            key=lambda f: tuple(sorted(f.index_set)),
        )

    def with_support(self, new_support) -> "HPolytope":
        """The polytope at new support numbers, with these conormals, labels and name."""
        return HPolytope(self.dim, self.conormals, tuple(frac(k) for k in new_support), self.labels, self.name)

    def in_same_chamber(self, new_support) -> bool:
        """Same smooth combinatorial type on the whole segment from the
        support numbers to the new ones: the polytope builds at the new
        point with the same vertex bases.

        That one build decides the segment.  For a fixed basis B the
        point v_B(kappa) is linear in kappa, so a strict slack on every
        facet off B at both ends holds all along.  Edge j of v_B runs
        along a fixed w_j; the listed vertex of B - B_j + k where it ends
        here stays on its line, ahead of v_B at a positive distance, and
        feasible, so the edge ends there all along.  The listed vertices
        are then closed under edges, and as the graph of a polytope is
        connected (Balinski 1961), they are all of its vertices.
        Smoothness reads d off the same bases.
        """
        if not self.is_smooth():
            raise PolytopeError("chamber test requires a smooth polytope")
        new_support = vec(new_support)
        if len(new_support) != self.n_facets:
            raise PolytopeError("support vector has wrong length")
        try:
            other = self.with_support(new_support)
        except PolytopeError:
            return False
        return other._basic.keys() == self._basic.keys()

    @memoize
    def chamber_radius(self) -> tuple[Fraction, ...]:
        """Per-facet safe perturbation radii, uniform by construction: any
        support perturbation bounded entrywise by them stays inside the
        chamber."""
        if not self.is_smooth():
            raise PolytopeError("chamber radius requires a smooth polytope")
        n, N = self.dim, self.n_facets
        L, K = _scaled_support(self)
        packing = _Packing(_field_width(self.conormals, K, n), N, n)
        gaps, max_sens = [], Fraction(0)
        for J, d, _, minors, slack in _subsets(_minor_rows(self.conormals, n, packing), K, n, packing):
            # A_J^{-1} has the columns (-1)^(r+n-1) c_{J minus J_r} / det A_J,
            # so the entries of A_J^{-T} eta_i are +-P_{J minus J_r}[i] / d
            rows = [packing.fields(P, 0, N) for P in minors]
            slacks = packing.fields(slack, 0, N)
            out = [i for i in range(N) if i not in J]
            max_sens = max(max_sens, *(Fraction(sum(abs(P[i]) for P in rows), d) for i in out))
            least = min(slacks[i] for i in out)
            if not least:
                raise PolytopeError("degenerate basic point on a smooth polytope")
            gaps.append(Fraction(abs(least), d * L))
        if not gaps or min(gaps) <= 0:
            raise StructuralInconsistency("a smooth polytope has a positive chamber gap")
        return (min(gaps) / (2 * (1 + max_sens)),) * N

    def translate(self, xi) -> "HPolytope":
        """The polytope moved by xi: each kappa_i becomes kappa_i + <eta_i, xi>."""
        xi = vec(xi)
        new_support = tuple(
            k + dot(eta, xi) for eta, k in zip(self.conormals, self.support)
        )
        return HPolytope(self.dim, self.conormals, new_support, self.labels, self.name)

    def apply_lattice_map(self, T) -> "HPolytope":
        """Transform conormals by the unimodular matrix T (support fixed).

        Points transform by the inverse transpose, so all lattice data
        (smoothness, face pattern, volumes) is preserved.
        """
        Tm = [int_vec(row) for row in T]
        if abs(int_det(Tm)) != 1:
            raise PolytopeError("lattice map must be unimodular")
        new_conormals = tuple(tuple(sum(map(mul, row, eta)) for row in Tm) for eta in self.conormals)
        return HPolytope(self.dim, new_conormals, self.support, self.labels, self.name)

    def permute_facets(self, order: Sequence[int]) -> "HPolytope":
        """Reorder facets; order[i] is the old index placed at position i."""
        if sorted(order) != list(range(self.n_facets)):
            raise PolytopeError("order must be a permutation of facet indices")
        return HPolytope(
            self.dim,
            tuple(self.conormals[i] for i in order),
            tuple(self.support[i] for i in order),
            tuple(self.labels[i] for i in order),
            self.name,
        )

    def facet_matching(self, other: "HPolytope") -> tuple[int, ...] | None:
        """Permutation sending this polytope's facets onto other's by
        exact (conormal, support) equality, or None."""
        if self.dim != other.dim or self.n_facets != other.n_facets:
            return None
        lookup = {
            (eta, k): i
            for i, (eta, k) in enumerate(zip(other.conormals, other.support))
        }
        out = []
        for eta, k in zip(self.conormals, self.support):
            j = lookup.get((eta, k))
            if j is None:
                return None
            out.append(j)
        return tuple(out)

    def __repr__(self):
        nm = f" {self.name!r}" if self.name else ""
        return f"<HPolytope{nm} dim={self.dim} facets={self.n_facets}>"


@memoize
def _scaled_support(poly: HPolytope) -> tuple[int, IntVec]:
    """(L, K): the support numbers are K / L, L the lcm of their
    denominators."""
    L = lcm(*(k.denominator for k in poly.support))
    return L, tuple(k.numerator * (L // k.denominator) for k in poly.support)
