"""Half-space model of bounded rational polytopes.

A polytope is the intersection of N half-spaces ``<eta_i, x> <= kappa_i``
with primitive integer outward conormals eta_i and rational support
numbers kappa_i.  Construction validates that the data defines a bounded,
nonempty, full-dimensional polytope in which every half-space contributes
a genuine facet; redundant half-spaces are an error, not silently dropped.

Vertex enumeration is an exhaustive scan over all C(N, n) n-element
facet subsets, an O(C(N, n)) bound that is perfectly fine at this
package's scale (n <= 4, N <= 14 or so).  The conormals are integer, so
each subset is solved fraction-free (Bareiss elimination, ``int_solve``)
against the support numbers scaled to integers; feasibility and the
active facets are read off integer slacks, and a Fraction point is
formed only for a feasible subset.  The boundedness, full-dimension and
facet checks and the smoothness test run in integers too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, wraps
from itertools import combinations
from math import lcm
from operator import mul
from typing import Sequence

from .errors import NotSimpleError, PolytopeError, StructuralInconsistency
from .linalg import (
    IntVec,
    Vec,
    dot,
    frac,
    int_adjugate,
    int_det,
    int_rank,
    int_solve,
    int_vec,
    primitive,
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
    """A nonempty face, keyed by the set of ALL facets containing it."""

    index_set: frozenset[int]
    vertex_ids: tuple[int, ...]
    dimension: int


def default_labels(n_facets: int) -> tuple[str, ...]:
    return tuple(f"F{i+1}" for i in range(n_facets))


def memoize(fn):
    """Memoize ``fn(poly, *args)`` on the polytope it is called with.

    Results live in the polytope's instance dict, beside the
    ``cached_property`` attributes of ``HPolytope``, in one ``_memo``
    dict keyed by the function, its remaining arguments (which must be
    hashable) and their types, so that 1, 1.0 and True do not share an
    entry.  Memoize only data of the polytope itself: a functional
    H is never part of a key, so whatever depends on H is assembled from
    memoized parts on each call and the memo does not grow over a scan
    of functionals.  An exception is not memoized.
    """
    name = f"{fn.__module__}.{fn.__qualname__}"

    @wraps(fn)
    def memoized(poly, *args):
        memo = poly.__dict__.setdefault("_memo", {})
        key = (name, *args, *map(type, args))
        if key not in memo:
            memo[key] = fn(poly, *args)
        return memo[key]

    return memoized


def _check_bounded(conormals: Sequence[IntVec], n: int) -> None:
    if int_rank(conormals) < n:
        raise PolytopeError("unbounded: conormals do not span the ambient space")
    # The recession cone is pointed (full conormal rank), so if it is
    # nontrivial it has an extreme ray vanishing on some rank n-1 subset.
    # The kernel of n-1 rows is spanned by their cofactor vector, which
    # is zero exactly when their rank is below n-1.
    for S in combinations(range(len(conormals)), n - 1):
        rows = [conormals[i] for i in S]
        ray = [
            (-1) ** j * int_det([row[:j] + row[j + 1 :] for row in rows])
            for j in range(n)
        ]
        if not any(ray):
            continue
        pairings = [sum(a * b for a, b in zip(eta, ray)) for eta in conormals]
        if all(p <= 0 for p in pairings) or all(p >= 0 for p in pairings):
            last = next(x for x in reversed(ray) if x)
            ray = tuple(Fraction(x, last) for x in ray)
            for cand in (ray, tuple(-x for x in ray)):
                if all(dot(eta, cand) <= 0 for eta in conormals):
                    raise PolytopeError(
                        f"unbounded: recession direction {tuple(cand)}"
                    )


def _enumerate_basic_points(
    conormals: Sequence[IntVec], support: Sequence[Fraction], n: int
) -> dict[Vec, frozenset[int]]:
    """All feasible basic points, mapped to their full active facet sets.

    The support numbers are scaled by the lcm L of their denominators to
    integers K.  Each n-subset J is solved fraction-free, A_J y = d K_J
    with d = det A_J > 0 after a sign flip, so the basic point is
    y / (d L) and its slack on facet i is (d K_i - <eta_i, y>) / (d L).
    Points enter the dict in the order of their first feasible subset in
    ``combinations`` order.
    """
    L = lcm(*(k.denominator for k in support))
    K = [k.numerator * (L // k.denominator) for k in support]
    points: dict[Vec, frozenset[int]] = {}
    for J in combinations(range(len(conormals)), n):
        d, y = int_solve([conormals[j] for j in J], [K[j] for j in J])
        if d == 0:
            continue
        if d < 0:
            d, y = -d, tuple(-e for e in y)
        active = []
        for i, eta in enumerate(conormals):
            s = d * K[i] - sum(a * b for a, b in zip(eta, y))
            if s < 0:
                break
            if s == 0:
                active.append(i)
        else:
            point = tuple(Fraction(e, d * L) for e in y)
            points.setdefault(point, frozenset(active))
    return points


def _affine_rank(points: Sequence[Vec]) -> int:
    """Dimension of the affine span of rational points, as the integer
    rank of their homogeneous coordinates (D p, D) minus one, D the lcm
    of each point's denominators."""
    rows = []
    for p in points:
        D = lcm(*(x.denominator for x in p))
        rows.append([x.numerator * (D // x.denominator) for x in p] + [D])
    return int_rank(rows) - 1


@dataclass(frozen=True, eq=False)
class HPolytope:
    dim: int
    conormals: tuple[IntVec, ...]
    support: tuple[Fraction, ...]
    labels: tuple[str, ...] = ()
    name: str | None = None

    def __post_init__(self):
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
            if primitive(v) != v:
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
        _check_bounded(conormals, n)
        pts = _enumerate_basic_points(conormals, support, n)
        if not pts:
            raise PolytopeError("empty polytope")
        if _affine_rank(list(pts)) < n:
            raise PolytopeError("polytope is not full-dimensional")
        for i in range(len(conormals)):
            on_facet = [p for p, act in pts.items() if i in act]
            if not on_facet:
                raise PolytopeError(f"facet {labels[i]} is redundant (empty)")
            if _affine_rank(on_facet) < n - 1:
                raise PolytopeError(
                    f"facet {labels[i]} does not span a hyperplane (redundant half-space)"
                )
        object.__setattr__(self, "_basic", pts)

    # equality is geometric: same facet data in the same order; labels and
    # name are presentation only
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
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no facet labeled {label!r}") from None

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        """All vertices, sorted by coordinates; raises if not simple."""
        verts = []
        for point, active in self._basic.items():
            if len(active) != self.dim:
                raise NotSimpleError(
                    f"vertex {tuple(point)} lies on {len(active)} facets",
                    point=point,
                    active=active,
                )
            verts.append(Vertex(point, active))
        verts.sort(key=lambda v: v.point)
        return tuple(verts)

    def is_simple(self) -> bool:
        return all(len(active) == self.dim for active in self._basic.values())

    @memoize
    def is_smooth(self) -> bool:
        """Simple, and the active conormals at each vertex form a lattice basis."""
        if not self.is_simple():
            return False
        for v in self.vertices:
            if abs(int_det([self.conormals[i] for i in v.basis])) != 1:
                return False
        return True

    @cached_property
    def face_lattice(self) -> dict[frozenset[int], Face]:
        """All nonempty faces keyed by canonical (maximal) facet index set.

        Includes the polytope itself under the empty key.  Requires a
        simple polytope, where dimension = n - |canonical index set|.
        """
        verts = self.vertices
        faces: dict[frozenset[int], Face] = {}
        for vid, v in enumerate(verts):
            basis = sorted(v.basis)
            for r in range(self.dim + 1):
                for S in combinations(basis, r):
                    key = frozenset(S)
                    if key in faces:
                        continue
                    ids = [w for w, u in enumerate(verts) if key <= u.basis]
                    canonical = frozenset.intersection(*[verts[w].basis for w in ids])
                    if canonical == key:
                        faces[key] = Face(key, tuple(ids), self.dim - len(key))
        return faces

    def face(self, index_set) -> Face | None:
        """The face cut out by the given facets, or None when empty.

        The returned Face is keyed by its canonical index set, which may
        be strictly larger than the requested one.
        """
        req = frozenset(index_set)
        ids = [w for w, u in enumerate(self.vertices) if req <= u.basis]
        if not ids:
            return None
        canonical = frozenset.intersection(*[self.vertices[w].basis for w in ids])
        return self.face_lattice[canonical]

    def faces_of_dimension(self, k: int) -> list[Face]:
        return sorted(
            (f for f in self.face_lattice.values() if f.dimension == k),
            key=lambda f: tuple(sorted(f.index_set)),
        )

    @cached_property
    def _vertex_pattern(self) -> frozenset[frozenset[int]]:
        return frozenset(v.basis for v in self.vertices)

    def with_support(self, new_support) -> "HPolytope":
        return HPolytope(self.dim, self.conormals, tuple(frac(k) for k in new_support), self.labels, self.name)

    def in_same_chamber(self, new_support) -> bool:
        """Same smooth combinatorial type at the new support numbers.

        Checks the vertex pattern at the new point and at the segment
        midpoint.  Pattern equality at sample points is necessary but not
        literally sufficient for membership in the same connected
        component; with the midpoint included this is a sufficient
        practical test at this package's scale.
        """
        if not self.is_smooth():
            raise PolytopeError("chamber test requires a smooth polytope")
        new_support = vec(new_support)
        if len(new_support) != self.n_facets:
            raise PolytopeError("support vector has wrong length")
        mid = tuple((a + b) / 2 for a, b in zip(self.support, new_support))
        for kappa in (new_support, mid):
            try:
                other = self.with_support(kappa)
            except PolytopeError:
                return False
            if not other.is_smooth():
                return False
            if other._vertex_pattern != self._vertex_pattern:
                return False
        return True

    @cached_property
    def _chamber_delta(self) -> Fraction:
        """Uniform box radius: any support perturbation bounded by this
        entrywise stays inside the chamber."""
        if not self.is_smooth():
            raise PolytopeError("chamber radius requires a smooth polytope")
        n, N = self.dim, self.n_facets
        min_gap = None
        max_sens = Fraction(0)
        for J in combinations(range(N), n):
            d, adj = int_adjugate([self.conormals[j] for j in J])
            if d == 0:
                continue
            kappa_J = [self.support[j] for j in J]
            x = [sum(a * k for a, k in zip(row, kappa_J)) / d for row in adj]
            slacks = {
                i: self.support[i] - dot(self.conormals[i], x)
                for i in range(N)
                if i not in J
            }
            for i in slacks:
                eta = self.conormals[i]
                # sum_c |(A_J^{-T} eta_i)_c|, with A_J^{-1} = adj / d
                sens = Fraction(
                    sum(abs(sum(adj[r][c] * eta[r] for r in range(n))) for c in range(n)),
                    abs(d),
                )
                if sens > max_sens:
                    max_sens = sens
            if all(s > 0 for s in slacks.values()):
                gap = min(slacks.values())
            elif any(s < 0 for s in slacks.values()):
                gap = max(-s for s in slacks.values() if s < 0)
            else:
                raise PolytopeError("degenerate basic point on a smooth polytope")
            if min_gap is None or gap < min_gap:
                min_gap = gap
        if min_gap is None or min_gap <= 0:
            raise StructuralInconsistency("a smooth polytope has a positive chamber gap")
        return min_gap / (2 * (1 + max_sens))

    def chamber_radius(self) -> tuple[Fraction, ...]:
        """Per-facet safe perturbation radii (uniform by construction)."""
        d = self._chamber_delta
        return (d,) * self.n_facets

    def translate(self, xi) -> "HPolytope":
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


def from_halfspaces_pruned(
    dim: int,
    conormals: Sequence[Sequence[int]],
    support: Sequence,
    labels: Sequence[str] | None = None,
    name: str | None = None,
) -> tuple[HPolytope, list[int]]:
    """Build a polytope dropping redundant half-spaces.

    Returns the polytope and the list of kept input indices.  A bounded
    full-dimensional polytope equals the intersection of its
    facet-defining half-spaces, so dropping non-facet-defining ones does
    not change the point set.
    """
    n = dim
    conormals = [int_vec(v) for v in conormals]
    support = [frac(k) for k in support]
    # drop exact duplicates and dominated copies of the same conormal
    keep_map: dict[IntVec, int] = {}
    order: list[int] = []
    for i, eta in enumerate(conormals):
        j = keep_map.get(eta)
        if j is None:
            keep_map[eta] = i
            order.append(i)
        elif support[i] < support[j]:
            keep_map[eta] = i
            order[order.index(j)] = i
    idx = sorted(order)
    _check_bounded([conormals[i] for i in idx], n)
    pts = _enumerate_basic_points([conormals[i] for i in idx], [support[i] for i in idx], n)
    if not pts:
        raise PolytopeError("empty polytope")
    kept = []
    for pos, i in enumerate(idx):
        on_facet = [p for p, act in pts.items() if pos in act]
        if not on_facet:
            continue
        if _affine_rank(on_facet) == n - 1:
            kept.append(i)
    poly = HPolytope(
        dim,
        tuple(conormals[i] for i in kept),
        tuple(support[i] for i in kept),
        tuple(labels[i] for i in kept) if labels else (),
        name,
    )
    return poly, kept
