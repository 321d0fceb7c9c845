"""Reference construction scan for ``HPolytope``, one elimination per question.

The library reads its construction checks off one table of signed
maximal minors.  This reference answers each question on its own, as
the library did before the table: the conormal rank by elimination, a
determinant per cofactor of each candidate recession ray, a
fraction-free solve (``int_solve``) per n-subset of facets, and the
affine rank of the basic points on every facet.  ``construct`` runs the
checks that follow the input validation of ``HPolytope`` in the same
order, with the same messages; ``pruned`` does the same for
``from_halfspaces_pruned``, the pruning constructor that no library
code calls, kept here with its tests.

The library also keeps, per vertex, the determinant and edges that its
table already holds.  ``vertex_cones`` and ``is_smooth`` read them per
vertex instead, off the adjugate and the determinant of A_v, as the
library did before.

The library keeps one table of integers per basic point;
``points_and_edges`` turns it back into the view the reference scans
give, point to active set and active set to determinant and edges.

``minor_table``, ``cramer`` and ``table_basic_points`` are the
library's scan before its rows were packed into ints: one list of N
integers per pairing row and per subset's slacks, and every cofactor
a determinant of its own.  ``chamber_delta`` reads a chamber radius
off that scan, and ``same_chamber`` decides whether a segment of
support numbers stays in one chamber; the library reads neither.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence
from math import lcm, prod
from operator import mul, neg

from _linalg_ref import int_solve
from masslin.errors import PolytopeError, StructuralInconsistency
from masslin.linalg import dot, frac, int_adjugate, int_det, int_rank, int_vec, scaled
from masslin.measure import VertexCone, _generic_xi
from masslin.polytope import HPolytope, _basic_points, _facet_spans


def points_and_edges(table, support):
    """The table of ``polytope._basic_points``, of a system with these
    support numbers, as two dicts in its order: each point y / (d L),
    with L the lcm of the support denominators, mapped to its active
    set, and each active set to its (d, edges)."""
    L = lcm(*(Fraction(k).denominator for k in support))
    points = {tuple(Fraction(c, d * L) for c in y): active for active, (y, d, _) in table.items()}
    return points, {active: (d, W) for active, (_, d, W) in table.items()}


def check_bounded(conormals, n):
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
                    raise PolytopeError(f"unbounded: recession direction {tuple(cand)}")


def basic_points(conormals, support, n):
    """All feasible basic points, mapped to their full active facet
    sets, in the order of their first feasible subset: each n-subset J
    solved fraction-free, A_J y = d K_J with d = det A_J > 0 after a
    sign flip, K the support numbers scaled by the lcm L of their
    denominators, so the point is y / (d L)."""
    L = lcm(*(k.denominator for k in support))
    K = [k.numerator * (L // k.denominator) for k in support]
    points = {}
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


def affine_rank(points):
    rows = []
    for p in points:
        D = lcm(*(x.denominator for x in p))
        rows.append([x.numerator * (D // x.denominator) for x in p] + [D])
    return int_rank(rows) - 1


def construct(n, conormals, support, labels):
    """The basic points of a valid half-space system, or the
    ``PolytopeError`` that ``HPolytope`` raises for it."""
    check_bounded(conormals, n)
    pts = basic_points(conormals, support, n)
    if not pts:
        raise PolytopeError("empty polytope")
    if affine_rank(list(pts)) < n:
        raise PolytopeError("polytope is not full-dimensional")
    for i in range(len(conormals)):
        on_facet = [p for p, act in pts.items() if i in act]
        if not on_facet:
            raise PolytopeError(f"facet {labels[i]} is redundant (empty)")
        if affine_rank(on_facet) < n - 1:
            raise PolytopeError(
                f"facet {labels[i]} does not span a hyperplane (redundant half-space)"
            )
    return pts


def pruned_indices(n, conormals, support):
    """The facets that ``from_halfspaces_pruned`` keeps of a system with
    distinct conormals, or the ``PolytopeError`` of its scan."""
    check_bounded(conormals, n)
    pts = basic_points(conormals, support, n)
    if not pts:
        raise PolytopeError("empty polytope")
    kept = []
    for i in range(len(conormals)):
        on_facet = [p for p, act in pts.items() if i in act]
        if on_facet and affine_rank(on_facet) == n - 1:
            kept.append(i)
    return kept


def pruned(n, conormals, support):
    """The kept facets of ``from_halfspaces_pruned`` on a system with
    distinct conormals, or the ``PolytopeError`` it raises, from its
    scan or from the polytope built on the kept facets."""
    kept = pruned_indices(n, conormals, support)
    if len(kept) < n + 1:
        raise PolytopeError("a bounded n-polytope needs at least n+1 facets")
    construct(
        n,
        [conormals[i] for i in kept],
        [support[i] for i in kept],
        [f"F{j + 1}" for j in range(len(kept))],
    )
    return kept


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
    if len(conormals) != len(support):
        raise PolytopeError("conormal and support counts differ")
    if labels and len(labels) != len(conormals):
        raise PolytopeError("label count does not match facet count")
    # drop exact duplicates and dominated copies of the same conormal
    keep_map: dict[tuple[int, ...], int] = {}
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
    pts = _basic_points([conormals[i] for i in idx], [support[i] for i in idx], n)
    kept = [i for i, spanning in zip(idx, _facet_spans(pts, len(idx), n)[1]) if spanning]
    poly = HPolytope(
        dim,
        tuple(conormals[i] for i in kept),
        tuple(support[i] for i in kept),
        tuple(labels[i] for i in kept) if labels else (),
        name,
    )
    return poly, kept


def vertex_cones(poly):
    """Every vertex cone of ``measure._vertex_cones``: the edges are the
    columns of -sign(det A_v) adj(A_v), q pairs them with the xi of
    ``measure._generic_xi``, Q is their product and u = Q sum_j w_j / q_j."""
    n = poly.dim
    cones = []
    for v in poly.vertices:
        basis = tuple(sorted(v.basis))
        det, adj = int_adjugate([poly.conormals[j] for j in basis])
        d = abs(det)
        w = tuple(tuple(-(det // d) * adj[c][j] for c in range(n)) for j in range(n))
        cones.append((basis, d, w))
    xi = _generic_xi([w for _, _, w in cones], n)
    out = []
    for basis, d, w in cones:
        q = tuple(-sum(map(mul, xi, e)) for e in w)
        Q = prod(q)
        # u = Q sum_j w_j / q_j, in Fractions
        u = tuple(int(Q * sum(Fraction(e[c], x) for e, x in zip(w, q))) for c in range(n))
        out.append(VertexCone(basis, d, w, q, Q, u))
    return tuple(out)


def is_smooth(poly):
    """Simple, with |det A_v| = 1 at every vertex, one determinant each."""
    return poly.is_simple() and all(
        abs(int_det([poly.conormals[i] for i in v.basis])) == 1 for v in poly.vertices
    )


def minor_table(conormals, n):
    """The signed maximal minors of the conormal matrix, one entry per
    (n-1)-subset S of the facets in ``combinations`` order: the cofactor
    vector c_S, with det(rows S, then x) = <x, c_S>, and the pairing row
    P_S, with P_S[i] = <eta_i, c_S> = det(rows S, then eta_i)."""
    table = {}
    for S in combinations(range(len(conormals)), n - 1):
        rows = [conormals[i] for i in S]
        c = tuple(
            (-1) ** (n - 1 + j) * int_det([row[:j] + row[j + 1 :] for row in rows])
            for j in range(n)
        )
        table[S] = (c, [sum(map(mul, eta, c)) for eta in conormals])
    return table


def check_bounded_table(table):
    """``check_bounded`` read off the minor table."""
    if not any(any(P) for _, P in table.values()):
        raise PolytopeError("unbounded: conormals do not span the ambient space")
    for c, P in table.values():
        if any(c) and (max(P) <= 0 or min(P) >= 0):
            last = next(x for x in reversed(c) if x)
            sign = 1 if all(p * last <= 0 for p in P) else -1
            ray = tuple(Fraction(sign * x, last) for x in c)
            raise PolytopeError(f"unbounded: recession direction {ray}")


def cramer(table, K, n):
    """Cramer's rule on each nonsingular n-subset J of the facets, in
    ``combinations`` order: (J, d, w, minors, slacks), minors[r] = (c_r,
    P_r) the table entry of J minus its r-th facet J_r, d = |det A_J|
    and w_r = (-1)^(r+n) K_{J_r} times the sign of det A_J, and
    slacks[i] = d K_i + sum_r w_r P_r[i]."""
    for J in combinations(range(len(K)), n):
        minors = [table[J[:r] + J[r + 1 :]] for r in range(n)]
        d = minors[-1][1][J[-1]]
        if not d:
            continue
        w = [(-1) ** (r + n) * K[j] for r, j in enumerate(J)]
        if d < 0:
            d, w = -d, [-x for x in w]
        cols = zip(*(P for _, P in minors))
        yield J, d, w, minors, [d * k + sum(map(mul, w, col)) for k, col in zip(K, cols)]


def table_basic_points(conormals, support, n):
    """``polytope._basic_points`` on the minor table: the points with
    their active sets, and per point d and the edges -sign(P_r[J_r]) c_r
    of its first feasible subset, or the ``PolytopeError`` it raises."""
    table = minor_table(conormals, n)
    check_bounded_table(table)
    L, (K,) = scaled([support])
    points = {}
    edges = {}
    for J, d, w, minors, slacks in cramer(table, K, n):
        if min(slacks) >= 0:
            point = tuple(
                Fraction(-sum(wr * c[j] for wr, (c, _) in zip(w, minors)), d * L)
                for j in range(n)
            )
            active = frozenset(i for i, s in enumerate(slacks) if not s)
            if points.setdefault(point, active) is active:
                edges[active] = d, tuple(
                    [c if P[j] < 0 else tuple(map(neg, c)) for (c, P), j in zip(minors, J)]
                )
    if not points:
        raise PolytopeError("empty polytope")
    return points, edges


def chamber_delta(poly):
    """A uniform safe radius, read off the minor table: any support
    perturbation bounded entrywise by it stays inside the chamber."""
    if not poly.is_smooth():
        raise PolytopeError("chamber radius requires a smooth polytope")
    n, N = poly.dim, poly.n_facets
    L, (K,) = scaled([poly.support])
    min_gap = None
    max_sens = Fraction(0)
    for J, d, _, minors, slacks in cramer(minor_table(poly.conormals, n), K, n):
        out = [i for i in range(N) if i not in J]
        for i in out:
            sens = Fraction(sum(abs(P[i]) for _, P in minors), d)
            if sens > max_sens:
                max_sens = sens
        least = min(slacks[i] for i in out)
        if not least:
            raise PolytopeError("degenerate basic point on a smooth polytope")
        gap = Fraction(abs(least), d * L)
        if min_gap is None or gap < min_gap:
            min_gap = gap
    if min_gap is None or min_gap <= 0:
        raise StructuralInconsistency("a smooth polytope has a positive chamber gap")
    return min_gap / (2 * (1 + max_sens))


def same_chamber(poly, kappa):
    """Same smooth combinatorial type on the whole segment from the
    support numbers of the smooth polytope to kappa: the polytope builds
    at kappa with the same vertex bases.

    That one build decides the segment.  For a fixed basis B the point
    v_B(kappa) is linear in kappa, so a strict slack on every facet off
    B at both ends holds all along.  Edge j of v_B runs along a fixed
    w_j; the listed vertex of B - B_j + k where it ends at kappa stays on
    its line, ahead of v_B at a positive distance, and feasible, so the
    edge ends there all along.  The listed vertices are then closed
    under edges, and as the graph of a polytope is connected (Balinski
    1961), they are all of its vertices.  Smoothness reads d off the
    same bases.
    """
    if not poly.is_smooth():
        raise PolytopeError("chamber test requires a smooth polytope")
    if len(kappa) != poly.n_facets:
        raise ValueError("support vector has wrong length")
    try:
        other = poly.with_support(kappa)
    except PolytopeError:
        return False
    return other._basic.keys() == poly._basic.keys()
