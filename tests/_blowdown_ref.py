"""A four-condition fiber-set test for ``constructions.blowdown``, kept as
a reference: no library code calls it.

Besides the conormal-sum proportionality and the per-vertex test (every
vertex of F_e misses exactly one facet of I), it collects, for each i in
I, the base patterns (the basis facets outside I and e) of the vertices
that miss i, and asks that the patterns agree across I and that F_e has
|I| times as many vertices as there are patterns.  The library drops the
last two conditions, which the first two imply; the tests compare the
two verdicts.
"""

from __future__ import annotations

from typing import Sequence

from masslin.linalg import int_rank
from masslin.polytope import HPolytope


def facet_fiber_structure(poly: HPolytope, e: int, I: Sequence[int]) -> bool:
    """Does facet e carry a simplex-bundle structure with fiber facets
    {F_i cap F_e : i in I}?"""
    s = tuple(sum(poly.conormals[i][j] for i in I) for j in range(poly.dim))
    if int_rank([s, poly.conormals[e]]) > 1:
        return False
    vertices = poly.vertices
    bases = {w: vertices[w].basis for w in poly.face({e}).vertex_ids}
    missing: dict[int, int] = {}
    for w, basis in bases.items():
        gone = [i for i in I if i not in basis]
        if len(gone) != 1:
            return False
        missing[w] = gone[0]
    neighbors = {j for basis in bases.values() for j in basis if j != e and j not in I}
    patterns: dict[int, set[frozenset[int]]] = {i: set() for i in I}
    for w, basis in bases.items():
        patterns[missing[w]].add(basis & neighbors)
    base_patterns = next(iter(patterns.values()))
    if any(p != base_patterns for p in patterns.values()):
        return False
    return len(bases) == len(I) * len(base_patterns)


def per_vertex(poly: HPolytope, e: int, I: Sequence[int]) -> bool:
    """The per-vertex test alone, without proportionality."""
    vertices = poly.vertices
    return all(sum(i not in vertices[w].basis for i in I) == 1 for w in poly.face({e}).vertex_ids)
