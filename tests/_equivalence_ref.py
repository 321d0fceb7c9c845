"""Reference facet equivalence, one elimination per pair of facets.

The library reads facet equivalence off one integer kernel of the
conormals.  This reference decides the defining condition directly, as
the library did before: facets i and j are equivalent when the other
conormals span a hyperplane containing eta_i + eta_j, tested by
``int_rank`` for every pair; the classes are the connected components
of that relation (a union-find); and each class is then re-verified
against the full condition of Part I: its complement spans codimension
m - 1, and only balanced combinations of its conormals land in the
complement span.  A class that fails either raises
``StructuralInconsistency``.
"""

from __future__ import annotations

from masslin.errors import StructuralInconsistency
from masslin.linalg import int_rank, integer_kernel_basis
from masslin.masslinear import _row_basis


def equivalence_classes(poly):
    """(classes, complement_rank), as ``masslinear.EquivalenceClasses``
    holds them: classes ordered by their first facet."""
    n = poly.dim
    N = poly.n_facets
    parent = list(range(N))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(N):
        for j in range(i + 1, N):
            others = [poly.conormals[k] for k in range(N) if k not in (i, j)]
            if int_rank(others) != n - 1:
                continue
            pair_sum = tuple(a + b for a, b in zip(poly.conormals[i], poly.conormals[j]))
            if int_rank(others + [pair_sum]) == n - 1:
                parent[find(i)] = find(j)

    groups: dict[int, set[int]] = {}
    for i in range(N):
        groups.setdefault(find(i), set()).add(i)
    classes = tuple(sorted((frozenset(g) for g in groups.values()), key=min))

    complement_rank: dict[frozenset, int] = {}
    for cls in classes:
        members = sorted(cls)
        complement = [poly.conormals[k] for k in range(N) if k not in cls]
        r = int_rank(complement)
        complement_rank[cls] = r
        if r != n - (len(cls) - 1):
            raise StructuralInconsistency(f"facet class {members} fails the codimension condition")
        if len(cls) < 2:
            continue
        # combinations sum_{i in cls} c_i eta_i landing in the complement
        # span must have all c_i equal
        comp_basis = [complement[p] for p in _row_basis(complement)]
        m = len(members)
        rows = []
        for r_ in range(n):
            row = [poly.conormals[i][r_] for i in members]
            row += [-w[r_] for w in comp_basis]
            rows.append(tuple(row))
        c_parts = [z[:m] for z in integer_kernel_basis(rows, m + len(comp_basis))]
        if int_rank(c_parts) != 1 or int_rank(c_parts + [(1,) * m]) != 1:
            raise StructuralInconsistency(f"facet class {members} admits an unbalanced combination")
    return classes, complement_rank
