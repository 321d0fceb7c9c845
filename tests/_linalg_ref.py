"""Rational reference solvers for the tests, independent of the library's
integer elimination kernel.

``rref`` is rational Gauss-Jordan elimination, the oracle that the
library's Bareiss ``int_rref`` is checked against, and ``rank``,
``nullspace``, ``solve_linear`` and ``in_row_span`` are built on it;
``det`` is Leibniz's permutation expansion, and ``mat_mul`` and
``mat_vec`` are the plain products.  Tests compare the library's
answers with these.  ``int_solve`` is the one exception: the
fraction-free solve that the kernel tests check, built on the
library's ``int_adjugate`` now that no library code solves that way.
``kernel_fractions`` reads the integer kernel rows of ``int_nullspace``
as the Fraction basis they stand for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from operator import mul
from typing import Sequence

from masslin.linalg import IntVec, Mat, Vec, dot, frac, int_adjugate


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> Mat:
    columns = tuple(zip(*B))
    return tuple(tuple(dot(row, col) for col in columns) for row in A)


def mat_vec(A: Sequence[Sequence], x: Sequence) -> Vec:
    return tuple(dot(row, x) for row in A)


def vec_add(u: Sequence, v: Sequence) -> Vec:
    return tuple(frac(a) + frac(b) for a, b in zip(u, v))


def rref(A: Sequence[Sequence], ncols: int | None = None) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices, by rational
    Gauss-Jordan elimination.

    Pivot choice: scanning columns left to right, the first row (from the
    current one down) with a nonzero entry is used.
    """
    rows = [[frac(e) for e in row] for row in A]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    r = 0
    pivots: list[int] = []
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][col]
        rows[r] = [e / pv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def rank(A: Sequence[Sequence]) -> int:
    return len(rref(A)[1]) if A else 0


def nullspace(A: Sequence[Sequence], ncols: int | None = None) -> tuple[Vec, ...]:
    """Basis of the right kernel in the reduced-echelon convention: 1 in
    its own free column, 0 in every other free column."""
    if ncols is None:
        if not A:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(A[0])
    R, pivots = rref(A, ncols)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[j] = Fraction(1)
        for row, p in zip(R, pivots):
            x[p] = -row[j]
        basis.append(tuple(x))
    return tuple(basis)


def kernel_fractions(kernel: tuple[int, Sequence[IntVec]]) -> tuple[Vec, ...]:
    """The Fraction basis z of the integer rows (D, D z) of ``int_nullspace``."""
    D, rows = kernel
    return tuple(tuple(Fraction(x, D) for x in row) for row in rows)


@dataclass(frozen=True)
class LinearSolution:
    """One exact solution of A x = b together with a kernel basis."""

    solution: Vec
    nullspace: tuple[Vec, ...]


def solve_linear(A: Sequence[Sequence], b: Sequence, ncols: int | None = None) -> LinearSolution | None:
    """The reduced echelon solution of A x = b (zero in every free
    column); None means the system is infeasible."""
    if len(A) != len(b):
        raise ValueError("row count does not match right-hand side")
    if ncols is None:
        if not A:
            raise ValueError("ncols required for an empty system")
        ncols = len(A[0])
    R, pivots = rref([list(row) + [e] for row, e in zip(A, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, p in zip(R, pivots):
        x[p] = row[ncols]
    return LinearSolution(tuple(x), nullspace(A, ncols))


def det(A: Sequence[Sequence]) -> Fraction:
    """Leibniz's expansion, the sign of a permutation being the parity of
    its inversions."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("determinant of a non-square matrix")
    total = Fraction(0)
    for p in permutations(range(n)):
        sign = (-1) ** sum(p[i] > p[j] for i, j in combinations(range(n), 2))
        total += sign * prod((frac(A[i][p[i]]) for i in range(n)), start=Fraction(1))
    return total


def in_row_span(A: Sequence[Sequence], v: Sequence) -> bool:
    rows = [tuple(row) for row in A]
    return rank(rows + [tuple(v)]) == rank(rows)


def int_solve(A: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[int, IntVec | None]:
    """(d, y) with A y = d b and d = det A for a square integer system, so
    that y / d is the solution; y is None when A is singular."""
    d, adj = int_adjugate(A)
    return d, None if adj is None else tuple(sum(map(mul, row, b)) for row in adj)
