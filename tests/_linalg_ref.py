"""Rational reference solvers for the tests, independent of the library's
integer elimination kernel.

Everything here is built on ``masslin.linalg.rref`` (rational
Gauss-Jordan elimination), except ``det``, which is Leibniz's
permutation expansion; tests compare the library's answers with these.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import prod
from typing import Sequence

from masslin import linalg
from masslin.linalg import Mat, Vec, frac


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def vec_add(u: Sequence, v: Sequence) -> Vec:
    return tuple(frac(a) + frac(b) for a, b in zip(u, v))


def rank(A: Sequence[Sequence]) -> int:
    return len(linalg.rref(A)[1]) if A else 0


def nullspace(A: Sequence[Sequence], ncols: int | None = None) -> tuple[Vec, ...]:
    """Basis of the right kernel in the reduced-echelon convention: 1 in
    its own free column, 0 in every other free column."""
    if ncols is None:
        if not A:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(A[0])
    R, pivots = linalg.rref(A, ncols)
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
    R, pivots = linalg.rref([list(row) + [e] for row, e in zip(A, b)], ncols + 1)
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
