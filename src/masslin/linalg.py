"""Exact linear algebra over the rationals.

Vectors are tuples of Fractions (plain ints are accepted and coerced),
matrices are tuples of row tuples.  Everything is immutable and exact;
there is no floating point anywhere in the package.

Elimination uses the first nonzero entry as pivot so echelon forms,
nullspace bases and solutions are reproducible across runs.  Integer
matrices (conormals, lattice maps) have a fraction-free kernel of their
own: determinant, rank, solve and adjugate by Bareiss elimination, which
forms no Fraction at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
IntVec = tuple[int, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Sequence) -> Vec:
    return tuple(frac(e) for e in entries)


def mat(rows: Sequence[Sequence]) -> Mat:
    out = tuple(vec(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("inconsistent row lengths")
    return out


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise ValueError("length mismatch in dot product")
    return sum((frac(a) * frac(b) for a, b in zip(u, v)), Fraction(0))


def vec_add(u: Sequence, v: Sequence) -> Vec:
    return tuple(frac(a) + frac(b) for a, b in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> Vec:
    return tuple(frac(a) - frac(b) for a, b in zip(u, v))


def mat_vec(A: Sequence[Sequence], x: Sequence) -> Vec:
    return tuple(dot(row, x) for row in A)


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]) -> Mat:
    Bt = transpose(B)
    return tuple(tuple(dot(row, col) for col in Bt) for row in A)


def transpose(A: Sequence[Sequence]) -> Mat:
    if not A:
        return ()
    return tuple(tuple(frac(A[i][j]) for i in range(len(A))) for j in range(len(A[0])))


def int_vec(v: Sequence) -> IntVec:
    out = []
    for e in v:
        f = frac(e)
        if f.denominator != 1:
            raise ValueError(f"expected integer entries, got {e}")
        out.append(f.numerator)
    return tuple(out)


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries, keeping direction."""
    w = int_vec(v)
    g = 0
    for e in w:
        g = gcd(g, abs(e))
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(e // g for e in w)


def _rows_as_lists(A: Sequence[Sequence]) -> list[list[Fraction]]:
    return [[frac(e) for e in row] for row in A]


def rref(A: Sequence[Sequence], ncols: int | None = None) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot column indices.

    Pivot choice: scanning columns left to right, the first row (from the
    current one down) with a nonzero entry is used.
    """
    rows = _rows_as_lists(A)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    r = 0
    pivots: list[int] = []
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
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
    if not A:
        return 0
    return len(rref(A)[1])


def nullspace(A: Sequence[Sequence], ncols: int | None = None) -> tuple[Vec, ...]:
    """Basis of the right kernel, one vector per free column.

    Each basis vector carries 1 in its own free column and 0 in every
    other free column (the reduced-echelon convention), so the result is
    canonical for a given matrix.
    """
    if ncols is None:
        if not A:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(A[0])
    R, pivots = rref(A, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        x = [Fraction(0)] * ncols
        x[j] = Fraction(1)
        for i, p in enumerate(pivots):
            x[p] = -R[i][j]
        basis.append(tuple(x))
    return tuple(basis)


@dataclass(frozen=True)
class LinearSolution:
    """One exact solution of A x = b together with a kernel basis."""

    solution: Vec
    nullspace: tuple[Vec, ...]


def solve_linear(A: Sequence[Sequence], b: Sequence, ncols: int | None = None) -> LinearSolution | None:
    """Solve A x = b exactly; None means the system is infeasible."""
    rows = _rows_as_lists(A)
    rhs = [frac(e) for e in b]
    if len(rows) != len(rhs):
        raise ValueError("row count does not match right-hand side")
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty system")
        ncols = len(rows[0])
    aug = [row + [rhs[i]] for i, row in enumerate(rows)]
    R, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = R[i][ncols]
    return LinearSolution(tuple(x), nullspace([r[:ncols] for r in rows] or [], ncols))


def det(A: Sequence[Sequence]) -> Fraction:
    rows = _rows_as_lists(A)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        pv = rows[col][col]
        result *= pv
        for i in range(col + 1, n):
            if rows[i][col] != 0:
                factor = rows[i][col] / pv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return result * sign


def in_row_span(A: Sequence[Sequence], v: Sequence) -> bool:
    rows = [tuple(row) for row in A]
    base = rank(rows) if rows else 0
    return rank(rows + [tuple(v)]) == base


def integer_kernel_basis(rows: Sequence[Sequence[int]], n: int) -> list[IntVec]:
    """Lattice basis of {x in Z^n : A x = 0} for an integer matrix A.

    Column reduction by unimodular operations, tracked on an identity
    matrix; the tracker columns over the zero columns of the reduced
    matrix form the kernel basis.  The kernel of an integer matrix is a
    saturated sublattice, so this basis spans it over Z.
    """
    A = [[int(frac(e)) for e in row] for row in rows]
    for row in A:
        if len(row) != n:
            raise ValueError("row length does not match n")
    cols = [[A[i][j] for i in range(len(A))] for j in range(n)]
    U = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # U[j] = column j
    c = 0
    for r in range(len(A)):
        while True:
            nz = [j for j in range(c, n) if cols[j][r] != 0]
            if len(nz) <= 1:
                break
            j_min = min(nz, key=lambda j: abs(cols[j][r]))
            for j in nz:
                if j == j_min:
                    continue
                q = cols[j][r] // cols[j_min][r]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[j_min])]
                U[j] = [a - q * b for a, b in zip(U[j], U[j_min])]
        nz = [j for j in range(c, n) if cols[j][r] != 0]
        if nz:
            j = nz[0]
            cols[c], cols[j] = cols[j], cols[c]
            U[c], U[j] = U[j], U[c]
            c += 1
            if c == n:
                break
    return [tuple(U[j]) for j in range(c, n)]


def unimodular_inverse(U: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    """Integer inverse of a unimodular integer matrix."""
    d, adj = int_adjugate(U)
    if d == 0:
        raise ValueError("matrix is singular")
    return tuple(int_vec([Fraction(a, d) for a in row]) for row in adj)


# ---------------------------------------------------------------------------
# fraction-free elimination over the integers (Bareiss, Math. Comp. 22, 1968)


def _echelon(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Bareiss row echelon form of integer rows, in place.

    Pivots are taken in the first ncols columns only, the first nonzero
    entry from the current row down; further columns are carried along
    as right-hand sides.  After each step every entry is a minor of the
    input (Sylvester's identity), so the division by the previous pivot
    is exact and the last pivot of a square nonsingular matrix is its
    determinant up to the sign of the row swaps.  Returns the pivot
    columns and that sign.
    """
    m = len(rows)
    pivots: list[int] = []
    sign, prev, r = 1, 1, 0
    for c in range(ncols):
        p = r
        while p < m and not rows[p][c]:
            p += 1
        if p == m:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            sign = -sign
        top = rows[r]
        piv, tail = top[c], top[c + 1 :]
        for row in rows[r + 1 :]:
            a = row[c]
            row[c:] = [0] + [(piv * x - a * t) // prev for x, t in zip(row[c + 1 :], tail)]
        prev = piv
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots, sign


def _int_solve_columns(
    A: Sequence[Sequence[int]], B: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]] | None]:
    """(d, Y) with A Y = d B and d = det A, for a square integer A and
    integer right-hand sides B (one row per row of A); Y is None when
    d == 0.  D A^{-1} B is integral for the last pivot D = +-d (Cramer's
    rule), so back substitution over the echelon form divides exactly."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("fraction-free solve of a non-square matrix")
    rows = [list(a) + list(b) for a, b in zip(A, B)]
    pivots, sign = _echelon(rows, n)
    if len(pivots) < n:
        return 0, None
    D = rows[-1][n - 1] if n else 1
    Y: list[list[int]] = [[] for _ in range(n)]
    for c in range(n, len(rows[0]) if rows else 0):
        for i in reversed(range(n)):
            row = rows[i]
            s = D * row[c] - sum(row[j] * Y[j][-1] for j in range(i + 1, n))
            Y[i].append(s // row[i])
    return sign * D, [[sign * e for e in row] for row in Y]


def int_det(A: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: Bareiss elimination, or
    cofactor expansion up to 3 x 3, where it is an order of magnitude
    cheaper in Python."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("determinant of a non-square matrix")
    if n <= 3:
        if n < 2:
            return A[0][0] if n else 1
        if n == 2:
            return A[0][0] * A[1][1] - A[0][1] * A[1][0]
        (a, b, c), (d, e, f), (g, h, i) = A
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    rows = [list(row) for row in A]
    pivots, sign = _echelon(rows, n)
    if len(pivots) < n:
        return 0
    return sign * rows[-1][n - 1]


def int_rank(A: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by Bareiss elimination."""
    rows = [list(row) for row in A]
    return len(_echelon(rows, len(rows[0]) if rows else 0)[0])


def int_solve(A: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[int, IntVec | None]:
    """(d, y) with A y = d b and d = det A for a square integer system, so
    that y / d is the solution; y is None when A is singular."""
    d, Y = _int_solve_columns(A, [(e,) for e in b])
    return d, None if Y is None else tuple(row[0] for row in Y)


def int_adjugate(A: Sequence[Sequence[int]]) -> tuple[int, tuple[IntVec, ...] | None]:
    """(d, adj) with A adj = d I and d = det A for a square integer
    matrix, so that adj / d is the inverse; adj is None when A is
    singular."""
    n = len(A)
    d, Y = _int_solve_columns(A, [[int(i == j) for j in range(n)] for i in range(n)])
    return d, None if Y is None else tuple(tuple(row) for row in Y)
