"""Exact linear algebra: rational vectors and one integer elimination kernel.

Vectors are tuples of Fractions (plain ints are accepted and coerced),
matrices are tuples of row tuples.  Everything is immutable and exact;
there is no floating point anywhere in the package.

Every elimination over the rationals is Bareiss's fraction-free one on
integer rows, ``_echelon``, with ``_reduce`` as its back substitution; a
rational system is first put on integer rows by one common denominator
(``scaled``).  Fractions appear only at the boundary, formed from the
final integer rows.  Pivots are the first nonzero entry from the current
row down, so echelon forms, kernel bases and solutions are reproducible.
Only ``integer_kernel_basis`` reduces columns, by the unimodular steps
that a lattice basis needs.  ``rref`` (``int_rref`` on ``scaled`` rows)
has no library caller; it stays because the perfbench tracer patches it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]
IntVec = tuple[int, ...]


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Sequence) -> Vec:
    return tuple(frac(e) for e in entries)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def dot(u: Sequence, v: Sequence) -> Fraction:
    if len(u) != len(v):
        raise ValueError("length mismatch in dot product")
    return sum((frac(a) * frac(b) for a, b in zip(u, v)), Fraction(0))


def vec_sub(u: Sequence, v: Sequence) -> Vec:
    return tuple(frac(a) - frac(b) for a, b in zip(u, v))


def int_vec(v: Sequence) -> IntVec:
    out = []
    for e in v:
        if type(e) is not int:
            f = frac(e)
            if f.denominator != 1:
                raise ValueError(f"expected integer entries, got {e}")
            e = f.numerator
        out.append(e)
    return tuple(out)


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries, keeping direction."""
    w = int_vec(v)
    g = gcd(*w)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(e // g for e in w)


def rref(A: Sequence[Sequence], ncols: int | None = None) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns of a rational matrix,
    pivots taken in the first ncols columns: ``int_rref`` on its
    ``scaled`` rows (rows past the rank are those of the scaled rows)."""
    return int_rref(scaled(A)[1], ncols)


def integer_kernel_basis(rows: Sequence[Sequence[int]], n: int) -> list[IntVec]:
    """Lattice basis of {x in Z^n : A x = 0} for an integer matrix A.

    Column reduction by unimodular operations, tracked on an identity
    matrix; the tracker columns over the zero columns of the reduced
    matrix form the kernel basis.  The kernel of an integer matrix is a
    saturated sublattice, so this basis spans it over Z.  A
    non-integer entry raises ValueError (``int_vec``).
    """
    A = [list(int_vec(row)) for row in rows]
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


def _reduce(rows: list[list[int]], pivots: Sequence[int]) -> int:
    """Back substitution over a Bareiss echelon form from ``_echelon``,
    in place, to D R, R being the reduced row echelon form that
    Gauss-Jordan elimination with the same pivot rule gives; returns D.

    D is the last pivot, the minor M of the first r input rows (after
    the swaps) on the pivot columns, and those rows of R are M^{-1}
    times the same input rows, so D R is integral (Cramer's rule) and
    every division is exact.  Rows past the rank stay as they are:
    Gaussian elimination leaves them D times smaller."""
    r = len(pivots)
    if not r:
        return 1
    D = rows[r - 1][pivots[-1]]
    free = [c for c in range(len(rows[0])) if c not in pivots]
    for i in reversed(range(r)):
        row, p = rows[i], pivots[i]
        later = [(rows[j], row[q]) for j, q in enumerate(pivots[i + 1 :], i + 1) if row[q]]
        out = [0] * len(row)
        out[p] = D
        for c in free:
            if c > p:
                out[c] = (D * row[c] - sum(a * other[c] for other, a in later)) // row[p]
        rows[i] = out
    return D


def int_det(A: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination; the
    empty matrix has determinant 1."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("determinant of a non-square matrix")
    if not n:
        return 1
    rows = [list(row) for row in A]
    pivots, sign = _echelon(rows, n)
    return sign * rows[-1][n - 1] if len(pivots) == n else 0


def int_rank(A: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by Bareiss elimination."""
    rows = [list(row) for row in A]
    return len(_echelon(rows, len(rows[0]) if rows else 0)[0])


def int_adjugate(A: Sequence[Sequence[int]]) -> tuple[int, tuple[IntVec, ...] | None]:
    """(d, adj) with A adj = d I and d = det A for a square integer
    matrix, so that adj / d is the inverse; adj is None when A is
    singular.  The reduced echelon form of [A | I] is [I | A^{-1}], and
    ``_reduce`` scales it by the last pivot D = +-d."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("fraction-free solve of a non-square matrix")
    rows = [list(a) + [int(i == j) for j in range(n)] for i, a in enumerate(A)]
    pivots, sign = _echelon(rows, n)
    if len(pivots) < n:
        return 0, None
    D = _reduce(rows, pivots)
    return sign * D, tuple(tuple(sign * e for e in row[n:]) for row in rows)


def int_rref(A: Sequence[Sequence[int]], ncols: int | None = None) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns of an integer matrix,
    pivots in the first ncols columns, by Bareiss elimination and
    ``_reduce``; rows past the rank are as Gauss-Jordan leaves them."""
    rows = [list(row) for row in A]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots, _ = _echelon(rows, ncols)
    D = _reduce(rows, pivots)
    return tuple(tuple(Fraction(x, D) for x in row) for row in rows), tuple(pivots)


def int_nullspace(A: Sequence[Sequence[int]], ncols: int) -> tuple[Vec, ...]:
    """Basis of the right kernel of an integer matrix, one vector per
    free column of its reduced echelon form.

    Each basis vector carries 1 in its own free column and 0 in every
    other free column (the reduced-echelon convention), so the result
    depends only on the row space; it is read off the integer rows D R
    (``_reduce``), with Fractions only for the returned vectors."""
    rows = [list(row) for row in A]
    pivots, _ = _echelon(rows, ncols)
    D = _reduce(rows, pivots)
    at = dict(zip(pivots, rows))
    return tuple(tuple(Fraction(-at[c][j], D) if c in at else Fraction(int(c == j)) for c in range(ncols))
                 for j in range(ncols) if j not in at)


def scaled(A: Sequence[Sequence]) -> tuple[int, list[list[int]]]:
    """(D, D A) for a rational matrix A and the lcm D of its
    denominators: integer rows with the same row space and kernel, and
    det(D A) = D^n det A for n rows."""
    rows = [[frac(e) for e in row] for row in A]
    D = lcm(*(e.denominator for row in rows for e in row))
    return D, [[e.numerator * (D // e.denominator) for e in row] for row in rows]
