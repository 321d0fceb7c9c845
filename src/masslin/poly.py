"""Sparse exact multivariate polynomials over the rationals.

A polynomial is stored as a sorted tuple of (exponent tuple, coefficient)
terms with no zero coefficients, so equality and hashing are structural
and `is_zero` is decidable by inspection.  Terms are kept in graded
lexicographic order of the exponent tuples.

The arithmetic is what the library uses: sums, differences and
negations of polynomials in the same variables, products with a
polynomial or a rational scalar (on either side), division by a nonzero
scalar, evaluation and partial derivatives.  A scalar sum or a power
raises TypeError: use ``MultiPoly.constant`` and products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .linalg import frac

Monomial = tuple[int, ...]


def _mon_key(m: Monomial) -> tuple:
    return (sum(m), m)


def _normalize(nvars: int, d: Mapping[Monomial, Fraction]) -> tuple[tuple[Monomial, Fraction], ...]:
    items = []
    for m, c in d.items():
        if c == 0:
            continue
        if len(m) != nvars or any(e < 0 for e in m):
            raise ValueError(f"bad monomial {m} for {nvars} variables")
        items.append((tuple(m), c))
    items.sort(key=lambda t: _mon_key(t[0]))
    return tuple(items)


@dataclass(frozen=True)
class MultiPoly:
    nvars: int
    terms: tuple[tuple[Monomial, Fraction], ...]

    @staticmethod
    def from_dict(nvars: int, d: Mapping[Monomial, Fraction]) -> "MultiPoly":
        return MultiPoly(nvars, _normalize(nvars, d))

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars, ())

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        c = frac(c)
        if c == 0:
            return MultiPoly.zero(nvars)
        return MultiPoly(nvars, (((0,) * nvars, c),))

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise ValueError("variable index out of range")
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return MultiPoly(nvars, ((m, Fraction(1)),))

    @staticmethod
    def linear(coeffs: Sequence) -> "MultiPoly":
        """The linear form sum_i coeffs[i] * x_i."""
        n = len(coeffs)
        d: dict[Monomial, Fraction] = {}
        for i, c in enumerate(coeffs):
            c = frac(c)
            if c != 0:
                d[tuple(1 if j == i else 0 for j in range(n))] = c
        return MultiPoly.from_dict(n, d)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def _check_compat(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compat(other)
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, Fraction(0)) + c
        return MultiPoly(self.nvars, _normalize(self.nvars, d))

    def __neg__(self):
        return MultiPoly(self.nvars, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check_compat(other)
            d: dict[Monomial, Fraction] = {}
            for m1, c1 in self.terms:
                for m2, c2 in other.terms:
                    m = tuple(a + b for a, b in zip(m1, m2))
                    d[m] = d.get(m, Fraction(0)) + c1 * c2
            return MultiPoly(self.nvars, _normalize(self.nvars, d))
        c = frac(other)
        if c == 0:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, tuple((m, c * co) for m, co in self.terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        c = frac(other)
        return self * (Fraction(1) / c)

    def eval(self, point: Sequence) -> Fraction:
        """The value at a point, in one integer pass over the terms.

        With the point as a / d and the coefficients as num / L over common
        denominators, a term c x^m of degree |m| <= top contributes
        num a^m d^(top - |m|) to the value times L d^top, so the sum runs
        in integers."""
        pt = [frac(p) for p in point]
        if len(pt) != self.nvars:
            raise ValueError("point length does not match variable count")
        top = max(self.degree(), 0)
        d = lcm(*(p.denominator for p in pt))
        L = lcm(*(c.denominator for _, c in self.terms))
        powers = []
        for i, p in enumerate(pt):
            a, row = p.numerator * (d // p.denominator), [1]
            for _ in range(max((m[i] for m, _ in self.terms), default=0)):
                row.append(row[-1] * a)
            powers.append(row)
        dpow = [d**e for e in range(top + 1)]
        value = 0
        for m, c in self.terms:
            v = c.numerator * (L // c.denominator) * dpow[top - sum(m)]
            for row, e in zip(powers, m):
                v *= row[e]
            value += v
        return Fraction(value, L * dpow[top])

    def partial(self, i: int) -> "MultiPoly":
        """Exact partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise ValueError("variable index out of range")
        d: dict[Monomial, Fraction] = {}
        for m, c in self.terms:
            if m[i] == 0:
                continue
            m2 = tuple(e - 1 if j == i else e for j, e in enumerate(m))
            d[m2] = d.get(m2, Fraction(0)) + c * m[i]
        return MultiPoly.from_dict(self.nvars, d)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.terms:
            mono = "*".join(
                f"k{i+1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m)
                if e
            )
            parts.append(f"{c}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)

