"""The reduction of a mass linear H along one equivalence class, kept as
a reference: no library code calls it."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from masslin.linalg import Vec, vec, vec_sub, zero_vec
from masslin.masslinear import MassLinearReport, equivalence_classes, mass_linear_test
from masslin.measure import _functional
from masslin.polytope import HPolytope


@dataclass(frozen=True)
class Reduction:
    """H = h_tilde + h_prime with h_prime inessential and h_tilde
    symmetric on all but the last facet of the reduced class."""

    h_prime: Vec
    h_tilde: Vec
    beta: Vec


def inessential_reduction(
    poly: HPolytope, H, cls, report: MassLinearReport | None = None
) -> Reduction:
    """Split a mass linear H as h_tilde + h_prime, h_prime inessential,
    so that every facet of the class except its last is h_tilde-symmetric
    and other facets keep their symmetry status."""
    Hv = _functional(poly, H)
    if report is None:
        report = mass_linear_test(poly, Hv)
    if not report.verdict:
        raise ValueError("reduction requires a mass linear functional")
    members = sorted(cls)
    eq = equivalence_classes(poly)
    if frozenset(members) not in eq.classes:
        raise ValueError("not an equivalence class of this polytope")
    N = poly.n_facets
    beta = [Fraction(0)] * N
    for i in members[:-1]:
        beta[i] = report.gamma[i]
    beta[members[-1]] = -sum((report.gamma[i] for i in members[:-1]), Fraction(0))
    h_prime = zero_vec(poly.dim)
    for i in members:
        h_prime = tuple(
            a + beta[i] * b for a, b in zip(h_prime, poly.conormals[i])
        )
    h_tilde = vec_sub(Hv, h_prime)
    return Reduction(h_prime, h_tilde, vec(beta))
