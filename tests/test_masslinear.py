"""Mass linearity, facet equivalence, inessential witnesses, restriction
and skeleton barycenter characterizations.

The central worked example: a 3-simplex bundle over a segment whose
twist has two equal entries, carrying the inessential functional with
coefficients (1,-1,-1,1,0,0), and its blowup along an edge, where the
same functional stays mass linear but becomes essential because the
blowup destroys the facet equivalences.
"""

import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import masslin
from masslin.errors import PolytopeError
from masslin.linalg import dot, rank, vec
from masslin.masslinear import (
    barycenter_pairings_agree,
    equivalence_classes,
    fully_mass_linear_test,
    generating_vector,
    inessential_reduction,
    inessential_space,
    is_flat,
    is_inessential,
    is_pervasive,
    mass_linear_test,
    ml_space,
    restrict_to_face,
    symmetric_facets,
)
from masslin.measure import center_of_mass
from masslin.polytope import HPolytope

F = Fraction


def simplex(n, lam=1):
    conormals = [tuple(-1 if i == j else 0 for i in range(n)) for j in range(n)]
    conormals.append((1,) * n)
    return HPolytope(n, conormals, [0] * n + [lam])


def box():
    return HPolytope(2, [(-1, 0), (1, 0), (0, -1), (0, 1)], [0, 1, 0, 1])


def bundle(k, a, kappa):
    n = k + 1
    conormals = [tuple(-1 if i == j else 0 for i in range(n)) for j in range(k)]
    conormals.append((1,) * k + (0,))
    conormals.append(tuple(0 if i < k else -1 for i in range(n)))
    conormals.append(tuple(a) + (1,))
    return HPolytope(n, conormals, kappa)


def worked_pair():
    """The bundle with twist (-1,-1,0) and the functional
    eta1 - eta2 - eta3 + eta4."""
    poly = bundle(3, (-1, -1, 0), (0, 0, 0, 1, 0, 2))
    H = (0, 2, 2, 0)
    return poly, H


def worked_blowup():
    """Blowup of the worked bundle along the edge F2 cap F4 cap G1, with
    the exceptional facet first."""
    conormals = [
        (1, 0, 1, -1),
        (-1, 0, 0, 0),
        (0, -1, 0, 0),
        (0, 0, -1, 0),
        (1, 1, 1, 0),
        (0, 0, 0, -1),
        (-1, -1, 0, 1),
    ]
    support = [F(1, 2), 0, 0, 0, 1, 0, 2]
    return HPolytope(4, conormals, support)


class TestMassLinearTest:
    def test_worked_bundle(self):
        poly, H = worked_pair()
        rep = mass_linear_test(poly, H)
        assert rep.verdict
        assert rep.gamma == (1, -1, -1, 1, 0, 0)
        assert rep.symmetric == frozenset({4, 5})
        assert rep.asymmetric == frozenset({0, 1, 2, 3})

    def test_worked_blowup_still_mass_linear(self):
        poly = worked_blowup()
        rep = mass_linear_test(poly, (0, 2, 2, 0))
        assert rep.verdict
        assert rep.gamma == (0, 1, -1, -1, 1, 0, 0)

    def test_box_axis(self):
        rep = mass_linear_test(box(), (1, 0))
        assert rep.verdict
        assert rep.gamma == (F(-1, 2), F(1, 2), 0, 0)
        assert rep.symmetric == frozenset({2, 3})

    def test_twisted_bundle_negative(self):
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        rep = mass_linear_test(poly, (-1, 0, 1, 0))
        assert not rep.verdict
        assert rep.gamma is None

    def test_negative_with_prefilter(self):
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        rep = mass_linear_test(poly, (-1, 0, 1, 0), seed=7)
        assert not rep.verdict

    def test_gamma_sum_zero_and_reconstruction(self):
        pairs = [
            worked_pair(),
            (box(), (1, 0)),
            (bundle(2, (1, 2), (0, 0, 1, 0, 5)), (3, 0, 0)),
        ]
        for poly, H in pairs:
            rep = mass_linear_test(poly, H)
            assert rep.verdict
            assert sum(rep.gamma) == 0
            recon = [F(0)] * poly.dim
            for g, eta in zip(rep.gamma, poly.conormals):
                recon = [r + g * e for r, e in zip(recon, eta)]
            assert tuple(recon) == vec(H)

    def test_essential_bundle_functional(self):
        # twist (1,2) has three distinct values, so the fiber facets are
        # pairwise inequivalent and this mass linear H is essential
        poly = bundle(2, (1, 2), (0, 0, 1, 0, 5))
        rep = mass_linear_test(poly, (3, 0, 0))
        assert rep.verdict
        assert rep.gamma == (-2, 1, 1, 0, 0)
        assert is_inessential(poly, (3, 0, 0)) is None

    def test_zero_functional(self):
        poly, _ = worked_pair()
        rep = mass_linear_test(poly, (0, 0, 0, 0))
        assert rep.verdict
        assert rep.gamma == (0,) * 6
        assert rep.asymmetric == frozenset()

    def test_asymmetric_facets_pervasive_or_flat(self):
        for poly, H in [worked_pair(), (worked_blowup(), (0, 2, 2, 0)), (box(), (1, 0))]:
            rep = mass_linear_test(poly, H)
            assert rep.verdict
            for i in rep.asymmetric:
                assert rep.pervasive[i] or rep.flat[i]

    def test_at_least_two_asymmetric(self):
        for poly, H in [worked_pair(), (box(), (1, 0))]:
            rep = mass_linear_test(poly, H)
            assert len(rep.asymmetric) >= 2

    def test_rejects_nonsmooth(self):
        pyramid = HPolytope(
            3,
            [(0, 0, -1), (-1, 0, 1), (1, 0, 1), (0, -1, 1), (0, 1, 1)],
            [0, 1, 1, 1, 1],
        )
        with pytest.raises(PolytopeError):
            mass_linear_test(pyramid, (1, 0, 0))

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            mass_linear_test(box(), (1, 0, 0))


class TestSymmetricFacets:
    def test_zero_functional_all_symmetric(self):
        poly, _ = worked_pair()
        sym, asym = symmetric_facets(poly, (0, 0, 0, 0))
        assert sym == frozenset(range(6))
        assert asym == frozenset()

    def test_matches_gamma_for_mass_linear(self):
        poly, H = worked_pair()
        rep = mass_linear_test(poly, H)
        sym, asym = symmetric_facets(poly, H)
        assert sym == rep.symmetric
        assert asym == rep.asymmetric

    def test_base_facets_symmetric_for_positive_twist(self):
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        sym, _ = symmetric_facets(poly, (0, 2, 2, 0))
        assert {4, 5} <= sym

    def test_non_mass_linear_partition(self):
        # the nonlinear term depends on every support number here, so no
        # facet is symmetric
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        sym, asym = symmetric_facets(poly, (-1, 0, 1, 0))
        assert sym == frozenset()
        assert asym == frozenset(range(6))


class TestEquivalenceClasses:
    def test_simplex_single_class(self):
        for n in (1, 2, 3):
            eq = equivalence_classes(simplex(n))
            assert eq.classes == (frozenset(range(n + 1)),)
            assert eq.complement_rank[frozenset(range(n + 1))] == 0

    def test_worked_bundle_classes(self):
        poly, _ = worked_pair()
        eq = equivalence_classes(poly)
        assert set(eq.classes) == {
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4, 5}),
        }

    def test_blowup_breaks_equivalences(self):
        eq = equivalence_classes(worked_blowup())
        assert all(len(cls) == 1 for cls in eq.classes)

    def test_box_classes(self):
        eq = equivalence_classes(box())
        assert set(eq.classes) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_distinct_twist_entries_inequivalent(self):
        poly = bundle(2, (1, 2), (0, 0, 1, 0, 5))
        eq = equivalence_classes(poly)
        assert set(eq.classes) == {
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3, 4}),
        }

    def test_cached(self):
        poly = box()
        assert equivalence_classes(poly) is equivalence_classes(poly)


class TestInessential:
    def test_worked_pair_inessential(self):
        poly, H = worked_pair()
        w = is_inessential(poly, H)
        assert w is not None
        cls_sums = [sum(w.beta[i] for i in cls) for cls in equivalence_classes(poly).classes]
        assert all(s == 0 for s in cls_sums)
        recon = [F(0)] * poly.dim
        for b, eta in zip(w.beta, poly.conormals):
            recon = [r + b * e for r, e in zip(recon, eta)]
        assert tuple(recon) == vec(H)

    def test_blowup_essential(self):
        assert is_inessential(worked_blowup(), (0, 2, 2, 0)) is None

    def test_zero_functional(self):
        poly, _ = worked_pair()
        w = is_inessential(poly, (0, 0, 0, 0))
        assert w is not None
        assert w.beta == (0,) * 6

    def test_witness_predicts_center_pairing(self):
        poly, H = worked_pair()
        w = is_inessential(poly, H)
        for kappa in [
            poly.support,
            (0, 0, 0, 1, 0, 3),
            (F(1, 4), 0, 0, 1, 0, 2),
        ]:
            assert poly.in_same_chamber(kappa)
            moved = poly.with_support(kappa)
            assert dot(vec(H), center_of_mass(moved)) == dot(w.beta, vec(kappa))


class TestReduction:
    def test_pair_cancellation(self):
        poly, H = worked_pair()
        red = inessential_reduction(poly, H, {0, 1})
        rep = mass_linear_test(poly, red.h_tilde)
        assert rep.verdict
        assert rep.gamma == (0, 0, -1, 1, 0, 0)

    def test_full_reduction_to_zero(self):
        # equal twist entries make F1 ~ F2, and the functional with
        # coefficients (1,-1,0,0,0,0) reduces to zero over that class
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        H = (-1, 1, 0, 0)
        red = inessential_reduction(poly, H, {0, 1})
        assert red.h_tilde == (0, 0, 0, 0)
        assert red.h_prime == vec(H)

    def test_simplex_single_class_reduction(self):
        poly = simplex(2)
        H = (1, -1)
        rep = mass_linear_test(poly, H)
        assert rep.verdict
        red = inessential_reduction(poly, H, {0, 1, 2}, report=rep)
        assert red.h_tilde == (0, 0)

    def test_requires_class(self):
        poly, H = worked_pair()
        with pytest.raises(ValueError):
            inessential_reduction(poly, H, {0, 2})

    def test_requires_mass_linear(self):
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        with pytest.raises(ValueError):
            inessential_reduction(poly, (-1, 0, 1, 0), {0, 1})


class TestRestriction:
    def test_restrict_to_base_facet(self):
        poly, H = worked_pair()
        res = restrict_to_face(poly, H, {4})
        assert res.poly.dim == 3
        assert res.poly.n_facets == 4
        assert res.poly.is_smooth()
        sub = mass_linear_test(res.poly, res.functional)
        assert sub.verdict
        parent = mass_linear_test(poly, H)
        for new_idx, old_idx in enumerate(res.facet_origin):
            assert sub.gamma[new_idx] == parent.gamma[old_idx]

    def test_asymmetric_facets_correspond(self):
        poly, H = worked_pair()
        res = restrict_to_face(poly, H, {4})
        parent = mass_linear_test(poly, H)
        sub = mass_linear_test(res.poly, res.functional)
        parent_asym = {res.facet_origin[i] for i in sub.asymmetric}
        assert parent_asym == parent.asymmetric

    def test_center_pairing_preserved(self):
        poly, H = worked_pair()
        res = restrict_to_face(poly, H, {4})
        lhs = dot(res.functional, center_of_mass(res.poly)) + dot(vec(H), res.base_vertex)
        assert lhs == dot(vec(H), center_of_mass(poly))

    def test_zero_restricts_to_zero(self):
        poly, _ = worked_pair()
        res = restrict_to_face(poly, (0, 0, 0, 0), {4})
        assert res.functional == (0, 0, 0)

    def test_rejects_asymmetric_face(self):
        poly, H = worked_pair()
        with pytest.raises(PolytopeError):
            restrict_to_face(poly, H, {0})

    def test_rejects_vertex(self):
        poly, H = worked_pair()
        v = poly.vertices[0]
        with pytest.raises(PolytopeError):
            restrict_to_face(poly, H, set(v.basis))


class TestGeneratingVector:
    def test_box(self):
        xi = generating_vector(box(), (1, 0))
        assert xi == (F(1, 2), 0)

    def test_bundle_formula(self):
        # for a fiber-supported mass linear functional the generator is
        # minus the fiber coefficients padded with zero
        poly = bundle(2, (1, 2), (0, 0, 1, 0, 5))
        xi = generating_vector(poly, (3, 0, 0))
        assert xi == (2, -1, 0)

    def test_inessential_always_generated(self):
        poly, H = worked_pair()
        assert generating_vector(poly, H) is not None

    def test_not_mass_linear_none(self):
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        assert generating_vector(poly, (-1, 0, 1, 0)) is None


class TestFullyMassLinear:
    def test_box_fully(self):
        rep = fully_mass_linear_test(box(), (1, 0))
        assert rep.verdict
        assert rep.at_base
        assert len(set(rep.values)) == 1

    def test_trapezoid_generic_not(self):
        poly = bundle(1, (1,), (0, 1, 0, 2))
        rep = fully_mass_linear_test(poly, (1, 0))
        assert not rep.verdict
        assert not rep.at_base
        assert rep.values == (F(1, 2), F(2, 5), F(4, 9))

    def test_trapezoid_inessential_fully(self):
        poly = bundle(1, (1,), (0, 1, 0, 2))
        H = (-1, -2)
        assert mass_linear_test(poly, H).verdict
        rep = fully_mass_linear_test(poly, H)
        assert rep.verdict

    def test_worked_blowup_fully(self):
        # essential, mass linear, dimension four: still fully mass linear
        rep = fully_mass_linear_test(worked_blowup(), (0, 2, 2, 0))
        assert rep.verdict


class TestBarycenterCharacterizations:
    def cases(self):
        trap = bundle(1, (1,), (0, 1, 0, 2))
        yb = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        return [
            (box(), (1, 0)),
            (box(), (1, 1)),
            (trap, (1, 0)),
            (trap, (-1, -2)),
            (yb, (-1, 0, 1, 0)),
            (yb, (0, 2, 2, 0)),
            (bundle(2, (1, 2), (0, 0, 1, 0, 5)), (3, 0, 0)),
        ]

    def test_mass_linear_iff_barycenters(self):
        for poly, H in self.cases():
            n = poly.dim
            expect = mass_linear_test(poly, H).verdict
            got = barycenter_pairings_agree(poly, H, (0, n - 1, n))
            assert got == expect, (poly, H)

    def test_generated_iff_barycenters(self):
        for poly, H in self.cases():
            n = poly.dim
            expect = generating_vector(poly, H) is not None
            got = barycenter_pairings_agree(poly, H, (0, n - 2, n))
            assert got == expect, (poly, H)


class TestMlSpace:
    def test_simplex_everything(self):
        basis = ml_space(simplex(2))
        assert len(basis) == 2
        assert len(inessential_space(simplex(2))) == 2

    def test_box_everything(self):
        assert len(ml_space(box())) == 2
        assert len(inessential_space(box())) == 2

    def test_bundle_dimensions(self):
        # twist with repeated entries: 3-dimensional space, all inessential
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        assert len(ml_space(poly)) == 3
        assert len(inessential_space(poly)) == 3
        # distinct twist entries: 2-dimensional, only one inessential
        poly2 = bundle(2, (1, 2), (0, 0, 1, 0, 5))
        assert len(ml_space(poly2)) == 2
        assert len(inessential_space(poly2)) == 1

    def test_basis_members_verify(self):
        poly = bundle(2, (1, 2), (0, 0, 1, 0, 5))
        for H, gamma in ml_space(poly):
            rep = mass_linear_test(poly, H)
            assert rep.verdict
            assert rep.gamma == gamma

    def test_inessential_members_verify(self):
        poly, _ = worked_pair()
        for H in inessential_space(poly):
            assert is_inessential(poly, H) is not None


class TestPervasiveFlat:
    def test_simplex_all_pervasive(self):
        poly = simplex(3)
        assert all(is_pervasive(poly, i) for i in range(4))

    def test_bundle_facets(self):
        # fiber facets meet everything; the two disjoint base facets are
        # flat because the fiber conormals span a hyperplane
        poly, _ = worked_pair()
        for i in range(4):
            assert is_pervasive(poly, i)
        for i in (4, 5):
            assert not is_pervasive(poly, i)
            assert is_flat(poly, i)

    def test_box_facets_flat_not_pervasive(self):
        poly = box()
        for i in range(4):
            assert not is_pervasive(poly, i)
            assert is_flat(poly, i)


class TestOptimizedMode:
    def test_invariant_checks_survive_dash_O(self):
        # asserts vanish under python -O; the gamma checks must not
        script = textwrap.dedent("""
            from fractions import Fraction
            import masslin.masslinear as ml
            from masslin.errors import StructuralInconsistency
            from masslin.linalg import LinearSolution
            from masslin.polytope import HPolytope

            if __debug__:
                raise SystemExit("not running under -O")

            def unbalanced_gamma(rows, rhs, ncols):
                return LinearSolution((Fraction(1),) * ncols, ())

            ml.solve_linear = unbalanced_gamma
            box = HPolytope(2, [(-1, 0), (1, 0), (0, -1), (0, 1)], [0, 1, 0, 1])
            try:
                ml.mass_linear_test(box, (1, 0))
            except StructuralInconsistency as exc:
                print("raised:", exc)
        """)
        src = str(Path(masslin.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "raised: coefficient sum must vanish"
