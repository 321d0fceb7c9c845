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
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import masslin
from masslin import YkBundleSpec, bundle_Yk, linalg
from masslin.cli import barycenters_document, check_document, classify_document
from masslin.constructions import blowup, product
from masslin.errors import PolytopeError, StructuralInconsistency
from masslin.linalg import dot, vec
from masslin.masslinear import (
    equivalence_classes,
    fully_mass_linear_test,
    generating_vector,
    inessential_space,
    _flat_facets,
    _pervasive_facets,
    is_inessential,
    mass_linear_test,
    ml_space,
    restrict_to_face,
    symmetric_facets,
)
from masslin import measure
from masslin.measure import (
    center_of_mass,
    moment_poly,
    skeleton_measure_polys,
    volume,
    volume_poly,
)
from masslin.poly import MultiPoly
from masslin.polytope import HPolytope
from _functional_ref import barycenter_pairings_agree
from _linalg_ref import nullspace, rank, solve_linear
from _polytope_ref import same_chamber
from _reduction_ref import inessential_reduction
from _slice_ref import full_pair_space, full_symmetric_facets, reduced_pairs, space_echelon_view
from _suite import SuitePair, report_for, suite_pairs, suite_polytopes

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


def count_rrefs(monkeypatch) -> list:
    """From here on, record every rational rref of the library: patch
    ``linalg.rref`` and every masslin module attribute bound to it."""
    calls, plain_rref = [], linalg.rref

    def counting_rref(*args, **kwargs):
        calls.append(args)
        return plain_rref(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("masslin") and getattr(mod, "rref", None) is plain_rref:
            monkeypatch.setattr(mod, "rref", counting_rref)
    return calls


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

    def test_matches_symbolic_definition_on_suite(self):
        # the slice must not change the partition: compare with the
        # reference that decides every facet in all N variables, where an
        # exact nonzero value of the identity at the base kappa already
        # proves a facet asymmetric, and expands it everywhere else
        symmetric_negatives = set()
        for pair in suite_pairs():
            poly = pair.poly
            reference, complement = full_symmetric_facets(poly, pair.H)
            sym, asym = symmetric_facets(poly, pair.H)
            assert sym == reference, (pair.name, pair.H)
            assert asym == complement
            if reference and not report_for(pair).verdict:
                symmetric_negatives.add((pair.name, reference))
        # a facet whose value at the base kappa is zero still needs the
        # symbolic identity; trap_prism's facets 4 and 5 take that branch
        assert ("trap_prism", frozenset({4, 5})) in symmetric_negatives

    def test_negative_decisions_form_no_products(self, monkeypatch):
        # every facet of this non-mass-linear blowup is asymmetric and its
        # skeleton pairings differ at the base kappa, so exact values
        # decide both tests without expanding a polynomial product
        poly = blowup(bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)), (1, 3, 4))
        H = (3, -1, 2, 5)
        rep = mass_linear_test(poly, H)
        assert not rep.verdict and rep.asymmetric == frozenset(range(7))
        fully_mass_linear_test(poly, H)
        products = []
        plain_mul = MultiPoly.__mul__

        def counting_mul(self, other):
            if isinstance(other, MultiPoly):
                products.append((len(self.terms), len(other.terms)))
            return plain_mul(self, other)

        monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
        assert symmetric_facets(poly, H) == (frozenset(), frozenset(range(7)))
        assert products == []
        # nor does is_inessential, which never asks for symmetric facets
        monkeypatch.setattr(masslin.masslinear, "symmetric_facets", None)
        assert is_inessential(poly, H) is None
        assert products == []
        assert not fully_mass_linear_test(poly, H).verdict
        assert products == []

    def test_positive_decisions_solve_nothing(self, monkeypatch):
        # on the mass linear Y3(1,1,0) pair gamma is read off the memoized
        # mass linear space, so no elimination runs, and full mass
        # linearity is the fit of H into the memoized skeleton pair space,
        # so no polynomial product is formed
        poly = bundle_Yk(YkBundleSpec(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)))
        H = (0, 2, 2, 0)
        mass_linear_test(poly, H)
        fully_mass_linear_test(poly, H)
        products = []
        plain_mul = MultiPoly.__mul__

        def counting_mul(self, other):
            if isinstance(other, MultiPoly):
                products.append((self.degree(), other.degree()))
            return plain_mul(self, other)

        rrefs = count_rrefs(monkeypatch)
        monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
        rep = mass_linear_test(poly, H)
        assert rep.verdict and rep.gamma == (1, -1, -1, 1, 0, 0)
        assert rrefs == []
        products.clear()
        assert fully_mass_linear_test(poly, H).verdict
        assert products == []

    def test_negative_decisions_solve_nothing(self, monkeypatch):
        # once the mass linear space of a polytope is known, the residual
        # of H against it decides a negative verdict, and every facet of
        # this blowup is asymmetric at the base kappa: no elimination and
        # no polynomial product runs
        poly = blowup(bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)), (1, 3, 4))
        H = (3, -1, 2, 5)
        mass_linear_test(poly, H)
        products = []
        plain_mul = MultiPoly.__mul__

        def counting_mul(self, other):
            if isinstance(other, MultiPoly):
                products.append((len(self.terms), len(other.terms)))
            return plain_mul(self, other)

        rrefs = count_rrefs(monkeypatch)
        monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
        rep = mass_linear_test(poly, H)
        assert not rep.verdict and rep.asymmetric == frozenset(range(7))
        assert rrefs == []
        assert products == []


class TestSlice:
    """Pair spaces and symmetric facets come from the skeleton
    polynomials on the slice kappa_B = 0; the references expand them in
    all N support numbers.  The pair space of several dimensions is
    solved inside that of the largest one, and must give the reference's
    exact basis (``TestPairSpaceOracle`` in the property tests draws
    every set of dimensions).  On the whole suite, symmetric facets are
    compared with the identity in all N variables by
    ``TestSymmetricFacets.test_matches_symbolic_definition_on_suite``."""

    def test_pair_spaces_match_full_variable_blocks_on_suite(self):
        for sp in suite_polytopes():
            poly = sp.poly
            assert ml_space(poly) == full_pair_space(poly, (poly.dim,)), sp.name
            dims = tuple(range(poly.dim + 1))
            assert space_echelon_view(poly, dims) == reduced_pairs(full_pair_space(poly, dims), poly), sp.name

    @pytest.mark.parametrize("broken, message", [
        ("measure", "the 0-skeleton measure is the vertex count"),
    ])
    def test_vertex_rows_guard_the_full_check(self, monkeypatch, broken, message):
        # the face measures of the gamma rows are partials of the slice
        # volume by the chain rule at the facets through the first vertex;
        # with one of those mixes wrong, e_n of the partials no longer
        # counts the vertices, and every full check derives them
        import masslin.measure as measure

        plain = measure._slice_chain

        def wrong(poly):
            (f, mix, w), *rest = plain(poly)
            return ((f, tuple((j, 2 * x) for j, x in mix), w), *rest)

        monkeypatch.setattr(measure, "_slice_chain", wrong)
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        assert mass_linear_test(poly, (0, -1, 2, -3)).verdict
        with pytest.raises(StructuralInconsistency, match=message):
            fully_mass_linear_test(poly, (0, -1, 2, -3))

    def test_vertex_pass_guards_the_slice_pass(self, monkeypatch):
        # every pair space compares the volume of the vertex pass with the
        # slice volume at the slice point: a vertex pass that is off
        # there stops the first verdict
        import masslin.masslinear as ml

        plain = ml._base_values

        def wrong(poly, s):
            at = plain(poly, s)
            return at._replace(measure=at.measure + 1) if s == 0 else at

        monkeypatch.setattr(ml, "_base_values", wrong)
        with pytest.raises(StructuralInconsistency, match="the vertex pass and the slice pass agree on the volume"):
            mass_linear_test(bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)), (0, -1, 2, -3))

    def test_symmetric_facets_through_the_first_vertex(self):
        # the facets of B take the chain-rule partials: here facet 4 of
        # B is symmetric, which only the symbolic identity decides, and
        # facets 0 and 2 of B are asymmetric
        poly = masslin.product(masslin.trapezoid(1), masslin.simplex(1))
        H = (-2, 1, 0)
        assert sorted(poly.vertices[0].basis) == [0, 2, 4]
        assert not mass_linear_test(poly, H).verdict
        expected = (frozenset({4, 5}), frozenset({0, 1, 2, 3}))
        assert symmetric_facets(poly, H) == expected == full_symmetric_facets(poly, H)

    @pytest.mark.parametrize("H", [(0, -1, 2, -3), (1, 0, 0, 0)])
    def test_cold_check_does_not_expand_all_variables(self, monkeypatch, H):
        # check, classify, barycenters, volume and center of mass read
        # everything off the slice pass; the N-variable polynomials serve
        # only the public polynomial functions
        calls = []
        full = measure._skeleton_coord_polys

        def counting(poly, k):
            calls.append(k)
            return full(poly, k)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("masslin") and getattr(mod, "_skeleton_coord_polys", None) is full:
                monkeypatch.setattr(mod, "_skeleton_coord_polys", counting)

        def cold():
            return bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))

        report = check_document(cold(), H)
        assert report["mass_linear"] == (H == (0, -1, 2, -3))
        assert len(barycenters_document(cold(), H)["table"]) == 5
        # an essential pair one blowdown away from type b
        bar = cold()
        G = tuple(a - b - c + d for a, b, c, d in zip(*bar.conormals[:4]))
        assert classify_document(blowup(bar, (1, 3, 4)), G)["type"] == "b"
        assert volume(cold()) == F(1, 4)
        assert center_of_mass(cold()) == (F(7, 30), F(7, 30), F(4, 15), F(23, 30))
        assert calls == []


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

    @pytest.mark.parametrize("H", [(1, 0, 0), (1, 0, 0, 0, 5)])
    def test_wrong_dimension(self, H):
        # a functional of the wrong length is an error, not "essential"
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        with pytest.raises(ValueError, match="functional has wrong dimension"):
            is_inessential(poly, H)

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
            assert same_chamber(poly, kappa)
            moved = poly.with_support(kappa)
            assert dot(vec(H), center_of_mass(moved)) == dot(w.beta, vec(kappa))

    def test_beta_matches_solved_system_on_suite(self):
        # reference: solve H = sum beta_i eta_i with zero class sums
        for pair in suite_pairs():
            poly, N = pair.poly, pair.poly.n_facets
            rows = [tuple(eta[r] for eta in poly.conormals) for r in range(poly.dim)]
            rows += [tuple(int(i in cls) for i in range(N)) for cls in equivalence_classes(poly).classes]
            rhs = list(pair.H) + [0] * (len(rows) - poly.dim)
            sol = solve_linear(rows, rhs, ncols=N)
            w = is_inessential(poly, pair.H)
            assert (w and w.beta) == (sol and sol.solution), (pair.name, pair.H)


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

    def test_wrong_length_functional_rejected_with_report(self):
        # a passed report must not let the functional skip its length check
        poly = product(simplex(1), simplex(2))
        rep = mass_linear_test(poly, (1, 0, 0))
        with pytest.raises(ValueError, match="functional has wrong dimension"):
            inessential_reduction(poly, (1, 0, 0, 7), {0, 1}, report=rep)


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

    def test_every_facet_equation_is_checked(self):
        # xi comes from the first vertex's facets alone; a gamma off the
        # image of the conormals (no e_i is in it for a box) has no xi
        poly = box()
        rep = mass_linear_test(poly, (1, 0))
        for i in range(poly.n_facets):
            bent = tuple(g + (j == i) for j, g in enumerate(rep.gamma))
            assert generating_vector(poly, None, replace(rep, gamma=bent)) is None

    def test_matches_solved_system_on_suite(self):
        # reference: solve <eta_i, xi> = gamma_i for every facet
        for pair in suite_pairs():
            poly, rep = pair.poly, report_for(pair)
            expected = None
            if rep.verdict:
                sol = solve_linear(list(poly.conormals), list(rep.gamma), ncols=poly.dim)
                expected = sol and sol.solution
            assert generating_vector(poly, pair.H, rep) == expected, (pair.name, pair.H)


class TestWarmCheck:
    def test_known_polytope_runs_no_elimination_and_no_product(self, monkeypatch):
        # once a polytope has been checked, a positive and a negative
        # functional are decided from memoized per-polytope data: no rref
        # anywhere and no product of two polynomials (the negative one
        # has no facet whose symmetry value vanishes at the base kappa)
        poly = blowup(bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)), (1, 3, 4))
        positive, negative = ml_space(poly)[0][0], (3, -1, 2, 5)
        warm = [check_document(poly, H) for H in (positive, negative)]
        assert warm[0]["mass_linear"] and not warm[1]["mass_linear"]
        products = []
        plain_mul = MultiPoly.__mul__

        def counting_mul(self, other):
            if isinstance(other, MultiPoly):
                products.append((len(self.terms), len(other.terms)))
            return plain_mul(self, other)

        rrefs = count_rrefs(monkeypatch)
        monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
        assert [check_document(poly, H) for H in (positive, negative)] == warm
        assert rrefs == [] and products == []

    def test_cold_check_and_classify_run_no_elimination(self, monkeypatch):
        # every linear system of a check or a classification is integer
        # or scaled to integers, so even on fresh polytopes (the golden
        # blowup with its essential H, and the bar pair) no rational
        # rref runs
        H = (0, 2, 2, 0)

        def fresh():
            bar = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
            return blowup(bar, (1, 3, 4)), bar

        rrefs = count_rrefs(monkeypatch)
        checks = [check_document(poly, H) for poly in fresh()]
        classes = [classify_document(poly, H) for poly in fresh()]
        assert rrefs == []
        assert all(doc["mass_linear"] for doc in checks)
        assert [doc["type"] for doc in classes] == ["b", "inessential"]


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

    def test_vertex_average_matches_references_on_suite(self):
        # references kept here: the cross products P_k * m_n - P_n * m_k
        # for full mass linearity, and gamma solved from the coefficient
        # system of mu_H == (sum gamma_i kappa_i) * V for mass linearity
        def solved_gamma(poly, mu, vol):
            # column i holds the coefficients of kappa_i * V
            kappa_vols = [
                {tuple(e + (j == i) for j, e in enumerate(m)): c for m, c in vol.terms}
                for i in range(poly.n_facets)
            ]
            moment = dict(mu.terms)
            monomials = sorted(set(moment).union(*kappa_vols))
            rows = [tuple(col.get(m, 0) for col in kappa_vols) for m in monomials]
            rhs = [moment.get(m, 0) for m in monomials]
            sol = solve_linear(rows, rhs, ncols=poly.n_facets)
            return None if sol is None else sol.solution

        def vertex_average(poly, H):
            # independent of the skeleton pass: average <H, v(kappa)>,
            # v(kappa) = A_v^{-1} kappa_B = adj(A_v) kappa_B / det A_v
            total = [F(0)] * poly.n_facets
            for v in poly.vertices:
                basis = sorted(v.basis)
                d, adj = linalg.int_adjugate([poly.conormals[j] for j in basis])
                for pos, j in enumerate(basis):
                    total[j] += sum(h * adj[r][pos] for r, h in enumerate(H)) / d
            return tuple(t / len(poly.vertices) for t in total)

        # at its symmetric support a hexagon has every skeleton barycenter
        # at its center, so these pairs agree at the base kappa but are
        # neither mass linear nor fully mass linear: the expanded branch
        hexagon = HPolytope(
            2, [(-1, 0), (0, -1), (1, 1), (1, 0), (0, 1), (-1, -1)], [1] * 6
        )
        symmetric = [SuitePair("hexagon", "test", hexagon, H) for H in [(1, 0), (2, -1)]]
        fully = infeasible = at_base_negatives = 0
        for pair in suite_pairs() + tuple(symmetric):
            poly, H, n = pair.poly, vec(pair.H), pair.poly.dim
            mu, vol = moment_poly(poly, H), volume_poly(poly)
            gamma = solved_gamma(poly, mu, vol)
            assert report_for(pair).gamma == gamma, (pair.name, pair.H)
            ell = MultiPoly.linear(vertex_average(poly, H))
            if n <= 4 and not (mu - ell * vol).is_zero():
                # mass linearity and full mass linearity agree for n <= 4
                assert gamma is None, (pair.name, pair.H)
                infeasible += 1
            rep = fully_mass_linear_test(poly, H)
            if rep.at_base:
                pn, mn = skeleton_measure_polys(poly, n, H)
                reference = all(
                    (pk * mn - pn * mk).is_zero()
                    for pk, mk in (skeleton_measure_polys(poly, k, H) for k in range(n))
                )
                assert rep.verdict == reference, (pair.name, pair.H)
                fully += reference
                at_base_negatives += not reference
        assert fully >= 100 and infeasible >= 30 and at_base_negatives == 2


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

    @pytest.mark.parametrize("H", [(1,), (1, 0, 0)])
    def test_wrong_dimension(self, H):
        with pytest.raises(ValueError, match="functional has wrong dimension"):
            fully_mass_linear_test(box(), H)


def _fresh(poly: HPolytope) -> HPolytope:
    """The same polytope with an empty memo."""
    return HPolytope(poly.dim, poly.conormals, poly.support, poly.labels)


def _space_entries(poly: HPolytope) -> dict:
    """The memo entries of masslinear keyed by a tuple of skeleton
    dimensions: those of the pair-space code."""
    return {
        key: value for key, value in poly._memo.items()
        if isinstance(key, tuple) and key[0].startswith("masslin.masslinear.") and key[2:] == (tuple,)
    }


class TestPairSpaceMemo:
    """Each pair space is memoized once per (polytope, dims), in one
    integer form, built from one kernel of the slice system."""

    @staticmethod
    def _ints(value) -> bool:
        if isinstance(value, tuple):
            return all(map(TestPairSpaceMemo._ints, value))
        return type(value) is int

    def test_one_integer_entry_per_checked_space(self):
        for pair in suite_pairs():
            poly = _fresh(pair.poly)
            check_document(poly, pair.H)
            entries = _space_entries(poly)
            n = poly.dim
            assert sorted(key[1] for key in entries) == [tuple(range(n + 1)), (n,)], pair.name
            assert all(map(self._ints, entries.values())), pair.name

    def test_eliminations_per_space(self, monkeypatch):
        # one Bareiss elimination for the n-skeleton space, two more for
        # the space of every skeleton (the kernel in t, then the echelon)
        calls = []
        plain = linalg._echelon

        def counting(rows, ncols):
            calls.append(ncols)
            return plain(rows, ncols)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("masslin") and getattr(module, "_echelon", None) is plain:
                monkeypatch.setattr(module, "_echelon", counting)
        for sp in suite_polytopes():
            poly = _fresh(sp.poly)
            n = poly.dim
            calls.clear()
            masslin.masslinear._space_echelon(poly, (n,))
            assert len(calls) == 1, sp.name
            calls.clear()
            masslin.masslinear._space_echelon(poly, tuple(range(n + 1)))
            assert len(calls) == 2, sp.name


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

    def test_matches_coefficient_system_on_suite(self):
        # reference: the nullspace of the system built coefficient by
        # coefficient from the moments and the products kappa_i * V
        for sp in suite_polytopes():
            poly = sp.poly
            n, N = poly.dim, poly.n_facets
            vol = volume_poly(poly)
            moments = [moment_poly(poly, [int(c == r) for r in range(n)]) for c in range(n)]
            kappa_vols = [MultiPoly.variable(N, i) * vol for i in range(N)]
            monomials = sorted({m for p in moments + kappa_vols for m, _ in p.terms})
            coeffs = [dict(p.terms) for p in moments] + [dict((-p).terms) for p in kappa_vols]
            rows = [[c.get(m, 0) for c in coeffs] for m in monomials]
            reference = tuple((z[:n], z[n:]) for z in nullspace(rows, ncols=n + N))
            assert ml_space(poly) == reference, sp.name

    def test_inessential_members_verify(self):
        poly, _ = worked_pair()
        for H in inessential_space(poly):
            assert is_inessential(poly, H) is not None


class TestPervasiveFlat:
    def test_flatness_is_decided_in_integers(self, monkeypatch):
        # the conormals are integer, so the ranks need no rational rref
        poly = blowup(bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)), (1, 3, 4))
        rrefs = count_rrefs(monkeypatch)
        flat = [i in _flat_facets(poly) for i in range(poly.n_facets)]
        assert rrefs == []
        assert flat == [
            rank([poly.conormals[j] for j in range(poly.n_facets)
                  if j != i and poly.face({i, j}) is not None]) <= poly.dim - 1
            for i in range(poly.n_facets)
        ]

    def test_adjacency_matches_face_lookups_on_suite(self):
        # facets meet exactly when some vertex basis holds both; the
        # reference looks each pair up in the face lattice
        for sp in suite_polytopes():
            poly, N = sp.poly, sp.poly.n_facets
            meets = [[j for j in range(N) if j != i and poly.face({i, j}) is not None] for i in range(N)]
            assert [i in _pervasive_facets(poly) for i in range(N)] == [len(m) == N - 1 for m in meets], sp.name
            assert [i in _flat_facets(poly) for i in range(N)] == [
                rank([poly.conormals[j] for j in m]) <= poly.dim - 1 for m in meets
            ], sp.name

    def test_check_builds_no_face_lattice(self):
        poly = blowup(bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)), (1, 3, 4))
        report = check_document(poly, (0, 1, 0, 0))
        assert report["asymmetric"]
        assert not any("face_lattice" in str(key) for key in poly._memo)

    def test_simplex_all_pervasive(self):
        poly = simplex(3)
        assert all(i in _pervasive_facets(poly) for i in range(4))

    def test_bundle_facets(self):
        # fiber facets meet everything; the two disjoint base facets are
        # flat because the fiber conormals span a hyperplane
        poly, _ = worked_pair()
        for i in range(4):
            assert i in _pervasive_facets(poly)
        for i in (4, 5):
            assert i not in _pervasive_facets(poly)
            assert i in _flat_facets(poly)

    def test_box_facets_flat_not_pervasive(self):
        poly = box()
        for i in range(4):
            assert i not in _pervasive_facets(poly)
            assert i in _flat_facets(poly)


class TestOptimizedMode:
    def test_invariant_checks_survive_dash_O(self):
        # asserts vanish under python -O; the integer checks of gamma must
        # not: each is made to fail by one patched internal, and
        # is_inessential meets the same checks, as beta is that gamma
        script = textwrap.dedent("""
            from fractions import Fraction
            import masslin.masslinear as ml
            from masslin.errors import StructuralInconsistency
            from masslin.polytope import HPolytope

            if __debug__:
                raise SystemExit("not running under -O")

            def attempt(check, **patches):
                saved = {name: getattr(ml, name) for name in patches}
                for name, fn in patches.items():
                    setattr(ml, name, fn)
                box = HPolytope(2, [(-1, 0), (1, 0), (0, -1), (0, 1)], [0, 1, 0, 1])
                try:
                    check(box)
                except StructuralInconsistency as exc:
                    print("raised:", exc)
                finally:
                    for name, fn in saved.items():
                        setattr(ml, name, fn)

            # the one gamma source: the pair space of the n-skeleton,
            # here one pair (e_1, gamma) = (D e_1, G) / D in integers
            def space(D, *G):
                def space_echelon(poly, dims):
                    return D, ((0, (D,) + (0,) * (poly.dim - 1) + G),)
                return space_echelon

            # the base values, with the barycenter moved by (1, ..., 1)
            base_values = ml._base_values

            def moved_center(poly, s):
                at = base_values(poly, s)
                return at._replace(moments=tuple(m + at.measure for m in at.moments))

            # on the unit square (1, 0) is mass linear and inessential,
            # gamma = beta = (-1/2, 1/2, 0, 0)
            def test(box):
                return ml.mass_linear_test(box, (1, 0))

            attempt(test, _space_echelon=space(1, 1, 1, 1, 1))
            attempt(test, _base_values=moved_center)
            attempt(test, _space_echelon=space(2, 0, 0, -1, 1))
            attempt(lambda box: ml.is_inessential(box, (1, 0)), _base_values=moved_center)
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
        assert out.stdout.splitlines() == [
            "raised: coefficient sum must vanish",
            "raised: no constant term allowed",
            "raised: H must equal sum of gamma_i times conormals",
            "raised: no constant term allowed",
        ]

    def test_pass_guards_survive_dash_O(self):
        # the two guards of the measure passes are plain checks: a wrong
        # chain rule at the first vertex stops a full check, and a vertex
        # pass off the slice volume stops the first verdict
        script = textwrap.dedent("""
            import masslin.masslinear as ml
            import masslin.measure as measure
            from masslin.errors import StructuralInconsistency
            from masslin.polytope import HPolytope

            if __debug__:
                raise SystemExit("not running under -O")

            chain, base_values = measure._slice_chain, ml._base_values

            def wrong_chain(poly):
                (f, mix, w), *rest = chain(poly)
                return ((f, tuple((j, 2 * x) for j, x in mix), w), *rest)

            def wrong_volume(poly, s):
                at = base_values(poly, s)
                return at._replace(measure=at.measure + 1) if s == 0 else at

            for owner, name, fn in ((measure, "_slice_chain", wrong_chain), (ml, "_base_values", wrong_volume)):
                saved = getattr(owner, name)
                setattr(owner, name, fn)
                box = HPolytope(2, [(-1, 0), (1, 0), (0, -1), (0, 1)], [0, 1, 0, 1])
                try:
                    ml.fully_mass_linear_test(box, (1, 0))
                except StructuralInconsistency as exc:
                    print("raised:", exc)
                finally:
                    setattr(owner, name, saved)
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
        assert out.stdout.splitlines() == [
            "raised: the 0-skeleton measure is the vertex count",
            "raised: the vertex pass and the slice pass agree on the volume",
        ]

    def test_derived_build_checks_survive_dash_O(self):
        # a blowup and a blowdown derived from a parent with a corrupted
        # edge on the changed face: the walk's integer checks must raise
        script = textwrap.dedent("""
            from masslin.constructions import blowdown, blowup, simplex
            from masslin.errors import StructuralInconsistency

            if __debug__:
                raise SystemExit("not running under -O")

            def corrupt(poly, leaving, other):
                # at each vertex on both facets, add the edge that leaves
                # other to the one that leaves leaving
                for active, (y, d, w) in poly._basic.items():
                    if {leaving, other} <= active:
                        B, w = sorted(active), list(w)
                        w[B.index(leaving)] = tuple(map(sum, zip(w[B.index(leaving)], w[B.index(other)])))
                        poly._basic[active] = y, d, tuple(w)
                return poly

            for derive in (lambda: blowup(corrupt(simplex(3), 1, 2), (1, 2)),
                           lambda: blowdown(corrupt(blowup(simplex(3), (1, 2)), 0, 1), 0)):
                try:
                    derive()
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
        assert out.stdout.splitlines() == [
            "raised: a derived vertex must lie on its basis facets",
            "raised: a derived edge must leave exactly its own facet",
        ]


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda poly: restrict_to_face(poly, (0, 0, 0, 0), ()), PolytopeError, "not a proper face"),
        (lambda poly: equivalence_classes(poly).class_of(poly.n_facets), KeyError, 6),
    ],
)
def test_input_checks(call, kind, message):
    poly = bundle_Yk(YkBundleSpec(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)))
    with pytest.raises(kind) as info:
        call(poly)
    assert type(info.value) is kind and info.value.args == (message,)
