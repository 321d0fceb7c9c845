"""Family recognizers, certificates, the 4-dimensional classification
pipeline, and the planner that makes inessential functionals essential.

The running example throughout: the 3-simplex bundle over a segment
with twist (1,1,0) and support numbers (0,0,0,1,0,2), carrying the
inessential functional eta1 - eta2 - eta3 + eta4, and its blowup along
the edge F2 cap F4 cap G1, where the same functional is essential.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import replace
from fractions import Fraction as Fr
from pathlib import Path

import pytest

from _linalg_ref import vec_add
from _suite import report_for, suite_pairs, suite_polytopes
from masslin import recognize
from masslin.constructions import (
    CONSTRUCTOR_STEPS,
    BlowdownReport,
    _121_data,
    _d2_data,
    Bundle121Spec,
    D2PolygonBundleSpec,
    YkBundleSpec,
    blowup,
    bundle_121,
    bundle_D2_polygon,
    bundle_Yk,
    double_expansion,
    expansion,
    minimal_family_a3,
    minimal_family_b,
    product,
    simplex,
    trapezoid,
)
from masslin.errors import PolytopeError, StructuralInconsistency
from masslin.masslinear import _face_slice, is_inessential, mass_linear_test, ml_space, restrict_to_face
from masslin.polytope import HPolytope
from masslin.recognize import (
    _chart,
    _constructor_call,
    _holds,
    _recognize_121,
    _recognize_polygon_bundle,
    BlowupPlan,
    ClassificationResult,
    RecognitionCertificate,
    certificate_holds,
    classify4d,
    essential_blowup_planner,
    recognize_bundle_over_segment,
    recognize_double_expansion,
    recognize_expansion,
    recognize_type,
    reconstruct,
    replay_trace,
)


def yk(k, a, kappa):
    return bundle_Yk(YkBundleSpec(k, a, kappa))


def facet_comb(poly, coeffs):
    """The functional sum_i c_i eta_i for {facet: c_i}."""
    out = [Fr(0)] * poly.dim
    for i, c in coeffs.items():
        for r in range(poly.dim):
            out[r] += c * poly.conormals[i][r]
    return tuple(out)


def twisted_pair():
    """The worked example: twist (1,1,0), F1~F2 and F3~F4, and the
    inessential functional with coefficients (1,-1,-1,1,0,0)."""
    poly = yk(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
    H = facet_comb(poly, {0: 1, 1: -1, 2: -1, 3: 1})
    return poly, H


def essential_yk():
    """Twist (1,2,3): all-distinct entries leave only essential
    functionals, here with coefficients (1,-2,1,0,0,0)."""
    poly = yk(3, (1, 2, 3), (0, 0, 0, 1, 0, 9))
    H = facet_comb(poly, {0: 1, 1: -2, 2: 1})
    return poly, H


def first_essential(poly):
    """Some essential mass linear functional, from the measured space."""
    pairs = ml_space(poly)
    for H, _ in pairs:
        if is_inessential(poly, H) is None:
            return H
    for (H1, _), (H2, _) in itertools.combinations(pairs, 2):
        H = vec_add(H1, H2)
        if mass_linear_test(poly, H).verdict and is_inessential(poly, H) is None:
            return H
    raise AssertionError("no essential functional in the space")


# ---------------------------------------------------------------------------
# bundles over a segment


class TestSegmentBundle:
    def test_parameters_round_trip(self):
        spec = YkBundleSpec(3, (1, 2, 3), (0, 0, 0, 1, 0, 9))
        poly = bundle_Yk(spec)
        cert = recognize_bundle_over_segment(poly)
        assert cert.family == "segment_bundle"
        assert cert.base == (4, 5) and cert.fiber == (0, 1, 2, 3)
        assert cert.params == spec
        assert cert.facet_order == (0, 1, 2, 3, 4, 5)
        assert certificate_holds(poly, cert)
        assert reconstruct(cert) == poly

    def test_simplices_are_not_bundles(self):
        assert recognize_bundle_over_segment(simplex(2)) is None
        assert recognize_bundle_over_segment(simplex(4)) is None

    def test_cube_has_three_structures(self):
        seg = simplex(1)
        cube = product(product(seg, seg), seg)
        cert = recognize_bundle_over_segment(cube)
        assert cert.base == (0, 1)
        assert {c.base for c in cert.alternatives} == {(2, 3), (4, 5)}
        # square fiber: role assignment only, no constructor parameters
        assert cert.params is None and cert.transform is None
        assert certificate_holds(cube, cert)
        for c in cert.alternatives:
            assert certificate_holds(cube, c)
        with pytest.raises(ValueError, match="parameters"):
            reconstruct(cert)

    def test_product_recovers_zero_twist(self):
        poly = product(simplex(2), simplex(1))
        cert = recognize_bundle_over_segment(poly)
        assert cert.base == (3, 4)
        assert cert.params.a == (0, 0)
        assert certificate_holds(poly, cert)

    def test_trapezoid(self):
        poly = trapezoid(1)
        cert = recognize_bundle_over_segment(poly)
        assert cert.base == (2, 3) and cert.params.a == (1,)
        assert certificate_holds(poly, cert)

    def test_lattice_image_recognized(self):
        spec = YkBundleSpec(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        T = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1))
        moved = bundle_Yk(spec).apply_lattice_map(T).translate((1, -2, 0, 5))
        moved = moved.permute_facets([5, 3, 0, 1, 2, 4])
        cert = recognize_bundle_over_segment(moved)
        assert cert is not None and cert.params is not None
        assert cert.base == (0, 5)
        assert cert.params.k == 3
        assert certificate_holds(moved, cert)

    def test_rejects_nonsmooth(self):
        lumpy = HPolytope(2, ((-1, 0), (0, -1), (1, 2)), (0, 0, 2))
        with pytest.raises(PolytopeError, match="smooth"):
            recognize_bundle_over_segment(lumpy)


def identity_certificate(family, spec, poly):
    """A certificate of the spec for poly with the identity chart."""
    n = poly.dim
    return RecognitionCertificate(
        family,
        base=(),
        fiber=(),
        params=spec,
        transform=tuple(tuple(int(r == c) for c in range(n)) for r in range(n)),
        translation=(0,) * n,
        facet_order=tuple(range(poly.n_facets)),
    )


# one constructor output per certificate family, with its recognizer
FAMILY_EXAMPLES = {
    "segment_bundle": lambda: (recognize_bundle_over_segment, twisted_pair()[0]),
    "bundle_121": lambda: (
        _recognize_121,
        bundle_121(Bundle121Spec((1, 2, 3), 1, (0, 1, 0, 0, 4, 0, 40))),
    ),
    "polygon_bundle": lambda: (_recognize_polygon_bundle, minimal_family_a3(7)),
    "expansion": lambda: (recognize_expansion, expansion(trapezoid(1), 0, fold=2)),
    "double_expansion": lambda: (recognize_double_expansion, minimal_family_b(6)),
}


class TestCertificateHolds:
    """certificate_holds compares mapped facet data with the constructor's
    facet-data step; the golden Y3 bundle's segment-bundle certificate."""

    def golden(self):
        poly, _ = twisted_pair()
        cert = recognize_bundle_over_segment(poly)
        assert cert.params is not None
        return poly, cert

    def test_builds_no_polytope(self, builds):
        poly, cert = self.golden()
        builds.clear()
        assert certificate_holds(poly, cert)
        # the post-build checks run on the input itself
        assert builds == []

    def test_tampered_translation_fails(self):
        poly, cert = self.golden()
        assert not certificate_holds(poly, replace(cert, translation=(1, 0, 0, 0)))

    def test_swapped_facet_order_fails(self):
        poly, cert = self.golden()
        order = list(cert.facet_order)
        order[0], order[4] = order[4], order[0]
        assert not certificate_holds(poly, replace(cert, facet_order=tuple(order)))

    def test_non_unimodular_transform_raises(self):
        poly, cert = self.golden()
        T = ((2, 0, 0, 0),) + tuple(cert.transform[1:])
        with pytest.raises(PolytopeError, match="lattice map must be unimodular"):
            certificate_holds(poly, replace(cert, transform=T))

    def test_order_that_is_no_permutation_raises(self):
        poly, cert = self.golden()
        order = (0,) + cert.facet_order[:-1]
        with pytest.raises(PolytopeError, match="order must be a permutation"):
            certificate_holds(poly, replace(cert, facet_order=order))

    @pytest.mark.parametrize("family", sorted(FAMILY_EXAMPLES))
    def test_facet_data_step_is_the_rebuilt_facet_data(self, family):
        recognize, poly = FAMILY_EXAMPLES[family]()
        cert = recognize(poly)
        assert cert.family == family
        built = reconstruct(cert)
        build, args = _constructor_call(cert)
        facet_data = CONSTRUCTOR_STEPS[build][0]
        assert facet_data(*args) == (built.dim, built.conormals, built.support)

    def test_121_facet_data_of_a_nonsmooth_polytope_raise(self):
        # the conormals of the tower with these support numbers cut out a
        # valid polytope with 11 vertices that is not smooth: equal facet
        # data, so the post-build check rejects the input as bundle_121
        # rejects its build
        spec = Bundle121Spec((1, 2, 3), 1, (0, 5, 0, 0, 4, 0, 9))
        poly = HPolytope(*_121_data(spec))
        assert len(poly.vertices) == 11 and not poly.is_smooth()
        cert = identity_certificate("bundle_121", spec, poly)
        with pytest.raises(PolytopeError, match="121 bundle: vertex .* is not smooth"):
            certificate_holds(poly, cert)
        assert not _holds(poly, cert)

    def test_rejected_build_with_other_facet_data_is_no_match(self):
        # the one corner where the answer changed: the constructor rejects
        # its build, whose facet data differ from the input's anyway
        spec = Bundle121Spec((1, 2, 3), 1, (0, 5, 0, 0, 4, 0, 9))
        poly = bundle_121(replace(spec, kappa=(0, 1, 0, 0, 4, 0, 40)))
        cert = identity_certificate("bundle_121", spec, poly)
        assert certificate_holds(poly, cert) is False

    def test_polygon_bundle_off_the_polygon_vertices_raises(self):
        # smooth, with 3k vertices, but a vertex lies on three base facets
        base = HPolytope(2, ((-1, 0), (0, -1), (1, 1), (0, 1)), (0, 0, 3, 2))
        spec = D2PolygonBundleSpec(
            base, ((0, 0), (0, 0), (0, 0), (1, 0)), (0, 0, 4) + base.support
        )
        message = "does not sit over a polygon vertex"
        with pytest.raises(PolytopeError, match=message):
            bundle_D2_polygon(spec)
        poly = HPolytope(*_d2_data(spec))
        assert poly.is_smooth() and len(poly.vertices) == 12
        cert = identity_certificate("polygon_bundle", spec, poly)
        with pytest.raises(PolytopeError, match=message):
            certificate_holds(poly, cert)
        # read through the facet order: the base facets come first here,
        # and the product of the triangle with the same quadrilateral holds
        order = (3, 4, 5, 6, 0, 1, 2)
        at = tuple(order.index(x) for x in range(7))
        with pytest.raises(PolytopeError, match=message):
            certificate_holds(poly.permute_facets(order), replace(cert, facet_order=at))
        spec = D2PolygonBundleSpec(base, ((0, 0),) * 4, (0, 0, 1) + base.support)
        cert = replace(cert, params=spec, facet_order=at)
        assert certificate_holds(bundle_D2_polygon(spec).permute_facets(order), cert)


class TestChart:
    """_chart is the one inversion of a unimodular matrix in the library:
    the map S with S c_j = -e_j for the given columns c_j."""

    def test_inverse_is_integer(self):
        # minus the inverse of [[1, 1], [0, 1]], whose columns are given
        assert _chart([(1, 0), (1, 1)]) == ((-1, 1), (0, -1))

    def test_singular_rejected(self):
        # no lattice basis: singular, or of index 2
        assert _chart([(1, 1), (1, 1)]) is None
        assert _chart([(2, 0), (0, 1)]) is None


class TestTower121:
    """_recognize_121 reads the tower's roles off the facet incidence."""

    def test_builds_no_polytope(self, builds):
        poly = bundle_121(Bundle121Spec((1, 2, 3), 1, (0, 1, 0, 0, 4, 0, 40)))
        builds.clear()
        assert _recognize_121(poly) is not None
        assert builds == []

    def test_product_tower_certificates(self):
        # zero twists: both opposite pairs, T0 T1 and F5 F6, are parallel
        poly = bundle_121(Bundle121Spec((0, 0, 0), 0, (0, 1, 0, 0, 4, 0, 40)))
        T = ((1, 0, 0, 0), (1, 1, 0, 0), (0, 2, 1, 0), (0, 0, 3, 1))
        identity = tuple(range(7))
        cases = (
            (poly, identity, (0, 1, 0, 0, 4, 0, 40)),
            (poly.permute_facets((6, 5, 4, 3, 2, 1, 0)), identity, (40, 0, 4, 0, 0, 1, 0)),
            (poly.permute_facets((5, 6, 0, 1, 2, 3, 4)), (0, 1, 4, 5, 6, 2, 3), (0, 40, 0, 0, 4, 0, 1)),
            (poly.apply_lattice_map(T), identity, (0, 1, 0, 0, 4, 0, 40)),
        )
        for moved, order, kappa in cases:
            cert = _recognize_121(moved)
            assert cert.facet_order == order
            assert cert.params == Bundle121Spec((0, 0, 0), 0, kappa)
            assert cert.fiber == order[:2] and cert.base == order[2:]
            assert certificate_holds(moved, cert)


def test_face_slice_takes_face_or_index_set():
    poly, _ = twisted_pair()
    assert _face_slice(poly, frozenset({4})) == _face_slice(poly, poly.face({4}))
    # the base facets G1 and G2 do not meet
    with pytest.raises(PolytopeError, match="empty face"):
        _face_slice(poly, {4, 5})


# ---------------------------------------------------------------------------
# expansions and double expansions


class TestExpansionRecognition:
    def test_expansion_round_trip(self):
        core = trapezoid(1)
        poly = expansion(core, 1)
        cert = recognize_expansion(poly)
        assert cert.family == "expansion"
        assert cert.base == (3, 4) and cert.fiber == (0, 1, 2)
        assert cert.fold == 1
        assert certificate_holds(poly, cert)

    def test_two_fold(self):
        poly = expansion(trapezoid(1), 0, fold=2)
        cert = recognize_expansion(poly)
        assert cert.fold == 2 and cert.base == (3, 4, 5)
        assert certificate_holds(poly, cert)

    def test_simplex_via_pair_inside_class(self):
        # all five facets are equivalent but never meet jointly; a pair
        # inside the class exhibits the simplex as a 1-fold expansion
        poly = simplex(4)
        cert = recognize_expansion(poly)
        assert cert.base == (0, 1) and cert.fold == 1
        assert cert.core.dim == 3
        assert certificate_holds(poly, cert)

    def test_trapezoid_is_not_an_expansion(self):
        assert recognize_expansion(trapezoid(1)) is None

    def test_bundle_with_disjoint_base_pair_is_not_an_expansion(self):
        assert recognize_expansion(yk(2, (1, 2), (0, 0, 1, 0, 5))) is None


class TestDoubleExpansionRecognition:
    def test_constructor_round_trip(self):
        dd = double_expansion(trapezoid(1), 1, 2)
        cert = recognize_double_expansion(dd)
        assert cert.family == "double_expansion"
        assert cert.fold == 2 and len(cert.base) == 4
        assert certificate_holds(dd, cert)

    def test_twisted_example_has_trapezoid_core(self):
        poly, _ = twisted_pair()
        cert = recognize_double_expansion(poly)
        assert cert.base == (0, 1, 2, 3) and cert.fiber == (4, 5)
        assert cert.core.dim == 2 and cert.core.n_facets == 4
        # core is a proper trapezoid: the expanded edges are parallel
        assert cert.core.face(set(cert.core_expanded)) is None
        assert certificate_holds(poly, cert)

    def test_simplex_is_double_expansion_of_triangle(self):
        cert = recognize_double_expansion(simplex(4))
        assert cert.base == (0, 1, 2, 3)
        assert cert.core.dim == 2 and cert.core.n_facets == 3
        assert certificate_holds(simplex(4), cert)

    def test_minimal_b_members_recognized(self):
        for n_asym in (6, 8):
            poly = minimal_family_b(n_asym)
            cert = recognize_double_expansion(poly)
            assert cert is not None and certificate_holds(poly, cert)

    def test_distinct_twist_bundle_is_not_one(self):
        poly, _ = essential_yk()
        assert recognize_double_expansion(poly) is None


# ---------------------------------------------------------------------------
# family types


class TestRecognizeType:
    def test_a1(self):
        poly, H = essential_yk()
        rec = recognize_type(poly, H)
        assert rec.tags == ("a1",)
        tag, cert = rec.certificates[0]
        assert tag == "a1" and cert.params.k == 3

    def test_a2(self):
        spec = Bundle121Spec((1, 2, 3), 1, (0, 1, 0, 0, 4, 0, 40))
        poly = bundle_121(spec)
        H = facet_comb(poly, {2: 3, 3: -2, 4: -1})
        rec = recognize_type(poly, H)
        assert rec.tags == ("a2",)
        assert rec.certificates[0][1].params == spec

    def test_a2_and_a3_for_untwisted_tower(self):
        # zero inner twist: the triangle splits off and the polytope is
        # also a triangle bundle over a quadrilateral
        poly = bundle_121(Bundle121Spec((0, 2, 3), 0, (0, 1, 0, 0, 4, 0, 40)))
        H = facet_comb(poly, {2: 3, 3: -2, 4: -1})
        rec = recognize_type(poly, H)
        assert rec.tags == ("a2", "a3")
        assert rec.certificates[1][1].fiber == (2, 3, 4)

    def test_a3(self):
        poly = minimal_family_a3(7)
        H = facet_comb(poly, {0: 1, 1: 1, 2: -2})
        rec = recognize_type(poly, H)
        assert rec.tags == ("a3",)
        assert rec.certificates[0][1].fiber == (0, 1, 2)

    def test_b(self):
        poly, H = twisted_pair()
        rec = recognize_type(poly, H)
        assert rec.tags == ("b",)
        cert = rec.certificates[0][1]
        assert set(cert.base) == set(mass_linear_test(poly, H).asymmetric)

    def test_inessential_elsewhere_matches_nothing(self):
        # two asymmetric facets only: not the double-expansion pattern
        poly = simplex(4)
        H = facet_comb(poly, {0: 1, 1: -1})
        assert recognize_type(poly, H).tags == ()

    def test_non_mass_linear_matches_nothing(self):
        poly = yk(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        H = (1, 0, 0, 0)
        assert not mass_linear_test(poly, H).verdict
        assert recognize_type(poly, H).tags == ()

    def test_wrong_dimension_matches_nothing(self):
        assert recognize_type(simplex(3), (1, -1, 0)).tags == ()


# ---------------------------------------------------------------------------
# classification


class TestClassify4d:
    def test_edge_blowup_of_twisted_pair(self):
        bar, H = twisted_pair()
        poly = blowup(bar, (1, 3, 4))
        assert poly.conormals[0] == (1, 0, 1, -1)
        res = classify4d(poly, H)
        assert res.type == "b"
        assert len(res.trace) == 1
        step = res.trace[0]
        assert step.tag == "edge_type_Fij_G"
        assert step.facet == 0 and step.label == "E1"
        assert step.index_set == (2, 4, 5)
        assert res.terminal == bar and res.terminal.labels == bar.labels
        assert res.certificate.base == (0, 1, 2, 3)
        assert res.terminal_inessential is not None

    def test_replay_matches_input(self):
        bar, H = twisted_pair()
        poly = blowup(bar, (1, 3, 4))
        res = classify4d(poly, H)
        rebuilt = replay_trace(res.terminal, res.trace)
        assert rebuilt == poly and rebuilt.labels == poly.labels

    def test_replay_builds_one_polytope_per_step(self, builds):
        bar, H = twisted_pair()
        poly = blowup(blowup(bar, (1, 3, 4)), (0, 5))
        res = classify4d(poly, H)
        assert len(res.trace) == 2
        builds.clear()
        rebuilt = replay_trace(res.terminal, res.trace)
        assert len(builds) == len(res.trace) and builds[-1] is rebuilt

    def test_stages_are_the_walked_polytopes(self):
        bar, H = twisted_pair()
        poly = blowup(blowup(bar, (1, 3, 4)), (0, 5))
        res = classify4d(poly, H)
        assert res.stages[0] is poly and res.stages[-1] is res.terminal
        assert len(res.stages) == len(res.trace) + 1
        for k in range(len(res.trace), 0, -1):
            up = replay_trace(res.stages[k], res.trace[k - 1:k])
            assert up == res.stages[k - 1] and up.labels == res.stages[k - 1].labels

    def test_a1_terminal_is_input(self):
        poly, H = essential_yk()
        res = classify4d(poly, H)
        assert res.type == "a1" and res.trace == ()
        assert res.terminal == poly
        assert res.terminal_inessential is None

    def test_a2_with_a3_alternative(self):
        poly = bundle_121(Bundle121Spec((0, 2, 3), 0, (0, 1, 0, 0, 4, 0, 40)))
        H = facet_comb(poly, {2: 3, 3: -2, 4: -1})
        res = classify4d(poly, H)
        assert res.type == "a2"
        assert [t for t, _ in res.alternatives] == ["a3"]

    def test_terminal_recognition_reuses_tag_certificate(self):
        tower = bundle_121(Bundle121Spec((0, 2, 3), 0, (0, 1, 0, 0, 4, 0, 40)))
        for poly, H in (
            essential_yk(),
            (tower, facet_comb(tower, {2: 3, 3: -2, 4: -1})),
        ):
            res = classify4d(poly, H)
            assert res.type in ("a1", "a2")
            assert res.terminal_recognition.certificate is res.certificate

    def test_terminal_recognition_ignores_functional(self):
        poly = simplex(4)
        res = classify4d(poly, facet_comb(poly, {0: 1, 1: -1}))
        assert res.type == "inessential"
        cert = res.terminal_recognition.certificate
        assert cert.family == "double_expansion"
        assert cert == recognize_double_expansion(poly)

    def test_inessential_input_is_terminal(self):
        poly = simplex(4)
        H = facet_comb(poly, {0: 1, 1: -1})
        res = classify4d(poly, H)
        assert res.type == "inessential" and res.trace == ()
        assert res.terminal == poly and res.terminal_inessential is not None

    def test_zero_functional(self):
        assert classify4d(simplex(4), (0, 0, 0, 0)).type == "zero"

    def test_symmetric_2face_blowup(self):
        poly, H = essential_yk()
        # facets 3 (all-ones conormal) and 4 carry zero coefficients
        blown = blowup(poly, (3, 4))
        res = classify4d(blown, H)
        assert res.type == "a1"
        assert [s.tag for s in res.trace] == ["symmetric_2face"]
        assert res.terminal == poly

    def test_vertex_blowup(self):
        poly, H = essential_yk()
        vert = next(v for v in poly.vertices if {0, 1, 2} <= set(v.basis))
        blown = blowup(poly, tuple(sorted(vert.basis)))
        res = classify4d(blown, H)
        assert res.type == "a1"
        assert [s.tag for s in res.trace] == ["vertex"]
        assert res.terminal == poly

    def test_two_step_chain(self):
        poly, H = essential_yk()
        blown = blowup(blowup(poly, (3, 4)), (0, 4))
        res = classify4d(blown, H)
        assert res.type == "a1"
        assert len(res.trace) == 2
        assert {s.tag for s in res.trace} == {"symmetric_2face"}
        assert res.terminal == poly
        rebuilt = replay_trace(res.terminal, res.trace)
        assert rebuilt == blown and rebuilt.labels == blown.labels

    def test_gamma_preserved_along_trace(self):
        poly, H = essential_yk()
        blown = blowup(blowup(poly, (3, 4)), (0, 4))
        res = classify4d(blown, H)
        gamma = mass_linear_test(blown, H).gamma
        for step in res.trace:
            assert gamma[step.facet] == 0
            gamma = tuple(g for x, g in enumerate(gamma) if x != step.facet)
        assert gamma == res.terminal_report.gamma

    def test_essentiality_never_reappears(self):
        # the worked pair is essential on the input and on no later stage
        bar, H = twisted_pair()
        poly = blowup(bar, (1, 3, 4))
        assert is_inessential(poly, H) is None
        res = classify4d(poly, H)
        assert res.type == "b" and res.terminal_inessential is not None

    def test_unclassified_without_bundle_recognizers(self, monkeypatch):
        monkeypatch.setattr(recognize, "_BUNDLE_RECOGNIZERS", ())
        poly = minimal_family_a3(7)
        H = first_essential(poly)
        symmetric = mass_linear_test(poly, H).symmetric
        face = next(pq for pq in itertools.combinations(sorted(symmetric), 2) if poly.face(set(pq)) is not None)
        for length, start in enumerate((poly, blowup(poly, face))):
            res = classify4d(start, H)
            assert res.type == "unclassified" and len(res.trace) == length
            assert res.detail.endswith("the functional is essential there")
            assert res.terminal == poly and res.certificate is None

    def test_dimension_checked(self):
        with pytest.raises(ValueError, match="4-dimensional"):
            classify4d(simplex(3), (1, 0, 0))

    def test_mass_linearity_checked(self):
        poly, _ = twisted_pair()
        with pytest.raises(ValueError, match="not mass linear"):
            classify4d(poly, (1, 0, 0, 0))


def _wrong_blowdowns(blowdown, poly, facet):
    """name -> a ``blowdown`` that gives a wrong stage: the blown-down
    polytope with its last support number raised by 1, or in lattice
    coordinates sheared by x_1 += x_2, or, on poly, facet 0's blowdown
    given as that of the given facet, every facet before it refused."""
    shear = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]

    def staged(change):
        def wrong(p, f=0):
            rep = blowdown(p, f)
            return replace(rep, polytope=change(rep.polytope)) if rep.ok else rep
        return wrong

    def misplaced(p, f=0):
        if p is not poly or f > facet:
            return blowdown(p, f)
        return blowdown(p, 0) if f == facet else BlowdownReport(ok=False, failed_condition="bundle structure")

    return {
        "shifted support": staged(lambda bar: HPolytope(
            bar.dim, bar.conormals, bar.support[:-1] + (bar.support[-1] + 1,), bar.labels)),
        "sheared lattice": staged(lambda bar: bar.apply_lattice_map(shear)),
        "removed facet with nonzero gamma": misplaced,
    }


def wrong_blowdown_outcomes() -> dict[str, str]:
    """name -> what ``classify4d`` of the worked pair raises with each
    wrong blowdown of ``_wrong_blowdowns`` in place of the one
    ``recognize`` imports."""
    bar, H = twisted_pair()
    poly = blowup(bar, (1, 3, 4))
    facet = min(mass_linear_test(poly, H).asymmetric)
    real, out = recognize.blowdown, {}
    for name, wrong in _wrong_blowdowns(real, poly, facet).items():
        recognize.blowdown = wrong
        try:
            classify4d(poly, H)
            out[name] = "classified"
        except StructuralInconsistency as exc:
            out[name] = f"StructuralInconsistency: {exc}"
        finally:
            recognize.blowdown = real
    return out


class TestWrongBlowdown:
    """A blowdown stage is fitted by no one: its report is derived from
    the parent's (``masslinear._blowdown_report``).  A wrong stage is
    still caught, by the derivation's guards or by the replay of the
    trace, with Python's own asserts on or off."""

    EXPECTED = {
        "shifted support": "StructuralInconsistency: trace replay failed to rebuild the input",
        "sheared lattice": "StructuralInconsistency: H must equal sum of gamma_i times conormals",
        "removed facet with nonzero gamma": "StructuralInconsistency: a removable facet carried a nonzero coefficient",
    }

    def test_caught_in_process(self):
        assert wrong_blowdown_outcomes() == self.EXPECTED
        # the real blowdown is back in place
        bar, H = twisted_pair()
        assert classify4d(blowup(bar, (1, 3, 4)), H).type == "b"

    def test_caught_under_dash_O(self):
        script = textwrap.dedent("""
            import json
            import test_recognize

            if __debug__:
                raise SystemExit("not running under -O")
            print(json.dumps(test_recognize.wrong_blowdown_outcomes()))
        """)
        paths = [str(Path(recognize.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == self.EXPECTED


# ---------------------------------------------------------------------------
# planning blowups that make a functional essential


class TestEssentialBlowupPlanner:
    def test_twisted_pair_needs_one_blowup(self):
        poly, H = twisted_pair()
        plan = essential_blowup_planner(poly, H)
        assert plan.feasible and len(plan.steps) == 1
        (index_set, eps) = plan.steps[0]
        # one facet from each equivalent pair plus a symmetric facet
        assert len(set(index_set) & {0, 1}) == 1
        assert len(set(index_set) & {2, 3}) == 1
        assert len(set(index_set) & {4, 5}) == 1
        assert eps > 0
        assert blowup(poly, index_set, eps) == plan.result
        assert is_inessential(plan.result, H) is None
        assert mass_linear_test(plan.result, H).verdict

    def test_plan_agrees_with_classifier(self):
        # blowing up per the plan then classifying returns to type b
        poly, H = twisted_pair()
        plan = essential_blowup_planner(poly, H)
        res = classify4d(plan.result, H)
        assert res.type == "b" and len(res.trace) == 1
        assert res.terminal == poly

    def test_equivalent_expanded_edges_need_two(self):
        seg = simplex(1)
        square = product(seg, seg)
        poly = double_expansion(square, 0, 1)
        H = facet_comb(poly, {2: 1, 3: -1, 4: 1, 5: -1})
        assert is_inessential(poly, H) is not None
        plan = essential_blowup_planner(poly, H)
        assert plan.feasible and len(plan.steps) == 2
        assert is_inessential(plan.result, H) is None
        step1 = blowup(poly, plan.steps[0][0], plan.steps[0][1])
        assert blowup(step1, plan.steps[1][0], plan.steps[1][1]) == plan.result

    def test_triangle_core_is_infeasible(self):
        poly = minimal_family_b(5)
        base = range(poly.n_facets - 4, poly.n_facets)
        H = facet_comb(poly, {i: (-1) ** i for i in base})
        plan = essential_blowup_planner(poly, H)
        assert not plan.feasible and "triangle" in plan.reason

    def test_unequal_coefficients_are_infeasible(self):
        poly, _ = twisted_pair()
        H = facet_comb(poly, {0: 2, 1: -2, 2: -1, 3: 1})
        plan = essential_blowup_planner(poly, H)
        assert not plan.feasible and "absolute value" in plan.reason

    def test_already_essential_is_infeasible(self):
        poly, H = essential_yk()
        plan = essential_blowup_planner(poly, H)
        assert not plan.feasible and "already essential" in plan.reason

    def test_wrong_shape_raises(self):
        poly = bundle_121(Bundle121Spec((1, 2, 3), 1, (0, 1, 0, 0, 4, 0, 40)))
        H = facet_comb(poly, {5: 1, 6: -1})
        assert is_inessential(poly, H) is not None
        with pytest.raises(PolytopeError, match="double expansion"):
            essential_blowup_planner(poly, H)


# ---------------------------------------------------------------------------
# recognize-after-construct round trips across the families


class TestRoundTrips:
    def test_segment_bundles(self):
        for k, a, kappa in [
            (2, (0, 0), (0, 0, 1, 0, 3)),
            (2, (-1, 3), (0, 0, 1, 0, 7)),
            (3, (2, 2, 2), (0, 0, 0, 1, 0, 7)),
        ]:
            spec = YkBundleSpec(k, a, kappa)
            poly = bundle_Yk(spec)
            cert = recognize_bundle_over_segment(poly)
            assert cert.params == spec
            assert certificate_holds(poly, cert)

    def test_towers(self):
        for a, d in [((1, 2, 3), 1), ((0, 1, 2), 2), ((5, 2, 3), 0)]:
            spec = Bundle121Spec(a, d, (0, 1, 0, 0, 4, 0, 40))
            poly = bundle_121(spec)
            rec = recognize_type(poly, first_essential(poly))
            cert = next(c for t, c in rec.certificates if t == "a2")
            assert cert.params == spec
            assert certificate_holds(poly, cert)

    def test_polygon_bundles(self):
        square = HPolytope(
            2, ((-1, 0), (0, -1), (1, 0), (0, 1)), (0, 0, 3, 3)
        )
        for twists in [((0, 0),) * 4, ((0, 0), (0, 0), (1, -1), (0, 0))]:
            spec = D2PolygonBundleSpec(square, twists, (0, 0, 1, 0, 0, 3, 3))
            poly = bundle_D2_polygon(spec)
            cert = _recognize_polygon_bundle(poly)
            assert cert is not None and certificate_holds(poly, cert)

    def test_expansions(self):
        for core, facet, fold in [
            (trapezoid(1), 0, 1),
            (trapezoid(1), 2, 2),
            (simplex(2), 1, 1),
        ]:
            poly = expansion(core, facet, fold=fold)
            cert = recognize_expansion(poly)
            assert cert is not None and certificate_holds(poly, cert)

    def test_double_expansions(self):
        seg = simplex(1)
        cores = [trapezoid(1), product(seg, seg), simplex(2)]
        for core in cores:
            poly = double_expansion(core, 0, 1)
            cert = recognize_double_expansion(poly)
            assert cert is not None and certificate_holds(poly, cert)


class TestPartOneLowDimensions:
    """Part I (McDuff and Tolman, Polytopes with mass linear functions,
    IMRN 2010, arXiv:0807.0900) classifies the mass linear pairs in
    dimension at most three.  As this library states it: on a smooth
    polygon every mass linear H is inessential, and a smooth 3-polytope
    carries an essential pair only when it is a Delta_2 bundle over
    Delta_1, which has 5 facets and which ``recognize_bundle_over_segment``
    accepts.  The 4-d proof restricts H to its symmetric facets, which are
    3-d pairs, so the same statement checks the 4-d verdicts from below.

    Inputs: the smooth 2-d and 3-d suite polytopes, seeded Y_2 twists
    (``bundle_Yk`` with k = 2) and their blowups along every face of
    codimension 2 or more, with the basis of ``ml_space``, sums of
    neighbouring basis vectors and one weighted sum; and the restriction
    of every essential 4-d suite pair to each of its symmetric facets
    (``restrict_to_face``), which must stay mass linear.  The seeded 4-d
    sweeps of ``test_properties`` check the same restrictions of every
    essential pair they draw (``_restrictions``), where their reports
    are at hand."""

    @staticmethod
    def _functionals(poly):
        basis = [H for H, _ in ml_space(poly)]
        out = basis + [tuple(a + b for a, b in zip(x, y)) for x, y in zip(basis, basis[1:])]
        if len(basis) > 2:
            out.append(tuple(sum((j + 1) * h[m] for j, h in enumerate(basis)) for m in range(poly.dim)))
        return [H for H in out if any(H)]

    @staticmethod
    def _assert_part_one(poly, H):
        """H is mass linear on the smooth polytope of dimension 2 or 3."""
        if is_inessential(poly, H) is not None:
            return "inessential"
        assert poly.dim == 3, (poly.conormals, poly.support, H)
        assert poly.n_facets == 5 and recognize_bundle_over_segment(poly) is not None, (poly.conormals, H)
        return "essential"

    @classmethod
    def _with_blowups(cls, bases) -> Counter:
        """Part I on each polytope and on its blowups along every face of
        codimension 2 or more, counted by (dimension, verdict)."""
        seen = Counter()
        for base in bases:
            faces = sorted(sorted(f.index_set) for f in base.face_lattice.values() if 0 <= f.dimension <= base.dim - 2)
            for poly in [base] + [blowup(base, I) for I in faces]:
                for H in cls._functionals(poly):
                    seen[poly.dim, cls._assert_part_one(poly, H)] += 1
        return seen

    @classmethod
    def _restrictions(cls, case, poly, H, symmetric) -> Counter:
        """Part I on the restriction of an essential 4-d pair to each of
        its symmetric facets, counted by verdict.  The 4-d sweeps of
        ``test_properties`` call this on every essential pair they draw."""
        seen = Counter()
        for i in sorted(symmetric):
            r = restrict_to_face(poly, H, (i,))
            assert mass_linear_test(r.poly, r.functional).verdict, (case, i)
            if any(r.functional):
                seen[cls._assert_part_one(r.poly, r.functional)] += 1
        return seen

    def test_suite_and_blowups(self):
        seen = self._with_blowups(sp.poly for sp in suite_polytopes() if sp.poly.dim in (2, 3))
        assert seen[2, "inessential"] and seen[3, "inessential"] and seen[3, "essential"]
        assert not seen[2, "essential"]

    def test_seeded_y2_twists_and_blowups(self):
        # twists in [-3, 3]^2; support numbers with lambda > 0 and the
        # height h over the fiber origin 1 to 3 above its chamber bound
        rng = random.Random(1106)
        bases = []
        for _ in range(16):
            a = (rng.randint(-3, 3), rng.randint(-3, 3))
            fiber = [rng.randint(0, 3) for _ in range(3)]
            fiber[rng.randrange(3)] += 1
            g1 = rng.randint(-2, 2)
            g2 = max(0, *a) * sum(fiber) - (a[0] * fiber[0] + a[1] * fiber[1] + g1) + rng.randint(1, 3)
            bases.append(bundle_Yk(YkBundleSpec(2, a, (*fiber, g1, g2))))
        seen = self._with_blowups(bases)
        assert seen[3, "inessential"] and seen[3, "essential"], seen

    def test_symmetric_facet_restrictions(self):
        seen = Counter()
        for pair in suite_pairs():
            report = report_for(pair)
            if pair.poly.dim != 4 or not report.verdict or not any(pair.H) or is_inessential(pair.poly, pair.H):
                continue
            seen += self._restrictions((pair.name, pair.H), pair.poly, pair.H, report.symmetric)
        assert seen["inessential"] and seen["essential"]
