"""Builders, expansions, blowups, blowdowns, and the closed-form
coefficient spaces of the bundle families."""

import itertools
import re
from fractions import Fraction as Fr

import pytest

from masslin.constructions import (
    BlowdownReport,
    Bundle121Spec,
    D2PolygonBundleSpec,
    YkBundleSpec,
    area_polynomial,
    blowdown,
    blowup,
    bundle_121,
    bundle_D2_polygon,
    bundle_Yk,
    double_expansion,
    expansion,
    minimal_family_a3,
    minimal_family_b,
    ml_space_121,
    ml_space_D2_polygon,
    ml_space_Yk,
    product,
    simplex,
    trapezoid,
    yk_structural_values,
)
from masslin.constructions import _121_data, _corner_cut_polygon, _facet_fiber_structure
from masslin.errors import PolytopeError
from masslin.linalg import dot, int_det, vec
from masslin.masslinear import (
    equivalence_classes,
    inessential_space,
    is_inessential,
    mass_linear_test,
    ml_space,
    symmetric_facets,
)
from masslin.polytope import HPolytope

from _blowdown_ref import facet_fiber_structure, per_vertex
from _linalg_ref import in_row_span
from _suite import suite_polytopes


def yk(k, a, kappa):
    return bundle_Yk(YkBundleSpec(k, a, kappa))


def space_agrees_with_polytope(poly, fs):
    """The closed-form space must coincide with the measured one."""
    assert len(ml_space(poly)) == len(fs.mass_linear)
    for H, g in fs.mass_linear:
        rep = mass_linear_test(poly, H)
        assert rep.verdict and rep.gamma == g
    iness_h = inessential_space(poly)
    assert len(iness_h) == len(fs.inessential)
    for H, g in fs.inessential:
        assert is_inessential(poly, H) is not None
        assert in_row_span(list(iness_h), vec(H))


# ---------------------------------------------------------------------------
# elementary builders


class TestElementary:
    def test_simplex(self):
        s = simplex(3, 2)
        assert s.conormals == ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1))
        assert s.support == (Fr(0), Fr(0), Fr(0), Fr(2))
        assert len(s.vertices) == 4 and s.is_smooth()

    def test_simplex_bad_size(self):
        with pytest.raises(PolytopeError):
            simplex(2, 0)

    def test_product_block_structure(self):
        box = product(simplex(1), simplex(1))
        assert box.conormals == ((-1, 0), (1, 0), (0, -1), (0, 1))
        assert len(box.vertices) == 4

    def test_product_label_collision(self):
        box = product(simplex(1), simplex(1))
        assert box.labels == ("F1", "F2", "F1'", "F2'")

    def test_trapezoid_is_twisted_segment_bundle(self):
        t = trapezoid()
        assert t.conormals == ((-1, 0), (1, 0), (0, -1), (1, 1))
        assert len(t.vertices) == 4 and t.is_smooth()


# ---------------------------------------------------------------------------
# simplex bundle over a segment


class TestYkBundle:
    def test_worked_bundle(self):
        Y = yk(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        assert Y.conormals == (
            (-1, 0, 0, 0),
            (0, -1, 0, 0),
            (0, 0, -1, 0),
            (1, 1, 1, 0),
            (0, 0, 0, -1),
            (1, 1, 0, 1),
        )
        assert Y.labels == ("F1", "F2", "F3", "F4", "G1", "G2")
        assert len(Y.vertices) == 8 and Y.is_smooth()

    def test_structural_values(self):
        lam, h = yk_structural_values(YkBundleSpec(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)))
        assert lam == 1 and h == 2

    def test_zero_twist_is_product(self):
        Y = yk(3, (0, 0, 0), (0, 0, 0, 1, 0, 2))
        assert Y == product(simplex(3, 1), simplex(1, 2))

    def test_fiber_size_must_be_positive(self):
        with pytest.raises(PolytopeError, match="chamber"):
            yk(2, (1, 0), (0, 0, 0, 0, 1))

    def test_height_must_clear_twist(self):
        # lam = 1, twist max 2 -> need h > 2, but h = 2
        with pytest.raises(PolytopeError, match="chamber"):
            yk(2, (2, 0), (0, 0, 1, 0, 2))

    def test_spec_shape_validation(self):
        with pytest.raises(PolytopeError):
            YkBundleSpec(2, (1,), (0, 0, 1, 0, 2))
        with pytest.raises(PolytopeError):
            YkBundleSpec(2, (1, 0), (0, 0, 1, 0))


class TestYkSpace:
    def test_distinct_twists_split_three_one(self):
        fs = ml_space_Yk(3, (1, 2, 3))
        assert len(fs.mass_linear) == 3
        assert len(fs.inessential) == 1
        assert fs.has_essential

    def test_zero_twist_everything_inessential(self):
        fs = ml_space_Yk(3, (0, 0, 0))
        assert len(fs.mass_linear) == 4
        assert fs.inessential == fs.mass_linear

    def test_repeated_twists_everything_inessential(self):
        fs = ml_space_Yk(3, (1, 1, 0))
        assert len(fs.mass_linear) == 3
        assert not fs.has_essential

    def test_gamma_constraints_hold(self):
        for a in [(1, 2, 3), (0, 0, 0), (1, 1, 0), (-1, -1, 0)]:
            fs = ml_space_Yk(3, a)
            for H, g in fs.mass_linear:
                assert sum(g[:4]) == 0
                assert sum(ai * gi for ai, gi in zip(a, g)) == 0
                assert g[4] + g[5] == 0

    def test_space_matches_polytope_distinct(self):
        poly = yk(3, (1, 2, 3), (0, 0, 0, 1, 0, 4))
        space_agrees_with_polytope(poly, ml_space_Yk(3, (1, 2, 3)))

    def test_space_matches_polytope_repeated(self):
        poly = yk(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        space_agrees_with_polytope(poly, ml_space_Yk(3, (1, 1, 0)))

    def test_space_matches_polytope_negative(self):
        poly = yk(2, (-1, 2), (0, 0, 1, 0, 3))
        space_agrees_with_polytope(poly, ml_space_Yk(2, (-1, 2)))

    @pytest.mark.parametrize("k, a", [(0, ()), (-1, ()), (2, (1,)), (2, (1, 2, 3))])
    def test_solver_rejects_what_the_spec_rejects(self, k, a):
        with pytest.raises(PolytopeError) as spec_error:
            YkBundleSpec(k, a, (0,) * (k + 3))
        with pytest.raises(PolytopeError, match=str(spec_error.value)):
            ml_space_Yk(k, a)

    def test_known_essential_functional(self):
        poly = yk(3, (1, 2, 3), (0, 0, 0, 1, 0, 4))
        g = (1, 1, -1, -1, 0, 0)
        H = tuple(
            sum(gi * eta[j] for gi, eta in zip(g, poly.conormals))
            for j in range(4)
        )
        rep = mass_linear_test(poly, H)
        assert rep.verdict and rep.gamma == vec(g)
        assert is_inessential(poly, H) is None


# ---------------------------------------------------------------------------
# the 121 tower


class Test121:
    def test_build_and_count(self):
        B = bundle_121(Bundle121Spec((1, 2, 3), 1, (0, 1, 0, 0, 4, 0, 40)))
        assert B.labels == ("T0", "T1", "F2", "F3", "F4", "F5", "F6")
        assert len(B.vertices) == 12 and B.is_smooth()

    def test_out_of_chamber_rejected(self):
        with pytest.raises(PolytopeError):
            bundle_121(Bundle121Spec((1, 2, 3), 1, (0, 5, 0, 0, 4, 0, 9)))

    def test_out_of_chamber_names_the_first_singular_vertex(self):
        # the first vertex, in sorted order, with |det A_v| != 1 by a
        # determinant of its own
        spec = Bundle121Spec((1, 2, 3), 1, (0, 5, 0, 0, 4, 0, 9))
        poly = HPolytope(*_121_data(spec))
        v = next(v for v in poly.vertices if abs(int_det([poly.conormals[i] for i in v.basis])) != 1)
        with pytest.raises(PolytopeError, match=re.escape(f"121 bundle: vertex {v.point} is not smooth")):
            bundle_121(spec)

    def test_negative_d_rejected(self):
        with pytest.raises(PolytopeError):
            Bundle121Spec((1, 2, 3), -1, (0, 5, 0, 0, 4, 0, 9))

    @pytest.mark.parametrize("a, d", [((1, 1, 1), -1), ((1, 2), 0), ((1, 2, 3, 4), 1)])
    def test_solver_rejects_what_the_spec_rejects(self, a, d):
        with pytest.raises(PolytopeError) as spec_error:
            Bundle121Spec(a, d, (0, 1, 0, 0, 4, 0, 40))
        with pytest.raises(PolytopeError, match=str(spec_error.value)):
            ml_space_121(a, d)

    @pytest.mark.parametrize("d", [Fr(1, 2), 1.5])
    def test_non_integer_d_rejected(self, d):
        # the same error as a non-integer Y_k twist
        with pytest.raises(ValueError, match="expected integer entries"):
            YkBundleSpec(1, (d,), (0, 0, 1, 0))
        with pytest.raises(ValueError, match="expected integer entries"):
            Bundle121Spec((1, 0, 0), d, (0, 1, 0, 0, 4, 0, 40))
        with pytest.raises(ValueError, match="expected integer entries"):
            ml_space_121((1, 0, 0), d)

    def test_segment_pins_when_twisted(self):
        fs = ml_space_121((1, 2, 3), 1)
        assert len(fs.mass_linear) == 2 and len(fs.inessential) == 1
        for H, g in fs.mass_linear:
            assert g[0] == 0 and g[1] == 0

    def test_segment_free_when_untwisted(self):
        fs = ml_space_121((0, 2, 3), 0)
        assert len(fs.mass_linear) == 3 and len(fs.inessential) == 2
        assert fs.has_essential

    def test_degenerate_base_twists_all_inessential(self):
        fs = ml_space_121((0, 1, 1), 0)
        assert fs.inessential == fs.mass_linear

    def test_space_matches_polytope(self):
        spec = Bundle121Spec((1, 2, 3), 1, (0, 1, 0, 0, 4, 0, 40))
        space_agrees_with_polytope(bundle_121(spec), ml_space_121((1, 2, 3), 1))

    def test_space_matches_polytope_untwisted_segment(self):
        spec = Bundle121Spec((0, 2, 3), 0, (0, 1, 0, 0, 4, 0, 40))
        space_agrees_with_polytope(bundle_121(spec), ml_space_121((0, 2, 3), 0))


# ---------------------------------------------------------------------------
# triangle bundle over a polygon


def square_base():
    return HPolytope(
        2, ((-1, 0), (0, -1), (1, 0), (0, 1)), (0, 0, 3, 3),
        ("e1", "e2", "e3", "e4"),
    )


class TestD2Polygon:
    def test_product_case(self):
        spec = D2PolygonBundleSpec(
            square_base(), ((0, 0),) * 4, (0, 0, 1, 0, 0, 3, 3)
        )
        P = bundle_D2_polygon(spec)
        assert len(P.vertices) == 12 and P.is_smooth()
        assert P.labels == ("F1", "F2", "F3", "G1", "G2", "G3", "G4")

    def test_twisted_case(self):
        spec = D2PolygonBundleSpec(
            square_base(), ((0, 0), (0, 0), (1, -1), (0, 0)), (0, 0, 1, 0, 0, 3, 3)
        )
        P = bundle_D2_polygon(spec)
        assert len(P.vertices) == 12 and P.is_smooth()
        assert P.conormals[5] == (1, -1, 1, 0)

    def test_adjacency_order_enforced(self):
        bad = HPolytope(2, ((-1, 0), (1, 0), (0, -1), (0, 1)), (0, 3, 0, 3))
        with pytest.raises(PolytopeError, match="adjacency"):
            D2PolygonBundleSpec(bad, ((0, 0),) * 4, (0, 0, 1, 0, 3, 0, 3))

    def test_first_two_twists_must_vanish(self):
        with pytest.raises(PolytopeError, match="twist"):
            D2PolygonBundleSpec(
                square_base(), ((1, 0), (0, 0), (0, 0), (0, 0)), (0, 0, 1, 0, 0, 3, 3)
            )

    @pytest.mark.parametrize("b", [Fr(3, 2), 1.9])
    def test_non_integer_twists_rejected(self, b):
        with pytest.raises(ValueError, match="expected integer entries"):
            D2PolygonBundleSpec(
                square_base(), ((0, 0), (0, 0), (b, -1), (0, 0)), (0, 0, 1, 0, 0, 3, 3)
            )

    def test_untwisted_space_is_inessential_with_fiber_plane(self):
        spec = D2PolygonBundleSpec(
            square_base(), ((0, 0),) * 4, (0, 0, 1, 0, 0, 3, 3)
        )
        fs = ml_space_D2_polygon(spec)
        # two lifted pairs of parallel base facets + a 2-dim fiber part
        assert len(fs.mass_linear) == 4
        assert fs.inessential == fs.mass_linear

    def test_twisted_base_only_lift_survives(self):
        # twists not collinear with any vanishing direction: fiber part dies
        spec = D2PolygonBundleSpec(
            square_base(), ((0, 0), (0, 0), (1, -1), (1, 1)), (0, 0, 1, 0, 0, 6, 6)
        )
        fs = ml_space_D2_polygon(spec)
        for H, g in fs.mass_linear:
            assert g[0] == g[1] == g[2] == 0

    def test_triangle_base_never_essential(self):
        # whatever the twist, a triangle base admits no essential functional
        for b3 in [(0, 0), (1, 2), (1, 1), (2, 0), (-1, 3)]:
            spec = D2PolygonBundleSpec(
                simplex(2, 4), ((0, 0), (0, 0), b3), (0, 0, 1, 0, 0, 4)
            )
            fs = ml_space_D2_polygon(spec)
            assert not fs.has_essential

    def test_space_matches_polytope(self):
        spec = D2PolygonBundleSpec(
            square_base(), ((0, 0), (0, 0), (1, -1), (0, 0)), (0, 0, 1, 0, 0, 6, 6)
        )
        space_agrees_with_polytope(bundle_D2_polygon(spec), ml_space_D2_polygon(spec))

    def test_space_matches_polytope_untwisted(self):
        spec = D2PolygonBundleSpec(
            simplex(2, 4), ((0, 0), (0, 0), (0, 0)), (0, 0, 1, 0, 0, 4)
        )
        space_agrees_with_polytope(bundle_D2_polygon(spec), ml_space_D2_polygon(spec))


# ---------------------------------------------------------------------------
# expansions


class TestExpansion:
    def test_segment_expands_to_triangle(self):
        E = expansion(simplex(1), 0)
        assert E.conormals == ((1, 0), (0, -1), (-1, 1))
        assert E.labels == ("F2", "B1", "B2")
        assert len(E.vertices) == 3 and E.is_smooth()

    def test_base_type_facets_equivalent(self):
        Y = yk(2, (1, 2), (0, 0, 1, 0, 3))
        E = expansion(Y, 3, fold=2)
        idx = {E.label_index("B1"), E.label_index("B2"), E.label_index("B3")}
        eq = equivalence_classes(E)
        assert idx <= eq.class_of(E.label_index("B1"))

    def test_keeps_other_support_numbers(self):
        E = expansion(simplex(2, 3), 0)
        assert E.support == (Fr(0), Fr(3), Fr(0), Fr(0))

    def test_double_expansion_of_band_trapezoid(self):
        core = HPolytope(
            2, ((-1, 0), (0, -1), (1, 1), (-1, -1)), (0, 0, 1, Fr(-1, 2))
        )
        D = double_expansion(core, 2, 3)
        assert D.conormals == (
            (-1, 0, 0, 0),
            (0, -1, 0, 0),
            (0, 0, -1, 0),
            (1, 1, 1, 0),
            (0, 0, 0, -1),
            (-1, -1, 0, 1),
        )
        assert D.support == (Fr(0), Fr(0), Fr(0), Fr(1), Fr(0), Fr(-1, 2))
        assert D.labels == ("F1", "F2", "B1", "B2", "B3", "B4")
        assert D.is_smooth()

    def test_double_expansion_needs_distinct_facets(self):
        with pytest.raises(PolytopeError):
            double_expansion(simplex(2), 1, 1)

    def test_corner_blowup_of_expansion_is_bundle(self):
        # cutting the corner where both base-type facets of an expanded
        # segment meet yields a segment bundle over a segment
        E = expansion(simplex(1), 0)
        bl = blowup(E, (E.label_index("B1"), E.label_index("B2")))
        assert bl.n_facets == 4 and len(bl.vertices) == 4 and bl.is_smooth()

    def test_expansion_not_mass_linear_for_twisted_core(self):
        # Y(2, (1, 2)) carries an essential mass-linear functional that the
        # expansion along its bottom base facet destroys
        Y = yk(2, (1, 2), (0, 0, 1, 0, 3))
        H = (-3, 0, 0)
        rep = mass_linear_test(Y, H)
        assert rep.verdict and rep.gamma == vec((2, -1, -1, 0, 0))
        assert is_inessential(Y, H) is None
        E = expansion(Y, 3)
        assert not mass_linear_test(E, (-3, 0, 0, 0)).verdict


# ---------------------------------------------------------------------------
# blowups


class TestBlowup:
    def test_worked_blowup_matches_fixture(self):
        Y = yk(3, (-1, -1, 0), (0, 0, 0, 1, 0, 2))
        B = blowup(Y, (1, 3, 4))
        fixture = HPolytope(
            4,
            (
                (1, 0, 1, -1),
                (-1, 0, 0, 0),
                (0, -1, 0, 0),
                (0, 0, -1, 0),
                (1, 1, 1, 0),
                (0, 0, 0, -1),
                (-1, -1, 0, 1),
            ),
            (Fr(1, 2), 0, 0, 0, 1, 0, 2),
        )
        assert B == fixture
        assert B.labels[0] == "E1"
        assert B.labels[1:] == Y.labels

    def test_second_exceptional_label(self):
        B = blowup(simplex(3), (0, 1))
        B2 = blowup(B, (2, 3))
        assert B2.labels[0] == "E2"

    def test_vertex_blowup_of_triangle(self):
        B = blowup(simplex(2), (0, 1))
        assert B.n_facets == 4 and len(B.vertices) == 4 and B.is_smooth()

    def test_explicit_eps(self):
        B = blowup(simplex(2), (0, 1), eps=Fr(1, 3))
        assert B.support[0] == Fr(-1, 3)

    def test_eps_bounds(self):
        with pytest.raises(PolytopeError, match="eps"):
            blowup(simplex(2), (0, 1), eps=1)
        with pytest.raises(PolytopeError, match="eps"):
            blowup(simplex(2), (0, 1), eps=0)

    def test_empty_face_rejected(self):
        box = product(simplex(1), simplex(1))
        with pytest.raises(PolytopeError, match="meet"):
            blowup(box, (0, 1))

    def test_codimension_must_match(self):
        # facets 0 and 1 of a segment-blowup meet in a face also on facet 2
        with pytest.raises(PolytopeError):
            blowup(simplex(2), (0,))

    def test_noncanonical_face_rejected(self):
        # in dimension 3 two facets meeting along an edge are fine, but a
        # pair whose intersection is only a vertex is not a codim-2 face
        s = simplex(3)
        B = blowup(s, (0, 1))  # along a genuine edge
        assert B.n_facets == 5


# ---------------------------------------------------------------------------
# blowdowns


def ambiguous_example(lam):
    return HPolytope(
        3,
        ((0, 0, 1), (0, 0, -1), (0, -1, 0), (0, 1, 1), (-1, 0, 0), (1, 0, 1)),
        (1, 0, 0, Fr(lam), 0, 2),
    )


class TestBlowdown:
    def test_round_trip_worked_example(self):
        Y = yk(3, (-1, -1, 0), (0, 0, 0, 1, 0, 2))
        B = blowup(Y, (1, 3, 4))
        rep = blowdown(B, 0)
        assert rep.ok
        assert rep.polytope == Y
        assert rep.index_set == (2, 4, 5)
        assert rep.epsilon == Fr(1, 2)
        assert rep.alternatives == ()

    def test_ok_blowdown_builds_only_the_relaxed_polytope(self, builds):
        B = blowup(yk(3, (-1, -1, 0), (0, 0, 0, 1, 0, 2)), (1, 3, 4))
        builds.clear()
        rep = blowdown(B, 0)
        assert rep.ok and builds == [rep.polytope]

    def test_round_trip_simplex_edge(self):
        s = simplex(3)
        B = blowup(s, (1, 2), eps=Fr(1, 4))
        rep = blowdown(B, 0)
        assert rep.ok and rep.polytope == s and rep.epsilon == Fr(1, 4)
        assert rep.index_set == (2, 3)

    def test_depth_depends_on_cut(self):
        rep = blowdown(ambiguous_example(3), 0)
        assert rep.ok and rep.index_set == (4, 5) and rep.alternatives == ()
        rep = blowdown(ambiguous_example(Fr(3, 2)), 0)
        assert rep.ok and rep.index_set == (2, 3) and rep.alternatives == ()

    def test_borderline_cut_fails(self):
        rep = blowdown(ambiguous_example(2), 0)
        assert not rep.ok
        assert rep.failed_condition == "face pattern"
        assert rep.detail == (
            "relaxing facet F1 fails: vertex (Fraction(0, 1), Fraction(0, 1), "
            "Fraction(2, 1)) lies on 4 facets"
        )
        assert rep.polytope is None

    def test_equivalent_facets_never_blow_down(self):
        Y = yk(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        # every facet sits in a two-element equivalence class here
        for i in range(Y.n_facets):
            rep = blowdown(Y, i)
            assert not rep.ok and rep.failed_condition == "conormal sum"
            assert rep.detail == (
                f"no fiber set of facet {Y.labels[i]} has conormals summing to its conormal"
            )

    def test_box_facet_fails_conormal_sum(self):
        box = product(simplex(1), simplex(1))
        rep = blowdown(box, 0)
        assert not rep.ok and rep.failed_condition == "conormal sum"
        assert rep.detail == "no fiber set of facet F1 has conormals summing to its conormal"

    def test_simplex_facet_fails(self):
        rep = blowdown(simplex(3), 0)
        assert not rep.ok and rep.failed_condition == "conormal sum"
        assert rep.detail == "no fiber set of facet F1 has conormals summing to its conormal"

    def test_polygon_blowdown_to_trapezoid(self):
        p = _corner_cut_polygon(5)
        rep = blowdown(p, p.label_index("e5"))
        assert rep.ok and rep.polytope.n_facets == 4
        # e5 = e4 + e1, so the reattached corner is between those edges
        labels = {rep.polytope.labels[i - 1 if i > p.label_index("e5") else i]
                  for i in rep.index_set}
        assert labels == {"e1", "e4"}

    def test_all_candidates_escape(self):
        # a roof ridge (F2, F3) between the end walls F4 and F5, cut flat by
        # F1: both pairs are fiber sets of F1, but only F4 + F5 sums to its
        # conormal (F2 + F3 is twice it), and the ridge's ends that the drop
        # restores lie on F2 and F3, not on both F4 and F5
        P = HPolytope(
            3,
            ((0, 0, 1), (1, 0, 1), (-1, 0, 1), (0, 1, 0), (0, -1, 1), (1, 0, 0), (-1, 0, 0), (0, 0, -1)),
            (3, 4, 4, 2, 4, 2, 2, 0),
        )
        assert P.is_smooth()
        assert _facet_fiber_structure(P, 0, (1, 2)) and _facet_fiber_structure(P, 0, (3, 4))
        rep = blowdown(P, 0)
        assert not rep.ok and rep.failed_condition == "face pattern"
        assert rep.detail == (
            "new vertex (Fraction(0, 1), Fraction(0, 1), Fraction(4, 1)) (on F2, F3, F5) "
            "misses the blown-down face"
        )

    def test_report_is_dataclass_outcome(self):
        rep = blowdown(simplex(2), 0)
        assert isinstance(rep, BlowdownReport) and not rep.ok
        assert rep.failed_condition in {"bundle structure", "conormal sum", "face pattern"}


class TestFiberStructure:
    @staticmethod
    def cases():
        """Every (polytope, facet, neighbor set of size 2..n) of the suite
        polytopes and of one blowup of each, along a face of codimension
        max(2, n - 1) through its first vertex."""
        for sp in suite_polytopes():
            n = sp.poly.dim
            blown = blowup(sp.poly, sorted(sp.poly.vertices[0].basis)[: max(2, n - 1)])
            for poly in (sp.poly, blown):
                for e in range(poly.n_facets):
                    neigh = [j for j in range(poly.n_facets) if j != e and poly.face({j, e}) is not None]
                    for size in range(2, n + 1):
                        for I in itertools.combinations(neigh, size):
                            yield poly, e, I

    def test_matches_four_condition_reference(self):
        fibered = 0
        for poly, e, I in self.cases():
            verdict = facet_fiber_structure(poly, e, I)
            assert _facet_fiber_structure(poly, e, I) == verdict, (poly.name, e, I)
            fibered += verdict
        assert fibered > 0

    def test_proportionality_decides_some_sets(self):
        assert any(
            per_vertex(poly, e, I) and not facet_fiber_structure(poly, e, I) for poly, e, I in self.cases()
        )


# ---------------------------------------------------------------------------
# area polynomial and minimal families


class TestAreaPolynomial:
    def test_triangle_area(self):
        P = area_polynomial(simplex(2))
        for point in [(0, 0, 1), (1, 2, 3), (Fr(1, 2), 0, Fr(5, 2))]:
            assert P.eval(point) == sum(point, Fr(0)) ** 2 / 2

    def test_needs_dimension_two(self):
        with pytest.raises(PolytopeError):
            area_polynomial(simplex(3))

    def test_corner_cut_slice_formula(self):
        for k in (4, 5, 6):
            P = area_polynomial(_corner_cut_polygon(k))
            samples = [
                tuple(Fr(((j * 7 + i * 3) % 11) + 1, 2) for j in range(k - 2))
                for i in range(4)
            ]
            for tail in samples:
                c = (Fr(0), Fr(0)) + tail
                rhs = c[2] ** 2 / 2
                rhs -= sum((c[j - 2] - c[j - 1]) ** 2 for j in range(4, k + 1)) / 2
                assert P.eval(c) == rhs

    def test_twist_ratio_root(self):
        for k in (4, 5, 6, 7):
            P = area_polynomial(_corner_cut_polygon(k))
            r = (Fr(0), Fr(0)) + (Fr(1),) * (k - 3) + (Fr(2),)
            assert P.eval(r) == 0


class TestMinimalFamilies:
    def test_corner_cut_polygon_shape(self):
        p = _corner_cut_polygon(6)
        assert p.conormals == ((-1, 0), (0, -1), (1, 1), (0, 1), (-1, 1), (-2, 1))
        assert p.labels == ("e1", "e2", "e3", "e4", "e5", "e6")
        assert p.is_smooth() and len(p.vertices) == 6

    def test_corner_cut_polygon_builds_once_per_cut(self, builds):
        for k in (4, 5, 7):
            builds.clear()
            p = _corner_cut_polygon(k)
            # the triangle, then one polytope per cut corner
            assert len(builds) == k - 2 and builds[-1] is p

    def test_a3_structure(self):
        A = minimal_family_a3(7)
        assert A.n_facets == 7 and A.dim == 4 and A.is_smooth()
        assert len(A.vertices) == 3 * 4
        assert A.conormals[:3] == ((-1, 0, 0, 0), (0, -1, 0, 0), (1, 1, 0, 0))
        # twists are 0, 0, 1, 2 along the direction (1, -1)
        assert [eta[:2] for eta in A.conormals[3:]] == [
            (0, 0), (0, 0), (1, -1), (2, -2)
        ]

    def test_a3_essential_functional(self):
        A = minimal_family_a3(7)
        H = (-3, -3, 0, 0)
        rep = mass_linear_test(A, H)
        assert rep.verdict
        assert rep.gamma == vec((1, 1, -2, 0, 0, 0, 0))
        assert is_inessential(A, H) is None

    def test_a3_larger_sizes(self):
        for N in (8, 9):
            A = minimal_family_a3(N)
            assert A.n_facets == N and A.is_smooth()
            assert mass_linear_test(A, (-3, -3, 0, 0)).verdict

    def test_a3_minimal(self):
        A = minimal_family_a3(7)
        assert all(not blowdown(A, i).ok for i in range(A.n_facets))

    def test_a3_needs_seven(self):
        with pytest.raises(PolytopeError):
            minimal_family_a3(6)

    def test_b_structure(self):
        for N in (5, 6, 8):
            B = minimal_family_b(N)
            assert B.n_facets == N and B.dim == 4 and B.is_smooth()
            assert B.labels[-4:] == ("B1", "B2", "B3", "B4")

    def test_b_inessential_functional(self):
        for N in (5, 6, 8):
            B = minimal_family_b(N)
            idx = [B.label_index(f"B{i}") for i in (1, 2, 3, 4)]
            H = tuple(
                B.conormals[idx[0]][j]
                - B.conormals[idx[1]][j]
                + B.conormals[idx[2]][j]
                - B.conormals[idx[3]][j]
                for j in range(4)
            )
            rep = mass_linear_test(B, H)
            assert rep.verdict
            assert is_inessential(B, H) is not None
            assert rep.asymmetric == frozenset(idx)

    def test_b_base_type_classes(self):
        # the two expanded edges are equivalent in the triangle core (all
        # triangle edges are), so for N=5 every base-type facet lands in one
        # class; for larger cores the expanded edges are inequivalent and
        # the class splits into the two expansion pairs
        B = minimal_family_b(5)
        eq = equivalence_classes(B)
        assert eq.class_of(B.label_index("B1")) == frozenset(range(5))
        for N in (6, 8):
            B = minimal_family_b(N)
            eq = equivalence_classes(B)
            b = [B.label_index(f"B{i}") for i in (1, 2, 3, 4)]
            assert eq.class_of(b[0]) == frozenset({b[0], b[1]})
            assert eq.class_of(b[2]) == frozenset({b[2], b[3]})

    def test_b_minimal(self):
        for N in (5, 6, 8):
            B = minimal_family_b(N)
            assert all(not blowdown(B, i).ok for i in range(B.n_facets))

    def test_b_needs_five(self):
        with pytest.raises(PolytopeError):
            minimal_family_b(4)


# ---------------------------------------------------------------------------
# blowup calculus interactions


class TestBlowupCalculus:
    def test_symmetric_face_blowup_preserves_mass_linearity(self):
        Y = yk(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        H = (0, 2, 2, 0)
        base = mass_linear_test(Y, H)
        assert base.verdict and base.gamma == vec((1, -1, -1, 1, 0, 0))
        B = blowup(Y, (1, 3, 4))
        rep = mass_linear_test(B, H)
        assert rep.verdict
        assert rep.gamma == (Fr(0),) + base.gamma
        assert dot(rep.gamma, B.support) == dot(base.gamma, Y.support)

    def test_blowup_off_asymmetric_facets_destroys_mass_linearity(self):
        Y = yk(3, (1, 2, 3), (0, 0, 0, 1, 0, 4))
        H = (-2, -2, 0, 0)  # gamma (1, 1, -1, -1, 0, 0): all fiber facets asymmetric
        assert mass_linear_test(Y, H).verdict
        # the edge F1 cap F2 misses asymmetric facets F3 and F4
        B = blowup(Y, (0, 1, 2))
        assert not mass_linear_test(B, H).verdict

    def test_exceptional_facet_symmetric(self):
        Y = yk(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        B = blowup(Y, (1, 3, 4))
        sym, asym = symmetric_facets(B, (0, 2, 2, 0))
        assert 0 in sym


_SQUARE = HPolytope(2, ((-1, 0), (0, -1), (1, 0), (0, 1)), (0, 0, 3, 3))
_NON_SMOOTH_TRIANGLE = HPolytope(2, ((-1, 0), (0, -1), (1, 2)), (0, 0, 2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Bundle121Spec((0, 0, 0), 0, (0, 1, 0, 0, 4, 0)), "need 7 support numbers"),
        (lambda: D2PolygonBundleSpec(simplex(3), ((0, 0),) * 4, (0,) * 7), "base must be a polygon"),
        (lambda: D2PolygonBundleSpec(_NON_SMOOTH_TRIANGLE, ((0, 0),) * 3, (0,) * 6), "base polygon must be smooth"),
        (lambda: D2PolygonBundleSpec(_SQUARE, ((0, 0),) * 3, (0, 0, 1, 0, 0, 3, 3)), "need one twist pair per edge"),
        (lambda: D2PolygonBundleSpec(_SQUARE, ((0, 0),) * 4, (0, 0, 1, 0, 0, 3)),
         "need 3 fiber and one support number per edge"),
        # support numbers outside the product chamber: the tower has the
        # product's 12 vertices, one of them of index 2
        (lambda: bundle_121(Bundle121Spec((0, 1, -1), 0, (1, 0, 0, 2, 0, 1, 2))),
         f"121 bundle: vertex {(Fr(0), Fr(3, 2), Fr(-3, 2), Fr(-1))} is not smooth"),
        (lambda: expansion(_SQUARE, 4), "no such facet"),
        (lambda: expansion(_SQUARE, 0, fold=0), "fold must be at least 1"),
        (lambda: blowup(_NON_SMOOTH_TRIANGLE, (0, 1)), "blowup requires a smooth polytope"),
        (lambda: blowup(_SQUARE, (0, 4)), "no such facet"),
        (lambda: blowdown(_NON_SMOOTH_TRIANGLE, 0), "blowdown requires a smooth polytope"),
        (lambda: blowdown(_SQUARE, 4), "no such facet"),
    ],
)
def test_input_checks(call, message):
    with pytest.raises(PolytopeError) as info:
        call()
    assert type(info.value) is PolytopeError and info.value.args == (message,)
