from fractions import Fraction
from itertools import combinations

import pytest

from _linalg_ref import solve_linear
from _suite import suite_polytopes
from masslin import polytope
from masslin.errors import NotSimpleError, PolytopeError
from masslin.linalg import dot, primitive, vec_sub
from masslin.polytope import HPolytope, from_halfspaces_pruned

# --- shared fixtures -------------------------------------------------------


def simplex2(kappa=(0, 0, 1)):
    return HPolytope(2, ((-1, 0), (0, -1), (1, 1)), kappa)


def unit_square():
    return HPolytope(2, ((-1, 0), (1, 0), (0, -1), (0, 1)), (0, 1, 0, 1))


def simplex_bundle_3110(kappa=(0, 0, 0, 1, 0, 2)):
    # 3-simplex bundle over a segment, twist (1,1,0); facets: 4 fiber, 2 base
    conormals = (
        (-1, 0, 0, 0),
        (0, -1, 0, 0),
        (0, 0, -1, 0),
        (1, 1, 1, 0),
        (0, 0, 0, -1),
        (1, 1, 0, 1),
    )
    return HPolytope(4, conormals, kappa)


def square_pyramid():
    conormals = ((0, 0, -1), (1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1))
    return HPolytope(3, conormals, (0, 1, 1, 1, 1))


# --- construction validation ----------------------------------------------


class TestValidation:
    def test_unbounded_rejected(self):
        with pytest.raises(PolytopeError, match="unbounded"):
            HPolytope(2, ((-1, 0), (0, -1), (1, 0)), (0, 0, 1))

    def test_missing_rank_rejected(self):
        with pytest.raises(PolytopeError, match="unbounded"):
            HPolytope(2, ((-1, 0), (1, 0), (-1, 0)), (0, 1, 1))

    def test_empty_rejected(self):
        with pytest.raises(PolytopeError, match="empty"):
            simplex2((0, 0, -1))

    def test_redundant_facet_rejected(self):
        with pytest.raises(PolytopeError, match="redundant|hyperplane"):
            HPolytope(
                2,
                ((-1, 0), (1, 0), (0, -1), (0, 1), (1, 1)),
                (0, 1, 0, 1, 10),
            )

    def test_duplicate_halfspace_rejected(self):
        with pytest.raises(PolytopeError, match="duplicate"):
            HPolytope(2, ((-1, 0), (0, -1), (1, 1), (1, 1)), (0, 0, 1, 1))

    def test_flat_polytope_rejected(self):
        with pytest.raises(PolytopeError):
            HPolytope(2, ((-1, 0), (1, 0), (0, -1), (0, 1)), (0, 0, 0, 1))

    def test_non_primitive_rejected(self):
        with pytest.raises(PolytopeError, match="primitive"):
            HPolytope(2, ((-2, 0), (0, -1), (1, 1)), (0, 0, 1))

    def test_labels_default_and_custom(self):
        p = simplex2()
        assert p.labels == ("F1", "F2", "F3")
        q = HPolytope(2, p.conormals, p.support, ("a", "b", "c"))
        assert q.label_index("b") == 1
        with pytest.raises(PolytopeError, match="unique"):
            HPolytope(2, p.conormals, p.support, ("a", "a", "c"))


class TestErrorText:
    """The exact messages, which the integer scan must keep."""

    @pytest.mark.parametrize(
        "dim, conormals, support, message",
        [
            (
                2,
                ((-1, 0), (0, -1), (1, 0)),
                (0, 0, 1),
                "unbounded: recession direction (Fraction(0, 1), Fraction(1, 1))",
            ),
            (
                3,
                ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)),
                (1, 1, 1, 0),
                "unbounded: recession direction "
                "(Fraction(0, 1), Fraction(0, 1), Fraction(-1, 1))",
            ),
            (1, ((1,), (1,)), (0, 1), "unbounded: recession direction (Fraction(-1, 1),)"),
            (
                2,
                ((-1, 0), (1, 0), (-1, 0)),
                (0, 1, 1),
                "unbounded: conormals do not span the ambient space",
            ),
            (
                2,
                ((-1, 0), (1, 0), (0, -1), (0, 1)),
                (0, 0, 0, 1),
                "polytope is not full-dimensional",
            ),
            (
                2,
                ((-1, 0), (1, 0), (0, -1), (0, 1), (1, 1)),
                (0, 1, 0, 1, 10),
                "facet F5 is redundant (empty)",
            ),
            (
                2,
                ((-1, 0), (1, 0), (0, -1), (0, 1), (1, 1)),
                (0, 1, 0, 1, 2),
                "facet F5 does not span a hyperplane (redundant half-space)",
            ),
            (2, ((-1, 0), (0, -1), (1, 1)), (0, 0, -1), "empty polytope"),
        ],
    )
    def test_message(self, dim, conormals, support, message):
        with pytest.raises(PolytopeError) as exc:
            HPolytope(dim, conormals, support)
        assert str(exc.value) == message

    def test_non_simple_point_and_active(self):
        with pytest.raises(NotSimpleError) as exc:
            square_pyramid().vertices
        point = (Fraction(0), Fraction(0), Fraction(1))
        assert exc.value.point == point
        assert exc.value.active == frozenset({1, 2, 3, 4})
        assert str(exc.value) == f"vertex {point} lies on 4 facets"


# --- vertices ---------------------------------------------------------------


class TestVertices:
    def test_simplex(self):
        pts = {v.point for v in simplex2().vertices}
        z, o = Fraction(0), Fraction(1)
        assert pts == {(z, z), (o, z), (z, o)}

    def test_square(self):
        assert len(unit_square().vertices) == 4

    def test_bundle_has_8(self):
        assert len(simplex_bundle_3110().vertices) == 8

    def test_vertex_active_sets(self):
        for v in simplex2().vertices:
            assert len(v.basis) == 2
            for i in v.basis:
                p = simplex2()
                assert dot(p.conormals[i], v.point) == p.support[i]

    def test_non_simple_detected(self):
        p = square_pyramid()
        assert not p.is_simple()
        with pytest.raises(NotSimpleError):
            p.vertices


def rational_basic_points(p: HPolytope) -> dict:
    """The basic-point scan in rational arithmetic: each n-subset solved
    by ``solve_linear``, first feasible subset first."""
    points = {}
    for J in combinations(range(p.n_facets), p.dim):
        sol = solve_linear([p.conormals[j] for j in J], [p.support[j] for j in J])
        if sol is None or sol.nullspace or sol.solution in points:
            continue
        slacks = [k - dot(eta, sol.solution) for eta, k in zip(p.conormals, p.support)]
        if min(slacks) >= 0:
            points[sol.solution] = frozenset(i for i, s in enumerate(slacks) if s == 0)
    return points


def test_integer_scan_matches_rational_scan_on_suite():
    for sp in suite_polytopes():
        expected = rational_basic_points(sp.poly)
        assert list(sp.poly._basic.items()) == list(expected.items()), sp.name


# --- smoothness -------------------------------------------------------------


class TestSmooth:
    def test_standard_simplices(self):
        assert simplex2().is_smooth()
        s3 = HPolytope(3, ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 1)), (0, 0, 0, 1))
        assert s3.is_smooth()

    def test_determinant_two_polygon(self):
        p = HPolytope(2, ((-1, 0), (0, -1), (1, 2)), (0, 0, 1))
        assert not p.is_smooth()

    def test_bundle_smooth(self):
        assert simplex_bundle_3110().is_smooth()

    def test_pyramid_not_smooth(self):
        assert not square_pyramid().is_smooth()

    def test_smoothness_is_decided_once(self, monkeypatch):
        # the answer is memoized on the polytope: a second call takes no
        # determinant
        p = simplex_bundle_3110()
        dets = []
        plain_det = polytope.int_det

        def counting_det(A):
            dets.append(A)
            return plain_det(A)

        monkeypatch.setattr(polytope, "int_det", counting_det)
        assert p.is_smooth()
        assert len(dets) == len(p.vertices)
        dets.clear()
        assert p.is_smooth()
        assert dets == []

    def test_edge_directions_dual_to_conormal_basis(self):
        p = simplex_bundle_3110()
        verts = p.vertices
        for f in p.faces_of_dimension(1):
            a, b = (verts[i] for i in f.vertex_ids)
            d = primitive(
                tuple(x.numerator for x in vec_sub(b.point, a.point))
                if all(x.denominator == 1 for x in vec_sub(b.point, a.point))
                else None
            )
            off_edge = [j for j in a.basis if j not in f.index_set]
            assert len(off_edge) == 1
            assert abs(dot(p.conormals[off_edge[0]], d)) == 1
            for j in a.basis:
                if j != off_edge[0]:
                    assert dot(p.conormals[j], d) == 0


# --- face lattice -----------------------------------------------------------


class TestFaces:
    def test_simplex_counts(self):
        fl = simplex2().face_lattice
        by_dim = {}
        for f in fl.values():
            by_dim[f.dimension] = by_dim.get(f.dimension, 0) + 1
        assert by_dim == {0: 3, 1: 3, 2: 1}

    def test_all_fiber_facets_empty(self):
        # the four fiber facets of the bundle cannot all meet
        assert simplex_bundle_3110().face({0, 1, 2, 3}) is None

    def test_blowup_edge_nonempty(self):
        f = simplex_bundle_3110().face({1, 3, 4})
        assert f is not None
        assert f.dimension == 1

    def test_canonical_index_is_maximal(self):
        p = unit_square()
        f = p.face({0})
        assert f.index_set == frozenset({0})
        v = p.face({0, 2})
        assert v.dimension == 0
        assert v.index_set == frozenset({0, 2})

    def test_euler_relation(self):
        for p in (simplex2(), unit_square(), simplex_bundle_3110()):
            total = 0
            for f in p.face_lattice.values():
                total += (-1) ** f.dimension
            assert total == 1


# --- chamber ----------------------------------------------------------------


class TestChamber:
    def test_reflexive(self):
        p = simplex_bundle_3110()
        assert p.in_same_chamber(p.support)

    def test_empty_outside(self):
        assert not simplex2().in_same_chamber((0, 0, -1))

    def test_bundle_chamber_inequalities(self):
        p = simplex_bundle_3110()
        # lambda = k1+..+k4, h = k1+k2+k5+k6 must exceed max(0,a)*lambda
        assert p.in_same_chamber((0, 0, 0, Fraction(1, 2), 0, 2))
        assert not p.in_same_chamber((0, 0, 0, 1, 0, Fraction(1, 2)))

    def test_radius_box_stays_inside(self):
        for p in (simplex2(), unit_square(), simplex_bundle_3110()):
            deltas = p.chamber_radius()
            assert all(d > 0 for d in deltas)
            for i, d in enumerate(deltas):
                for sgn in (1, -1):
                    kappa = list(p.support)
                    kappa[i] += sgn * d
                    assert p.in_same_chamber(kappa)

    def test_requires_smooth(self):
        with pytest.raises(PolytopeError):
            square_pyramid().chamber_radius()


# --- transforms -------------------------------------------------------------


class TestTransforms:
    def test_translate_formula(self):
        q = simplex2().translate((1, 1))
        assert q.support == (Fraction(-1), Fraction(-1), Fraction(3))

    def test_translate_zero(self):
        p = simplex2()
        assert p.translate((0, 0)) == p

    def test_translate_moves_vertices(self):
        p, q = simplex2(), simplex2().translate((1, 1))
        moved = {tuple(x + 1 for x in v.point) for v in p.vertices}
        assert moved == {v.point for v in q.vertices}

    def test_lattice_map_preserves_smoothness(self):
        p = simplex2().apply_lattice_map(((1, 1), (0, 1)))
        assert p.is_smooth()
        with pytest.raises(PolytopeError, match="unimodular"):
            simplex2().apply_lattice_map(((2, 0), (0, 1)))

    def test_permute_and_match(self):
        p = simplex2()
        q = p.permute_facets((2, 0, 1))
        assert q.conormals[0] == (1, 1)
        perm = p.facet_matching(q)
        assert perm == (1, 2, 0)

    def test_pruned_constructor(self):
        poly, kept = from_halfspaces_pruned(
            2,
            ((-1, 0), (1, 0), (0, -1), (0, 1), (1, 1)),
            (0, 1, 0, 1, 10),
        )
        assert kept == [0, 1, 2, 3]
        assert poly == unit_square()
