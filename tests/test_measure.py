"""Volume, moment, face measure and skeleton barycenter tests.

Oracles: over the dilated standard simplex {x >= 0, sum x <= lam} the
monomial integral has the closed form prod(e_j!) lam^(|e|+n) / (|e|+n)!.
For a one-twist simplex bundle (fiber an n-1 simplex of size lam, fiber
height h - <a, x> above x) the volume and first moments are explicit
polynomials in (lam, h), derived by integrating the height against the
monomial formula.
"""

import os
import subprocess
import sys
import textwrap
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

import masslin
from masslin import measure
from masslin.cli import check_document, classify_document
from masslin.constructions import blowup
from masslin.errors import PolytopeError, StructuralInconsistency
from masslin.linalg import dot, vec, vec_sub
from masslin.masslinear import _face_slice, direction_lattice_basis, mass_linear_test, restrict_to_face
from masslin.measure import (
    _skeleton_coord_polys,
    cached_moment_poly,
    center_of_mass,
    integrate_monomial,
    moment_poly,
    skeleton_barycenter,
    skeleton_measure_polys,
    volume,
    volume_poly,
)
from masslin.polytope import HPolytope

import _polytope_ref
import _slice_ref
from _face_ref import face_measure, face_measure_polys, face_polys
from _linalg_ref import det
from _suite import moved_copies, suite_pairs, suite_polytopes
from _triangulation_ref import triangulate, triangulated_integral

F = Fraction


def _factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def simplex(n, lam=1):
    conormals = [tuple(-1 if i == j else 0 for i in range(n)) for j in range(n)]
    conormals.append((1,) * n)
    return HPolytope(n, conormals, [0] * n + [lam])


def square(a=1, b=None):
    if b is None:
        b = a
    return HPolytope(2, [(-1, 0), (1, 0), (0, -1), (0, 1)], [0, a, 0, b])


def bundle(k, a, kappa):
    """Simplex bundle: fiber simplex in the first k+1 facets, two more
    facets closing off the last coordinate, twisted by the integer vector a."""
    n = k + 1
    conormals = [tuple(-1 if i == j else 0 for i in range(n)) for j in range(k)]
    conormals.append((1,) * k + (0,))
    conormals.append(tuple(0 if i < k else -1 for i in range(n)))
    conormals.append(tuple(a) + (1,))
    return HPolytope(n, conormals, kappa)


def bundle_volume_formula(k, a, lam, h):
    return F((k + 1) * h * lam**k - sum(a) * lam ** (k + 1), _factorial(k + 1))


def bundle_moment_formula(k, a, j, lam, h):
    """Integral of x_j (j < k) against the fiber height."""
    return F(
        (k + 2) * h * lam ** (k + 1) - (a[j] + sum(a)) * lam ** (k + 2),
        _factorial(k + 2),
    )


class TestTriangulate:
    def test_simplex_is_one_simplex(self):
        for n in (1, 2, 3, 4):
            tri = triangulate(simplex(n))
            assert len(tri.simplices) == 1
            assert len(tri.simplices[0]) == n + 1
            assert tri.signs[0] in (1, -1)

    def test_square_splits_in_two(self):
        tri = triangulate(square())
        assert len(tri.simplices) == 2

    def test_simplices_partition_volume(self):
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        tri = triangulate(poly)
        verts = poly.vertices
        total = F(0)
        for s in tri.simplices:
            base = verts[s[0]].point
            M = [vec_sub(verts[i].point, base) for i in s[1:]]
            total += abs(det(M))
        assert total / _factorial(poly.dim) == volume(poly)

    def test_deterministic(self):
        a = triangulate(square(2, 3))
        b = triangulate(square(2, 3))
        assert a.simplices == b.simplices


class TestVolume:
    def test_interval_poly(self):
        vp = volume_poly(HPolytope(1, [(-1,), (1,)], [0, 1]))
        assert dict(vp.terms) == {(1, 0): F(1), (0, 1): F(1)}

    def test_simplex_volumes(self):
        for n in (1, 2, 3, 4):
            for lam in (1, 2, F(3, 2)):
                assert volume(simplex(n, lam)) == F(lam) ** n / _factorial(n)

    def test_bundle_volume(self):
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        assert volume(poly) == F(1, 4)
        assert volume(poly) == bundle_volume_formula(3, (1, 1, 0), 1, 2)

    def test_bundle_volume_grid(self):
        k, a = 2, (1, 2)
        for lam in (1, 2):
            for h in (5, 7):
                poly = bundle(k, a, (0, 0, lam, 0, h))
                assert volume(poly) == bundle_volume_formula(k, a, lam, h)

    def test_volume_poly_valid_across_chamber(self):
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        vp = volume_poly(poly)
        kappa2 = (0, 0, 0, 1, 0, 3)
        assert _polytope_ref.same_chamber(poly, kappa2)
        assert vp.eval(kappa2) == F(5, 12)
        assert vp.eval(kappa2) == volume(poly.with_support(kappa2))

    def test_homogeneity_degrees(self):
        poly = square(2, 3)
        assert volume_poly(poly).degree() == 2
        mp = moment_poly(poly, (1, 1))
        assert all(sum(m) == 3 for m, _ in mp.terms)

    def test_scaling(self):
        poly = simplex(3)
        vp = volume_poly(poly)
        doubled = tuple(2 * F(c) for c in poly.support)
        assert vp.eval(doubled) == 2**3 * vp.eval(poly.support)


class TestMonomialOracle:
    def _exponent_grid(self, n, total):
        if n == 0:
            yield ()
            return
        for head in range(total + 1):
            for rest in self._exponent_grid(n - 1, total - head):
                yield (head,) + rest

    def test_simplex_monomials_closed_form(self):
        for n in (1, 2, 3, 4):
            for lam in (1, 2, F(3, 2)):
                poly = simplex(n, lam)
                for exps in self._exponent_grid(n, 4):
                    got = integrate_monomial(poly, exps)
                    tot = sum(exps)
                    expect = F(lam) ** (tot + n) / _factorial(tot + n)
                    for e in exps:
                        expect *= _factorial(e)
                    assert got == expect, (n, lam, exps)

    def test_box_monomials(self):
        poly = square(2, 1)
        assert integrate_monomial(poly, (0, 0)) == 2
        assert integrate_monomial(poly, (1, 1)) == 1
        assert integrate_monomial(poly, (2, 1)) == F(4, 3)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            integrate_monomial(square(), (1,))
        with pytest.raises(ValueError):
            integrate_monomial(square(), (1, -1))
        # only a nonnegative int is an exponent, not an integral float,
        # a Fraction, a string or a bool
        for exps in ((1.5, 0), (2.0, 0), (F(1), 0), ("1", 0), (True, 0)):
            with pytest.raises(ValueError, match="need one nonnegative exponent per coordinate"):
                integrate_monomial(square(), exps)


class TestMoments:
    def test_simplex_center(self):
        assert center_of_mass(simplex(2)) == (F(1, 3), F(1, 3))
        assert center_of_mass(simplex(3, 2)) == (F(1, 2), F(1, 2), F(1, 2))

    def test_square_center(self):
        assert center_of_mass(square()) == (F(1, 2), F(1, 2))

    def test_bundle_center_formula(self):
        poly = bundle(2, (1, 2), (0, 0, 1, 0, 5))
        V = volume(poly)
        assert V == 2
        c = center_of_mass(poly)
        assert c[0] == F(1, 3)
        assert c[1] == F(5, 16)
        for j in range(2):
            mu = bundle_moment_formula(2, (1, 2), j, 1, 5)
            assert c[j] == mu / V
        exps = [0, 0, 1]
        assert c[2] == integrate_monomial(poly, exps) / V

    def test_moment_poly_matches_monomials(self):
        # the triangulation reference is an independent oracle: it
        # integrates over triangulate's simplices with barycentric formulas
        blown_up = blowup(bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)), (0, 2, 3))
        for poly, H in (
            (bundle(2, (1, 2), (0, 0, 1, 0, 5)), (1, 2, 3)),
            (blown_up, (3, -1, 2, 5)),
        ):
            n = poly.dim
            mp = moment_poly(poly, H)
            direct = sum(
                F(H[j]) * triangulated_integral(poly, tuple(1 if i == j else 0 for i in range(n)))
                for j in range(n)
            )
            assert mp.eval(poly.support) == direct

    def test_wrong_length_functional_rejected(self):
        poly = square()
        for H in ((1,), (1, 0, 0)):
            with pytest.raises(ValueError):
                moment_poly(poly, H)
            with pytest.raises(ValueError):
                cached_moment_poly(poly, H)

    def test_twisted_center_pairing(self):
        # fiber-direction functional whose center pairing has an explicit
        # closed form: lam^2 sum(gamma_i a_i) / ((k+2)(h(k+1) - lam sum(a)))
        k, a = 3, (1, 1, 0)
        poly = bundle(k, a, (0, 0, 0, 1, 0, 2))
        gamma = (1, 0, -1, 0)
        H = vec((-1, 0, 1, 0))  # sum of gamma_i times the fiber conormals
        lam, h = 1, 2
        expect = F(lam**2 * sum(g * ai for g, ai in zip(gamma, a + (0,))),
                   (k + 2) * (h * (k + 1) - lam * sum(a)))
        assert expect == F(1, 30)
        assert dot(H, center_of_mass(poly)) == expect


class TestFaceMeasure:
    def test_hypotenuse_lattice_length(self):
        poly = simplex(2, 2)
        face = poly.face(frozenset({2}))
        m, mom = face_measure(poly, face)
        assert m == 2
        assert tuple(x / m for x in mom) == (1, 1)

    def test_axis_edge(self):
        poly = simplex(2, 2)
        face = poly.face(frozenset({0}))
        m, mom = face_measure(poly, face)
        assert m == 2
        assert mom == (0, 2)

    def test_vertex_measure_is_one(self):
        poly = square()
        for face in poly.faces_of_dimension(0):
            m, mom = face_measure(poly, face)
            assert m == 1
            assert mom == poly.vertices[face.vertex_ids[0]].point

    def test_whole_face_is_volume(self):
        poly = bundle(2, (1, 2), (0, 0, 1, 0, 5))
        whole = poly.face_lattice[frozenset()]
        m, mom = face_measure(poly, whole)
        assert m == volume(poly)
        assert tuple(x / m for x in mom) == center_of_mass(poly)

    def test_bundle_vertical_edge_lengths(self):
        # edges in the last coordinate direction sit over the fiber
        # vertices; their lattice lengths are h and h - a_i lam
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        e_last = (0, 0, 0, 1)
        lengths = []
        for face in poly.faces_of_dimension(1):
            basis = direction_lattice_basis(poly, face)
            d = basis[0]
            if d == e_last or tuple(-x for x in d) == e_last:
                m, _ = face_measure(poly, face)
                lengths.append(m)
        assert sorted(lengths) == [1, 1, 2, 2]

    def test_face_measure_poly_matches_numeric(self):
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        H = (2, -1, 0, 1)
        for face in poly.faces_of_dimension(2):
            mpoly, hpoly = face_measure_polys(poly, face, H)
            m, mom = face_measure(poly, face)
            assert mpoly.eval(poly.support) == m
            assert hpoly.eval(poly.support) == dot(H, mom)


class TestSkeletons:
    def test_square_barycenters_agree(self):
        poly = square()
        for k in (0, 1, 2):
            assert skeleton_barycenter(poly, k) == (F(1, 2), F(1, 2))

    def test_simplex_barycenters_agree(self):
        poly = simplex(2)
        for k in (0, 1, 2):
            assert skeleton_barycenter(poly, k) == (F(1, 3), F(1, 3))

    def test_trapezoid_barycenters_distinct(self):
        poly = bundle(1, (1,), (0, 1, 0, 2))
        b0 = skeleton_barycenter(poly, 0)
        b1 = skeleton_barycenter(poly, 1)
        b2 = skeleton_barycenter(poly, 2)
        assert b0 == (F(1, 2), F(3, 4))
        assert b1 == (F(2, 5), F(4, 5))
        assert b2 == (F(4, 9), F(7, 9))
        assert len({b0, b1, b2}) == 3

    def test_skeleton_polys_match_numeric(self):
        poly = bundle(1, (1,), (0, 1, 0, 2))
        H = (1, 1)
        for k in (0, 1, 2):
            mp, momp = skeleton_measure_polys(poly, k, H)
            total_m = F(0)
            total_h = F(0)
            for face in poly.faces_of_dimension(k):
                m, mom = face_measure(poly, face)
                total_m += m
                total_h += dot(H, mom)
            assert mp.eval(poly.support) == total_m
            assert momp.eval(poly.support) == total_h

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            skeleton_barycenter(square(), 3)

    def test_wrong_length_functional_rejected(self):
        for k in (0, 1, 2):
            for H in ((1,), (1, 0, 0)):
                with pytest.raises(ValueError):
                    skeleton_measure_polys(square(), k, H)

    def test_rejects_bad_dimensions(self):
        # only an int in 0..n is a skeleton dimension, not an integral
        # float, a Fraction, a string or a bool, also once the int's
        # barycenter is memoized
        poly = square()
        skeleton_barycenter(poly, 1)
        for k in (1.5, 1.0, F(1), "1", True, -1, 3):
            with pytest.raises(ValueError, match="skeleton dimension out of range"):
                skeleton_barycenter(poly, k)
            with pytest.raises(ValueError, match="skeleton dimension out of range"):
                skeleton_measure_polys(poly, k, (1, 0))


class TestBaseValues:
    def test_slice_values_match_skeleton_polys(self):
        # skeleton barycenters and the volume are read off the vertex pass
        # at the base kappa; the reference evaluates the polynomials in all
        # N variables there.  The volume and moments on the slice, at the
        # polytope moved by -v0, move back by v0
        polys = [sp.poly for sp in suite_polytopes()]
        polys += [HPolytope(2, *NON_SMOOTH_TRIANGLE), HPolytope(3, *NON_SMOOTH_TETRAHEDRON)]
        for poly in polys:
            base = poly.support
            moved = measure._slice(poly)[1]
            v0 = poly.vertices[0].point
            for k in range(poly.dim + 1):
                measure_k, coords = _skeleton_coord_polys(poly, k)
                total = measure_k.eval(base)
                moments = tuple(c.eval(base) for c in coords)
                assert skeleton_barycenter(poly, k) == tuple(m / total for m in moments)
            assert volume(poly) == total
            D, slice_measure, slice_coords = measure._slice_coord_polys(poly)
            assert slice_measure.eval(moved) / D == total
            assert tuple(c.eval(moved) / D + x * total for c, x in zip(slice_coords, v0)) == moments

    def test_slice_polys_have_integer_coefficients(self):
        # the slice pass and the vertex pass hand their readers integers
        # over one positive denominator
        polys = [sp.poly for sp in suite_polytopes()]
        polys += [HPolytope(2, *NON_SMOOTH_TRIANGLE), HPolytope(3, *DET3_TETRAHEDRON)]
        for poly in polys:
            D, slice_measure, slice_coords = measure._slice_coord_polys(poly)
            assert type(D) is int and D > 0
            for p in (slice_measure, *slice_coords):
                assert all(type(c) is int for _, c in p.terms)
            for s in range(poly.dim + 1):
                at = measure._base_values(poly, s)
                assert type(at.den) is int and at.den > 0
                assert all(type(x) is int for x in (at.measure, *at.moments, *(y for f in at.facets for y in f)))


class TestSliceValuesOracle:
    """``_base_values`` reads the k-skeleton measure and moments at the
    base kappa, and at k = n - 1 every facet's first partials there, off
    one closed-form vertex pass, as integers over one denominator; the
    reference ``_slice_ref.base_values`` evaluates the polynomials of
    ``_slice_ref.lawrence_skeleton``, which integrates each k on its own,
    with ``MultiPoly.eval`` and ``partial``.  Every value must be equal,
    also on non-smooth polytopes, whose faces take indices g_S != 1; so
    must the slice point, which the slice pass reads."""

    @staticmethod
    def _assert_matches(poly):
        assert measure._slice(poly) == _slice_ref.slice_point(poly)
        for s in range(poly.dim + 1):
            at = measure._base_values(poly, s)
            got = (F(at.measure, at.den), tuple(F(m, at.den) for m in at.moments),
                   tuple(tuple(F(x, at.den) for x in f) for f in at.facets))
            assert got == _slice_ref.base_values(poly, s), s

    def test_suite(self):
        for sp in suite_polytopes():
            self._assert_matches(sp.poly)

    def test_non_smooth(self):
        for n, data in ((2, NON_SMOOTH_TRIANGLE), (3, NON_SMOOTH_TETRAHEDRON), (3, DET3_TETRAHEDRON)):
            self._assert_matches(HPolytope(n, *data))

    def test_moved_suite(self):
        for sp in suite_polytopes():
            for moved in moved_copies(sp.poly):
                self._assert_matches(moved)


def _non_smooth_fixtures():
    """Fresh builds of the seven non-smooth fixtures, each also with its
    facets reversed."""
    polys = []
    for n, data in ((2, NON_SMOOTH_TRIANGLE), (3, NON_SMOOTH_TETRAHEDRON), (2, DET3_TRIANGLE),
                    (3, DET3_TETRAHEDRON), (4, INDEX2_SIMPLEX4), (3, NON_SMOOTH_PRISM),
                    (4, NON_SMOOTH_TRIANGLE_SQUARE)):
        poly = HPolytope(n, *data)
        polys += [poly, poly.permute_facets(tuple(reversed(range(poly.n_facets))))]
    return polys


class TestDerivedSkeletaOracle:
    """The skeleton polynomials in all N variables are face sums of
    partials of the k = n ones, g_S d_S V and g_S d_S m_c over the k-faces
    F_S (``measure._skeleton_coord_polys``), and the base values are
    partials of the vertex terms at the base kappa
    (``measure._base_values``).  The reference
    ``_slice_ref.lawrence_skeleton`` integrates each k on its own, by
    Lawrence's formula over the k-subsets of the edges at every vertex
    with their lattice indices.  They must be equal at every k, as must
    the volume and moments on the slice at k = n; the last test breaks
    the face indices and checks that the reference tells at every
    dimension where a face has g_S != 1."""

    @staticmethod
    def _mismatches(poly):
        n = poly.dim
        B = measure._slice(poly)[0]
        D, vol, coords = measure._slice_coord_polys(poly)
        found = [] if (vol / D, tuple(c / D for c in coords)) == _slice_ref.lawrence_skeleton(poly, n, B) else [("slice", n)]
        for k in range(n + 1):
            if _skeleton_coord_polys(poly, k) != _slice_ref.lawrence_skeleton(poly, k):
                found.append(("full", k))
            at = measure._base_values(poly, n - k)
            if (F(at.measure, at.den), tuple(F(m, at.den) for m in at.moments)) != _slice_ref.base_values(poly, n - k)[:2]:
                found.append(("base", k))
        return found

    def test_suite(self):
        for sp in suite_polytopes():
            assert self._mismatches(sp.poly) == [], sp.name

    def test_moved_suite(self):
        for sp in suite_polytopes():
            for moved in moved_copies(sp.poly):
                assert self._mismatches(moved) == [], sp.name

    def test_non_smooth(self):
        for poly in _non_smooth_fixtures():
            assert self._mismatches(poly) == [], poly.conormals

    def test_unit_face_indices_fail_on_non_smooth(self, monkeypatch):
        polys = _non_smooth_fixtures()
        indexed = [{("full", f.dimension) for f in poly.face_lattice.values()
                    if measure._face_index(poly, sorted(f.index_set)) != 1} for poly in polys]
        assert {k for dims in indexed for _, k in dims} == {0, 1, 2}
        monkeypatch.setattr(measure, "_face_index", lambda poly, S: 1)
        for poly, dims in zip(polys, indexed):
            found = self._mismatches(poly)
            assert ("base", 0) in found and ("full", 0) in dims and dims <= set(found), poly.conormals


class TestVertexConeOracle:
    """``_vertex_cones`` reads d and the edges that construction kept;
    the reference ``_polytope_ref.vertex_cones`` reads them per vertex
    off the adjugate of A_v.  Every cone must be equal, and
    ``is_smooth`` must agree with one determinant per vertex."""

    @staticmethod
    def _assert_matches(poly):
        cones = measure._vertex_cones(poly)
        assert cones == _polytope_ref.vertex_cones(poly)
        assert poly.is_smooth() == _polytope_ref.is_smooth(poly)
        return cones

    def test_suite(self):
        for sp in suite_polytopes():
            self._assert_matches(sp.poly)

    def test_moved_suite(self):
        for sp in suite_polytopes():
            for moved in moved_copies(sp.poly):
                self._assert_matches(moved)

    def test_non_smooth(self):
        dets = set()
        for n, data in ((2, NON_SMOOTH_TRIANGLE), (3, NON_SMOOTH_TETRAHEDRON), (3, DET3_TETRAHEDRON)):
            poly = HPolytope(n, *data)
            dets.update(cone.d for cone in self._assert_matches(poly))
            assert not poly.is_smooth()
        assert dets == {1, 2, 3}


class TestLatticeIndex:
    """The Lawrence reference ``_slice_ref._lattice_index`` reads
    iota_{v,T} off the edges, as the gcd of
    the maximal minors of w_T.  The reference is the quotient of the
    first nonzero maximal minor of a basis of the face's direction
    lattice (``direction_lattice_basis``) into the same minor of w_T,
    for every vertex cone and every nonempty edge set T."""

    @staticmethod
    def _chart_quotient(poly, cone, T):
        face = poly.face(frozenset(cone.basis) - {cone.basis[j] for j in T})
        B = direction_lattice_basis(poly, face)
        for sel in combinations(range(poly.dim), len(T)):
            if m := det([[b[i] for i in sel] for b in B]):
                iota = abs(det([[cone.w[j][i] for i in sel] for j in T]) / m)
                assert iota.denominator == 1
                return iota
        raise AssertionError("a lattice basis has an invertible minor")

    def test_against_the_chart_quotient(self):
        unimodular = {2: ((2, 1), (1, 1)), 3: ((1, 1, 0), (0, 1, 1), (1, 1, 1))}
        polys = [HPolytope(4, *INDEX2_SIMPLEX4)]
        for n, data in ((2, NON_SMOOTH_TRIANGLE), (3, NON_SMOOTH_TETRAHEDRON), (3, DET3_TETRAHEDRON)):
            polys += [HPolytope(n, *data), HPolytope(n, *data).apply_lattice_map(unimodular[n])]
        seen = set()
        for poly in polys:
            assert not poly.is_smooth()
            for cone in measure._vertex_cones(poly):
                for size in range(1, poly.dim + 1):
                    for T in combinations(range(poly.dim), size):
                        iota = _slice_ref._lattice_index(cone, T)
                        assert iota == self._chart_quotient(poly, cone, T), (poly.conormals, cone.basis, T)
                        seen.add((poly.dim, iota))
        assert {(2, 2), (3, 3), (3, 9), (4, 2), (4, 8)} <= seen


class TestEquivariance:
    def test_translation(self):
        poly = simplex(2, 2)
        xi = (1, -2)
        moved = poly.translate(xi)
        assert volume(moved) == volume(poly)
        c = center_of_mass(poly)
        assert center_of_mass(moved) == (c[0] + 1, c[1] - 2)
        for k in (0, 1, 2):
            b = skeleton_barycenter(poly, k)
            assert skeleton_barycenter(moved, k) == (b[0] + 1, b[1] - 2)

    def test_face_measures_translation_invariant(self):
        poly = bundle(1, (1,), (0, 1, 0, 2))
        moved = poly.translate((3, 5))
        a = sorted(face_measure(poly, f)[0] for f in poly.faces_of_dimension(1))
        b = sorted(face_measure(moved, f)[0] for f in moved.faces_of_dimension(1))
        assert a == b


def _stored_entries(poly):
    """Entries the polytope keeps in its instance dict: one per plain
    attribute, and one per key of each dict-valued attribute (a memo or
    a cache store)."""
    return sum(len(v) if isinstance(v, dict) else 1 for v in vars(poly).values())


class TestMemo:
    def test_memo_does_not_grow_with_functionals(self):
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        functionals = [(1, 0, 0, 0)] + [(i, -1, 2, i - 3) for i in range(9)]
        check_document(poly, functionals[0])
        after_one = _stored_entries(poly)
        for H in functionals[1:]:
            check_document(poly, H)
        assert _stored_entries(poly) == after_one

    def test_memo_complete_after_a_mass_linear_check(self):
        # a negative check after a positive one needs nothing new: the
        # symmetric facets come from the slice pass the pair spaces built
        poly = bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2))
        assert check_document(poly, (0, -1, 2, -3))["mass_linear"]
        after_one = _stored_entries(poly)
        assert not check_document(poly, (1, 0, 0, 0))["mass_linear"]
        assert _stored_entries(poly) == after_one


class TestOneStore:
    """What a polytope derives after construction lives in its one memo:
    its instance dict holds the dataclass fields, what construction keeps
    (``_basic``) and ``_memo``, and nothing else."""

    KEPT = {f.name for f in fields(HPolytope)} | {"_basic", "_memo"}

    @staticmethod
    def _derive(poly, H, face, smooth):
        """Every public derivation; on a non-smooth polytope those that
        need smoothness raise PolytopeError."""
        for needs_smooth in (lambda: check_document(poly, H), lambda: classify_document(poly, H),
                             lambda: restrict_to_face(poly, H, face)):
            if smooth:
                needs_smooth()
            else:
                with pytest.raises(PolytopeError, match="smooth"):
                    needs_smooth()
        poly.faces_of_dimension(1)
        volume(poly)
        integrate_monomial(poly, (1,) * poly.dim)

    def test_smooth_pair(self):
        pair = next(p for p in suite_pairs() if p.name == "golden_blowup" and mass_linear_test(p.poly, p.H).verdict)
        poly = HPolytope(4, pair.poly.conormals, pair.poly.support, pair.poly.labels)
        face = (min(mass_linear_test(poly, pair.H).symmetric),)
        self._derive(poly, pair.H, face, True)
        assert set(vars(poly)) == self.KEPT

    def test_non_smooth_polytope(self):
        # no suite polytope is non-smooth; this simplex has a vertex of index 2
        poly = HPolytope(4, *INDEX2_SIMPLEX4)
        self._derive(poly, (1, 0, 0, -1), (0,), False)
        assert set(vars(poly)) == self.KEPT


class TestPerKConeSums:
    """Cone sums are formed at k = n alone: one Lawrence pass on the
    slice (``_integrate``) expands (d L_v)^n and (d L_v)^(n+1) once at
    each vertex.  The k < n identities of a full check are the gamma rows
    of face measures, partials of the slice volume derived once per
    polytope (``_slice_measures``): no moment is derived on the slice,
    and the N-variable skeleta (``_skeleton_coord_polys``, the face
    sums), which serve only the public polynomial functions, are never
    formed.  The base values are closed-form vertex passes, one per face
    size (``_base_values``); a classification sums cones on its input
    alone, and every stage reads only the volume pass, |S| = 0.  A mass
    linearity test derives nothing."""

    @staticmethod
    def _record(monkeypatch):
        """Counters of the multinomial expansions, per (cone, degree,
        dropped facets), and of the degrees of the polynomials derived,
        and the lists of the derivation passes, by the degree of the
        polynomial each derives, and of the N-variable skeleta built."""
        powers, degrees, passes, full = Counter(), Counter(), [], []
        expand, derive, elementary, skeleta = measure._powers, measure._derive, measure._elementary, measure._skeleton_coord_polys

        def counting_expand(N, cone, e, drop):
            powers[cone, e, drop] += 1
            return expand(N, cone, e, drop)

        def counting_derive(op, p):
            degrees[max(map(sum, p), default=0)] += 1
            return derive(op, p)

        def counting_elementary(ops, top, n):
            passes.append(max(map(sum, top), default=0))
            return elementary(ops, top, n)

        def counting_skeleta(poly, k):
            full.append((poly, k))
            return skeleta(poly, k)

        monkeypatch.setattr(measure, "_powers", counting_expand)
        monkeypatch.setattr(measure, "_derive", counting_derive)
        monkeypatch.setattr(measure, "_elementary", counting_elementary)
        monkeypatch.setattr(measure, "_skeleton_coord_polys", counting_skeleta)
        return powers, degrees, passes, full

    @staticmethod
    def _fresh_pair():
        sp = next(sp for sp in suite_polytopes() if sp.poly.dim == 4)
        return HPolytope(4, sp.poly.conormals, sp.poly.support, sp.poly.labels), sp.functionals[0]

    @staticmethod
    def _slice_pass(poly):
        """The expansions of the one Lawrence pass on the slice: degrees
        n and n + 1 once at each vertex."""
        B = measure._slice(poly)[0]
        return Counter({(cone, e, B): 1 for cone in measure._vertex_cones(poly) for e in (4, 5)})

    def test_mass_linear_test_sums_only_k_equal_n(self, monkeypatch):
        poly, H = self._fresh_pair()
        powers, degrees, passes, full = self._record(monkeypatch)
        mass_linear_test(poly, H)
        assert powers == self._slice_pass(poly)
        assert not degrees and passes == [] and full == []

    def test_check_document_sums_each_cone_once(self, monkeypatch):
        # the slice polynomials read one cone term per vertex and degree
        poly, H = self._fresh_pair()
        powers, _, _, _ = self._record(monkeypatch)
        check_document(poly, H)
        assert Counter(cone for cone, _, _ in powers.elements()) == Counter(
            {cone: 2 for cone in measure._vertex_cones(poly)}
        )

    def test_check_document_integrates_once_on_the_slice(self, monkeypatch):
        # the full check needs every k; its gamma rows derive the slice
        # volume alone, of degree n, in one pass per polytope
        poly, H = self._fresh_pair()
        powers, degrees, passes, full = self._record(monkeypatch)
        check_document(poly, H)
        check_document(poly, H)
        assert powers == self._slice_pass(poly)
        assert passes == [poly.dim] and full == []
        assert degrees and max(degrees) <= poly.dim

    def test_classify_stage_reads_only_the_volume_pass(self, monkeypatch):
        # an essential pair two blowdowns away from type b: a Delta_3
        # bundle over Delta_1, blown up along a face and then along the
        # symmetric 2-face of that blowup.  Only the input is fitted, by
        # one Lawrence pass on its slice; each stage's report is derived
        # from its parent's (``masslinear._blowdown_report``), and its
        # constant-term guard reads the volume pass |S| = 0 alone
        import masslin.masslinear as ml

        sizes = []
        base = measure._base_values

        def counting(poly, s):
            sizes.append((poly, s))
            return base(poly, s)

        monkeypatch.setattr(measure, "_base_values", counting)
        monkeypatch.setattr(ml, "_base_values", counting)
        conormals = [(-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (1, 1, 1, 0), (0, 0, 0, -1), (1, 1, 0, 1)]
        bar = HPolytope(4, conormals, (0, 0, 0, 1, 0, 2))
        H = tuple(a - b - c + d for a, b, c, d in zip(*conormals[:4]))
        blown = blowup(blowup(bar, (1, 3, 4)), (0, 5))
        powers, degrees, passes, full = self._record(monkeypatch)
        report = classify_document(blown, H)
        assert report["type"] == "b" and len(report["trace"]) == 2
        assert {s for _, s in sizes} == {0}
        assert len({id(poly) for poly, _ in sizes}) == 3
        assert powers == self._slice_pass(blown)
        assert not degrees and passes == [] and full == []


def _unit(n, c):
    return tuple(int(i == c) for i in range(n))


def _all_polys(poly):
    """Every skeleton and every face polynomial of the polytope."""
    faces = sorted(poly.face_lattice.items(), key=lambda kv: sorted(kv[0]))
    return (
        [_skeleton_coord_polys(poly, k) for k in range(poly.dim + 1)],
        [face_polys(poly, face) for _, face in faces],
    )


NON_SMOOTH_TRIANGLE = ((-1, 0), (0, -1), (1, 2)), (0, 0, 2)
NON_SMOOTH_TETRAHEDRON = ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 2)), (0, 0, 0, 2)
# one vertex with |det A_v| = 3, whose edges span an index 3^(n-1)
# sublattice of Z^n
DET3_TRIANGLE = ((-1, 0), (0, -1), (1, 3)), (0, 0, 3)
DET3_TETRAHEDRON = ((-1, 0, 0), (0, -1, 0), (0, 0, -1), (1, 1, 3)), (0, 0, 0, 3)
# a 4-simplex with one vertex of index 2
INDEX2_SIMPLEX4 = ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1), (1, 1, 1, 2)), (0, 0, 0, 0, 2)
# NON_SMOOTH_TRIANGLE times a segment and times a square: the faces over
# its vertex of index 2, up to an edge and a 2-face, have g_S = 2
NON_SMOOTH_PRISM = ((-1, 0, 0), (0, -1, 0), (1, 2, 0), (0, 0, -1), (0, 0, 1)), (0, 0, 2, 0, 1)
NON_SMOOTH_TRIANGLE_SQUARE = (
    ((-1, 0, 0, 0), (0, -1, 0, 0), (1, 2, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1), (0, 0, 1, 0), (0, 0, 0, 1)),
    (0, 0, 2, 0, 0, 1, 1),
)


class TestNonSmooth:
    """Simple polytopes with a vertex where |det A_v| = 2 or 3: the edges
    there span a sublattice of index d in the direction lattice of some
    faces, so every face term through that vertex carries its lattice
    index."""

    def test_triangle(self):
        poly = HPolytope(2, *NON_SMOOTH_TRIANGLE)
        assert poly.is_simple() and not poly.is_smooth()
        assert volume(poly) == 1 == integrate_monomial(poly, (0, 0))
        assert [skeleton_barycenter(poly, k) for k in range(3)] == [
            (F(2, 3), F(1, 3)),
            (F(3, 4), F(1, 4)),
            (F(2, 3), F(1, 3)),
        ]

    def test_tetrahedron(self):
        poly = HPolytope(3, *NON_SMOOTH_TETRAHEDRON)
        assert poly.is_simple() and not poly.is_smooth()
        assert volume(poly) == F(2, 3) == integrate_monomial(poly, (0, 0, 0))
        assert [skeleton_barycenter(poly, k) for k in range(4)] == [
            (F(1, 2), F(1, 2), F(1, 4)),
            (F(5, 9), F(5, 9), F(1, 6)),
            (F(8, 15), F(8, 15), F(1, 5)),
            (F(1, 2), F(1, 2), F(1, 4)),
        ]

    def test_triangle_with_determinant_three(self):
        # edges of lattice lengths 1, 3 and 1 on the facets 0, 1 and 2
        poly = HPolytope(2, *DET3_TRIANGLE)
        assert poly.is_simple() and not poly.is_smooth()
        assert volume(poly) == F(3, 2) == integrate_monomial(poly, (0, 0))
        assert [skeleton_barycenter(poly, k) for k in range(3)] == [
            (1, F(1, 3)),
            (F(6, 5), F(1, 5)),
            (1, F(1, 3)),
        ]

    def test_tetrahedron_with_determinant_three(self):
        poly = HPolytope(3, *DET3_TETRAHEDRON)
        assert volume(poly) == F(3, 2) == integrate_monomial(poly, (0, 0, 0))
        assert integrate_monomial(poly, (1, 2, 0)) == F(27, 40)
        assert [skeleton_barycenter(poly, k) for k in range(4)] == [
            (F(3, 4), F(3, 4), F(1, 4)),
            (F(7, 8), F(7, 8), F(1, 8)),
            (F(5, 6), F(5, 6), F(1, 6)),
            (F(3, 4), F(3, 4), F(1, 4)),
        ]

    def test_vertex_cones_are_integer(self):
        inputs = [(2, NON_SMOOTH_TRIANGLE), (3, NON_SMOOTH_TETRAHEDRON), (2, DET3_TRIANGLE), (3, DET3_TETRAHEDRON)]
        dets = set()
        for n, data in inputs:
            poly = HPolytope(n, *data)
            for cone in measure._vertex_cones(poly):
                assert type(cone.d) is int and cone.d == abs(det([poly.conormals[j] for j in cone.basis]))
                assert all(type(x) is int for x in cone.basis + cone.q)
                assert all(type(x) is int for e in cone.w for x in e)
                dets.add(cone.d)
        assert dets == {1, 2, 3}


class TestGenericXi:
    def test_first_generic_point_of_the_moment_curve(self):
        assert measure._generic_xi([[(1, 0), (0, 1)]], 2) == (1, 2)
        # (1, 2) and then (1, 3) are orthogonal to an edge
        assert measure._generic_xi([[(2, -1)], [(3, -1)]], 2) == (1, 4)

    @pytest.mark.parametrize("xi", [(3, -5, 11, 17), (-7, 2, 13, 5)])
    def test_polynomials_do_not_depend_on_xi(self, monkeypatch, xi):
        makers = [
            lambda: bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)),
            lambda: blowup(bundle(3, (1, 1, 0), (0, 0, 0, 1, 0, 2)), (0, 2, 3)),
            lambda: HPolytope(2, *NON_SMOOTH_TRIANGLE),
            lambda: HPolytope(3, *NON_SMOOTH_TETRAHEDRON),
            lambda: HPolytope(3, *DET3_TETRAHEDRON),
        ]
        expected = [(_all_polys(make()), measure._vertex_cones(make())) for make in makers]
        monkeypatch.setattr(measure, "_generic_xi", lambda edges, n: xi[:n])
        for make, (polys, default_cones) in zip(makers, expected):
            poly = make()
            assert _all_polys(poly) == polys
            assert [c.q for c in measure._vertex_cones(poly)] != [c.q for c in default_cones]

    def test_non_generic_xi_raises(self, monkeypatch):
        monkeypatch.setattr(measure, "_generic_xi", lambda edges, n: (1, 0))
        with pytest.raises(StructuralInconsistency, match="xi must pair nonzero"):
            volume_poly(square())

    def test_genericity_check_survives_dash_O(self):
        script = textwrap.dedent("""
            import masslin.measure as m
            from masslin.errors import PolytopeError, StructuralInconsistency
            from masslin.polytope import HPolytope

            if __debug__:
                raise SystemExit("not running under -O")
            m._generic_xi = lambda edges, n: (1, 0)
            box = HPolytope(2, [(-1, 0), (1, 0), (0, -1), (0, 1)], [0, 1, 0, 1])
            try:
                m.volume_poly(box)
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
        assert out.stdout.strip() == "raised: xi must pair nonzero with every edge"


def _replace_rows(poly, row):
    """Replace the integers (y, d, w) that construction kept at every
    vertex by row(y, d, w), before any cone is read."""
    for active, (y, d, w) in poly._basic.items():
        poly._basic[active] = row(y, d, w)
    return poly


def _negated(y, d, w):
    return y, d, tuple(tuple(-x for x in e) for e in w)


def _off_vertex(y, d, w):
    return (y[0] + 1, *y[1:]), d, w


class TestVertexMap:
    """Each vertex cone checks that its conormals are invertible and that
    -sum_j w_j kappa_{B_j} gives back the vertex, whatever point, d and
    edges construction handed it."""

    def test_singular_conormals_raise(self):
        poly = _replace_rows(square(), lambda y, d, w: (y, 0, w))
        with pytest.raises(StructuralInconsistency, match="vertex conormals must be invertible"):
            volume_poly(poly)

    def test_wrong_adjugate_raises(self):
        # the second square has support numbers over the denominator 6
        for poly, row in product((square(), square(F(1, 2), F(2, 3))), (_negated, _off_vertex)):
            _replace_rows(poly, row)
            with pytest.raises(StructuralInconsistency, match="vertex map must reproduce the vertex"):
                skeleton_barycenter(poly, 2)

    def test_vertex_check_survives_dash_O(self):
        script = textwrap.dedent("""
            import masslin.measure as m
            from masslin.errors import PolytopeError, StructuralInconsistency
            from masslin.polytope import HPolytope

            if __debug__:
                raise SystemExit("not running under -O")
            box = HPolytope(2, [(-1, 0), (1, 0), (0, -1), (0, 1)], [0, 1, 0, 1])
            for active, (y, d, w) in box._basic.items():
                box._basic[active] = y, d, tuple(tuple(-x for x in e) for e in w)
            try:
                m.skeleton_barycenter(box, 2)
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
        assert out.stdout.strip() == "raised: vertex map must reproduce the vertex"


def _chamber_points(poly):
    """The base kappa and two further points of its chamber."""
    r = _polytope_ref.chamber_delta(poly)
    points = [poly.support]
    for step in (1, 2):
        kappa = tuple(k + r * ((i * step) % 3 - 1) for i, k in enumerate(poly.support))
        assert kappa != poly.support and _polytope_ref.same_chamber(poly, kappa)
        points.append(kappa)
    return points


class TestTriangulationOracle:
    """The vertex-cone integrals against the reference that integrates
    over a pulling triangulation, on every suite polytope."""

    def test_monomials_to_degree_three(self):
        polys = [sp.poly for sp in suite_polytopes()]
        polys += [HPolytope(2, *NON_SMOOTH_TRIANGLE), HPolytope(3, *NON_SMOOTH_TETRAHEDRON)]
        polys += [HPolytope(2, *DET3_TRIANGLE), HPolytope(3, *DET3_TETRAHEDRON)]
        for poly in polys:
            for exps in product(range(4), repeat=poly.dim):
                if sum(exps) <= 3:
                    assert integrate_monomial(poly, exps) == triangulated_integral(poly, exps), exps

    def test_volume_and_moments_in_the_chamber(self):
        for sp in suite_polytopes():
            poly, n = sp.poly, sp.poly.dim
            vol = volume_poly(poly)
            moments = [moment_poly(poly, _unit(n, c)) for c in range(n)]
            for kappa in _chamber_points(poly):
                moved = poly.with_support(kappa)
                assert vol.eval(kappa) == triangulated_integral(moved, (0,) * n), sp.name
                for c, mp in enumerate(moments):
                    assert mp.eval(kappa) == triangulated_integral(moved, _unit(n, c)), sp.name

    def test_faces_against_face_slices(self):
        # a face slice is the face in coordinates y of its direction
        # lattice, x = v0 + B^T y, so its volume is the lattice measure
        # and int x_c = v0_c * volume + sum_r B[r][c] int y_r
        for sp in suite_polytopes():
            poly, n = sp.poly, sp.poly.dim
            for key, face in poly.face_lattice.items():
                measure_poly, coords = face_polys(poly, face)
                got = (measure_poly.eval(poly.support), tuple(p.eval(poly.support) for p in coords))
                if face.dimension == 0:
                    assert got == (1, poly.vertices[face.vertex_ids[0]].point)
                    continue
                k = face.dimension
                sliced, _ = _face_slice(poly, face)
                vol = triangulated_integral(sliced, (0,) * k)
                ys = [triangulated_integral(sliced, _unit(k, r)) for r in range(k)]
                v0 = poly.vertices[face.vertex_ids[0]].point
                B = direction_lattice_basis(poly, face)
                expect = tuple(v0[c] * vol + sum(B[r][c] * ys[r] for r in range(k)) for c in range(n))
                assert got == (vol, expect), (sp.name, sorted(key))
