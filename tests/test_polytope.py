import gc
import os
import subprocess
import sys
import textwrap
import weakref
from fractions import Fraction
from itertools import combinations, product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, seed, settings
from hypothesis import strategies as st

import _polytope_ref
from _polytope_ref import from_halfspaces_pruned
from _linalg_ref import solve_linear
from _suite import suite_polytopes
import masslin
from masslin import constructions, linalg, polytope, recognize
from masslin.errors import NotSimpleError, PolytopeError
from masslin.linalg import dot, primitive, scaled, vec_sub
from masslin.polytope import HPolytope

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


# the octahedron |x| + |y| + |z| <= 1: every vertex lies on 4 facets
OCTAHEDRON = (tuple(product((-1, 1), repeat=3)), (1,) * 8)

# (dim, conormals, support, message) of each construction check
ERROR_CASES = [
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
    (
        # x <= 1 touches the octahedron at one vertex, which is not simple
        3,
        OCTAHEDRON[0] + ((1, 0, 0),),
        OCTAHEDRON[1] + (1,),
        "facet F9 does not span a hyperplane (redundant half-space)",
    ),
]


class TestErrorText:
    """The exact messages, which the integer scan must keep."""

    @pytest.mark.parametrize("dim, conormals, support, message", ERROR_CASES)
    def test_message(self, dim, conormals, support, message):
        with pytest.raises(PolytopeError) as exc:
            HPolytope(dim, conormals, support)
        assert str(exc.value) == message

    def test_non_simple_point_and_active(self):
        # raised on every access: the memo keeps no exception
        poly = square_pyramid()
        for _ in range(2):
            with pytest.raises(NotSimpleError) as exc:
                poly.vertices
            point = (Fraction(0), Fraction(0), Fraction(1))
            assert exc.value.point == point
            assert exc.value.active == frozenset({1, 2, 3, 4})
            assert str(exc.value) == f"vertex {point} lies on 4 facets"

    def test_octahedron_has_no_simple_vertex(self):
        # no vertex settles the full-dimension and facet checks, so each
        # is decided by the affine rank of the basic points
        p = HPolytope(3, *OCTAHEDRON)
        assert len(p._basic) == 6
        assert not p.is_simple()
        with pytest.raises(NotSimpleError):
            p.vertices

    def test_messages_survive_dash_O(self):
        # every construction check is a raise, not an assert
        script = textwrap.dedent(f"""
            from masslin.errors import PolytopeError
            from masslin.polytope import HPolytope

            if __debug__:
                raise SystemExit("not running under -O")
            for dim, conormals, support, _ in {ERROR_CASES!r}:
                try:
                    HPolytope(dim, conormals, support)
                except PolytopeError as exc:
                    print(exc)
                else:
                    print("constructed")
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
        assert out.stdout.splitlines() == [message for *_, message in ERROR_CASES]


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
        points, _ = _polytope_ref.points_and_edges(sp.poly._basic, sp.poly.support)
        assert list(points.items()) == list(expected.items()), sp.name


def _outcome(build):
    try:
        return build()
    except PolytopeError as exc:
        return type(exc), str(exc)


@st.composite
def halfspace_systems(draw, max_dim=4, spare=5):
    """A half-space system that passes the input checks of ``HPolytope``:
    n = 1..max_dim, n + 1 <= N <= n + spare, distinct half-spaces with
    primitive conormals of entries in -2..2 and support numbers in -1..3
    with denominators up to 3.  A simplex or a cube as the base, random
    extra half-spaces and an optional opposite of the first one give
    bounded, unbounded, empty, redundant, lower-dimensional and
    non-simple systems."""
    n = draw(st.integers(1, max_dim))
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    base = draw(st.sampled_from(["simplex", "cube", "none"]))
    if base == "simplex":
        conormals = [tuple(-x for x in e) for e in unit] + [(1,) * n]
    elif base == "cube":
        conormals = [v for e in unit for v in (tuple(-x for x in e), e)]
    else:
        conormals = []
    nonzero = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any).map(primitive)
    conormals += draw(st.lists(nonzero, max_size=n + spare - len(conormals)))
    assume(conormals)
    numbers = st.one_of(st.integers(-1, 3), st.fractions(-1, 3, max_denominator=3))
    support = [Fraction(k) for k in draw(st.lists(numbers, min_size=len(conormals), max_size=len(conormals)))]
    if len(conormals) < n + spare and draw(st.booleans()):
        conormals.append(tuple(-x for x in conormals[0]))
        support.append(-support[0])
    system = list(dict.fromkeys(zip(conormals, support)))
    assume(len(system) >= n + 1)
    return n, [eta for eta, _ in system], [k for _, k in system]


@seed(20)
@settings(max_examples=300, deadline=None)
@given(halfspace_systems())
@example((2, [(-1, 0), (0, -1), (1, 0)], [0, 0, 1]))  # unbounded
@example((2, [(-1, 0), (0, -1), (1, 1)], [0, 0, -1]))  # empty
@example((2, [(-1, 0), (1, 0), (0, -1), (0, 1), (1, 1)], [0, 1, 0, 1, 10]))  # redundant
@example((2, [(-1, 0), (1, 0), (0, -1), (0, 1), (1, 1)], [0, 1, 0, 1, 2]))  # touching
@example((2, [(-1, 0), (1, 0), (0, -1), (0, 1)], [0, 0, 0, 1]))  # flat
@example((3, [(0, 0, -1), (1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], [0, 1, 1, 1, 1]))  # pyramid
@example((3, list(OCTAHEDRON[0]), list(OCTAHEDRON[1])))  # no simple vertex
def test_scan_matches_reference_scan(system):
    n, conormals, support = system
    support = [Fraction(k) for k in support]
    labels = polytope.default_labels(len(conormals))
    expected = _outcome(lambda: list(_polytope_ref.construct(n, conormals, support, labels).items()))
    assert _outcome(lambda: list(_polytope_ref.points_and_edges(
        HPolytope(n, conormals, support)._basic, support)[0].items())) == expected
    if len(set(conormals)) == len(conormals):
        expected = _outcome(lambda: _polytope_ref.pruned(n, conormals, support))
        assert _outcome(lambda: from_halfspaces_pruned(n, conormals, support)[1]) == expected


@st.composite
def wide_systems(draw):
    """A cube with support numbers near 10^40 cut by up to 6 - n half-spaces
    with primitive conormals of entries near +-10^6, n = 1..5: every
    point is feasible near the origin, and the packed fields are some 200
    bits wide."""
    n = draw(st.integers(1, 5))
    conormals = [tuple(sign * int(i == j) for j in range(n)) for i in range(n) for sign in (-1, 1)]
    support = [Fraction(draw(st.integers(10**40 - 10**30, 10**40)), draw(st.integers(1, 7))) for _ in conormals]
    near = st.tuples(st.sampled_from((-1, 1)), st.integers(-9, 9)).map(lambda t: t[0] * (10**6 + t[1]))
    cuts = draw(st.lists(st.lists(near, min_size=n, max_size=n).map(primitive), max_size=6 - n, unique=True))
    support += [Fraction(draw(st.integers(0, n * 10**46))) for _ in cuts]
    return n, conormals + cuts, support


def _kernel_outcome(scan, n, conormals, support):
    """The points and edges of a scan in their order, or its error."""
    try:
        points, edges = scan(conormals, support, n)
    except PolytopeError as exc:
        return type(exc), str(exc)
    return list(points.items()), list(edges.items())


def _table_scan(conormals, support, n):
    """``polytope._basic_points`` in the view of the reference scans."""
    return _polytope_ref.points_and_edges(polytope._basic_points(conormals, support, n), support)


@seed(27)
@settings(max_examples=150, deadline=None)
@given(st.one_of(halfspace_systems(5, 6), wide_systems()))
@example((3, [(0, 0, -1), (1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)], [0, 1, 1, 1, 1]))  # pyramid
@example((3, list(OCTAHEDRON[0]), list(OCTAHEDRON[1])))  # octahedron
@example((3, [(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0)], [0, 1, 0, 1]))  # rank 2
@example((2, [(-1, 0), (0, -1), (1, 0)], [0, 0, 1]))  # unbounded
@example((2, [(-1, 0), (0, -1), (1, 1)], [0, 0, -1]))  # empty
@example((3, [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (10**6 + 1, 10**6, 999_999)], [0, 0, 0, 10**40 + 3]))
def test_packed_scan_matches_minor_table(system):
    n, conormals, support = system
    support = [Fraction(k) for k in support]
    expected = _kernel_outcome(_polytope_ref.table_basic_points, n, conormals, support)
    assert _kernel_outcome(_table_scan, n, conormals, support) == expected


def _assert_fields_fit(n, conormals, support):
    """Every field the scan packs lies strictly inside +-2^(B-1), B the
    ``_field_width``: read off the unpacked minor table and Cramer's rule,
    the pairings and cofactor vector of each (n-1)-subset, and the slacks
    and -y = sum_r w_r c_r of each nonsingular n-subset."""
    K = scaled([support])[1][0]
    half = 1 << (polytope._field_width(conormals, K, n) - 1)
    table = _polytope_ref.minor_table(conormals, n)
    rows = [(*P, *c) for c, P in table.values()]
    for _, _, w, minors, slacks in _polytope_ref.cramer(table, K, n):
        rows.append((*slacks, *(sum(map(mul, w, col)) for col in zip(*(c for c, _ in minors)))))
    assert max(abs(x) for row in rows for x in row) < half


@seed(28)
@settings(max_examples=150, deadline=None)
@given(st.one_of(halfspace_systems(5, 6), wide_systems()))
def test_packed_fields_fit_their_width(system):
    n, conormals, support = system
    _assert_fields_fit(n, conormals, [Fraction(k) for k in support])


def test_packed_fields_fit_their_width_on_suite():
    for sp in suite_polytopes():
        _assert_fields_fit(sp.poly.dim, sp.poly.conormals, sp.poly.support)


def test_chamber_radius_matches_minor_table_on_suite():
    for sp in suite_polytopes():
        if sp.poly.is_smooth():
            assert sp.poly.chamber_radius() == (_polytope_ref.chamber_delta(sp.poly),) * sp.poly.n_facets, sp.name


# --- derived builds ---------------------------------------------------------


def _changed(parent, at, halfspace=None):
    """parent's conormals and support numbers with the half-space
    inserted at position at, or with facet at dropped."""
    facets = list(zip(parent.conormals, parent.support))
    if halfspace is None:
        del facets[at]
    else:
        facets.insert(at, halfspace)
    return tuple(zip(*facets))


def _derived(parent, at, halfspace=None):
    """The polytope of ``_changed`` built from parent, or what it raises."""
    try:
        return HPolytope(parent.dim, *_changed(parent, at, halfspace), (), None, parent)
    except PolytopeError as exc:
        return type(exc), str(exc)


class TestDerivedBuild:
    """A polytope that shares all facets but one with a parent, as a
    blowup, a blowdown's relaxed polytope or a replayed stage does, takes
    its vertices and edges from the parent by the local update;
    ``scan_checked`` holds each such build to the scan of its facet data,
    and each blowdown report to the one that the scan alone gives."""

    def test_suite_blowups_and_blowdowns_match_the_oracle(self, scan_checked):
        suite = suite_polytopes.__wrapped__()  # built afresh under the check
        for sp in suite:
            poly = sp.poly
            if not poly.is_smooth():
                continue
            for e in range(poly.n_facets):
                constructions.blowdown(poly, e)
            for codim in range(2, poly.dim + 1):
                face = min(tuple(sorted(f)) for f in poly.face_lattice if len(f) == codim)
                constructions.blowup(poly, face)
        for poly in scan_checked:
            expected = _polytope_ref.table_basic_points(poly.conormals, poly.support, poly.dim)
            view = _polytope_ref.points_and_edges(poly._basic, poly.support)
            assert [list(d.items()) for d in view] == [list(d.items()) for d in expected]
        assert len(scan_checked) > 150

    def test_deferred_builds_raise_as_the_scan(self, scan_checked):
        square = unit_square()
        cases = [
            (simplex2(), 2, None),  # unbounded
            (square, 4, ((1, 1), 1)),  # a cut through two vertices
            (square, 0, ((1, 1), -1)),  # everything cut
        ]
        for parent, at, halfspace in cases:
            assert polytope._derived_points(parent, *_changed(parent, at, halfspace), parent.dim) is None
            assert isinstance(_derived(parent, at, halfspace), tuple)
        # a drop that leaves a vertex on four facets: the scan keeps it
        relaxed = _derived(HPolytope(
            3, ((0, 0, 1), (0, 0, -1), (0, -1, 0), (0, 1, 1), (-1, 0, 0), (1, 0, 1)),
            (1, 0, 0, 2, 0, 2)), 0)
        assert not relaxed.is_simple()
        # a half-space that cuts nothing is a redundant facet either way
        assert polytope._derived_points(square, *_changed(square, 2, ((1, 1), 5)), 2) is not None
        assert _derived(square, 2, ((1, 1), 5)) == (PolytopeError, "facet F3 is redundant (empty)")
        assert scan_checked == [relaxed]

    @seed(33)
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_random_updates_match_the_scan(self, scan_checked, data):
        """Half-spaces with conormal entries in -2..2 and support numbers
        in -1..2n (denominators up to 3) inserted into the cube [0, 2]^n,
        n = 1..4, one after another, each into the last polytope that
        built; then facets dropped: cuts through vertices, cuts of
        everything or of nothing, unbounded and non-simple results."""
        n = data.draw(st.integers(1, 4))
        unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        poly = HPolytope(n, [v for e in unit for v in (tuple(-x for x in e), e)], [0, 2] * n)
        conormal = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any).map(primitive)
        for _ in range(data.draw(st.integers(1, 3))):
            halfspace = (data.draw(conormal), data.draw(st.fractions(-1, 2 * n, max_denominator=3)))
            built = _derived(poly, data.draw(st.integers(0, poly.n_facets)), halfspace)
            poly = built if isinstance(built, HPolytope) else poly
        for _ in range(2):
            built = _derived(poly, data.draw(st.integers(0, poly.n_facets - 1)))
            poly = built if isinstance(built, HPolytope) else poly

    def test_rescale_into_the_child_frame(self, scan_checked):
        # the default depth halves a slack of 1, so the blowup raises the
        # lcm L of the support denominators from 1 to 2; blowing it down
        # drops the only fractional support number, so L falls back to 1
        # and every kept vertex moves into the child's frame
        blown = constructions.blowup(constructions.simplex(3), (1, 2))
        assert [k.denominator for k in blown.support] == [2, 1, 1, 1, 1]
        relaxed = constructions.blowdown(blown, 0).polytope
        assert relaxed == constructions.simplex(3)
        for poly in (blown, relaxed):
            scan = HPolytope(poly.dim, poly.conormals, poly.support)
            assert list(poly._basic.items()) == list(scan._basic.items())
        assert scan_checked[:2] == [blown, relaxed]

    def test_no_derived_polytope_keeps_its_parent(self):
        parent = simplex_bundle_3110()
        blown = constructions.blowup(parent, (1, 3, 4))
        rep = constructions.blowdown(blown, 0)
        face = tuple(x - 1 for x in rep.index_set)
        step = recognize.BlowdownStep(0, "E1", rep.index_set, rep.epsilon, "other", face)
        replayed = recognize.replay_trace(rep.polytope, [step])
        assert replayed == blown and replayed.labels == blown.labels
        refs = [weakref.ref(poly) for poly in (parent, blown, rep.polytope)]
        del parent, blown, rep
        gc.collect()
        assert [ref() for ref in refs] == [None] * 3


def test_narrow_fields_raise_under_dash_O():
    # too narrow a field carries into its neighbours; the zero slacks of a
    # basic point on its own facets catch it, with asserts stripped too
    script = textwrap.dedent("""
        import masslin.polytope as p
        from masslin.errors import StructuralInconsistency

        if __debug__:
            raise SystemExit("not running under -O")
        p._field_width = lambda conormals, K, n: 4
        try:
            p.HPolytope(2, [(-1, 0), (1, 0), (0, -1), (0, 1)], [0, 100, 0, 100])
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
    assert out.stdout.strip() == "raised: a basic point has zero slack on its own facets"


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
        # construction found every |det A_v|, so is_smooth takes no
        # determinant, on a smooth, a simple non-smooth and a non-simple
        # polytope alike
        polys = [simplex_bundle_3110(), HPolytope(2, ((-1, 0), (0, -1), (1, 2)), (0, 0, 1)), square_pyramid()]
        dets = []

        def counting_det(A):
            dets.append(A)
            return 0

        monkeypatch.setattr(polytope, "int_det", counting_det)
        monkeypatch.setattr(linalg, "int_det", counting_det)
        assert [p.is_smooth() for p in polys] == [True, False, False]
        assert dets == []

    def test_smoothness_agrees_with_a_determinant_per_vertex(self):
        polys = [simplex2(), unit_square(), simplex_bundle_3110(), square_pyramid(), HPolytope(3, *OCTAHEDRON)]
        polys += [HPolytope(2, ((-1, 0), (0, -1), (1, k)), (0, 0, k)) for k in (1, 2, 3)]
        assert [p.is_smooth() for p in polys] == [_polytope_ref.is_smooth(p) for p in polys]

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

    def test_face_matches_vertex_basis_definition_on_suite(self):
        # brute force: the face cut out by S has the vertices whose basis
        # contains S, its key is the intersection of those bases and its
        # dimension the affine rank of those vertices
        for sp in suite_polytopes():
            p = sp.poly
            for r in range(p.dim + 1):
                for S in combinations(range(p.n_facets), r):
                    ids = tuple(w for w, v in enumerate(p.vertices) if set(S) <= v.basis)
                    f = p.face(S)
                    if not ids:
                        assert f is None, (sp.name, S)
                        continue
                    key = frozenset.intersection(*(p.vertices[w].basis for w in ids))
                    dim = _polytope_ref.affine_rank([p.vertices[w].point for w in ids])
                    assert f == polytope.Face(key, ids, dim), (sp.name, S)
                    assert p.face_lattice[key] is f

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

    def test_endpoint_build_decides_the_segment(self):
        # inside: every chamber_radius step, 2 kappa and a translate; the
        # bundle point crosses the non-simple wall at h = 1 to a smooth
        # polytope with other bases
        cases = []
        for sp in suite_polytopes():
            p = sp.poly
            if not p.is_smooth():
                continue
            xi = tuple(Fraction((-1) ** c * (c + 1), 2) for c in range(p.dim))
            kappas = [tuple(2 * k for k in p.support), p.translate(xi).support]
            for i, d in enumerate(p.chamber_radius()):
                for step in (d, -d):
                    kappas.append(p.support[:i] + (p.support[i] + step,) + p.support[i + 1:])
            cases += [(p, kappa, True) for kappa in kappas]
        cases.append((simplex_bundle_3110(), (0, 0, 0, 1, 0, Fraction(1, 2)), False))
        for p, kappa, inside in cases:
            other = p.with_support(kappa)
            assert other.is_smooth()
            assert (other._basic.keys() == p._basic.keys()) == inside == p.in_same_chamber(kappa)
            if inside:
                for t in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                    q = p.with_support([(1 - t) * a + t * b for a, b in zip(p.support, kappa)])
                    assert q.is_smooth() and q._basic.keys() == p._basic.keys()

    def test_one_build(self, builds):
        p = simplex_bundle_3110()
        for kappa, inside in (((0, 0, 0, Fraction(1, 2), 0, 2), True), ((0, 0, 0, 1, 0, Fraction(1, 2)), False)):
            builds.clear()
            assert p.in_same_chamber(kappa) == inside
            assert len(builds) == 1


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

    @pytest.mark.parametrize(
        "support, labels, message",
        [
            ((0, 0, 1), None, "conormal and support counts differ"),
            ((0, 0, 1, 5, 7), None, "conormal and support counts differ"),
            ((0, 0, 1, 5), ("a", "b"), "label count does not match facet count"),
            ((0, 0, 1, 5), ("a", "b", "c"), "label count does not match facet count"),
        ],
    )
    def test_pruned_constructor_checks_counts(self, support, labels, message):
        """Four half-spaces of a triangle, the last one redundant: a short
        list would be read past its end, and a long one (or labels for
        the kept facets only) silently truncated."""
        with pytest.raises(PolytopeError, match=message):
            from_halfspaces_pruned(2, ((-1, 0), (0, -1), (1, 1), (1, 0)), support, labels)
