import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from _linalg_ref import (
    det,
    identity,
    in_row_span,
    int_solve,
    kernel_fractions,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    rref,
    solve_linear,
)
from masslin.linalg import (
    dot,
    int_adjugate,
    int_det,
    int_nullspace,
    int_rank,
    int_rref,
    integer_kernel_basis,
    primitive,
    scaled,
)

ROOT = Path(__file__).resolve().parents[1]

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


def small_matrix(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


class TestPrimitive:
    def test_divides_by_gcd(self):
        assert primitive((2, 4, -6)) == (1, 2, -3)

    def test_single_axis(self):
        assert primitive((0, 0, 5)) == (0, 0, 1)

    def test_already_primitive(self):
        assert primitive((1, 0, 1, -1)) == (1, 0, 1, -1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            primitive((0, 0, 0))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            primitive((Fraction(1, 2), 1))


class TestRank:
    def test_identity(self):
        assert int_rank([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3

    def test_zero(self):
        assert int_rank([[0, 0], [0, 0]]) == 0

    def test_simplex_bundle_fiber_conormals(self):
        # four vectors in R^4 satisfying one relation: -e1,-e2,-e3,e1+e2+e3
        rows = [
            (-1, 0, 0, 0),
            (0, -1, 0, 0),
            (0, 0, -1, 0),
            (1, 1, 1, 0),
        ]
        assert int_rank(rows) == 3


class TestSolveLinear:
    # the rational reference solver that other tests compare with
    def test_identity_case(self):
        sol = solve_linear(identity(2), (Fraction(1, 2), 0))
        assert sol.solution == (Fraction(1, 2), Fraction(0))
        assert sol.nullspace == ()

    def test_underdetermined(self):
        sol = solve_linear([[1, 1]], (0,))
        assert sol.solution == (Fraction(0), Fraction(0))
        assert sol.nullspace == ((Fraction(-1), Fraction(1)),)

    def test_infeasible(self):
        assert solve_linear([[1, 1], [1, 1]], (0, 1)) is None

    def test_codimension_one_span(self):
        # conormals of a 4-d example with facets 1,2 removed: their span
        # has codimension 1, i.e. the transpose kernel is 1-dimensional
        rows = [
            (0, 0, -1, 0),
            (1, 1, 1, 0),
            (0, 0, 0, -1),
            (-1, -1, 0, 1),
        ]
        assert int_rank(rows) == 3
        assert len(int_nullspace(list(zip(*rows)), 4)[1]) == 1

    @given(small_matrix(3, 3), st.lists(rationals, min_size=3, max_size=3))
    @settings(max_examples=60)
    def test_round_trip(self, A, b):
        sol = solve_linear(A, b)
        if sol is None:
            assert rank(A) < rank([row + [bi] for row, bi in zip(A, b)])
            return
        assert list(mat_vec(A, sol.solution)) == [Fraction(x) for x in b]
        for v in sol.nullspace:
            assert all(x == 0 for x in mat_vec(A, v))
        combined = sol.solution
        for v in sol.nullspace:
            combined = tuple(a + 2 * b_ for a, b_ in zip(combined, v))
        assert list(mat_vec(A, combined)) == [Fraction(x) for x in b]


class TestDetInvert:
    def test_det_identity(self):
        assert int_det([[int(i == j) for j in range(4)] for i in range(4)]) == 1

    def test_det_swap(self):
        assert int_det([[0, 1], [1, 0]]) == -1

    def test_det_singular(self):
        assert int_det([[1, 2], [2, 4]]) == 0

    def test_scaled_rational_matrix(self):
        # det(D A) = D^n det A for the common denominator D
        A = [[Fraction(1, 2), 1], [Fraction(1, 3), 0]]
        assert scaled(A) == (6, [[3, 6], [2, 0]])
        D, M = scaled(A)
        assert Fraction(int_det(M), D**2) == det(A) == Fraction(-1, 3)


@st.composite
def integer_systems(draw):
    """A square integer system with n = 1..4; about half are singular,
    their last row a combination of the others."""
    n = draw(st.integers(1, 4))
    entries = st.integers(-6, 6)
    A = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        c = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        A[-1] = [sum(ci * row[j] for ci, row in zip(c, A)) for j in range(n)]
    b = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    return A, b


class TestFractionFree:
    def test_solve_examples(self):
        assert int_solve([[2, 0], [0, 4]], (1, 1)) == (8, (4, 2))
        assert int_solve([[0, 1], [1, 0]], (3, 5)) == (-1, (-5, -3))
        assert int_solve([[1, 1], [2, 2]], (1, 2)) == (0, None)
        assert int_det([]) == 1

    @given(integer_systems())
    @settings(max_examples=200)
    def test_matches_rational_elimination(self, system):
        A, b = system
        d = int_det(A)
        assert d == det(A)
        assert int_rank(A) == rank(A)
        d2, y = int_solve(A, b)
        assert d2 == d
        sol = solve_linear(A, b)
        if d == 0:
            assert y is None
            assert sol is None or sol.nullspace
            return
        assert sol.nullspace == ()
        assert tuple(Fraction(e, d) for e in y) == sol.solution
        assert list(mat_vec(A, y)) == [d * e for e in b]

    @given(integer_systems())
    @settings(max_examples=100)
    def test_adjugate_round_trip(self, system):
        A, _ = system
        n = len(A)
        d, adj = int_adjugate(A)
        assert d == det(A)
        if d == 0:
            assert adj is None
        else:
            scaled = tuple(tuple(d * e for e in row) for row in identity(n))
            assert mat_mul(A, adj) == scaled
            assert mat_mul(adj, A) == scaled

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=6
            )
        )
    )
    @settings(max_examples=150)
    def test_rank_of_rectangular_matrices(self, rows):
        assert int_rank(rows) == rank(rows)


class TestNullspace:
    def test_reduced_echelon_convention(self):
        assert int_nullspace([[1, 2, 3]], 3) == (1, ((-2, 1, 0), (-3, 0, 1)))
        # the same basis over the last Bareiss pivot D = 2
        D, rows = int_nullspace([[2, 4, 6]], 3)
        assert (D, rows) == (2, ((-4, 2, 0), (-6, 0, 2)))
        assert kernel_fractions((D, rows)) == (
            (Fraction(-2), Fraction(1), Fraction(0)),
            (Fraction(-3), Fraction(0), Fraction(1)),
        )

    def test_empty_matrix_needs_ncols(self):
        assert int_nullspace([], 2) == (1, ((1, 0), (0, 1)))

    @given(small_matrix(2, 4))
    @settings(max_examples=40)
    def test_dimension_formula(self, A):
        assert len(int_nullspace(scaled(A)[1], 4)[1]) == 4 - rank(A)

    @staticmethod
    def _through_int_rref(A, ncols):
        """The kernel basis read off the Fraction rows of ``int_rref``."""
        R, pivots = int_rref(A, ncols)
        basis = []
        for j in (c for c in range(ncols) if c not in pivots):
            x = [Fraction(0)] * ncols
            x[j] = Fraction(1)
            for row, p in zip(R, pivots):
                x[p] = -row[j]
            basis.append(tuple(x))
        return tuple(basis)

    @seed(24)
    @given(st.data())
    @settings(max_examples=200)
    def test_matches_reading_through_int_rref(self, data):
        # tall, wide and square integer matrices, half of them with rows
        # combined from the first few, so that the rank falls short
        height, width = data.draw(st.integers(0, 9)), data.draw(st.integers(1, 9))
        A = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=width, max_size=width), min_size=height, max_size=height))
        if height > 1 and data.draw(st.booleans()):
            r = data.draw(st.integers(1, height - 1))
            for i in range(r, height):
                c = data.draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
                A[i] = [sum(ci * row[j] for ci, row in zip(c, A)) for j in range(width)]
        ncols = data.draw(st.integers(0, width))
        for cols in (ncols, width):
            kernel = int_nullspace(A, cols)
            assert all(type(x) is int for row in kernel[1] for x in (kernel[0], *row))
            assert kernel_fractions(kernel) == self._through_int_rref(A, cols)


@st.composite
def echelon_inputs(draw):
    """(A, width, ncols): an integer or a rational matrix, about half of
    them with a last row combined from the others, and a bound ncols on
    the pivot columns, the further columns being right-hand sides."""
    height, width = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    entries = draw(st.sampled_from([st.integers(-6, 6), rationals]))
    A = draw(st.lists(st.lists(entries, min_size=width, max_size=width), min_size=height, max_size=height))
    if height > 1 and draw(st.booleans()):
        c = draw(st.lists(st.integers(-2, 2), min_size=height - 1, max_size=height - 1))
        A[-1] = [sum(ci * row[j] for ci, row in zip(c, A)) for j in range(width)]
    return A, width, draw(st.integers(0, width))


class TestReducedEchelon:
    def test_rank_deficient_example(self):
        R, pivots = int_rref([[0, 2, 4, 2], [0, 1, 2, 3], [0, 3, 6, 5]])
        assert pivots == (1, 3)
        assert R == ((0, 1, 2, 0), (0, 0, 0, 1), (0, 0, 0, 0))

    @given(echelon_inputs())
    @settings(max_examples=300)
    def test_matches_rational_rref(self, case):
        # the same rows and pivots as Gauss-Jordan over the rationals on
        # the scaled rows, also the rows past the rank when ncols leaves
        # right-hand sides; over all columns the reduced form and the
        # kernel basis are those of A itself
        A, width, ncols = case
        M = scaled(A)[1]
        assert int_rref(M, ncols) == rref(M, ncols)
        assert int_rref(M) == rref(A)
        assert kernel_fractions(int_nullspace(M, width)) == nullspace(A, width)


def test_every_public_linalg_function_has_a_caller():
    # a public function of masslin.linalg is used by another library
    # module or looked up by name by the perfbench tracer; anything else
    # is a second kernel growing back unnoticed
    def tree(path):
        return ast.parse(path.read_text(), filename=str(path))

    public = {
        node.name
        for node in tree(ROOT / "src" / "masslin" / "linalg.py").body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    used = set()
    for path in (ROOT / "src" / "masslin").glob("*.py"):
        if path.name != "linalg.py":
            for node in ast.walk(tree(path)):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    (functions,) = [
        node.value
        for node in tree(ROOT / "perfbench" / "tracer.py").body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets)
    ]
    traced = {attr for _, module, attr in ast.literal_eval(functions) if module == "masslin.linalg"}
    assert traced <= public
    assert public - used - traced == set()


def test_every_private_function_has_a_caller():
    # a module-level _-prefixed function of src/masslin is used somewhere
    # in src/masslin outside its own body; anything else is a leftover of
    # a replaced path
    top_level = [
        node
        for path in (ROOT / "src" / "masslin").glob("*.py")
        for node in ast.parse(path.read_text(), filename=str(path)).body
    ]
    private = {
        node.name
        for node in top_level
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    }
    called = set()
    for stmt in top_level:
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        called |= names - {getattr(stmt, "name", None)}
    assert private - called == set()


class TestIntegerKernel:
    def test_simple_relation(self):
        basis = integer_kernel_basis([(1, 1, 0)], 3)
        assert len(basis) == 2
        for v in basis:
            assert v[0] + v[1] == 0

    def test_saturation(self):
        # kernel of (2, -2) over Z is generated by (1, 1), not (2, 2)
        basis = integer_kernel_basis([(2, -2)], 2)
        assert len(basis) == 1
        assert basis[0] in ((1, 1), (-1, -1))

    def test_full_rank_trivial_kernel(self):
        assert integer_kernel_basis(identity(3), 3) == []

    @pytest.mark.parametrize("row", [(Fraction(1, 2), 1), (1.7, 1)])
    def test_non_integer_entry_raises(self, row):
        # a truncated entry would give the kernel of another matrix
        with pytest.raises(ValueError, match="expected integer entries"):
            integer_kernel_basis([row], 2)

    @given(
        st.lists(
            st.lists(st.integers(-6, 6), min_size=4, max_size=4),
            min_size=2,
            max_size=3,
        )
    )
    @settings(max_examples=60)
    def test_basis_spans_kernel(self, rows):
        basis = integer_kernel_basis(rows, 4)
        assert len(basis) == 4 - rank(rows)
        for v in basis:
            assert all(x == 0 for x in mat_vec(rows, v))
        # vectors form a lattice basis: as a matrix they have full rank
        if basis:
            assert rank(basis) == len(basis)


class TestSpanMembership:
    def test_in_span(self):
        assert in_row_span([(1, 0, 0), (0, 1, 0)], (3, -2, 0))

    def test_not_in_span(self):
        assert not in_row_span([(1, 0, 0), (0, 1, 0)], (0, 0, 1))


@given(rationals, rationals, rationals)
def test_field_axioms_spotcheck(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(st.lists(rationals, min_size=3, max_size=3), st.lists(rationals, min_size=3, max_size=3))
def test_dot_symmetry(u, v):
    assert dot(u, v) == dot(v, u)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dot((1, 2), (1,)), "length mismatch in dot product"),
        (lambda: integer_kernel_basis([(1, 2)], 3), "row length does not match n"),
        (lambda: int_det([(1, 2)]), "determinant of a non-square matrix"),
        (lambda: int_adjugate([(1, 2), (3,)]), "fraction-free solve of a non-square matrix"),
    ],
)
def test_shape_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and info.value.args == (message,)
