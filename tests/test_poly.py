from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masslin.poly import MultiPoly

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=8)


def poly_strategy(nvars=3, max_terms=5, max_exp=3):
    mono = st.tuples(*([st.integers(0, max_exp)] * nvars))
    return st.dictionaries(mono, rationals, max_size=max_terms).map(
        lambda d: MultiPoly.from_dict(nvars, d)
    )


class TestConstruction:
    def test_cancellation_is_zero(self):
        k1 = MultiPoly.variable(2, 0)
        assert (k1 * k1 - k1 * k1).is_zero()

    def test_no_zero_terms_stored(self):
        p = MultiPoly.from_dict(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
        assert len(p.terms) == 1

    def test_canonical_order(self):
        p = MultiPoly.from_dict(2, {(2, 0): Fraction(1), (0, 1): Fraction(1), (1, 1): Fraction(1)})
        degrees = [sum(m) for m, _ in p.terms]
        assert degrees == sorted(degrees)

    def test_linear_form(self):
        p = MultiPoly.linear([1, -1, 0])
        assert p.eval((5, 3, 100)) == 2

    def test_bad_monomial_rejected(self):
        with pytest.raises(ValueError):
            MultiPoly.from_dict(2, {(1,): Fraction(1)})


class TestEval:
    def test_simplex_area(self):
        # (k1+k2+k3)^2 / 2 at (0,0,1) is 1/2
        s = MultiPoly.linear([1, 1, 1])
        p = s * s * Fraction(1, 2)
        assert p.eval((0, 0, 1)) == Fraction(1, 2)

    def test_mismatched_point(self):
        with pytest.raises(ValueError):
            MultiPoly.variable(2, 0).eval((1,))

    @given(poly_strategy(), poly_strategy(), st.lists(rationals, min_size=3, max_size=3))
    @settings(max_examples=60)
    def test_ring_homomorphism(self, p, q, pt):
        assert (p * q).eval(pt) == p.eval(pt) * q.eval(pt)
        assert (p + q).eval(pt) == p.eval(pt) + q.eval(pt)

    @given(poly_strategy(), poly_strategy(), poly_strategy())
    @settings(max_examples=40)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * (q + r) == p * q + p * r
        assert (p - p).is_zero()


class TestCalculus:
    def test_partial(self):
        k1, k2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
        p = k1 * k1 * k2 * 3
        assert p.partial(0) == 6 * k1 * k2
        assert p.partial(1) == 3 * k1 * k1

    def test_partial_of_constant(self):
        assert MultiPoly.constant(2, 5).partial(0).is_zero()

    @given(poly_strategy(), poly_strategy())
    @settings(max_examples=40)
    def test_leibniz_rule(self, p, q):
        lhs = (p * q).partial(0)
        rhs = p.partial(0) * q + p * q.partial(0)
        assert lhs == rhs


class TestDegree:
    def test_zero_degree(self):
        assert MultiPoly.zero(2).degree() == -1

    def test_product_degree(self):
        p = MultiPoly.linear([1, 1])
        assert (p * p * p).degree() == 3

    def test_scalar_ops(self):
        p = MultiPoly.variable(2, 0)
        assert (2 * p - p - p).is_zero()
        assert (p / 2).eval((1, 0)) == Fraction(1, 2)
