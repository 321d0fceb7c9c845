"""Suite-wide invariants, partly randomized: coefficient structure of
mass linear pairs, equivariance of the verdict under lattice symmetries,
balanced in-class combinations, restrictions to symmetric faces, blowup
round trips, and the classification of 4-dimensional pairs under
lattice symmetries."""

import random
from fractions import Fraction as Fr
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from masslin import (
    HPolytope,
    blowdown,
    blowup,
    center_of_mass,
    double_expansion,
    equivalence_classes,
    expansion,
    fully_mass_linear_test,
    mass_linear_test,
    recognize_double_expansion,
    recognize_expansion,
    restrict_to_face,
)
from masslin.masslinear import _pair_space, symmetric_facets
from masslin.recognize import certificate_holds, classify4d, reconstruct
from _linalg_ref import rank
from _suite import combine_conormals, report_for, suite_pairs, suite_polytopes


@lru_cache(maxsize=1)
def _ml_pairs():
    return tuple(p for p in suite_pairs() if report_for(p).verdict)


@lru_cache(maxsize=1)
def _small_pairs():
    return tuple(p for p in suite_pairs() if p.poly.n_facets <= 6)


def _dot(u, v):
    return sum(Fr(a) * Fr(b) for a, b in zip(u, v))


class TestCoefficientStructure:
    def test_gamma_sums_to_zero(self):
        for pair in _ml_pairs():
            assert sum(report_for(pair).gamma) == 0, pair.name

    def test_functional_is_conormal_combination(self):
        for pair in _ml_pairs():
            gamma = report_for(pair).gamma
            rebuilt = tuple(
                sum(g * eta[r] for g, eta in zip(gamma, pair.poly.conormals))
                for r in range(pair.poly.dim)
            )
            assert rebuilt == tuple(Fr(h) for h in pair.H), pair.name

    def test_at_least_two_asymmetric_facets(self):
        for pair in _ml_pairs():
            rep = report_for(pair)
            assert len(rep.asymmetric) >= 2 or not any(pair.H), pair.name

    def test_asymmetric_facets_are_pervasive_or_flat(self):
        for pair in _ml_pairs():
            rep = report_for(pair)
            for i in rep.asymmetric:
                assert rep.pervasive[i] or rep.flat[i], (pair.name, i)

    def test_exceptional_facet_is_symmetric(self):
        seen = 0
        for pair in _ml_pairs():
            if pair.origin != "blowup":
                continue
            if not pair.poly.labels[0].startswith("E"):
                continue
            assert report_for(pair).gamma[0] == 0, pair.name
            seen += 1
        assert seen >= 3

    def test_euler_relation_across_suite(self):
        for sp in suite_polytopes():
            total = sum((-1) ** f.dimension for f in sp.poly.face_lattice.values())
            assert total == 1, sp.name


class TestRestriction:
    def test_symmetric_facet_restrictions_match(self):
        seen = 0
        for pair in _ml_pairs():
            rep = report_for(pair)
            if not rep.asymmetric:
                continue
            for i in sorted(rep.symmetric):
                face = pair.poly.face(frozenset({i}))
                if face is None or face.dimension < 1:
                    continue
                res = restrict_to_face(pair.poly, pair.H, {i})
                sub = mass_linear_test(res.poly, res.functional)
                assert sub.verdict, (pair.name, i)
                restricted = {
                    res.facet_origin[j]: g
                    for j, g in enumerate(sub.gamma)
                    if g != 0
                }
                original = {j: rep.gamma[j] for j in rep.asymmetric}
                assert restricted == original, (pair.name, i)
                seen += 1
                break
        assert seen >= 10


def _draw_unimodular(data, n):
    """A product of one to three elementary row operations."""
    T = [[Fr(i == j) for j in range(n)] for i in range(n)]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(-2, 2))
        if i == j:
            continue
        for col in range(n):
            T[i][col] += c * T[j][col]
    return T


def _same_span(a, b):
    return rank(a) == rank(b) == rank(list(a) + list(b))


def _dims(poly):
    return (poly.dim,), tuple(range(poly.dim + 1))


class TestEquivariance:
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_translation(self, data):
        pair = data.draw(st.sampled_from(_small_pairs()))
        xi = data.draw(
            st.tuples(*[st.integers(-3, 3) for _ in range(pair.poly.dim)])
        )
        moved = pair.poly.translate(xi)
        rep0 = report_for(pair)
        rep1 = mass_linear_test(moved, pair.H)
        assert rep0.verdict == rep1.verdict
        assert rep0.gamma == rep1.gamma
        assert rep0.symmetric == rep1.symmetric
        # negative verdicts are decided at the base kappa, which moves
        full0 = fully_mass_linear_test(pair.poly, pair.H)
        full1 = fully_mass_linear_test(moved, pair.H)
        assert full0.verdict == full1.verdict
        shift = _dot(pair.H, xi)
        assert full1.values == tuple(v + shift for v in full0.values)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_lattice_map(self, data):
        pair = data.draw(st.sampled_from(_small_pairs()))
        T = _draw_unimodular(data, pair.poly.dim)
        mapped = pair.poly.apply_lattice_map(T)
        newH = tuple(_dot(row, pair.H) for row in T)
        rep0 = report_for(pair)
        rep1 = mass_linear_test(mapped, newH)
        assert rep0.verdict == rep1.verdict
        assert rep0.gamma == rep1.gamma
        assert rep0.asymmetric == rep1.asymmetric

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_facet_permutation(self, data):
        pair = data.draw(st.sampled_from(_small_pairs()))
        order = data.draw(st.permutations(range(pair.poly.n_facets)))
        rep0 = report_for(pair)
        rep1 = mass_linear_test(pair.poly.permute_facets(order), pair.H)
        assert rep0.verdict == rep1.verdict
        if rep0.verdict:
            assert rep1.gamma == tuple(rep0.gamma[i] for i in order)
        assert rep1.asymmetric == frozenset(
            order.index(i) for i in rep0.asymmetric
        )

    # pair spaces and symmetric facets are decided on the slice
    # kappa_B = 0 of the first vertex's chart: a lattice map can make
    # another vertex first, and so change B, and a translation moves
    # the base polytope's point on the slice; neither may change them
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_slice_translation(self, data):
        pair = data.draw(st.sampled_from(suite_pairs()))
        poly = pair.poly
        xi = data.draw(st.tuples(*[st.integers(-3, 3) for _ in range(poly.dim)]))
        moved = poly.translate(xi)
        for dims in _dims(poly):
            assert _pair_space(moved, dims) == _pair_space(poly, dims)
        assert symmetric_facets(moved, pair.H) == symmetric_facets(poly, pair.H)

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_slice_lattice_map(self, data):
        pair = data.draw(st.sampled_from(suite_pairs()))
        poly = pair.poly
        T = _draw_unimodular(data, poly.dim)
        mapped = poly.apply_lattice_map(T)
        for dims in _dims(poly):
            expected = [tuple(_dot(row, H) for row in T) + gamma for H, gamma in _pair_space(poly, dims)]
            assert _same_span([H + gamma for H, gamma in _pair_space(mapped, dims)], expected)
        newH = tuple(_dot(row, pair.H) for row in T)
        assert symmetric_facets(mapped, newH) == symmetric_facets(poly, pair.H)


class TestBalancedCombinations:
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_in_class_balance_is_mass_linear_with_beta_pairing(self, data):
        sp = data.draw(
            st.sampled_from(
                [s for s in suite_polytopes() if s.poly.n_facets <= 7]
            )
        )
        poly = sp.poly
        multi = [
            sorted(c) for c in equivalence_classes(poly).classes if len(c) > 1
        ]
        assume(multi)
        beta = [0] * poly.n_facets
        for cls in multi:
            picks = data.draw(
                st.tuples(*[st.integers(-2, 2) for _ in cls[:-1]])
            )
            for member, b in zip(cls, picks):
                beta[member] = b
            beta[cls[-1]] = -sum(picks)
        H = combine_conormals(poly, dict(enumerate(beta)))
        assume(any(H))
        rep = mass_linear_test(poly, H)
        assert rep.verdict

        rng = random.Random(data.draw(st.integers(0, 10**6)))
        radius = poly.chamber_radius()
        for _ in range(5):
            kappa = tuple(
                k + r * Fr(rng.randint(-8, 8), 16)
                for k, r in zip(poly.support, radius)
            )
            moved = HPolytope(poly.dim, poly.conormals, kappa)
            assert _dot(H, center_of_mass(moved)) == _dot(beta, kappa)


class TestBlowupRoundTrip:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_blowdown_inverts_blowup(self, data):
        """A suite polytope, moved by a unimodular map, a translation and
        a facet permutation and blown up with the exceptional facet at a
        drawn position, blows down there to the moved polytope; blowing
        that up again along the reported face by the reported depth gives
        the blown-up polytope back, as ``blowdown`` proves without
        building it."""
        sp = data.draw(st.sampled_from(suite_polytopes()))
        n = sp.poly.dim
        xi = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        order = data.draw(st.permutations(range(sp.poly.n_facets)))
        poly = sp.poly.apply_lattice_map(_draw_unimodular(data, n))
        poly = poly.translate(xi).permute_facets(order)
        faces = [
            f.index_set
            for f in sorted(poly.face_lattice.values(), key=lambda f: sorted(f.index_set))
            if 0 <= f.dimension <= poly.dim - 2
        ]
        assume(faces)
        I = sorted(data.draw(st.sampled_from(faces)))
        at = data.draw(st.integers(0, poly.n_facets))
        # facet 0 of the blowup moves to position at
        to_at = list(range(1, at + 1)) + [0] + list(range(at + 1, poly.n_facets + 1))
        blown = blowup(poly, I).permute_facets(to_at)
        report = blowdown(blown, at)
        assert report.ok
        assert report.polytope == poly and report.polytope.labels == poly.labels
        shifted = tuple(i + 1 if i >= at else i for i in I)
        assert shifted == report.index_set or shifted in report.alternatives
        face = tuple(i - 1 if i > at else i for i in report.index_set)
        again = blowup(report.polytope, face, report.epsilon).permute_facets(to_at)
        assert again == blown and again.labels == blown.labels


class TestMovedExpansions:
    """An expansion or double expansion of a small suite core, moved by
    a unimodular map, a translation and a facet permutation, is still
    recognized by a certificate that holds and rebuilds the recovered
    core's own expansion."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_recognized_after_moving(self, data):
        cores = [sp.poly for sp in suite_polytopes() if sp.poly.dim <= 3]
        core = data.draw(st.sampled_from([c for c in cores if c.n_facets <= 6]))
        facets = st.integers(0, core.n_facets - 1)
        if data.draw(st.booleans()):
            fold = data.draw(st.sampled_from((1, 2)))
            poly = expansion(core, data.draw(facets), fold)
            recognize = recognize_expansion
        else:
            j1 = data.draw(facets)
            j2 = data.draw(facets.filter(lambda j: j != j1))
            poly = double_expansion(core, j1, j2)
            recognize = recognize_double_expansion
        n = poly.dim
        moved = poly.apply_lattice_map(_draw_unimodular(data, n))
        moved = moved.translate(data.draw(st.tuples(*[st.integers(-3, 3)] * n)))
        moved = moved.permute_facets(data.draw(st.permutations(range(poly.n_facets))))
        cert = recognize(moved)
        assert cert is not None
        assert certificate_holds(moved, cert)
        assert cert.core.dim + cert.fold == n
        if cert.family == "expansion":
            rebuilt = expansion(cert.core, cert.core_expanded[0], cert.fold)
        else:
            rebuilt = double_expansion(cert.core, *cert.core_expanded)
        assert reconstruct(cert) == rebuilt


@lru_cache(maxsize=1)
def _classified_4d_pairs():
    """Every 4-dimensional mass linear suite pair with its classification."""
    return tuple((p, classify4d(p.poly, p.H)) for p in _ml_pairs() if p.poly.dim == 4)


def _classification(result):
    """What a lattice symmetry must not change: the type, the removed
    labels and tags of the trace, and the terminal coefficients."""
    steps = tuple((step.label, step.tag) for step in result.trace)
    return result.type, steps, result.terminal_report.gamma


class TestClassifyInvariance:
    @given(data=st.data())
    @settings(max_examples=3, deadline=None)
    def test_lattice_moves_keep_the_classification(self, data):
        """Every 4-d mass linear suite pair, moved by a unimodular map T
        (H goes to T H) and a translation in [-2, 2]^4, keeps its
        classification; the first case is the translate of
        minimal_family_a3(7) by (-1, 2, 0, 1), whose base polygon was
        once read with untranslated support numbers and came out empty."""
        pairs = _classified_4d_pairs()
        a3 = next(i for i, (p, _) in enumerate(pairs) if p.name == "minimal_a3_7")
        identity = [[int(i == j) for j in range(4)] for i in range(4)]
        cases = [(a3, identity, (-1, 2, 0, 1))]
        for i in range(len(pairs)):
            xi = data.draw(st.tuples(*[st.integers(-2, 2)] * 4))
            cases.append((i, _draw_unimodular(data, 4), xi))
        for i, T, xi in cases:
            pair, result = pairs[i]
            moved = pair.poly.apply_lattice_map(T).translate(xi)
            newH = tuple(_dot(row, pair.H) for row in T)
            again = classify4d(moved, newH)
            assert _classification(again) == _classification(result), (pair.name, T, xi)

    @given(data=st.data())
    @settings(max_examples=3, deadline=None)
    def test_facet_order_without_blowdowns(self, data):
        """A pair classified without a blowdown keeps its type under a
        facet permutation, with its coefficients permuted alike."""
        seen = 0
        for pair, result in _classified_4d_pairs():
            if result.trace:
                continue
            order = data.draw(st.permutations(range(pair.poly.n_facets)))
            again = classify4d(pair.poly.permute_facets(order), pair.H)
            assert again.type == result.type, (pair.name, order)
            gamma = result.terminal_report.gamma
            assert again.terminal_report.gamma == tuple(gamma[i] for i in order), (pair.name, order)
            seen += 1
        assert seen >= 100

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="classify4d blows facets down greedily in index order, so its "
        "type depends on facet order: with the last facet moved to the front, "
        "G1 (golden_blowup) or e1 (mb6_plan_blowup) is blown down before E1 "
        "and the terminal is an a1 segment bundle instead of the b model",
    )
    @pytest.mark.parametrize("name", ["golden_blowup", "mb6_plan_blowup"])
    def test_facet_order_with_blowdowns(self, name):
        (pair, result), = [(p, r) for p, r in _classified_4d_pairs() if p.name == name]
        if (result.type, [step.label for step in result.trace]) != ("b", ["E1"]):
            pytest.fail(f"{name} is no longer type b by blowing down E1")
        again = classify4d(pair.poly.permute_facets((1, 2, 3, 4, 5, 6, 0)), pair.H)
        assert again.type == result.type
