"""Suite-wide invariants, partly randomized: coefficient structure of
mass linear pairs, equivariance of the verdict under lattice symmetries,
balanced in-class combinations, facet equivalence against the pairwise
reference, restrictions to symmetric faces, blowup round trips, and the
classification of 4-dimensional pairs under lattice symmetries."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as Fr
from functools import lru_cache, partial
from itertools import combinations, product

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from masslin import (
    HPolytope,
    blowdown,
    blowup,
    bundle_121,
    bundle_D2_polygon,
    center_of_mass,
    double_expansion,
    equivalence_classes,
    essential_blowup_planner,
    expansion,
    fully_mass_linear_test,
    generating_vector,
    is_inessential,
    mass_linear_test,
    minimal_family_a3,
    minimal_family_b,
    ml_space,
    recognize_double_expansion,
    recognize_expansion,
    restrict_to_face,
    skeleton_barycenter,
)
from masslin import recognize
from masslin.constructions import CONSTRUCTOR_STEPS, Bundle121Spec, D2PolygonBundleSpec, YkBundleSpec, _corner_cut_polygon
from masslin.errors import PolytopeError, StructuralInconsistency
from masslin.masslinear import _pair_space, symmetric_facets
from masslin.measure import volume_poly
from masslin.poly import MultiPoly
from masslin.recognize import certificate_holds, classify4d, reconstruct, replay_trace
import _certificate_ref
import _equivalence_ref
import _functional_ref
import _polytope_ref
import _slice_ref
from _linalg_ref import nullspace, rank
from _suite import (
    combine_conormals,
    expanded_pair_functional,
    moved_copies,
    report_for,
    square,
    suite_pairs,
    suite_polytopes,
)


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


def _draw_moved(data, poly):
    """A suite polytope or one of its blowups, moved by a lattice map, a
    translation and a reordering of its facets."""
    faces = sorted(
        sorted(f.index_set) for f in poly.face_lattice.values() if 0 <= f.dimension <= poly.dim - 2
    )
    if faces and data.draw(st.booleans()):
        poly = blowup(poly, data.draw(st.sampled_from(faces)))
    n = poly.dim
    poly = poly.apply_lattice_map(_draw_unimodular(data, n))
    poly = poly.translate(data.draw(st.tuples(*[st.integers(-2, 2)] * n)))
    return poly.permute_facets(data.draw(st.permutations(range(poly.n_facets))))


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
        assert is_inessential(poly, H).beta == tuple(beta) == rep.gamma

        rng = random.Random(data.draw(st.integers(0, 10**6)))
        r = _polytope_ref.chamber_delta(poly)
        for _ in range(5):
            kappa = tuple(k + r * Fr(rng.randint(-8, 8), 16) for k in poly.support)
            assert _polytope_ref.same_chamber(poly, kappa)
            moved = HPolytope(poly.dim, poly.conormals, kappa)
            assert _dot(H, center_of_mass(moved)) == _dot(beta, kappa)


def _kleinschmidt(s: int, twists) -> HPolytope:
    """Kleinschmidt's smooth polytope with n + 2 facets, n = r + s: the
    Delta_r bundle over Delta_s with twists (a_1, ..., a_r), built from
    its half-spaces.  Fiber facets x_i >= 0 and sum x <= 1; base facets
    y_j >= 0 and <a, x> + sum y <= 1 + max(0, a)."""
    r = len(twists)
    n = r + s
    conormals = [tuple(-int(i == j) for j in range(n)) for i in range(n)]
    conormals += [(1,) * r + (0,) * s, tuple(twists) + (1,) * s]
    return HPolytope(n, conormals, (0,) * n + (1, 1 + max(0, *twists)))


class TestEquivalenceOracle:
    """``equivalence_classes`` reads the classes off one integer kernel of
    the conormals; the pairwise reference decides the defining condition
    for every pair and re-checks each class against Part I's codimension
    and balanced-combination conditions, raising when one fails."""

    @staticmethod
    def _assert_matches(poly):
        eq = equivalence_classes(poly)
        assert (eq.classes, eq.complement_rank) == _equivalence_ref.equivalence_classes(poly)
        # a relation of the conormals with zero class sums vanishes, so an
        # inessential witness beta is unique and is the report's gamma
        rows = [tuple(eta[r] for eta in poly.conormals) for r in range(poly.dim)]
        rows += [tuple(int(i in cls) for i in range(poly.n_facets)) for cls in eq.classes]
        assert nullspace(rows, poly.n_facets) == ()

    def test_suite(self):
        for sp in suite_polytopes():
            self._assert_matches(sp.poly)

    @seed(21)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_moved_suite_and_blowups(self, data):
        self._assert_matches(_draw_moved(data, data.draw(st.sampled_from(suite_polytopes())).poly))

    def test_kleinschmidt(self):
        """Every Delta_r bundle over Delta_s with r + s <= 4 and twists in
        [-1, 2].  Their relation vectors lie in a plane: (1, a_i) on the
        fiber facet x_i >= 0, (1, 0) on sum x <= 1 and (0, 1) on every
        base facet, so the fiber facets group by equal twists."""
        count = 0
        for r in range(1, 4):
            for s in range(1, 5 - r):
                for twists in product(range(-1, 3), repeat=r):
                    poly = _kleinschmidt(s, twists)
                    assert poly.n_facets == r + s + 2 and poly.is_smooth()
                    self._assert_matches(poly)
                    eq = equivalence_classes(poly)
                    n = r + s
                    assert eq.class_of(n) == {n} | {i for i, a in enumerate(twists) if a == 0}
                    assert eq.class_of(n + 1) == set(range(r, n + 2)) - {n}
                    count += 1
        assert count == 108


class TestSkeletonIdentity:
    """For a pair (H, gamma) of ``ml_space`` on a smooth polytope, the
    Leibniz rule on mu_H == (gamma . kappa) V, summed over the faces of
    each codimension n - k, gives

        m_k(H) - (gamma . kappa) P_k = sum_i gamma_i sum_{|T| = n-k-1, i not in T} d_T V,

    which at k = n - 1 is (sum_i gamma_i) V: the gamma rows by which
    ``_pair_space`` cuts ``ml_space`` for the k < n identities.  Checked
    on the references alone, ``_slice_ref.lawrence_skeleton`` for m_k
    and P_k and the partials of ``volume_poly`` in all N variables, for
    every basis pair at every k < n on the suite, the moved suite and the
    bases of the Kleinschmidt sweep."""

    @staticmethod
    def _mismatches(poly):
        n, N = poly.dim, poly.n_facets
        V = volume_poly(poly)
        dV = {(): V}
        for size in range(1, n):
            for T in combinations(range(N), size):
                dV[T] = dV[T[:-1]].partial(T[-1])
        zero = MultiPoly.zero(N)
        skeleta = [_slice_ref.lawrence_skeleton(poly, k) for k in range(n)]
        found = []
        for H, gamma in ml_space(poly):
            line = MultiPoly.linear(gamma)
            for k, (P, coords) in enumerate(skeleta):
                lhs = sum((c * h for c, h in zip(coords, H)), zero) - line * P
                # the double sum regrouped by T: sum_T (sum_{i not in T} gamma_i) d_T V
                rhs = sum((dV[T] * w for T in combinations(range(N), n - k - 1)
                           if (w := sum(g for i, g in enumerate(gamma) if i not in T))), zero)
                if lhs != rhs or (k == n - 1 and lhs != V * sum(gamma)):
                    found.append((H, gamma, k))
        return found

    def test_suite(self):
        for sp in suite_polytopes():
            assert self._mismatches(sp.poly) == [], sp.name

    def test_moved_suite(self):
        for sp in suite_polytopes():
            for moved in moved_copies(sp.poly):
                assert self._mismatches(moved) == [], sp.name

    def test_kleinschmidt_bases(self):
        for r in range(1, 4):
            for twists in product(range(-2, 3), repeat=r):
                assert self._mismatches(_kleinschmidt(4 - r, twists)) == [], twists


class TestPairSpaceOracle:
    """``_pair_space`` solves the k < n skeleton dimensions inside
    ``ml_space`` by the gamma rows of face measures.  It must return the
    exact basis, in the same order, of the full-variable reference and of
    the stacked solve of every dimension's slice rows of the reference
    polynomials, for any set of dimensions that holds n; it refuses one
    without n."""

    @seed(24)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_moved_suite_and_kleinschmidt(self, data):
        if data.draw(st.booleans()):
            poly = _draw_moved(data, data.draw(st.sampled_from(suite_polytopes())).poly)
        else:
            r = data.draw(st.integers(1, 3))
            poly = _kleinschmidt(data.draw(st.integers(1, 4 - r)), data.draw(st.tuples(*[st.integers(-1, 2)] * r)))
        dims = tuple(sorted(data.draw(st.sets(st.integers(0, poly.dim - 1))) | {poly.dim}))
        expected = _slice_ref.full_pair_space(poly, dims)
        assert _pair_space(poly, dims) == expected == _slice_ref.stacked_pair_space(poly, dims), dims
        with pytest.raises(ValueError, match="a pair space holds the n-skeleton identity"):
            _pair_space(poly, dims[:-1])


class TestFunctionalOracle:
    """The per-functional path runs in integers: H scaled once, integer
    echelon rows, base values, barycenter numerators and edges.  The
    Fraction references of ``_functional_ref`` decide the same reports
    as the library did before.  Every benchmark functional is integral,
    so H is drawn here over the denominators 1, 2, 3, 5 and 7 too: from
    the mass linear space (positives, some inessential) or at random
    (mostly negatives)."""

    @staticmethod
    def _draw_functional(data, poly):
        n = poly.dim
        if data.draw(st.booleans()):
            basis = [H for H, _ in ml_space(poly)]
            coeffs = data.draw(st.tuples(*[st.integers(-2, 2)] * len(basis)))
            H = [sum((c * h[i] for c, h in zip(coeffs, basis)), Fr(0)) for i in range(n)]
        else:
            H = data.draw(st.tuples(*[st.integers(-3, 3)] * n))
        den = data.draw(st.sampled_from((1, 2, 3, 5, 7)))
        return tuple(Fr(h) / den for h in H)

    @staticmethod
    def _assert_matches(poly, H):
        report = mass_linear_test(poly, H)
        assert report == _functional_ref.mass_linear_test(poly, H)
        assert symmetric_facets(poly, H) == _functional_ref.symmetric_facets(poly, H)
        witness = is_inessential(poly, H)
        assert witness == _functional_ref.is_inessential(poly, H)
        if report.verdict and witness is None:
            assert any(sum(report.gamma[i] for i in cls) for cls in equivalence_classes(poly).classes)
        assert fully_mass_linear_test(poly, H) == _functional_ref.fully_mass_linear_test(poly, H)
        assert generating_vector(poly, H, report) == _functional_ref.generating_vector(poly, H, report)
        for k in range(poly.dim + 1):
            assert skeleton_barycenter(poly, k) == _functional_ref.skeleton_barycenter(poly, k)

    def test_suite(self):
        for pair in suite_pairs():
            self._assert_matches(pair.poly, pair.H)

    @seed(22)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_moved_suite_and_blowups(self, data):
        poly = _draw_moved(data, data.draw(st.sampled_from(suite_polytopes())).poly)
        self._assert_matches(poly, self._draw_functional(data, poly))


class TestHomogeneity:
    """Every identity of the per-functional path is linear in H: scaling
    H by q keeps each verdict and each partition of the facets, and
    scales gamma, beta, the skeleton pairings and xi by q."""

    @pytest.mark.parametrize("q", [Fr(-1), Fr(1, 2), Fr(7, 3)])
    def test_scaling_the_functional(self, q):
        def times(v):
            return None if v is None else tuple(q * x for x in v)

        for pair in suite_pairs():
            poly, H = pair.poly, pair.H
            qH = times(H)
            rep, rep_q = mass_linear_test(poly, H), mass_linear_test(poly, qH)
            assert (rep_q.verdict, rep_q.symmetric, rep_q.asymmetric, rep_q.pervasive, rep_q.flat) == (
                rep.verdict, rep.symmetric, rep.asymmetric, rep.pervasive, rep.flat
            ), pair.name
            assert rep_q.gamma == times(rep.gamma), pair.name
            wit, wit_q = is_inessential(poly, H), is_inessential(poly, qH)
            assert (wit_q is None) == (wit is None), pair.name
            if wit is not None:
                assert wit_q.beta == times(wit.beta), pair.name
            full, full_q = fully_mass_linear_test(poly, H), fully_mass_linear_test(poly, qH)
            assert (full_q.verdict, full_q.at_base) == (full.verdict, full.at_base), pair.name
            assert full_q.values == times(full.values), pair.name
            assert generating_vector(poly, qH, rep_q) == times(generating_vector(poly, H, rep)), pair.name


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


def _spied_certificates(call, *args):
    """call(*args), and every (polytope, certificate) pair that
    certificate_holds checks meanwhile, in order."""
    seen = []
    plain = recognize.certificate_holds

    def recording(p, cert):
        seen.append((p, cert))
        return plain(p, cert)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recognize, "certificate_holds", recording)
        return call(*args), seen


def _checked_certificates(poly):
    """Every certificate the recognizers check on poly, in the order they
    check them, and the base pairs of its segment bundles without a
    simplex fiber, which have no transform."""
    recognizers = (recognize.recognize_bundle_over_segment, recognize._recognize_121,
                   recognize._recognize_polygon_bundle, recognize.recognize_expansion,
                   recognize._double_expansion_candidates)
    (segment, *_), checked = _spied_certificates(lambda: [r(poly) for r in recognizers])
    seen = [cert for p, cert in checked if p is poly]
    if segment is not None:
        seen += [c for c in (segment, *segment.alternatives) if c.transform is None]
    return seen


def _moved_by_one(values, r, step):
    """values with entry r moved by step."""
    return tuple(values[:r]) + (values[r] + step,) + tuple(values[r + 1 :])


def _one_place_changes(cert):
    """Thunks for the certificates that differ from cert in one place, by
    kind: a translation entry, a support number or a twist of the
    parameters, or a support number of the core moved by +-1, or two
    places of the facet order swapped.  A thunk raises PolytopeError when
    the spec or the core rejects the change."""
    spec, core = cert.params, cert.core

    def respec(**changes):
        return replace(cert, params=replace(spec, **changes))

    def recore(kappa):
        return replace(cert, core=core.with_support(kappa))

    def moves(values):
        return [_moved_by_one(values, r, s) for r in range(len(values)) for s in (-1, 1)]

    out = {}
    if cert.translation is not None:
        out["translation"] = [partial(replace, cert, translation=xi) for xi in moves(cert.translation)]
    if cert.facet_order is not None:
        out["order"] = []
        for p, q in combinations(range(len(cert.facet_order)), 2):
            order = list(cert.facet_order)
            order[p], order[q] = order[q], order[p]
            out["order"].append(partial(replace, cert, facet_order=tuple(order)))
    if spec is not None:
        out["kappa"] = [partial(respec, kappa=kappa) for kappa in moves(spec.kappa)]
    if isinstance(spec, (YkBundleSpec, Bundle121Spec)):
        out["twist"] = [partial(respec, a=a) for a in moves(spec.a)]
    if isinstance(spec, Bundle121Spec):
        out["twist"] += [partial(respec, d=d) for (d,) in moves((spec.d,))]
    if isinstance(spec, D2PolygonBundleSpec):
        twists = spec.twists
        out["twist"] = [partial(respec, twists=twists[:r] + (t,) + twists[r + 1 :])
                        for r in range(len(twists)) for t in moves(twists[r])]
    if core is not None:
        out["kappa"] = [partial(recore, kappa) for kappa in moves(core.support)]
    return out


def _outcome(check, poly, cert):
    try:
        return check(poly, cert)
    except (PolytopeError, StructuralInconsistency) as exc:
        return type(exc)


def _assert_matches_reference(poly, cert):
    """certificate_holds and _holds against the rebuilding reference.
    Where the facet data are equal, both give the same answer or raise
    the same exception; where they differ, the library answers False and
    the reference may have raised PolytopeError in its rebuild."""
    old = _outcome(_certificate_ref.certificate_holds, poly, cert)
    new = _outcome(certificate_holds, poly, cert)
    assert new == old or (new is False and issubclass(old, PolytopeError)), (cert, old, new)
    assert _outcome(recognize._holds, poly, cert) == _outcome(_certificate_ref.holds, poly, cert)


@lru_cache(maxsize=1)
def _4d_suite_polytopes():
    return tuple(sp.poly for sp in suite_polytopes() if sp.poly.dim == 4)


class TestCertificateOracle:
    """certificate_holds checks a certificate on facet data and runs the
    constructor's post-build checks on the input; the reference rebuilds
    the constructor's polytope and compares."""

    def test_suite_certificates(self):
        families = set()
        for poly in _4d_suite_polytopes():
            fresh = HPolytope(poly.dim, poly.conormals, poly.support, poly.labels)
            for cert in _checked_certificates(fresh):
                _assert_matches_reference(fresh, cert)
                if cert.transform is not None:
                    built = reconstruct(cert)
                    data = (built.dim, built.conormals, built.support)
                    build, args = recognize._constructor_call(cert)
                    assert CONSTRUCTOR_STEPS[build][0](*args) == data
                families.add(cert.family)
        assert families == {"segment_bundle", "bundle_121", "polygon_bundle",
                            "expansion", "double_expansion"}

    @seed(23)
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_moved_and_changed_certificates(self, data):
        poly = data.draw(st.sampled_from(_4d_suite_polytopes()))
        poly = poly.apply_lattice_map(_draw_unimodular(data, 4))
        poly = poly.translate(data.draw(st.tuples(*[st.integers(-2, 2)] * 4)))
        poly = poly.permute_facets(data.draw(st.permutations(range(poly.n_facets))))
        for cert in _checked_certificates(poly):
            _assert_matches_reference(poly, cert)
            changes = _one_place_changes(cert)
            if not changes:
                continue
            kind = data.draw(st.sampled_from(sorted(changes)))
            try:
                changed = data.draw(st.sampled_from(changes[kind]))()
            except PolytopeError:
                continue
            _assert_matches_reference(poly, changed)


@lru_cache(maxsize=1)
def _classified_4d_pairs():
    """Every 4-dimensional mass linear suite pair with its classification."""
    return tuple((p, classify4d(p.poly, p.H)) for p in _ml_pairs() if p.poly.dim == 4)


def _classification(result):
    """What a lattice symmetry must not change: the type, the removed
    labels and tags of the trace, and the terminal coefficients."""
    steps = tuple((step.label, step.tag) for step in result.trace)
    return result.type, steps, result.terminal_report.gamma


# blowup(_kleinschmidt(1, twists), I) with H: (twists, I, H, type as built);
# each has the one-step trace E1 and changes type with the facets reversed
_KLEINSCHMIDT_ORDER_CASES = {
    "k1(-2,-1,-1)-E(1,4,5)": ((-2, -1, -1), (1, 4, 5), (0, -2, -2, 0), "a1"),
    "k1(-1,0,1)-E(2,3,4)": ((-1, 0, 1), (2, 3, 4), (2, 0, 2, 0), "a1"),
    "k1(0,1,1)-E(0,2,5)": ((0, 1, 1), (0, 2, 5), (-4, -4, 0, 0), "b"),
}


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
        "type depends on facet order: after the reordering another facet is "
        "blown down first and the type moves between a1 and b (for "
        "golden_blowup and mb6_plan_blowup, G1 or e1 goes before E1 and the "
        "terminal is an a1 segment bundle instead of the b model)",
    )
    @pytest.mark.parametrize("name", ["golden_blowup", "mb6_plan_blowup", *_KLEINSCHMIDT_ORDER_CASES])
    def test_facet_order_with_blowdowns(self, name):
        if name in _KLEINSCHMIDT_ORDER_CASES:
            twists, I, H, kind = _KLEINSCHMIDT_ORDER_CASES[name]
            poly = blowup(_kleinschmidt(1, twists), I)
            result = classify4d(poly, H)
            order = tuple(reversed(range(poly.n_facets)))
        else:
            (pair, result), = [(p, r) for p, r in _classified_4d_pairs() if p.name == name]
            poly, H, kind, order = pair.poly, pair.H, "b", (1, 2, 3, 4, 5, 6, 0)
        if (result.type, [step.label for step in result.trace]) != (kind, ["E1"]):
            pytest.fail(f"{name} is no longer type {kind} by blowing down E1")
        again = classify4d(poly.permute_facets(order), H)
        assert again.type == result.type


class TestRecognitionMemo:
    """The recognizers are memoized per polytope: recognizing a polytope
    again checks no certificate, and a classification's terminal
    recognition is the one its terminal gets on its own."""

    def test_second_recognize_type_checks_no_certificate(self):
        first_checks = 0
        for pair, result in _classified_4d_pairs():
            poly = HPolytope(4, pair.poly.conormals, pair.poly.support, pair.poly.labels)
            first, checked = _spied_certificates(recognize.recognize_type, poly, pair.H)
            again, rechecked = _spied_certificates(recognize.recognize_type, poly, pair.H)
            assert again == first and rechecked == [], pair.name
            first_checks += len(checked)
            # classify4d asked recognize_type about every stage of an essential pair
            for stage in result.stages if result.type not in ("zero", "inessential") else ():
                assert _spied_certificates(recognize.recognize_type, stage, pair.H)[1] == [], pair.name
        assert first_checks > 0

    def test_terminal_recognition_on_suite(self):
        for pair, result in _classified_4d_pairs():
            t = result.terminal
            fresh = HPolytope(4, t.conormals, t.support, t.labels)
            own = recognize._recognize_terminal(t)
            assert result.terminal_recognition == own == recognize._recognize_terminal(fresh), pair.name


def _unimodular(rng, n):
    """A product of one to three elementary row operations."""
    T = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        for col in range(n):
            T[i][col] += c * T[j][col]
    return T


class TestKleinschmidtSweep:
    """Every Delta_r bundle over Delta_s with r + s = 4 and twists in
    [-2, 2]^r (``_kleinschmidt``), with functionals drawn as integer
    combinations of its ml_space basis (and H = 0 on every fourth), and
    blowups of it along faces of codimension 2 to 4: per H, one face cut
    out by facets symmetric for H, which keeps H mass linear, and one
    whose coefficients sum to zero, which often does; for the second H
    also a face drawn from all.  Each pair is moved by a unimodular map
    (H goes to T H) and a translation; facet reorderings are left out
    while the type depends on the facet order
    (``test_facet_order_with_blowdowns``)."""

    def test_seeded_sweep(self, scan_checked):
        seen = self.sweep(2011)
        assert scan_checked
        # every outcome but a3 and unclassified shows up, blowdowns included
        assert {"not mass linear", "zero", "inessential", "a1", "a2", "b"} <= {t for t, _ in seen}
        assert seen[("a1", 1)] and seen[("b", 1)]

    @classmethod
    def sweep(cls, seed) -> Counter:
        """The drawn pairs, counted by (type, trace length); a pair that is
        not mass linear counts as ("not mass linear", 0)."""
        rng = random.Random(seed)
        bases = [(4 - r, twists) for r in range(1, 4) for twists in product(range(-2, 3), repeat=r)]
        seen = Counter()
        for b, (s, twists) in enumerate(bases):
            base = _kleinschmidt(s, twists)
            basis = [H for H, _ in ml_space(base)]
            Hs = [(0, 0, 0, 0)] if b % 4 == 0 else []
            inputs = []
            for k in range(2):
                c = [rng.randint(-2, 2) for _ in basis]
                H = tuple(sum((a * h[m] for a, h in zip(c, basis)), Fr(0)) for m in range(4))
                Hs.append(H)
                report = mass_linear_test(base, H)
                faces = sorted(sorted(f.index_set) for f in base.face_lattice.values() if 0 <= f.dimension <= 2)
                inner = [I for I in faces if report.symmetric.issuperset(I)]
                balanced = [I for I in faces if I not in inner and not sum(report.gamma[i] for i in I)]
                for drawn in (inner, balanced, faces if k else ()):
                    if drawn:
                        inputs.append((blowup(base, rng.choice(drawn)), H))
            for poly, H in [(base, H) for H in Hs] + inputs:
                T = _unimodular(rng, 4)
                poly = poly.apply_lattice_map(T).translate([rng.randint(-2, 2) for _ in range(4)])
                seen[cls._check(poly, tuple(_dot(row, H) for row in T))] += 1
        return seen

    @staticmethod
    def _check(poly, H):
        case = (poly.conormals, poly.support, H)
        report = mass_linear_test(poly, H)
        assert fully_mass_linear_test(poly, H).verdict == report.verdict, case
        witness = is_inessential(poly, H)
        assert witness == _functional_ref.is_inessential(poly, H), case
        if not report.verdict:
            return "not mass linear", 0
        assert witness is None or witness.beta == report.gamma, case
        res = classify4d(poly, H)
        # the terminal witness is read off the terminal's report
        assert res.terminal_inessential == _functional_ref.is_inessential(res.terminal, H), case
        if not any(H):
            assert res.type == "zero", case
        elif witness is not None:
            assert res.type == "inessential", case
        else:
            assert res.type in ("a1", "a2", "a3", "b"), (case, res.detail)
            assert certificate_holds(res.terminal, res.certificate), case
        rebuilt = replay_trace(res.terminal, res.trace)
        assert rebuilt == poly and rebuilt.labels == poly.labels, case
        return res.type, len(res.trace)


class TestFamilySweep:
    """The models the Kleinschmidt sweep never reaches, a3 above all: 121
    towers with twists in [-1, 1]^3 and d in {0, 1}; triangle bundles
    over the square and the corner-cut 4- and 5-gons, with twists from
    ``TWISTS`` and the base support numbers times 16; minimal_family_a3(7,
    8), minimal_family_b(5, 6, 7) and double expansions of the square
    and the corner-cut pentagon.  Each with a nonzero ml_space takes two
    functionals drawn from its basis, and a double expansion also its expanded-pair
    functional, blown up as ``essential_blowup_planner`` plans where it
    can.  Every mass linear pair is also blown up along a face cut out by
    facets symmetric for H: an inessential pair along one such face, an
    essential pair along one of each codimension 2, 3 and 4 and twice and
    three times in a row.  Each pair is moved and checked as in
    ``TestKleinschmidtSweep``, with no facet reordering."""

    TWISTS = ((0, 0), (1, -1), (1, 0), (0, 1), (-1, 1), (2, -2))

    def test_seeded_sweep(self, scan_checked):
        seen, skipped, built = self.sweep(29)
        assert scan_checked
        assert {"a2", "a3", "b"} <= {t for t, _ in seen}
        # replays of one, two and three blowdowns
        assert {1, 2, 3} <= {length for _, length in seen}
        # parameter points a constructor rejects with PolytopeError are
        # skipped, and only a few of them
        assert skipped <= built // 10, (skipped, built)

    @classmethod
    def _bases(cls) -> tuple[list, int]:
        """(polytope, whether it is a double expansion) per parameter
        point that its constructor accepts, and the number rejected."""

        def tower(a, d):
            return bundle_121(Bundle121Spec(a, d, (0, 1, 0, 0, 4, 0, 40)))

        def polygon_bundle(polygon, twists):
            kappa = (0, 0, 1) + tuple(16 * x for x in polygon.support)
            return bundle_D2_polygon(D2PolygonBundleSpec(polygon, ((0, 0), (0, 0)) + twists, kappa))

        calls = [(tower, a, d) for a in product(range(-1, 2), repeat=3) for d in (0, 1)]
        for polygon, twists in ((square(), cls.TWISTS), (_corner_cut_polygon(4), cls.TWISTS),
                                (_corner_cut_polygon(5), cls.TWISTS[:4])):
            calls += [(polygon_bundle, polygon, tw) for tw in product(twists, repeat=polygon.n_facets - 2)]
        calls += [(minimal_family_a3, N) for N in (7, 8)] + [(minimal_family_b, N) for N in (5, 6, 7)]
        calls += [(double_expansion, polygon, j1, j2) for polygon in (square(), _corner_cut_polygon(5))
                  for j1, j2 in ((0, 2), (1, 3), (0, 1))]
        bases, skipped = [], 0
        for build, *args in calls:
            try:
                bases.append((build(*args), build in (minimal_family_b, double_expansion)))
            except PolytopeError:
                skipped += 1
        return bases, skipped

    @staticmethod
    def _symmetric_faces(poly, H) -> list[list[int]]:
        """The faces of dimension at most 2 cut out by facets symmetric for
        H, by sorted index set; none when H is not mass linear."""
        report = mass_linear_test(poly, H)
        return sorted(sorted(f.index_set) for f in poly.face_lattice.values()
                      if report.verdict and f.dimension <= 2 and report.symmetric.issuperset(f.index_set))

    @classmethod
    def sweep(cls, seed) -> tuple[Counter, int, int]:
        """The drawn pairs counted by (type, trace length) as in
        ``TestKleinschmidtSweep.sweep``, the parameter points skipped and
        the polytopes built."""
        rng = random.Random(seed)
        bases, skipped = cls._bases()
        seen = Counter()
        for base, expanded in bases:
            basis = [H for H, _ in ml_space(base)]
            Hs = [expanded_pair_functional(base)] if expanded else []
            for _ in range(2 if basis else 0):
                c = [rng.randint(-2, 2) for _ in basis]
                Hs.append(tuple(sum((a * h[m] for a, h in zip(c, basis)), Fr(0)) for m in range(4)))
            inputs = [(base, H) for H in Hs]
            for H in Hs:
                faces = cls._symmetric_faces(base, H)
                if not faces:
                    continue
                if is_inessential(base, H) is not None:
                    inputs.append((blowup(base, rng.choice(faces)), H))
                    continue
                # an essential pair: one blowup per face codimension, and
                # chains of two and three blowups
                for codim in (2, 3, 4):
                    if drawn := [I for I in faces if len(I) == codim]:
                        inputs.append((blowup(base, rng.choice(drawn)), H))
                poly = base
                for length in (1, 2, 3):
                    if not (faces := cls._symmetric_faces(poly, H)):
                        break
                    poly = blowup(poly, rng.choice(faces))
                    if length > 1:
                        inputs.append((poly, H))
            if expanded and (plan := essential_blowup_planner(base, Hs[0])).feasible:
                poly = base
                for I, eps in plan.steps:
                    poly = blowup(poly, I, eps)
                inputs.append((poly, Hs[0]))
            for poly, H in inputs:
                T = _unimodular(rng, 4)
                poly = poly.apply_lattice_map(T).translate([rng.randint(-2, 2) for _ in range(4)])
                seen[TestKleinschmidtSweep._check(poly, tuple(_dot(row, H) for row in T))] += 1
        return seen, skipped, len(bases)
