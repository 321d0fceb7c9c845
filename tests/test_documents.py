"""Pinned ``check`` and ``classify`` documents of the shared suite.

Every pair of ``_suite.py`` is checked and its rendered document hashed;
the digests in ``check_documents.json`` were taken from a reference
build.  ``classify_documents.json`` holds the digests of the rendered
``classify`` documents, stages included, of every 4-d pair (or of the
error a pair raises) and of every essential 4-d pair blown up once and
twice along its first symmetric 2-face.  ``mlspace_documents.json``
holds the digests of the rendered ``mlspace`` documents of the three
closed-form solvers on a fixed grid of family parameters.  A change to
how a verdict, gamma, witness, pairing, blowdown chain or coefficient
space is computed must leave every document byte-identical; a
deliberate change to the documents regenerates the files with

    PYTHONPATH=src python tests/test_documents.py --write

and says why in the change that does it.
"""

import hashlib
import json
import sys
from itertools import combinations
from pathlib import Path

import pytest

from masslin import blowup, is_inessential, mass_linear_test, masslinear, simplex
from masslin.constructions import ml_space_121, ml_space_D2_polygon, ml_space_Yk
from masslin.errors import MasslinError
from masslin.polytope import HPolytope
from masslin import cli
from _suite import polygon_bundle, report_for, square, suite_pairs

DIGESTS = Path(__file__).with_name("check_documents.json")
CLASSIFY_DIGESTS = Path(__file__).with_name("classify_documents.json")
MLSPACE_DIGESTS = Path(__file__).with_name("mlspace_documents.json")

# Y_k twists with equal and with distinct levels (the levels are a and 0)
YK_GRID = [
    (1, (0,)), (1, (1,)), (1, (-2,)),
    (2, (0, 0)), (2, (1, 1)), (2, (1, 0)), (2, (1, 2)), (2, (-1, 1)),
    (3, (0, 0, 0)), (3, (1, 1, 0)), (3, (2, 2, 2)), (3, (1, 2, 3)), (3, (2, 1, 1)), (3, (1, -1, 0)),
]
# 121 twists with a2 a3 (a2 - a3) nonzero and zero
TOWER_GRID = [
    ((1, 2, 3), 1), ((5, 2, 3), 0), ((-1, 2, -3), 2), ((0, 1, 2), 2),
    ((0, 2, 3), 0), ((1, 0, 3), 1), ((2, 3, 3), 0), ((1, 1, 1), 2), ((1, 2, 0), 3),
]
PENTAGON = HPolytope(2, ((-1, 0), (0, -1), (1, 0), (1, 1), (0, 1)), (0, 0, 3, 5, 3))
# zero twists, collinear twists with the area polynomial vanishing at the
# twist ratios and not, a fiber line with a zero coordinate, and twists
# that are not collinear
POLYGON_GRID = [
    ("square", square(), ((0, 0),) * 4),
    ("square", square(), ((0, 0), (0, 0), (1, -1), (0, 0))),
    ("square", square(), ((0, 0), (0, 0), (0, 0), (2, -2))),
    ("square", square(), ((0, 0), (0, 0), (1, -1), (1, -1))),
    ("square", square(), ((0, 0), (0, 0), (2, -2), (-1, 1))),
    ("square", square(), ((0, 0), (0, 0), (1, 0), (0, 0))),
    ("square", square(), ((0, 0), (0, 0), (1, -1), (1, 1))),
    ("square", square(), ((0, 0), (0, 0), (2, 1), (-1, 1))),
    ("triangle", simplex(2), ((0, 0),) * 3),
    ("triangle", simplex(2), ((0, 0), (0, 0), (1, -1))),
    ("triangle", simplex(2), ((0, 0), (0, 0), (1, 1))),
    ("pentagon", PENTAGON, ((0, 0),) * 5),
    ("pentagon", PENTAGON, ((0, 0), (0, 0), (1, -1), (0, 0), (0, 0))),
    ("pentagon", PENTAGON, ((0, 0), (0, 0), (1, -1), (1, -1), (1, -1))),
    ("pentagon", PENTAGON, ((0, 0), (0, 0), (0, 0), (1, -1), (1, 1))),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests() -> list[list[str]]:
    """[name, functional, sha256 of the rendered check document] per pair."""
    return [
        [pair.name, cli.fmt_vec(pair.H), _sha(cli.dumps(cli.check_document(pair.poly, pair.H)))]
        for pair in suite_pairs()
    ]


def _first_symmetric_2face(poly, H) -> tuple[int, ...]:
    """The first pair of symmetric facets, in index order, that cuts a
    face of codimension 2."""
    for I in combinations(sorted(mass_linear_test(poly, H).symmetric), 2):
        f = poly.face(I)
        if f is not None and f.index_set == frozenset(I):
            return I
    return ()


def _classify_chains():
    """(name, functional, blowups, polytope) for every 4-d pair and for
    each essential 4-d pair blown up once and twice along its first
    symmetric 2-face."""
    pairs = [pair for pair in suite_pairs() if pair.poly.dim == 4]
    for pair in pairs:
        yield pair.name, pair.H, 0, pair.poly
    for pair in pairs:
        if not (report_for(pair).verdict and any(pair.H)):
            continue
        if is_inessential(pair.poly, pair.H) is not None:
            continue
        poly = pair.poly
        for times in (1, 2):
            face = _first_symmetric_2face(poly, pair.H)
            if not face:
                break
            poly = blowup(poly, face)
            yield pair.name, pair.H, times, poly


def _classify_digests() -> list[list]:
    """[name, functional, blowups, sha256 of the rendered classify
    document with stages, or of the error it raises] per chain."""
    rows = []
    for name, H, times, poly in _classify_chains():
        try:
            text = cli.dumps(cli.classify_document(poly, H, with_stages=True))
        except (MasslinError, ValueError) as exc:
            text = f"{type(exc).__name__}: {exc}"
        rows.append([name, cli.fmt_vec(H), times, _sha(text)])
    return rows


def _mlspace_documents():
    """(label, rendered mlspace document) per grid point: the documents
    of the ``mlspace`` command, built as it builds them."""
    for k, a in YK_GRID:
        doc = cli.space_document("bundle-yk", {"k": k, "a": list(a)}, ml_space_Yk(k, a))
        yield f"yk k={k} a={cli.fmt_vec(a)}", cli.dumps(doc)
    for a, d in TOWER_GRID:
        doc = cli.space_document("bundle-121", {"a": list(a), "d": d}, ml_space_121(a, d))
        yield f"121 a={cli.fmt_vec(a)} d={d}", cli.dumps(doc)
    for name, base, twists in POLYGON_GRID:
        _, spec = polygon_bundle(base, twists)
        params = {
            "polygon": cli.polytope_to_document(spec.polygon),
            "twists": [list(t) for t in spec.twists],
            "kappa": cli.fmt_vec(spec.kappa),
        }
        doc = cli.space_document("bundle-d2-polygon", params, ml_space_D2_polygon(spec))
        yield f"d2 {name} twists={[list(t) for t in twists]}", cli.dumps(doc)


def _mlspace_digests() -> list[list[str]]:
    """[label, sha256 of the rendered mlspace document] per grid point."""
    return [[label, _sha(text)] for label, text in _mlspace_documents()]


def _changed(got, expected) -> list:
    assert [row[:-1] for row in got] == [row[:-1] for row in expected]
    return [g[:-1] for g, e in zip(got, expected) if g != e]


def test_check_documents_are_pinned():
    assert _changed(_digests(), json.loads(DIGESTS.read_text())) == []


def test_classify_documents_are_pinned():
    expected = json.loads(CLASSIFY_DIGESTS.read_text())
    assert _changed(_classify_digests(), expected) == []


def test_mlspace_documents_are_pinned():
    assert _changed(_mlspace_digests(), json.loads(MLSPACE_DIGESTS.read_text())) == []


@pytest.fixture
def skeleton_fits(monkeypatch):
    """The polytopes that ``masslinear._fit`` fits a functional on with
    the n-skeleton pair space from here on in the test, in order."""
    fitted = []
    fit = masslinear._fit

    def counting(poly, Hi, dims):
        if dims == (poly.dim,):
            fitted.append(poly)
        return fit(poly, Hi, dims)

    monkeypatch.setattr(masslinear, "_fit", counting)
    return fitted


def test_check_fits_each_pair_once(skeleton_fits):
    # the verdict, the witness and the generating vector share one fit
    for pair in suite_pairs():
        skeleton_fits.clear()
        cli.check_document(pair.poly, pair.H)
        assert skeleton_fits == [pair.poly], pair.name


@pytest.fixture
def identity_builds(monkeypatch):
    """The polytopes whose slice identity rows
    (``masslinear._identity_rows``) are built from here on in the test,
    in order."""
    built = []
    rows = masslinear._identity_rows

    def counting(poly):
        built.append(poly)
        return rows(poly)

    monkeypatch.setattr(masslinear, "_identity_rows", counting)
    return built


def test_classify_fits_only_the_input(skeleton_fits, identity_builds):
    # the input is fitted once, on one build of its identity rows; every
    # blowdown stage's report is derived from its parent's by the blowup
    # lemma (``masslinear._blowdown_report``), so a stage fit fails here
    classified, lengths = set(), set()
    for name, H, times, poly in _classify_chains():
        fresh = HPolytope(poly.dim, poly.conormals, poly.support, poly.labels, poly.name)
        skeleton_fits.clear()
        identity_builds.clear()
        try:
            stages = cli.classify_document(fresh, H, with_stages=True)["stages"]
        except (MasslinError, ValueError):
            assert all(p is fresh for p in skeleton_fits + identity_builds), (name, times)
            assert len(skeleton_fits) == len(identity_builds) <= 1, (name, times)
            continue
        classified.add((name, times))
        lengths.add(len(stages))
        assert len(skeleton_fits) == 1 and skeleton_fits[0] is fresh, (name, times)
        assert len(identity_builds) == 1 and identity_builds[0] is fresh, (name, times)
    # the golden pair, as given and blown up once and twice more, and
    # chains of one and two blowdowns
    assert {("golden_blowup", t) for t in range(3)} <= classified
    assert {1, 2, 3} <= lengths


def _write(path: Path, rows) -> None:
    body = ",\n".join(json.dumps(row) for row in rows)
    path.write_text(f"[\n{body}\n]\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_documents.py --write")
    _write(DIGESTS, _digests())
    _write(CLASSIFY_DIGESTS, _classify_digests())
    _write(MLSPACE_DIGESTS, _mlspace_digests())
