"""Pinned ``check`` and ``classify`` documents of the shared suite.

Every pair of ``_suite.py`` is checked and its rendered document hashed;
the digests in ``check_documents.json`` were taken from a reference
build.  ``classify_documents.json`` holds the digests of the rendered
``classify`` documents, stages included, of every 4-d pair (or of the
error a pair raises) and of every essential 4-d pair blown up once and
twice along its first symmetric 2-face.  A change to how a verdict,
gamma, witness, pairing or blowdown chain is computed must leave every
document byte-identical; a deliberate change to the documents
regenerates both files with

    PYTHONPATH=src python tests/test_documents.py --write

and says why in the change that does it.
"""

import hashlib
import json
import sys
from itertools import combinations
from pathlib import Path

import pytest

from masslin import blowup, is_inessential, mass_linear_test, masslinear
from masslin.errors import MasslinError
from masslin import cli
from _suite import report_for, suite_pairs

DIGESTS = Path(__file__).with_name("check_documents.json")
CLASSIFY_DIGESTS = Path(__file__).with_name("classify_documents.json")


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


def _changed(got, expected) -> list:
    assert [row[:-1] for row in got] == [row[:-1] for row in expected]
    return [g[:-1] for g, e in zip(got, expected) if g != e]


def test_check_documents_are_pinned():
    assert _changed(_digests(), json.loads(DIGESTS.read_text())) == []


def test_classify_documents_are_pinned():
    expected = json.loads(CLASSIFY_DIGESTS.read_text())
    assert _changed(_classify_digests(), expected) == []


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


def test_classify_fits_each_stage_once(skeleton_fits):
    # each stage's type and witness are read off the report of its one fit
    classified = set()
    for name, H, times, poly in _classify_chains():
        skeleton_fits.clear()
        try:
            stages = cli.classify_document(poly, H, with_stages=True)["stages"]
        except (MasslinError, ValueError):
            assert len(skeleton_fits) <= 1, (name, times)
            continue
        classified.add((name, times))
        assert [cli.polytope_to_document(p) for p in skeleton_fits] == stages, (name, times)
    # the golden pair, as given and blown up once and twice more
    assert {("golden_blowup", t) for t in range(3)} <= classified


def _write(path: Path, rows) -> None:
    body = ",\n".join(json.dumps(row) for row in rows)
    path.write_text(f"[\n{body}\n]\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_documents.py --write")
    _write(DIGESTS, _digests())
    _write(CLASSIFY_DIGESTS, _classify_digests())
