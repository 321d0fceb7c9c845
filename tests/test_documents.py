"""Pinned ``check`` documents of the shared suite.

Every pair of ``_suite.py`` is checked and its rendered document hashed;
the digests in ``check_documents.json`` were taken from a reference
build.  A change to how a verdict, gamma, witness or pairing is computed
must leave every document byte-identical; a deliberate change to the
documents regenerates the file with

    PYTHONPATH=src python tests/test_documents.py --write

and says why in the change that does it.
"""

import hashlib
import json
import sys
from pathlib import Path

from masslin import cli
from _suite import suite_pairs

DIGESTS = Path(__file__).with_name("check_documents.json")


def _digests() -> list[list[str]]:
    """[name, functional, sha256 of the rendered check document] per pair."""
    return [
        [pair.name, cli.fmt_vec(pair.H), hashlib.sha256(
            cli.dumps(cli.check_document(pair.poly, pair.H)).encode()
        ).hexdigest()]
        for pair in suite_pairs()
    ]


def test_check_documents_are_pinned():
    expected = json.loads(DIGESTS.read_text())
    got = _digests()
    assert [row[:2] for row in got] == [row[:2] for row in expected]
    changed = [(g[0], g[1]) for g, e in zip(got, expected) if g != e]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_documents.py --write")
    rows = ",\n".join(json.dumps(row) for row in _digests())
    DIGESTS.write_text(f"[\n{rows}\n]\n")
