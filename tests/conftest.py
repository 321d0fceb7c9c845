import pytest

from masslin import constructions, polytope, recognize
from masslin.polytope import HPolytope


@pytest.fixture
def builds(monkeypatch):
    """The polytopes built from here on in the test, in order, counted by
    wrapping ``HPolytope.__post_init__``, derived builds included; clear
    it to start a count."""
    built = []
    post_init = HPolytope.__post_init__

    def counting(self, *parent):
        built.append(self)
        post_init(self, *parent)

    monkeypatch.setattr(HPolytope, "__post_init__", counting)
    return built


def _outcome(build):
    """What build returns, or the type and text of what it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture
def scan_checked(monkeypatch):
    """Every polytope derived from a parent from here on in the test,
    checked against a scan of its own facet data: the same ``_basic``
    table, in order, and the same vertices, or the same exception;
    and every blowdown report against the one that the scan alone gives.
    Returns the derived polytopes built."""
    derived = []
    post_init, blowdown = HPolytope.__post_init__, constructions.blowdown

    def scanned(self):
        return HPolytope(self.dim, self.conormals, self.support, self.labels, self.name)

    def checking(self, parent=None):
        if parent is None:
            return post_init(self)
        try:
            post_init(self, parent)
        except Exception as exc:
            assert _outcome(lambda: scanned(self)) == (type(exc), str(exc))
            raise
        scan = scanned(self)
        assert list(self._basic.items()) == list(scan._basic.items())
        assert _outcome(lambda: self.vertices) == _outcome(lambda: scan.vertices)
        derived.append(self)

    def comparing(poly, facet=0):
        report = blowdown(poly, facet)
        with monkeypatch.context() as scan_only:
            scan_only.setattr(polytope, "_derived_points", lambda *args: None)
            assert blowdown(poly, facet) == report
        return report

    monkeypatch.setattr(HPolytope, "__post_init__", checking)
    for module in (constructions, recognize):
        monkeypatch.setattr(module, "blowdown", comparing)
    return derived
