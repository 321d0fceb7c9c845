import pytest

from masslin.polytope import HPolytope


@pytest.fixture
def builds(monkeypatch):
    """The polytopes built from here on in the test, in order, counted by
    wrapping ``HPolytope.__post_init__``; clear it to start a count."""
    built = []
    post_init = HPolytope.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(HPolytope, "__post_init__", counting)
    return built
