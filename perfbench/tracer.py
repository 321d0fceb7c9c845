"""Span tracing from outside the library.

The library modules import their collaborators by name (``from .measure
import volume_poly``), so a layer function is wrapped wherever a
``masslin`` module binds it, and the class attributes
``HPolytope.__post_init__`` and ``MultiPoly.__mul__`` / ``__rmul__`` are
wrapped on the class.  Each call records a span (name, parent, start,
end, request) in flat in-memory arrays; counts are taken at the same
boundaries.  ``Tracer.install`` patches and ``Tracer.uninstall``
restores, so untraced runs execute the library unchanged.

Self time of a span is its duration minus the part of its interval that
its child spans cover (``self_times``).
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter, defaultdict
from math import comb
from time import perf_counter

# (span name, module that defines it, attribute)
FUNCTIONS = (
    ("cli.parse", "masslin.cli", "document_to_polytope"),
    ("cli.check", "masslin.cli", "check_document"),
    ("cli.classify", "masslin.cli", "classify_document"),
    ("cli.render", "masslin.cli", "dumps"),
    ("measure.volume_poly", "masslin.measure", "volume_poly"),
    ("measure.moment_poly", "masslin.measure", "moment_poly"),
    ("measure.cached_moment_poly", "masslin.measure", "cached_moment_poly"),
    ("measure.skeleton_polys", "masslin.measure", "skeleton_measure_polys"),
    ("measure.skeleton_barycenter", "masslin.measure", "skeleton_barycenter"),
    ("masslinear.mass_linear_test", "masslin.masslinear", "mass_linear_test"),
    ("masslinear.symmetric_facets", "masslin.masslinear", "symmetric_facets"),
    ("masslinear.equivalence_classes", "masslin.masslinear", "equivalence_classes"),
    ("masslinear.is_inessential", "masslin.masslinear", "is_inessential"),
    ("masslinear.fully_mass_linear", "masslin.masslinear", "fully_mass_linear_test"),
    ("masslinear.generating_vector", "masslin.masslinear", "generating_vector"),
    ("constructions.blowup", "masslin.constructions", "blowup"),
    ("constructions.blowdown", "masslin.constructions", "blowdown"),
    ("recognize.classify4d", "masslin.recognize", "classify4d"),
    ("recognize.recognize_type", "masslin.recognize", "recognize_type"),
    ("recognize.replay_trace", "masslin.recognize", "replay_trace"),
    ("linalg.rref", "masslin.linalg", "rref"),
)

# (span name, module, class, attributes sharing one wrapper)
METHODS = (
    ("polytope.construct", "masslin.polytope", "HPolytope", ("__post_init__",)),
    ("poly.mul", "masslin.poly", "MultiPoly", ("__mul__", "__rmul__")),
)


def _count_construct(counts, args, result):
    poly = args[0]
    counts["polytope.basis_subsets"] += comb(len(poly.conormals), poly.dim)


def _count_mul(counts, args, result):
    left, right = args
    size = len(left.terms)
    counts["poly.mul_term_pairs"] += size * len(right.terms) if hasattr(right, "terms") else size


def _count_verdict(counts, args, result):
    counts["masslinear.mass_linear_true"] += bool(result.verdict)


def _count_blowdown(counts, args, result):
    counts["constructions.blowdown_ok"] += bool(result.ok)


def _count_trace(counts, args, result):
    counts["recognize.trace_steps"] += len(result.trace)


COUNTERS = {
    "polytope.construct": _count_construct,
    "poly.mul": _count_mul,
    "masslinear.mass_linear_test": _count_verdict,
    "constructions.blowdown": _count_blowdown,
    "recognize.classify4d": _count_trace,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.request = array("l")
        self.counts: Counter = Counter()
        self.request_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if counter is not None:
                counter(self.counts, args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "masslin" or k.startswith("masslin."))]
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapped = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapped)
        for name, modname, clsname, attrs in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attrs[0]]
            wrapped = self.wrap(name, original)
            for attr in attrs:
                self._patches.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def spans(self):
        """(id, parent, name, start, end, request) for every span."""
        return [
            (i, self.parent[i], self.names[i], self.start[i], self.end[i], self.request[i])
            for i in range(len(self.names))
        ]

    def write(self, path) -> None:
        """One JSON array per line: id, parent, name, start, end, request."""
        with open(path, "w") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Total self time and call count per span name.

    spans: iterable of (id, parent, name, start, end, ...).  The covered
    part of a parent is the union of its children's intervals clipped to
    the parent, so overlapping children are not subtracted twice.
    """
    spans = list(spans)
    bounds = {s[0]: (s[3], s[4]) for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, parent, _name, start, end, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, _parent, name, start, end, *_ in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        totals[name] += (end - start) - covered
        calls[name] += 1
    return dict(totals), dict(calls)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from spans and counts."""
    self_s, calls = self_times(spans)

    def s(name):
        return self_s.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    return {
        "cli.parse_s": s("cli.parse"),
        "cli.render_s": s("cli.render"),
        "polytope.construct_calls": n("polytope.construct"),
        "polytope.construct_s": s("polytope.construct"),
        "polytope.basis_subsets": counts["polytope.basis_subsets"],
        "measure.volume_poly_s": s("measure.volume_poly"),
        "measure.moment_poly_calls": n("measure.moment_poly"),
        "measure.moment_poly_s": s("measure.moment_poly"),
        "measure.skeleton_polys_s": s("measure.skeleton_polys"),
        "measure.skeleton_barycenter_s": s("measure.skeleton_barycenter"),
        "measure.moment_reuse_ratio": _ratio(n("measure.cached_moment_poly"), n("measure.moment_poly")),
        "masslinear.mass_linear_test_s": s("masslinear.mass_linear_test"),
        "masslinear.symmetric_facets_calls": n("masslinear.symmetric_facets"),
        "masslinear.symmetric_facets_s": s("masslinear.symmetric_facets"),
        "masslinear.equivalence_classes_s": s("masslinear.equivalence_classes"),
        "masslinear.is_inessential_s": s("masslinear.is_inessential"),
        "masslinear.fully_mass_linear_s": s("masslinear.fully_mass_linear"),
        "masslinear.generating_vector_s": s("masslinear.generating_vector"),
        "masslinear.ml_share": _ratio(counts["masslinear.mass_linear_true"], n("masslinear.mass_linear_test")),
        "constructions.blowup_calls": n("constructions.blowup"),
        "constructions.blowup_s": s("constructions.blowup"),
        "constructions.blowdown_calls": n("constructions.blowdown"),
        "constructions.blowdown_s": s("constructions.blowdown"),
        "constructions.blowdown_ok_ratio": _ratio(counts["constructions.blowdown_ok"], n("constructions.blowdown")),
        "recognize.classify4d_s": s("recognize.classify4d"),
        "recognize.recognize_type_calls": n("recognize.recognize_type"),
        "recognize.recognize_type_s": s("recognize.recognize_type"),
        "recognize.replay_trace_s": s("recognize.replay_trace"),
        "recognize.trace_steps": counts["recognize.trace_steps"],
        "poly.mul_calls": n("poly.mul"),
        "poly.mul_s": s("poly.mul"),
        "poly.mul_term_pairs": counts["poly.mul_term_pairs"],
        "linalg.rref_calls": n("linalg.rref"),
        "linalg.rref_s": s("linalg.rref"),
    }
