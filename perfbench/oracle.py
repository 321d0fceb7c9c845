"""Answer checks that do not depend on the code being measured.

Every check works from the input document (parsed here with ``json`` and
``Fraction``), the planted expectation of the request and the rendered
report, using only exact rational arithmetic written in this benchmark.  A
check returns the list of problems it found; an empty list passes.

Invariants checked on every ``check`` report:

* gamma reconstructs H (H = sum gamma_i eta_i), the reported pairing is
  gamma . kappa and equals <H, B_n>, the last skeleton pairing (the
  barycenter of the n-skeleton is the center of mass), the symmetric
  facets are exactly those with gamma_i = 0, and a generating vector xi
  satisfies <eta_i, xi> = gamma_i;
* an inessential witness beta reconstructs H and sums to zero over every
  reported equivalence class; inessential implies mass linear;
* essential = mass linear and not inessential; fully mass linear implies
  equal skeleton pairings; the facet partitions cover every label once.

Planted answers: the twist criterion and closed-form pairing on Y_k
bundles, the planted gamma of closed-form mass linear functionals, and
the inessential verdict of in-class conormal differences.

Classification reports are checked for the planted family, for a trace
that rebuilds the input facet by facet (blowup arithmetic done here), and
for the planted gamma surviving unchanged on the terminal polytope.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .corpus import combine


def facets_of(doc: dict):
    """(normals, kappas, labels) of a polytope document."""
    normals = [tuple(f["normal"]) for f in doc["facets"]]
    kappas = [Fraction(f["kappa"]) for f in doc["facets"]]
    labels = [f["label"] for f in doc["facets"]]
    return normals, kappas, labels


def _dot(u, v) -> Fraction:
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


def _fracs(values):
    return None if values is None else [Fraction(x) for x in values]


def segment_bundle_pairing(k: int, a, g, kappa) -> Fraction:
    """<H, center of mass> on the simplex bundle Y_k over a segment, for the
    fiber functional H = sum_{i<=k} g_i eta_i (sum g = 0).

    With x_i' = x_i + kappa_i (i < k) and y' = y + kappa_{k+1}, the bundle
    becomes {x' in lam * simplex_k, 0 <= y' <= h - a.x'} with
    lam = kappa_0 + ... + kappa_k and h = a.kappa_{<k} + kappa_{k+1} +
    kappa_{k+2}.  Integrating over the height first, with
    int x_i = lam^(k+1)/(k+1)!, int x_i x_j = lam^(k+2)/(k+2)! (i != j)
    and int x_i^2 = 2 lam^(k+2)/(k+2)! over lam * simplex_k, gives

        V = lam^k ((k+1) h - lam S) / (k+1)!,        S = sum a_i,

    and, since H.x' = sum_{i<k} (g_k - g_i) x_i',

        <H, c'> = g_k lam + (sum g_i a_i) lam^2 / ((k+2)((k+1) h - lam S)).

    Undoing the shift subtracts sum_{i<k} (g_k - g_i) kappa_i.  The pairing
    is linear in kappa exactly when sum g_i a_i = 0.
    """
    lam = sum(kappa[: k + 1], Fraction(0))
    h = _dot(a, kappa[:k]) + kappa[k + 1] + kappa[k + 2]
    S = sum(a)
    ga = sum(x * y for x, y in zip(g, a))
    pairing = g[k] * lam + Fraction(ga) * lam**2 / ((k + 2) * ((k + 1) * h - lam * S))
    return pairing - sum(((g[k] - g[i]) * kappa[i] for i in range(k)), Fraction(0))


def check_report(request, doc: dict, out: dict) -> list[str]:
    normals, kappa, labels = facets_of(doc)
    n, H = doc["dim"], request.H
    problems: list[str] = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    need(out.get("command") == "check", "not a check report")
    need(out["functional"] == [str(h) for h in H], "functional echo differs")
    need(out["smooth"] is True, "smooth polytope reported non-smooth")
    sym, asym = out["symmetric"], out["asymmetric"]
    need(sorted(sym + asym) == sorted(labels), "symmetric/asymmetric do not partition the facets")
    need(sorted(l for c in out["equivalence_classes"] for l in c) == sorted(labels),
         "equivalence classes do not partition the facets")
    pairings = _fracs(out["skeleton_pairings"])
    need(len(pairings) == n + 1, "wrong number of skeleton pairings")
    center = pairings[-1]

    ml = out["mass_linear"]
    gamma = _fracs(out["gamma"])
    if ml:
        need(gamma is not None and len(gamma) == len(labels), "mass linear without gamma")
        if gamma is not None and len(gamma) == len(labels):
            need(combine(gamma, normals) == tuple(H), "gamma does not reconstruct H")
            need(out["pairing"] is not None and Fraction(out["pairing"]) == _dot(gamma, kappa),
                 "pairing is not gamma . kappa")
            need(_dot(gamma, kappa) == center, "gamma . kappa differs from <H, center>")
            need(set(sym) == {lab for lab, g in zip(labels, gamma) if g == 0},
                 "symmetric facets are not the zero coefficients")
            xi = _fracs(out["generating_vector"])
            if xi is not None:
                need(all(_dot(eta, xi) == g for eta, g in zip(normals, gamma)),
                     "generating vector does not reproduce gamma")
    else:
        need(gamma is None and out["pairing"] is None and out["generating_vector"] is None,
             "non mass linear report carries gamma data")
    iness = out["inessential"]
    if iness:
        need(ml, "inessential but not mass linear")
        beta = _fracs(out["beta"])
        need(beta is not None and combine(beta, normals) == tuple(H), "beta does not reconstruct H")
        if beta is not None:
            weight = dict(zip(labels, beta))
            need(all(sum(weight[l] for l in c) == 0 for c in out["equivalence_classes"]),
                 "beta does not sum to zero on every class")
    need(out["essential"] == (ml and not iness), "essential flag inconsistent")
    if out["fully_mass_linear"]:
        need(len(set(pairings)) == 1, "fully mass linear with unequal skeleton pairings")

    e = request.expect
    if e.kind == "twist":
        k, a, g = e.twist
        expected = sum(x * y for x, y in zip(g, a)) == 0
        need(ml == expected, f"twist criterion says mass_linear={expected}")
        need(center == segment_bundle_pairing(k, a, g, kappa), "<H, center> differs from the closed form")
        if expected and gamma is not None:
            need(gamma == [Fraction(x) for x in g] + [0, 0], "gamma differs from the twist coefficients")
    if e.kind in ("ml", "inessential") and e.gamma is not None:
        need(ml, "planted mass linear functional reported not mass linear")
        need(gamma == list(e.gamma), "gamma differs from the planted coefficients")
        need(center == _dot(e.gamma, kappa), "<H, center> differs from planted gamma . kappa")
    if e.kind == "inessential":
        need(iness, "in-class conormal difference reported essential")
    return problems


def replay(terminal: dict, trace: list[dict]):
    """Rebuild facets from the terminal document by undoing each blowdown:
    the removed facet returns at its position with conormal the sum over
    its face and support the face's sum minus epsilon."""
    normals, kappas, labels = facets_of(terminal)
    for step in reversed(trace):
        idx = [labels.index(lab) for lab in step["face"]]
        eta = tuple(sum(normals[i][r] for i in idx) for r in range(len(normals[0])))
        k = sum((kappas[i] for i in idx), Fraction(0)) - Fraction(step["epsilon"])
        pos = step["position"]
        normals.insert(pos, eta)
        kappas.insert(pos, k)
        labels.insert(pos, step["removed"])
    return normals, kappas, labels


def check_classification(request, doc: dict, out: dict) -> list[str]:
    e = request.expect
    problems: list[str] = []

    def need(ok, what):
        if not ok:
            problems.append(what)

    need(out.get("command") == "classify", "not a classify report")
    need(out["type"] == e.family, f"type {out['type']} is not the planted family {e.family}")
    need(out["terminal_essential"] == (e.family != "b"), "terminal essential flag wrong for the family")
    normals, kappas, labels = facets_of(doc)
    try:
        rebuilt = replay(out["terminal"], out["trace"])
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"trace does not replay: {exc}")
    else:
        need(rebuilt == (normals, kappas, labels), "trace replay does not rebuild the input")
    planted = dict(zip(labels, e.gamma))
    removed = [s["removed"] for s in out["trace"]]
    need(all(planted.get(lab) == 0 for lab in removed), "a removed facet had a nonzero coefficient")
    terminal_labels = [f["label"] for f in out["terminal"]["facets"]]
    need(_fracs(out["terminal_gamma"]) == [planted.get(lab) for lab in terminal_labels],
         "gamma changed along the trace")
    return problems


def check(request, doc_text: str, rendered: str) -> list[str]:
    """Check one rendered report against its request and input document."""
    doc = json.loads(doc_text)
    try:
        out = json.loads(rendered)
        if request.op == "classify":
            return check_classification(request, doc, out)
        return check_report(request, doc, out)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
