"""Tests of the benchmark itself: determinism, the answer check, self
times and a tiny run of every workload.

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from math import comb
from pathlib import Path

import pytest

from masslin import HPolytope, YkBundleSpec, bundle_Yk, center_of_mass, minimal_family_a3
from masslin import cli
from perfbench import bench, corpus, oracle
from perfbench.tracer import Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _serve(request, c):
    text = c.documents[request.source]
    rendered, _ = bench._serve(request, text, {}, False)
    return text, rendered


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_same_seed_same_bytes(workload):
    first = corpus.generate(workload, 11)
    assert first.dump() == corpus.generate(workload, 11).dump()
    assert first.dump() != corpus.generate(workload, 12).dump()


def test_slots_do_not_depend_on_seed():
    for workload in corpus.WORKLOADS:
        a, b = corpus.generate(workload, 1), corpus.generate(workload, 2)
        assert [[r.rid for r in rnd] for rnd in a.rounds] == [[r.rid for r in rnd] for rnd in b.rounds]


def test_closed_form_pairing_matches_center_of_mass():
    spec = YkBundleSpec(2, (1, 2), (1, -1, 2, 1, 7))
    poly = bundle_Yk(spec)
    for g in ((1, -1, 0), (2, 1, -3), (-2, 1, 1)):
        H = corpus.combine(g + (0, 0), poly.conormals)
        expected = sum(h * c for h, c in zip(H, center_of_mass(poly)))
        assert oracle.segment_bundle_pairing(2, (1, 2), g, poly.support) == expected


def test_flipped_verdict_fails():
    c = corpus.generate("check_cold", 3)
    request = next(r for r in c.rounds[0] if r.expect.kind == "twist")
    text, rendered = _serve(request, c)
    assert oracle.check(request, text, rendered) == []
    report = json.loads(rendered)
    report["mass_linear"] = not report["mass_linear"]
    assert oracle.check(request, text, cli.dumps(report))


def test_wrong_inessential_and_gamma_fail():
    c = corpus.generate("check_scan", 3)
    request = next(r for r in c.rounds[0] if r.expect.kind == "inessential")
    text, rendered = _serve(request, c)
    assert oracle.check(request, text, rendered) == []
    report = json.loads(rendered)
    report["inessential"] = False
    assert oracle.check(request, text, cli.dumps(report))
    report = json.loads(rendered)
    report["gamma"] = list(reversed(report["gamma"]))
    assert oracle.check(request, text, cli.dumps(report))


def test_wrong_classify_type_fails():
    c = corpus.generate("classify_blowups", 3)
    request = next(r for r in c.rounds[0] if r.rid.startswith("a1_x1"))
    text, rendered = _serve(request, c)
    assert oracle.check(request, text, rendered) == []
    report = json.loads(rendered)
    report["type"] = "a2"
    assert oracle.check(request, text, cli.dumps(report))
    report = json.loads(rendered)
    report["trace"][0]["epsilon"] = "1/1000"
    assert oracle.check(request, text, cli.dumps(report))


@pytest.mark.xfail(strict=True, reason="recognize builds the base polygon of a triangle "
                   "bundle from untranslated support numbers")
def test_translated_a3_pair_classifies():
    base = minimal_family_a3(7)
    xi = (-1, 2, 0, 1)
    support = tuple(k + sum(e * x for e, x in zip(eta, xi))
                    for eta, k in zip(base.conormals, base.support))
    poly = HPolytope(4, base.conormals, support, base.labels)
    H = corpus.combine(corpus.A3_GAMMA + (0,) * 4, poly.conormals)
    assert cli.classify_document(poly, H)["type"] == "a3"


def test_failed_report_counts_as_failed():
    c = corpus.generate("check_cold", 3)
    request = next(r for r in c.rounds[0] if r.expect.kind == "twist")
    k, a, g = request.expect.twist
    # an untwisted bundle of the same shape: the criterion now says mass linear
    wrong = replace(request, expect=replace(request.expect, twist=(k, (0,) * k, g)))
    results = bench.run_rounds(replace(c, rounds=((wrong,),)), 1)
    assert results[0].failed and results[0].problems


def test_self_time_on_hand_built_tree():
    # id, parent, name, start, end
    spans = [
        (0, -1, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 0, "b", 3.0, 6.0),  # overlaps a: root covers 1..6 once
        (3, 1, "leaf", 2.0, 3.0),
        (4, 0, "a", 7.0, 8.0),
    ]
    totals, calls = self_times(spans)
    assert totals == pytest.approx({"root": 4.0, "a": 3.0, "b": 3.0, "leaf": 1.0})
    assert calls == {"root": 1, "a": 2, "b": 1, "leaf": 1}


def test_tracer_patches_and_restores():
    import masslin.masslinear as ml
    from masslin.poly import MultiPoly

    originals = (ml.volume_poly, MultiPoly.__mul__, HPolytope.__dict__["__post_init__"])
    tracer = Tracer()
    tracer.install()
    try:
        poly = bundle_Yk(YkBundleSpec(2, (1, 0), (0, 0, 1, 0, 3)))
        report = cli.check_document(poly, (1, -1, 0))
    finally:
        tracer.uninstall()
    assert (ml.volume_poly, MultiPoly.__mul__, HPolytope.__dict__["__post_init__"]) == originals
    spans = tracer.spans()
    by_id = {s[0]: s for s in spans}
    assert all(s[1] == -1 or by_id[s[1]][3] <= s[3] <= s[4] <= by_id[s[1]][4] for s in spans)
    metrics = layer_metrics(spans, tracer.counts)
    assert metrics["polytope.construct_calls"] == 1
    assert metrics["polytope.basis_subsets"] == comb(5, 3)
    assert metrics["poly.mul_calls"] > 0 and metrics["poly.mul_term_pairs"] >= metrics["poly.mul_calls"]
    assert metrics["masslinear.ml_share"] == int(report["mass_linear"])
    assert metrics["masslinear.symmetric_facets_calls"] == int(not report["mass_linear"])


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(workload, trace):
    c, setup = bench.set_up(workload, 5)
    tiny = replace(c, rounds=tuple(rnd[:2] for rnd in c.rounds))
    result, lines = bench.measure(tiny, 2, trace, setup)
    assert result["correct"], lines
    assert result["attempted"] == 4 and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert sorted(result["metrics"]) == sorted(units)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float))
        assert metric["unit"] == units[name]
    json.dumps(result)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
