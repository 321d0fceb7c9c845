"""Closed-loop benchmark of the masslin document functions.

One client in one process sends one request at a time and waits for the
report, as a caller of ``masslin.cli`` does: parse the polytope document
(``document_to_polytope``), run ``check_document`` or
``classify_document``, render the report (``dumps``).  Reports are
checked afterwards by ``oracle``; a request fails when it raises or when
the check rejects its report.

A run executes a fixed number of rounds of its workload, sized from
``--seconds`` by the workload's nominal round time, so both sides of a
comparison do the same work.  A shared 2-CPU Linux machine changes
speed by tens of percent within seconds, so every request is
timed between two calls of a fixed reference loop (pure-Python exact
arithmetic, independent of masslin) and its time is rescaled to the
nominal speed of that loop.  Reported times are therefore in
reference-speed seconds; the raw times and the speed factor are printed
next to them, so the drift stays visible.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from masslin import cli

from . import corpus, oracle
from .tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# nominal reference-speed duration of one round, per workload
NOMINAL_ROUND_S = {"check_cold": 14.5, "check_scan": 4.2, "classify_blowups": 19.0}
MIN_ROUNDS = 2
SETUP_REPS = 3
SETUP_REF_LOOPS = 5  # reference loops on each side of one set-up

# ---------------------------------------------------------------------------
# machine speed reference

_REF_TERMS = tuple(
    ((i % 3, (i // 3) % 3, (i // 9) % 3, i // 27), Fraction(i + 1, 7 + i % 5)) for i in range(40)
)
REFERENCE_S = 0.012  # nominal duration of reference_loop()


def reference_loop() -> float:
    """Time one sparse product of two fixed 40-term rational polynomials,
    the kind of work that dominates the library."""
    t0 = perf_counter()
    acc: dict = {}
    for m1, c1 in _REF_TERMS:
        for m2, c2 in _REF_TERMS:
            m = tuple(a + b for a, b in zip(m1, m2))
            acc[m] = acc.get(m, Fraction(0)) + c1 * c2
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# running requests


@dataclass
class Result:
    request: corpus.Request
    seconds: float  # raw service time
    reference: float  # reference loop time around the request
    rendered: str | None
    error: str | None
    reused: bool
    problems: tuple[str, ...] = ()

    @property
    def scaled(self) -> float:
        """Service time at the nominal reference speed."""
        return self.seconds * REFERENCE_S / self.reference

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.problems)


def _serve(request, text, parsed, reuse):
    """One request: parse (or reuse) the polytope, run, render."""
    reused = reuse and request.source in parsed
    if reused:
        poly = parsed[request.source]
    else:
        poly = cli.document_to_polytope(json.loads(text))
        if reuse:
            parsed[request.source] = poly
    if request.op == "classify":
        report = cli.classify_document(poly, request.H)
    else:
        report = cli.check_document(poly, request.H)
    return cli.dumps(report), reused


def run_rounds(c: corpus.Corpus, rounds: int, tracer: Tracer | None = None) -> list[Result]:
    """Serve ``rounds`` rounds of the corpus (cycling through its rounds),
    then check every report."""
    parsed: dict = {}
    results: list[Result] = []
    ref_before = reference_loop()
    for r in range(rounds):
        for request in c.rounds[r % len(c.rounds)]:
            text = c.documents[request.source]
            sid = None
            if tracer is not None:
                tracer.request_id = len(results)
                sid = tracer.open("request")
            t0 = perf_counter()
            try:
                rendered, reused = _serve(request, text, parsed, c.reuse_polytopes)
                error = None
            except Exception as exc:  # a failing request is recorded, the run goes on
                where = traceback.extract_tb(exc.__traceback__)[-1]
                rendered, reused = None, False
                error = f"{type(exc).__name__}: {exc} ({Path(where.filename).name}:{where.lineno})"
            elapsed = perf_counter() - t0
            if sid is not None:
                tracer.close(sid)
            ref_after = reference_loop()
            results.append(Result(request, elapsed, (ref_before + ref_after) / 2,
                                  rendered, error, reused))
            ref_before = ref_after
    for res in results:
        if res.error is None:
            res.problems = tuple(oracle.check(res.request, c.documents[res.request.source],
                                              res.rendered))
    return results


# ---------------------------------------------------------------------------
# set-up


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import masslin.cli; "
    "print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Import time of masslin.cli in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


@dataclass(frozen=True)
class Setup:
    scaled_s: float  # median set-up time at the nominal reference speed
    raw_s: float
    deterministic: bool  # every generation produced the same bytes


def set_up(workload: str, seed: int) -> tuple[corpus.Corpus, Setup]:
    """Import masslin.cli and generate the corpus SETUP_REPS times.

    Each set-up lasts seconds, so it is rescaled by the mean of several
    reference loops around it: one loop alone is as noisy as the drift."""
    scaled, raw, dumps = [], [], set()
    for _ in range(SETUP_REPS):
        refs = [reference_loop() for _ in range(SETUP_REF_LOOPS)]
        t_import = import_seconds()
        t0 = perf_counter()
        c = corpus.generate(workload, seed)
        t = t_import + perf_counter() - t0
        refs += [reference_loop() for _ in range(SETUP_REF_LOOPS)]
        raw.append(t)
        scaled.append(t * REFERENCE_S / statistics.mean(refs))
        dumps.add(c.dump())
    return c, Setup(statistics.median(scaled), statistics.median(raw), len(dumps) == 1)


# ---------------------------------------------------------------------------
# metrics


def tail(values):
    """Value at the highest percentile with at least 10 samples beyond it,
    with that percentile (None when there are 10 samples or fewer)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], None
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(results: list[Result], setup_s: float) -> dict[str, float]:
    """Closed loop with one client: throughput is requests over the summed
    service time; every time is at the nominal reference speed."""
    scaled = [r.scaled for r in results]
    tail_s, _ = tail(scaled)
    return {
        "requests_per_s": len(results) / sum(scaled),
        "latency_p50_ms": 1000 * statistics.median(scaled),
        "latency_tail_ms": 1000 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


UNITS = {
    "requests_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s", "trace.overhead_ratio": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    return "count"


def describe(results: list[Result], workload: str) -> list[str]:
    """Human-readable facts about the request mix and the answers."""
    n = len(results)
    raw = [r.seconds for r in results]
    speed = statistics.median(REFERENCE_S / r.reference for r in results)
    tail_raw, pct = tail(raw)
    lines = [
        f"requests: {n} attempted, {sum(r.failed for r in results)} failed, "
        f"failed_ratio {sum(r.failed for r in results) / n:.4f}",
        f"latency tail percentile: p{pct:.1f} of {n} samples" if pct is not None
        else f"latency tail: maximum of {n} samples (10 or fewer)",
        f"raw: {n / sum(raw):.4f} req/s, p50 {1000 * statistics.median(raw):.1f} ms, "
        f"tail {1000 * tail_raw:.1f} ms; machine speed factor {speed:.3f} "
        f"(reference loop median {1000 * statistics.median(r.reference for r in results):.2f} ms, "
        f"nominal {1000 * REFERENCE_S:.2f} ms)",
        "kinds: " + ", ".join(f"{k} {v}" for k, v in sorted(Counter(r.request.expect.kind for r in results).items())),
    ]
    reports = [json.loads(r.rendered) for r in results if r.rendered is not None]
    if workload.startswith("check"):
        non_ml = sum(rep.get("mass_linear") is False for rep in reports)
        lines.append(f"not mass linear: {non_ml}/{len(reports)} = {non_ml / max(1, len(reports)):.3f}")
        reused = sum(r.reused for r in results)
        lines.append(f"polytope reused: {reused}/{n} = {reused / n:.3f}")
    else:
        lengths = Counter(len(rep.get("trace", ())) for rep in reports)
        lines.append("trace lengths: " + ", ".join(f"{k} steps x{v}" for k, v in sorted(lengths.items())))
        types = Counter(str(rep.get("type")) for rep in reports)
        lines.append("types: " + ", ".join(f"{k} x{v}" for k, v in sorted(types.items())))
    for r in results:
        if r.failed:
            lines.append(f"FAILED {r.request.rid} H={r.request.H}: {r.error or '; '.join(r.problems)}")
    return lines


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the lines printed before it."""
    c, setup = set_up(workload, seed)
    return measure(c, rounds_for(workload, seconds), trace, setup)


def measure(c: corpus.Corpus, rounds: int, trace: bool, setup: Setup) -> tuple[dict, list[str]]:
    lines = [f"workload {c.workload}: {corpus.WORKLOADS[c.workload]}",
             f"seed {c.seed}, {rounds} rounds of {len(c.rounds[0])} requests, closed loop, 1 client",
             f"setup: {setup.raw_s:.3f} s raw (median of {SETUP_REPS}), corpus byte-identical "
             f"across generations: {setup.deterministic}"]
    if not trace:
        results = run_rounds(c, rounds)
        metrics = end_to_end(results, setup.scaled_s)
    else:
        half = max(1, rounds // 2)
        plain = run_rounds(c, half)
        tracer = Tracer()
        tracer.install()
        try:
            results = run_rounds(c, half, tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer.spans(), tracer.counts)
        overhead = sum(r.scaled for r in results) / sum(r.scaled for r in plain)
        metrics["trace.overhead_ratio"] = overhead
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{c.workload}-seed{c.seed}.jsonl"
        tracer.write(span_file)
        lines.append(f"traced {half} rounds after {half} untraced ones; tracing overhead "
                     f"{overhead:.3f}x ({len(tracer.names)} spans written to "
                     f"{span_file.relative_to(ROOT)})")
        lines.append("computed, not counted inside the library: polytope.basis_subsets = "
                     "sum of C(N, n) over HPolytope builds; poly.mul_term_pairs = sum of "
                     "|p|*|q| over products (|p| when one side is a scalar); *_s are self times")
        results = plain + results
    lines += describe(results, c.workload)
    for name, value in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit_of(name)}")
    failed = sum(r.failed for r in results)
    result = {
        "correct": failed == 0 and setup.deterministic,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    return result, lines
