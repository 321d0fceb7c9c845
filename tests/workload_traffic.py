"""Call counts of the library's functions, per perfbench workload.

    PYTHONPATH=src python tests/workload_traffic.py 1 2

For each workload of ``perfbench.corpus`` and each seed given, the corpus
is generated (set-up) and every round is served once the way
``tests/report_digest.py`` serves it (serving).  A profile hook counts
each entry into a function whose code lies in ``src/masslin/``: lambdas
and nested functions count, comprehensions do not, and a generator
counts when it starts, not when it resumes.  A function under
``polytope.memoize`` runs only when its memo misses; the memo's wrapper
counts every request.  Prints one line per workload and function that
ran, ``workload  setup  serving  module.qualname``, sorted by name.
Reads ``perfbench`` and changes nothing there; Tier-1 does not collect
this file.
"""

import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import masslin  # noqa: E402
from perfbench import corpus  # noqa: E402
from perfbench.bench import _serve  # noqa: E402

SOURCE = str(Path(masslin.__file__).resolve().parent)
SKIPPED = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>", "<module>"}
GENERATOR = 0x20 | 0x200  # CO_GENERATOR | CO_ASYNC_GENERATOR


def _counting(counts: Counter):
    """A profile hook that adds one to counts[module.qualname] per call."""
    names: dict = {}

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        # a generator enters at a RESUME whose argument is 0 when it starts
        if code.co_flags & GENERATOR and code.co_code[frame.f_lasti + 1]:
            return
        name = names.get(code)
        if name is None:
            path = Path(code.co_filename).resolve()
            inside = str(path).startswith(SOURCE) and code.co_name not in SKIPPED
            name = names[code] = f"{path.stem}.{code.co_qualname}" if inside else ""
        if name:
            counts[name] += 1

    return hook


def workload_traffic(workload: str, seeds) -> tuple[Counter, Counter]:
    """(set-up counts, serving counts) over the seeds."""
    setup, serving = Counter(), Counter()
    for seed in seeds:
        sys.setprofile(_counting(setup))
        try:
            c = corpus.generate(workload, seed)
        finally:
            sys.setprofile(None)
        parsed: dict = {}
        sys.setprofile(_counting(serving))
        try:
            for rnd in c.rounds:
                for request in rnd:
                    try:
                        _serve(request, c.documents[request.source], parsed, c.reuse_polytopes)
                    except Exception:  # a failing request still counts what it ran
                        pass
        finally:
            sys.setprofile(None)
    return setup, serving


def main(argv) -> None:
    if not argv:
        raise SystemExit("usage: python tests/workload_traffic.py SEED [SEED ...]")
    seeds = [int(s) for s in argv]
    for workload in corpus.WORKLOADS:
        setup, serving = workload_traffic(workload, seeds)
        for name in sorted(setup.keys() | serving.keys()):
            print(f"{workload}  {setup[name]}  {serving[name]}  {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
