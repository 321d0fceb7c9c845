"""Digest of every rendered perfbench report, per workload.

    PYTHONPATH=src python tests/report_digest.py 1 2 3 4 5

For each workload of ``perfbench.corpus`` and each seed given, every
round of ``corpus.generate(workload, seed)`` is served the way
``perfbench.bench._serve`` serves it: parse the document (once per run
where the workload reuses polytopes), check or classify, render with
``cli.dumps``.  A request that raises renders as its error.  Prints, per
workload, the number of rendered reports and one sha256 over all of
them, so two builds that print the same lines rendered the same bytes.
Reads ``perfbench`` and changes nothing there; Tier-1 does not collect
this file.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import corpus  # noqa: E402
from perfbench.bench import _serve  # noqa: E402


def workload_digest(workload: str, seeds) -> tuple[int, str]:
    """(number of reports, sha256 over all of them) for the workload."""
    sha, count = hashlib.sha256(), 0
    for seed in seeds:
        c = corpus.generate(workload, seed)
        parsed: dict = {}
        for rnd in c.rounds:
            for request in rnd:
                try:
                    text, _ = _serve(request, c.documents[request.source], parsed, c.reuse_polytopes)
                except Exception as exc:  # recorded as rendered, like a failing request
                    text = f"{type(exc).__name__}: {exc}"
                sha.update(text.encode() + b"\n")
                count += 1
    return count, sha.hexdigest()


def main(argv) -> None:
    if not argv:
        raise SystemExit("usage: python tests/report_digest.py SEED [SEED ...]")
    seeds = [int(s) for s in argv]
    for workload in corpus.WORKLOADS:
        count, digest = workload_digest(workload, seeds)
        print(f"{workload}: {count} reports, sha256 {digest}")


if __name__ == "__main__":
    main(sys.argv[1:])
