"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload check_cold --seed 1 --seconds 25 --trace 0

Workloads: check_cold, check_scan, classify_blowups (see
``perfbench/corpus.py``), or ``all`` for each of them in turn.  Each
workload prints a report and then one line holding a JSON object: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run and the tracing overhead.  The
library is imported from ``src/`` next to this directory; without it the
script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "masslin" / "__init__.py").is_file():
        print(f"error: no masslin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench, corpus

    names = list(corpus.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in corpus.WORKLOADS for name in names):
        parser.error(f"--workload must be all or one of {', '.join(corpus.WORKLOADS)}")
    for name in names:
        result, lines = bench.run(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
