#!/usr/bin/env python3
"""Benchmark of the rdfsupd library: run one workload, print its metrics.

    python3 rdfbench/run.py --workload query|update --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory, nothing needs installing.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  `--trace 0` reports the end-to-end metrics, `--trace 1` the
per-layer ones and writes the spans under `.rdfbench/`.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
HASH_SEED = "0"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["query", "update"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    # String hashing decides how the program's sets and dicts lay out, and
    # with a fresh random key per process it moved timings by about 10%
    # between runs of one seed.  One fixed key takes that noise out; the
    # process re-executes itself to get it.
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__),
                                   *sys.argv[1:]], env)

    sys.path[:0] = [HERE, SRC]
    try:
        import rdfsupd
    except ImportError as exc:
        print(f"rdfbench: cannot import rdfsupd from {SRC}: {exc}", file=sys.stderr)
        return 2
    if os.path.dirname(os.path.dirname(os.path.abspath(rdfsupd.__file__))) != SRC:
        print(f"rdfbench: rdfsupd comes from {rdfsupd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           os.path.join(ROOT, ".rdfbench"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
