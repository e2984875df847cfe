#!/usr/bin/env python3
"""Print the make-up of each workload's inputs for one seed.

    python3 rdfbench/describe.py [--seed N]

Store sizes, the base store of every strategy, one instance of every query
shape with its disjunct count, and the update sequence.  README.md quotes
its output for seed 1.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
import workloads as W  # noqa: E402
from rdfsupd import parse_query, rewrite_bgp  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    for wl in W.WORKLOADS.values():
        s = W.Bench(wl, seed)
        s.setup()
        plain, mat, red, boot = (s.base["naive"], s.snap["mat"], s.snap["rewrite"],
                                 s.base["mat1b"])
        sh = wl.shape
        print(f"## {wl.name}\n")
        if sh.balanced:
            drawn = (f"{sh.roles} role assertions over {sh.individuals} individuals, "
                     f"{sh.class_facts} more individuals with one class assertion each, "
                     f"every property, individual and class equally often")
        else:
            drawn = (f"{sh.individuals} individuals, {sh.roles} role and "
                     f"{sh.class_facts} class assertions drawn")
        print(f"- shape: {sh.classes}-class chain, {sh.props}-property chain, {drawn}")
        print(f"- document: {len(plain.tbox)} axioms, {len(plain.abox)} assertions; "
              f"materialised {len(mat.abox)} assertions and {len(mat.tbox)} axioms; "
              f"reduced {len(red.abox)}; bootstrapped {len(boot.abox_explicit)} "
              f"explicit + {len(boot.abox_implicit)} implicit")
        print("- assertions in the base store of each strategy: " + ", ".join(
            f"{sem} {len(store.abox)}" for sem, store in s.base.items()))
        print(f"- per round: load operations x{W.LOAD_REPS}, queries "
              f"x{wl.query_reps} per shape on both routes"
              f"{' (each on a fresh snapshot copy)' if wl.fresh_snapshots else ''}")
        for shape in wl.queries:
            vars_, atoms = next(s.streams[shape.name])
            q = parse_query(gen.select_text(vars_, atoms))
            n = len(rewrite_bgp(next(iter(q.where.disjuncts)), red.tbox).ucq)
            print(f"- query `{shape.name}` x{shape.reps or wl.query_reps}: "
                  f"`{gen.select_text(vars_, atoms)}`: {n} disjuncts")
        for spec, d, i, w, text, _ in s.updates:
            print(f"- update `{spec.name}` ({', '.join(spec.strategies)}): `{text}`")
        print()


if __name__ == "__main__":
    main()
