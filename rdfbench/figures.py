#!/usr/bin/env python3
"""Measure the reference figures that README.md quotes.

    python3 rdfbench/figures.py

Runs on the stores with randomly drawn domain and range classes (seed 1)
that the figures describe, with no cap: the 3-atom rewriting and the deep
`mat2` update run to completion, so this takes several minutes.  Prints one
line per figure.
"""

from __future__ import annotations

import builtins
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
from rdfsupd import (  # noqa: E402
    Semantics, answers_rdfs_materialisation, answers_rdfs_rewriting, materialise,
    parse_query, parse_turtle, parse_update, reduce_store, rewrite_bgp, run,
)
from rdfsupd import update as update_mod  # noqa: E402
from rdfsupd.model import Var  # noqa: E402

SMALL = gen.Shape(20, 6, 100, 1000, 250, random_dr=True)
TINY = gen.Shape(20, 6, 25, 200, 60, random_dr=True)


def load(shape):
    tb, ab = gen.store(shape, 1)
    store = parse_turtle(gen.turtle(tb + ab))
    return store, materialise(store), reduce_store(store)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main():
    plain, mat, red = load(SMALL)
    print(f"store: {len(plain.abox)} assertions, {len(plain.tbox)} axioms, "
          f"{len(mat.abox)} after materialise, {len(red.abox)} after reduce_store")
    reps = [timed(lambda: materialise(plain))[1] for _ in range(30)]
    print(f"materialise: median {1e3 * statistics.median(reps):.1f} ms "
          f"(min {1e3 * min(reps):.1f}, max {1e3 * max(reps):.1f}) over 30 calls")

    q = parse_query("SELECT ?X ?Y WHERE { ?X a :C19 . ?X :p6 ?Y . ?Y a :C16 . }")
    disjuncts = len(rewrite_bgp(next(iter(q.where.disjuncts)), red.tbox).ucq)
    by_mat, t_mat = timed(lambda: answers_rdfs_materialisation(q.where, mat, q.select_vars))
    by_rew, t_rew = timed(lambda: answers_rdfs_rewriting(q.where, red, q.select_vars))
    print(f"3-atom query: {disjuncts} disjuncts; rewriting {t_rew:.1f} s, "
          f"materialisation {t_mat:.1f} s, {len(by_rew)} rows, "
          f"{'same' if by_rew == by_mat else 'DIFFERENT'} answers")

    tplain, tmat, _ = load(TINY)
    print(f"small store: {len(tplain.abox)} assertions")
    for k in (3, 5, 7, 9):
        op = parse_update(f"DELETE {{ ?X a :C{k} }} INSERT {{ ?X a :C{k + 1} }} "
                          f"WHERE {{ ?X a :C{k} . ?X :p1 ?Y }}")
        _, t2 = timed(lambda: run(tmat, op, Semantics.MAT2))
        _, t0 = timed(lambda: run(tmat, op, Semantics.MAT0))
        print(f"  C{k} delete: mat2 {t2:.2f} s, mat0 {1e3 * t0:.1f} ms")

    # Solutions the rewritten WHERE clause yields, before grounding.
    seen = []
    original = update_mod.update_solutions

    def counting(*args, **kwargs):
        for item in original(*args, **kwargs):
            seen.append(item[0])
            yield item

    update_mod.update_solutions = counting
    try:
        op = parse_update("DELETE { ?X a :C3 } INSERT { ?X a :C4 } "
                          "WHERE { ?X a :C3 . ?X :p1 ?Y }")
        _, t = timed(lambda: run(mat, op, Semantics.MAT2))
    finally:
        update_mod.update_solutions = original
    distinct = {frozenset(s.items()) for s in seen}
    on_x = {s.get(Var("X")) for s in seen}
    print(f"mat2 C3 delete: {len(seen)} WHERE solutions, {len(distinct)} distinct, "
          f"{len(on_x)} distinct on ?X; {t:.1f} s")

    # `sorted` calls made by update.py while grounding templates.
    calls = [0]

    def counting_sorted(*args, **kwargs):
        calls[0] += 1
        return builtins.sorted(*args, **kwargs)

    update_mod.sorted = counting_sorted
    try:
        op = parse_update("DELETE { ?X a :C12 } INSERT { ?X a :C4 } WHERE { ?X a :C12 }")
        _, t = timed(lambda: run(mat, op, Semantics.MAT2))
    finally:
        del update_mod.sorted
    print(f"mat2 C12 delete: {calls[0]} sorted() calls in update.py; {t:.1f} s")


if __name__ == "__main__":
    main()
