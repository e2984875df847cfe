#!/usr/bin/env python3
"""Show that every check of the benchmark rejects a corrupted output.

    python3 rdfbench/selfcheck.py

For each kind of output (load texts, the check verdict, query answers,
update results of each family, the insert-only agreement) this takes an
output the program produced on the `update` workload's inputs, checks that
it passes, corrupts one fact of it, and checks that it fails.  Exits 1 if
any corrupted output passes or any true output fails.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import gen  # noqa: E402
import ref  # noqa: E402
import workloads as W  # noqa: E402
from rdfsupd import entailment, query, sparql, turtle, update  # noqa: E402
from rdfsupd.model import ClassAtom, Iri, EXAMPLE_NS  # noqa: E402
from rdfsupd.query import AnswerSet  # noqa: E402

failures = []


def expect(label, problem, should_fail):
    ok = bool(problem) == should_fail
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {problem or 'passes'}")
    if not ok:
        failures.append(label)


def iri(name):
    return Iri(EXAMPLE_NS + name)


def main() -> int:
    s = W.Bench(W.WORKLOADS["update"], 1)
    s.setup()
    s.prepare()
    plain, mat, red = s.base["naive"], s.snap["mat"], s.snap["rewrite"]

    text = turtle.serialize_turtle(entailment.materialise(plain))
    expect("load/mat", s.check_mat_text(text), False)
    lines = text.splitlines()
    expect("load/mat, one fact dropped",
           s.check_mat_text("\n".join(lines[:-1]) + "\n"), True)

    text = turtle.serialize_turtle(entailment.reduce_store(plain))
    expect("load/red", s.check_red_text(text), False)
    inst, _, cls = next(f for f in s.doc_abox if f[1] == gen.TYPE)
    sup = next(c for c in s.tbox.sup_c[cls] if c != cls)
    expect("load/red, derivable fact added",
           s.check_red_text(text + gen.triple_text(inst, gen.TYPE, sup) + "\n"), True)
    expect("load/red, last fact dropped", s.check_red_text(
        "\n".join(text.splitlines()[:-1]) + "\n"), True)

    verdict = (entailment.is_materialised(plain), entailment.is_reduced(plain))
    expect("load/check", None if verdict == s.expect_check else "differs", False)
    flipped = (not verdict[0], verdict[1])
    expect("load/check, verdict flipped",
           None if flipped == s.expect_check else "differs", True)

    vars_, atoms = next(s.streams["p6"])
    q = sparql.parse_query(gen.select_text(vars_, atoms))
    want = ref.answers(vars_, atoms, s.index)
    for route, fn, snap in (("rewrite", query.answers_rdfs_rewriting, red),
                            ("mat", query.answers_rdfs_materialisation, mat)):
        ans = fn(q.where, snap, q.select_vars)
        expect(f"query {route}", None if W.rows_of(ans) == want else "differs", False)
        bad = AnswerSet(ans.vars, frozenset(list(ans.rows)[1:]) if ans.rows else
                        frozenset({(iri("i0"),)}))
        expect(f"query {route}, one row changed",
               None if W.rows_of(bad) == want else "differs", True)

    for spec, d, i, w, utext, _ in s.updates:
        if spec.name != "ins_data":
            continue
        op = sparql.parse_update(utext)
        results = {}
        for sem in W.STRATEGIES:
            before = s.base[sem]
            after = update.run(before, op, update.Semantics(sem))
            results[sem] = (before, after)
            expect(f"update {sem}", s.check_update(
                sem, spec, d, i, w, W.facts_of(before), W.facts_of(after)), False)
            # Drop the inserted fact (naive, mat0) or one it implies (the
            # other mat-family strategies), or add a derivable one (red).
            ind, _, cls = i[0]
            sup = sorted(s.tbox.sup_c[cls] - {cls})[0]
            if sem in ("naive", "mat0", *W.MAT_FAMILY):
                gone = ClassAtom(iri(ind), iri(cls if sem in ("naive", "mat0") else sup))
                bad = type(after)(after.tbox, after.abox_explicit - {gone},
                                  after.abox_implicit - {gone}, after.mode)
            else:
                bad = type(after)(after.tbox, after.abox_explicit | {
                    ClassAtom(iri(ind), iri(sup))}, frozenset(), after.mode)
            expect(f"update {sem}, result corrupted", s.check_update(
                sem, spec, d, i, w, W.facts_of(before), W.facts_of(bad)), True)
        steps = {(sem, spec.name): tuple(map(W.fingerprint, results[sem]))
                 for sem in W.INSERT_AGREE}
        expect("insert-only agreement", "; ".join(s.disagreements(steps)), False)
        before, after = results["mat2"]
        gone = ClassAtom(iri(i[0][0]), iri(i[0][2]))
        steps["mat2", spec.name] = (W.fingerprint(before), W.fingerprint(type(after)(
            after.tbox, after.abox_explicit - {gone}, after.abox_implicit - {gone},
            after.mode)))
        expect("insert-only agreement, mat2 result changed",
               "; ".join(s.disagreements(steps)), True)

    s.verified["load/check"] = W.fingerprint(verdict)
    expect("later rounds: verdict flipped", s._once("load/check", flipped, None), True)
    s.verified["naive/ins_data"] = W.fingerprint(results["naive"][1])
    expect("later rounds: update result changed",
           s._once("naive/ins_data", results["naive"][0], None), True)
    s.verified["load/mat"] = W.fingerprint(text)
    expect("later rounds: text changed", s._once("load/mat", text + " ", None), True)

    print(f"{len(failures)} check(s) misbehaved" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
