"""Command-line front end.

One verb per engine operation:

    rdfsupd query  QUERY FILE...   answer a SELECT query
    rdfsupd update UPDATE FILE...  run an update under a chosen strategy
    rdfsupd mat    FILE...         materialise and print the store
    rdfsupd red    FILE...         reduce and print the store
    rdfsupd check  FILE...         report whether the store is
                                   materialised and/or reduced
    rdfsupd diff   OLD NEW         print the triple-level difference

`python -m rdfsupd ...` is the same as `rdfsupd ...` without an install.

Input files are the Turtle subset, merged in argument order.  Output is
deterministic: identical inputs produce byte-identical output.

Exit codes: 0 success, 1 unreadable or unwritable file, 2 syntax/vocabulary
error or unknown strategy name, 3 unsupported feature, 4 store mode
incompatible with the requested strategy, 70 internal error (any other
exception: a bug in the engine, not in the input; its traceback is printed).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import Optional

from rdfsupd import update as upd
from rdfsupd.entailment import is_materialised, is_reduced, materialise, reduce_store
from rdfsupd.errors import (
    ModeError,
    NonStandardUse,
    ParseError,
    UnknownSemantics,
    UnsupportedFeature,
    VarInPredicate,
)
from rdfsupd.model import StoreMode, TripleStore, atom_to_triple, store_diff
from rdfsupd.query import (
    answers_rdfs_materialisation,
    answers_rdfs_rewriting,
    eval_simple,
)
from rdfsupd.sparql import parse_query, parse_update
from rdfsupd.turtle import _render_triple, parse_turtle, serialize_turtle


def _load(paths: list[str]) -> TripleStore:
    tbox, abox = frozenset(), frozenset()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            store = parse_turtle(fh.read())
        tbox |= store.tbox
        abox |= store.abox
    return TripleStore(tbox, abox, frozenset(), StoreMode.PLAIN)


def _normalise(store: TripleStore, mode: StoreMode) -> TripleStore:
    if mode is StoreMode.MATERIALISED:
        return materialise(store)
    if mode is StoreMode.REDUCED:
        return reduce_store(store)
    return store


def _emit_store(store: TripleStore, out: Optional[str]):
    text = serialize_turtle(store)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _print_diff(before: TripleStore, after: TripleStore):
    """Removed triples as `- ` lines, then added ones as `+ ` lines, sorted."""
    diff = store_diff(before, after)
    for sign, atoms in (("-", diff.removed_tbox | diff.removed_abox),
                        ("+", diff.added_tbox | diff.added_abox)):
        for line in sorted(_render_triple(*atom_to_triple(a)) for a in atoms):
            print(f"{sign} {line}")


def _render_row(row, shorten) -> tuple[str, ...]:
    return tuple(shorten(term) for term in row)


def cmd_query(args) -> int:
    from rdfsupd.turtle import shorten_iri

    store = _normalise(_load(args.files), StoreMode(args.mode))
    query = parse_query(args.query, general=args.general)
    if args.regime == "simple":
        answers = eval_simple(query.where, store, query.select_vars)
    elif args.via == "mat":
        answers = answers_rdfs_materialisation(query.where, store, query.select_vars)
    else:
        answers = answers_rdfs_rewriting(query.where, store, query.select_vars)
    print("\t".join(f"?{v.name}" for v in answers.vars))
    for row in sorted(_render_row(r, shorten_iri) for r in answers.rows):
        print("\t".join(row))
    return 0


def cmd_update(args) -> int:
    semantics = upd.Semantics.parse(args.semantics)
    required = semantics.mode
    mode = StoreMode(args.mode) if args.mode else (required or StoreMode.PLAIN)
    if required is not None and mode is not required:
        raise ModeError(
            f"--semantics {semantics.value} needs --mode {required.value}, "
            f"got {mode.value}"
        )
    store = _normalise(_load(args.files), mode)
    if semantics is upd.Semantics.MAT1B:
        store = upd.bootstrap_partition(store)
    op = parse_update(args.update, general=args.general)
    result = upd.run(store, op, semantics, where_regime=args.where_regime)
    if args.diff:
        _print_diff(store, result)
        if args.out:
            _emit_store(result, args.out)
    else:
        _emit_store(result, args.out)
    return 0


def cmd_mat(args) -> int:
    _emit_store(materialise(_load(args.files)), args.out)
    return 0


def cmd_red(args) -> int:
    _emit_store(reduce_store(_load(args.files)), args.out)
    return 0


def cmd_check(args) -> int:
    store = _load(args.files)
    mat = "yes" if is_materialised(store) else "no"
    red = "yes" if is_reduced(store) else "no"
    print(f"materialised: {mat}, reduced: {red}")
    return 0


def cmd_diff(args) -> int:
    _print_diff(_load([args.old]), _load([args.new]))
    return 0


_MODE_NAMES = sorted(m.value for m in StoreMode)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdfsupd",
        description="In-memory RDFS triple store with SPARQL-lite queries "
        "and updates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="answer a SELECT query")
    q.add_argument("query", help="query text")
    q.add_argument("files", nargs="+", help="Turtle input files, merged in order")
    q.add_argument("--regime", choices=["simple", "rdfs"], default="rdfs",
                   help="simple pattern matching or entailed answers")
    q.add_argument("--via", choices=["rewrite", "mat"], default="rewrite",
                   help="strategy for entailed answers")
    q.add_argument("--mode", choices=_MODE_NAMES, default="plain",
                   help="normalise the loaded store first")
    q.add_argument("--general", action="store_true",
                   help="allow terminological patterns, variables anywhere, "
                   "and subsumption paths")
    q.set_defaults(func=cmd_query)

    u = sub.add_parser("update", help="run an update operation")
    u.add_argument("update", help="update text")
    u.add_argument("files", nargs="+")
    u.add_argument("--semantics", required=True,
                   help="one of: " + ", ".join(s.value for s in upd.Semantics))
    u.add_argument("--mode", choices=_MODE_NAMES, default=None,
                   help="normalisation of the loaded store "
                   "(default: what the strategy needs)")
    u.add_argument("--where-regime", choices=["simple", "rdfs"], default=None,
                   help="override WHERE matching for red0")
    u.add_argument("--diff", action="store_true",
                   help="print the change set instead of the store")
    u.add_argument("--out", help="write the resulting store to a file")
    u.add_argument("--general", action="store_true")
    u.set_defaults(func=cmd_update)

    m = sub.add_parser("mat", help="materialise a store")
    m.add_argument("files", nargs="+")
    m.add_argument("--out")
    m.set_defaults(func=cmd_mat)

    r = sub.add_parser("red", help="reduce a store")
    r.add_argument("files", nargs="+")
    r.add_argument("--out")
    r.set_defaults(func=cmd_red)

    c = sub.add_parser("check", help="report store mode properties")
    c.add_argument("files", nargs="+")
    c.set_defaults(func=cmd_check)

    d = sub.add_parser("diff", help="compare two stores")
    d.add_argument("old")
    d.add_argument("new")
    d.set_defaults(func=cmd_diff)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, NonStandardUse, UnknownSemantics, UnicodeDecodeError) as exc:
        print(f"rdfsupd: {exc}", file=sys.stderr)
        return 2
    except (UnsupportedFeature, VarInPredicate) as exc:
        print(f"rdfsupd: {exc}", file=sys.stderr)
        return 3
    except ModeError as exc:
        print(f"rdfsupd: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"rdfsupd: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        traceback.print_exc()
        print(f"rdfsupd: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 70


if __name__ == "__main__":
    sys.exit(main())
