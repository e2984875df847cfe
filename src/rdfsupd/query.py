"""Pattern evaluation: simple matching and the two entailment strategies.

`eval_simple` is homomorphism matching of patterns against the stored
triples, with no reasoning.  Entailed answers come either from
`answers_rdfs_rewriting` (unfold the query against the TBox, evaluate the
union over the raw ABox) or from `answers_rdfs_materialisation` (evaluate
the query as-is over the closed store); the two agree on non-general
queries, which the test suite checks exhaustively.

Answers are sets of total substitutions (set semantics, unlike SPARQL's
bags).  When an explicit variable tuple is requested, a union disjunct that
does not bind all requested variables contributes no rows.

Evaluation is index-driven.  Each store snapshot caches one `_Index`,
whose hash maps by bound position (class to instances, instance to
classes, (property, subject) to objects, (property, object) to subjects)
are built on first use; the index holds its store weakly, so the two form
no reference cycle.  Atoms are joined depth-first, choosing under each
binding the atom with the fewest unbound variables, then the fewest index
candidates, then the canonically first.  Rewriting is answered as a join of
per-atom unions: each atom is unfolded on its own and matched as the union
of its unfoldings, which gives the answers of the full union from
`rewrite_bgp` (the product of those unfoldings) without enumerating it.
`rewrite_bgp` remains the specification, checked by a differential test.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, Optional, Union

from rdfsupd.entailment import materialise, tbox_closure
from rdfsupd.model import (
    RDFS_SUBCLASSOF,
    AnyTermAtom,
    Atom,
    Bgp,
    ClassAtom,
    DomainAtom,
    Iri,
    PathAtom,
    RangeAtom,
    RoleAtom,
    StoreMode,
    SubClassAtom,
    SubPropAtom,
    Substitution,
    TriplePattern,
    TripleStore,
    UnionPattern,
    Var,
    atom_terms,
    atom_vars,
    term_key,
)

Pattern = Union[Bgp, UnionPattern]


@dataclass(frozen=True)
class AnswerSet:
    """Ordered projection variables plus a set of rows aligned with them."""

    vars: tuple[Var, ...]
    rows: frozenset

    def substitutions(self) -> list[dict]:
        return [dict(zip(self.vars, row)) for row in sorted(self.rows)]

    def column(self, var: Var) -> frozenset:
        i = self.vars.index(var)
        return frozenset(row[i] for row in self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)


class _Index:
    """Hash maps over one store snapshot, each built on first use.

    Cached on the snapshot by `_index` and holding it only through a weak
    reference, so the index lives exactly as long as its store and forms
    no reference cycle with it.  An operation that matches nothing (an
    `INSERT DATA`, whose WHERE clause is empty) builds no map.
    """

    def __init__(self, store: TripleStore):
        self._store = weakref.ref(store)
        self._reach: dict[tuple[Iri, bool], dict[Iri, set[Iri]]] = {}

    @property
    def store(self) -> TripleStore:
        return self._store()

    @property
    def universe(self) -> frozenset[Iri]:
        return self.store.terms

    @property
    def triples(self) -> frozenset:
        return self.store.triples

    @cached_property
    def class_pairs(self) -> list[tuple[Iri, Iri]]:
        return [(a.inst, a.cls) for a in self.store.abox if isinstance(a, ClassAtom)]

    @cached_property
    def role_triples(self) -> list[tuple[Iri, Iri, Iri]]:
        return [(a.subj, a.prop, a.obj) for a in self.store.abox
                if isinstance(a, RoleAtom)]

    @cached_property
    def instances(self) -> dict[Iri, set[Iri]]:
        """Class to the instances asserted for it."""
        return _group((c, i) for i, c in self.class_pairs)

    @cached_property
    def classes_of(self) -> dict[Iri, set[Iri]]:
        """Instance to the classes asserted for it."""
        return _group(self.class_pairs)

    @cached_property
    def roles_by_pred(self) -> dict[Iri, list[tuple[Iri, Iri]]]:
        out: dict[Iri, list[tuple[Iri, Iri]]] = {}
        for s, p, o in self.role_triples:
            out.setdefault(p, []).append((s, o))
        return out

    @cached_property
    def objects(self) -> dict[tuple[Iri, Iri], set[Iri]]:
        """(property, subject) to objects."""
        return _group(((p, s), o) for s, p, o in self.role_triples)

    @cached_property
    def subjects(self) -> dict[tuple[Iri, Iri], set[Iri]]:
        """(property, object) to subjects."""
        return _group(((p, o), s) for s, p, o in self.role_triples)

    @cached_property
    def tbox_pairs(self) -> dict[type, list[tuple[Iri, Iri]]]:
        out: dict[type, list[tuple[Iri, Iri]]] = {
            SubClassAtom: [], SubPropAtom: [], DomainAtom: [], RangeAtom: []
        }
        for ax in self.store.tbox:
            out[type(ax)].append(atom_terms(ax))  # type: ignore[arg-type]
        return out

    def _edges(self, pred: Iri, forward: bool) -> dict[Iri, set[Iri]]:
        key = (pred, forward)
        adj = self._reach.get(key)
        if adj is None:
            kind = SubClassAtom if pred == RDFS_SUBCLASSOF else SubPropAtom
            adj = {}
            for a, b in self.tbox_pairs[kind]:
                src, dst = (a, b) if forward else (b, a)
                adj.setdefault(src, set()).add(dst)
            self._reach[key] = adj
        return adj

    def reachable(self, start: Iri, pred: Iri, forward: bool = True) -> set[Iri]:
        """Nodes reachable from `start` via one or more `pred` edges."""
        adj = self._edges(pred, forward)
        seen: set[Iri] = set()
        stack = list(adj.get(start, ()))
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            stack.extend(adj.get(n, ()))
        return seen


def _group(pairs) -> dict:
    out: dict = {}
    for k, v in pairs:
        out.setdefault(k, set()).add(v)
    return out


def _index(store: TripleStore) -> _Index:
    """The snapshot's index, built on the first query to it.

    The identity check rebuilds it for a copy of a store (`copy.copy`
    carries the original's index along in the instance dict)."""
    idx = store.__dict__.get("_index")
    if idx is None or idx.store is not store:
        idx = _Index(store)
        object.__setattr__(store, "_index", idx)
    return idx


def _unify(pattern: tuple, fact: tuple, subst: dict) -> Optional[dict]:
    out = subst
    for pt, ft in zip(pattern, fact):
        if isinstance(pt, Var):
            bound = out.get(pt)
            if bound is None:
                if out is subst:
                    out = dict(subst)
                out[pt] = ft
            elif bound != ft:
                return None
        elif pt != ft:
            return None
    return out


def _value(term, subst: dict):
    """The term under `subst`: its binding if it is a bound variable."""
    return subst.get(term, term) if isinstance(term, Var) else term


def _extend(subst: dict, var: Var, values) -> Iterator[dict]:
    for t in values:
        ext = dict(subst)
        ext[var] = t
        yield ext


def _match_atom(atom: Atom, subst: dict, idx: _Index) -> Iterator[dict]:
    if isinstance(atom, ClassAtom):
        inst, cls = _value(atom.inst, subst), _value(atom.cls, subst)
        if isinstance(cls, Iri):
            members = idx.instances.get(cls, ())
            if isinstance(inst, Iri):
                if inst in members:
                    yield subst
                return
            yield from _extend(subst, inst, members)
            return
        if isinstance(inst, Iri):
            yield from _extend(subst, cls, idx.classes_of.get(inst, ()))
            return
        for fact in idx.class_pairs:
            ext = _unify((inst, cls), fact, subst)
            if ext is not None:
                yield ext
        return
    if isinstance(atom, RoleAtom):
        prop = _value(atom.prop, subst)
        if isinstance(prop, Var):
            for fact in idx.role_triples:
                ext = _unify((atom.subj, prop, atom.obj), fact, subst)
                if ext is not None:
                    yield ext
            return
        subj, obj = _value(atom.subj, subst), _value(atom.obj, subst)
        if isinstance(subj, Iri):
            objs = idx.objects.get((prop, subj), ())
            if isinstance(obj, Iri):
                if obj in objs:
                    yield subst
                return
            yield from _extend(subst, obj, objs)
            return
        if isinstance(obj, Iri):
            yield from _extend(subst, subj, idx.subjects.get((prop, obj), ()))
            return
        for fact in idx.roles_by_pred.get(prop, ()):
            ext = _unify((subj, obj), fact, subst)
            if ext is not None:
                yield ext
        return
    if isinstance(atom, TriplePattern):
        for fact in idx.triples:
            ext = _unify((atom.subj, atom.pred, atom.obj), fact, subst)
            if ext is not None:
                yield ext
        return
    if isinstance(atom, (SubClassAtom, SubPropAtom, DomainAtom, RangeAtom)):
        for fact in idx.tbox_pairs[type(atom)]:
            ext = _unify(atom_terms(atom), fact, subst)
            if ext is not None:
                yield ext
        return
    if isinstance(atom, PathAtom):
        subj, obj = _value(atom.subj, subst), _value(atom.obj, subst)
        # Zero-length steps only reach terms that occur somewhere in the store.
        if isinstance(subj, Iri):
            targets = idx.reachable(subj, atom.pred)
            if subj in idx.universe:
                targets = targets | {subj}
            if isinstance(obj, Iri):
                if obj in targets:
                    yield subst
                return
            yield from _extend(subst, obj, targets)
            return
        if isinstance(obj, Iri):
            sources = idx.reachable(obj, atom.pred, forward=False)
            if obj in idx.universe:
                sources = sources | {obj}
            yield from _extend(subst, subj, sources)
            return
        for u in idx.universe:
            for v in idx.reachable(u, atom.pred) | {u}:
                ext = _unify((subj, obj), (u, v), subst)
                if ext is not None:
                    yield ext
        return
    if isinstance(atom, AnyTermAtom):
        term = _value(atom.term, subst)
        if isinstance(term, Iri):
            if term in idx.universe:
                yield subst
            return
        yield from _extend(subst, term, idx.universe)
        return
    raise TypeError(f"cannot evaluate atom {atom!r}")


def _estimate(atom: Atom, subst: dict, idx: _Index) -> float:
    """Upper bound on the matches of `atom` under `subst`, read off the
    index; atoms answered by scans count as unbounded."""
    if isinstance(atom, ClassAtom):
        inst, cls = _value(atom.inst, subst), _value(atom.cls, subst)
        if isinstance(cls, Iri):
            return len(idx.instances.get(cls, ()))
        if isinstance(inst, Iri):
            return len(idx.classes_of.get(inst, ()))
        return len(idx.class_pairs)
    if isinstance(atom, RoleAtom):
        prop = _value(atom.prop, subst)
        if isinstance(prop, Var):
            return len(idx.role_triples)
        subj = _value(atom.subj, subst)
        if isinstance(subj, Iri):
            return len(idx.objects.get((prop, subj), ()))
        obj = _value(atom.obj, subst)
        if isinstance(obj, Iri):
            return len(idx.subjects.get((prop, obj), ()))
        return len(idx.roles_by_pred.get(prop, ()))
    if isinstance(atom, (SubClassAtom, SubPropAtom, DomainAtom, RangeAtom)):
        return len(idx.tbox_pairs[type(atom)])
    return math.inf


@dataclass(frozen=True)
class _Conjunct:
    """One atom of a conjunctive pattern, matched as the union of `alts`.

    For plain evaluation `alts` is the atom alone.  For rewriting it holds
    the atom's unfoldings, whose fresh witnesses are projected away after
    each match, leaving bindings for `vars`, the atom's own variables.
    """

    vars: tuple[Var, ...]
    alts: tuple[Atom, ...]

    @classmethod
    def of(cls, atom: Atom, alts: tuple[Atom, ...] = ()) -> "_Conjunct":
        return cls(tuple(sorted(atom_vars(atom), key=term_key)),
                   (atom,) + tuple(a for a in alts if a != atom))

    def unbound(self, subst: dict) -> int:
        return sum(1 for v in self.vars if v not in subst)

    def estimate(self, subst: dict, idx: _Index) -> float:
        return sum(_estimate(a, subst, idx) for a in self.alts)

    def matches(self, subst: dict, idx: _Index) -> Iterator[dict]:
        if len(self.alts) == 1:
            yield from _match_atom(self.alts[0], subst, idx)
            return
        new = [v for v in self.vars if v not in subst]
        seen = set()
        for alt in self.alts:
            for ext in _match_atom(alt, subst, idx):
                key = tuple(ext[v] for v in new)
                if key in seen:
                    continue
                if not new:
                    # Fully bound: one match of any unfolding settles it.
                    yield subst
                    return
                seen.add(key)
                out = dict(subst)
                out.update(zip(new, key))
                yield out


def _eval_atoms(conjuncts: list, subst: dict, idx: _Index) -> Iterator[dict]:
    """Join `conjuncts` (canonically sorted) depth-first.

    Greedy join order per binding: fewest unbound variables first, then
    the fewest candidates in the index, then canonical order (`min` keeps
    the first of equals).
    """
    if not conjuncts:
        yield subst
        return
    if len(conjuncts) == 1:
        best, rest = conjuncts[0], []
    else:
        counts = [c.unbound(subst) for c in conjuncts]
        least = min(counts)
        tied = [c for c, n in zip(conjuncts, counts) if n == least]
        best = tied[0] if len(tied) == 1 else \
            min(tied, key=lambda c: c.estimate(subst, idx))
        rest = [c for c in conjuncts if c is not best]
    for ext in best.matches(subst, idx):
        yield from _eval_atoms(rest, ext, idx)


def _bgp_solutions(bgp: Bgp, idx: _Index) -> Iterator[dict]:
    yield from _eval_atoms([_Conjunct.of(a) for a in bgp.sorted_atoms()], {}, idx)


def _as_union(pattern: Pattern) -> UnionPattern:
    return pattern if isinstance(pattern, UnionPattern) else UnionPattern.single(pattern)


def eval_simple(pattern: Pattern, store: TripleStore,
                vars: Optional[tuple[Var, ...]] = None) -> AnswerSet:
    """Simple-entailment evaluation: match the pattern against the stored
    triples and nothing else.  The empty pattern yields one empty row."""
    union = _as_union(pattern)
    if vars is None:
        vars = tuple(sorted(union.vars(), key=term_key))
    idx = _index(store)
    wanted = set(vars)
    rows = set()
    for d in union.disjuncts:
        if wanted - d.vars():
            continue
        for theta in _bgp_solutions(d, idx):
            rows.add(tuple(theta[v] for v in vars))
    return AnswerSet(tuple(vars), frozenset(rows))


def stored_matches(atom: Atom, store: TripleStore) -> Iterator[Substitution]:
    """Bindings of the atom's variables under which it is a stored fact
    (or axiom), looked up in the snapshot's index."""
    return _match_atom(atom, {}, _index(store))


def update_solutions(pattern: Pattern, store: TripleStore,
                     entailed: bool = False
                     ) -> Iterator[tuple[Substitution, frozenset]]:
    """Binding stream for update execution: (solution, free-range variables).

    A variable constrained only by an any-term binder ranges over the whole
    term universe independently of everything else, so enumerating it inside
    the join would blow the solution set up exponentially for no gain: the
    template instantiations it produces are a union over each such variable
    separately.  Those variables are therefore stripped from the join and
    reported alongside each solution; instantiation grounds them against the
    universe per template atom.  With an empty universe a binder matches
    nothing and kills its disjunct.

    With ``entailed=True`` the remaining pattern is answered under
    entailment by rewriting (binders and other non-assertional atoms pass
    through the rewriter untouched).
    """
    idx = _index(store)
    for d in _as_union(pattern).disjuncts:
        binders = {
            a for a in d.atoms
            if isinstance(a, AnyTermAtom) and isinstance(a.term, Var)
        }
        rest = d.atoms - binders
        rest_vars = frozenset(v for a in rest for v in atom_vars(a))
        free = frozenset(a.term for a in binders) - rest_vars
        if free and not idx.universe:
            continue
        kept = Bgp(rest | {a for a in binders if a.term in rest_vars},
                   general=d.general)
        if entailed:
            stream = rewritten_substitutions(UnionPattern.single(kept), store)
        else:
            stream = _bgp_solutions(kept, idx)
        for theta in stream:
            yield theta, free


def rewritten_substitutions(pattern: Pattern, store: TripleStore
                            ) -> Iterator[Substitution]:
    """Entailed bindings via rewriting, over the raw assertions.

    An RDFS rewriting step replaces one atom with one atom, and the fresh
    witnesses it introduces are existential per atom, so the unfolded
    union of `rewrite_bgp` is the product of the per-atom unfoldings.
    Each disjunct is therefore answered as the join of its atoms, each
    matched as the deduplicated union of its own unfoldings with the
    witnesses projected away: linear in the TBox per atom where the full
    union is exponential in the number of atoms.
    """
    from rdfsupd.rewrite import rewrite_bgp

    idx = _index(store)
    for d in _as_union(pattern).disjuncts:
        conjuncts = []
        for g in d.sorted_atoms():
            ucq = rewrite_bgp(Bgp({g}, general=d.general), store.tbox).ucq
            conjuncts.append(_Conjunct.of(
                g, tuple(a for cq in ucq.sorted_disjuncts() for a in cq.atoms)))
        yield from _eval_atoms(conjuncts, {}, idx)


def answers_rdfs_rewriting(pattern: Pattern, store: TripleStore,
                           vars: Optional[tuple[Var, ...]] = None) -> AnswerSet:
    """Entailed answers computed by query rewriting over the raw ABox."""
    union = _as_union(pattern)
    if vars is None:
        vars = tuple(sorted(union.vars(), key=term_key))
    wanted = set(vars)
    rows = set()
    for theta in rewritten_substitutions(union, store):
        if wanted <= set(theta):
            rows.add(tuple(theta[v] for v in vars))
    return AnswerSet(tuple(vars), frozenset(rows))


def answers_rdfs_materialisation(pattern: Pattern, store: TripleStore,
                                 vars: Optional[tuple[Var, ...]] = None
                                 ) -> AnswerSet:
    """Entailed answers computed over the closed store.

    A store already tagged materialised is used as-is for assertional
    patterns; general patterns additionally get the TBox transitively closed
    (a no-op for stores produced by `materialise`).  Other stores are closed
    on the fly; the input snapshot is never touched.
    """
    union = _as_union(pattern)
    if store.mode is StoreMode.MATERIALISED:
        target = store
        if union.is_general or any(
            not isinstance(a, (ClassAtom, RoleAtom))
            for d in union.disjuncts for a in d.atoms
        ):
            target = replace(store, tbox=tbox_closure(store.tbox))
    else:
        target = materialise(store)
    return eval_simple(union, target, vars)
