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

Evaluation is index-driven.  Every pattern atom is a tuple of terms over
one relation of the snapshot, one per atom kind: class memberships, role
assertions, each of the four axiom kinds, the triple view, subsumption
paths (the pairs of the closed TBox from `tbox_closure`, plus a zero-length
step for every stored term) and the term universe.  Each snapshot caches
one `_Index` holding each relation's rows and one hash map per relation and
set of free positions, keyed by the values at the bound ones; rows and maps
are built on first use, and the index holds its store weakly, so the two
form no reference cycle.  One lookup answers every atom, and its size is
the atom's estimate.  Atoms are joined depth-first, choosing under each
binding the atom with the fewest unbound variables, then the fewest index
candidates, then the canonically first.  Rewriting is answered as a join of
per-atom unions: each atom is unfolded on its own and matched as the union
of its unfoldings, which gives the answers of the full union from
`rewrite_bgp` (the product of those unfoldings) without enumerating it.
`rewrite_bgp` remains the specification, checked by a differential test.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter
from typing import Iterator, Optional, Union

from rdfsupd.entailment import materialise, tbox_closure
from rdfsupd.model import (
    ABOX_KINDS,
    PREDICATE,
    TBOX_KINDS,
    TERM_GETTERS,
    AnyTermAtom,
    Atom,
    Bgp,
    ClassAtom,
    PathAtom,
    StoreMode,
    SubClassAtom,
    SubPropAtom,
    Substitution,
    TriplePattern,
    TripleStore,
    UnionPattern,
    Var,
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

    def __len__(self) -> int:
        return len(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)


class _Index:
    """The relations of one store snapshot and hash maps over them.

    Each relation's rows, and each map from the values at some bound
    positions to the values at the free ones, are built on first use.  An
    operation that matches nothing (an `INSERT DATA`, whose WHERE clause is
    empty) builds none.  Cached on the snapshot by `_index` and holding it
    only through a weak reference, so the index lives exactly as long as its
    store and forms no reference cycle with it.
    """

    def __init__(self, store: TripleStore):
        self._store = weakref.ref(store)
        self._rows: dict[type, list[tuple]] = {}
        self._maps: dict[tuple[type, tuple[int, ...]], dict] = {}

    @property
    def store(self) -> TripleStore:
        return self._store()

    def map(self, rel: type, shape: tuple) -> dict:
        """The rows of `rel` keyed by their values at the positions that
        `shape` binds: the values at its one probed position as a set, or
        at several as a list of tuples."""
        _, probe, key, val = shape
        m = self._maps.get((rel, probe))
        if m is None:
            rows = self._rows.get(rel)
            if rows is None:
                rows = self._rows[rel] = _ROWS[rel](self.store)
            if len(probe) == 1:
                m = defaultdict(set)
                for row in rows:
                    m[key(row)].add(val(row))
            elif key is _no_key:
                m = {(): rows}
            else:
                m = defaultdict(list)
                for row in rows:
                    m[key(row)].append(val(row))
            self._maps[(rel, probe)] = m
        return m


def _shape(arity: int, mask: int) -> tuple:
    """How a lookup whose free positions are the bits of `mask` reads a
    relation of `arity` columns: those positions, the positions of the map
    it probes (the last column when none is free, so that a fully bound
    atom tests its last term), a getter of the key from the other positions
    (one value, a tuple of several, or `()` for none), and a getter of the
    probed positions."""
    free = tuple(i for i in range(arity) if mask >> i & 1)
    probe = free or (arity - 1,)
    bound = [i for i in range(arity) if i not in probe]
    return free, probe, itemgetter(*bound) if bound else _no_key, itemgetter(*probe)


def _no_key(row: tuple) -> tuple:
    return ()


#: The shape of every lookup, by arity and mask of free positions.
_SHAPES = {n: [_shape(n, mask) for mask in range(1 << n)] for n in (1, 2, 3)}


#: Each atom kind's terms in its relation's column order.  A fully bound
#: atom probes the map whose last column is free, so the orders make that
#: the map the common lookups build anyway: class atoms are `(cls, inst)`,
#: everything else follows `atom_terms`.
_COLUMNS = {**TERM_GETTERS, ClassAtom: attrgetter("cls", "inst")}


def _path_rows(store: TripleStore) -> list[tuple]:
    """`(a, pred, b)` for every subsumption pair of the closed TBox, plus
    the zero-length step from each stored term to itself."""
    preds = {kind: PREDICATE[kind] for kind in (SubClassAtom, SubPropAtom)}
    rows = {(ax.sub, preds[type(ax)], ax.sup)
            for ax in tbox_closure(store.tbox) if type(ax) in preds}
    rows.update((t, p, t) for t in store.terms for p in preds.values())
    return list(rows)


def _stored(kind: type, part: str):
    cols = _COLUMNS[kind]
    return lambda store: [cols(a) for a in getattr(store, part) if type(a) is kind]


#: Each relation's rows, one per atom kind, in `_COLUMNS` order.
_ROWS = {kind: _stored(kind, "tbox") for kind in TBOX_KINDS}
_ROWS.update({kind: _stored(kind, "abox") for kind in ABOX_KINDS})
_ROWS.update({
    TriplePattern: lambda store: list(store.triples),
    PathAtom: _path_rows,
    AnyTermAtom: lambda store: [(t,) for t in store.terms],
})


def _index(store: TripleStore) -> _Index:
    """The snapshot's index, built on the first query to it.

    The identity check rebuilds it for a copy of a store (`copy.copy`
    carries the original's index along in the instance dict)."""
    idx = store.__dict__.get("_index")
    if idx is None or idx.store is not store:
        idx = _Index(store)
        object.__setattr__(store, "_index", idx)
    return idx


def _lookup(atom: Atom, subst: dict, idx: _Index) -> tuple:
    """One lookup answers every atom kind: the atom's terms in column order,
    the shape of the positions `subst` leaves free, and the values they take
    in the stored rows that agree with it.  For a fully bound atom the
    values are one empty tuple if it is stored, and none otherwise."""
    terms = _COLUMNS[type(atom)](atom)
    vals = list(terms)
    mask = 0
    for i, t in enumerate(terms):
        if type(t) is Var:
            v = subst.get(t)
            if v is None:
                mask |= 1 << i
            else:
                vals[i] = v
    shape = _SHAPES[len(terms)][mask]
    m = idx._maps.get((type(atom), shape[1]))
    if m is None:
        m = idx.map(type(atom), shape)
    values = m.get(shape[2](vals), ())
    if not mask:
        values = ((),) if shape[3](vals) in values else ()
    return terms, shape, values


def _matches(subst: dict, found: tuple) -> Iterator[dict]:
    """Extensions of `subst` by the values of one `_lookup`."""
    terms, (free, _, _, names_of), values = found
    if not free:
        if values:
            yield subst
        return
    names = names_of(terms)
    if len(free) == 1:
        for v in values:
            ext = dict(subst)
            ext[names] = v
            yield ext
    elif len(set(names)) < len(names):
        for row in values:
            ext = dict(subst)
            # A repeated variable must take one value at every position.
            if all(ext.setdefault(var, v) == v for var, v in zip(names, row)):
                yield ext
    else:
        for row in values:
            ext = dict(subst)
            ext.update(zip(names, row))
            yield ext


@dataclass(frozen=True)
class _Conjunct:
    """One atom of a conjunctive pattern, matched as the union of `alts`.

    For plain evaluation `alts` is the atom alone.  For rewriting it holds
    the atom's unfoldings, whose fresh witnesses are projected away after
    each match, leaving bindings for `vars`, the atom's own variables.
    """

    vars: tuple[Var, ...]
    alts: tuple[Atom, ...]
    idx: _Index

    @classmethod
    def of(cls, atom: Atom, idx: _Index,
           alts: tuple[Atom, ...] = ()) -> "_Conjunct":
        return cls(tuple(sorted(atom_vars(atom), key=term_key)),
                   (atom,) + tuple(a for a in alts if a != atom), idx)

    def unbound(self, subst: dict) -> int:
        return sum(1 for v in self.vars if v not in subst)

    def lookup(self, subst: dict) -> list[tuple]:
        return [_lookup(alt, subst, self.idx) for alt in self.alts]

    def matches(self, subst: dict, found: Optional[list] = None
                ) -> Iterator[dict]:
        """Extensions of `subst` by the lookups of the alternatives, made
        one at a time unless `found` holds them already."""
        if len(self.alts) == 1:
            yield from _matches(
                subst, found[0] if found else _lookup(self.alts[0], subst, self.idx))
            return
        new = [v for v in self.vars if v not in subst]
        seen = set()
        for i, alt in enumerate(self.alts):
            for ext in _matches(
                    subst, found[i] if found else _lookup(alt, subst, self.idx)):
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


def _eval_atoms(conjuncts: list, subst: dict) -> Iterator[dict]:
    """Join `conjuncts` (canonically sorted) depth-first.

    Greedy join order per binding: fewest unbound variables first, then
    the fewest candidates in the index lookups, then canonical order (`min`
    keeps the first of equals).  The chosen conjunct is matched with the
    lookups that sized it.
    """
    if not conjuncts:
        yield subst
        return
    tied = conjuncts
    if len(conjuncts) > 1:
        counts = [c.unbound(subst) for c in conjuncts]
        least = min(counts)
        tied = [c for c, n in zip(conjuncts, counts) if n == least]
    if len(tied) == 1:
        best, found = tied[0], None
    else:
        best, found = min(((c, c.lookup(subst)) for c in tied),
                          key=lambda cf: sum(len(f[2]) for f in cf[1]))
    rest = [c for c in conjuncts if c is not best]
    for ext in best.matches(subst, found):
        yield from _eval_atoms(rest, ext)


def _bgp_solutions(bgp: Bgp, idx: _Index) -> Iterator[dict]:
    yield from _eval_atoms([_Conjunct.of(a, idx) for a in bgp.sorted_atoms()], {})


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
    return _matches({}, _lookup(atom, {}, _index(store)))


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
        if free and not store.terms:
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
                g, idx, tuple(a for cq in ucq.sorted_disjuncts() for a in cq.atoms)))
        yield from _eval_atoms(conjuncts, {})


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

    A store already tagged materialised is used as-is, with its index; only
    general patterns over a TBox that is not transitively closed (as
    `materialise` leaves it) get a copy with the closed TBox.  Other stores
    are closed on the fly; the input snapshot is never touched.
    """
    union = _as_union(pattern)
    if store.mode is StoreMode.MATERIALISED:
        target = store
        if union.is_general or any(
            type(a) not in ABOX_KINDS
            for d in union.disjuncts for a in d.atoms
        ):
            closed = tbox_closure(store.tbox)
            if closed != store.tbox:
                target = replace(store, tbox=closed)
    else:
        target = materialise(store)
    return eval_simple(union, target, vars)
