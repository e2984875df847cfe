"""Entailment engines: materialisation, redundancy elimination, mode checks.

Six inference rules drive everything.  Four assertional rules derive ABox
facts (property inheritance, domain, range, class inheritance); two
terminological rules close subclass/subproperty chains transitively.
`materialise` runs all six to fixpoint, `materialise_abox` only the
assertional four, and `reduce_store` strips every assertion derivable from
the remaining ones, keeping one lexicographically-smallest representative
per subsumption cycle so no entailments are lost.

The engines intern classes and properties as ints (`_Codec`), and the
closure every term:

- The assertional closure is semi-naive: each fact is expanded once along
  the direct TBox edges, so chains through a non-closed TBox are followed
  by iteration rather than by pre-closing the TBox.
- The subsumption closure runs one depth-first search per source over an
  adjacency map (Tarjan 1972; Nuutila 1995).  A node on a cycle reaches
  itself; no other pair is reflexive.
- Reduction reads the equivalence classes off the mutual pairs of that
  closure and names each class by one of its members.  One pass groups
  each individual's classes, and each pair's properties, by that name.  A
  group keeps its smallest present member (by IRI) unless facts outside
  the group derive it.
- `is_materialised` applies the four rules once: a set is closed exactly
  when one step adds nothing.
"""

from __future__ import annotations

from typing import Iterable

from rdfsupd.model import (
    TBOX_KINDS,
    ClassAtom,
    RoleAtom,
    StoreMode,
    SubClassAtom,
    SubPropAtom,
    Term,
    TripleStore,
    atom_terms,
    term_key,
)


Pair = tuple[int, int]
Triple = tuple[int, int, int]
Edges = dict[int, set[int]]


class _Codec:
    """Bidirectional term <-> int interning for the closure kernels.

    Variables are interned like IRIs, so pattern closure (treating variables
    as constants) reuses the same kernels.
    """

    def __init__(self):
        self._ids: dict[Term, int] = {}
        self._terms: list[Term] = []

    def enc(self, term: Term) -> int:
        i = self._ids.get(term)
        if i is None:
            i = len(self._terms)
            self._ids[term] = i
            self._terms.append(term)
        return i

    def dec(self, i: int) -> Term:
        return self._terms[i]


def _encode_tbox(codec: _Codec, tbox: Iterable) -> tuple[Edges, Edges, Edges, Edges]:
    """Subclass, subproperty, domain and range edges as adjacency maps (the
    order of `TBOX_KINDS`)."""
    by_kind: dict[type, Edges] = {kind: {} for kind in TBOX_KINDS}
    for ax in tbox:
        edges = by_kind.get(type(ax))
        if edges is None:
            raise TypeError(f"not a terminological axiom: {ax!r}")
        a, b = atom_terms(ax)
        edges.setdefault(codec.enc(a), set()).add(codec.enc(b))
    return tuple(by_kind.values())


def _encode_abox(codec: _Codec, abox: Iterable) -> tuple[set[Pair], set[Triple]]:
    """(inst, cls) memberships and (subj, prop, obj) role assertions."""
    enc = codec.enc
    classes: set[Pair] = set()
    roles: set[Triple] = set()
    for a in abox:
        if isinstance(a, ClassAtom):
            classes.add((enc(a.inst), enc(a.cls)))
        elif isinstance(a, RoleAtom):
            roles.add((enc(a.subj), enc(a.prop), enc(a.obj)))
        else:
            raise TypeError(f"not an assertional atom: {a!r}")
    return classes, roles


def _abox_closure(sc: Edges, sp: Edges, dom: Edges, rng: Edges,
                  classes: set[Pair], roles: set[Triple]
                  ) -> tuple[set[Pair], set[Triple]]:
    """Fixpoint of the four assertional rules; each fact is expanded once."""
    cls_out = set(classes)
    role_out = set(roles)
    cls_todo = list(cls_out)
    role_todo = list(role_out)
    # Roles first: no rule derives a role from a class membership.
    while role_todo:
        s, p, o = role_todo.pop()
        for q in sp.get(p, ()):
            f = (s, q, o)
            if f not in role_out:
                role_out.add(f)
                role_todo.append(f)
        for c in dom.get(p, ()):
            f = (s, c)
            if f not in cls_out:
                cls_out.add(f)
                cls_todo.append(f)
        for c in rng.get(p, ()):
            f = (o, c)
            if f not in cls_out:
                cls_out.add(f)
                cls_todo.append(f)
    while cls_todo:
        i, c = cls_todo.pop()
        for d in sc.get(c, ()):
            f = (i, d)
            if f not in cls_out:
                cls_out.add(f)
                cls_todo.append(f)
    return cls_out, role_out


def _reach(edges: Edges) -> Edges:
    """Every node reachable from each source by one or more edges.

    One depth-first search per source.  A node on a cycle reaches itself.
    """
    reach: Edges = {}
    for src in edges:
        seen: set[int] = set()
        stack = [src]
        while stack:
            for b in edges.get(stack.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        reach[src] = seen
    return reach


def abox_fixpoint(tbox: Iterable, abox: Iterable) -> frozenset:
    """Closure of `abox` under the four assertional rules, given `tbox`.

    Accepts atoms with variables (treated as opaque constants), which is how
    effect expansion of templates reuses this.
    """
    abox = frozenset(abox)
    codec = _Codec()
    sc, sp, dom, rng = _encode_tbox(codec, tbox)
    classes, roles = _encode_abox(codec, abox)
    cls_out, role_out = _abox_closure(sc, sp, dom, rng, classes, roles)
    # Only derived facts are decoded; the input atoms are reused as they are.
    dec = codec.dec
    new = {ClassAtom(dec(i), dec(c)) for i, c in cls_out - classes}
    new.update(RoleAtom(dec(s), dec(p), dec(o)) for s, p, o in role_out - roles)
    return abox.union(new)


def tbox_closure(tbox: Iterable) -> frozenset:
    """Fixpoint of the two transitivity rules; other axiom kinds pass through."""
    tbox = frozenset(tbox)
    codec = _Codec()
    sc, sp, _, _ = _encode_tbox(codec, tbox)
    dec = codec.dec
    out = set(tbox)
    for kind, edges in ((SubClassAtom, sc), (SubPropAtom, sp)):
        out.update(kind(dec(a), dec(b))
                   for a, above in _reach(edges).items() for b in above)
    return frozenset(out)


def materialise(store: TripleStore) -> TripleStore:
    """Close the whole store under all six rules.

    The explicit ABox partition is preserved; everything newly derived (or
    already present but not explicit) lands in the implicit partition.  The
    mode tag tracks the assertional notion only, but the TBox comes out
    transitively closed as well.
    """
    closure = abox_fixpoint(store.tbox, store.abox)
    return TripleStore(
        tbox=tbox_closure(store.tbox),
        abox_explicit=store.abox_explicit,
        abox_implicit=closure - store.abox_explicit,
        mode=StoreMode.MATERIALISED,
    )


def materialise_abox(store: TripleStore) -> TripleStore:
    """Close the ABox under the four assertional rules; TBox untouched."""
    closure = abox_fixpoint(store.tbox, store.abox)
    return TripleStore(
        tbox=store.tbox,
        abox_explicit=store.abox_explicit,
        abox_implicit=closure - store.abox_explicit,
        mode=StoreMode.MATERIALISED,
    )


def _group_abox(codec: _Codec, abox: Iterable
                ) -> tuple[dict[Term, set[int]], dict[tuple[Term, Term], set[int]]]:
    """Each individual's classes and each (subject, object) pair's properties."""
    classes_by_inst: dict[Term, set[int]] = {}
    props_by_pair: dict[tuple[Term, Term], set[int]] = {}
    for a in abox:
        if isinstance(a, ClassAtom):
            classes_by_inst.setdefault(a.inst, set()).add(codec.enc(a.cls))
        else:
            props_by_pair.setdefault((a.subj, a.obj), set()).add(codec.enc(a.prop))
    return classes_by_inst, props_by_pair


def _split_equivalents(reach: Edges) -> tuple[Edges, dict[int, int]]:
    """A closed subsumption relation, split by equivalence.

    Returns, for each node `x` with an edge, the nodes above `x` and not
    equivalent to it, and, for each node on a cycle, the name of its
    equivalence class: the smallest id among its members.  Every other node
    is the only member of its class.
    """
    above: Edges = {}
    names: dict[int, int] = {}
    for x, ys in reach.items():
        if x in ys:
            equiv = {y for y in ys if x in reach.get(y, ())}
            names[x] = min(equiv)
            above[x] = ys - equiv
        else:
            above[x] = ys
    return above, names


def _survivors(present: set[int], covered: set[int], names: dict[int, int],
               key) -> Iterable[int]:
    """The smallest present member, by `key`, of each equivalence class not
    covered."""
    best: dict[int, int] = {}
    for x in present - covered:
        name = names.get(x, x)
        other = best.get(name)
        best[name] = x if other is None else min(x, other, key=key)
    return best.values()


def reduce_store(store: TripleStore) -> TripleStore:
    """Strip every assertion derivable from the rest of the store.

    An assertion is redundant when the others (outside its own mutual-
    implication class) still derive it.  Within a class of mutually implied
    assertions (possible only under cyclic subsumptions) exactly one
    survivor is kept: the one with the smallest class/property IRI.  The
    TBox is left as-is; derivability is checked against its transitive
    closure so chains count even when the TBox is not closed.
    """
    codec = _Codec()
    dec = codec.dec
    sc, sp, dom, rng = _encode_tbox(codec, store.tbox)

    def key(i: int) -> tuple:
        return term_key(dec(i))

    cls_reach, prop_reach = _reach(sc), _reach(sp)
    cls_above, cls_names = _split_equivalents(cls_reach)
    prop_above, prop_names = _split_equivalents(prop_reach)

    def implied(by_prop: Edges) -> Edges:
        # Domain and range fire on derived superproperty assertions too, so
        # a role implies the domain/range classes of all its
        # superproperties, and every class above those.
        out: Edges = {}
        for p in by_prop.keys() | prop_reach.keys():
            classes: set[int] = set()
            for q in prop_reach.get(p, set()) | {p}:
                for c in by_prop.get(q, ()):
                    classes.add(c)
                    classes |= cls_reach.get(c, set())
            out[p] = classes
        return out

    dom_implied, rng_implied = implied(dom), implied(rng)

    classes_by_inst, props_by_pair = _group_abox(codec, store.abox)
    covered_by_roles: dict[Term, set[int]] = {}
    for (s, o), present in props_by_pair.items():
        for p in present:
            covered_by_roles.setdefault(s, set()).update(dom_implied.get(p, ()))
            covered_by_roles.setdefault(o, set()).update(rng_implied.get(p, ()))

    # A present class or property is derived from outside its equivalence
    # class exactly when it lies strictly above another present one, or (for
    # a class) among the classes the individual's roles imply.  Both sets
    # are closed upward, so they cover whole equivalence classes.
    survivors = []
    for inst, present in classes_by_inst.items():
        covered = set(covered_by_roles.get(inst, ()))
        for c in present:
            covered |= cls_above.get(c, set())
        survivors.extend(
            ClassAtom(inst, dec(c))
            for c in _survivors(present, covered, cls_names, key)
        )
    for (s, o), present in props_by_pair.items():
        covered = set()
        for p in present:
            covered |= prop_above.get(p, set())
        survivors.extend(
            RoleAtom(s, dec(p), o)
            for p in _survivors(present, covered, prop_names, key)
        )

    return TripleStore(
        tbox=store.tbox,
        abox_explicit=frozenset(survivors),
        abox_implicit=frozenset(),
        mode=StoreMode.REDUCED,
    )


def is_materialised(store: TripleStore) -> bool:
    """Does the ABox already contain everything the assertional rules derive?

    The ABox is closed exactly when one application of the four rules adds
    nothing to it: every class or property present has its superclasses or
    superproperties present, and every role its domain and range classes.
    """
    codec = _Codec()
    sc, sp, dom, rng = _encode_tbox(codec, store.tbox)
    classes_by_inst, props_by_pair = _group_abox(codec, store.abox)
    none: frozenset[int] = frozenset()
    return all(
        sc.get(c, none) <= present
        for present in classes_by_inst.values() for c in present
    ) and all(
        sp.get(p, none) <= present
        and dom.get(p, none) <= classes_by_inst.get(s, none)
        and rng.get(p, none) <= classes_by_inst.get(o, none)
        for (s, o), present in props_by_pair.items() for p in present
    )


def is_reduced(store: TripleStore) -> bool:
    """Is the ABox free of assertions derivable from the rest?"""
    return store.abox == reduce_store(store).abox
