"""Brute-force reference implementations and instance generators.

Everything here exists for the test suite: a naive repeat-until-stable
closure, a subset-search reduction, exhaustive minimal-cut enumeration, a
backtracking pattern matcher, and seeded random store/update/query
generators.  The reference implementations
deliberately share no code with the engine they check — full cross products
instead of delta iteration, subset search instead of marking — and trade
speed for obviousness, with hard size limits instead of silent slowness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

from rdfsupd.errors import SizeLimit
from rdfsupd.model import (
    EXAMPLE_NS,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    RESERVED_PREDICATES,
    AnyTermAtom,
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
    TripleStore,
    UnionPattern,
    Var,
    atom_sort_key,
    atom_to_triple,
)
from rdfsupd.sparql import UpdateOperation


def _closure_step(tbox: set, abox: set) -> bool:
    """One full cross-product pass of the four assertional rules."""
    new = set()
    for ax in tbox:
        for a in abox:
            if isinstance(ax, SubPropAtom) and isinstance(a, RoleAtom) \
                    and a.prop == ax.sub:
                new.add(RoleAtom(a.subj, ax.sup, a.obj))
            elif isinstance(ax, RangeAtom) and isinstance(a, RoleAtom) \
                    and a.prop == ax.prop:
                new.add(ClassAtom(a.obj, ax.cls))
            elif isinstance(ax, DomainAtom) and isinstance(a, RoleAtom) \
                    and a.prop == ax.prop:
                new.add(ClassAtom(a.subj, ax.cls))
            elif isinstance(ax, SubClassAtom) and isinstance(a, ClassAtom) \
                    and a.cls == ax.sub:
                new.add(ClassAtom(a.inst, ax.sup))
    if new <= abox:
        return False
    abox |= new
    return True


def _oracle_abox_closure(tbox, abox) -> frozenset:
    out = set(abox)
    while _closure_step(set(tbox), out):
        pass
    return frozenset(out)


def _oracle_tbox_closure(tbox) -> frozenset:
    out = set(tbox)
    while True:
        new = set()
        for x in out:
            for y in out:
                if isinstance(x, SubClassAtom) and isinstance(y, SubClassAtom) \
                        and x.sup == y.sub:
                    new.add(SubClassAtom(x.sub, y.sup))
                elif isinstance(x, SubPropAtom) and isinstance(y, SubPropAtom) \
                        and x.sup == y.sub:
                    new.add(SubPropAtom(x.sub, y.sup))
        if new <= out:
            return frozenset(out)
        out |= new


def oracle_mat(store: TripleStore) -> TripleStore:
    """Reference materialisation: all six rules, repeat until nothing new."""
    tbox = _oracle_tbox_closure(store.tbox)
    abox = _oracle_abox_closure(tbox, store.abox)
    return TripleStore(
        tbox=tbox,
        abox_explicit=store.abox_explicit,
        abox_implicit=abox - store.abox_explicit,
        mode=StoreMode.MATERIALISED,
    )


def oracle_eval(bgp: Bgp, store: TripleStore, vars: tuple) -> frozenset:
    """Reference simple-entailment answers: the rows over `vars` of every
    assignment under which each atom of `bgp` is a stored triple.

    Backtracks over the whole triple view, atom by atom.  Paths read the
    oracle's own TBox closure plus a zero-length step for every term, and
    binders range over the terms: every IRI of the triple view except the
    reserved predicates.
    """
    triples = {atom_to_triple(a) for a in store.tbox | store.abox}
    roles = {t for t in triples if t[1] not in RESERVED_PREDICATES}
    terms = {x for s, p, o in triples for x in (s, o)} | {t[1] for t in roles}
    paths = {(t, pred, t) for t in terms
             for pred in (RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF)}
    for ax in _oracle_tbox_closure(store.tbox):
        if isinstance(ax, SubClassAtom):
            paths.add((ax.sub, RDFS_SUBCLASSOF, ax.sup))
        elif isinstance(ax, SubPropAtom):
            paths.add((ax.sub, RDFS_SUBPROPERTYOF, ax.sup))

    def facts(atom):
        if isinstance(atom, PathAtom):
            return (atom.subj, atom.pred, atom.obj), paths
        if isinstance(atom, AnyTermAtom):
            return (atom.term,), {(t,) for t in terms}
        return atom_to_triple(atom), roles if isinstance(atom, RoleAtom) else triples

    steps = [facts(a) for a in bgp.sorted_atoms()]
    rows = set()

    def search(k: int, binding: dict) -> None:
        if k == len(steps):
            rows.add(tuple(binding[v] for v in vars))
            return
        pattern, candidates = steps[k]
        for fact in candidates:
            ext = dict(binding)
            if all(ext.setdefault(p, f) == f if isinstance(p, Var) else p == f
                   for p, f in zip(pattern, fact)):
                search(k + 1, ext)

    search(0, {})
    return frozenset(rows)


ORACLE_RED_MAX_ABOX = 12


def oracle_red(store: TripleStore) -> TripleStore:
    """Reference reduction by exhaustive subset search.

    Finds the smallest subset of the ABox whose closure equals the full
    closure; among equal-size candidates the lexicographically smallest
    (by sorted atom sequence) wins, which is also how cyclic subsumptions
    are tie-broken by the engine.
    """
    abox = sorted(store.abox, key=atom_sort_key)
    if len(abox) > ORACLE_RED_MAX_ABOX:
        raise SizeLimit(
            f"oracle reduction is capped at {ORACLE_RED_MAX_ABOX} assertions, "
            f"got {len(abox)}"
        )
    target = _oracle_abox_closure(store.tbox, abox)
    for size in range(len(abox) + 1):
        candidates = [
            subset
            for subset in combinations(abox, size)
            if _oracle_abox_closure(store.tbox, subset) == target
        ]
        if candidates:
            best = min(
                candidates, key=lambda s: tuple(atom_sort_key(a) for a in s)
            )
            return TripleStore(
                tbox=store.tbox,
                abox_explicit=frozenset(best),
                abox_implicit=frozenset(),
                mode=StoreMode.REDUCED,
            )
    raise AssertionError("unreachable: the full ABox always qualifies")


CUT_MAX_NODES = 10


def enumerate_multicuts(tbox, kind: str, pairs, max_size: int) -> frozenset:
    """All inclusion-minimal edge sets (up to `max_size`) whose removal
    disconnects every (source, target) pair in the subsumption digraph.

    `kind` picks the edge relation: "sc" for subclass, "sp" for subproperty.
    If the pairs are already disconnected the unique minimal cut is the
    empty set.
    """
    atom_kind = SubClassAtom if kind == "sc" else SubPropAtom
    edges = sorted(
        (ax for ax in tbox if isinstance(ax, atom_kind)), key=atom_sort_key
    )
    nodes = {ax.sub for ax in edges} | {ax.sup for ax in edges}
    if len(nodes) > CUT_MAX_NODES:
        raise SizeLimit(
            f"cut enumeration is capped at {CUT_MAX_NODES} nodes, got {len(nodes)}"
        )

    def connected(removed: frozenset, a: Iri, b: Iri) -> bool:
        adj: dict[Iri, set[Iri]] = {}
        for ax in edges:
            if ax not in removed:
                adj.setdefault(ax.sub, set()).add(ax.sup)
        seen, stack = set(), [a]
        while stack:
            n = stack.pop()
            for m in adj.get(n, ()):
                if m == b:
                    return True
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        return False

    minimal: set[frozenset] = set()
    for size in range(min(max_size, len(edges)) + 1):
        for combo in combinations(edges, size):
            cut = frozenset(combo)
            if any(m <= cut for m in minimal):
                continue
            if not any(connected(cut, a, b) for a, b in pairs):
                minimal.add(cut)
    return frozenset(minimal)


def enumerate_cuts(tbox, kind: str, a: Iri, b: Iri, max_size: int) -> frozenset:
    """Minimal cuts disconnecting a single pair; see `enumerate_multicuts`."""
    return enumerate_multicuts(tbox, kind, [(a, b)], max_size)


# ---------------------------------------------------------------------------
# Seeded random instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    """Bounds for random instance generation; identical seeds reproduce
    identical instances."""

    max_classes: int = 5
    max_props: int = 3
    max_individuals: int = 4
    max_axioms: int = 8
    max_assertions: int = 10
    allow_cycles: bool = False
    seed: int = 0


def _vocab(rng: random.Random, cfg: GenConfig):
    classes = [Iri(f"{EXAMPLE_NS}C{i}") for i in range(rng.randint(0, cfg.max_classes))]
    props = [Iri(f"{EXAMPLE_NS}p{i}") for i in range(rng.randint(0, cfg.max_props))]
    inds = [Iri(f"{EXAMPLE_NS}i{i}") for i in range(rng.randint(0, cfg.max_individuals))]
    return classes, props, inds


def gen_store(cfg: GenConfig) -> TripleStore:
    """Random plain store within the fragment.

    Without `allow_cycles` the subclass/subproperty edges follow the index
    order of the generated names, so both subsumption graphs are acyclic.
    """
    rng = random.Random(cfg.seed)
    classes, props, inds = _vocab(rng, cfg)

    def sub_pair(pool):
        i, j = sorted(rng.sample(range(len(pool)), 2))
        if cfg.allow_cycles and rng.random() < 0.5:
            i, j = j, i
        return pool[i], pool[j]

    tbox = set()
    for _ in range(rng.randint(0, cfg.max_axioms)):
        kinds = []
        if len(classes) >= 2:
            kinds.append("sc")
        if len(props) >= 2:
            kinds.append("sp")
        if props and classes:
            kinds += ["dom", "rng"]
        if not kinds:
            break
        kind = rng.choice(kinds)
        if kind == "sc":
            tbox.add(SubClassAtom(*sub_pair(classes)))
        elif kind == "sp":
            tbox.add(SubPropAtom(*sub_pair(props)))
        elif kind == "dom":
            tbox.add(DomainAtom(rng.choice(props), rng.choice(classes)))
        else:
            tbox.add(RangeAtom(rng.choice(props), rng.choice(classes)))

    abox = set()
    for _ in range(rng.randint(0, cfg.max_assertions)):
        kinds = []
        if inds and classes:
            kinds.append("class")
        if inds and props:
            kinds.append("role")
        if not kinds:
            break
        if rng.choice(kinds) == "class":
            abox.add(ClassAtom(rng.choice(inds), rng.choice(classes)))
        else:
            abox.add(RoleAtom(rng.choice(inds), rng.choice(props), rng.choice(inds)))

    return TripleStore(frozenset(tbox), frozenset(abox), frozenset(),
                       StoreMode.PLAIN)


def _store_vocab(store: TripleStore):
    classes, props, inds = set(), set(), set()
    for ax in store.tbox:
        if isinstance(ax, (SubClassAtom, SubPropAtom)):
            pool = classes if isinstance(ax, SubClassAtom) else props
            pool.update((ax.sub, ax.sup))
        else:
            props.add(ax.prop)
            classes.add(ax.cls)
    for a in store.abox:
        if isinstance(a, ClassAtom):
            inds.add(a.inst)
            classes.add(a.cls)
        else:
            inds.update((a.subj, a.obj))
            props.add(a.prop)
    fallback = Iri(EXAMPLE_NS + "fresh")
    return (sorted(classes) or [fallback], sorted(props) or [fallback],
            sorted(inds) or [fallback])


def gen_query(cfg: GenConfig, store: TripleStore) -> Bgp:
    """Random conjunctive pattern (1-3 atoms) over the store's vocabulary,
    with shared variables to exercise joins."""
    rng = random.Random(cfg.seed ^ 0x51)
    classes, props, inds = _store_vocab(store)
    variables = [Var("v0"), Var("v1"), Var("v2")]

    def term():
        return rng.choice(variables) if rng.random() < 0.6 else rng.choice(inds)

    atoms = set()
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            atoms.add(ClassAtom(term(), rng.choice(classes)))
        else:
            atoms.add(RoleAtom(term(), rng.choice(props), term()))
    return Bgp(frozenset(atoms))


def gen_update(cfg: GenConfig, store: TripleStore,
               general: bool = False) -> UpdateOperation:
    """Random update over the store's vocabulary.

    Templates mix constants, WHERE-bound variables, and occasionally an
    unbound variable (whose instantiations then drop out as non-ground).
    With `general=True` the delete template may carry subsumption triples,
    which is what the cut strategies act on.
    """
    rng = random.Random(cfg.seed ^ 0xA5)
    classes, props, inds = _store_vocab(store)
    where_vars = [Var("w0"), Var("w1")]

    def where_atom():
        def term():
            return rng.choice(where_vars) if rng.random() < 0.5 else rng.choice(inds)

        if rng.random() < 0.5:
            return ClassAtom(term(), rng.choice(classes))
        return RoleAtom(term(), rng.choice(props), term())

    where_atoms = frozenset(where_atom() for _ in range(rng.randint(0, 2)))
    bound = sorted(Bgp(where_atoms).vars(), key=lambda v: v.name)

    def template_term():
        r = rng.random()
        if r < 0.4 and bound:
            return rng.choice(bound)
        if r < 0.5:
            return Var("unbound")
        return rng.choice(inds)

    def template_atoms():
        atoms = set()
        for _ in range(rng.randint(0, 2)):
            if rng.random() < 0.5:
                atoms.add(ClassAtom(template_term(), rng.choice(classes)))
            else:
                atoms.add(RoleAtom(template_term(), rng.choice(props),
                                   template_term()))
        return atoms

    delete = template_atoms()
    if general and rng.random() < 0.7:
        sub, sup = rng.choice(classes), rng.choice(classes)
        delete.add(SubClassAtom(sub, sup))
    insert = template_atoms()
    return UpdateOperation(
        Bgp(frozenset(delete), general=general),
        Bgp(frozenset(insert), general=general),
        UnionPattern.single(Bgp(where_atoms, general=general)),
    )
