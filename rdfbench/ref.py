"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports `rdfsupd`: facts are triples of local names as
`gen.py` writes them.  The algorithms differ from the program's on purpose.
The closure is one pass over the facts through reflexive-transitive
superclass and superproperty maps (the program runs a semi-naive fixpoint),
and a fact counts as redundant when some other stored fact generates it
alone, which is exact for RDFS: every derivation of an assertion starts
from a single stored assertion.
"""

from __future__ import annotations

from gen import DOM, RNG, SC, SP, TBOX_PREDS, TYPE


def _reach(edges: dict, start: str) -> set:
    """Nodes reachable from `start` by one or more edges."""
    seen, todo = set(), list(edges.get(start, ()))
    while todo:
        n = todo.pop()
        if n not in seen:
            seen.add(n)
            todo.extend(edges.get(n, ()))
    return seen


class Tbox:
    """Closed views of a TBox given as terminological triples."""

    def __init__(self, triples):
        self.triples = frozenset(triples)
        sc, sp, dom, rng = {}, {}, {}, {}
        for s, p, o in self.triples:
            {SC: sc, SP: sp, DOM: dom, RNG: rng}[p].setdefault(s, set()).add(o)
        self._sc, self._sp, self._dom, self._rng = sc, sp, dom, rng
        self.sup_c = {}   # class -> classes it is subsumed by, itself included
        self.sup_p = {}
        for c in set(sc) | {o for v in sc.values() for o in v}:
            self.sup_c[c] = _reach(sc, c) | {c}
        for q in set(sp) | {o for v in sp.values() for o in v}:
            self.sup_p[q] = _reach(sp, q) | {q}
        # Classes an assertion `x q y` gives its subject / object.
        self.dom_cls, self.rng_cls = {}, {}
        for q in set(dom) | set(rng) | set(self.sup_p):
            for table, out in ((dom, self.dom_cls), (rng, self.rng_cls)):
                cls = set()
                for r in self.sup_p.get(q, {q}):
                    for c in table.get(r, ()):
                        cls |= self.sup_c.get(c, {c})
                if cls:
                    out[q] = cls

    def closed(self) -> frozenset:
        """The TBox with both subsumption relations transitively closed."""
        out = set(self.triples)
        for edges, pred in ((self._sc, SC), (self._sp, SP)):
            for a in edges:
                out.update((a, pred, b) for b in _reach(edges, a))
        return frozenset(out)

    def generated(self, fact) -> set:
        """Every assertion `fact` entails on its own, itself included."""
        s, p, o = fact
        if p == TYPE:
            return {(s, TYPE, c) for c in self.sup_c.get(o, {o})}
        out = {(s, q, o) for q in self.sup_p.get(p, {p})}
        out.update((s, TYPE, c) for c in self.dom_cls.get(p, ()))
        out.update((o, TYPE, c) for c in self.rng_cls.get(p, ()))
        return out


    def one_step(self, fact) -> list:
        """What one rule application derives from `fact`."""
        s, p, o = fact
        if p == TYPE:
            return [(s, TYPE, c) for c in self._sc.get(o, ())]
        out = [(s, q, o) for q in self._sp.get(p, ())]
        out += [(s, TYPE, c) for c in self._dom.get(p, ())]
        out += [(o, TYPE, c) for c in self._rng.get(p, ())]
        return out


def closure(tbox: Tbox, facts) -> frozenset:
    out = set()
    for f in facts:
        out |= tbox.generated(f)
    return frozenset(out)


def _entails(tbox: Tbox, g, f) -> bool:
    """Does the stored assertion `g` alone entail the assertion `f`?"""
    gs, gp, go = g
    fs, fp, fo = f
    if fp == TYPE:
        if gp == TYPE:
            return gs == fs and fo in tbox.sup_c.get(go, (go,))
        return (gs == fs and fo in tbox.dom_cls.get(gp, ())) or (
            go == fs and fo in tbox.rng_cls.get(gp, ()))
    return gp != TYPE and (gs, go) == (fs, fo) and fp in tbox.sup_p.get(gp, (gp,))


def _about(facts) -> dict:
    about: dict[str, list] = {}
    for f in facts:
        about.setdefault(f[0], []).append(f)
        if f[1] != TYPE:
            about.setdefault(f[2], []).append(f)
    return about


def redundant(tbox: Tbox, facts, only=None) -> list:
    """Assertions (of `only`, by default all) that some other assertion of
    `facts` entails alone."""
    about = _about(facts)
    return [
        f for f in (facts if only is None else only)
        if any(g != f and _entails(tbox, g, f) for g in about[f[0]])
    ]


def underivable(tbox: Tbox, facts, candidates) -> list:
    """Candidates that no assertion of `facts` entails."""
    about = _about(facts)
    return [f for f in candidates
            if not any(_entails(tbox, g, f) for g in about.get(f[0], ()))]


def unclosed(tbox: Tbox, facts, only=None) -> list:
    """One-step consequences of `only` (by default all of `facts`) missing
    from `facts`; none, over all facts, means the set is closed."""
    return [g for f in (facts if only is None else only)
            for g in tbox.one_step(f) if g not in facts]


def touching(facts, individuals) -> list:
    """The assertions that mention one of `individuals`.  Every rule relates
    assertions that share an individual, so after a change confined to
    these individuals only their assertions can break closure or
    reduction."""
    return [f for f in facts
            if f[0] in individuals or (f[1] != TYPE and f[2] in individuals)]


def split(triples) -> tuple[frozenset, frozenset]:
    tb = frozenset(t for t in triples if t[1] in TBOX_PREDS)
    return tb, frozenset(triples) - tb


def _is_var(x: str) -> bool:
    return x.startswith("?")


class Index:
    """Lookup tables over a set of assertions for pattern matching."""

    def __init__(self, facts):
        self.facts = frozenset(facts)
        self.by_pred: dict[str, list] = {}
        for s, p, o in self.facts:
            self.by_pred.setdefault(p, []).append((s, o))


def solutions(atoms, index: Index, tbox_triples=frozenset()) -> list[dict]:
    """All matches of a conjunctive pattern against the facts, by
    backtracking; the most bound atom is matched first."""
    tb_index = {}
    for s, p, o in tbox_triples:
        tb_index.setdefault(p, []).append((s, o))
    out = []

    def bound(atom, theta):
        return sum(1 for t in (atom[0], atom[2]) if not _is_var(t) or t in theta)

    def walk(rest, theta):
        if not rest:
            out.append(dict(theta))
            return
        atom = max(rest, key=lambda a: bound(a, theta))
        others = [a for a in rest if a is not atom]
        s, p, o = atom
        pairs = tb_index.get(p, ()) if p in TBOX_PREDS else index.by_pred.get(p, ())
        s_val = theta.get(s, s if not _is_var(s) else None)
        o_val = theta.get(o, o if not _is_var(o) else None)
        for fs, fo in pairs:
            if s_val is not None and fs != s_val:
                continue
            if o_val is not None and fo != o_val:
                continue
            ext = dict(theta)
            if s_val is None:
                ext[s] = fs
            if o_val is None:
                if o in ext and ext[o] != fo:
                    continue
                ext[o] = fo
            walk(others, ext)

    walk(list(atoms), {})
    return out


def answers(vars_, atoms, index: Index) -> frozenset:
    return frozenset(tuple(th[v] for v in vars_) for th in solutions(atoms, index))


def instantiate(template, sols) -> set:
    return {
        tuple(th.get(t, t) if _is_var(t) else t for t in atom)
        for th in sols for atom in template
    }


def naive_update(tbox_triples, abox, delete, insert, where) -> tuple[frozenset, frozenset]:
    """(TBox, ABox) after a plain delete-then-insert with simple WHERE
    matching; `where=None` is the DATA form (one empty solution)."""
    sols = [{}] if where is None else solutions(where, Index(abox), tbox_triples)
    dt, da = split(instantiate(delete, sols))
    it, ia = split(instantiate(insert, sols))
    return (frozenset(tbox_triples) - dt) | it, (frozenset(abox) - da) | ia


def parse_serialized(text: str) -> frozenset:
    """Triples of the program's Turtle output: one `s p o .` per line,
    default-namespace names only."""
    back = {"a": TYPE, "rdfs:subClassOf": SC, "rdfs:subPropertyOf": SP,
            "rdfs:domain": DOM, "rdfs:range": RNG}
    out = set()
    for line in text.splitlines():
        if not line or line.startswith("@prefix"):
            continue
        s, p, o, dot = line.split(" ")
        if dot != "." or not s.startswith(":") or not o.startswith(":"):
            raise ValueError(f"unexpected serialized line {line!r}")
        out.add((s[1:], back.get(p, p[1:]), o[1:]))
    return frozenset(out)
