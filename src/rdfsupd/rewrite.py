"""Pattern rewriting: cause expansion, effect expansion, rewritten updates.

`rewrite_bgp` unfolds a conjunctive pattern against the TBox into the union
of all patterns that entail it: each assertional atom is repeatedly replaced
by an atom it can be derived from (subclass member, domain/range witness,
subproperty assertion).  Domain/range steps introduce fresh existential
variables from the reserved `?x#...` namespace.

On top of that sit the update rewritings: `all_causes` flattens the unfolded
union into one delete template, `all_effects` closes an insert template
under the assertional rules, and the builders assemble the rewritten
operations for the cause/effect strategy, the cause-deleting reduced
strategy, and the two subsumption-cut strategies.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from rdfsupd.entailment import abox_fixpoint
from rdfsupd.errors import UnsupportedFeature
from rdfsupd.model import (
    ABOX_KINDS,
    PREDICATE,
    AnyTermAtom,
    Atom,
    Bgp,
    ClassAtom,
    DomainAtom,
    PathAtom,
    RangeAtom,
    RoleAtom,
    SubClassAtom,
    SubPropAtom,
    UnionPattern,
    Var,
    atom_sort_key,
    atom_terms,
    atom_vars,
    term_key,
)
from rdfsupd.sparql import UpdateOperation

FRESH_PREFIX = "x#"


def is_fresh_var(v: Var) -> bool:
    return v.name.startswith(FRESH_PREFIX)


@dataclass(frozen=True)
class RewriteResult:
    """Union of conjunctive patterns; the input pattern is always a member."""

    ucq: UnionPattern
    fresh_vars: frozenset


def rewrite_atom(atom: Atom, axiom, fresh) -> Atom:
    """One derivation-step replacement; `fresh` mints existential variables."""
    if isinstance(atom, ClassAtom) and isinstance(axiom, SubClassAtom):
        return ClassAtom(atom.inst, axiom.sub)
    if isinstance(atom, ClassAtom) and isinstance(axiom, DomainAtom):
        return RoleAtom(atom.inst, axiom.prop, fresh())
    if isinstance(atom, ClassAtom) and isinstance(axiom, RangeAtom):
        return RoleAtom(fresh(), axiom.prop, atom.inst)
    if isinstance(atom, RoleAtom) and isinstance(axiom, SubPropAtom):
        return RoleAtom(atom.subj, axiom.sub, atom.obj)
    raise ValueError(f"axiom {axiom!r} not applicable to {atom!r}")


_FRESH_SENTINEL = (2,)


def _canon_key(atoms: frozenset) -> tuple:
    """Pattern identity modulo renaming of fresh variables.

    Fresh variables are existential and occur exactly once each (they are
    only ever introduced as a domain/range witness), so collapsing them to a
    sentinel in the sorted atom sequence is a faithful canonical form.
    """

    def tkey(t):
        if isinstance(t, Var) and is_fresh_var(t):
            return _FRESH_SENTINEL
        return term_key(t)

    def akey(atom):
        return (atom_sort_key(atom)[0],) + tuple(tkey(t) for t in atom_terms(atom))

    return tuple(sorted(akey(a) for a in atoms))


def rewrite_bgp(bgp: Bgp, tbox, counter: Optional[Iterator[int]] = None
                ) -> RewriteResult:
    """Unfold a pattern into the union of everything that derives it.

    Deterministic: patterns are visited in insertion order, atoms and axioms
    in their canonical sort order, and fresh variables are numbered
    `?x#1, ?x#2, ...` in allocation order.  Cyclic TBoxes terminate because
    candidate patterns are deduplicated modulo fresh-variable renaming and
    the space of such patterns over a finite vocabulary is finite.
    Non-assertional atoms (terminological, path, binder) pass through
    unexpanded.
    """
    if counter is None:
        counter = itertools.count(1)

    def fresh() -> Var:
        return Var(f"{FRESH_PREFIX}{next(counter)}")

    # The axioms that derive an atom in one step, in canonical order, keyed
    # by the atom's kind and class or property.
    steps = defaultdict(list)
    for ax in sorted(tbox, key=atom_sort_key):
        if type(ax) is SubPropAtom:
            steps[RoleAtom, ax.sup].append(ax)
        elif type(ax) is SubClassAtom:
            steps[ClassAtom, ax.sup].append(ax)
        else:
            steps[ClassAtom, ax.cls].append(ax)
    first = frozenset(bgp.atoms)
    seen = {_canon_key(first)}
    queue: list[frozenset] = [first]
    i = 0
    while i < len(queue):
        atoms = queue[i]
        i += 1
        for g in sorted(atoms, key=atom_sort_key):
            if not isinstance(g, ABOX_KINDS):
                continue
            target = g.cls if type(g) is ClassAtom else g.prop
            for ax in steps.get((type(g), target), ()):
                candidate = frozenset((atoms - {g}) | {rewrite_atom(g, ax, fresh)})
                key = _canon_key(candidate)
                if key not in seen:
                    seen.add(key)
                    queue.append(candidate)
    disjuncts = frozenset(Bgp(a, general=bgp.general) for a in queue)
    fresh_vars = frozenset(
        v for a in queue for atom in a for v in atom_vars(atom) if is_fresh_var(v)
    )
    return RewriteResult(UnionPattern(disjuncts), fresh_vars)


def all_causes(bgp: Bgp, tbox, counter: Optional[Iterator[int]] = None) -> Bgp:
    """Flatten the unfolded union into one pattern holding every atom from
    which some instantiation of `bgp` is derivable."""
    result = rewrite_bgp(bgp, tbox, counter)
    atoms = frozenset(a for d in result.ucq.disjuncts for a in d.atoms)
    return Bgp(atoms, general=bgp.general)


def all_effects(bgp: Bgp, tbox) -> Bgp:
    """Close a pattern under the assertional rules, variables read as
    constants; terminological inputs are not template material here."""
    for a in bgp.atoms:
        if not isinstance(a, ABOX_KINDS):
            raise UnsupportedFeature(
                f"effect expansion applies to assertional templates only, got {a!r}"
            )
    return Bgp(abox_fixpoint(tbox, bgp.atoms), general=bgp.general)


def free_var_binders(rewritten_delete: Bgp, original_delete: Bgp
                     ) -> tuple[AnyTermAtom, ...]:
    """One any-term binder per variable the rewriting introduced into the
    delete template; joined into the WHERE clause so instantiation can
    ground them against every term of the store."""
    fresh = rewritten_delete.vars() - original_delete.vars()
    return tuple(AnyTermAtom(v) for v in sorted(fresh, key=term_key))


def _rewritten_where(where: UnionPattern, tbox, binders, counter
                     ) -> UnionPattern:
    disjuncts = set()
    for d in sorted(where.disjuncts,
                    key=lambda b: tuple(atom_sort_key(a) for a in b.sorted_atoms())):
        result = rewrite_bgp(d, tbox, counter)
        for cq in result.ucq.disjuncts:
            disjuncts.add(Bgp(cq.atoms | set(binders), general=cq.general))
    return UnionPattern(frozenset(disjuncts))


def build_mat2_update(u: UpdateOperation, tbox) -> UpdateOperation:
    """Cause/effect rewriting: delete template joined with all its causes,
    insert template closed under its effects, WHERE unfolded and joined with
    the fresh-variable binders."""
    counter = itertools.count(1)
    delete = all_causes(u.delete_template, tbox, counter)
    binders = free_var_binders(delete, u.delete_template)
    insert = all_effects(u.insert_template, tbox)
    where = _rewritten_where(u.where, tbox, binders, counter)
    return UpdateOperation(delete, insert, where)


def build_red1_update(u: UpdateOperation, tbox) -> UpdateOperation:
    """Like the cause/effect rewriting but with the insert template kept
    verbatim (a reduced store re-shrinks inserts anyway)."""
    counter = itertools.count(1)
    delete = all_causes(u.delete_template, tbox, counter)
    binders = free_var_binders(delete, u.delete_template)
    where = _rewritten_where(u.where, tbox, binders, counter)
    return UpdateOperation(delete, u.insert_template, where)


class CutDirection(Enum):
    OUT = "out"
    IN = "in"


def build_cut_update(u: UpdateOperation, direction: CutDirection
                     ) -> UpdateOperation:
    """Rewrite subsumption deletions into canonical cuts.

    Every `A1 sc A2` triple in the delete template (sc one of the two
    subsumption predicates) turns into the deletion of the edges directly
    leaving A1 towards A2 (OUT) or directly entering A2 from A1 (IN): the
    template atom gets a fresh cut variable and the WHERE clause is extended
    with the corresponding zero-or-more path pattern.  Everything else
    passes through untouched.
    """
    counter = itertools.count(1)
    new_delete = set()
    extra: list[Atom] = []
    for atom in sorted(u.delete_template, key=atom_sort_key):
        if isinstance(atom, (SubClassAtom, SubPropAtom)):
            kind = type(atom)
            pred = PREDICATE[kind]
            cut = Var(f"{FRESH_PREFIX}c{next(counter)}")
            if direction is CutDirection.OUT:
                new_delete.add(kind(atom.sub, cut))
                extra += [kind(atom.sub, cut), PathAtom(cut, pred, atom.sup)]
            else:
                new_delete.add(kind(cut, atom.sup))
                extra += [PathAtom(atom.sub, pred, cut), kind(cut, atom.sup)]
        else:
            new_delete.add(atom)
    if not extra:
        return u
    where = UnionPattern(
        frozenset(
            Bgp(d.atoms | set(extra), general=True) for d in u.where.disjuncts
        )
    )
    return UpdateOperation(
        Bgp(frozenset(new_delete), general=True), u.insert_template, where
    )
