"""Execution of update operations under every supported strategy.

All strategies share one skeleton: evaluate the WHERE clause once against
the pre-update snapshot, instantiate both templates with every solution,
drop instantiations that stay non-ground, then apply deletions before
insertions.  They differ in which entailment regime binds the WHERE clause,
how templates are rewritten beforehand, and which normalisation runs
afterwards (mat2 and red1 take only the templates of the paper's rewritten
operations, `build_mat2_update` and `build_red1_update`):

==========  =============================================================
naive       plain set difference/union, no reasoning; result mode plain
mat0        naive over the closed store, then re-materialise
mat1a       also erase every consequence of the deleted assertions
mat1b       like mat1a but explicit inserts survive: the explicit
            partition is updated set-wise and the implicit one is
            recomputed by delete-and-rederive
mat2        naive with the delete template joined with all its causes and
            the insert template closed under all its effects
red0        naive with entailed WHERE bindings, then re-reduce
red1        red0 with the delete template joined with all its causes
outcut      subsumption deletions cut the edges leaving the subclass
incut       subsumption deletions cut the edges entering the superclass
==========  =============================================================

Stores are snapshots: every function returns a new store.  `run` checks
once that the store has the mode the strategy needs (`Semantics.mode`);
the `apply_*` functions take it as given.
"""

from __future__ import annotations

from enum import Enum
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

from rdfsupd.entailment import abox_fixpoint, materialise, reduce_store
from rdfsupd.errors import (
    ModeError,
    NonStandardUse,
    UnknownSemantics,
    UnsupportedFeature,
    VarInPredicate,
)
from rdfsupd.model import (
    ABOX_KINDS,
    STORED_KINDS,
    Atom,
    Bgp,
    StoreMode,
    Substitution,
    TriplePattern,
    TripleStore,
    atom_to_triple,
    atom_vars,
    classify_triple,
    ground_atom_wellformed,
    split_tbox_abox,
    substitute,
)
from rdfsupd.query import AnswerSet, stored_matches, update_solutions
from rdfsupd.rewrite import (
    CutDirection,
    all_causes,
    all_effects,
    build_cut_update,
    is_fresh_var,
)
from rdfsupd.sparql import UpdateOperation


class Semantics(Enum):
    """Update strategy identifiers, as accepted by the CLI.

    `mode` is the store mode the strategy needs and keeps: materialised for
    the mat family and the cuts, reduced for the red family, and None for
    naive, which takes a store of any mode.
    """

    NAIVE = ("naive", None)
    MAT0 = ("mat0", StoreMode.MATERIALISED)
    MAT1A = ("mat1a", StoreMode.MATERIALISED)
    MAT1B = ("mat1b", StoreMode.MATERIALISED)
    MAT2 = ("mat2", StoreMode.MATERIALISED)
    RED0 = ("red0", StoreMode.REDUCED)
    RED1 = ("red1", StoreMode.REDUCED)
    OUTCUT = ("outcut", StoreMode.MATERIALISED)
    INCUT = ("incut", StoreMode.MATERIALISED)

    def __new__(cls, value: str, mode: Optional[StoreMode]):
        sem = object.__new__(cls)
        sem._value_ = value
        sem.mode = mode
        return sem

    @classmethod
    def parse(cls, name: str) -> "Semantics":
        key = name.strip().lower()
        if key == "mat3":
            raise UnsupportedFeature(
                "the mat3 strategy is not implemented; its two candidate "
                "constructions (mat1a combined with mat2, or mat1b combined "
                "with mat2) are left open"
            )
        for sem in cls:
            if sem.value == key:
                return sem
        raise UnknownSemantics(
            f"unknown semantics {name!r}; expected one of "
            + ", ".join(s.value for s in cls)
        )


@dataclass(frozen=True)
class InstantiationResult:
    """Ground atoms to delete and insert, computed from one binding set."""

    deletes: frozenset
    inserts: frozenset


def _finish_atom(a: Atom) -> Optional[Atom]:
    if isinstance(a, TriplePattern):
        try:
            a = classify_triple(*atom_to_triple(a), general=True)
        except (NonStandardUse, VarInPredicate):
            return None
    if not ground_atom_wellformed(a):
        # A general WHERE clause can bind reserved vocabulary (it occurs in
        # predicate positions of the triple view); instantiations outside
        # the storable fragment are dropped like non-ground ones.
        return None
    return a


def _ground_template(template: Bgp, theta: Substitution,
                     free: frozenset = frozenset(),
                     store: Optional[TripleStore] = None,
                     match: bool = False) -> Iterable[Atom]:
    """Ground instantiations of a template under one solution.

    Variables in `free` are any-term binder variables, and so are the
    rewriter's witnesses (`?x#n`), which no WHERE clause binds: they range
    over the term universe of `store` independently, so each template atom
    grounds them locally instead of the caller enumerating their product.
    With `match`, a storable atom grounds them only to the facts of `store`
    it matches; this is for delete templates whose result is only
    subtracted from the store, where an absent fact deletes nothing.
    """
    for atom in template:
        a = substitute(atom, theta)
        missing = atom_vars(a)
        if not missing:
            groundings = (a,)
        elif not all(v in free or is_fresh_var(v) for v in missing):
            continue
        elif match and type(a) in STORED_KINDS:
            groundings = (substitute(a, s) for s in stored_matches(a, store))
        else:
            order = tuple(missing)
            universe = store.terms if store is not None else ()
            groundings = (substitute(a, dict(zip(order, combo)))
                          for combo in product(universe, repeat=len(order)))
        for g in groundings:
            done = _finish_atom(g)
            if done is not None:
                yield done


def instantiate(op: UpdateOperation, bindings) -> InstantiationResult:
    """Instantiate both templates with every binding, keeping ground atoms.

    `bindings` is an answer set or any iterable of substitutions.  Both
    result sets come from the same binding collection: WHERE is evaluated
    once against the pre-update state, so a self-referential operation
    cannot see its own writes.
    """
    if isinstance(bindings, AnswerSet):
        bindings = bindings.substitutions()
    return _instantiate_stream(op, ((theta, frozenset()) for theta in bindings))


def _instantiate_stream(op: UpdateOperation, solutions,
                        store: Optional[TripleStore] = None,
                        match_deletes: bool = False) -> InstantiationResult:
    """Ground both templates under each solution of the stream.

    Solutions that agree on the template variables and on their free set
    ground to the same atoms, so only the first of them is grounded.
    """
    template_vars = tuple(op.delete_template.vars() | op.insert_template.vars())
    seen = set()
    deletes, inserts = set(), set()
    for theta, free in solutions:
        key = (tuple(theta.get(v) for v in template_vars), free)
        if key in seen:
            continue
        seen.add(key)
        deletes.update(_ground_template(op.delete_template, theta, free, store,
                                        match_deletes))
        inserts.update(_ground_template(op.insert_template, theta, free, store))
    return InstantiationResult(frozenset(deletes), frozenset(inserts))


def _evaluate(op: UpdateOperation, store: TripleStore, entailed: bool = False,
              match_deletes: bool = False) -> InstantiationResult:
    return _instantiate_stream(
        op, update_solutions(op.where, store, entailed=entailed), store,
        match_deletes,
    )


def _apply_sets(store: TripleStore, inst: InstantiationResult) -> TripleStore:
    """(G minus deletions) union insertions; deletions first, plain result."""
    del_tbox, del_abox = split_tbox_abox(inst.deletes)
    ins_tbox, ins_abox = split_tbox_abox(inst.inserts)
    return TripleStore(
        tbox=(store.tbox - del_tbox) | ins_tbox,
        abox_explicit=(store.abox - del_abox) | ins_abox,
        abox_implicit=frozenset(),
        mode=StoreMode.PLAIN,
    )


def apply_naive(store: TripleStore, op: UpdateOperation) -> TripleStore:
    """Baseline: simple-entailment WHERE, set-wise delete then insert."""
    inst = _evaluate(op, store, match_deletes=True)
    return _apply_sets(store, inst)


def _require_mode(store: TripleStore, mode: StoreMode):
    if store.mode is not mode:
        verb = "mat" if mode is StoreMode.MATERIALISED else "red"
        raise ModeError(
            f"this strategy needs a {mode.value} store "
            f"(got {store.mode.value}; run {verb} first)"
        )


def _reject_terminological_templates(op: UpdateOperation, sem: str):
    for template in (op.delete_template, op.insert_template):
        for atom in template:
            if not isinstance(atom, ABOX_KINDS):
                raise UnsupportedFeature(
                    f"{sem} only supports assertional templates; "
                    "terminological updates go through naive, mat0, outcut, "
                    "or incut"
                )


def apply_mat0(store: TripleStore, op: UpdateOperation) -> TripleStore:
    """Naive update on the closed store, then re-materialise."""
    return materialise(apply_naive(store, op))


def apply_mat1a(store: TripleStore, op: UpdateOperation) -> TripleStore:
    """Delete the instantiations together with everything they entail, then
    insert and re-materialise.  Explicitly inserted consequences do not
    survive: the strategy tracks no provenance."""
    _reject_terminological_templates(op, "mat1a")
    # Deletes are ground over the term universe: an instantiation that is
    # not stored still has consequences to erase.  The templates are
    # assertional, and so are all their instantiations.
    inst = _evaluate(op, store)
    delete_closure = abox_fixpoint(store.tbox, inst.deletes)
    abox = (store.abox - delete_closure) | inst.inserts
    return materialise(
        TripleStore(store.tbox, abox, frozenset(), StoreMode.PLAIN)
    )


def apply_mat1b(store: TripleStore, op: UpdateOperation) -> TripleStore:
    """Partition-aware variant: deletions and insertions edit the explicit
    ABox, and the implicit ABox is recomputed by delete-and-rederive:
    over-delete every consequence of the deleted assertions, then close the
    surviving facts plus the new explicit set again.  That second step
    re-closes every survivor, so it costs the size of the store, not of the
    update (ROADMAP item 1).  Equivalent to re-deriving the implicit set
    from scratch, which the property suite verifies."""
    _reject_terminological_templates(op, "mat1b")
    inst = _evaluate(op, store)
    explicit = (store.abox_explicit - inst.deletes) | inst.inserts
    survivors = store.abox - abox_fixpoint(store.tbox, inst.deletes)
    closure = abox_fixpoint(store.tbox, survivors | explicit)
    return TripleStore(
        tbox=store.tbox,
        abox_explicit=explicit,
        abox_implicit=closure - explicit,
        mode=StoreMode.MATERIALISED,
    )


def apply_mat2(store: TripleStore, op: UpdateOperation) -> TripleStore:
    """Causes-and-effects strategy: naive with the delete template joined
    with all its causes and the insert template closed under its effects.

    On a materialised store the WHERE clause as written has the entailed
    answers, and so is the result: removing an instantiation together with
    every assertion that derives it cannot strand a derived fact, and
    insertions carry their full consequence set.
    """
    _reject_terminological_templates(op, "mat2")
    causes = all_causes(op.delete_template, store.tbox)
    effects = all_effects(op.insert_template, store.tbox)
    plain = apply_naive(store, UpdateOperation(causes, effects, op.where))
    return TripleStore(
        plain.tbox, plain.abox, frozenset(), StoreMode.MATERIALISED
    )


def apply_red0(store: TripleStore, op: UpdateOperation,
               where_regime: str = "rdfs") -> TripleStore:
    """Naive update followed by re-reduction.

    WHERE bindings default to entailed answers (found by rewriting, so
    implicit matches are visible on the redundancy-free store); pass
    ``where_regime="simple"`` for explicit-only matching.
    """
    _reject_terminological_templates(op, "red0")
    inst = _evaluate(op, store, entailed=where_regime != "simple",
                     match_deletes=True)
    return reduce_store(_apply_sets(store, inst))


def apply_red1(store: TripleStore, op: UpdateOperation) -> TripleStore:
    """Causes-deleting reduced strategy: red0 with the delete template
    joined with all its causes, the insert template untouched."""
    _reject_terminological_templates(op, "red1")
    causes = all_causes(op.delete_template, store.tbox)
    return apply_red0(store, UpdateOperation(causes, op.insert_template, op.where))


def apply_tbox_cut(store: TripleStore, op: UpdateOperation,
                   direction: CutDirection) -> TripleStore:
    """Subsumption-cut strategy for general updates: mat0 over the cut
    rewriting of `build_cut_update`.

    Works on a store with materialised TBox (which `materialise` produces);
    the cut then removes, per deleted `A sc B` triple, a minimal edge cut
    disconnecting A from B.  Assertional updates degenerate to mat0.
    """
    return apply_mat0(store, build_cut_update(op, direction))


def bootstrap_partition(store: TripleStore) -> TripleStore:
    """Canonical explicit/implicit split for a store without update history:
    the reduced core becomes explicit, everything else implicit."""
    _require_mode(store, StoreMode.MATERIALISED)
    core = reduce_store(store).abox
    return TripleStore(
        tbox=store.tbox,
        abox_explicit=core,
        abox_implicit=store.abox - core,
        mode=StoreMode.MATERIALISED,
    )


def run(store: TripleStore, op: UpdateOperation, semantics: Semantics,
        where_regime: Optional[str] = None) -> TripleStore:
    """Dispatch an update under the chosen strategy.

    The store mode must match the strategy family (any mode for naive,
    materialised for mat*/cuts, reduced for red*); the input snapshot is
    never modified.
    """
    if semantics.mode is not None:
        _require_mode(store, semantics.mode)
    if semantics is Semantics.NAIVE:
        return apply_naive(store, op)
    if semantics is Semantics.MAT0:
        return apply_mat0(store, op)
    if semantics is Semantics.MAT1A:
        return apply_mat1a(store, op)
    if semantics is Semantics.MAT1B:
        return apply_mat1b(store, op)
    if semantics is Semantics.MAT2:
        return apply_mat2(store, op)
    if semantics is Semantics.RED0:
        return apply_red0(store, op, where_regime or "rdfs")
    if semantics is Semantics.RED1:
        return apply_red1(store, op)
    if semantics is Semantics.OUTCUT:
        return apply_tbox_cut(store, op, CutDirection.OUT)
    if semantics is Semantics.INCUT:
        return apply_tbox_cut(store, op, CutDirection.IN)
    raise ValueError(f"unhandled semantics {semantics!r}")
