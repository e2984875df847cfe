"""Core data model: terms, assertions, patterns, and triple stores.

The store speaks a deliberately small RDF fragment.  Terminological (TBox)
statements are subclass, subproperty, domain, and range assertions between
named classes and properties; assertional (ABox) statements are class
memberships `x rdf:type A` and role assertions `x P y` between named
individuals.  Every constant is an IRI: literals and blank nodes are outside
the fragment and rejected by the parsers.

Patterns reuse the same atom classes with variables in term positions.  In
the default ("non-general") pattern language variables may only occur in
individual positions; general patterns additionally admit terminological
atoms, variables in class/property positions, raw triple patterns with a
variable predicate, zero-or-more subsumption paths, and the internal
any-term binder.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, Mapping, Union

from rdfsupd.errors import NonStandardUse, VarInPredicate

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"

#: Default namespace used for the empty prefix by the parser and serializer.
EXAMPLE_NS = "http://example.org/"


@dataclass(frozen=True, slots=True, order=True)
class Iri:
    """An absolute IRI; the only kind of constant in the fragment."""

    value: str

    def __post_init__(self):
        if not self.value:
            raise ValueError("IRI must be non-empty")

    def __str__(self) -> str:
        return f"<{self.value}>"


@dataclass(frozen=True, slots=True, order=True)
class Var:
    """A query variable; surface syntax `?name`.

    Names starting with the internal prefix ``x#`` are reserved for fresh
    variables minted by the rewriter and cannot be produced from surface
    syntax (`#` starts a comment in both grammars).
    """

    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("variable name must be non-empty")

    def __str__(self) -> str:
        return f"?{self.name}"


Term = Union[Iri, Var]

RDF_TYPE = Iri(RDF_NS + "type")
RDFS_SUBCLASSOF = Iri(RDFS_NS + "subClassOf")
RDFS_SUBPROPERTYOF = Iri(RDFS_NS + "subPropertyOf")
RDFS_DOMAIN = Iri(RDFS_NS + "domain")
RDFS_RANGE = Iri(RDFS_NS + "range")
RDFS_RESOURCE = Iri(RDFS_NS + "Resource")

#: Predicates that encode an assertion kind rather than a user role.
RESERVED_PREDICATES = frozenset(
    {RDF_TYPE, RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF, RDFS_DOMAIN, RDFS_RANGE}
)


def is_vocab_iri(term: Term) -> bool:
    """True for IRIs from the RDF/RDFS/OWL namespaces."""
    return isinstance(term, Iri) and term.value.startswith((RDF_NS, RDFS_NS, OWL_NS))


# ---------------------------------------------------------------------------
# Atoms.  Ground atoms double as stored assertions; atoms with variables are
# patterns.  `sub`/`sup`, `prop`, `cls` positions hold IRIs in stored data and
# may hold variables only in general patterns.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SubClassAtom:
    sub: Term
    sup: Term


@dataclass(frozen=True, slots=True)
class SubPropAtom:
    sub: Term
    sup: Term


@dataclass(frozen=True, slots=True)
class DomainAtom:
    prop: Term
    cls: Term


@dataclass(frozen=True, slots=True)
class RangeAtom:
    prop: Term
    cls: Term


@dataclass(frozen=True, slots=True)
class ClassAtom:
    """Class membership `inst rdf:type cls`."""

    inst: Term
    cls: Term


@dataclass(frozen=True, slots=True)
class RoleAtom:
    """Role assertion `subj prop obj` with a user property as predicate."""

    subj: Term
    prop: Term
    obj: Term


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """Raw triple pattern with a variable predicate (general patterns only).

    Matches the whole triple view of the store, including terminological and
    `rdf:type` triples, like a plain SPARQL triple pattern would.
    """

    subj: Term
    pred: Term
    obj: Term


@dataclass(frozen=True, slots=True)
class PathAtom:
    """Zero-or-more subsumption path `subj pred* obj`.

    `pred` is restricted to `rdfs:subClassOf` / `rdfs:subPropertyOf`.  The
    zero-length step matches any term occurring in the store.
    """

    subj: Term
    pred: Iri
    obj: Term


@dataclass(frozen=True, slots=True)
class AnyTermAtom:
    """Internal binder: matches every term occurring in the store.

    Written `?x a rdfs:Resource.` in pattern syntax; observably equivalent to
    the three-way union { {?x ?p ?o} UNION {?s ?x ?o} UNION {?s ?p ?x} }.
    """

    term: Term


TBoxAtom = Union[SubClassAtom, SubPropAtom, DomainAtom, RangeAtom]
AboxAtom = Union[ClassAtom, RoleAtom]
Atom = Union[TBoxAtom, AboxAtom, TriplePattern, PathAtom, AnyTermAtom]

TBOX_KINDS = (SubClassAtom, SubPropAtom, DomainAtom, RangeAtom)
ABOX_KINDS = (ClassAtom, RoleAtom)

_KIND_RANK = {
    SubClassAtom: 0,
    SubPropAtom: 1,
    DomainAtom: 2,
    RangeAtom: 3,
    ClassAtom: 4,
    RoleAtom: 5,
    TriplePattern: 6,
    PathAtom: 7,
    AnyTermAtom: 8,
}


def atom_terms(atom: Atom) -> tuple[Term, ...]:
    """Terms of the atom in positional order (paths include the predicate)."""
    if isinstance(atom, (SubClassAtom, SubPropAtom)):
        return (atom.sub, atom.sup)
    if isinstance(atom, (DomainAtom, RangeAtom)):
        return (atom.prop, atom.cls)
    if isinstance(atom, ClassAtom):
        return (atom.inst, atom.cls)
    if isinstance(atom, RoleAtom):
        return (atom.subj, atom.prop, atom.obj)
    if isinstance(atom, TriplePattern):
        return (atom.subj, atom.pred, atom.obj)
    if isinstance(atom, PathAtom):
        return (atom.subj, atom.pred, atom.obj)
    if isinstance(atom, AnyTermAtom):
        return (atom.term,)
    raise TypeError(f"not an atom: {atom!r}")


def atom_vars(atom: Atom) -> frozenset[Var]:
    return frozenset(t for t in atom_terms(atom) if isinstance(t, Var))


def is_ground(atom: Atom) -> bool:
    return not any(isinstance(t, Var) for t in atom_terms(atom))


def substitute(atom: Atom, binding: Mapping[Var, Iri]) -> Atom:
    """Replace bound variables; unbound variables stay in place."""

    def s(t: Term) -> Term:
        return binding.get(t, t) if isinstance(t, Var) else t

    if isinstance(atom, SubClassAtom):
        return SubClassAtom(s(atom.sub), s(atom.sup))
    if isinstance(atom, SubPropAtom):
        return SubPropAtom(s(atom.sub), s(atom.sup))
    if isinstance(atom, DomainAtom):
        return DomainAtom(s(atom.prop), s(atom.cls))
    if isinstance(atom, RangeAtom):
        return RangeAtom(s(atom.prop), s(atom.cls))
    if isinstance(atom, ClassAtom):
        return ClassAtom(s(atom.inst), s(atom.cls))
    if isinstance(atom, RoleAtom):
        return RoleAtom(s(atom.subj), s(atom.prop), s(atom.obj))
    if isinstance(atom, TriplePattern):
        return TriplePattern(s(atom.subj), s(atom.pred), s(atom.obj))
    if isinstance(atom, PathAtom):
        return PathAtom(s(atom.subj), atom.pred, s(atom.obj))
    if isinstance(atom, AnyTermAtom):
        return AnyTermAtom(s(atom.term))
    raise TypeError(f"not an atom: {atom!r}")


def term_key(term: Term) -> tuple:
    """Total order over terms: IRIs before variables, byte-wise within."""
    if isinstance(term, Iri):
        return (0, term.value.encode("utf-8"))
    return (1, term.name.encode("utf-8"))


def atom_sort_key(atom: Atom) -> tuple:
    return (_KIND_RANK[type(atom)],) + tuple(term_key(t) for t in atom_terms(atom))


def atom_to_triple(atom: Atom) -> tuple[Term, Term, Term]:
    """Triple view of an atom. Paths and binders have no triple form."""
    if isinstance(atom, SubClassAtom):
        return (atom.sub, RDFS_SUBCLASSOF, atom.sup)
    if isinstance(atom, SubPropAtom):
        return (atom.sub, RDFS_SUBPROPERTYOF, atom.sup)
    if isinstance(atom, DomainAtom):
        return (atom.prop, RDFS_DOMAIN, atom.cls)
    if isinstance(atom, RangeAtom):
        return (atom.prop, RDFS_RANGE, atom.cls)
    if isinstance(atom, ClassAtom):
        return (atom.inst, RDF_TYPE, atom.cls)
    if isinstance(atom, RoleAtom):
        return (atom.subj, atom.prop, atom.obj)
    if isinstance(atom, TriplePattern):
        return (atom.subj, atom.pred, atom.obj)
    raise TypeError(f"{type(atom).__name__} has no triple form")


def classify_triple(
    subj: Term, pred: Term, obj: Term, general: bool = False
) -> Atom:
    """Map a raw triple onto its assertion kind.

    The four RDFS predicates yield terminological atoms, `rdf:type` yields a
    class membership, and any other IRI predicate yields a role assertion.
    With ``general=False`` variables are only admitted in individual
    positions; with ``general=True`` any position may be a variable and a
    variable predicate yields a raw :class:`TriplePattern`.

    Raises :class:`NonStandardUse` when reserved vocabulary shows up in an
    argument position, and :class:`VarInPredicate` for variables outside the
    positions the non-general fragment allows.
    """
    if isinstance(pred, Var):
        if not general:
            raise VarInPredicate(f"variable predicate {pred} requires general mode")
        return TriplePattern(subj, pred, obj)

    def check_args(*terms: Term, what: str) -> None:
        for t in terms:
            if is_vocab_iri(t):
                raise NonStandardUse(f"reserved vocabulary {t} used as {what}")

    def check_tbox_vars(*terms: Term) -> None:
        if not general and any(isinstance(t, Var) for t in terms):
            raise VarInPredicate(
                "terminological pattern with variables requires general mode"
            )

    if pred == RDFS_SUBCLASSOF:
        check_tbox_vars(subj, obj)
        check_args(subj, obj, what="a class name")
        return SubClassAtom(subj, obj)
    if pred == RDFS_SUBPROPERTYOF:
        check_tbox_vars(subj, obj)
        check_args(subj, obj, what="a property name")
        return SubPropAtom(subj, obj)
    if pred == RDFS_DOMAIN:
        check_tbox_vars(subj, obj)
        check_args(subj, obj, what="a domain argument")
        return DomainAtom(subj, obj)
    if pred == RDFS_RANGE:
        check_tbox_vars(subj, obj)
        check_args(subj, obj, what="a range argument")
        return RangeAtom(subj, obj)
    if pred == RDF_TYPE:
        check_args(subj, obj, what="an rdf:type argument")
        if isinstance(obj, Var) and not general:
            raise VarInPredicate(
                f"variable class position {obj} requires general mode"
            )
        return ClassAtom(subj, obj)
    if is_vocab_iri(pred):
        raise NonStandardUse(f"reserved vocabulary predicate {pred}")
    check_args(subj, obj, what="a role argument")
    return RoleAtom(subj, pred, obj)


def ground_atom_wellformed(atom: Atom) -> bool:
    """True if a ground assertion/axiom stays inside the stored fragment.

    Substitution can smuggle reserved vocabulary into argument positions
    (a general triple pattern may bind a variable to e.g. `rdf:type`);
    such instantiations are not storable.
    """
    if not isinstance(atom, TBOX_KINDS + ABOX_KINDS):
        return False
    if any(is_vocab_iri(t) for t in atom_terms(atom)):
        return False
    if isinstance(atom, RoleAtom) and atom.prop in RESERVED_PREDICATES:
        return False
    return True


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bgp:
    """Basic graph pattern: a set of atoms read as a conjunction."""

    atoms: frozenset = frozenset()
    general: bool = False

    def __post_init__(self):
        object.__setattr__(self, "atoms", frozenset(self.atoms))

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self.atoms

    def vars(self) -> frozenset[Var]:
        return frozenset(v for a in self.atoms for v in atom_vars(a))

    def sorted_atoms(self) -> list[Atom]:
        return sorted(self.atoms, key=atom_sort_key)

    def is_ground(self) -> bool:
        return all(is_ground(a) for a in self.atoms)


EMPTY_BGP = Bgp()


@dataclass(frozen=True)
class UnionPattern:
    """Union of basic graph patterns; answers are the union of the disjuncts'.

    The empty group `{}` is represented as the union of one empty BGP, whose
    evaluation yields exactly one empty binding.
    """

    disjuncts: frozenset

    def __post_init__(self):
        object.__setattr__(self, "disjuncts", frozenset(self.disjuncts))
        if not self.disjuncts:
            raise ValueError("a union pattern needs at least one disjunct")

    @classmethod
    def single(cls, bgp: Bgp) -> "UnionPattern":
        return cls(frozenset({bgp}))

    @classmethod
    def empty(cls) -> "UnionPattern":
        return cls.single(EMPTY_BGP)

    def __iter__(self) -> Iterator[Bgp]:
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def vars(self) -> frozenset[Var]:
        return frozenset(v for d in self.disjuncts for v in d.vars())

    @property
    def is_general(self) -> bool:
        return any(d.general for d in self.disjuncts)

    def sorted_disjuncts(self) -> list[Bgp]:
        return sorted(
            self.disjuncts,
            key=lambda d: tuple(atom_sort_key(a) for a in d.sorted_atoms()),
        )


Substitution = Mapping[Var, Iri]


# ---------------------------------------------------------------------------
# Triple store
# ---------------------------------------------------------------------------


class StoreMode(Enum):
    PLAIN = "plain"
    MATERIALISED = "materialised"
    REDUCED = "reduced"


@dataclass(frozen=True, eq=False)
class TripleStore:
    """Immutable snapshot of a TBox plus a partitioned ABox.

    The explicit/implicit split of the ABox only carries meaning for the
    update strategy that tracks insertion provenance; every other operation
    works on the merged ABox.  Equality compares the TBox and the merged
    ABox — not the split, not the mode tag.
    """

    tbox: frozenset = frozenset()
    abox_explicit: frozenset = frozenset()
    abox_implicit: frozenset = frozenset()
    mode: StoreMode = StoreMode.PLAIN

    def __post_init__(self):
        object.__setattr__(self, "tbox", frozenset(self.tbox))
        object.__setattr__(self, "abox_explicit", frozenset(self.abox_explicit))
        object.__setattr__(self, "abox_implicit", frozenset(self.abox_implicit))
        if __debug__:
            self.validate()

    def validate(self) -> None:
        """Structural invariants; cheap enough to run on every construction."""
        if self.abox_explicit & self.abox_implicit:
            raise ValueError("explicit and implicit ABox overlap")
        if self.mode is not StoreMode.MATERIALISED and self.abox_implicit:
            raise ValueError(f"{self.mode.value} store cannot hold implicit triples")
        for ax in self.tbox:
            if not isinstance(ax, TBOX_KINDS) or not is_ground(ax):
                raise ValueError(f"not a ground terminological axiom: {ax!r}")
        for a in self.abox:
            if not isinstance(a, ABOX_KINDS) or not is_ground(a):
                raise ValueError(f"not a ground assertion: {a!r}")

    @cached_property
    def abox(self) -> frozenset:
        """The merged ABox, built once per snapshot."""
        if not self.abox_implicit:
            return self.abox_explicit
        return self.abox_explicit | self.abox_implicit

    @cached_property
    def terms(self) -> frozenset[Iri]:
        """All IRIs occurring in argument positions (the term universe)."""
        out = set()
        for atom in chain(self.tbox, self.abox):
            out.update(t for t in atom_terms(atom) if isinstance(t, Iri))
        return frozenset(out)

    @cached_property
    def triples(self) -> frozenset[tuple[Iri, Iri, Iri]]:
        """Triple view of everything stored, for raw pattern matching."""
        return frozenset(atom_to_triple(a) for a in chain(self.tbox, self.abox))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TripleStore):
            return NotImplemented
        return self.tbox == other.tbox and self.abox == other.abox

    def __hash__(self) -> int:
        return hash((self.tbox, self.abox))

    def same_partition(self, other: "TripleStore") -> bool:
        """Equality that also compares the explicit/implicit split."""
        return (
            self.tbox == other.tbox
            and self.abox_explicit == other.abox_explicit
            and self.abox_implicit == other.abox_implicit
        )

    @classmethod
    def from_atoms(cls, atoms: Iterable[Atom], mode: StoreMode = StoreMode.PLAIN
                   ) -> "TripleStore":
        """Split a soup of ground atoms into TBox and (explicit) ABox."""
        tbox, abox = set(), set()
        for a in atoms:
            (tbox if isinstance(a, TBOX_KINDS) else abox).add(a)
        return cls(frozenset(tbox), frozenset(abox), frozenset(), mode)


@dataclass(frozen=True)
class StoreDiff:
    """Symmetric difference of two stores, split by direction and kind."""

    added_tbox: frozenset
    removed_tbox: frozenset
    added_abox: frozenset
    removed_abox: frozenset

    @property
    def empty(self) -> bool:
        return not (
            self.added_tbox or self.removed_tbox or self.added_abox or self.removed_abox
        )


def store_diff(before: TripleStore, after: TripleStore) -> StoreDiff:
    return StoreDiff(
        added_tbox=after.tbox - before.tbox,
        removed_tbox=before.tbox - after.tbox,
        added_abox=after.abox - before.abox,
        removed_abox=before.abox - after.abox,
    )
