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

Each per-kind fact is written once, in one ordered table of the nine atom
kinds (`_KIND_TABLE`): the canonical rank order, the fixed triple predicate
of the five kinds that have one, and, as slices of the table, the TBox and
ABox kinds.  A kind's terms are its dataclass fields in order.  The term
getters, `substitute`, `atom_to_triple`, `classify_triple`, the sort key,
the store's validation and the TBox/ABox split are derived from the table
and the fields, and the other modules read them instead of branching on
the kind.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import attrgetter
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

#: Every atom kind, in canonical rank order, with the fixed predicate of its
#: triple form and what `classify_triple` calls its arguments in errors.
#: The first four are the TBox kinds and the next two the ABox kinds; the
#: first seven have a triple form.  A kind's terms are its fields in order;
#: role atoms and triple patterns carry their predicate as the middle one.
_KIND_TABLE = (
    (SubClassAtom, RDFS_SUBCLASSOF, "a class name"),
    (SubPropAtom, RDFS_SUBPROPERTYOF, "a property name"),
    (DomainAtom, RDFS_DOMAIN, "a domain argument"),
    (RangeAtom, RDFS_RANGE, "a range argument"),
    (ClassAtom, RDF_TYPE, "an rdf:type argument"),
    (RoleAtom, None, "a role argument"),
    (TriplePattern, None, None),
    (PathAtom, None, None),
    (AnyTermAtom, None, None),
)

_KINDS = tuple(kind for kind, _, _ in _KIND_TABLE)
TBOX_KINDS = _KINDS[:4]
ABOX_KINDS = _KINDS[4:6]
STORED_KINDS = _KINDS[:6]
_TRIPLE_KINDS = _KINDS[:7]
_RANK = {kind: i for i, kind in enumerate(_KINDS)}
_ARGUMENTS = {kind: what for kind, _, what in _KIND_TABLE}

#: The fixed triple predicate of each kind that has one.
PREDICATE = {kind: pred for kind, pred, _ in _KIND_TABLE if pred is not None}
_KIND_OF_PREDICATE = {pred: kind for kind, pred in PREDICATE.items()}

#: Predicates that encode an assertion kind rather than a user role.
RESERVED_PREDICATES = frozenset(PREDICATE.values())


def _term_getter(kind: type):
    names = [f.name for f in fields(kind)]
    if len(names) == 1:
        return lambda atom, get=attrgetter(names[0]): (get(atom),)
    return attrgetter(*names)


#: Each kind's getter of its terms, as a tuple in field order.
TERM_GETTERS = {kind: _term_getter(kind) for kind in _KINDS}


def atom_terms(atom: Atom) -> tuple[Term, ...]:
    """Terms of the atom in field order (paths include the predicate)."""
    try:
        return TERM_GETTERS[type(atom)](atom)
    except KeyError:
        raise TypeError(f"not an atom: {atom!r}") from None


def atom_vars(atom: Atom) -> frozenset[Var]:
    return frozenset(t for t in atom_terms(atom) if type(t) is Var)


def is_ground(atom: Atom) -> bool:
    return Var not in map(type, atom_terms(atom))


def substitute(atom: Atom, binding: Mapping[Var, Iri]) -> Atom:
    """Replace bound variables; unbound variables and constants (a path's
    predicate among them) stay in place."""
    return type(atom)(*[binding.get(t, t) if type(t) is Var else t
                        for t in atom_terms(atom)])


def split_tbox_abox(atoms: Iterable[Atom]) -> tuple[frozenset, frozenset]:
    """The terminological atoms, and all the others."""
    tbox, rest = set(), set()
    for a in atoms:
        (tbox if type(a) in TBOX_KINDS else rest).add(a)
    return frozenset(tbox), frozenset(rest)


def term_key(term: Term) -> tuple:
    """Total order over terms: IRIs before variables, byte-wise within."""
    if isinstance(term, Iri):
        return (0, term.value.encode("utf-8"))
    return (1, term.name.encode("utf-8"))


def atom_sort_key(atom: Atom) -> tuple:
    return (_RANK[type(atom)],) + tuple(term_key(t) for t in atom_terms(atom))


def atom_to_triple(atom: Atom) -> tuple[Term, Term, Term]:
    """Triple view of an atom. Paths and binders have no triple form."""
    kind = type(atom)
    if kind not in _TRIPLE_KINDS:
        raise TypeError(f"{kind.__name__} has no triple form")
    terms = TERM_GETTERS[kind](atom)
    pred = PREDICATE.get(kind)
    return terms if pred is None else (terms[0], pred, terms[1])


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
    kind = _KIND_OF_PREDICATE.get(pred)
    if kind is None:
        if is_vocab_iri(pred):
            raise NonStandardUse(f"reserved vocabulary predicate {pred}")
        kind = RoleAtom
    if kind in TBOX_KINDS and not general and (
            isinstance(subj, Var) or isinstance(obj, Var)):
        raise VarInPredicate(
            "terminological pattern with variables requires general mode"
        )
    for t in (subj, obj):
        if is_vocab_iri(t):
            raise NonStandardUse(
                f"reserved vocabulary {t} used as {_ARGUMENTS[kind]}")
    if kind is ClassAtom and isinstance(obj, Var) and not general:
        raise VarInPredicate(
            f"variable class position {obj} requires general mode"
        )
    return RoleAtom(subj, pred, obj) if kind is RoleAtom else kind(subj, obj)


def ground_atom_wellformed(atom: Atom) -> bool:
    """True if a ground assertion/axiom stays inside the stored fragment.

    Substitution can smuggle reserved vocabulary into argument positions
    (a general triple pattern may bind a variable to e.g. `rdf:type`);
    such instantiations are not storable.
    """
    if type(atom) not in STORED_KINDS:
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
        self.validate()

    def validate(self) -> None:
        """Structural invariants; cheap enough to run on every construction."""
        if self.abox_explicit & self.abox_implicit:
            raise ValueError("explicit and implicit ABox overlap")
        if self.mode is not StoreMode.MATERIALISED and self.abox_implicit:
            raise ValueError(f"{self.mode.value} store cannot hold implicit triples")
        for part, kinds, what in ((self.tbox, TBOX_KINDS, "terminological axiom"),
                                  (self.abox, ABOX_KINDS, "assertion")):
            for a in part:
                if type(a) not in kinds or not is_ground(a):
                    raise ValueError(f"not a ground {what}: {a!r}")

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
        tbox, abox = split_tbox_abox(atoms)
        return cls(tbox, abox, frozenset(), mode)


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
