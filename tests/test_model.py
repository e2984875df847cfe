import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import rdfsupd
from conftest import ex
from rdfsupd.errors import NonStandardUse, VarInPredicate
from rdfsupd.model import (
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    AnyTermAtom,
    ClassAtom,
    DomainAtom,
    PathAtom,
    RangeAtom,
    RoleAtom,
    StoreMode,
    SubClassAtom,
    SubPropAtom,
    TriplePattern,
    TripleStore,
    Var,
    atom_sort_key,
    atom_terms,
    atom_to_triple,
    classify_triple,
    store_diff,
    substitute,
)


class TestClassifyTriple:
    def test_subproperty(self):
        atom = classify_triple(ex("hasFather"), RDFS_SUBPROPERTYOF, ex("hasParent"))
        assert atom == SubPropAtom(ex("hasFather"), ex("hasParent"))

    def test_type(self):
        assert classify_triple(ex("joe"), RDF_TYPE, ex("Child")) == ClassAtom(
            ex("joe"), ex("Child")
        )

    def test_subclass_domain_range(self):
        assert classify_triple(ex("A"), RDFS_SUBCLASSOF, ex("B")) == SubClassAtom(
            ex("A"), ex("B")
        )
        assert classify_triple(ex("p"), RDFS_DOMAIN, ex("A")) == DomainAtom(
            ex("p"), ex("A")
        )
        assert classify_triple(ex("p"), RDFS_RANGE, ex("A")) == RangeAtom(
            ex("p"), ex("A")
        )

    def test_role(self):
        assert classify_triple(ex("joe"), ex("hasParent"), ex("jack")) == RoleAtom(
            ex("joe"), ex("hasParent"), ex("jack")
        )

    def test_tbox_pattern_needs_general(self):
        with pytest.raises(VarInPredicate):
            classify_triple(Var("x"), RDFS_SUBCLASSOF, ex("B"), general=False)
        atom = classify_triple(Var("x"), RDFS_SUBCLASSOF, ex("B"), general=True)
        assert atom == SubClassAtom(Var("x"), ex("B"))

    def test_var_predicate(self):
        with pytest.raises(VarInPredicate):
            classify_triple(ex("a"), Var("p"), ex("b"), general=False)
        atom = classify_triple(ex("a"), Var("p"), ex("b"), general=True)
        assert atom == TriplePattern(ex("a"), Var("p"), ex("b"))

    def test_var_class_position(self):
        with pytest.raises(VarInPredicate):
            classify_triple(ex("a"), RDF_TYPE, Var("c"), general=False)
        assert classify_triple(ex("a"), RDF_TYPE, Var("c"), general=True) == ClassAtom(
            ex("a"), Var("c")
        )

    def test_reserved_vocabulary_rejected(self):
        from rdfsupd.model import RDFS_NS, Iri

        with pytest.raises(NonStandardUse):
            classify_triple(ex("x"), RDF_TYPE, RDFS_SUBCLASSOF)
        with pytest.raises(NonStandardUse):
            classify_triple(RDF_TYPE, ex("p"), ex("y"))
        with pytest.raises(NonStandardUse):
            classify_triple(ex("x"), Iri(RDFS_NS + "label"), ex("y"))
        with pytest.raises(NonStandardUse):
            classify_triple(ex("A"), RDFS_SUBCLASSOF, RDF_TYPE)

    def test_roundtrip(self):
        cases = [
            ((ex("hasFather"), RDFS_SUBPROPERTYOF, ex("hasParent")),
             SubPropAtom(ex("hasFather"), ex("hasParent"))),
            ((ex("A"), RDFS_SUBCLASSOF, ex("B")), SubClassAtom(ex("A"), ex("B"))),
            ((ex("p"), RDFS_DOMAIN, ex("A")), DomainAtom(ex("p"), ex("A"))),
            ((ex("p"), RDFS_RANGE, ex("A")), RangeAtom(ex("p"), ex("A"))),
            ((ex("joe"), RDF_TYPE, ex("Child")), ClassAtom(ex("joe"), ex("Child"))),
            ((ex("joe"), ex("hasParent"), ex("jack")),
             RoleAtom(ex("joe"), ex("hasParent"), ex("jack"))),
        ]
        for t, atom in cases:
            assert classify_triple(*t) == atom
            assert atom_to_triple(atom) == t
        general = (ex("a"), Var("p"), Var("o"))
        assert classify_triple(*general, general=True) == TriplePattern(*general)
        assert atom_to_triple(TriplePattern(*general)) == general
        with pytest.raises(TypeError):
            atom_to_triple(PathAtom(ex("A"), RDFS_SUBCLASSOF, ex("B")))
        with pytest.raises(TypeError):
            atom_to_triple(AnyTermAtom(ex("a")))


class TestSubstitute:
    def test_partial_binding(self):
        atom = RoleAtom(Var("x"), ex("p"), Var("y"))
        out = substitute(atom, {Var("x"): ex("a")})
        assert out == RoleAtom(ex("a"), ex("p"), Var("y"))

    def test_binding_ignores_constants(self):
        atom = ClassAtom(ex("a"), ex("C"))
        assert substitute(atom, {Var("a"): ex("z")}) == atom

    def test_every_kind(self):
        # One pattern per kind in rank order, its terms in field order, and
        # the pattern with every variable bound.  A path's predicate is a
        # constant and stays.
        X, Y, Z = Var("x"), Var("y"), Var("z")
        cases = [
            (SubClassAtom(X, Y), (X, Y), SubClassAtom(ex("a"), ex("b"))),
            (SubPropAtom(X, Y), (X, Y), SubPropAtom(ex("a"), ex("b"))),
            (DomainAtom(X, Y), (X, Y), DomainAtom(ex("a"), ex("b"))),
            (RangeAtom(X, Y), (X, Y), RangeAtom(ex("a"), ex("b"))),
            (ClassAtom(X, Y), (X, Y), ClassAtom(ex("a"), ex("b"))),
            (RoleAtom(X, Y, Z), (X, Y, Z), RoleAtom(ex("a"), ex("b"), ex("c"))),
            (TriplePattern(X, Y, Z), (X, Y, Z),
             TriplePattern(ex("a"), ex("b"), ex("c"))),
            (PathAtom(X, RDFS_SUBCLASSOF, Z), (X, RDFS_SUBCLASSOF, Z),
             PathAtom(ex("a"), RDFS_SUBCLASSOF, ex("c"))),
            (AnyTermAtom(X), (X,), AnyTermAtom(ex("a"))),
        ]
        binding = {X: ex("a"), Y: ex("b"), Z: ex("c")}
        for pattern, terms, ground in cases:
            assert atom_terms(pattern) == terms
            assert substitute(pattern, binding) == ground
        patterns = [pattern for pattern, _, _ in cases]
        assert sorted(reversed(patterns), key=atom_sort_key) == patterns


class TestTripleStore:
    def test_set_semantics(self):
        a = ClassAtom(ex("x"), ex("A"))
        one = TripleStore(frozenset(), frozenset({a}), frozenset())
        twice = TripleStore(frozenset(), frozenset({a, a}), frozenset())
        assert one == twice

    def test_partition_must_be_disjoint(self):
        a = ClassAtom(ex("x"), ex("A"))
        with pytest.raises(ValueError):
            TripleStore(
                frozenset(), frozenset({a}), frozenset({a}), StoreMode.MATERIALISED
            )

    def test_plain_store_cannot_hold_implicit(self):
        a = ClassAtom(ex("x"), ex("A"))
        with pytest.raises(ValueError):
            TripleStore(frozenset(), frozenset(), frozenset({a}), StoreMode.PLAIN)

    def test_equality_ignores_partition_and_mode(self):
        a = ClassAtom(ex("x"), ex("A"))
        b = ClassAtom(ex("x"), ex("B"))
        s1 = TripleStore(frozenset(), frozenset({a, b}), frozenset())
        s2 = TripleStore(
            frozenset(), frozenset({a}), frozenset({b}), StoreMode.MATERIALISED
        )
        assert s1 == s2
        assert hash(s1) == hash(s2)
        assert not s1.same_partition(s2)

    def test_non_ground_assertion_rejected(self):
        with pytest.raises(ValueError):
            TripleStore(frozenset(), frozenset({ClassAtom(Var("x"), ex("A"))}),
                        frozenset())

    def test_validates_under_optimisation(self):
        # `python -O` strips asserts and `if __debug__` blocks; the store's
        # invariants must hold there too.
        code = textwrap.dedent("""
            from rdfsupd.model import ClassAtom, Iri, StoreMode, TripleStore, Var
            a = ClassAtom(Iri("http://example.org/x"), Iri("http://example.org/A"))
            builds = [
                lambda: TripleStore(abox_explicit={ClassAtom(Var("x"), a.cls)}),
                lambda: TripleStore(abox_explicit={a}, abox_implicit={a},
                                    mode=StoreMode.MATERIALISED),
            ]
            for build in builds:
                try:
                    build()
                except ValueError:
                    continue
                raise SystemExit("invalid store accepted")
        """)
        src_dir = str(Path(rdfsupd.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src_dir}, timeout=60,
        )
        assert out.returncode == 0, out.stdout + out.stderr

    def test_terms_universe(self, family_store):
        assert ex("joe") in family_store.terms
        assert ex("Father") in family_store.terms
        assert ex("hasMother") in family_store.terms
        assert RDFS_SUBCLASSOF not in family_store.terms

    def test_punning_allowed(self):
        # One IRI as individual, class, and property at once.
        store = TripleStore.from_atoms(
            [
                ClassAtom(ex("thing"), ex("thing")),
                RoleAtom(ex("a"), ex("thing"), ex("b")),
            ]
        )
        assert len(store.abox) == 2


class TestStoreDiff:
    def test_identity(self, family_store):
        assert store_diff(family_store, family_store).empty

    def test_added_assertions(self, family_store, family_mat):
        diff = store_diff(family_store, family_mat)
        assert diff.removed_abox == frozenset()
        assert diff.added_abox == frozenset(
            {
                ClassAtom(ex("joe"), ex("Child")),
                RoleAtom(ex("joe"), ex("hasParent"), ex("jane")),
                ClassAtom(ex("jack"), ex("Parent")),
                ClassAtom(ex("jane"), ex("Mother")),
                ClassAtom(ex("jane"), ex("Parent")),
            }
        )

    def test_from_empty(self):
        empty = TripleStore()
        target = TripleStore.from_atoms([ClassAtom(ex("x"), ex("A"))])
        diff = store_diff(empty, target)
        assert diff.added_abox == frozenset({ClassAtom(ex("x"), ex("A"))})
        assert diff.removed_abox == frozenset()
