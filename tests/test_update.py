import pytest

from conftest import ex, medium_store
from rdfsupd.entailment import (
    abox_fixpoint,
    is_materialised,
    is_reduced,
    materialise,
    reduce_store,
)
from rdfsupd.errors import ModeError, UnsupportedFeature
from rdfsupd.model import (
    ClassAtom,
    DomainAtom,
    RangeAtom,
    RoleAtom,
    StoreMode,
    SubClassAtom,
    TripleStore,
    Var,
)
from rdfsupd.oracle import GenConfig, gen_store, gen_update
from rdfsupd.query import update_solutions
from rdfsupd.rewrite import (
    all_causes,
    build_mat2_update,
    build_red1_update,
    is_fresh_var,
)
from rdfsupd.sparql import parse_update
from rdfsupd.turtle import parse_turtle
from rdfsupd.update import (
    Semantics,
    _instantiate_stream,
    apply_mat1b,
    apply_naive,
    apply_red0,
    bootstrap_partition,
    instantiate,
    run,
)

EX4 = (
    "DELETE { ?X a :Child. } INSERT { ?Y a :Mother. } WHERE { ?X :hasMother ?Y. }"
)


def classes_of(store):
    return {
        (a.inst.value.rsplit("/", 1)[-1], a.cls.value.rsplit("/", 1)[-1])
        for a in store.abox
        if isinstance(a, ClassAtom)
    }


class TestInstantiate:
    def test_family_binding(self):
        op = parse_update(EX4)
        inst = instantiate(op, [{Var("X"): ex("joe"), Var("Y"): ex("jane")}])
        assert inst.deletes == frozenset({ClassAtom(ex("joe"), ex("Child"))})
        assert inst.inserts == frozenset({ClassAtom(ex("jane"), ex("Mother"))})

    def test_unbound_instantiations_dropped(self):
        op = parse_update("DELETE { ?x a :A } INSERT { :b a :B } WHERE {}")
        inst = instantiate(op, [{}])
        assert inst.deletes == frozenset()
        assert inst.inserts == frozenset({ClassAtom(ex("b"), ex("B"))})

    def test_data_templates_verbatim(self):
        op = parse_update("INSERT DATA { :x a :C . :x :p :y }")
        inst = instantiate(op, [{}])
        assert inst.inserts == frozenset(
            {ClassAtom(ex("x"), ex("C")), RoleAtom(ex("x"), ex("p"), ex("y"))}
        )


class TestNaive:
    def test_family_update_on_reduced(self, family_store):
        # WHERE binds joe/jane; the deletion target is only implicit, so the
        # net effect is the bare insertion.
        op = parse_update(EX4)
        out = apply_naive(family_store, op)
        assert out.abox == family_store.abox | {ClassAtom(ex("jane"), ex("Mother"))}
        assert out.mode is StoreMode.PLAIN

    def test_empty_update_is_identity(self, family_store):
        op = parse_update("DELETE {} INSERT {} WHERE {}")
        assert apply_naive(family_store, op) == family_store

    def test_delete_absent_is_noop(self, family_store):
        op = parse_update("DELETE DATA { :nobody a :Child }")
        assert apply_naive(family_store, op) == family_store

    def test_insert_wins_over_delete(self, family_store):
        op = parse_update(
            "DELETE { :joe :hasParent :jack } INSERT { :joe :hasParent :jack } "
            "WHERE {}"
        )
        out = apply_naive(family_store, op)
        assert RoleAtom(ex("joe"), ex("hasParent"), ex("jack")) in out.abox

    def test_snapshot_semantics(self):
        # The WHERE clause sees the pre-state even while its matches are
        # being deleted.
        store = parse_turtle(":a a :C . :b a :C .")
        op = parse_update("DELETE { ?x a :C } INSERT { ?x a :D } WHERE { ?x a :C }")
        out = apply_naive(store, op)
        assert classes_of(out) == {("a", "D"), ("b", "D")}

    def test_naive_accepts_any_mode(self, family_mat, family_red):
        op = parse_update("INSERT DATA { :zoe a :Mother }")
        assert run(family_mat, op, Semantics.NAIVE).mode is StoreMode.PLAIN
        assert run(family_red, op, Semantics.NAIVE).mode is StoreMode.PLAIN


class TestMat0:
    def test_noop_on_family(self, family_mat):
        out = run(family_mat, parse_update(EX4), Semantics.MAT0)
        assert out == family_mat

    def test_divergence_sequence(self, chain_store):
        store = materialise(chain_store)
        store = run(store, parse_update("INSERT { :x a :C, :D, :E. }"),
                    Semantics.MAT0)
        store = run(store, parse_update("DELETE { :x a :C, :E. }"), Semantics.MAT0)
        assert classes_of(store) == {("x", "D"), ("x", "E")}
        store = run(store, parse_update("DELETE { :x a :D. }"), Semantics.MAT0)
        assert classes_of(store) == {("x", "E")}

    def test_mode_error(self, family_red):
        with pytest.raises(ModeError):
            run(family_red, parse_update(EX4), Semantics.MAT0)


class TestMat1a:
    def test_family_update_still_noop(self, family_mat):
        # The deleted membership is re-derived, the insert already present.
        out = run(family_mat, parse_update(EX4), Semantics.MAT1A)
        assert out == family_mat

    def test_divergence_sequence(self, chain_store):
        store = materialise(chain_store)
        store = run(store, parse_update("INSERT { :x a :C, :D, :E. }"),
                    Semantics.MAT1A)
        store = run(store, parse_update("DELETE { :x a :C, :E. }"),
                    Semantics.MAT1A)
        assert store.abox == frozenset()
        store = run(store, parse_update("DELETE { :x a :D. }"), Semantics.MAT1A)
        assert store.abox == frozenset()

    def test_delete_nothing_is_identity(self, family_mat):
        op = parse_update("INSERT { :zoe a :Mother } WHERE {}")
        out = run(family_mat, op, Semantics.MAT1A)
        expected = materialise(
            TripleStore(
                family_mat.tbox,
                family_mat.abox | {ClassAtom(ex("zoe"), ex("Mother"))},
                frozenset(),
            )
        )
        assert out == expected


class TestMat1b:
    def test_family_update_still_noop(self, family_mat):
        out = run(bootstrap_partition(family_mat), parse_update(EX4),
                  Semantics.MAT1B)
        assert out == family_mat

    def test_divergence_sequence(self, chain_store):
        store = materialise(chain_store)
        store = run(store, parse_update("INSERT { :x a :C, :D, :E. }"),
                    Semantics.MAT1B)
        store = run(store, parse_update("DELETE { :x a :C, :E. }"),
                    Semantics.MAT1B)
        assert classes_of(store) == {("x", "D"), ("x", "E")}
        assert store.abox_explicit == frozenset({ClassAtom(ex("x"), ex("D"))})
        store = run(store, parse_update("DELETE { :x a :D. }"), Semantics.MAT1B)
        assert store.abox == frozenset()

    def test_insert_of_implied_becomes_explicit(self, chain_store):
        store = materialise(
            TripleStore(chain_store.tbox,
                        frozenset({ClassAtom(ex("x"), ex("C"))}), frozenset())
        )
        out = run(store, parse_update("INSERT DATA { :x a :D }"), Semantics.MAT1B)
        assert out.abox == store.abox
        assert ClassAtom(ex("x"), ex("D")) in out.abox_explicit

    def test_dred_equals_scratch(self):
        for seed in range(120):
            base = materialise(gen_store(GenConfig(seed=seed)))
            store = bootstrap_partition(base)
            op = gen_update(GenConfig(seed=seed), store)
            out = apply_mat1b(store, op)
            scratch = abox_fixpoint(store.tbox, out.abox_explicit)
            assert out.abox == scratch
            assert out.abox_implicit == scratch - out.abox_explicit

    def test_bootstrap_partition(self, family_mat, family_store):
        booted = bootstrap_partition(family_mat)
        assert booted.abox_explicit == family_store.abox
        assert booted.abox == family_mat.abox
        with pytest.raises(ModeError):
            bootstrap_partition(family_store)


class TestMat2:
    def test_family_example(self, family_mat):
        out = run(family_mat, parse_update(EX4), Semantics.MAT2)
        assert classes_of(out) == {
            ("jane", "Mother"), ("jane", "Parent"), ("jack", "Parent")
        }
        assert len(out.abox) == 3
        assert is_materialised(out)

    def test_insert_then_delete_leaves_traces(self, family_store):
        # Frozen from hand-running the rewriting: inserting the two role
        # assertions materialises nine triples; deleting them again removes
        # only the two (they have no proper causes), leaving seven.
        store = materialise(
            TripleStore(family_store.tbox, frozenset(), frozenset())
        )
        store = run(
            store,
            parse_update(
                "DELETE {} INSERT { :joe :hasMother :jane; :hasFather :jack } "
                "WHERE {}"
            ),
            Semantics.MAT2,
        )
        assert len(store.abox) == 9
        store = run(
            store,
            parse_update(
                "DELETE { :joe :hasMother :jane; :hasFather :jack } INSERT {} "
                "WHERE {}"
            ),
            Semantics.MAT2,
        )
        assert store.abox == frozenset(
            {
                RoleAtom(ex("joe"), ex("hasParent"), ex("jane")),
                RoleAtom(ex("joe"), ex("hasParent"), ex("jack")),
                ClassAtom(ex("joe"), ex("Child")),
                ClassAtom(ex("jack"), ex("Father")),
                ClassAtom(ex("jane"), ex("Mother")),
                ClassAtom(ex("jane"), ex("Parent")),
                ClassAtom(ex("jack"), ex("Parent")),
            }
        )

    def test_delete_removes_disconnected_cause(self):
        # Deleting the Male membership takes the Father cause with it;
        # the Person effect of that cause survives.
        store = materialise(
            parse_turtle(":Father rdfs:subClassOf :Person, :Male .")
        )
        store = run(store, parse_update("INSERT { :x a :Father. }"),
                    Semantics.MAT2)
        assert classes_of(store) == {("x", "Father"), ("x", "Person"), ("x", "Male")}
        store = run(store, parse_update("DELETE { :x a :Male. }"), Semantics.MAT2)
        assert classes_of(store) == {("x", "Person")}


class TestRed0:
    def test_noop_on_family(self, family_red):
        out = run(family_red, parse_update(EX4), Semantics.RED0)
        assert out == family_red

    def test_insert_not_implied_kept(self, family_red):
        out = run(family_red, parse_update("INSERT DATA { :zoe a :Mother }"),
                  Semantics.RED0)
        assert ClassAtom(ex("zoe"), ex("Mother")) in out.abox
        assert is_reduced(out)

    def test_insert_implied_reduced_away(self, chain_store):
        store = reduce_store(
            TripleStore(chain_store.tbox,
                        frozenset({ClassAtom(ex("x"), ex("C"))}), frozenset())
        )
        out = run(store, parse_update("INSERT DATA { :x a :D }"), Semantics.RED0)
        assert out.abox == frozenset({ClassAtom(ex("x"), ex("C"))})

    def test_where_regime_flip(self, chain_store):
        # The deletion target is bound through an entailed match only.
        store = reduce_store(
            TripleStore(chain_store.tbox,
                        frozenset({ClassAtom(ex("x"), ex("C"))}), frozenset())
        )
        op = parse_update("DELETE { ?y a :C } WHERE { ?y a :D }")
        assert apply_red0(store, op).abox == frozenset()
        assert apply_red0(store, op, where_regime="simple") == store
        assert run(store, op, Semantics.RED0, where_regime="simple") == store


class TestRed1:
    def test_family_example(self, family_red):
        out = run(family_red, parse_update(EX4), Semantics.RED1)
        assert out.abox == frozenset({ClassAtom(ex("jane"), ex("Mother"))})
        assert RoleAtom(ex("joe"), ex("hasParent"), ex("jack")) not in out.abox

    def test_insert_then_delete_leaves_no_trace(self, family_store):
        store = reduce_store(
            TripleStore(family_store.tbox, frozenset(), frozenset())
        )
        store = run(
            store,
            parse_update(
                "DELETE {} INSERT { :joe :hasMother :jane; :hasFather :jack } "
                "WHERE {}"
            ),
            Semantics.RED1,
        )
        assert len(store.abox) == 2
        store = run(
            store,
            parse_update(
                "DELETE { :joe :hasMother :jane; :hasFather :jack } INSERT {} "
                "WHERE {}"
            ),
            Semantics.RED1,
        )
        assert store.abox == frozenset()

    def test_disconnected_cause_sequence_empties(self):
        store = reduce_store(
            parse_turtle(":Father rdfs:subClassOf :Person, :Male .")
        )
        store = run(store, parse_update("INSERT { :x a :Father. }"),
                    Semantics.RED1)
        assert classes_of(store) == {("x", "Father")}
        store = run(store, parse_update("DELETE { :x a :Male. }"), Semantics.RED1)
        assert store.abox == frozenset()


class TestTboxCut:
    def test_outcut_diamond(self, diamond_store):
        store = materialise(diamond_store)
        out = run(store, parse_update("DELETE { :A rdfs:subClassOf :F }",
                                      general=True), Semantics.OUTCUT)
        removed = {(ax.sub, ax.sup) for ax in store.tbox - out.tbox}
        # Frozen from evaluating {:A sc ?x . ?x sc* :F} over the closure.
        assert removed == {(ex("A"), ex(c)) for c in "BCDEF"}
        assert not any(ax.sub == ex("A") and ax.sup == ex("F")
                       for ax in out.tbox)

    def test_incut_diamond(self, diamond_store):
        store = materialise(diamond_store)
        out = run(store, parse_update("DELETE { :A rdfs:subClassOf :F }",
                                      general=True), Semantics.INCUT)
        removed = {(ax.sub, ax.sup) for ax in store.tbox - out.tbox}
        assert removed == {(ex(c), ex("F")) for c in "ABCDE"}

    def test_abox_update_equals_mat0(self, family_mat):
        op = parse_update(EX4)
        mat0 = run(family_mat, op, Semantics.MAT0)
        assert run(family_mat, op, Semantics.OUTCUT) == mat0
        assert run(family_mat, op, Semantics.INCUT) == mat0

    def test_tbox_insert_applies_verbatim(self, family_mat):
        op = parse_update(
            "INSERT DATA { :Stepmother rdfs:subClassOf :Parent }", general=True
        )
        out = run(family_mat, op, Semantics.OUTCUT)
        assert SubClassAtom(ex("Stepmother"), ex("Parent")) in out.tbox
        assert is_materialised(out)

    def test_delete_absent_edge_is_noop(self, family_mat):
        op = parse_update("DELETE { :Parent rdfs:subClassOf :Child }",
                          general=True)
        assert run(family_mat, op, Semantics.OUTCUT) == family_mat


class TestRunDispatcher:
    def test_mode_errors(self, family_store, family_mat, family_red):
        op = parse_update("INSERT DATA { :a a :B }")
        for sem in (Semantics.MAT0, Semantics.MAT2, Semantics.OUTCUT):
            with pytest.raises(ModeError):
                run(family_red, op, sem)
            with pytest.raises(ModeError):
                run(family_store, op, sem)
        for sem in (Semantics.RED0, Semantics.RED1):
            with pytest.raises(ModeError):
                run(family_mat, op, sem)

    def test_empty_update_normalises(self, family_mat, family_red):
        op = parse_update("DELETE {} INSERT {} WHERE {}")
        assert run(family_mat, op, Semantics.MAT0) == family_mat
        assert run(family_red, op, Semantics.RED0) == family_red

    def test_mat3_rejected_with_candidates(self):
        with pytest.raises(UnsupportedFeature, match="mat1a.*mat2|mat2.*mat1a"):
            Semantics.parse("mat3")

    def test_parse_names(self):
        assert Semantics.parse("MAT2") is Semantics.MAT2
        with pytest.raises(ValueError):
            Semantics.parse("bogus")

    def test_input_snapshot_unchanged(self, family_mat):
        op = parse_update(EX4)
        before = (family_mat.tbox, family_mat.abox_explicit,
                  family_mat.abox_implicit)
        run(family_mat, op, Semantics.MAT2)
        assert (family_mat.tbox, family_mat.abox_explicit,
                family_mat.abox_implicit) == before

    def test_general_templates_rejected_where_unsupported(self, family_mat,
                                                          family_red):
        op = parse_update("DELETE { :Mother rdfs:subClassOf :Parent }",
                          general=True)
        for sem in (Semantics.MAT1A, Semantics.MAT1B, Semantics.MAT2):
            with pytest.raises(UnsupportedFeature):
                run(family_mat, op, sem)
        for sem in (Semantics.RED0, Semantics.RED1):
            with pytest.raises(UnsupportedFeature):
                run(family_red, op, sem)


class TestPreservation:
    def test_random_instances(self):
        mat_sems = [Semantics.MAT0, Semantics.MAT1A, Semantics.MAT1B,
                    Semantics.MAT2, Semantics.OUTCUT, Semantics.INCUT]
        for seed in range(60):
            plain = gen_store(GenConfig(seed=seed))
            op = gen_update(GenConfig(seed=seed), plain)
            mat = bootstrap_partition(materialise(plain))
            for sem in mat_sems:
                assert is_materialised(run(mat, op, sem)), (seed, sem)
            red = reduce_store(plain)
            for sem in (Semantics.RED0, Semantics.RED1):
                assert is_reduced(run(red, op, sem)), (seed, sem)


def _spec_mat2(store, op):
    """mat2 as the paper defines it: its rewritten operation, applied
    naively and tagged materialised."""
    plain = apply_naive(store, build_mat2_update(op, store.tbox))
    return TripleStore(plain.tbox, plain.abox, frozenset(), StoreMode.MATERIALISED)


def _spec_red1(store, op):
    """red1 as the paper defines it: its rewritten operation, applied
    naively, then re-reduced."""
    return reduce_store(apply_naive(store, build_red1_update(op, store.tbox)))


class TestRewrittenSpecification:
    """mat2 and red1 expand only their templates, and bind the WHERE clause
    as written (mat2) or by the join of per-atom unions (red1).  The
    rewritten operations of `build_mat2_update` and `build_red1_update`,
    whose WHERE clause is the unfolded union joined with any-term binders,
    are the specification."""

    def check(self, plain, op):
        mat, red = materialise(plain), reduce_store(plain)
        got_mat = run(mat, op, Semantics.MAT2)
        assert got_mat == _spec_mat2(mat, op)
        got_red = run(red, op, Semantics.RED1)
        assert got_red == _spec_red1(red, op)
        return got_mat, got_red

    def stores(self):
        """Small seeded stores, with cycles in every other one, and the
        classes that have a domain or range in each."""
        for seed in range(120):
            cfg = GenConfig(seed=seed, max_classes=8, max_props=3,
                            max_individuals=6, max_axioms=10,
                            max_assertions=30, allow_cycles=seed % 2 == 1)
            plain = gen_store(cfg)
            ranged = sorted({ax.cls for ax in plain.tbox
                             if isinstance(ax, (DomainAtom, RangeAtom))})
            yield seed, cfg, plain, ranged

    def test_generated_updates(self):
        for _, cfg, plain, _ in self.stores():
            self.check(plain, gen_update(cfg, plain))

    def test_class_deletes_that_mint_witnesses(self):
        witnessed = 0
        for seed, _, plain, ranged in self.stores():
            if not ranged:
                continue
            c, d = ranged[seed % len(ranged)], ranged[seed // 2 % len(ranged)]
            ops = [parse_update(f"DELETE {{ ?w a {c} }} INSERT {{ ?w a {d} }} "
                                f"WHERE {{ ?w a {c} }}")]
            inds = sorted(a.inst for a in plain.abox if isinstance(a, ClassAtom))
            if inds:
                ops.append(parse_update(
                    f"DELETE DATA {{ {inds[seed % len(inds)]} a {c} }}"))
            for op in ops:
                assert any(map(is_fresh_var, all_causes(
                    op.delete_template, plain.tbox).vars()))
                self.check(plain, op)
                witnessed += 1
        assert witnessed >= 30

    def test_user_written_binders(self):
        # One binder joined with the rest of the clause, one free.
        changed = 0
        for seed, _, plain, ranged in self.stores():
            props = sorted({a.prop for a in plain.abox if isinstance(a, RoleAtom)})
            if not (ranged and props):
                continue
            c, p = ranged[seed % len(ranged)], props[seed % len(props)]
            got_mat, _ = self.check(plain, parse_update(
                f"DELETE {{ ?z {p} ?w . ?w a {c} }} INSERT {{ ?w {p} ?w }} "
                f"WHERE {{ ?w a {c} . ?w a rdfs:Resource . ?z a rdfs:Resource }}"))
            changed += got_mat.abox != materialise(plain).abox
        assert changed >= 10

    def test_general_where_with_tbox_atom(self):
        changed = 0
        for seed, _, plain, ranged in self.stores():
            if not ranged:
                continue
            c = ranged[seed % len(ranged)]
            got_mat, _ = self.check(plain, parse_update(
                f"DELETE {{ ?w a {c} }} INSERT {{ ?w a ?k }} "
                f"WHERE {{ ?w a {c} . {c} rdfs:subClassOf ?k }}", general=True))
            changed += got_mat.abox != materialise(plain).abox
        assert changed >= 10

    def test_medium_store_keeps_store_modes(self):
        plain = medium_store(3)
        domains = sorted((ax.prop, ax.cls) for ax in plain.tbox
                         if isinstance(ax, DomainAtom))
        (p, c), (_, d) = domains[0], domains[-1]
        op = parse_update(f"DELETE {{ ?x a {c} }} INSERT {{ ?x a {d} }} "
                          f"WHERE {{ ?x a {c} . ?x {p} ?y }}")
        got_mat, got_red = self.check(plain, op)
        assert got_mat.abox != materialise(plain).abox
        assert is_materialised(got_mat)
        assert is_reduced(got_red)


class TestDeleteGrounding:
    """Where deletions are only subtracted from the store, a delete atom
    whose variables come from any-term binders is matched against the
    snapshot's index instead of ground over the whole term universe; the
    universe grounding, intersected with the store, is the specification."""

    def test_index_matching_equals_universe_grounding_on_store(self):
        with_binders = 0
        for seed in range(60):
            cfg = GenConfig(seed=seed, max_classes=8, max_props=3,
                            max_individuals=6, max_axioms=10,
                            max_assertions=30, allow_cycles=seed % 2 == 1)
            plain = gen_store(cfg)
            ops = [gen_update(cfg, plain)]
            # Deleting a class with a domain or range gives the rewritten
            # delete template witness variables bound by any-term binders.
            ranged = sorted({ax.cls for ax in plain.tbox
                             if isinstance(ax, (DomainAtom, RangeAtom))})
            if ranged:
                c = ranged[seed % len(ranged)]
                ops.append(parse_update(
                    f"DELETE {{ ?w a {c} }} INSERT {{ ?w a {c} }} "
                    f"WHERE {{ ?w a {c} }}"))
            for op in ops:
                for store, build in ((materialise(plain), build_mat2_update),
                                     (reduce_store(plain), build_red1_update)):
                    rewritten = build(op, store.tbox)
                    solutions = list(update_solutions(rewritten.where, store))
                    matched = _instantiate_stream(rewritten, solutions, store, True)
                    universal = _instantiate_stream(rewritten, solutions, store,
                                                    False)
                    stored = store.abox | store.tbox
                    # Matching drops only instantiations that are not stored.
                    assert matched.deletes <= universal.deletes, seed
                    assert matched.deletes & stored \
                        == universal.deletes & stored, seed
                    assert matched.inserts == universal.inserts, seed
                    with_binders += any(free for _, free in solutions)
        assert with_binders >= 30

    def test_mat1a_still_deletes_consequences_of_absent_facts(self):
        store = materialise(parse_turtle(
            ":A rdfs:subClassOf :B . :x a :B . :y a :A ."))
        op = parse_update("DELETE { ?z a :A } WHERE { ?z a rdfs:Resource }")
        # `:x a :A` is not stored, but mat1a deletes what it entails.
        assert run(store, op, Semantics.MAT1A).abox == frozenset()
        # mat0 subtracts stored facts only and keeps `:x a :B`.
        assert classes_of(run(store, op, Semantics.MAT0)) == {("x", "B"), ("y", "B")}

    def test_insert_data_builds_no_index_map(self, family_store):
        from rdfsupd.query import _index

        store = TripleStore(family_store.tbox, family_store.abox_explicit)
        out = apply_naive(store, parse_update("INSERT DATA { :zoe a :Child }"))
        assert ClassAtom(ex("zoe"), ex("Child")) in out.abox
        assert "terms" not in vars(store)
        idx = _index(store)
        assert not idx._rows and not idx._maps
