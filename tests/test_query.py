from conftest import ex
from rdfsupd.entailment import materialise, tbox_closure
from rdfsupd.model import (
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    AnyTermAtom,
    Bgp,
    ClassAtom,
    DomainAtom,
    PathAtom,
    RangeAtom,
    RoleAtom,
    SubClassAtom,
    SubPropAtom,
    TriplePattern,
    TripleStore,
    UnionPattern,
    Var,
)
from rdfsupd.oracle import GenConfig, _store_vocab, gen_query, gen_store
from rdfsupd.query import (
    answers_rdfs_materialisation,
    answers_rdfs_rewriting,
    eval_simple,
)
from rdfsupd.sparql import parse_query
from rdfsupd.turtle import parse_turtle

X, Y = Var("X"), Var("Y")


def rows(answers):
    return set(answers.rows)


class TestEvalSimple:
    def test_family_query_simple(self, family_store):
        q = parse_query("SELECT ?Y WHERE { :joe :hasParent ?Y. }")
        out = eval_simple(q.where, family_store, q.select_vars)
        assert rows(out) == {(ex("jack"),)}

    def test_empty_bgp_single_empty_row(self, family_store):
        out = eval_simple(UnionPattern.empty(), family_store)
        assert out.vars == ()
        assert rows(out) == {()}

    def test_ground_pattern_presence(self, family_store):
        present = Bgp(frozenset({RoleAtom(ex("joe"), ex("hasParent"), ex("jack"))}))
        absent = Bgp(frozenset({RoleAtom(ex("joe"), ex("hasParent"), ex("jane"))}))
        assert rows(eval_simple(present, family_store)) == {()}
        assert rows(eval_simple(absent, family_store)) == set()

    def test_join(self, family_store):
        bgp = Bgp(
            frozenset(
                {
                    RoleAtom(X, ex("hasParent"), Y),
                    RoleAtom(X, ex("hasMother"), ex("jane")),
                }
            )
        )
        out = eval_simple(bgp, family_store, (X, Y))
        assert rows(out) == {(ex("joe"), ex("jack"))}

    def test_union(self, family_store):
        union = UnionPattern(
            frozenset(
                {
                    Bgp(frozenset({RoleAtom(ex("joe"), ex("hasParent"), Y)})),
                    Bgp(frozenset({RoleAtom(ex("joe"), ex("hasMother"), Y)})),
                }
            )
        )
        assert rows(eval_simple(union, family_store, (Y,))) == {
            (ex("jack"),), (ex("jane"),)
        }

    def test_disjunct_missing_projection_var_contributes_nothing(self, family_store):
        union = UnionPattern(
            frozenset(
                {
                    Bgp(frozenset({RoleAtom(X, ex("hasParent"), Y)})),
                    Bgp(frozenset({ClassAtom(X, ex("Child"))})),
                }
            )
        )
        out = eval_simple(union, family_store, (X, Y))
        assert rows(out) == {(ex("joe"), ex("jack"))}

    def test_general_tbox_matching(self, family_store):
        bgp = Bgp(
            frozenset({SubClassAtom(X, ex("Parent"))}), general=True
        )
        out = eval_simple(bgp, family_store, (X,))
        assert rows(out) == {(ex("Father"),), (ex("Mother"),)}

    def test_triple_pattern_matches_everything(self, family_store):
        bgp = Bgp(frozenset({TriplePattern(ex("joe"), Var("p"), Var("o"))}),
                  general=True)
        out = eval_simple(bgp, family_store, (Var("p"), Var("o")))
        assert rows(out) == {
            (ex("hasParent"), ex("jack")),
            (ex("hasMother"), ex("jane")),
        }

    def test_star_path_reachability(self, diamond_store):
        closed = TripleStore(tbox_closure(diamond_store.tbox), frozenset(),
                             frozenset())
        # Frozen by hand-walking the four-node chain A -> B -> {C,D}:
        # zero steps reach A itself, edges reach B, C, D (plus E, F beyond).
        bgp = Bgp(frozenset({PathAtom(ex("A"), RDFS_SUBCLASSOF, X)}), general=True)
        out = eval_simple(bgp, closed, (X,))
        assert rows(out) == {
            (ex("A"),), (ex("B"),), (ex("C"),), (ex("D"),), (ex("E"),), (ex("F"),)
        }

    def test_star_path_four_node_graph(self):
        # Frozen by hand: zero steps reach A, one edge set reaches B, C, D.
        store = parse_turtle(
            ":A rdfs:subClassOf :B, :C, :D . :B rdfs:subClassOf :C, :D ."
        )
        bgp = Bgp(frozenset({PathAtom(ex("A"), RDFS_SUBCLASSOF, X)}), general=True)
        assert rows(eval_simple(bgp, store, (X,))) == {
            (ex("A"),), (ex("B"),), (ex("C"),), (ex("D"),)
        }

    def test_star_path_zero_length_needs_presence(self, family_store):
        absent = Bgp(
            frozenset({PathAtom(ex("ghost"), RDFS_SUBCLASSOF, ex("ghost"))}),
            general=True,
        )
        present = Bgp(
            frozenset({PathAtom(ex("Father"), RDFS_SUBCLASSOF, ex("Father"))}),
            general=True,
        )
        assert rows(eval_simple(absent, family_store)) == set()
        assert rows(eval_simple(present, family_store)) == {()}

    def test_any_term_binder_equals_three_way_union(self, family_mat):
        binder = Bgp(frozenset({AnyTermAtom(X)}))
        spelled = UnionPattern(
            frozenset(
                {
                    Bgp(frozenset({TriplePattern(X, Var("p"), Var("o"))}),
                        general=True),
                    Bgp(frozenset({TriplePattern(Var("s"), X, Var("o"))}),
                        general=True),
                    Bgp(frozenset({TriplePattern(Var("s"), Var("p"), X)}),
                        general=True),
                }
            )
        )
        got = rows(eval_simple(binder, family_mat, (X,)))
        via_union = rows(eval_simple(spelled, family_mat, (X,)))
        # The spelled-out union additionally binds predicate-position
        # vocabulary; restricted to constants the two agree.
        assert got <= via_union
        from rdfsupd.model import is_vocab_iri

        assert {r for r in via_union if not is_vocab_iri(r[0])} == got


class TestEntailedAnswers:
    def test_unfolded_union_evaluated_plainly(self, family_store):
        # The hand-written three-way union over the raw store returns the
        # same answers the entailment strategies compute.
        q = parse_query(
            "SELECT ?Y WHERE { { :joe :hasParent ?Y. } "
            "UNION { :joe :hasFather ?Y. } UNION { :joe :hasMother ?Y. } }"
        )
        out = eval_simple(q.where, family_store, q.select_vars)
        assert rows(out) == {(ex("jack"),), (ex("jane"),)}

    def test_family_both_strategies(self, family_store):
        q = parse_query("SELECT ?Y WHERE { :joe :hasParent ?Y. }")
        expected = {(ex("jack"),), (ex("jane"),)}
        assert rows(answers_rdfs_rewriting(q.where, family_store, q.select_vars)) \
            == expected
        assert rows(
            answers_rdfs_materialisation(q.where, family_store, q.select_vars)
        ) == expected

    def test_empty_abox(self, diamond_store):
        q = parse_query("SELECT ?x WHERE { ?x a :A }")
        assert not answers_rdfs_rewriting(q.where, diamond_store, q.select_vars)

    def test_entailed_class_membership(self, family_store):
        q = parse_query("SELECT ?X WHERE { ?X a :Child }")
        assert rows(answers_rdfs_rewriting(q.where, family_store, q.select_vars)) \
            == {(ex("joe"),)}

    def test_materialised_store_used_as_is(self, family_mat):
        q = parse_query("SELECT ?Y WHERE { :joe :hasParent ?Y. }")
        out = answers_rdfs_materialisation(q.where, family_mat, q.select_vars)
        assert rows(out) == {(ex("jack"),), (ex("jane"),)}

    def test_general_subclass_query_closure_only(self, diamond_store):
        # No reflexive subsumption: F itself is not among the answers.
        q = parse_query("SELECT ?c WHERE { ?c rdfs:subClassOf :F }", general=True)
        out = answers_rdfs_materialisation(q.where, diamond_store, q.select_vars)
        assert rows(out) == {(ex(c),) for c in "ABCDE"}

    def test_monotone_in_abox(self, family_store):
        q = parse_query("SELECT ?X WHERE { ?X a :Parent }")
        base = rows(answers_rdfs_rewriting(q.where, family_store, q.select_vars))
        bigger = TripleStore(
            family_store.tbox,
            family_store.abox | {ClassAtom(ex("zoe"), ex("Mother"))},
            frozenset(),
        )
        extended = rows(answers_rdfs_rewriting(q.where, bigger, q.select_vars))
        assert base <= extended
        assert (ex("zoe"),) in extended

    def test_strategies_agree_random(self):
        for seed in range(150):
            store = gen_store(GenConfig(seed=seed))
            q = UnionPattern.single(gen_query(GenConfig(seed=seed), store))
            a = answers_rdfs_rewriting(q, store)
            b = answers_rdfs_materialisation(q, store)
            assert a == b, seed

    def test_input_store_untouched(self, family_store):
        before = (family_store.tbox, family_store.abox, family_store.mode)
        q = parse_query("SELECT ?X WHERE { ?X a :Child }")
        answers_rdfs_materialisation(q.where, family_store, q.select_vars)
        assert (family_store.tbox, family_store.abox, family_store.mode) == before

    def test_concurrent_reads_on_one_snapshot(self, family_store):
        from concurrent.futures import ThreadPoolExecutor

        q = parse_query("SELECT ?Y WHERE { :joe :hasParent ?Y. }")
        expected = {(ex("jack"),), (ex("jane"),)}
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(
                    lambda _: rows(
                        answers_rdfs_rewriting(q.where, family_store,
                                               q.select_vars)
                    ),
                    range(32),
                )
            )
        assert all(r == expected for r in results)


def _shared_var_bgp(rng, store, n_atoms=3):
    """`n_atoms` distinct atoms over three variables, each sharing a
    variable with an earlier one, drawn from the store's vocabulary."""
    classes, props, inds = _store_vocab(store)
    variables = [Var("v0"), Var("v1"), Var("v2")]
    atoms = []
    while len(atoms) < n_atoms:
        used = Bgp(frozenset(atoms)).vars()
        shared = rng.choice(sorted(used or variables, key=str))
        other = rng.choice(variables) if rng.random() < 0.8 else rng.choice(inds)
        if rng.random() < 0.5:
            atom = ClassAtom(shared, rng.choice(classes))
        else:
            s, o = (shared, other) if rng.random() < 0.5 else (other, shared)
            atom = RoleAtom(s, rng.choice(props), o)
        if atom not in atoms:
            atoms.append(atom)
    return Bgp(frozenset(atoms))


class TestJoinOfUnions:
    """Rewriting is answered as a join of per-atom unions; the full union
    from `rewrite_bgp` stays the specification."""

    def test_join_equals_full_union_and_oracle(self):
        import random

        from rdfsupd.oracle import oracle_mat
        from rdfsupd.rewrite import rewrite_bgp

        checked = 0
        for seed in range(100):
            for cycles in (False, True):
                store = gen_store(GenConfig(
                    seed=seed, max_classes=12, max_props=4, max_individuals=10,
                    max_axioms=16, max_assertions=60, allow_cycles=cycles))
                if not any(isinstance(a, ClassAtom) for a in store.abox) \
                        or not any(isinstance(a, RoleAtom) for a in store.abox):
                    continue
                rng = random.Random(seed * 2 + cycles)
                for n_atoms in (2, 3):
                    bgp = _shared_var_bgp(rng, store, n_atoms)
                    vars_ = tuple(sorted(bgp.vars(), key=str))
                    joined = answers_rdfs_rewriting(UnionPattern.single(bgp),
                                                    store, vars_)
                    union = rewrite_bgp(bgp, store.tbox).ucq
                    full = eval_simple(union, store, vars_)
                    closed = answers_rdfs_materialisation(
                        UnionPattern.single(bgp), oracle_mat(store), vars_)
                    assert joined == full == closed, (seed, cycles, bgp)
                    checked += 1
        assert checked >= 250

    def test_fully_bound_atom_matched_once(self, family_store):
        # `:joe a :Child` holds through several unfoldings; one row, not more.
        q = parse_query("SELECT ?Y WHERE { :joe a :Child. :joe :hasParent ?Y. }")
        got = answers_rdfs_rewriting(q.where, family_store, q.select_vars)
        assert rows(got) == {(ex("jack"),), (ex("jane"),)}


def _general_bgp(rng, store, n_atoms):
    """`n_atoms` general atoms of every kind over three variables: class
    atoms with a variable class, role atoms (some `?X :p ?X`, some with a
    variable property), each axiom kind, raw triples with a variable
    predicate, `sc*`/`sp*` paths and any-term binders.  A variable may
    stand in positions of different sorts."""
    classes, props, inds = _store_vocab(store)
    variables = [Var("v0"), Var("v1"), Var("v2")]

    def v():
        return rng.choice(variables)

    def term(pool):
        return v() if rng.random() < 0.6 else rng.choice(pool)

    def repeated(make):
        return make(v())

    kinds = [
        lambda: ClassAtom(term(inds), v()),
        lambda: ClassAtom(term(inds), rng.choice(classes)),
        lambda: RoleAtom(term(inds), rng.choice(props), term(inds)),
        lambda: repeated(lambda x: RoleAtom(x, rng.choice(props), x)),
        lambda: RoleAtom(term(inds), v(), term(inds)),
        lambda: SubClassAtom(term(classes), term(classes)),
        lambda: SubPropAtom(term(props), term(props)),
        lambda: DomainAtom(term(props), term(classes)),
        lambda: RangeAtom(term(props), term(classes)),
        lambda: TriplePattern(term(inds + classes), v(), term(inds + classes)),
        lambda: repeated(lambda x: TriplePattern(x, v(), x)),
        lambda: PathAtom(term(classes), RDFS_SUBCLASSOF, term(classes)),
        lambda: PathAtom(term(props), RDFS_SUBPROPERTYOF, term(props)),
        lambda: repeated(lambda x: PathAtom(x, RDFS_SUBCLASSOF, x)),
        lambda: AnyTermAtom(v()),
    ]
    atoms = set()
    while len(atoms) < n_atoms:
        atoms.add(rng.choice(kinds)())
    return Bgp(frozenset(atoms), general=True)


class TestEveryKindSweep:
    """The index answers every atom kind as the brute-force matcher does."""

    def test_eval_simple_against_backtracking_oracle(self):
        import random

        from rdfsupd.entailment import reduce_store
        from rdfsupd.oracle import oracle_eval

        checked = answered = 0
        kinds_answered = set()
        for seed in range(100):
            for cycles in (False, True):
                plain = gen_store(GenConfig(seed=seed, max_axioms=10,
                                            max_assertions=12,
                                            allow_cycles=cycles))
                rng = random.Random(seed * 2 + cycles)
                for store in (plain, materialise(plain), reduce_store(plain)):
                    for n_atoms in (1, 2, 3):
                        bgp = _general_bgp(rng, store, n_atoms)
                        vars_ = tuple(sorted(bgp.vars(), key=str))
                        got = eval_simple(bgp, store, vars_).rows
                        assert got == oracle_eval(bgp, store, vars_), \
                            (seed, cycles, bgp)
                        checked += 1
                        if got:
                            answered += 1
                            kinds_answered |= {type(a) for a in bgp.atoms}
        assert checked == 1800
        # Not a vacuous sweep: many patterns, of every kind, have answers.
        assert answered >= 300
        assert len(kinds_answered) == 9

    def test_medium_rewriting_against_materialisation(self):
        import random
        import time

        from conftest import medium_store
        from rdfsupd.oracle import oracle_mat

        start = time.perf_counter()
        answered = 0
        for seed in range(2):
            store = medium_store(seed)
            closed = oracle_mat(store)
            rng = random.Random(seed)
            for n_atoms in (1, 2, 2, 3, 3):
                for _ in range(4):
                    bgp = UnionPattern.single(_shared_var_bgp(rng, store, n_atoms))
                    vars_ = tuple(sorted(bgp.vars(), key=str))
                    got = answers_rdfs_rewriting(bgp, store, vars_)
                    assert got == answers_rdfs_materialisation(bgp, closed, vars_), \
                        (seed, bgp)
                    answered += bool(got)
        assert answered >= 20
        # Loose regression bound: the whole test takes a few seconds.
        assert time.perf_counter() - start < 120


class TestSnapshotIndex:
    def test_index_reused_and_does_not_keep_store_alive(self, family_store):
        import gc
        import weakref

        from rdfsupd.query import _index

        store = TripleStore(family_store.tbox, family_store.abox_explicit)
        q = parse_query("SELECT ?Y WHERE { :joe :hasParent ?Y. }")
        gc.disable()
        try:
            answers_rdfs_rewriting(q.where, store, q.select_vars)
            first = _index(store)
            answers_rdfs_materialisation(q.where, materialise(store), q.select_vars)
            eval_simple(q.where, store, q.select_vars)
            assert _index(store) is first
            ref = weakref.ref(store)
            del store
            assert ref() is None
        finally:
            gc.enable()

    def test_general_query_on_materialised_store_uses_its_index(self, family_mat):
        # `materialise` closes the TBox, so a general query needs no copy of
        # the store with a closed TBox and builds its index on the store.
        q = parse_query("SELECT ?x ?c WHERE { ?x a ?c . ?c rdfs:subClassOf :Parent }",
                        general=True)
        assert "_index" not in vars(family_mat)
        out = answers_rdfs_materialisation(q.where, family_mat, q.select_vars)
        assert rows(out) == {(ex("jane"), ex("Mother"))}
        assert {rel for rel, _ in vars(family_mat)["_index"]._maps} \
            == {ClassAtom, SubClassAtom}

    def test_maps_built_on_first_use(self, family_store):
        from rdfsupd.query import _index

        store = TripleStore(family_store.tbox, family_store.abox_explicit)
        eval_simple(UnionPattern.empty(), store)
        idx = _index(store)
        assert not idx._rows and not idx._maps
        assert "terms" not in vars(store)
        q = parse_query("SELECT ?X WHERE { ?X a :Child. }")
        eval_simple(q.where, store, q.select_vars)
        assert set(idx._rows) == {ClassAtom}
        assert {rel for rel, _ in idx._maps} == {ClassAtom}
        assert "terms" not in vars(store)

    def test_concurrent_first_queries_on_fresh_snapshots(self, family_store):
        # Threads race to build the index and its maps on a snapshot that
        # has none yet; every answer must still be complete.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        texts = ("SELECT ?Y WHERE { :joe :hasParent ?Y. }",
                 "SELECT ?X WHERE { ?X a :Parent. }",
                 "SELECT ?X ?Y WHERE { ?X :hasParent ?Y. ?Y a :Mother. }")
        queries = [parse_query(t) for t in texts]
        answer = (answers_rdfs_rewriting, answers_rdfs_materialisation)
        expected = [rows(answer[i % 2](queries[i % 3].where, family_store,
                                       queries[i % 3].select_vars))
                    for i in range(6)]
        assert all(expected)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                store = TripleStore(family_store.tbox, family_store.abox_explicit)
                closed = materialise(store)

                def ask(i):
                    target = store if i % 2 == 0 else closed
                    q = queries[i % 3]
                    return rows(answer[i % 2](q.where, target, q.select_vars))

                with ThreadPoolExecutor(max_workers=8) as pool:
                    futures = [pool.submit(ask, i) for i in range(48)]
                    got = [f.result(timeout=60) for f in futures]
                assert got == [expected[i % 6] for i in range(48)]
        finally:
            sys.setswitchinterval(old)
