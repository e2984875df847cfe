import itertools

from conftest import ex
from rdfsupd.entailment import materialise
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
    UnionPattern,
    Var,
)
from rdfsupd.oracle import GenConfig, _oracle_abox_closure, gen_store
from rdfsupd.rewrite import (
    CutDirection,
    all_causes,
    all_effects,
    build_cut_update,
    build_mat2_update,
    build_red1_update,
    free_var_binders,
    rewrite_atom,
    rewrite_bgp,
)
from rdfsupd.sparql import UpdateOperation, parse_update

X, Y = Var("X"), Var("Y")


class TestRewriteAtom:
    def fresh_factory(self):
        counter = itertools.count(1)
        return lambda: Var(f"x#{next(counter)}")

    def test_domain_introduces_fresh(self):
        out = rewrite_atom(
            ClassAtom(X, ex("Child")),
            DomainAtom(ex("hasMother"), ex("Child")),
            self.fresh_factory(),
        )
        assert out == RoleAtom(X, ex("hasMother"), Var("x#1"))

    def test_range_introduces_fresh_subject(self):
        out = rewrite_atom(
            ClassAtom(Y, ex("Mother")),
            RangeAtom(ex("hasMother"), ex("Mother")),
            self.fresh_factory(),
        )
        assert out == RoleAtom(Var("x#1"), ex("hasMother"), Y)

    def test_subproperty(self):
        out = rewrite_atom(
            RoleAtom(ex("joe"), ex("hasParent"), Y),
            SubPropAtom(ex("hasMother"), ex("hasParent")),
            self.fresh_factory(),
        )
        assert out == RoleAtom(ex("joe"), ex("hasMother"), Y)

    def test_subclass(self):
        out = rewrite_atom(
            ClassAtom(X, ex("Parent")),
            SubClassAtom(ex("Mother"), ex("Parent")),
            self.fresh_factory(),
        )
        assert out == ClassAtom(X, ex("Mother"))


class TestRewriteBgp:
    def test_family_role_query(self, family_store):
        q = Bgp(frozenset({RoleAtom(ex("joe"), ex("hasParent"), Y)}))
        result = rewrite_bgp(q, family_store.tbox)
        expected = {
            frozenset({RoleAtom(ex("joe"), ex(p), Y)})
            for p in ("hasParent", "hasFather", "hasMother")
        }
        assert {d.atoms for d in result.ucq.disjuncts} == expected
        assert result.fresh_vars == frozenset()

    def test_input_always_member(self, family_store):
        q = Bgp(frozenset({ClassAtom(X, ex("Child"))}))
        result = rewrite_bgp(q, family_store.tbox)
        assert q.atoms in {d.atoms for d in result.ucq.disjuncts}

    def test_child_query_four_patterns(self, family_store):
        q = Bgp(frozenset({ClassAtom(X, ex("Child"))}))
        result = rewrite_bgp(q, family_store.tbox)
        shapes = set()
        for d in result.ucq.disjuncts:
            (atom,) = d.atoms
            shapes.add(atom.cls if isinstance(atom, ClassAtom) else atom.prop)
        assert shapes == {ex("Child"), ex("hasFather"), ex("hasMother"),
                          ex("hasParent")}
        assert len(result.ucq.disjuncts) == 4

    def test_empty_tbox_identity(self):
        q = Bgp(frozenset({ClassAtom(X, ex("C"))}))
        result = rewrite_bgp(q, frozenset())
        assert result.ucq == UnionPattern.single(q)

    def test_cyclic_tbox_terminates(self):
        tbox = frozenset(
            {
                SubClassAtom(ex("A"), ex("B")),
                SubClassAtom(ex("B"), ex("C")),
                SubClassAtom(ex("C"), ex("A")),
            }
        )
        q = Bgp(frozenset({ClassAtom(X, ex("A"))}))
        result = rewrite_bgp(q, tbox)
        shapes = {next(iter(d.atoms)).cls for d in result.ucq.disjuncts}
        assert shapes == {ex("A"), ex("B"), ex("C")}
        # Subclass axioms derive class atoms only: a role atom and an axiom
        # atom pass through unexpanded.
        for atom in (RoleAtom(X, ex("p"), Y), SubClassAtom(ex("A"), ex("B"))):
            q = Bgp(frozenset({atom}), general=True)
            assert rewrite_bgp(q, tbox).ucq == UnionPattern.single(q)

    def test_cyclic_domain_range_terminates(self):
        tbox = frozenset(
            {
                SubClassAtom(ex("A"), ex("B")),
                DomainAtom(ex("p"), ex("A")),
                RangeAtom(ex("p"), ex("B")),
                SubClassAtom(ex("B"), ex("A")),
            }
        )
        q = Bgp(frozenset({ClassAtom(X, ex("B")), RoleAtom(X, ex("p"), Y)}))
        result = rewrite_bgp(q, tbox)
        assert len(result.ucq.disjuncts) >= 3  # terminated with a finite union

    def test_deterministic_naming(self, family_store):
        q = Bgp(frozenset({ClassAtom(X, ex("Child"))}))
        r1 = rewrite_bgp(q, family_store.tbox)
        r2 = rewrite_bgp(q, family_store.tbox)
        assert r1 == r2
        assert r1.fresh_vars == frozenset({Var("x#1"), Var("x#2"), Var("x#3")})


class TestAllCauses:
    def test_child_delete_clause(self, family_store):
        out = all_causes(Bgp(frozenset({ClassAtom(X, ex("Child"))})),
                         family_store.tbox)
        assert out.atoms == frozenset(
            {
                ClassAtom(X, ex("Child")),
                RoleAtom(X, ex("hasFather"), Var("x#1")),
                RoleAtom(X, ex("hasMother"), Var("x#2")),
                RoleAtom(X, ex("hasParent"), Var("x#3")),
            }
        )

    def test_empty(self, family_store):
        assert all_causes(Bgp(), family_store.tbox) == Bgp()

    def test_mother_causes(self, family_store):
        out = all_causes(Bgp(frozenset({ClassAtom(Y, ex("Mother"))})),
                         family_store.tbox)
        assert out.atoms == frozenset(
            {
                ClassAtom(Y, ex("Mother")),
                RoleAtom(Var("x#1"), ex("hasMother"), Y),
            }
        )

    def test_ground_role_without_subproperties(self, family_store):
        bgp = Bgp(
            frozenset(
                {
                    RoleAtom(ex("joe"), ex("hasMother"), ex("jane")),
                    RoleAtom(ex("joe"), ex("hasFather"), ex("jack")),
                }
            )
        )
        assert all_causes(bgp, family_store.tbox).atoms == bgp.atoms


class TestAllEffects:
    def test_mother_insert_clause(self, family_store):
        out = all_effects(Bgp(frozenset({ClassAtom(Y, ex("Mother"))})),
                          family_store.tbox)
        assert out.atoms == frozenset(
            {ClassAtom(Y, ex("Mother")), ClassAtom(Y, ex("Parent"))}
        )

    def test_two_superclasses(self):
        tbox = frozenset(
            {
                SubClassAtom(ex("Father"), ex("Person")),
                SubClassAtom(ex("Father"), ex("Male")),
            }
        )
        out = all_effects(Bgp(frozenset({ClassAtom(ex("x"), ex("Father"))})), tbox)
        assert out.atoms == frozenset(
            {ClassAtom(ex("x"), c) for c in (ex("Father"), ex("Person"), ex("Male"))}
        )

    def test_empty_tbox_identity(self):
        bgp = Bgp(frozenset({RoleAtom(X, ex("p"), Y)}))
        assert all_effects(bgp, frozenset()) == bgp

    def test_closure_operator_properties(self):
        # Extensive, monotone, idempotent on random patterns.
        for seed in range(60):
            store = gen_store(GenConfig(seed=seed))
            atoms = frozenset(
                {ClassAtom(X, c) for c in sorted(
                    {a.cls for a in store.abox if isinstance(a, ClassAtom)}
                )[:2]}
                | set(list(store.abox)[:2])
            )
            small = Bgp(frozenset(list(atoms)[:1]))
            big = Bgp(atoms)
            eff_small = all_effects(small, store.tbox)
            eff_big = all_effects(big, store.tbox)
            assert small.atoms <= eff_small.atoms
            if small.atoms <= big.atoms:
                assert eff_small.atoms <= eff_big.atoms
            assert all_effects(eff_big, store.tbox) == eff_big


class TestFreeVarBinders:
    def test_child_binders(self, family_store):
        original = Bgp(frozenset({ClassAtom(X, ex("Child"))}))
        rewritten = all_causes(original, family_store.tbox)
        binders = free_var_binders(rewritten, original)
        assert set(binders) == {
            AnyTermAtom(Var("x#1")), AnyTermAtom(Var("x#2")), AnyTermAtom(Var("x#3"))
        }

    def test_no_fresh_vars(self, family_store):
        q = Bgp(frozenset({RoleAtom(X, ex("hasParent"), Y)}))
        assert free_var_binders(all_causes(q, family_store.tbox), q) == ()


def _sub_vars(atom, mapping):
    from rdfsupd.model import atom_terms

    terms = [mapping.get(t, t) for t in atom_terms(atom)]
    return type(atom)(*terms)


def _rename_vars(op: UpdateOperation, mapping) -> UpdateOperation:
    def rn(bgp: Bgp) -> Bgp:
        return Bgp(frozenset(_sub_vars(a, mapping) for a in bgp.atoms),
                   general=bgp.general)

    return UpdateOperation(
        rn(op.delete_template),
        rn(op.insert_template),
        UnionPattern(frozenset(rn(d) for d in op.where.disjuncts)),
    )


class TestBuildMat2Update:
    def test_family_golden(self, family_store):
        op = parse_update(
            "DELETE { ?X a :Child. } INSERT { ?Y a :Mother. } "
            "WHERE { ?X :hasMother ?Y. }"
        )
        built = build_mat2_update(op, family_store.tbox)
        printed = parse_update(
            """
            DELETE { ?X a :Child. ?X :hasFather ?x1.
                     ?X :hasMother ?x2. ?X :hasParent ?x3. }
            INSERT { ?Y a :Mother. ?Y a :Parent. }
            WHERE { { ?X :hasMother ?Y. }
                    { ?x1 a rdfs:Resource.
                      ?x2 a rdfs:Resource.
                      ?x3 a rdfs:Resource. } }
            """
        )
        renamed = _rename_vars(
            built,
            {Var("x#1"): Var("x1"), Var("x#2"): Var("x2"), Var("x#3"): Var("x3")},
        )
        assert renamed == printed

    def test_empty_templates(self, family_store):
        op = parse_update("DELETE {} INSERT {} WHERE { ?X :hasMother ?Y }")
        built = build_mat2_update(op, family_store.tbox)
        assert built.delete_template == Bgp()
        assert built.insert_template == Bgp()
        assert built.where == op.where

    def test_ground_delete_unchanged(self, family_store):
        op = parse_update(
            "DELETE { :joe :hasMother :jane. :joe :hasFather :jack } WHERE {}"
        )
        built = build_mat2_update(op, family_store.tbox)
        assert built.delete_template == op.delete_template
        assert built.where == UnionPattern.empty()

    def test_red1_keeps_insert_verbatim(self, family_store):
        op = parse_update(
            "DELETE { ?X a :Child. } INSERT { ?Y a :Mother. } "
            "WHERE { ?X :hasMother ?Y. }"
        )
        built = build_red1_update(op, family_store.tbox)
        assert built.insert_template == op.insert_template
        assert built.delete_template == build_mat2_update(
            op, family_store.tbox
        ).delete_template


class TestBuildCutUpdate:
    def test_outcut_shape(self):
        op = parse_update("DELETE { :A rdfs:subClassOf :F }", general=True)
        built = build_cut_update(op, CutDirection.OUT)
        cut = Var("x#c1")
        assert built.delete_template.atoms == frozenset(
            {SubClassAtom(ex("A"), cut)}
        )
        (d,) = built.where.disjuncts
        assert d.atoms == frozenset(
            {
                SubClassAtom(ex("A"), cut),
                PathAtom(cut, RDFS_SUBCLASSOF, ex("F")),
            }
        )

    def test_incut_shape(self):
        op = parse_update("DELETE { :A rdfs:subClassOf :F }", general=True)
        built = build_cut_update(op, CutDirection.IN)
        cut = Var("x#c1")
        assert built.delete_template.atoms == frozenset(
            {SubClassAtom(cut, ex("F"))}
        )
        (d,) = built.where.disjuncts
        assert d.atoms == frozenset(
            {
                PathAtom(ex("A"), RDFS_SUBCLASSOF, cut),
                SubClassAtom(cut, ex("F")),
            }
        )

    def test_subproperty_cut(self):
        op = parse_update("DELETE { :p rdfs:subPropertyOf :q }", general=True)
        built = build_cut_update(op, CutDirection.OUT)
        (d,) = built.where.disjuncts
        assert PathAtom(Var("x#c1"), RDFS_SUBPROPERTYOF, ex("q")) in d.atoms

    def test_no_subsumption_triples_untouched(self):
        op = parse_update(
            "DELETE { ?x a :C } INSERT { ?x a :D } WHERE { ?x :p ?y }"
        )
        assert build_cut_update(op, CutDirection.OUT) is op
        assert build_cut_update(op, CutDirection.IN) is op

    def test_other_tbox_triples_pass_through(self):
        op = parse_update(
            "DELETE { :p rdfs:domain :C . :A rdfs:subClassOf :B }", general=True
        )
        built = build_cut_update(op, CutDirection.OUT)
        assert DomainAtom(ex("p"), ex("C")) in built.delete_template.atoms


class TestCausesAgainstDerivabilityOracle:
    def test_single_atom_patterns(self):
        # An assertion matches some cause atom (under any grounding) exactly
        # when some instantiation of the pattern is derivable from it.
        for seed in range(80):
            store = materialise(gen_store(GenConfig(seed=seed)))
            if not store.abox:
                continue
            classes = sorted(
                {a.cls for a in store.abox if isinstance(a, ClassAtom)}
            )
            props = sorted(
                {a.prop for a in store.abox if isinstance(a, RoleAtom)}
            )
            patterns = []
            if classes:
                patterns.append(ClassAtom(X, classes[seed % len(classes)]))
            if props:
                patterns.append(RoleAtom(X, props[seed % len(props)], Y))
            for pattern in patterns:
                causes = all_causes(Bgp(frozenset({pattern})), store.tbox)
                for alpha in store.abox:
                    derived = _oracle_abox_closure(store.tbox, {alpha})
                    should_delete = any(
                        _matches(pattern, g) for g in derived
                    )
                    deleted = any(_matches(c, alpha) for c in causes.atoms)
                    assert deleted == should_delete, (pattern, alpha)


def _matches(pattern, ground) -> bool:
    if type(pattern) is not type(ground):
        return False
    from rdfsupd.model import atom_terms

    binding = {}
    for pt, gt in zip(atom_terms(pattern), atom_terms(ground)):
        if isinstance(pt, Var):
            if binding.setdefault(pt, gt) != gt:
                return False
        elif pt != gt:
            return False
    return True
