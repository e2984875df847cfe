import random
import time

from conftest import ex, medium_store
from rdfsupd.entailment import (
    _abox_closure,
    _reach,
    abox_fixpoint,
    is_materialised,
    is_reduced,
    materialise,
    materialise_abox,
    reduce_store,
    tbox_closure,
)
from rdfsupd.model import (
    ClassAtom,
    DomainAtom,
    RangeAtom,
    RoleAtom,
    StoreMode,
    SubClassAtom,
    SubPropAtom,
    TripleStore,
    atom_sort_key,
    term_key,
)
from rdfsupd.oracle import GenConfig, gen_store, oracle_mat


def _chain_store():
    tbox = frozenset({SubClassAtom(ex("A"), ex("B")), SubClassAtom(ex("B"), ex("C"))})
    abox = frozenset({ClassAtom(ex("x"), ex("A"))})
    return TripleStore(tbox, abox, frozenset())


class TestKernel:
    def test_abox_closure_basics(self):
        classes, roles = _abox_closure(
            sc={1: {2}}, sp={}, dom={3: {4}}, rng={}, classes={(0, 1)},
            roles={(0, 3, 5)},
        )
        assert classes == {(0, 1), (0, 2), (0, 4)}
        assert roles == {(0, 3, 5)}

    def test_reach_cycle(self):
        reach = _reach({1: {2}, 2: {3}, 3: {1}})
        assert reach == {a: {1, 2, 3} for a in (1, 2, 3)}

    def test_reach_acyclic_has_no_self_pairs(self):
        assert _reach({1: {2, 3}, 2: {3}}) == {1: {2, 3}, 2: {3}}


class TestMaterialise:
    def test_family_example(self, family_store, family_mat):
        expected_new = frozenset(
            {
                ClassAtom(ex("joe"), ex("Child")),
                RoleAtom(ex("joe"), ex("hasParent"), ex("jane")),
                ClassAtom(ex("jack"), ex("Parent")),
                ClassAtom(ex("jane"), ex("Mother")),
                ClassAtom(ex("jane"), ex("Parent")),
            }
        )
        assert family_mat.abox == family_store.abox | expected_new
        assert family_mat.mode is StoreMode.MATERIALISED

    def test_partition_tracks_input_explicit(self, family_store, family_mat):
        assert family_mat.abox_explicit == family_store.abox
        assert family_mat.abox_implicit == family_mat.abox - family_store.abox

    def test_empty(self):
        assert materialise(TripleStore()) == TripleStore()

    def test_tbox_transitivity(self):
        store = _chain_store()
        assert SubClassAtom(ex("A"), ex("C")) in materialise(store).tbox

    def test_idempotent(self, family_mat):
        again = materialise(family_mat)
        assert again == family_mat
        assert again.same_partition(family_mat)

    def test_monotone(self, family_store, family_mat):
        smaller = TripleStore(
            family_store.tbox,
            frozenset({RoleAtom(ex("joe"), ex("hasMother"), ex("jane"))}),
            frozenset(),
        )
        m = materialise(smaller)
        assert m.tbox <= family_mat.tbox
        assert m.abox <= family_mat.abox


class TestMaterialiseAbox:
    def test_family_matches_full_mat(self, family_store, family_mat):
        m = materialise_abox(family_store)
        assert m.abox == family_mat.abox
        assert m.tbox == family_store.tbox

    def test_empty_abox_unchanged(self, diamond_store):
        m = materialise_abox(diamond_store)
        assert m.abox == frozenset()
        assert m.tbox == diamond_store.tbox

    def test_chain_derivation(self):
        # Frozen from the brute-force closure: two inheritance steps.
        m = materialise_abox(_chain_store())
        assert m.abox == frozenset(
            {ClassAtom(ex("x"), c) for c in (ex("A"), ex("B"), ex("C"))}
        )
        assert m.tbox == _chain_store().tbox


class TestTboxClosure:
    def test_diamond(self, diamond_store):
        # Frozen from the brute-force transitive closure: 8 derived axioms.
        closed = tbox_closure(diamond_store.tbox)
        derived = {
            (ax.sub, ax.sup) for ax in closed - diamond_store.tbox
        }
        assert derived == {
            (ex("A"), ex("C")), (ex("A"), ex("D")), (ex("A"), ex("E")),
            (ex("A"), ex("F")), (ex("B"), ex("E")), (ex("B"), ex("F")),
            (ex("C"), ex("F")), (ex("D"), ex("F")),
        }
        assert len(closed) == 14

    def test_empty(self):
        assert tbox_closure(frozenset()) == frozenset()

    def test_single_edge(self):
        single = frozenset({SubPropAtom(ex("p"), ex("q"))})
        assert tbox_closure(single) == single

    def test_other_kinds_pass_through(self):
        tbox = frozenset({DomainAtom(ex("p"), ex("A")), RangeAtom(ex("p"), ex("B"))})
        assert tbox_closure(tbox) == tbox


class TestReduce:
    def test_family_core(self, family_mat, family_store):
        assert reduce_store(family_mat).abox == family_store.abox
        assert reduce_store(family_mat).mode is StoreMode.REDUCED

    def test_empty_abox_is_fixpoint(self, diamond_store):
        assert reduce_store(diamond_store).abox == frozenset()

    def test_cycle_keeps_lexicographic_representative(self):
        tbox = frozenset(
            {
                SubClassAtom(ex("A"), ex("B")),
                SubClassAtom(ex("B"), ex("C")),
                SubClassAtom(ex("C"), ex("A")),
            }
        )
        abox = frozenset({ClassAtom(ex("x"), ex("A")), ClassAtom(ex("x"), ex("C"))})
        red = reduce_store(TripleStore(tbox, abox, frozenset()))
        assert red.abox == frozenset({ClassAtom(ex("x"), ex("A"))})

    def test_cycle_keeps_smallest_present_member(self):
        # A is the smallest member of the cycle but absent, so B survives.
        tbox = frozenset(
            {
                SubClassAtom(ex("A"), ex("B")),
                SubClassAtom(ex("B"), ex("C")),
                SubClassAtom(ex("C"), ex("A")),
            }
        )
        abox = frozenset({ClassAtom(ex("x"), ex("C")), ClassAtom(ex("x"), ex("B"))})
        red = reduce_store(TripleStore(tbox, abox, frozenset()))
        assert red.abox == frozenset({ClassAtom(ex("x"), ex("B"))})

    def test_role_cycle(self):
        tbox = frozenset(
            {SubPropAtom(ex("p"), ex("q")), SubPropAtom(ex("q"), ex("p"))}
        )
        abox = frozenset(
            {RoleAtom(ex("a"), ex("p"), ex("b")), RoleAtom(ex("a"), ex("q"), ex("b"))}
        )
        red = reduce_store(TripleStore(tbox, abox, frozenset()))
        assert red.abox == frozenset({RoleAtom(ex("a"), ex("p"), ex("b"))})

    def test_unclosed_tbox_chain_counts(self):
        # C(x) is redundant through A sub B sub C even though A sub C is
        # not stated.
        store = TripleStore(
            _chain_store().tbox,
            frozenset({ClassAtom(ex("x"), ex("A")), ClassAtom(ex("x"), ex("C"))}),
            frozenset(),
        )
        assert reduce_store(store).abox == frozenset({ClassAtom(ex("x"), ex("A"))})

    def test_domain_through_superproperty(self):
        # p sub q, domain(q)=C: C(a) is derivable from p(a,b).
        store = TripleStore(
            frozenset({SubPropAtom(ex("p"), ex("q")), DomainAtom(ex("q"), ex("C"))}),
            frozenset(
                {RoleAtom(ex("a"), ex("p"), ex("b")), ClassAtom(ex("a"), ex("C"))}
            ),
            frozenset(),
        )
        assert reduce_store(store).abox == frozenset(
            {RoleAtom(ex("a"), ex("p"), ex("b"))}
        )

    def test_idempotent(self, family_mat):
        once = reduce_store(family_mat)
        assert reduce_store(once) == once

    def test_reduction_loses_no_entailments(self, family_mat):
        red = reduce_store(family_mat)
        assert materialise(red).abox == family_mat.abox


class TestModeChecks:
    def test_family(self, family_store, family_mat):
        assert is_materialised(family_mat)
        assert not is_reduced(family_mat)
        assert is_reduced(family_store)
        assert not is_materialised(family_store)

    def test_empty_abox_is_both(self, diamond_store):
        assert is_materialised(diamond_store)
        assert is_reduced(diamond_store)


class TestClosureProperties:
    def test_idempotence_and_soundness_random(self):
        for seed in range(200):
            store = gen_store(GenConfig(seed=seed, allow_cycles=seed % 3 == 0))
            m = materialise(store)
            assert materialise(m) == m
            r = reduce_store(store)
            assert reduce_store(r) == r
            assert materialise(r).abox == m.abox

    def test_monotonicity_random(self):
        for seed in range(100):
            big = gen_store(GenConfig(seed=seed, max_assertions=12))
            rng = random.Random(seed)
            abox = frozenset(
                a for a in big.abox if rng.random() < 0.5
            )
            tbox = frozenset(ax for ax in big.tbox if rng.random() < 0.7)
            small = TripleStore(tbox, abox, frozenset())
            mb, ms = materialise(big), materialise(small)
            assert ms.tbox <= mb.tbox
            assert ms.abox <= mb.abox

    def test_closure_size_bound(self):
        # Derived assertions cannot exceed classes*inds + props*inds^2.
        for seed in range(100):
            store = gen_store(GenConfig(seed=seed, allow_cycles=True))
            classes = {ax.sub for ax in store.tbox if isinstance(ax, SubClassAtom)}
            classes |= {ax.sup for ax in store.tbox if isinstance(ax, SubClassAtom)}
            classes |= {ax.cls for ax in store.tbox
                        if isinstance(ax, (DomainAtom, RangeAtom))}
            classes |= {a.cls for a in store.abox if isinstance(a, ClassAtom)}
            props = {ax.sub for ax in store.tbox if isinstance(ax, SubPropAtom)}
            props |= {ax.sup for ax in store.tbox if isinstance(ax, SubPropAtom)}
            props |= {ax.prop for ax in store.tbox
                      if isinstance(ax, (DomainAtom, RangeAtom))}
            props |= {a.prop for a in store.abox if isinstance(a, RoleAtom)}
            inds = set()
            for a in store.abox:
                if isinstance(a, ClassAtom):
                    inds.add(a.inst)
                else:
                    inds.update((a.subj, a.obj))
            closure = abox_fixpoint(store.tbox, store.abox)
            bound = len(classes) * len(inds) + len(props) * len(inds) ** 2
            assert len(closure) <= bound

    def test_reduce_order_independence(self):
        # Same result regardless of input iteration order.
        for seed in range(50):
            store = gen_store(GenConfig(seed=seed, allow_cycles=True))
            atoms = list(store.abox)
            random.Random(seed).shuffle(atoms)
            shuffled = TripleStore(store.tbox, frozenset(atoms), frozenset())
            assert reduce_store(shuffled) == reduce_store(store)


def test_medium_sweep_against_oracle():
    start = time.perf_counter()
    for seed in range(3):
        store = medium_store(seed)
        oracle = oracle_mat(store)
        closure = oracle.abox

        mat = materialise(store)
        assert mat.abox == closure, seed
        assert mat.tbox == oracle.tbox, seed

        assert is_materialised(store) == (store.abox == closure), seed
        # mat.abox is the oracle's closure, so the oracle adds nothing to it.
        assert is_materialised(mat), seed
        rng = random.Random(seed)
        derived = rng.choice(sorted(mat.abox_implicit, key=atom_sort_key))
        holed = TripleStore(mat.tbox, mat.abox - {derived}, frozenset())
        assert not is_materialised(holed), seed
        assert oracle_mat(holed).abox != holed.abox, seed

        red = reduce_store(mat)
        assert oracle_mat(red).abox == closure, seed
        assert is_reduced(red), seed
        # mat holds every member of a cycle, so each survivor is the
        # smallest member of its equivalence class.
        for f in red.abox:
            kind, name = (SubClassAtom, f.cls) if isinstance(f, ClassAtom) \
                else (SubPropAtom, f.prop)
            equivalents = {ax.sup for ax in oracle.tbox if isinstance(ax, kind)
                           and ax.sub == name and kind(ax.sup, name) in oracle.tbox}
            assert all(term_key(name) <= term_key(e) for e in equivalents), (seed, f)
        survivors = sorted(red.abox, key=atom_sort_key)
        for f in rng.sample(survivors, 10):
            assert f not in abox_fixpoint(store.tbox, red.abox - {f}), (seed, f)
    # Loose regression bound: the oracle runs take about 8 s in all.
    assert time.perf_counter() - start < 60
