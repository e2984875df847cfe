"""Cross-cutting randomized invariants (hypothesis-driven)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ex
from rdfsupd.entailment import materialise, reduce_store
from rdfsupd.model import (
    Bgp,
    ClassAtom,
    DomainAtom,
    RangeAtom,
    RoleAtom,
    SubClassAtom,
    SubPropAtom,
    TripleStore,
    UnionPattern,
    Var,
)
from rdfsupd.query import answers_rdfs_materialisation, answers_rdfs_rewriting
from rdfsupd.rewrite import all_effects, is_fresh_var, rewrite_bgp

_classes = st.sampled_from([ex(f"K{i}") for i in range(4)])
_props = st.sampled_from([ex(f"r{i}") for i in range(3)])
_inds = st.sampled_from([ex(f"i{i}") for i in range(4)])
_terms = st.one_of(_inds, st.sampled_from([Var("u"), Var("v"), Var("w")]))

_axioms = st.one_of(
    st.builds(SubClassAtom, _classes, _classes),
    st.builds(SubPropAtom, _props, _props),
    st.builds(DomainAtom, _props, _classes),
    st.builds(RangeAtom, _props, _classes),
)
_assertions = st.one_of(
    st.builds(ClassAtom, _inds, _classes),
    st.builds(RoleAtom, _inds, _props, _inds),
)
_tboxes = st.frozensets(_axioms, max_size=8)
_aboxes = st.frozensets(_assertions, max_size=10)
_patterns = st.frozensets(
    st.one_of(
        st.builds(ClassAtom, _terms, _classes),
        st.builds(RoleAtom, _terms, _props, _terms),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(_tboxes, _patterns)
def test_rewrite_membership_and_termination(tbox, atoms):
    # Cyclic subsumptions are common under this strategy; the unfolding must
    # still reach a fixpoint, keep the input pattern, and mint fresh
    # variables only from the reserved namespace.
    bgp = Bgp(atoms)
    result = rewrite_bgp(bgp, tbox)
    assert bgp.atoms in {d.atoms for d in result.ucq.disjuncts}
    assert all(is_fresh_var(v) for v in result.fresh_vars)
    assert len(result.ucq.disjuncts) < 5000


@settings(max_examples=200, deadline=None)
@given(_tboxes, _aboxes, _patterns)
def test_rewriting_equals_materialisation(tbox, abox, atoms):
    store = TripleStore(tbox, abox, frozenset())
    pattern = UnionPattern.single(Bgp(atoms))
    assert answers_rdfs_rewriting(pattern, store) == \
        answers_rdfs_materialisation(pattern, store)


@settings(max_examples=200, deadline=None)
@given(_tboxes, _aboxes)
def test_mat_red_interplay(tbox, abox):
    store = TripleStore(tbox, abox, frozenset())
    m = materialise(store)
    r = reduce_store(store)
    assert materialise(m) == m
    assert reduce_store(r) == r
    assert materialise(r).abox == m.abox
    assert r.abox <= store.abox


@settings(max_examples=200, deadline=None)
@given(_tboxes, _patterns)
def test_effect_expansion_is_closure_operator(tbox, atoms):
    bgp = Bgp(atoms)
    once = all_effects(bgp, tbox)
    assert bgp.atoms <= once.atoms
    assert all_effects(once, tbox) == once


# Fragments of both grammars, valid and not, so that random sequences reach
# deep into the parsers instead of failing at the first character.
_SYNTAX = st.sampled_from([
    "<>", "<http://e/x>", "<a b>", ":", ":x", "e:", "e:y", "rdf:type",
    "rdfs:Resource", "rdfs:subClassOf", "rdfs:domain", "owl:x", "a", ".",
    ";", ",", "*", "{", "}", "?x", "?y", "?", "@prefix", "PREFIX", "SELECT",
    "WHERE", "DELETE", "INSERT", "DATA", "UNION", "OPTIONAL", "_:b", '"s"',
    "1", "(", "#c", "\n", " ", "\\", "^", "|",
])
_documents = st.lists(_SYNTAX, max_size=14).map(" ".join) | st.text(max_size=30)


@settings(max_examples=1500, deadline=None)
@given(_documents)
def test_parsers_raise_only_package_errors(text):
    from rdfsupd.errors import RdfsUpdError
    from rdfsupd.sparql import parse_query, parse_update
    from rdfsupd.turtle import parse_turtle

    for parse in (parse_turtle,
                  parse_query, lambda t: parse_query(t, general=True),
                  parse_update, lambda t: parse_update(t, general=True)):
        try:
            parse(text)
        except RdfsUpdError:
            pass
