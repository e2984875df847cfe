"""Shared fixtures: the family example everything in the docs builds on,
and the medium-size store of the sweeps against the oracle."""

import random

import pytest

from rdfsupd import Iri, materialise, parse_turtle, reduce_store
from rdfsupd.model import (
    EXAMPLE_NS,
    ClassAtom,
    DomainAtom,
    RangeAtom,
    RoleAtom,
    SubClassAtom,
    SubPropAtom,
    TripleStore,
    atom_sort_key,
)

#: Two role assertions plus the ten-axiom family ontology.
FAMILY_TEXT = """
:joe :hasParent :jack. :joe :hasMother :jane.

:hasFather rdfs:subPropertyOf :hasParent.
:hasMother rdfs:subPropertyOf :hasParent.
:Father rdfs:subClassOf :Parent.
:Mother rdfs:subClassOf :Parent.
:hasFather rdfs:range :Father; rdfs:domain :Child.
:hasMother rdfs:range :Mother; rdfs:domain :Child.
:hasParent rdfs:range :Parent; rdfs:domain :Child.
"""

#: Two-level subclass chain used by the strategy-divergence examples.
CHAIN_TEXT = ":C rdfs:subClassOf :D . :D rdfs:subClassOf :E ."

#: Six-edge subclass diamond used by the cut examples.
DIAMOND_TEXT = """
:A rdfs:subClassOf :B . :B rdfs:subClassOf :C .
:B rdfs:subClassOf :D . :C rdfs:subClassOf :E .
:D rdfs:subClassOf :E . :E rdfs:subClassOf :F .
"""


def medium_store(seed: int) -> TripleStore:
    """50 classes, 8 properties, 120 individuals, 2,000 assertions.

    Subsumptions form a shallow forest (so the brute-force oracle stays
    fast) in which three reversed edges close cycles.
    """
    rng = random.Random(seed)

    def names(prefix, n):
        return [Iri(f"{EXAMPLE_NS}{prefix}{k}") for k in range(n)]

    classes, props, inds = names("C", 50), names("p", 8), names("i", 120)
    tbox = {SubClassAtom(c, rng.choice(classes[:max(10, k // 2)]))
            for k, c in enumerate(classes) if k >= 10}
    tbox |= {SubPropAtom(p, rng.choice(props[:k]))
             for k, p in enumerate(props) if k >= 2}
    for _ in range(3):
        ax = rng.choice(sorted(tbox, key=atom_sort_key))
        tbox.add(type(ax)(ax.sup, ax.sub))
    for p in props:
        tbox.add(DomainAtom(p, rng.choice(classes)))
        tbox.add(RangeAtom(p, rng.choice(classes)))
    abox = set()
    while len(abox) < 2000:
        if rng.random() < 0.5:
            abox.add(ClassAtom(rng.choice(inds), rng.choice(classes)))
        else:
            abox.add(RoleAtom(rng.choice(inds), rng.choice(props), rng.choice(inds)))
    return TripleStore(frozenset(tbox), frozenset(abox), frozenset())


def ex(name: str) -> Iri:
    return Iri(EXAMPLE_NS + name)


@pytest.fixture
def family_store():
    return parse_turtle(FAMILY_TEXT)


@pytest.fixture
def family_mat(family_store):
    return materialise(family_store)


@pytest.fixture
def family_red(family_store):
    return reduce_store(family_store)


@pytest.fixture
def chain_store():
    return parse_turtle(CHAIN_TEXT)


@pytest.fixture
def diamond_store():
    return parse_turtle(DIAMOND_TEXT)
