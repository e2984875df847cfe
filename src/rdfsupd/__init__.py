"""In-memory RDFS triple store with a SPARQL-lite query and update engine.

The store holds a terminological box (subclass, subproperty, domain, range)
and an assertional box (class memberships and role assertions) over IRIs.
Queries can be answered with or without entailment — by query rewriting or
by materialisation — and updates can be executed under nine strategies that
differ in how they treat implied triples, including materialisation- and
reduction-preserving families and two canonical-cut strategies for
terminological deletions.
"""

from rdfsupd.entailment import (
    abox_fixpoint,
    is_materialised,
    is_reduced,
    materialise,
    materialise_abox,
    reduce_store,
    tbox_closure,
)
from rdfsupd.errors import (
    ModeError,
    NonStandardUse,
    ParseError,
    RdfsUpdError,
    SizeLimit,
    UnknownSemantics,
    UnsupportedFeature,
    VarInPredicate,
)
from rdfsupd.model import (
    AnyTermAtom,
    Bgp,
    ClassAtom,
    DomainAtom,
    Iri,
    PathAtom,
    RangeAtom,
    RoleAtom,
    StoreMode,
    SubClassAtom,
    SubPropAtom,
    TriplePattern,
    TripleStore,
    UnionPattern,
    Var,
    classify_triple,
    store_diff,
)
from rdfsupd.query import (
    AnswerSet,
    answers_rdfs_materialisation,
    answers_rdfs_rewriting,
    eval_simple,
)
from rdfsupd.rewrite import (
    CutDirection,
    RewriteResult,
    all_causes,
    all_effects,
    build_cut_update,
    build_mat2_update,
    build_red1_update,
    rewrite_bgp,
)
from rdfsupd.sparql import Query, UpdateOperation, parse_query, parse_update
from rdfsupd.turtle import parse_turtle, serialize_turtle
from rdfsupd.update import Semantics, bootstrap_partition, instantiate, run

__version__ = "0.1.0"

__all__ = [
    "AnswerSet",
    "AnyTermAtom",
    "Bgp",
    "ClassAtom",
    "CutDirection",
    "DomainAtom",
    "Iri",
    "ModeError",
    "NonStandardUse",
    "ParseError",
    "PathAtom",
    "Query",
    "RangeAtom",
    "RdfsUpdError",
    "RewriteResult",
    "RoleAtom",
    "Semantics",
    "SizeLimit",
    "StoreMode",
    "SubClassAtom",
    "SubPropAtom",
    "TriplePattern",
    "TripleStore",
    "UnionPattern",
    "UnknownSemantics",
    "UnsupportedFeature",
    "UpdateOperation",
    "Var",
    "VarInPredicate",
    "abox_fixpoint",
    "all_causes",
    "all_effects",
    "answers_rdfs_materialisation",
    "answers_rdfs_rewriting",
    "bootstrap_partition",
    "build_cut_update",
    "build_mat2_update",
    "build_red1_update",
    "classify_triple",
    "eval_simple",
    "instantiate",
    "is_materialised",
    "is_reduced",
    "materialise",
    "materialise_abox",
    "parse_query",
    "parse_turtle",
    "parse_update",
    "reduce_store",
    "rewrite_bgp",
    "run",
    "serialize_turtle",
    "store_diff",
    "tbox_closure",
]
