"""SPARQL-lite parser: SELECT queries and DELETE/INSERT/WHERE updates.

The grammar covers exactly what the engine evaluates: basic graph patterns,
UNION of group patterns, joins of adjacent groups, `INSERT DATA` /
`DELETE DATA` sugar, and (in general mode) terminological atoms, variables
in any position, zero-or-more paths over the two subsumption predicates,
and the `?x a rdfs:Resource` any-term binder.  OPTIONAL, FILTER, and friends
are rejected as unsupported rather than as syntax errors.

Keywords are case-insensitive; IRIs and variable names are not.  Prefixes
`rdf:`, `rdfs:`, and `:` are predeclared, `PREFIX` declarations may add or
override.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from rdfsupd.errors import ParseError, UnsupportedFeature, VarInPredicate
from rdfsupd.model import (
    RDF_TYPE,
    RDFS_RESOURCE,
    RDFS_SUBCLASSOF,
    RDFS_SUBPROPERTYOF,
    TBOX_KINDS,
    AnyTermAtom,
    Bgp,
    EMPTY_BGP,
    Iri,
    PathAtom,
    Term,
    UnionPattern,
    Var,
    classify_triple,
)
from rdfsupd.turtle import (
    DEFAULT_PREFIXES,
    Token,
    expand_pname,
    make_iri,
    tokenize,
)

_UNSUPPORTED_KEYWORDS = {
    "OPTIONAL", "FILTER", "MINUS", "GRAPH", "SERVICE", "BIND", "VALUES",
    "EXISTS", "NOT", "ORDER", "GROUP", "HAVING", "LIMIT", "OFFSET",
    "CONSTRUCT", "ASK", "DESCRIBE", "LOAD", "CLEAR", "DROP", "CREATE",
    "COPY", "MOVE", "ADD", "USING", "WITH", "DISTINCT", "REDUCED",
}

_PATH_PREDICATES = (RDFS_SUBCLASSOF, RDFS_SUBPROPERTYOF)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<nl>\n)
  | (?P<comment>\#[^\n]*)
  | (?P<var>\?[A-Za-z0-9_]+)
  | (?P<iriref><[^<>"{}|^`\\\s]*>)
  | (?P<bnode>_:[\w.-]*)
  | (?P<pname>(?:[A-Za-z_][\w.-]*)?:(?:[A-Za-z0-9_](?:[\w.-]*[\w-])?)?)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}.;,*])
  | (?P<unsupported>["'\[\](]|_:|[+-]?[0-9])
""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Query:
    """A SELECT query: projection variables plus a union pattern."""

    select_vars: tuple[Var, ...]
    where: UnionPattern


@dataclass(frozen=True)
class UpdateOperation:
    """DELETE/INSERT/WHERE operation.

    Both templates are basic graph patterns; the WHERE clause may be a
    union.  Template variables need not occur in the WHERE clause:
    instantiations that stay non-ground are dropped at execution time.
    An absent WHERE clause means the empty group, which binds exactly one
    empty solution (this is what makes the DATA forms fire once).
    """

    delete_template: Bgp = EMPTY_BGP
    insert_template: Bgp = EMPTY_BGP
    where: UnionPattern = UnionPattern.empty()

    @property
    def is_general(self) -> bool:
        return (
            self.delete_template.general
            or self.insert_template.general
            or self.where.is_general
        )


class _Parser:
    def __init__(self, text: str, general: bool):
        self.tokens = tokenize(text, _TOKEN_RE)
        self.i = 0
        self.general = general
        self.prefixes = dict(DEFAULT_PREFIXES)
        self.var_order: list[Var] = []

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_word(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "word" and tok.text.upper() in words

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.text == text

    def expect_punct(self, text: str):
        tok = self.next()
        if not (tok.kind == "punct" and tok.text == text):
            self._unexpected(tok, f"'{text}'")

    def expect_word(self, word: str):
        tok = self.next()
        if not (tok.kind == "word" and tok.text.upper() == word):
            self._unexpected(tok, word)

    def _unexpected(self, tok: Token, wanted: str):
        if tok.kind == "word" and tok.text.upper() in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeature(
                f"line {tok.line}, col {tok.col}: {tok.text.upper()} "
                "is outside the supported fragment"
            )
        raise ParseError(f"expected {wanted}, found {tok.text!r}", tok.line, tok.col)

    def check_unsupported(self):
        tok = self.peek()
        if tok.kind == "word" and tok.text.upper() in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeature(
                f"line {tok.line}, col {tok.col}: {tok.text.upper()} "
                "is outside the supported fragment"
            )

    # -- shared pieces -----------------------------------------------------

    def parse_prologue(self):
        while self.at_word("PREFIX"):
            self.next()
            tok = self.next()
            if tok.kind != "pname":
                self._unexpected(tok, "a prefix name")
            prefix, _, local = tok.text.partition(":")
            if local:
                raise ParseError(
                    "prefix declaration with a local part", tok.line, tok.col
                )
            iritok = self.next()
            if iritok.kind != "iriref":
                self._unexpected(iritok, "a namespace IRI")
            self.prefixes[prefix] = iritok.text[1:-1]

    def parse_term(self, what: str, allow_a: bool = False) -> Term:
        tok = self.next()
        if tok.kind == "var":
            v = Var(tok.text[1:])
            if v not in self.var_order:
                self.var_order.append(v)
            return v
        if tok.kind == "iriref":
            return make_iri(tok.text[1:-1], tok)
        if tok.kind == "pname":
            return expand_pname(tok, self.prefixes)
        if allow_a and tok.kind == "word" and tok.text == "a":
            return RDF_TYPE
        self._unexpected(tok, what)

    def make_atom(self, subj, pred, star, obj, tok, in_template: bool):
        if star:
            if in_template:
                raise UnsupportedFeature(
                    f"line {tok.line}, col {tok.col}: property paths are not "
                    "allowed in templates"
                )
            if not self.general or not isinstance(pred, Iri) \
                    or pred not in _PATH_PREDICATES:
                raise UnsupportedFeature(
                    f"line {tok.line}, col {tok.col}: zero-or-more paths are only "
                    "supported over rdfs:subClassOf/rdfs:subPropertyOf in general mode"
                )
            return PathAtom(subj, pred, obj)
        if pred == RDF_TYPE and obj == RDFS_RESOURCE:
            if in_template:
                raise UnsupportedFeature(
                    f"line {tok.line}, col {tok.col}: the rdfs:Resource binder is "
                    "only valid in a WHERE clause"
                )
            return AnyTermAtom(subj)
        try:
            atom = classify_triple(subj, pred, obj, general=self.general)
        except VarInPredicate as exc:
            raise UnsupportedFeature(str(exc)) from exc
        if not self.general and isinstance(atom, TBOX_KINDS):
            raise UnsupportedFeature(
                f"line {tok.line}, col {tok.col}: terminological pattern "
                "requires general mode"
            )
        return atom

    def parse_triples(self, in_template: bool) -> frozenset:
        """Triples block, Turtle-style `;`/`,` lists, up to the closing '}'."""
        atoms = set()
        while True:
            self.check_unsupported()
            subj = self.parse_term("a subject")
            while True:
                self.check_unsupported()
                verbtok = self.peek()
                pred = self.parse_term("a predicate", allow_a=True)
                star = False
                if self.at_punct("*"):
                    self.next()
                    star = True
                while True:
                    obj = self.parse_term("an object")
                    atoms.add(self.make_atom(subj, pred, star, obj, verbtok,
                                             in_template))
                    if self.at_punct(","):
                        self.next()
                        continue
                    break
                if self.at_punct(";"):
                    self.next()
                    if self.at_punct(".") or self.at_punct("}"):
                        break
                    continue
                break
            if self.at_punct("."):
                self.next()
                if self.at_punct("}"):
                    return frozenset(atoms)
                continue
            if self.at_punct("}"):
                return frozenset(atoms)
            self._unexpected(self.peek(), "'.', ';', ',' or '}'")

    def parse_group(self) -> UnionPattern:
        """Group pattern: `{}`, a triples block, or nested groups combined
        with UNION (alternation) and adjacency (join)."""
        self.expect_punct("{")
        if self.at_punct("}"):
            self.next()
            return UnionPattern.empty()
        if self.at_punct("{"):
            parts = []
            while self.at_punct("{"):
                chain = [self.parse_group()]
                while self.at_word("UNION"):
                    self.next()
                    chain.append(self.parse_group())
                parts.append(_union_all(chain))
                self.check_unsupported()
            self.expect_punct("}")
            return _join_all(parts)
        atoms = self.parse_triples(in_template=False)
        self.expect_punct("}")
        return UnionPattern.single(Bgp(atoms, general=self.general))

    def parse_template(self) -> Bgp:
        self.expect_punct("{")
        if self.at_punct("}"):
            self.next()
            return Bgp(frozenset(), general=self.general)
        atoms = self.parse_triples(in_template=True)
        self.expect_punct("}")
        return Bgp(atoms, general=self.general)

    def expect_eof(self):
        tok = self.peek()
        if tok.kind != "eof":
            self._unexpected(tok, "end of input")


def _union_all(parts: list[UnionPattern]) -> UnionPattern:
    disjuncts = frozenset(d for p in parts for d in p.disjuncts)
    return UnionPattern(disjuncts)


def _join_all(parts: list[UnionPattern]) -> UnionPattern:
    out = parts[0]
    for nxt in parts[1:]:
        out = UnionPattern(
            frozenset(
                Bgp(a.atoms | b.atoms, general=a.general or b.general)
                for a in out.disjuncts
                for b in nxt.disjuncts
            )
        )
    return out


def parse_query(text: str, general: bool = False) -> Query:
    """Parse a SELECT query; `general` unlocks the terminological extensions."""
    p = _Parser(text, general)
    p.parse_prologue()
    p.expect_word("SELECT")
    star = False
    select_toks: list[tuple[Var, Token]] = []
    if p.at_punct("*"):
        p.next()
        star = True
    else:
        while p.peek().kind == "var":
            tok = p.next()
            select_toks.append((Var(tok.text[1:]), tok))
        if not select_toks:
            p._unexpected(p.peek(), "a projection variable or '*'")
    if p.at_word("WHERE"):
        p.next()
    where = p.parse_group()
    p.expect_eof()
    if star:
        select_vars = tuple(p.var_order)
    else:
        where_vars = where.vars()
        for v, tok in select_toks:
            if v not in where_vars:
                raise ParseError(
                    f"projection variable ?{v.name} does not occur in the pattern",
                    tok.line, tok.col,
                )
        select_vars = tuple(dict.fromkeys(v for v, _ in select_toks))
    return Query(select_vars, where)


def parse_update(text: str, general: bool = False) -> UpdateOperation:
    """Parse one DELETE/INSERT/WHERE operation (or a DATA form)."""
    p = _Parser(text, general)
    p.parse_prologue()
    delete_template = Bgp(frozenset(), general=general)
    insert_template = Bgp(frozenset(), general=general)
    where = UnionPattern.empty()

    def parse_data_template() -> Bgp:
        tok = p.peek()
        bgp = p.parse_template()
        if not bgp.is_ground():
            raise ParseError(
                "variables are not allowed in a DATA block", tok.line, tok.col
            )
        return bgp

    if p.at_word("DELETE"):
        p.next()
        if p.at_word("DATA"):
            p.next()
            delete_template = parse_data_template()
        else:
            delete_template = p.parse_template()
            if p.at_word("INSERT"):
                p.next()
                insert_template = p.parse_template()
            if p.at_word("WHERE"):
                p.next()
                where = p.parse_group()
    elif p.at_word("INSERT"):
        p.next()
        if p.at_word("DATA"):
            p.next()
            insert_template = parse_data_template()
        else:
            insert_template = p.parse_template()
            if p.at_word("WHERE"):
                p.next()
                where = p.parse_group()
    else:
        p._unexpected(p.peek(), "DELETE or INSERT")
    if p.at_punct(";"):
        p.next()
    p.expect_eof()
    return UpdateOperation(delete_template, insert_template, where)
