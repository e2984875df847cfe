"""Turtle-subset parser and deterministic serializer.

Supported surface: `@prefix` declarations, prefixed names, full IRIs in
angle brackets, the `a` keyword, `;` and `,` abbreviations, and `#`
comments.  Literals, blank nodes, and collections are outside the fragment
and rejected with a position.  The prefixes `rdf:`, `rdfs:`, and the default
`:` (expanding to http://example.org/) are predeclared; user declarations
override them.
"""

from __future__ import annotations

import re

from rdfsupd.errors import ParseError, UnsupportedFeature
from rdfsupd.model import (
    EXAMPLE_NS,
    RDF_NS,
    RDFS_NS,
    Iri,
    StoreMode,
    TripleStore,
    atom_to_triple,
    classify_triple,
    term_key,
)

DEFAULT_PREFIXES = {"rdf": RDF_NS, "rdfs": RDFS_NS, "": EXAMPLE_NS}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<nl>\n)
  | (?P<comment>\#[^\n]*)
  | (?P<prefix_kw>@prefix\b)
  | (?P<iriref><[^<>"{}|^`\\\s]*>)
  | (?P<bnode>_:[\w.-]*)
  | (?P<pname>(?:[A-Za-z_][\w.-]*)?:(?:[A-Za-z0-9_](?:[\w.-]*[\w-])?)?)
  | (?P<a_kw>a(?![\w.-]))
  | (?P<punct>[.;,])
  | (?P<unsupported>["'\[\](]|_:|[+-]?[0-9])
""",
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def tokenize(text: str, token_re: re.Pattern) -> list[Token]:
    """Tokens of `text` by the named groups of `token_re`, ending in `eof`.

    Whitespace and comments are skipped; the `unsupported` and `bnode`
    groups raise `UnsupportedFeature` naming what was found.  Both parsers
    share this loop, each with its own token regex.
    """
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = token_re.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(tok)
        elif kind in ("unsupported", "bnode"):
            what = {
                '"': "string literal",
                "'": "string literal",
                "[": "blank node",
                "]": "blank node",
                "(": "collection",
            }.get(tok, "blank node" if kind == "bnode" else
                  "numeric or boolean literal")
            raise UnsupportedFeature(
                f"line {line}, col {col}: {what} is outside the supported fragment"
            )
        else:
            tokens.append(Token(kind, tok, line, col))
            col += len(tok)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


def make_iri(value: str, tok) -> Iri:
    """The IRI a token denotes; an empty one is a syntax error at the token."""
    if not value:
        raise ParseError("empty IRI", tok.line, tok.col)
    return Iri(value)


def expand_pname(tok: Token, prefixes: dict[str, str]) -> Iri:
    """The IRI a prefixed-name token denotes under `prefixes`."""
    prefix, _, local = tok.text.partition(":")
    ns = prefixes.get(prefix)
    if ns is None:
        raise ParseError(f"undeclared prefix {prefix!r}", tok.line, tok.col)
    return make_iri(ns + local, tok)


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text, _TOKEN_RE)
        self.i = 0
        self.prefixes = dict(DEFAULT_PREFIXES)

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what}, found {tok.text!r}", tok.line, tok.col
            )
        return tok

    def parse_term(self, what: str) -> Iri:
        tok = self.next()
        if tok.kind == "iriref":
            return make_iri(tok.text[1:-1], tok)
        if tok.kind == "pname":
            return expand_pname(tok, self.prefixes)
        raise ParseError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)

    def parse_verb(self) -> Iri:
        if self.peek().kind == "a_kw":
            self.next()
            return Iri(RDF_NS + "type")
        return self.parse_term("a predicate")

    def parse_prefix_decl(self):
        self.next()  # @prefix
        tok = self.expect("pname", "a prefix name")
        prefix, _, local = tok.text.partition(":")
        if local:
            raise ParseError("prefix declaration with a local part", tok.line, tok.col)
        iritok = self.expect("iriref", "a namespace IRI")
        dot = self.next()
        if not (dot.kind == "punct" and dot.text == "."):
            raise ParseError("expected '.' after @prefix", dot.line, dot.col)
        self.prefixes[prefix] = iritok.text[1:-1]

    def parse_statement(self, sink):
        subj = self.parse_term("a subject")
        while True:
            verb = self.parse_verb()
            while True:
                obj = self.parse_term("an object")
                sink(subj, verb, obj)
                tok = self.peek()
                if tok.kind == "punct" and tok.text == ",":
                    self.next()
                    continue
                break
            tok = self.next()
            if tok.kind == "punct" and tok.text == ";":
                if self.peek().kind == "punct" and self.peek().text == ".":
                    self.next()
                    return
                continue
            if tok.kind == "punct" and tok.text == ".":
                return
            raise ParseError(
                f"expected '.', ';' or ',', found {tok.text!r}", tok.line, tok.col
            )


def parse_turtle(text: str) -> TripleStore:
    """Parse Turtle text into a plain-mode store."""
    parser = _Parser(text)
    atoms = []

    def sink(s, p, o):
        atoms.append(classify_triple(s, p, o, general=False))

    while parser.peek().kind != "eof":
        if parser.peek().kind == "prefix_kw":
            parser.parse_prefix_decl()
        else:
            parser.parse_statement(sink)
    return TripleStore.from_atoms(atoms, StoreMode.PLAIN)


_LOCAL_RE = re.compile(r"\A[A-Za-z0-9_](?:[\w.-]*[\w-])?\Z")


def shorten_iri(iri: Iri) -> str:
    """Prefixed form under the default prefix map, or `<...>`."""
    for prefix, ns in sorted(DEFAULT_PREFIXES.items(), key=lambda kv: -len(kv[1])):
        if iri.value.startswith(ns):
            local = iri.value[len(ns):]
            if local == "" or _LOCAL_RE.match(local):
                return f"{prefix}:{local}"
    return f"<{iri.value}>"


def _render_triple(s: Iri, p: Iri, o: Iri) -> str:
    pred = "a" if p.value == RDF_NS + "type" else shorten_iri(p)
    return f"{shorten_iri(s)} {pred} {shorten_iri(o)} ."


def serialize_turtle(store: TripleStore) -> str:
    """Deterministic text: prefix prologue, then axioms, then assertions,
    each block sorted by component IRIs.  Mode and the explicit/implicit
    split are not serialized; re-parsing yields a plain store with the same
    TBox and merged ABox.
    """
    lines = [
        f"@prefix {p}: <{ns}> ." for p, ns in sorted(DEFAULT_PREFIXES.items())
    ]
    lines.append("")

    def triple_key(atom):
        return tuple(term_key(t) for t in atom_to_triple(atom))

    for atom in sorted(store.tbox, key=triple_key):
        lines.append(_render_triple(*atom_to_triple(atom)))
    for atom in sorted(store.abox, key=triple_key):
        lines.append(_render_triple(*atom_to_triple(atom)))
    return "\n".join(lines) + "\n"
