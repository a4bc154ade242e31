"""One lexer and one term reader for RDF term syntax.

SPARQL queries and updates, the SEM_MATCH SQL wrapper, Turtle,
N-Triples, staging-table columns and the rule notation of
:mod:`repro.reasoning` spell terms the same way: ``<iri>``,
``prefix:local``, ``_:label``, ``"literal"`` with ``@lang`` or
``^^datatype``, numbers, ``true`` / ``false`` and, in queries and rules,
``?var``. :func:`tokenize` splits such text into tokens and
:class:`TermReader` reads terms and subject/predicate-list/object-list
statements from them; each format's parser is a thin layer over the
two. String escapes are decoded in one place,
:func:`repro.rdf.terms.unescape_literal`.

========= ==========================================================
kind       examples
========= ==========================================================
IRIREF     ``<http://...>``
PNAME      ``dm:hasName``, ``rdf:type``, ``dm:`` (prefix declaration)
VAR        ``?term``, ``$term``
STRING     ``"customer"``, ``'customer'`` (the value is decoded)
NUMBER     ``42``, ``-3.5``, ``007``
LANGTAG    ``@en-GB`` (and Turtle's ``@prefix``)
BNODE      ``_:b1``
KEYWORD    ``SELECT``, ``WHERE``, ``TRUE``, ... (case-insensitive)
NAME       bare identifiers — function names like ``regex``, and ``a``
PUNCT      ``{ } ( ) [ ] . ; , * = != < > <= >= && || ! + - / | ^ ^^ ?``
EOF        end of input
========= ==========================================================

Each format keeps its own exception type: errors are raised through the
``error(message, position, line)`` factory the caller passes, by
default :class:`TermSyntaxError` (a ``ValueError``).
"""

from __future__ import annotations

import re
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.rdf.namespace import RDF, NamespaceManager
from repro.rdf.terms import (
    BNODE_LABEL,
    BNODE_LABEL_RE,
    LANGTAG,
    BNode,
    IRI,
    Literal,
    Term,
    Variable,
    XSD_DECIMAL,
    XSD_INTEGER,
    unescape_literal,
)

KEYWORDS = frozenset(
    "SELECT DISTINCT REDUCED WHERE FILTER OPTIONAL UNION PREFIX BASE ORDER BY "
    "ASC DESC LIMIT OFFSET GROUP HAVING ASK CONSTRUCT DESCRIBE AS COUNT SUM MIN "
    "MAX AVG GROUP_CONCAT SAMPLE NOT IN TRUE FALSE BIND VALUES MINUS EXISTS "
    "UNDEF".split()
)

_WORD = r"[^\W\d_](?:[\w.-]*[\w-])?"
_TOKEN = re.compile(
    "|".join(
        (
            r"(?P<WS>(?:\s+|#[^\n\r]*)+)",
            # an IRIREF only when it looks like one, otherwise '<' compares;
            # it excludes exactly what IRI() forbids, so every IRI re-reads
            r'<(?P<IRIREF>[^<>"{}|^`\\ \n\r\t]+)>',
            r"[?$](?P<VAR>\w+)",
            r'(?P<STRING>"[^"\\\n\r]*(?:\\.[^"\\\n\r]*)*"' r"|'[^'\\\n\r]*(?:\\.[^'\\\n\r]*)*')",
            r"(?P<NUMBER>[+-]?\d+(?:\.\d+)?)",
            rf"(?P<PNAME>(?:{_WORD})?:(?:[\w.-]*[\w-])?)",
            rf"(?P<WORD>{_WORD})",
            rf"_:(?P<BNODE>{BNODE_LABEL})",
            rf"@(?P<LANGTAG>{LANGTAG})",
            r"(?P<PUNCT><=|>=|!=|&&|\|\||\^\^|[{}()\[\].;,*=<>!+\-/|^?])",
            r"(?P<ERROR>.)",
        )
    ),
    re.DOTALL,
)

_RDF_TYPE = RDF.type
_INTEGER = IRI(XSD_INTEGER)
_DECIMAL = IRI(XSD_DECIMAL)

ErrorFactory = Callable[[str, int, int], Exception]


class TermSyntaxError(ValueError):
    """Malformed term syntax, with its offset and 1-based line."""

    def __init__(self, message: str, position: int = -1, line: int = -1):
        super().__init__(message + (f" (line {line})" if line >= 0 else ""))
        self.position = position
        self.line = line


class Token(NamedTuple):
    kind: str
    value: str
    position: int
    line: int

    def matches(self, kind: str, value: str = None) -> bool:
        if self.kind != kind:
            return False
        if value is None:
            return True
        if kind == "KEYWORD":
            return self.value.upper() == value.upper()
        return self.value == value


_new_token = tuple.__new__  # skips Token.__new__'s Python-level call


def tokenize(text: str, error: ErrorFactory = TermSyntaxError) -> List[Token]:
    """Split ``text`` into tokens, ending with one ``EOF`` token.

    Lines end at ``\\n``, ``\\r\\n`` or a lone ``\\r``; a string or an
    IRI never spans one.
    """
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    line = 1
    pos = 0
    end = len(text)
    while pos < end:
        m = match(text, pos)
        start, pos = m.span()
        kind = m.lastgroup
        value = m.group(kind)
        if kind == "WS":
            if "\n" in value or "\r" in value:
                line += value.count("\n") + value.count("\r") - value.count("\r\n")
            continue
        if kind == "WORD":
            upper = value.upper()
            if upper in KEYWORDS:
                kind, value = "KEYWORD", upper
            else:
                kind = "NAME"
        elif kind == "STRING":
            value = value[1:-1]
            if "\\" in value:
                try:
                    value = unescape_literal(value)
                except ValueError as exc:
                    raise error(str(exc), start, line) from None
        elif kind == "ERROR":
            message = (
                "unterminated string literal"
                if value in "\"'"
                else f"unexpected character {value!r}"
            )
            raise error(message, start, line)
        append(_new_token(Token, (kind, value, start, line)))
    append(_new_token(Token, ("EOF", "", end, line)))
    return tokens


def is_bnode_label(label: str) -> bool:
    """Whether ``_:label`` reads back as one blank node."""
    return BNODE_LABEL_RE.fullmatch(label) is not None


def number_literal(text: str) -> Literal:
    """The literal of a NUMBER token: ``xsd:integer`` or ``xsd:decimal``
    with the token as its lexical form, so ``007`` stays ``"007"``
    (Turtle, and SPARQL 1.1 §4.1.2)."""
    return Literal(text, datatype=_DECIMAL if "." in text else _INTEGER)


class TermReader:
    """Reads terms and triple statements from the tokens of one text.

    ``nsm`` resolves prefixed names. Without one the reader reads
    N-Triples terms only — ``<iri>``, ``_:label`` and double-quoted
    literals with ``@lang`` or ``^^<iri>`` — with no prefixed names, no
    ``a`` and no number or boolean shorthand. ``variables`` admits
    ``?var`` (queries and rules).
    """

    def __init__(
        self,
        text: str,
        nsm: Optional[NamespaceManager] = None,
        error: ErrorFactory = TermSyntaxError,
        variables: bool = False,
    ):
        self.text = text
        self.tokens = tokenize(text, error)
        self.pos = 0
        self.nsm = nsm
        self.variables = variables
        self.error_type = error

    # -- token plumbing -------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, value: str = None) -> bool:
        return self.tokens[self.pos].matches(kind, value)

    def accept(self, kind: str, value: str = None) -> Optional[Token]:
        if self.at(kind, value):
            return self.next()
        return None

    def expect(self, kind: str, value: str = None) -> Token:
        tok = self.peek()
        if not tok.matches(kind, value):
            raise self.error(f"expected {value or kind!r}, found {tok.value or tok.kind!r}")
        return self.next()

    def error(self, message: str, tok: Optional[Token] = None) -> Exception:
        tok = tok or self.peek()
        return self.error_type(message, tok.position, tok.line)

    # -- prologue -------------------------------------------------------------

    def parse_prologue(self) -> None:
        """``PREFIX p: <iri>`` and ``BASE <iri>`` declarations."""
        while True:
            if self.accept("KEYWORD", "PREFIX"):
                self.parse_prefix_binding()
            elif self.accept("KEYWORD", "BASE"):
                self.expect("IRIREF")  # accepted and ignored (no relative IRIs)
            else:
                return

    def parse_prefix_binding(self) -> None:
        """``p: <iri>``, bound into ``nsm``."""
        prefix = self.expect("PNAME").value.split(":", 1)[0]
        self.nsm.bind(prefix, self.expect("IRIREF").value)

    # -- terms ------------------------------------------------------------------

    def parse_term(self, position: str = "object") -> Term:
        """One term; a literal only in the object position."""
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "IRIREF":
            term = IRI(tok.value)
        elif kind == "BNODE":
            term = BNode(tok.value)
        elif kind == "VAR" and self.variables:
            term = Variable(tok.value)
        elif kind == "STRING" and (self.nsm is not None or self.text[tok.position] == '"'):
            self._literal_at(position)
            self.pos += 1
            return self.parse_literal_tail(tok.value)
        elif self.nsm is None:
            raise self._not_a_term(tok, position)
        elif kind == "PNAME":
            term = self.expand_pname(tok)
        elif kind == "NUMBER":
            self._literal_at(position)
            term = number_literal(tok.value)
        elif kind == "KEYWORD" and tok.value in ("TRUE", "FALSE"):
            self._literal_at(position)
            term = Literal(tok.value == "TRUE")
        else:
            raise self._not_a_term(tok, position)
        self.pos += 1
        return term

    def _literal_at(self, position: str) -> None:
        if position != "object":
            raise self.error(f"a literal cannot be the {position}")

    def _not_a_term(self, tok: Token, position: str) -> Exception:
        if tok.matches("PUNCT", "["):
            return self.error("anonymous blank nodes [...] are not supported")
        if tok.matches("PUNCT", "("):
            return self.error("RDF collections (...) are not supported")
        return self.error(f"expected a term in {position} position, found {tok.value or tok.kind!r}")

    def parse_iri(self) -> IRI:
        tok = self.tokens[self.pos]
        if tok.kind == "IRIREF":
            self.pos += 1
            return IRI(tok.value)
        if tok.kind == "PNAME" and self.nsm is not None:
            self.pos += 1
            return self.expand_pname(tok)
        raise self.error(f"expected an IRI, found {tok.value or tok.kind!r}")

    def parse_verb(self) -> Term:
        """A predicate: ``?var`` where variables are read, ``a`` for
        ``rdf:type`` where prefixed names are, or an IRI."""
        tok = self.tokens[self.pos]
        if tok.kind == "VAR" and self.variables:
            self.pos += 1
            return Variable(tok.value)
        if tok.kind == "NAME" and tok.value == "a" and self.nsm is not None:
            self.pos += 1
            return _RDF_TYPE
        return self.parse_iri()

    def parse_literal_tail(self, body: str) -> Literal:
        """The ``@lang`` or ``^^datatype`` after a string, if any."""
        tok = self.tokens[self.pos]
        if tok.kind == "LANGTAG":
            self.pos += 1
            return Literal(body, language=tok.value)
        if tok.kind == "PUNCT" and tok.value == "^^":
            self.pos += 1
            return Literal(body, datatype=self.parse_iri())
        return Literal(body)

    def expand_pname(self, tok: Token) -> IRI:
        try:
            return self.nsm.expand(tok.value)
        except (KeyError, ValueError) as exc:
            raise self.error(exc.args[0], tok) from None

    # -- statements ---------------------------------------------------------------

    def parse_triples_same_subject(self) -> List[Tuple[Term, Term, Term]]:
        """``s p o (, o)* (; p o (, o)*)*`` as (subject, predicate,
        object) triples; a trailing ``;`` is allowed."""
        subject = self.parse_term("subject")
        out = []
        while True:
            predicate = self.parse_verb()
            while True:
                out.append((subject, predicate, self.parse_term("object")))
                if not self.accept("PUNCT", ","):
                    break
            if not self.accept("PUNCT", ";"):
                return out
            if self.at("PUNCT", ".") or self.at("PUNCT", "}"):
                return out
