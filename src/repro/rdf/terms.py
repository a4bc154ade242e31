"""RDF terms: IRIs, blank nodes, literals, variables, and triples.

Terms are immutable and hashable so they can live in the nested dictionary
indexes of :class:`repro.rdf.graph.Graph`. A total order is defined across
term kinds (IRI < BNode < Literal) so query results and serializations are
deterministic, which the test-suite and the benchmark harness rely on.
"""

from __future__ import annotations

import itertools
import re
from typing import Optional, Tuple, Union

_XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = _XSD + "string"
XSD_INTEGER = _XSD + "integer"
XSD_DECIMAL = _XSD + "decimal"
XSD_DOUBLE = _XSD + "double"
XSD_BOOLEAN = _XSD + "boolean"
XSD_DATE = _XSD + "date"
XSD_DATETIME = _XSD + "dateTime"

_IRI_FORBIDDEN = re.compile(r'[<>" {}|\\^`\n\r\t]')

#: The ``_:label`` and ``@lang`` grammars. :mod:`repro.rdf.syntax` builds
#: its lexer from these two patterns, and the constructors reject what
#: they do not match, so every blank node and tag reads back.
BNODE_LABEL = r"\w(?:[\w.-]*[\w-])?"
LANGTAG = r"(?:[^\W_]|-)+"
BNODE_LABEL_RE = re.compile(BNODE_LABEL)
_LANGTAG_RE = re.compile(LANGTAG)

# Sort keys per term kind; used by Term.sort_key for the cross-kind order.
_KIND_ORDER = {"IRI": 0, "BNode": 1, "Literal": 2, "Variable": 3}


class Term:
    """Abstract base class of every RDF term.

    Subclasses must define ``__slots__``, equality, hashing, and
    :meth:`n3` (the N-Triples surface form).
    """

    __slots__ = ()

    def n3(self) -> str:
        """Return the N-Triples/Turtle surface syntax of the term."""
        raise NotImplementedError

    def sort_key(self) -> Tuple:
        """Key defining the deterministic total order across all terms."""
        raise NotImplementedError

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def __le__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() >= other.sort_key()


class IRI(Term):
    """An IRI reference, e.g. ``IRI("http://example.org/Customer")``."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise TypeError(f"IRI value must be str, got {type(value).__name__}")
        if not value:
            raise ValueError("IRI value must be non-empty")
        if _IRI_FORBIDDEN.search(value):
            raise ValueError(f"IRI contains characters forbidden in IRIs: {value!r}")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("IRI is immutable")

    def __reduce__(self):
        # immutable __slots__ classes need explicit pickle support (the
        # default slot-state path calls the blocked __setattr__); query
        # results cross process boundaries in the query service's
        # fork-mode worker pool
        return (IRI, (self.value,))

    def __eq__(self, other) -> bool:
        return isinstance(other, IRI) and other.value == self.value

    def __hash__(self) -> int:
        return hash((IRI, self.value))

    def __repr__(self) -> str:
        return f"IRI({self.value!r})"

    def n3(self) -> str:
        return f"<{self.value}>"

    def sort_key(self) -> Tuple:
        return (_KIND_ORDER["IRI"], self.value)

    @property
    def local_name(self) -> str:
        """The fragment after the last ``#`` or ``/`` separator."""
        for sep in ("#", "/"):
            if sep in self.value:
                tail = self.value.rsplit(sep, 1)[1]
                if tail:
                    return tail
        return self.value

    @property
    def namespace(self) -> str:
        """The IRI up to and including the last ``#`` or ``/`` separator."""
        return self.value[: len(self.value) - len(self.local_name)]


_bnode_counter = itertools.count()


class BNode(Term):
    """A blank node. Fresh labels are generated when none is supplied."""

    __slots__ = ("label",)

    def __init__(self, label: Optional[str] = None):
        if label is None:
            label = f"b{next(_bnode_counter)}"
        if not isinstance(label, str) or BNODE_LABEL_RE.fullmatch(label) is None:
            raise ValueError(f"BNode label {label!r} is not a _:label")
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("BNode is immutable")

    def __reduce__(self):
        return (BNode, (self.label,))

    def __eq__(self, other) -> bool:
        return isinstance(other, BNode) and other.label == self.label

    def __hash__(self) -> int:
        return hash((BNode, self.label))

    def __repr__(self) -> str:
        return f"BNode({self.label!r})"

    def n3(self) -> str:
        return f"_:{self.label}"

    def sort_key(self) -> Tuple:
        return (_KIND_ORDER["BNode"], self.label)


class Literal(Term):
    """An RDF literal with optional datatype IRI or language tag.

    The lexical form is always stored as a string; :meth:`to_python`
    converts the common XSD datatypes back to native values. Python
    ``int``/``float``/``bool`` values passed as the lexical form are
    converted and given the corresponding XSD datatype automatically::

        Literal(42)       # datatype xsd:integer
        Literal("Zurich") # plain string literal
    """

    __slots__ = ("lexical", "datatype", "language")

    def __init__(
        self,
        lexical: Union[str, int, float, bool],
        datatype: Optional[IRI] = None,
        language: Optional[str] = None,
    ):
        if datatype is not None and language is not None:
            raise ValueError("a literal cannot have both a datatype and a language")
        if isinstance(lexical, bool):
            lexical = "true" if lexical else "false"
            datatype = datatype or IRI(XSD_BOOLEAN)
        elif isinstance(lexical, int):
            lexical = str(lexical)
            datatype = datatype or IRI(XSD_INTEGER)
        elif isinstance(lexical, float):
            lexical = repr(lexical)
            datatype = datatype or IRI(XSD_DOUBLE)
        elif not isinstance(lexical, str):
            raise TypeError(
                f"Literal lexical form must be str/int/float/bool, got {type(lexical).__name__}"
            )
        if language is not None:
            language = language.lower()
            if _LANGTAG_RE.fullmatch(language) is None:
                raise ValueError(f"language tag {language!r} is not an @lang")
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "language", language)

    def __setattr__(self, name, value):
        raise AttributeError("Literal is immutable")

    def __reduce__(self):
        return (Literal, (self.lexical, self.datatype, self.language))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Literal)
            and other.lexical == self.lexical
            and other.datatype == self.datatype
            and other.language == self.language
        )

    def __hash__(self) -> int:
        return hash((Literal, self.lexical, self.datatype, self.language))

    def __repr__(self) -> str:
        parts = [repr(self.lexical)]
        if self.datatype is not None:
            parts.append(f"datatype={self.datatype!r}")
        if self.language is not None:
            parts.append(f"language={self.language!r}")
        return f"Literal({', '.join(parts)})"

    def n3(self) -> str:
        escaped = escape_literal(self.lexical)
        if self.language is not None:
            return f'"{escaped}"@{self.language}'
        if self.datatype is not None:
            return f'"{escaped}"^^{self.datatype.n3()}'
        return f'"{escaped}"'

    def sort_key(self) -> Tuple:
        return (
            _KIND_ORDER["Literal"],
            self.lexical,
            self.datatype.value if self.datatype else "",
            self.language or "",
        )

    def to_python(self) -> Union[str, int, float, bool]:
        """Convert to the native Python value of the XSD datatype."""
        if self.datatype is None:
            return self.lexical
        dt = self.datatype.value
        if dt == XSD_INTEGER:
            return int(self.lexical)
        if dt in (XSD_DECIMAL, XSD_DOUBLE):
            return float(self.lexical)
        if dt == XSD_BOOLEAN:
            return self.lexical in ("true", "1")
        return self.lexical

    def is_numeric(self) -> bool:
        """True when the datatype is one of the numeric XSD types."""
        return self.datatype is not None and self.datatype.value in (
            XSD_INTEGER,
            XSD_DECIMAL,
            XSD_DOUBLE,
        )


class Variable(Term):
    """A query variable (``?name``). Only valid inside query patterns."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not isinstance(name, str) or not name:
            raise ValueError("Variable name must be a non-empty string")
        if name.startswith("?") or name.startswith("$"):
            name = name[1:]
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("Variable is immutable")

    def __reduce__(self):
        return (Variable, (self.name,))

    def __eq__(self, other) -> bool:
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self) -> int:
        return hash((Variable, self.name))

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def n3(self) -> str:
        return f"?{self.name}"

    def sort_key(self) -> Tuple:
        return (_KIND_ORDER["Variable"], self.name)


class Triple(tuple):
    """An RDF triple ``(subject, predicate, object)``.

    Implemented as a tuple subclass so triples unpack naturally::

        s, p, o = triple

    Ground triples (those stored in a graph) must have an IRI or BNode
    subject, an IRI predicate, and any term as object; query patterns may
    additionally contain :class:`Variable` or ``None`` wildcards, so the
    constructor only enforces the type envelope, and
    :meth:`is_ground` distinguishes storable triples.
    """

    __slots__ = ()

    def __new__(cls, subject, predicate, obj):
        _check_position("subject", subject, (IRI, BNode, Variable))
        _check_position("predicate", predicate, (IRI, Variable))
        _check_position("object", obj, (IRI, BNode, Literal, Variable))
        return tuple.__new__(cls, (subject, predicate, obj))

    @property
    def subject(self):
        return self[0]

    @property
    def predicate(self):
        return self[1]

    @property
    def object(self):
        return self[2]

    def __reduce__(self):
        # tuple subclasses with a required-argument __new__ need this
        return (Triple, tuple(self))

    def is_ground(self) -> bool:
        """True when the triple contains no variables or wildcards."""
        return all(t is not None and not isinstance(t, Variable) for t in self)

    def n3(self) -> str:
        return " ".join("?" if t is None else t.n3() for t in self) + " ."

    def __repr__(self) -> str:
        return f"Triple({self[0]!r}, {self[1]!r}, {self[2]!r})"


def _check_position(position: str, term, allowed) -> None:
    if term is None:
        return
    if not isinstance(term, allowed):
        names = "/".join(t.__name__ for t in allowed)
        raise TypeError(
            f"triple {position} must be {names} or None, got {type(term).__name__}"
        )


def escape_literal(text: str) -> str:
    """Escape a literal's lexical form for N-Triples/Turtle output."""
    return (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )


_ECHAR = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}
_ESCAPE = re.compile(r"\\(?:([tbnrf\"'\\])|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.?))", re.DOTALL)


def unescape_literal(text: str) -> str:
    """Decode the string escapes of SPARQL, Turtle and N-Triples.

    ``\\t \\b \\n \\r \\f \\" \\' \\\\``, ``\\uXXXX`` and ``\\UXXXXXXXX``;
    this is the one place that decodes them. Anything else after a
    backslash — a short or non-hex ``\\u``, an unknown letter, a trailing
    backslash, a code point that is not a Unicode scalar value — raises
    ValueError.
    """
    if "\\" not in text:
        return text
    return _ESCAPE.sub(_unescape_one, text)


def _unescape_one(match: "re.Match") -> str:
    char, short, long, other = match.groups()
    if char:
        return _ECHAR[char]
    if short or long:
        code = int(short or long, 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise ValueError(f"escape {match.group()} is not a Unicode scalar value")
        return chr(code)
    if other in ("u", "U"):
        width = 4 if other == "u" else 8
        raise ValueError(f"\\{other} escape needs {width} hex digits")
    if not other:
        raise ValueError("dangling backslash in literal")
    raise ValueError(f"unknown escape sequence \\{other}")
