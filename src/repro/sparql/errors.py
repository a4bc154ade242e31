"""Exception hierarchy for the SPARQL engine."""

from repro.errors import InvalidRequest


class SparqlError(Exception):
    """Base class for every SPARQL-engine error."""


class SparqlParseError(SparqlError, InvalidRequest):
    """Syntax error in a query, with position information."""

    def __init__(self, message: str, position: int = -1, line: int = -1):
        location = ""
        if line >= 0:
            location = f" (line {line})"
        elif position >= 0:
            location = f" (offset {position})"
        super().__init__(message + location)
        self.position = position
        self.line = line


class SparqlEvalError(SparqlError):
    """Runtime error while evaluating a query (e.g. unknown aggregate)."""


class ExpressionError(SparqlError):
    """An expression evaluation error.

    Per the SPARQL semantics an erroring FILTER expression makes the
    filter reject the row rather than aborting the whole query; the
    evaluator catches this internally.
    """
