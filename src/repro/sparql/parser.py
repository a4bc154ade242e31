"""Recursive-descent parser producing the query algebra.

Supports the SPARQL fragment the meta-data warehouse needs: SELECT and
ASK forms, basic graph patterns with ``;`` and ``,`` abbreviations, ``a``
for ``rdf:type``, property paths, FILTER with the operators and the
builtins of :mod:`repro.sparql.expressions`, OPTIONAL, UNION, BIND,
VALUES, GROUP BY + aggregates, HAVING, ORDER BY, LIMIT and OFFSET.
CONSTRUCT, DESCRIBE, MINUS, FILTER (NOT) EXISTS and any other function
are rejected with a :class:`SparqlParseError` naming the form.
"""

from __future__ import annotations

from typing import List, Optional

from repro.rdf.namespace import RDF, NamespaceManager
from repro.rdf.syntax import TermReader, Token
from repro.rdf.syntax import tokenize as _tokenize
from repro.rdf.terms import Triple, Variable
from repro.sparql.algebra import (
    Aggregate,
    AskQuery,
    BGP,
    Extend,
    Filter,
    Join,
    LeftJoin,
    OrderCondition,
    Pattern,
    Projection,
    Query,
    SelectQuery,
    Union,
    ValuesPattern,
)
from repro.sparql.algebra import PathTriple
from repro.sparql.errors import SparqlParseError, outside_subset
from repro.sparql.paths import (
    Path,
    PathAlternative,
    PathInverse,
    PathOptional,
    PathPlus,
    PathSequence,
    PathStar,
    PathStep,
)
from repro.sparql.expressions import (
    BinaryExpr,
    ConstExpr,
    Expression,
    FunctionExpr,
    UnaryExpr,
    VarExpr,
    call_error,
)

_AGGREGATES = {"COUNT", "SUM", "MIN", "MAX", "AVG", "SAMPLE", "GROUP_CONCAT"}

#: the prefixes of a parse given no manager; never bound into
_DEFAULT_NSM = NamespaceManager()


def parse_query(text: str, nsm: Optional[NamespaceManager] = None) -> Query:
    """Parse a query string into an algebra :class:`Query`.

    ``nsm`` provides pre-bound prefixes (the SEM_ALIASES mechanism;
    without one, the default ``rdf``/``rdfs``/``owl``/``xsd``). PREFIX
    declarations in the query extend a copy, never the caller's manager.
    """
    return _Parser(text, nsm).parse_query()


def tokenize(text: str) -> List[Token]:
    """The tokens of a query text; raises :class:`SparqlParseError`."""
    return _tokenize(text, SparqlParseError)


class _Parser(TermReader):
    """The query grammar over the shared term reader of :mod:`repro.rdf.syntax`."""

    def __init__(self, text: str, nsm: Optional[NamespaceManager]):
        super().__init__(
            text, _DEFAULT_NSM if nsm is None else nsm, error=SparqlParseError, variables=True
        )
        self._owns_nsm = False

    def parse_prefix_binding(self) -> None:
        # the caller's manager (or the shared default) is only read: the
        # first PREFIX of a text copies it, so a binding never leaks out
        if not self._owns_nsm:
            self.nsm = self.nsm.copy()
            self._owns_nsm = True
        super().parse_prefix_binding()

    def unsupported(self, form: str) -> SparqlParseError:
        return self.error(outside_subset(form))

    # -- query roots ---------------------------------------------------------

    def parse_query(self) -> Query:
        self.parse_prologue()
        if self.at("KEYWORD", "SELECT"):
            query = self.parse_select()
        elif self.at("KEYWORD", "ASK"):
            query = self.parse_ask()
        elif self.at("KEYWORD", "CONSTRUCT") or self.at("KEYWORD", "DESCRIBE"):
            raise self.unsupported(self.peek().value)
        else:
            raise self.error("expected SELECT or ASK")
        self.expect("EOF")
        return query

    def parse_select(self) -> SelectQuery:
        self.expect("KEYWORD", "SELECT")
        distinct = bool(self.accept("KEYWORD", "DISTINCT"))
        self.accept("KEYWORD", "REDUCED")
        projection = self.parse_projection()
        self.accept("KEYWORD", "WHERE")
        pattern = self.parse_group_graph_pattern()

        group_by: List[str] = []
        having = None
        order_by: List[OrderCondition] = []
        limit = None
        offset = 0
        while True:
            if self.accept("KEYWORD", "GROUP"):
                self.expect("KEYWORD", "BY")
                while self.at("VAR"):
                    group_by.append(self.next().value)
                if not group_by:
                    raise self.error("GROUP BY requires at least one variable")
            elif self.accept("KEYWORD", "HAVING"):
                having = self.parse_constraint()
            elif self.accept("KEYWORD", "ORDER"):
                self.expect("KEYWORD", "BY")
                order_by = self.parse_order_conditions()
            elif self.accept("KEYWORD", "LIMIT"):
                limit = int(self.expect("NUMBER").value)
            elif self.accept("KEYWORD", "OFFSET"):
                offset = int(self.expect("NUMBER").value)
            else:
                break
        query = SelectQuery(
            projection=projection,
            pattern=pattern,
            distinct=distinct,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )
        ungrouped = query.ungrouped_variables()
        if ungrouped:
            names = " ".join(f"?{v}" for v in ungrouped)
            raise self.error(f"SELECT variables {names} are not in GROUP BY")
        return query

    def parse_ask(self) -> AskQuery:
        self.expect("KEYWORD", "ASK")
        self.accept("KEYWORD", "WHERE")
        return AskQuery(pattern=self.parse_group_graph_pattern())

    # -- projection -----------------------------------------------------------

    def parse_projection(self) -> Projection:
        if self.accept("PUNCT", "*"):
            return Projection(select_all=True)
        proj = Projection()
        while True:
            if self.at("VAR"):
                proj.variables.append(self.next().value)
            elif self.at("PUNCT", "("):
                proj.aggregates.append(self.parse_aggregate_column())
            elif self.peek().kind == "KEYWORD" and self.peek().value in _AGGREGATES:
                proj.aggregates.append(self.parse_aggregate_column(parenthesized=False))
            else:
                break
        if not proj.variables and not proj.aggregates:
            raise self.error("SELECT requires * or at least one column")
        return proj

    def parse_aggregate_column(self, parenthesized: bool = True) -> Aggregate:
        if parenthesized:
            self.expect("PUNCT", "(")
        tok = self.peek()
        if tok.kind != "KEYWORD" or tok.value not in _AGGREGATES:
            raise self.error("expected aggregate function")
        function = self.next().value
        self.expect("PUNCT", "(")
        distinct = bool(self.accept("KEYWORD", "DISTINCT"))
        expression = None
        separator = " "
        if self.accept("PUNCT", "*"):
            if function != "COUNT":
                raise self.error("only COUNT accepts *")
        else:
            expression = self.parse_expression()
        if function == "GROUP_CONCAT" and self.accept("PUNCT", ";"):
            name = self.expect("NAME")
            if name.value.lower() != "separator":
                raise self.error("expected 'separator'")
            self.expect("PUNCT", "=")
            separator = self.expect("STRING").value
        self.expect("PUNCT", ")")
        self.expect("KEYWORD", "AS")
        alias = self.expect("VAR").value
        if parenthesized:
            self.expect("PUNCT", ")")
        return Aggregate(
            function=function,
            expression=expression,
            alias=alias,
            distinct=distinct,
            separator=separator,
        )

    def parse_order_conditions(self) -> List[OrderCondition]:
        conditions: List[OrderCondition] = []
        while True:
            if self.accept("KEYWORD", "ASC"):
                self.expect("PUNCT", "(")
                expr = self.parse_expression()
                self.expect("PUNCT", ")")
                conditions.append(OrderCondition(expr, descending=False))
            elif self.accept("KEYWORD", "DESC"):
                self.expect("PUNCT", "(")
                expr = self.parse_expression()
                self.expect("PUNCT", ")")
                conditions.append(OrderCondition(expr, descending=True))
            elif self.at("VAR"):
                conditions.append(OrderCondition(VarExpr(self.next().value)))
            else:
                break
        if not conditions:
            raise self.error("ORDER BY requires at least one condition")
        return conditions

    # -- graph patterns ---------------------------------------------------------

    def parse_group_graph_pattern(self) -> Pattern:
        self.expect("PUNCT", "{")
        pattern: Optional[Pattern] = None
        filters: List[Expression] = []

        def combine(next_pattern: Pattern):
            nonlocal pattern
            pattern = next_pattern if pattern is None else Join(pattern, next_pattern)

        while not self.at("PUNCT", "}"):
            if self.accept("KEYWORD", "FILTER"):
                filters.append(self.parse_constraint())
                self.accept("PUNCT", ".")
            elif self.accept("KEYWORD", "OPTIONAL"):
                right = self.parse_group_graph_pattern()
                left = pattern if pattern is not None else BGP([])
                pattern = LeftJoin(left, right)
                self.accept("PUNCT", ".")
            elif self.at("KEYWORD", "MINUS"):
                raise self.unsupported("MINUS")
            elif self.accept("KEYWORD", "BIND"):
                self.expect("PUNCT", "(")
                expression = self.parse_expression()
                self.expect("KEYWORD", "AS")
                variable = self.expect("VAR").value
                self.expect("PUNCT", ")")
                left = pattern if pattern is not None else BGP([])
                pattern = Extend(left, variable, expression)
                self.accept("PUNCT", ".")
            elif self.accept("KEYWORD", "VALUES"):
                combine(self.parse_values())
                self.accept("PUNCT", ".")
            elif self.at("PUNCT", "{"):
                sub = self.parse_group_or_union()
                combine(sub)
                self.accept("PUNCT", ".")
            else:
                bgp = self.parse_triples_block()
                combine(bgp)
        self.expect("PUNCT", "}")
        if pattern is None:
            pattern = BGP([])
        for condition in filters:
            pattern = Filter(condition, pattern)
        return pattern

    def parse_group_or_union(self) -> Pattern:
        left = self.parse_group_graph_pattern()
        while self.accept("KEYWORD", "UNION"):
            right = self.parse_group_graph_pattern()
            left = Union(left, right)
        return left

    def parse_braced_triples(self) -> List[Triple]:
        self.expect("PUNCT", "{")
        triples: List[Triple] = []
        while not self.at("PUNCT", "}"):
            for s, p, o in self.parse_triples_same_subject():
                if isinstance(p, Path):
                    raise self.error("property paths are not allowed in templates")
                triples.append(Triple(s, p, o))
            if not self.accept("PUNCT", "."):
                break
        self.expect("PUNCT", "}")
        return triples

    def parse_triples_block(self) -> BGP:
        triples: List[Triple] = []
        paths: List[PathTriple] = []
        while True:
            for s, p, o in self.parse_triples_same_subject():
                if isinstance(p, Path):
                    paths.append(PathTriple(s, p, o))
                else:
                    triples.append(Triple(s, p, o))
            if not self.accept("PUNCT", "."):
                break
            if self.at("PUNCT", "}") or self.at("PUNCT", "{") or self.peek().kind == "KEYWORD":
                break
        return BGP(triples, paths)

    def parse_verb(self):
        """A predicate: variable, plain IRI, or a property path.

        A path consisting of a single unmodified step collapses to its
        IRI so plain triples keep their (plannable) form.
        """
        if self.peek().kind == "VAR":
            return Variable(self.next().value)
        path = self.parse_path()
        if isinstance(path, PathStep):
            return path.predicate
        return path

    # -- property paths -----------------------------------------------------

    def parse_path(self) -> Path:
        choices = [self.parse_path_sequence()]
        while self.accept("PUNCT", "|"):
            choices.append(self.parse_path_sequence())
        return choices[0] if len(choices) == 1 else PathAlternative(choices)

    def parse_path_sequence(self) -> Path:
        parts = [self.parse_path_elt()]
        while self.accept("PUNCT", "/"):
            parts.append(self.parse_path_elt())
        return parts[0] if len(parts) == 1 else PathSequence(parts)

    def parse_path_elt(self) -> Path:
        if self.accept("PUNCT", "^"):
            primary = PathInverse(self.parse_path_primary())
        else:
            primary = self.parse_path_primary()
        return self.parse_path_modifier(primary)

    def parse_path_modifier(self, path: Path) -> Path:
        if self.accept("PUNCT", "*"):
            return PathStar(path)
        if self.accept("PUNCT", "+"):
            return PathPlus(path)
        if self.accept("PUNCT", "?"):
            return PathOptional(path)
        return path

    def parse_path_primary(self) -> Path:
        tok = self.peek()
        if tok.matches("NAME", "a"):
            self.next()
            return PathStep(RDF.type)
        if tok.kind in ("IRIREF", "PNAME"):
            return PathStep(self.parse_iri())
        if tok.matches("PUNCT", "("):
            self.next()
            inner = self.parse_path()
            self.expect("PUNCT", ")")
            return inner
        raise self.error(
            "expected predicate (IRI, prefixed name, ?var, 'a', or a property path)"
        )

    # -- VALUES ---------------------------------------------------------------

    def parse_values(self) -> ValuesPattern:
        """``VALUES ?x { a b }`` or ``VALUES (?x ?y) { (a b) (UNDEF c) }``."""
        names: List[str] = []
        single = False
        if self.at("VAR"):
            names.append(self.next().value)
            single = True
        else:
            self.expect("PUNCT", "(")
            while self.at("VAR"):
                names.append(self.next().value)
            self.expect("PUNCT", ")")
        if not names:
            raise self.error("VALUES requires at least one variable")
        rows = []
        self.expect("PUNCT", "{")
        while not self.at("PUNCT", "}"):
            if single:
                rows.append((self.parse_values_term(),))
            else:
                self.expect("PUNCT", "(")
                row = []
                while not self.at("PUNCT", ")"):
                    row.append(self.parse_values_term())
                self.expect("PUNCT", ")")
                if len(row) != len(names):
                    raise self.error(
                        f"VALUES row has {len(row)} terms for {len(names)} variables"
                    )
                rows.append(tuple(row))
        self.expect("PUNCT", "}")
        return ValuesPattern(names=names, rows=rows)

    def parse_values_term(self):
        if self.accept("KEYWORD", "UNDEF"):
            return None
        if not _is_constant(self.peek()):
            raise self.error("expected a term or UNDEF in VALUES data")
        return self.parse_term()

    # -- expressions --------------------------------------------------------------

    def parse_constraint(self) -> Expression:
        if self.at("PUNCT", "("):
            return self.parse_bracketted()
        if self.peek().kind in ("NAME", "KEYWORD"):
            return self.parse_function_call()
        raise self.error("expected FILTER constraint")

    def parse_bracketted(self) -> Expression:
        self.expect("PUNCT", "(")
        expr = self.parse_expression()
        self.expect("PUNCT", ")")
        return expr

    def parse_expression(self) -> Expression:
        return self.parse_or()

    def parse_or(self) -> Expression:
        left = self.parse_and()
        while self.accept("PUNCT", "||"):
            left = BinaryExpr("||", left, self.parse_and())
        return left

    def parse_and(self) -> Expression:
        left = self.parse_relational()
        while self.accept("PUNCT", "&&"):
            left = BinaryExpr("&&", left, self.parse_relational())
        return left

    def parse_relational(self) -> Expression:
        left = self.parse_additive()
        for op in ("<=", ">=", "!=", "=", "<", ">"):
            if self.at("PUNCT", op):
                self.next()
                return BinaryExpr(op, left, self.parse_additive())
        return left

    def parse_additive(self) -> Expression:
        left = self.parse_multiplicative()
        while True:
            if self.accept("PUNCT", "+"):
                left = BinaryExpr("+", left, self.parse_multiplicative())
            elif self.accept("PUNCT", "-"):
                left = BinaryExpr("-", left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> Expression:
        left = self.parse_unary()
        while True:
            if self.accept("PUNCT", "*"):
                left = BinaryExpr("*", left, self.parse_unary())
            elif self.accept("PUNCT", "/"):
                left = BinaryExpr("/", left, self.parse_unary())
            else:
                return left

    def parse_unary(self) -> Expression:
        if self.accept("PUNCT", "!"):
            return UnaryExpr("!", self.parse_unary())
        if self.accept("PUNCT", "-"):
            return UnaryExpr("-", self.parse_unary())
        if self.accept("PUNCT", "+"):
            return UnaryExpr("+", self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expression:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.value == "(":
            return self.parse_bracketted()
        if tok.kind == "VAR":
            return VarExpr(self.next().value)
        if _is_constant(tok):
            return ConstExpr(self.parse_term())
        if tok.kind in ("NAME", "KEYWORD"):
            return self.parse_function_call()
        raise self.error(f"unexpected token {tok.value or tok.kind!r} in expression")

    def parse_function_call(self) -> Expression:
        if self.at("KEYWORD", "EXISTS"):
            raise self.unsupported("FILTER EXISTS")
        if self.at("KEYWORD", "NOT"):
            raise self.unsupported("FILTER NOT EXISTS")
        name_tok = self.next()
        self.expect("PUNCT", "(")
        args: List[Expression] = []
        if not self.at("PUNCT", ")"):
            args.append(self.parse_expression())
            while self.accept("PUNCT", ","):
                args.append(self.parse_expression())
        self.expect("PUNCT", ")")
        problem = call_error(name_tok.value, len(args))
        if problem is not None:
            raise SparqlParseError(problem, name_tok.position, name_tok.line)
        return FunctionExpr(name_tok.value, args)


def _is_constant(tok: Token) -> bool:
    """An IRI or literal token: a VALUES datum or an expression constant."""
    return tok.kind in ("IRIREF", "PNAME", "STRING", "NUMBER") or (
        tok.kind == "KEYWORD" and tok.value in ("TRUE", "FALSE")
    )
