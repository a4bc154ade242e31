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

from repro.rdf.namespace import NamespaceManager
from repro.rdf.terms import BNode, IRI, Literal, Triple, Variable
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
from repro.sparql.tokenizer import Token, tokenize

_RDF_TYPE = IRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
_AGGREGATES = {"COUNT", "SUM", "MIN", "MAX", "AVG", "SAMPLE", "GROUP_CONCAT"}


def parse_query(text: str, nsm: Optional[NamespaceManager] = None) -> Query:
    """Parse a query string into an algebra :class:`Query`.

    ``nsm`` provides pre-bound prefixes (the SEM_ALIASES mechanism);
    PREFIX declarations in the query extend a copy, never the caller's
    manager.
    """
    parser = _Parser(tokenize(text), nsm)
    return parser.parse_query()


class _Parser:
    def __init__(self, tokens: List[Token], nsm: Optional[NamespaceManager]):
        self.tokens = tokens
        self.pos = 0
        self.nsm = NamespaceManager()
        if nsm is not None:
            for prefix, ns in nsm.bindings():
                self.nsm.bind(prefix, ns)

    # -- token plumbing -----------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, kind: str, value: str = None) -> bool:
        return self.peek().matches(kind, value)

    def accept(self, kind: str, value: str = None) -> Optional[Token]:
        if self.at(kind, value):
            return self.next()
        return None

    def expect(self, kind: str, value: str = None) -> Token:
        tok = self.peek()
        if not tok.matches(kind, value):
            want = value or kind
            raise SparqlParseError(
                f"expected {want!r}, found {tok.value or tok.kind!r}", tok.position, tok.line
            )
        return self.next()

    def error(self, message: str) -> SparqlParseError:
        tok = self.peek()
        return SparqlParseError(message, tok.position, tok.line)

    def unsupported(self, form: str) -> SparqlParseError:
        return self.error(outside_subset(form))

    # -- prologue -----------------------------------------------------------

    def parse_prologue(self) -> None:
        while True:
            if self.accept("KEYWORD", "PREFIX"):
                pname = self.expect("PNAME")
                prefix = pname.value.split(":", 1)[0]
                iriref = self.expect("IRIREF")
                self.nsm.bind(prefix, iriref.value)
            elif self.accept("KEYWORD", "BASE"):
                self.expect("IRIREF")  # accepted and ignored (no relative IRIs)
            else:
                return

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
        return SelectQuery(
            projection=projection,
            pattern=pattern,
            distinct=distinct,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )

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
            plain, paths = self.parse_triples_same_subject()
            if paths:
                raise self.error("property paths are not allowed in templates")
            triples.extend(plain)
            if not self.accept("PUNCT", "."):
                break
        self.expect("PUNCT", "}")
        return triples

    def parse_triples_block(self) -> BGP:
        triples: List[Triple] = []
        paths: List[PathTriple] = []
        while True:
            t, p = self.parse_triples_same_subject()
            triples.extend(t)
            paths.extend(p)
            if not self.accept("PUNCT", "."):
                break
            if self.at("PUNCT", "}") or self.at("PUNCT", "{") or self.peek().kind == "KEYWORD":
                break
        return BGP(triples, paths)

    def parse_triples_same_subject(self):
        subject = self.parse_var_or_term("subject")
        triples: List[Triple] = []
        paths: List[PathTriple] = []
        while True:
            predicate = self.parse_verb()
            while True:
                obj = self.parse_var_or_term("object")
                if isinstance(predicate, Path):
                    paths.append(PathTriple(subject, predicate, obj))
                else:
                    triples.append(Triple(subject, predicate, obj))
                if not self.accept("PUNCT", ","):
                    break
            if not self.accept("PUNCT", ";"):
                break
            if self.at("PUNCT", ".") or self.at("PUNCT", "}"):
                break
        return triples, paths

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
            return PathStep(_RDF_TYPE)
        if tok.kind == "IRIREF":
            return PathStep(IRI(self.next().value))
        if tok.kind == "PNAME":
            return PathStep(self.expand_pname(self.next()))
        if tok.matches("PUNCT", "("):
            self.next()
            inner = self.parse_path()
            self.expect("PUNCT", ")")
            return inner
        raise self.error(
            "expected predicate (IRI, prefixed name, ?var, 'a', or a property path)"
        )

    def parse_var_or_term(self, position: str):
        tok = self.peek()
        if tok.kind == "VAR":
            return Variable(self.next().value)
        if tok.kind == "IRIREF":
            return IRI(self.next().value)
        if tok.kind == "PNAME":
            return self.expand_pname(self.next())
        if tok.kind == "BNODE":
            return BNode(self.next().value)
        if tok.kind == "STRING":
            return self.parse_literal_tail(self.next().value)
        if tok.kind == "NUMBER":
            return _number_literal(self.next().value)
        if tok.kind == "KEYWORD" and tok.value in ("TRUE", "FALSE"):
            self.next()
            return Literal(tok.value == "TRUE")
        raise self.error(f"expected term in {position} position, found {tok.value or tok.kind!r}")

    def parse_literal_tail(self, body: str) -> Literal:
        if self.peek().kind == "LANGTAG":
            return Literal(body, language=self.next().value)
        if self.accept("PUNCT", "^^"):
            tok = self.peek()
            if tok.kind == "IRIREF":
                return Literal(body, datatype=IRI(self.next().value))
            if tok.kind == "PNAME":
                return Literal(body, datatype=self.expand_pname(self.next()))
            raise self.error("expected datatype IRI after ^^")
        return Literal(body)

    def expand_pname(self, tok: Token) -> IRI:
        try:
            return self.nsm.expand(tok.value)
        except KeyError as exc:
            raise SparqlParseError(str(exc), tok.position, tok.line) from None

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
        tok = self.peek()
        if tok.kind == "IRIREF":
            return IRI(self.next().value)
        if tok.kind == "PNAME":
            return self.expand_pname(self.next())
        if tok.kind == "STRING":
            return self.parse_literal_tail(self.next().value)
        if tok.kind == "NUMBER":
            return _number_literal(self.next().value)
        if tok.kind == "KEYWORD" and tok.value in ("TRUE", "FALSE"):
            self.next()
            return Literal(tok.value == "TRUE")
        raise self.error("expected a term or UNDEF in VALUES data")

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
        if tok.kind == "STRING":
            return ConstExpr(self.parse_literal_tail(self.next().value))
        if tok.kind == "NUMBER":
            return ConstExpr(_number_literal(self.next().value))
        if tok.kind == "IRIREF":
            return ConstExpr(IRI(self.next().value))
        if tok.kind == "PNAME":
            return ConstExpr(self.expand_pname(self.next()))
        if tok.kind == "KEYWORD" and tok.value in ("TRUE", "FALSE"):
            self.next()
            return ConstExpr(Literal(tok.value == "TRUE"))
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


def _number_literal(text: str) -> Literal:
    if "." in text:
        return Literal(text, datatype=IRI("http://www.w3.org/2001/XMLSchema#decimal"))
    return Literal(int(text))
