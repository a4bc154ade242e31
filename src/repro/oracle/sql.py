"""Parser/executor for the SQL-wrapped ``SEM_MATCH`` form of the paper.

Listings 1 and 2 of the paper are Oracle SQL statements of the shape::

    SELECT class, object
    FROM TABLE(
      SEM_MATCH(
        {?object rdf:type ?c . ... ?object dm:hasName ?term} ,
        SEM_MODELS('DWH_CURR') ,
        SEM_RULEBASES('OWLPRIME') ,
        SEM_ALIASES( SEM_ALIAS('dm', 'http://...'), ... ) ,
        null )
    WHERE regexp_like(term, 'customer', 'i')
    GROUP BY class, object

:func:`execute_sem_sql` runs such a statement against a
:class:`~repro.rdf.TripleStore`. The parser is deliberately tolerant of
the irregularities in the printed listings (missing commas, unbalanced
``TABLE(`` parentheses) — the goal is that the listings run verbatim.

A statement means exactly its SPARQL form: :func:`execute_sem_sql`
compiles it into one :class:`~repro.sparql.algebra.SelectQuery` over the
SEM_MATCH pattern and the engine evaluates that —

* result columns are the SQL identifiers (``class``), bound from the
  SPARQL variables of the same name (``?class``);
* ``WHERE`` is a FILTER; its comparisons against string constants
  compare *string values* of terms (``str(?source_id) = 'http://...'``),
  so they match IRI-valued variables, and the engine pushes such an
  equality into the pattern as a binding where that is exact;
* ``GROUP BY`` without aggregates deduplicates, as in the listings, and
  a selected column outside it is an error (Oracle's ORA-00979);
* ``COUNT(*)`` / ``COUNT(col)`` are SPARQL ``COUNT`` columns (used by
  the Figure 6 style result lists); ``ORDER BY`` sorts by columns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import InvalidRequest
from repro.rdf.store import TripleStore
from repro.rdf.syntax import TermReader, number_literal
from repro.rdf.terms import Literal
from repro.sparql.algebra import (
    Aggregate,
    Filter,
    OrderCondition,
    Pattern,
    Projection,
    SelectQuery,
)
from repro.sparql.evaluator import evaluate
from repro.sparql.expressions import (
    BinaryExpr,
    ConstExpr,
    Expression,
    FunctionExpr,
    UnaryExpr,
    VarExpr,
    call_error,
)
from repro.sparql.results import SolutionSequence

from repro.oracle.sem_apis import SemAlias
from repro.oracle.sem_match import prepare_sem_match


class SemSqlError(InvalidRequest, ValueError):
    """A malformed SEM_MATCH SQL statement."""


@dataclass
class SemSqlQuery:
    """The parsed form of a SEM_MATCH SQL statement."""

    columns: List[str]
    count_columns: List[Tuple[str, str]] = field(default_factory=list)  # (arg, alias)
    pattern: str = ""
    models: List[str] = field(default_factory=list)
    rulebases: List[str] = field(default_factory=list)
    aliases: List[SemAlias] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: List[str] = field(default_factory=list)
    order_by: List[str] = field(default_factory=list)


def parse_sem_sql(sql: str) -> SemSqlQuery:
    """Parse a SEM_MATCH SQL statement into a :class:`SemSqlQuery`."""
    select_match = re.search(r"\bSELECT\b", sql, re.IGNORECASE)
    from_match = re.search(r"\bFROM\b", sql, re.IGNORECASE)
    if not select_match or not from_match or from_match.start() < select_match.end():
        raise SemSqlError("statement must have the form SELECT ... FROM TABLE(SEM_MATCH(...))")
    columns_text = sql[select_match.end() : from_match.start()]
    columns, counts = _parse_select_list(columns_text)

    brace_open = sql.find("{", from_match.end())
    if brace_open == -1:
        raise SemSqlError("SEM_MATCH pattern (braces block) not found")
    brace_close = _matching_brace(sql, brace_open)
    pattern = sql[brace_open : brace_close + 1]

    tail = sql[brace_close + 1 :]
    models = _string_args(tail, "SEM_MODELS")
    if not models:
        raise SemSqlError("SEM_MODELS(...) with at least one model is required")
    rulebases = _string_args(tail, "SEM_RULEBASES")
    aliases = [
        SemAlias(prefix, ns)
        for prefix, ns in re.findall(
            r"SEM_ALIAS\s*\(\s*'([^']*)'\s*,\s*'([^']*)'\s*\)", tail, re.IGNORECASE
        )
    ]

    where_expr = None
    group_by: List[str] = []
    order_by: List[str] = []
    where_match = re.search(r"\bWHERE\b", tail, re.IGNORECASE)
    group_match = re.search(r"\bGROUP\s+BY\b", tail, re.IGNORECASE)
    order_match = re.search(r"\bORDER\s+BY\b", tail, re.IGNORECASE)
    if where_match:
        end = min(
            (m.start() for m in (group_match, order_match) if m),
            default=len(tail),
        )
        where_expr = _parse_sql_expression(tail[where_match.end() : end])
    if group_match:
        end = order_match.start() if order_match else len(tail)
        group_by = _identifier_list(tail[group_match.end() : end])
    if order_match:
        order_by = _identifier_list(tail[order_match.end() :])

    return SemSqlQuery(
        columns=columns,
        count_columns=counts,
        pattern=pattern,
        models=models,
        rulebases=rulebases,
        aliases=aliases,
        where=where_expr,
        group_by=group_by,
        order_by=order_by,
    )


def execute_sem_sql(store: TripleStore, sql: str, plan_cache=None) -> SolutionSequence:
    """Parse a SEM_MATCH SQL statement and evaluate it against ``store``
    as one SPARQL query.

    The SEM_MATCH pattern is prepared as ``SELECT * WHERE pattern``
    (through ``plan_cache`` when given): its text holds no constant of
    the SQL clauses, so statements differing only in their ``WHERE``
    share one parse and one plan.
    """
    query = parse_sem_sql(sql)
    view, prepared = prepare_sem_match(
        query.pattern,
        store,
        models=query.models,
        rulebases=query.rulebases,
        aliases=query.aliases,
        plan_cache=plan_cache,
    )
    return evaluate(view, _select_query(query, prepared.query.pattern), plan=prepared)


def _select_query(query: SemSqlQuery, pattern: Pattern) -> SelectQuery:
    """The SPARQL form of ``query`` over the SEM_MATCH ``pattern``."""
    if query.where is not None:
        pattern = Filter(query.where, pattern)
    select = SelectQuery(
        projection=Projection(
            variables=list(query.columns),
            aggregates=[
                Aggregate("COUNT", None if arg == "*" else VarExpr(arg), alias)
                for arg, alias in query.count_columns
            ],
        ),
        pattern=pattern,
        group_by=list(query.group_by),
        order_by=[OrderCondition(VarExpr(column)) for column in query.order_by],
    )
    ungrouped = select.ungrouped_variables()
    if ungrouped:
        raise SemSqlError(f"selected columns {', '.join(ungrouped)} are not in GROUP BY")
    return select


# ---------------------------------------------------------------------------
# Pieces
# ---------------------------------------------------------------------------


def _parse_select_list(text: str) -> Tuple[List[str], List[Tuple[str, str]]]:
    columns: List[str] = []
    counts: List[Tuple[str, str]] = []
    for raw in text.split(","):
        item = raw.strip()
        if not item:
            continue
        count = re.fullmatch(
            r"COUNT\s*\(\s*(\*|[A-Za-z_][A-Za-z0-9_]*)\s*\)(?:\s+AS\s+([A-Za-z_][A-Za-z0-9_]*))?",
            item,
            re.IGNORECASE,
        )
        if count:
            arg = count.group(1)
            alias = count.group(2) or ("cnt" if arg == "*" else f"count_{arg}")
            counts.append((arg, alias))
            continue
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", item):
            raise SemSqlError(f"unsupported select item: {item!r}")
        columns.append(item)
    if not columns and not counts:
        raise SemSqlError("empty select list")
    return columns, counts


def _matching_brace(text: str, open_index: int) -> int:
    depth = 0
    for i in range(open_index, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    raise SemSqlError("unbalanced braces in SEM_MATCH pattern")


def _string_args(text: str, function: str) -> List[str]:
    match = re.search(function + r"\s*\(([^)]*)\)", text, re.IGNORECASE)
    if not match:
        return []
    return re.findall(r"'([^']*)'", match.group(1))


def _identifier_list(text: str) -> List[str]:
    text = text.strip().rstrip(";")
    if not text:
        return []
    items = [i.strip() for i in text.split(",")]
    for item in items:
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", item):
            raise SemSqlError(f"bad identifier in list: {item!r}")
    return items


# -- SQL expression parsing ---------------------------------------------------
#
# SQL WHERE conditions are parsed with the shared term lexer (it accepts
# single-quoted strings) into repro.sparql expression trees. Column
# identifiers become variables; comparisons against string constants are
# wrapped in str() so they match IRI-valued variables by IRI text, the
# way Listing 2 compares source_id against a plain URL string.


def _parse_sql_expression(text: str) -> Expression:
    text = text.strip().rstrip(";")
    parser = _SqlExprParser(text, error=_sql_error)
    expr = parser.parse_or()
    parser.expect_eof()
    return expr


def _sql_error(message: str, position: int, line: int) -> SemSqlError:
    return SemSqlError(f"{message} in WHERE clause (offset {position})")


class _SqlExprParser(TermReader):
    def expect_eof(self) -> None:
        if self.peek().kind != "EOF":
            raise SemSqlError(f"trailing tokens in WHERE clause: {self.peek().value!r}")

    def at_word(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind in ("NAME", "KEYWORD") and tok.value.upper() == word

    def parse_or(self) -> Expression:
        left = self.parse_and()
        while self.at_word("OR"):
            self.next()
            left = BinaryExpr("||", left, self.parse_and())
        return left

    def parse_and(self) -> Expression:
        left = self.parse_not()
        while self.at_word("AND"):
            self.next()
            left = BinaryExpr("&&", left, self.parse_not())
        return left

    def parse_not(self) -> Expression:
        if self.at_word("NOT"):
            self.next()
            return UnaryExpr("!", self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> Expression:
        left = self.parse_primary()
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.value in ("=", "!=", "<", ">", "<=", ">="):
            op = self.next().value
            # SQL's <> not-equal arrives as two tokens
            if op == "<" and self.accept("PUNCT", ">"):
                op = "!="
            right = self.parse_primary()
            return _build_comparison(op, left, right)
        return left

    def parse_primary(self) -> Expression:
        if self.accept("PUNCT", "("):
            expr = self.parse_or()
            self.expect("PUNCT", ")")
            return expr
        tok = self.peek()
        if tok.kind == "STRING":
            self.next()
            return ConstExpr(Literal(tok.value))
        if tok.kind == "NUMBER":
            self.next()
            return ConstExpr(number_literal(tok.value))
        if tok.kind == "VAR":
            # tolerate SPARQL-style ?var in the SQL clause
            self.next()
            return VarExpr(tok.value)
        if tok.kind in ("NAME", "KEYWORD"):
            self.next()
            if self.at("PUNCT", "("):
                return self.parse_function_call(tok.value)
            if tok.value.upper() == "NULL":
                raise SemSqlError("NULL comparisons are not supported; omit the row instead")
            return VarExpr(tok.value)
        raise SemSqlError(f"unexpected token {tok.value or tok.kind!r} in WHERE clause")

    def parse_function_call(self, name: str) -> Expression:
        self.next()  # '('
        args: List[Expression] = []
        if not self.at("PUNCT", ")"):
            args.append(self.parse_or())
            while self.accept("PUNCT", ","):
                args.append(self.parse_or())
        self.expect("PUNCT", ")")
        problem = call_error(name, len(args))
        if problem is not None:
            raise SemSqlError(problem)
        if name.lower() in ("regexp_like", "regex"):
            # Oracle applies regexp_like to the string value of the column.
            if args and isinstance(args[0], VarExpr):
                args[0] = FunctionExpr("str", [args[0]])
            return FunctionExpr("regex", args)
        return FunctionExpr(name, args)


def _build_comparison(op: str, left: Expression, right: Expression) -> Expression:
    def is_string_const(e: Expression) -> bool:
        return (
            isinstance(e, ConstExpr)
            and isinstance(e.term, Literal)
            and not e.term.is_numeric()
        )

    if is_string_const(left) and isinstance(right, VarExpr):
        right = FunctionExpr("str", [right])
    if is_string_const(right) and isinstance(left, VarExpr):
        left = FunctionExpr("str", [left])
    return BinaryExpr(op, left, right)
