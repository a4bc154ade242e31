"""Query algebra: the tree the parser produces and the evaluator walks.

A deliberately small algebra in the style of the SPARQL 1.1 spec:

* :class:`BGP` — a basic graph pattern (list of triple patterns)
* :class:`Join` — natural join of two patterns
* :class:`LeftJoin` — OPTIONAL
* :class:`Union` — UNION
* :class:`Filter` — FILTER over a pattern, its condition compiled once;
  :func:`filter_bindings` is the equality pushdown into its BGP
* :class:`Extend` — BIND; :class:`ValuesPattern` — VALUES
* :class:`Projection` with optional :class:`Aggregate` columns (GROUP BY)

Solution modifiers (DISTINCT, ORDER BY, LIMIT/OFFSET) are fields of
:class:`SelectQuery`.

Query roots: :class:`SelectQuery` and :class:`AskQuery`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Container, Dict, List, Optional, Tuple

from repro.rdf.terms import IRI, Triple, Variable
from repro.sparql.expressions import (
    BinaryExpr,
    Expression,
    compile_condition,
    string_equality,
)
from repro.sparql.paths import Path


class Pattern:
    """Base class of algebra pattern nodes."""

    def variables(self) -> set:
        raise NotImplementedError


@dataclass
class PathTriple:
    """A triple pattern whose predicate is a property path."""

    subject: object  # Variable | IRI | BNode
    path: Path
    object: object   # Variable | IRI | BNode | Literal

    def variables(self) -> set:
        out = set()
        for term in (self.subject, self.object):
            if isinstance(term, Variable):
                out.add(term.name)
        return out


@dataclass
class BGP(Pattern):
    """A basic graph pattern: triple patterns plus property-path patterns."""

    patterns: List[Triple] = field(default_factory=list)
    paths: List[PathTriple] = field(default_factory=list)

    def variables(self) -> set:
        out = set()
        for t in self.patterns:
            for term in t:
                if isinstance(term, Variable):
                    out.add(term.name)
        for p in self.paths:
            out |= p.variables()
        return out


@dataclass
class Join(Pattern):
    left: Pattern
    right: Pattern

    def variables(self) -> set:
        return self.left.variables() | self.right.variables()


@dataclass
class LeftJoin(Pattern):
    """OPTIONAL: keep left rows even when the right side has no match.
    A FILTER inside the OPTIONAL group filters the right side, which
    runs with each left row bound, so it sees the left's variables."""

    left: Pattern
    right: Pattern

    def variables(self) -> set:
        return self.left.variables() | self.right.variables()


@dataclass
class Union(Pattern):
    left: Pattern
    right: Pattern

    def variables(self) -> set:
        return self.left.variables() | self.right.variables()


@dataclass
class Filter(Pattern):
    """FILTER over a pattern. ``test`` is the condition compiled once,
    when the node is built (:func:`compile_condition`): a row is kept
    when it answers True."""

    condition: Expression
    pattern: Pattern
    test: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.test = compile_condition(self.condition)

    def variables(self) -> set:
        return self.pattern.variables()


def filter_bindings(node: Filter, bound: Container[str]) -> Dict[str, IRI]:
    """The bindings ``node`` pushes into the basic graph pattern it filters.

    A conjunct ``str(?v) = "X"`` (reached through top-level ``&&``, with
    a plain string constant) binds ``?v`` to ``IRI(X)`` when ``?v``
    occurs in that BGP, and only in subject or predicate position: there
    it matches an IRI or a blank node, and ``str()`` of a blank node is
    an error, so the binding keeps exactly the rows the condition can
    keep (the FILTER still tests each one). An object position can hold
    a literal with the same lexical form, so it is never pushed. The BGP
    may sit under further FILTERs but must have no property paths; a
    name in ``bound`` is never rebound. The evaluator plans and runs the
    BGP with these names bound, and EXPLAIN prints that plan.
    """
    pattern = node.pattern
    while isinstance(pattern, Filter):
        pattern = pattern.pattern
    if not isinstance(pattern, BGP) or pattern.paths:
        return {}
    pushed: Dict[str, IRI] = {}
    conjuncts = [node.condition]
    while conjuncts:
        expr = conjuncts.pop()
        if not isinstance(expr, BinaryExpr):
            continue
        if expr.op == "&&":
            conjuncts += (expr.right, expr.left)
            continue
        equality = string_equality(expr) if expr.op == "=" else None
        if equality is None or equality[0] in bound or equality[0] in pushed:
            continue
        name, constant = equality
        positions = {
            i
            for triple in pattern.patterns
            for i, term in enumerate(triple)
            if isinstance(term, Variable) and term.name == name
        }
        if positions and 2 not in positions:
            try:
                pushed[name] = IRI(constant)
            except ValueError:
                pass  # no IRI has this text: the FILTER rejects every row
    return pushed


@dataclass
class Extend(Pattern):
    """BIND(expr AS ?var): extend each solution with a computed value."""

    pattern: Pattern
    variable: str
    expression: Expression

    def variables(self) -> set:
        return self.pattern.variables() | {self.variable}


@dataclass
class ValuesPattern(Pattern):
    """Inline data: VALUES (?x ?y) { (a b) (UNDEF c) }.

    Each row maps the variables positionally; None means UNDEF.
    """

    names: List[str] = field(default_factory=list)
    rows: List[Tuple] = field(default_factory=list)

    def variables(self) -> set:
        return set(self.names)


@dataclass
class Aggregate:
    """An aggregate projection column, e.g. ``COUNT(DISTINCT ?x) AS ?n``."""

    function: str           # COUNT | SUM | MIN | MAX | AVG | SAMPLE | GROUP_CONCAT
    expression: Optional[Expression]  # None means COUNT(*)
    alias: str
    distinct: bool = False
    separator: str = " "     # GROUP_CONCAT only


@dataclass
class Projection:
    """SELECT column list: plain variables and/or aggregates."""

    variables: List[str] = field(default_factory=list)
    aggregates: List[Aggregate] = field(default_factory=list)
    select_all: bool = False

    def output_names(self) -> List[str]:
        return list(self.variables) + [a.alias for a in self.aggregates]


@dataclass
class OrderCondition:
    expression: Expression
    descending: bool = False


class Query:
    """Base class of query roots."""


@dataclass
class SelectQuery(Query):
    projection: Projection
    pattern: Pattern
    distinct: bool = False
    group_by: List[str] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: List[OrderCondition] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0

    def ungrouped_variables(self) -> List[str]:
        """Projected plain variables an aggregating query does not group
        by: a query error in SPARQL, as in SQL (Oracle's ORA-00979)."""
        if not (self.group_by or self.projection.aggregates):
            return []
        return [v for v in self.projection.variables if v not in self.group_by]


@dataclass
class AskQuery(Query):
    pattern: Pattern
