"""Query algebra: the tree the parser produces and the evaluator walks.

A deliberately small algebra in the style of the SPARQL 1.1 spec:

* :class:`BGP` — a basic graph pattern (list of triple patterns)
* :class:`Join` — natural join of two patterns
* :class:`LeftJoin` — OPTIONAL
* :class:`Union` — UNION
* :class:`Filter` — FILTER over a pattern
* :class:`Extend` — BIND; :class:`ValuesPattern` — VALUES
* :class:`Projection` with optional :class:`Aggregate` columns (GROUP BY)

Solution modifiers (DISTINCT, ORDER BY, LIMIT/OFFSET) are fields of
:class:`SelectQuery`.

Query roots: :class:`SelectQuery` and :class:`AskQuery`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.rdf.terms import Triple, Variable
from repro.sparql.expressions import Expression
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
    """OPTIONAL: keep left rows even when the right side has no match."""

    left: Pattern
    right: Pattern
    condition: Optional[Expression] = None

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
    condition: Expression
    pattern: Pattern

    def variables(self) -> set:
        return self.pattern.variables()


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


@dataclass
class AskQuery(Query):
    pattern: Pattern
