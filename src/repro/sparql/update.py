"""SPARQL 1.1 Update (the write side of the query language).

Supported forms::

    INSERT DATA { <s> <p> "o" . ... }
    DELETE DATA { <s> <p> "o" . ... }
    DELETE WHERE { ?s <p> ?o . ... }
    DELETE { template } INSERT { template } WHERE { pattern }
    INSERT { template } WHERE { pattern }
    DELETE { template } WHERE { pattern }

Several statements may be chained with ``;``. Updates run against a
mutable :class:`~repro.rdf.Graph`; per SPARQL semantics the WHERE
bindings are computed first, then deletions are applied before
insertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.rdf.graph import Graph
from repro.rdf.namespace import NamespaceManager
from repro.rdf.terms import Triple, Variable

from repro.sparql.errors import SparqlParseError
from repro.sparql.evaluator import eval_pattern
from repro.sparql.parser import _Parser
from repro.sparql.plancache import PreparedQuery
from repro.sparql.tokenizer import tokenize

@dataclass
class UpdateStatement:
    """One parsed update operation."""

    delete_template: List[Triple] = field(default_factory=list)
    insert_template: List[Triple] = field(default_factory=list)
    pattern: Optional[object] = None   # algebra Pattern; None for DATA forms
    delete_where: bool = False         # DELETE WHERE shorthand


@dataclass
class UpdateResult:
    """What one execute_update() call changed."""

    inserted: int = 0
    deleted: int = 0
    statements: int = 0

    def summary(self) -> str:
        return (
            f"{self.statements} statement(s): "
            f"+{self.inserted} / -{self.deleted} triple(s)"
        )


def parse_update(text: str, nsm: Optional[NamespaceManager] = None) -> List[UpdateStatement]:
    """Parse one or more ``;``-separated update statements."""
    parser = _UpdateParser(tokenize(text), nsm)
    return parser.parse_statements()


def execute_update(
    graph: Graph,
    text: str,
    nsm: Optional[NamespaceManager] = None,
) -> UpdateResult:
    """Parse and apply update statements to ``graph``."""
    statements = parse_update(text, nsm)
    result = UpdateResult(statements=len(statements))
    for statement in statements:
        deleted, inserted = _apply(graph, statement)
        result.deleted += deleted
        result.inserted += inserted
    return result


class _UpdateParser(_Parser):
    """Extends the query parser with the update grammar."""

    def parse_statements(self) -> List[UpdateStatement]:
        self.parse_prologue()
        statements = [self.parse_statement_one()]
        while self.accept("PUNCT", ";"):
            if self.peek().kind == "EOF":
                break
            self.parse_prologue()
            statements.append(self.parse_statement_one())
        self.expect("EOF")
        return statements

    def parse_statement_one(self) -> UpdateStatement:
        if self.accept_name("INSERT"):
            if self.accept_name("DATA"):
                return UpdateStatement(insert_template=self.parse_ground_block("INSERT DATA"))
            template = self.parse_braced_triples()
            self.expect("KEYWORD", "WHERE")
            return UpdateStatement(
                insert_template=template, pattern=self.parse_group_graph_pattern()
            )
        if self.accept_name("DELETE"):
            if self.accept_name("DATA"):
                return UpdateStatement(delete_template=self.parse_ground_block("DELETE DATA"))
            if self.accept("KEYWORD", "WHERE"):
                # DELETE WHERE { P }: the pattern is also the template
                pattern = self.parse_group_graph_pattern()
                return UpdateStatement(pattern=pattern, delete_where=True)
            template = self.parse_braced_triples()
            insert_template: List[Triple] = []
            if self.accept_name("INSERT"):
                insert_template = self.parse_braced_triples()
            self.expect("KEYWORD", "WHERE")
            return UpdateStatement(
                delete_template=template,
                insert_template=insert_template,
                pattern=self.parse_group_graph_pattern(),
            )
        raise self.error("expected INSERT or DELETE")

    def accept_name(self, word: str) -> bool:
        tok = self.peek()
        if tok.matches("KEYWORD", word) or tok.matches("NAME", word) or (
            tok.kind == "NAME" and tok.value.upper() == word
        ):
            self.next()
            return True
        return False

    def parse_ground_block(self, form: str) -> List[Triple]:
        triples = self.parse_braced_triples()
        for t in triples:
            if not t.is_ground():
                raise SparqlParseError(
                    f"{form} requires ground triples, found variable in {t.n3()}"
                )
        return triples


def _apply(graph: Graph, statement: UpdateStatement):
    deleted = 0
    inserted = 0
    if statement.pattern is None:
        for t in statement.delete_template:
            deleted += graph.discard(t)
        for t in statement.insert_template:
            inserted += graph.add(t)
        return deleted, inserted

    plan = PreparedQuery(None, None, graph.generation)
    bindings = list(eval_pattern(graph, statement.pattern, {}, plan))
    if statement.delete_where:
        delete_template = _pattern_triples(statement.pattern)
    else:
        delete_template = statement.delete_template

    to_delete = []
    to_insert = []
    for binding in bindings:
        to_delete.extend(_instantiate(delete_template, binding))
        to_insert.extend(_instantiate(statement.insert_template, binding))
    for t in to_delete:
        deleted += graph.discard(t)
    for t in to_insert:
        inserted += graph.add(t)
    return deleted, inserted


def _pattern_triples(pattern) -> List[Triple]:
    from repro.sparql.algebra import BGP, Join

    if isinstance(pattern, BGP):
        if pattern.paths:
            raise SparqlParseError("DELETE WHERE does not support property paths")
        return list(pattern.patterns)
    if isinstance(pattern, Join):
        return _pattern_triples(pattern.left) + _pattern_triples(pattern.right)
    raise SparqlParseError(
        "DELETE WHERE supports only plain triple patterns; "
        "use DELETE { ... } WHERE { ... } for anything richer"
    )


def _instantiate(template: List[Triple], binding) -> List[Triple]:
    out = []
    for t in template:
        terms = []
        ok = True
        for term in t:
            if isinstance(term, Variable):
                value = binding.get(term.name)
                if value is None:
                    ok = False
                    break
                terms.append(value)
            else:
                terms.append(term)
        if not ok:
            continue
        try:
            out.append(Triple(*terms))
        except TypeError:
            continue  # e.g. a literal bound into subject position
    return out
