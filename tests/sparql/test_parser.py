"""Unit tests for the SPARQL parser (query text -> algebra)."""

import pytest

from repro.rdf import IRI, Literal, NamespaceManager, RDF, Triple, Variable
from repro.sparql import (
    AskQuery,
    BGP,
    Filter,
    Join,
    LeftJoin,
    SelectQuery,
    SparqlParseError,
    Union,
    parse_query,
)
from repro.sparql.expressions import BinaryExpr, FunctionExpr, VarExpr


def q(text):
    return parse_query(text)


def first_bgp(pattern):
    while not isinstance(pattern, BGP):
        if isinstance(pattern, Filter):
            pattern = pattern.pattern
        elif isinstance(pattern, (Join, LeftJoin, Union)):
            pattern = pattern.left
        else:
            raise AssertionError(f"no BGP in {pattern}")
    return pattern


class TestPrologue:
    def test_prefix_binding(self):
        query = q("PREFIX ex: <http://x/> SELECT ?s WHERE { ?s ex:p ex:o }")
        bgp = first_bgp(query.pattern)
        assert bgp.patterns[0].predicate == IRI("http://x/p")

    def test_default_prefixes_available(self):
        query = q("SELECT ?s WHERE { ?s rdf:type ?t }")
        assert first_bgp(query.pattern).patterns[0].predicate == RDF.type

    def test_unbound_prefix_errors(self):
        with pytest.raises(SparqlParseError):
            q("SELECT ?s WHERE { ?s nope:p ?o }")

    def test_external_nsm_not_mutated(self):
        nsm = NamespaceManager()
        parse_query("PREFIX zz: <http://zz/> SELECT ?s WHERE { ?s zz:p ?o }", nsm=nsm)
        with pytest.raises(KeyError):
            nsm.expand("zz:p")

    def test_prefix_does_not_reach_the_next_parse(self):
        # a parse without a manager reads one shared default manager
        q("PREFIX zz: <http://zz/> PREFIX rdf: <http://zz/> SELECT ?s WHERE { ?s zz:p ?o }")
        with pytest.raises(SparqlParseError):
            q("SELECT ?s WHERE { ?s zz:p ?o }")
        assert first_bgp(q("SELECT ?s WHERE { ?s rdf:type ?t }").pattern).patterns[0].predicate == RDF.type

    def test_base_accepted(self):
        q("BASE <http://x/> SELECT ?s WHERE { ?s ?p ?o }")


class TestSelect:
    def test_select_star(self):
        query = q("SELECT * WHERE { ?s ?p ?o }")
        assert query.projection.select_all

    def test_select_vars(self):
        query = q("SELECT ?s ?o WHERE { ?s ?p ?o }")
        assert query.projection.variables == ["s", "o"]

    def test_distinct(self):
        assert q("SELECT DISTINCT ?s WHERE { ?s ?p ?o }").distinct

    def test_where_keyword_optional(self):
        query = q("SELECT ?s { ?s ?p ?o }")
        assert isinstance(query, SelectQuery)

    def test_empty_projection_rejected(self):
        with pytest.raises(SparqlParseError):
            q("SELECT WHERE { ?s ?p ?o }")

    def test_limit_offset(self):
        query = q("SELECT ?s WHERE { ?s ?p ?o } LIMIT 10 OFFSET 5")
        assert query.limit == 10
        assert query.offset == 5

    def test_order_by_var(self):
        query = q("SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s")
        assert len(query.order_by) == 1
        assert not query.order_by[0].descending

    def test_order_by_desc(self):
        query = q("SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s) ?o")
        assert query.order_by[0].descending
        assert not query.order_by[1].descending

    def test_group_by_and_aggregate(self):
        query = q("SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s")
        assert query.group_by == ["s"]
        agg = query.projection.aggregates[0]
        assert agg.function == "COUNT"
        assert agg.alias == "n"
        assert agg.expression is None

    def test_count_distinct_expression(self):
        query = q("SELECT (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s ?p ?o }")
        agg = query.projection.aggregates[0]
        assert agg.distinct
        assert agg.expression == VarExpr("o")

    def test_group_concat_separator(self):
        query = q(
            'SELECT (GROUP_CONCAT(?o ; separator = ", ") AS ?all) WHERE { ?s ?p ?o }'
        )
        assert query.projection.aggregates[0].separator == ", "

    def test_having(self):
        query = q(
            "SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?s HAVING (?n > 2)"
        )
        assert isinstance(query.having, BinaryExpr)

    def test_star_only_for_count(self):
        with pytest.raises(SparqlParseError):
            q("SELECT (SUM(*) AS ?n) WHERE { ?s ?p ?o }")


class TestTriplePatterns:
    def test_simple_triple(self):
        bgp = first_bgp(q("SELECT * WHERE { ?s ?p ?o }").pattern)
        assert bgp.patterns == [Triple(Variable("s"), Variable("p"), Variable("o"))]

    def test_a_expands_to_rdf_type(self):
        bgp = first_bgp(q("SELECT * WHERE { ?s a <http://x/T> }").pattern)
        assert bgp.patterns[0].predicate == RDF.type

    def test_semicolon_shares_subject(self):
        bgp = first_bgp(q("SELECT * WHERE { ?s <http://x/p> ?a ; <http://x/q> ?b }").pattern)
        assert len(bgp.patterns) == 2
        assert bgp.patterns[0].subject == bgp.patterns[1].subject

    def test_comma_shares_predicate(self):
        bgp = first_bgp(q("SELECT * WHERE { ?s <http://x/p> ?a , ?b }").pattern)
        assert bgp.patterns[0].predicate == bgp.patterns[1].predicate
        assert len(bgp.patterns) == 2

    def test_literal_objects(self):
        bgp = first_bgp(
            q('SELECT * WHERE { ?s <http://x/p> "text" . ?s <http://x/q> 42 . ?s <http://x/r> true }').pattern
        )
        assert bgp.patterns[0].object == Literal("text")
        assert bgp.patterns[1].object == Literal(42)
        assert bgp.patterns[2].object == Literal(True)

    def test_lang_literal(self):
        bgp = first_bgp(q('SELECT * WHERE { ?s ?p "chat"@fr }').pattern)
        assert bgp.patterns[0].object == Literal("chat", language="fr")

    def test_typed_literal(self):
        bgp = first_bgp(q('SELECT * WHERE { ?s ?p "7"^^xsd:integer }').pattern)
        assert bgp.patterns[0].object == Literal(7)

    def test_trailing_dot_ok(self):
        bgp = first_bgp(q("SELECT * WHERE { ?s ?p ?o . }").pattern)
        assert len(bgp.patterns) == 1

    def test_literal_predicate_rejected(self):
        with pytest.raises(SparqlParseError):
            q('SELECT * WHERE { ?s "p" ?o }')


class TestGraphPatterns:
    def test_filter(self):
        query = q('SELECT * WHERE { ?s ?p ?o FILTER regex(?o, "x") }')
        assert isinstance(query.pattern, Filter)
        assert isinstance(query.pattern.condition, FunctionExpr)

    def test_filter_bracketted(self):
        query = q("SELECT * WHERE { ?s ?p ?o FILTER (?o > 3) }")
        assert isinstance(query.pattern, Filter)

    def test_filter_applies_to_whole_group(self):
        # FILTER placed mid-group still applies to the full group pattern
        query = q('SELECT * WHERE { ?s ?p ?o . FILTER (?o = 1) ?s ?q ?r }')
        assert isinstance(query.pattern, Filter)
        inner = query.pattern.pattern
        assert isinstance(inner, (Join, BGP))

    def test_optional(self):
        query = q("SELECT * WHERE { ?s ?p ?o OPTIONAL { ?s <http://x/q> ?r } }")
        assert isinstance(query.pattern, LeftJoin)

    def test_union(self):
        query = q("SELECT * WHERE { { ?s a <http://x/A> } UNION { ?s a <http://x/B> } }")
        assert isinstance(query.pattern, Union)

    def test_nested_group(self):
        query = q("SELECT * WHERE { ?s ?p ?o { ?s ?q ?r } }")
        assert isinstance(query.pattern, Join)

    def test_empty_group(self):
        query = q("SELECT * WHERE { }")
        assert isinstance(query.pattern, BGP)
        assert query.pattern.patterns == []

    def test_missing_closing_brace(self):
        with pytest.raises(SparqlParseError):
            q("SELECT * WHERE { ?s ?p ?o")


class TestOtherForms:
    def test_ask(self):
        assert isinstance(q("ASK { ?s ?p ?o }"), AskQuery)

    def test_ask_with_where(self):
        assert isinstance(q("ASK WHERE { ?s ?p ?o }"), AskQuery)

    def test_garbage_after_query(self):
        with pytest.raises(SparqlParseError):
            q("SELECT * WHERE { ?s ?p ?o } garbage")

    def test_unknown_query_form(self):
        with pytest.raises(SparqlParseError):
            q("DELETE WHERE { ?s ?p ?o }")


class TestExpressions:
    def expr(self, text):
        return q(f"SELECT * WHERE {{ ?s ?p ?o FILTER ({text}) }}").pattern.condition

    def test_precedence_or_and(self):
        e = self.expr("?a = 1 || ?b = 2 && ?c = 3")
        assert e.op == "||"
        assert e.right.op == "&&"

    def test_precedence_arith(self):
        e = self.expr("?a + ?b * ?c = 7")
        assert e.op == "="
        assert e.left.op == "+"
        assert e.left.right.op == "*"

    def test_unary_not(self):
        e = self.expr("!bound(?x)")
        assert e.op == "!"

    def test_parens_override(self):
        e = self.expr("(?a + ?b) * ?c = 7")
        assert e.left.op == "*"
        assert e.left.left.op == "+"

    def test_function_args(self):
        e = self.expr('regex(?term, "customer", "i")')
        assert len(e.args) == 3
