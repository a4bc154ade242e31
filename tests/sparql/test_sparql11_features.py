"""Unit tests for the SPARQL 1.1 additions the subset keeps: BIND and VALUES."""

import pytest

from repro.rdf import Graph, IRI, Literal, Namespace, Triple
from repro.sparql import SparqlEvalError, SparqlParseError, execute, parse_query

EX = Namespace("http://x/")


@pytest.fixture
def graph():
    g = Graph()
    g.add(Triple(EX.a, EX.age, Literal(30)))
    g.add(Triple(EX.b, EX.age, Literal(25)))
    g.add(Triple(EX.c, EX.age, Literal(40)))
    g.add(Triple(EX.a, EX.knows, EX.b))
    g.add(Triple(EX.b, EX.knows, EX.c))
    g.add(Triple(EX.a, EX.name, Literal("Anna")))
    return g


def run(graph, query):
    return execute(graph, "PREFIX ex: <http://x/>\n" + query)


class TestBind:
    def test_computed_column(self, graph):
        rows = run(graph, "SELECT ?x ?d WHERE { ?x ex:age ?a BIND(?a * 2 AS ?d) }")
        by_x = {r.value("x"): r.value("d") for r in rows}
        assert by_x["http://x/a"] == 60
        assert by_x["http://x/b"] == 50

    def test_bind_string_function(self, graph):
        rows = run(
            graph,
            'SELECT ?u WHERE { ?x ex:knows ?y BIND(str(?y) AS ?u) }',
        )
        assert sorted(rows.values("u")) == ["http://x/b", "http://x/c"]

    def test_bind_error_leaves_unbound(self, graph):
        rows = run(graph, "SELECT ?x ?bad WHERE { ?x ex:age ?a BIND(?a / 0 AS ?bad) }")
        assert len(rows) == 3
        assert all(r["bad"] is None for r in rows)

    def test_bind_usable_in_later_filter(self, graph):
        rows = run(
            graph,
            "SELECT ?x WHERE { { ?x ex:age ?a BIND(?a * 2 AS ?d) } FILTER (?d > 55) }",
        )
        assert {r.value("x") for r in rows} == {"http://x/a", "http://x/c"}

    def test_rebinding_rejected(self, graph):
        with pytest.raises(SparqlEvalError, match="already bound"):
            run(graph, "SELECT ?a WHERE { ?x ex:age ?a BIND(1 AS ?a) }")

    def test_bind_in_empty_group(self, graph):
        rows = run(graph, "SELECT ?c WHERE { BIND(40 + 2 AS ?c) }")
        assert rows.values("c") == [42]


class TestValues:
    def test_single_variable(self, graph):
        rows = run(graph, "SELECT ?a WHERE { VALUES ?x { ex:a ex:c } ?x ex:age ?a }")
        assert sorted(rows.values("a")) == [30, 40]

    def test_values_restricts_join(self, graph):
        rows = run(graph, "SELECT ?x WHERE { VALUES ?x { ex:nope } ?x ex:age ?a }")
        assert len(rows) == 0

    def test_multi_variable_rows(self, graph):
        rows = run(
            graph,
            "SELECT ?x ?label WHERE { VALUES (?x ?label) { (ex:a \"first\") (ex:b \"second\") } ?x ex:age ?a }",
        )
        labels = {r.value("x"): r.value("label") for r in rows}
        assert labels["http://x/a"] == "first"

    def test_undef_constrains_nothing(self, graph):
        rows = run(
            graph,
            'SELECT ?x ?l WHERE { VALUES (?x ?l) { (UNDEF "any") } ?x ex:age ?a }',
        )
        assert len(rows) == 3  # UNDEF ?x joins every age row

    def test_values_after_pattern(self, graph):
        rows = run(graph, "SELECT ?x WHERE { ?x ex:age ?a VALUES ?x { ex:b } }")
        assert rows.values("x") == ["http://x/b"]

    def test_literal_values(self, graph):
        rows = run(graph, "SELECT ?x WHERE { VALUES ?a { 25 } ?x ex:age ?a }")
        assert rows.values("x") == ["http://x/b"]

    def test_arity_mismatch_rejected(self, graph):
        with pytest.raises(SparqlParseError, match="row has"):
            parse_query("SELECT * WHERE { VALUES (?x ?y) { (<http://x/a>) } }")

    def test_no_variables_rejected(self, graph):
        with pytest.raises(SparqlParseError):
            parse_query("SELECT * WHERE { VALUES () { } }")


class TestExists:
    """FILTER (NOT) EXISTS is outside the subset; rejecting the NOT
    keyword must not take plain ``!`` negation with it."""

    def test_not_keyword_still_negates_expressions(self, graph):
        rows = run(graph, "SELECT ?x WHERE { ?x ex:age ?a FILTER (!(?a = 30)) }")
        assert len(rows) == 2


class TestUseCaseIntegration:
    def test_values_parameterized_search(self):
        from repro.synth.figures import build_figure3_snippet

        snippet = build_figure3_snippet()
        rows = snippet.warehouse.query(
            """
            SELECT ?x WHERE {
              VALUES ?name { "customer_id" "partner_id" }
              ?x dm:hasName ?name
            }
            """
        )
        assert len(rows) == 2
