"""Unit tests for SPARQL evaluation over a small social/metadata graph."""

import pytest

from repro.rdf import Graph, IRI, Literal, Namespace, RDF, Triple
from repro.sparql import SparqlEvalError, execute

EX = Namespace("http://x/")


@pytest.fixture
def graph():
    g = Graph()
    people = {
        "alice": ("Alice", 30, "zurich"),
        "bob": ("Bob", 25, "zurich"),
        "carol": ("Carol", 35, "geneva"),
    }
    for key, (name, age, city) in people.items():
        node = EX[key]
        g.add(Triple(node, RDF.type, EX.Person))
        g.add(Triple(node, EX.name, Literal(name)))
        g.add(Triple(node, EX.age, Literal(age)))
        g.add(Triple(node, EX.city, EX[city]))
    g.add(Triple(EX.alice, EX.knows, EX.bob))
    g.add(Triple(EX.alice, EX.knows, EX.carol))
    g.add(Triple(EX.bob, EX.knows, EX.carol))
    g.add(Triple(EX.robot, RDF.type, EX.Robot))
    g.add(Triple(EX.robot, EX.name, Literal("R2")))
    return g


def run(graph, text, **kw):
    return execute(graph, "PREFIX ex: <http://x/>\n" + text, **kw)


class TestBasicSelect:
    def test_single_pattern(self, graph):
        rows = run(graph, "SELECT ?p WHERE { ?p a ex:Person }")
        assert len(rows) == 3

    def test_join_two_patterns(self, graph):
        rows = run(graph, "SELECT ?n WHERE { ?p a ex:Person . ?p ex:name ?n }")
        assert sorted(r.value("n") for r in rows) == ["Alice", "Bob", "Carol"]

    def test_constant_object(self, graph):
        rows = run(graph, 'SELECT ?p WHERE { ?p ex:name "Alice" }')
        assert rows.column("p") == [EX.alice]

    def test_no_match_is_empty(self, graph):
        assert len(run(graph, 'SELECT ?p WHERE { ?p ex:name "Zelda" }')) == 0

    def test_shared_variable_join(self, graph):
        rows = run(
            graph,
            "SELECT ?a ?b WHERE { ?a ex:knows ?b . ?b ex:city ex:geneva }",
        )
        assert {(r.value("a"), r.value("b")) for r in rows} == {
            ("http://x/alice", "http://x/carol"),
            ("http://x/bob", "http://x/carol"),
        }

    def test_same_var_twice_in_pattern(self, graph):
        g = Graph([Triple(EX.n, EX.loop, EX.n), Triple(EX.n, EX.loop, EX.m)])
        rows = execute(g, "SELECT ?x WHERE { ?x <http://x/loop> ?x }")
        assert rows.column("x") == [EX.n]

    def test_select_star_columns_sorted(self, graph):
        rows = run(graph, "SELECT * WHERE { ?s ex:knows ?o }")
        assert rows.columns == ["o", "s"]

    def test_cross_product_when_disconnected(self, graph):
        rows = run(graph, "SELECT ?a ?b WHERE { ?a a ex:Person . ?b a ex:Robot }")
        assert len(rows) == 3

    def test_initial_bindings(self, graph):
        rows = run(
            graph,
            "SELECT ?n WHERE { ?p ex:name ?n }",
            bindings={"p": EX.alice},
        )
        assert rows.values("n") == ["Alice"]


class TestFilter:
    def test_numeric_comparison(self, graph):
        rows = run(graph, "SELECT ?p WHERE { ?p ex:age ?a FILTER (?a > 28) }")
        assert {r.value("p") for r in rows} == {"http://x/alice", "http://x/carol"}

    def test_regex_case_insensitive(self, graph):
        rows = run(graph, 'SELECT ?p WHERE { ?p ex:name ?n FILTER regex(?n, "^a", "i") }')
        assert rows.column("p") == [EX.alice]

    def test_filter_error_drops_row(self, graph):
        # ?n is a string for everyone: numeric comparison errors -> all dropped
        rows = run(graph, "SELECT ?p WHERE { ?p ex:name ?n FILTER (?n > 5) }")
        assert len(rows) == 0

    def test_logical_and_or(self, graph):
        rows = run(
            graph,
            "SELECT ?p WHERE { ?p ex:age ?a FILTER (?a > 24 && ?a < 31) }",
        )
        assert len(rows) == 2
        rows = run(
            graph,
            "SELECT ?p WHERE { ?p ex:age ?a FILTER (?a = 25 || ?a = 35) }",
        )
        assert len(rows) == 2

    def test_not(self, graph):
        rows = run(graph, "SELECT ?p WHERE { ?p ex:age ?a FILTER (!(?a = 30)) }")
        assert len(rows) == 2

    def test_str_of_iri(self, graph):
        rows = run(
            graph,
            'SELECT ?p WHERE { ?p ex:city ?c FILTER (str(?c) = "http://x/geneva") }',
        )
        assert rows.column("p") == [EX.carol]

    def test_bound_in_optional(self, graph):
        rows = run(
            graph,
            """SELECT ?p WHERE {
                ?p a ex:Person OPTIONAL { ?p ex:knows ?k }
                FILTER (!bound(?k))
            }""",
        )
        assert rows.column("p") == [EX.carol]

    def test_arithmetic(self, graph):
        rows = run(graph, "SELECT ?p WHERE { ?p ex:age ?a FILTER (?a * 2 = 50) }")
        assert rows.column("p") == [EX.bob]


class TestOptional:
    def test_optional_keeps_unmatched(self, graph):
        rows = run(
            graph,
            "SELECT ?p ?k WHERE { ?p a ex:Person OPTIONAL { ?p ex:knows ?k } }",
        )
        by_p = {}
        for r in rows:
            by_p.setdefault(r.value("p"), []).append(r["k"])
        assert by_p["http://x/carol"] == [None]
        assert len(by_p["http://x/alice"]) == 2

    def test_row_getitem_none_for_unbound(self, graph):
        rows = run(
            graph,
            'SELECT ?p ?k WHERE { ?p ex:name "Carol" OPTIONAL { ?p ex:knows ?k } }',
        )
        assert rows[0]["k"] is None


class TestUnion:
    def test_union_combines(self, graph):
        rows = run(
            graph,
            "SELECT ?x WHERE { { ?x a ex:Person } UNION { ?x a ex:Robot } }",
        )
        assert len(rows) == 4

    def test_union_duplicates_kept_without_distinct(self, graph):
        rows = run(
            graph,
            "SELECT ?x WHERE { { ?x ex:name ?n } UNION { ?x a ex:Person } }",
        )
        assert len(rows) == 7

    def test_union_distinct(self, graph):
        rows = run(
            graph,
            "SELECT DISTINCT ?x WHERE { { ?x ex:name ?n } UNION { ?x a ex:Person } }",
        )
        assert len(rows) == 4


class TestModifiers:
    def test_order_by(self, graph):
        rows = run(graph, "SELECT ?n WHERE { ?p ex:name ?n } ORDER BY ?n")
        assert rows.values("n") == ["Alice", "Bob", "Carol", "R2"]

    def test_order_by_desc_numeric(self, graph):
        rows = run(graph, "SELECT ?a WHERE { ?p ex:age ?a } ORDER BY DESC(?a)")
        assert rows.values("a") == [35, 30, 25]

    def test_limit_offset(self, graph):
        rows = run(graph, "SELECT ?n WHERE { ?p ex:name ?n } ORDER BY ?n LIMIT 2 OFFSET 1")
        assert rows.values("n") == ["Bob", "Carol"]

    def test_distinct(self, graph):
        rows = run(graph, "SELECT DISTINCT ?c WHERE { ?p ex:city ?c }")
        assert len(rows) == 2


class TestAggregates:
    def test_count_star_group_by(self, graph):
        rows = run(
            graph,
            "SELECT ?c (COUNT(*) AS ?n) WHERE { ?p ex:city ?c } GROUP BY ?c ORDER BY DESC(?n)",
        )
        assert rows.to_dicts() == [
            {"c": "http://x/zurich", "n": 2},
            {"c": "http://x/geneva", "n": 1},
        ]

    def test_count_all_rows_single_group(self, graph):
        rows = run(graph, "SELECT (COUNT(*) AS ?n) WHERE { ?p a ex:Person }")
        assert rows.values("n") == [3]

    def test_count_empty_is_zero(self, graph):
        rows = run(graph, "SELECT (COUNT(*) AS ?n) WHERE { ?p a ex:Unicorn }")
        assert rows.values("n") == [0]

    def test_sum_avg_min_max(self, graph):
        rows = run(
            graph,
            "SELECT (SUM(?a) AS ?s) (AVG(?a) AS ?avg) (MIN(?a) AS ?lo) (MAX(?a) AS ?hi) "
            "WHERE { ?p ex:age ?a }",
        )
        d = rows.to_dicts()[0]
        assert d == {"s": 90, "avg": 30, "lo": 25, "hi": 35}

    def test_count_distinct(self, graph):
        rows = run(
            graph,
            "SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?p ex:city ?c }",
        )
        assert rows.values("n") == [2]

    def test_group_concat(self, graph):
        rows = run(
            graph,
            'SELECT (GROUP_CONCAT(?n ; separator = "|") AS ?all) WHERE { ?p ex:age ?a . ?p ex:name ?n } ORDER BY ?n',
        )
        assert set(rows.values("all")[0].split("|")) == {"Alice", "Bob", "Carol"}

    def test_having(self, graph):
        rows = run(
            graph,
            "SELECT ?c (COUNT(*) AS ?n) WHERE { ?p ex:city ?c } GROUP BY ?c HAVING (?n > 1)",
        )
        assert rows.to_dicts() == [{"c": "http://x/zurich", "n": 2}]

    def test_ungrouped_var_rejected(self, graph):
        with pytest.raises(SparqlEvalError):
            run(
                graph,
                "SELECT ?p (COUNT(*) AS ?n) WHERE { ?p ex:city ?c } GROUP BY ?c",
            )


class TestAskConstruct:
    def test_ask_true(self, graph):
        assert run(graph, "ASK { ex:alice ex:knows ex:bob }") is True

    def test_ask_false(self, graph):
        assert run(graph, "ASK { ex:bob ex:knows ex:alice }") is False
