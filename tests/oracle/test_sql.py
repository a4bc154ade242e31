"""Unit tests for the SQL-wrapped SEM_MATCH executor, including the
verbatim listings from the paper."""

import re

import pytest

from benchmarks.queries import LISTING_1, LISTING_2, LISTING_2_SOURCE
from repro.oracle import SemSqlError, execute_sem_sql, parse_sem_sql
from repro.rdf import DM, DT, Graph, IRI, Literal, RDF, RDFS, Triple, TripleStore
from repro.rdf.namespace import NamespaceManager
from repro.sparql import Filter, PlanCache, PreparedQuery, execute, parse_query
from repro.sparql.algebra import filter_bindings
from repro.sparql.errors import ExpressionError
from repro.sparql.expressions import effective_boolean_value

@pytest.fixture
def store():
    s = TripleStore()
    g = s.create_model("DWH_CURR")
    col = DM.Application1_View_Column
    g.add(Triple(col, RDFS.label, Literal("Column")))
    g.add(Triple(col, RDFS.subClassOf, DM.Application1_Item))
    g.add(Triple(col, RDFS.subClassOf, DM.Interface_Item))
    customer = IRI("http://www.credit-suisse.com/dwh/customer_id")
    g.add(Triple(customer, RDF.type, col))
    g.add(Triple(customer, DM.hasName, Literal("customer_id")))
    account = IRI("http://www.credit-suisse.com/dwh/account_id")
    g.add(Triple(account, RDF.type, col))
    g.add(Triple(account, DM.hasName, Literal("account_id")))
    source = IRI("http://www.credit-suisse.com/dwh/client_information_id")
    g.add(Triple(source, DT.isMappedTo, customer))
    # entailment index: type membership inherited through subClassOf
    derived = Graph()
    derived.add(Triple(customer, RDF.type, DM.Application1_Item))
    derived.add(Triple(customer, RDF.type, DM.Interface_Item))
    derived.add(Triple(account, RDF.type, DM.Application1_Item))
    derived.add(Triple(account, RDF.type, DM.Interface_Item))
    s.attach_index("DWH_CURR", "OWLPRIME", derived)
    return s


class TestPaperListings:
    def test_listing1_runs_verbatim(self, store):
        rows = execute_sem_sql(store, LISTING_1)
        assert rows.columns == ["class", "object"]
        assert rows.to_dicts() == [
            {"class": "Column", "object": "http://www.credit-suisse.com/dwh/customer_id"}
        ]

    def test_listing2_runs_verbatim(self, store):
        rows = execute_sem_sql(store, LISTING_2)
        assert len(rows) == 1
        d = rows.to_dicts()[0]
        assert d["source_id"].endswith("client_information_id")
        assert d["target_id"].endswith("customer_id")
        assert d["target_name"] == "customer_id"

    def test_listing2_empty_without_rulebase(self, store):
        # the rdf:type dm:Application1_Item facts only exist in the
        # entailment index; dropping the rulebase must yield nothing
        sql = LISTING_2.replace("SEM_RULEBASES('OWLPRIME'),", "")
        rows = execute_sem_sql(store, sql)
        assert len(rows) == 0


def test_statement_means_its_sparql_form(store):
    """Listing 2 answers what its SPARQL form answers over the same view."""
    sparql = """
        PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#>
        PREFIX dt: <http://www.credit-suisse.com/dwh/mdm/data_transfer#>
        SELECT ?source_id ?target_id ?target_name WHERE {
            ?source_id dt:isMappedTo ?target_id .
            ?target_id rdf:type dm:Application1_Item .
            ?target_id rdf:type dm:Interface_Item .
            ?target_id dm:hasName ?target_name
            FILTER(str(?source_id) = "http://www.credit-suisse.com/dwh/client_information_id")
        } GROUP BY ?source_id ?target_id ?target_name
    """
    view = store.view(["DWH_CURR"], rulebases=["OWLPRIME"])
    assert execute_sem_sql(store, LISTING_2) == execute(view, sparql)


class TestParser:
    def test_parse_components(self):
        q = parse_sem_sql(LISTING_1)
        assert q.columns == ["class", "object"]
        assert q.models == ["DWH_CURR"]
        assert q.rulebases == ["OWLPRIME"]
        assert [a.prefix for a in q.aliases] == ["dm", "owl"]
        assert q.group_by == ["class", "object"]
        assert q.where is not None
        assert q.pattern.startswith("{") and q.pattern.endswith("}")

    def test_missing_sem_models(self):
        with pytest.raises(SemSqlError):
            parse_sem_sql("SELECT a FROM TABLE(SEM_MATCH({?a ?b ?c}, null))")

    def test_missing_pattern(self):
        with pytest.raises(SemSqlError):
            parse_sem_sql("SELECT a FROM TABLE(SEM_MATCH(SEM_MODELS('M')))")

    def test_missing_select(self):
        with pytest.raises(SemSqlError):
            parse_sem_sql("TABLE(SEM_MATCH({?a ?b ?c}, SEM_MODELS('M')))")

    def test_unbalanced_braces(self):
        with pytest.raises(SemSqlError):
            parse_sem_sql("SELECT a FROM TABLE(SEM_MATCH({?a ?b {?c, SEM_MODELS('M')))")

    def test_count_select_item(self):
        q = parse_sem_sql(
            "SELECT class, COUNT(*) AS n FROM TABLE(SEM_MATCH({?a ?b ?c}, SEM_MODELS('M'))) GROUP BY class"
        )
        assert q.count_columns == [("*", "n")]

    def test_bad_select_item(self):
        with pytest.raises(SemSqlError):
            parse_sem_sql("SELECT a+b FROM TABLE(SEM_MATCH({?a ?b ?c}, SEM_MODELS('M')))")


class TestWhereFunctions:
    @pytest.mark.parametrize(
        "where, problem",
        [
            ("foo(term)", "FOO() is outside"),
            ("upper(term) = 'X'", "UPPER() is outside"),
            ("regexp_like(term)", "REGEXP_LIKE() takes 2 to 3 argument(s), got 1"),
        ],
    )
    def test_unknown_function_or_wrong_arity_is_rejected(self, store, where, problem):
        """Checked at parse time: checked per row, the failure would only
        drop the row and the statement would answer 0 rows."""
        sql = f"""
        SELECT term FROM TABLE(SEM_MATCH(
            {{?o dm:hasName ?term}},
            SEM_MODELS('DWH_CURR'),
            SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'))))
        WHERE {where}
        """
        with pytest.raises(SemSqlError, match=re.escape(problem)):
            execute_sem_sql(store, sql)


class TestSqlSemantics:
    def test_group_by_deduplicates(self, store):
        sql = """
        SELECT term FROM TABLE(SEM_MATCH(
            {?o dm:hasName ?term . ?o rdf:type ?c},
            SEM_MODELS('DWH_CURR'),
            SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'))))
        GROUP BY term
        """
        rows = execute_sem_sql(store, sql)
        assert len(rows) == len(set(rows.values("term")))

    def test_where_and(self, store):
        sql = """
        SELECT term FROM TABLE(SEM_MATCH(
            {?o dm:hasName ?term},
            SEM_MODELS('DWH_CURR'),
            SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'))))
        WHERE regexp_like(term, 'id') AND NOT regexp_like(term, 'account')
        """
        rows = execute_sem_sql(store, sql)
        assert rows.values("term") == ["customer_id"]

    def test_where_or(self, store):
        sql = """
        SELECT term FROM TABLE(SEM_MATCH(
            {?o dm:hasName ?term},
            SEM_MODELS('DWH_CURR'),
            SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'))))
        WHERE term = 'customer_id' OR term = 'account_id'
        ORDER BY term
        """
        rows = execute_sem_sql(store, sql)
        assert rows.values("term") == ["account_id", "customer_id"]

    def test_not_equal_sql_style(self, store):
        sql = """
        SELECT term FROM TABLE(SEM_MATCH(
            {?o dm:hasName ?term},
            SEM_MODELS('DWH_CURR'),
            SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'))))
        WHERE term <> 'account_id'
        """
        rows = execute_sem_sql(store, sql)
        assert rows.values("term") == ["customer_id"]

    def test_count_group_by(self, store):
        sql = """
        SELECT class, COUNT(*) AS n FROM TABLE(SEM_MATCH(
            {?o rdf:type ?cls . ?cls rdfs:label ?class . ?o dm:hasName ?term},
            SEM_MODELS('DWH_CURR'),
            SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'))))
        GROUP BY class
        """
        rows = execute_sem_sql(store, sql)
        assert rows.to_dicts() == [{"class": "Column", "n": 2}]

    @pytest.mark.parametrize(
        "select, group_by, column",
        [("o, term", "GROUP BY term", "o"), ("term, COUNT(*) AS n", "", "term")],
    )
    def test_column_outside_group_by_is_rejected(self, store, select, group_by, column):
        """Oracle's ORA-00979 / ORA-00937, raised before anything runs
        (the SQL layer used to de-duplicate whole rows instead)."""
        sql = f"""
        SELECT {select} FROM TABLE(SEM_MATCH(
            {{?o dm:hasName ?term}},
            SEM_MODELS('DWH_CURR'),
            SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'))))
        {group_by}
        """
        with pytest.raises(SemSqlError, match=f"columns {column} are not in GROUP BY"):
            execute_sem_sql(store, sql)

    def test_count_over_no_rows_is_one_zero_row(self, store):
        sql = """
        SELECT COUNT(*) AS cnt FROM TABLE(SEM_MATCH(
            {?o dm:hasName ?term},
            SEM_MODELS('DWH_CURR'),
            SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'))))
        WHERE regexp_like(term, 'zzz')
        """
        rows = execute_sem_sql(store, sql)
        assert rows.columns == ["cnt"]
        assert rows.to_dicts() == [{"cnt": 0}]

    def test_order_by(self, store):
        sql = """
        SELECT term FROM TABLE(SEM_MATCH(
            {?o dm:hasName ?term},
            SEM_MODELS('DWH_CURR'),
            SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'))))
        ORDER BY term
        """
        rows = execute_sem_sql(store, sql)
        assert rows.values("term") == sorted(rows.values("term"))


def tree_compiler(expr):
    """``compile_condition`` with every node tested by tree evaluation."""
    def test(binding):
        try:
            return effective_boolean_value(expr.evaluate(binding))
        except ExpressionError:
            return None
    return test


class TestThreeValuedWhere:
    """The WHERE clause is a FILTER compiled to closures that follow
    SQL's NULL logic: an evaluation error (unbound column, blank node)
    is neither true nor false, so ``NOT`` keeps it an error and the row
    is dropped — exactly what tree evaluation does."""

    EX = "http://example.org/"
    SHAPES = [
        "o = 'x'",
        "o != 'x'",
        "NOT (o = 'x')",
        "NOT (o != 'x')",
        "NOT NOT (o = 'x')",
        "NOT regexp_like(o, 'x')",
        "NOT (o = 'x' OR o = 'z')",
        "NOT (o = 'x' AND o = 'z')",
        "NOT (o = 'x') OR o = 'x'",
        "NOT (o = 'x') AND NOT (o = 'z')",
        "NOT (y = 'y')",
        "NOT (y = 'y') OR o = 'x'",
        "y = 'y' OR NOT (o = 'x')",
        "NOT (y = 'y' AND o = 'z')",
        "NOT (y = 'y' OR o = 'x')",
    ]

    @pytest.fixture
    def store(self):
        """``ex:p`` objects of every kind; ``ex:q`` bound on one row."""
        from repro.rdf.terms import BNode

        ex = self.EX
        s = TripleStore()
        g = s.create_model("M")
        objects = {
            "iri": IRI(ex + "x"),
            "literal": Literal("x"),
            "blank": BNode("n1"),
            "other": Literal("z"),
        }
        for name, value in objects.items():
            g.add(Triple(IRI(ex + name), IRI(ex + "p"), value))
        g.add(Triple(IRI(ex + "other"), IRI(ex + "q"), Literal("y")))
        return s

    def sql(self, where):
        return (
            "SELECT s, o, y FROM TABLE(SEM_MATCH("
            "{?s ex:p ?o OPTIONAL {?s ex:q ?y}}, SEM_MODELS('M'), "
            f"SEM_ALIASES(SEM_ALIAS('ex', '{self.EX}')))) WHERE {where}"
        )

    @pytest.mark.parametrize("where", SHAPES)
    def test_same_rows_as_tree(self, store, monkeypatch, where):
        statement = self.sql(where)
        compiled = sorted(map(repr, execute_sem_sql(store, statement).to_dicts()))
        with monkeypatch.context() as patch:
            patch.setattr("repro.sparql.algebra.compile_condition", tree_compiler)
            tree = sorted(map(repr, execute_sem_sql(store, statement).to_dicts()))
        assert compiled == tree

    def test_not_equal_drops_blank_and_unbound(self, store):
        rows = execute_sem_sql(store, self.sql("NOT (o = 'x')"))
        assert sorted(rows.values("s")) == [self.EX + "iri", self.EX + "other"]
        rows = execute_sem_sql(store, self.sql("NOT (y = 'y')"))
        assert rows.to_dicts() == []


class TestEqualityPushdown:
    """A WHERE `col = 'const'` conjunct is a FILTER equality the engine
    pushes into the SEM_MATCH pattern as a binding
    (:func:`repro.sparql.algebra.filter_bindings`)."""

    @staticmethod
    def filter_of(sql):
        query = parse_sem_sql(sql)
        nsm = NamespaceManager()
        for alias in query.aliases:
            nsm.bind(alias.prefix, alias.namespace)
        pattern = parse_query(f"SELECT * WHERE {query.pattern}", nsm=nsm).pattern
        return Filter(query.where, pattern)

    def test_hint_extraction(self):
        assert filter_bindings(self.filter_of(LISTING_2), frozenset()) == {
            "source_id": IRI("http://www.credit-suisse.com/dwh/client_information_id")
        }
        assert filter_bindings(self.filter_of(LISTING_2), {"source_id"}) == {}
        assert filter_bindings(self.filter_of(LISTING_1), frozenset()) == {}

    @staticmethod
    def unpushed(monkeypatch, store, sql):
        """The statement with the pushdown helper patched out: the whole
        WHERE clause runs as a filter over the unbound pattern."""
        with monkeypatch.context() as patch:
            patch.setattr("repro.sparql.evaluator.filter_bindings", lambda node, bound: {})
            return execute_sem_sql(store, sql)

    def test_pushdown_agrees_with_post_filter_on_listing2(self, store, monkeypatch):
        baseline = self.unpushed(monkeypatch, store, LISTING_2)
        planned = []
        bgp_plan = PreparedQuery.bgp_plan

        def spy(self, graph, bgp, bound=frozenset()):
            planned.append(bound)
            return bgp_plan(self, graph, bgp, bound)

        monkeypatch.setattr(PreparedQuery, "bgp_plan", spy)
        for cache in (None, PlanCache()):
            rows = execute_sem_sql(store, LISTING_2, plan_cache=cache)
            assert rows.to_dicts() == baseline.to_dicts()
        assert planned[-2:] == [frozenset({"source_id"})] * 2
        assert baseline.values("source_id") == [
            "http://www.credit-suisse.com/dwh/client_information_id"
        ]

    def test_subject_equality_on_absent_iri_is_empty(self, store, monkeypatch):
        sql = LISTING_2.replace("client_information_id", "no_such_source")
        assert len(execute_sem_sql(store, sql)) == 0
        assert len(self.unpushed(monkeypatch, store, sql)) == 0

    @pytest.mark.parametrize("source", ["", "no such source"])
    def test_constant_no_iri_can_have_is_not_pushed(self, store, monkeypatch, source):
        """No IRI has this text, so nothing is bound and the filter alone
        answers: no row, not an error."""
        sql = LISTING_2.replace(LISTING_2_SOURCE, source)
        assert filter_bindings(self.filter_of(sql), frozenset()) == {}
        assert len(execute_sem_sql(store, sql)) == 0

    def test_object_position_column_not_pushed(self, store, monkeypatch):
        # term sits in object position: it may match literals of any
        # shape, so the equality must stay a filter. An IRI binding
        # here would find nothing; the filter must still match.
        sql = """
        SELECT o, term FROM TABLE(SEM_MATCH(
            {?o dm:hasName ?term},
            SEM_MODELS('DWH_CURR'),
            SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'))))
        WHERE term = 'customer_id'
        """
        assert filter_bindings(self.filter_of(sql), frozenset()) == {}
        rows = execute_sem_sql(store, sql)
        assert rows.values("term") == ["customer_id"]
        assert rows.to_dicts() == self.unpushed(monkeypatch, store, sql).to_dicts()

    def test_distinct_sources_share_one_parse_and_one_plan(self, store):
        """The prepared text holds no WHERE constant: 200 Listing-2
        statements with distinct sources are one parse and one plan."""
        cache = PlanCache()
        for i in range(200):
            sql = LISTING_2.replace("client_information_id", f"source_{i}")
            execute_sem_sql(store, sql, plan_cache=cache)
        stats = cache.stats()
        assert stats["parse_misses"] == 1 and stats["plan_misses"] == 1
        assert stats["plan_hits"] == 199
