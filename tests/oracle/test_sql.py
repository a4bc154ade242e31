"""Unit tests for the SQL-wrapped SEM_MATCH executor, including the
verbatim listings from the paper."""

import re

import pytest

from benchmarks.queries import LISTING_1, LISTING_2
from repro.oracle import SemSqlError, execute_sem_sql, parse_sem_sql
from repro.rdf import DM, DT, Graph, IRI, Literal, RDF, RDFS, Triple, TripleStore
from repro.sparql import PlanCache

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


class TestThreeValuedWhere:
    """The compiled WHERE predicates follow SQL's NULL logic: an
    evaluation error (unbound column, blank node) is neither true nor
    false, so ``NOT`` keeps it an error and the row is dropped — exactly
    what the expression-tree path (``_sql_test``) does."""

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
        from repro.oracle import sql as sql_module

        statement = self.sql(where)
        query = parse_sem_sql(statement)
        assert sql_module._compile_row_predicate(query.where) is not None
        compiled = sorted(map(repr, execute_sem_sql(store, statement).to_dicts()))
        with monkeypatch.context() as patch:
            patch.setattr(sql_module, "_compile_row_predicate", lambda where: None)
            tree = sorted(map(repr, execute_sem_sql(store, statement).to_dicts()))
        assert compiled == tree

    def test_not_equal_drops_blank_and_unbound(self, store):
        rows = execute_sem_sql(store, self.sql("NOT (o = 'x')"))
        assert sorted(rows.values("s")) == [self.EX + "iri", self.EX + "other"]
        rows = execute_sem_sql(store, self.sql("NOT (y = 'y')"))
        assert rows.to_dicts() == []


class TestEqualityPushdown:
    """WHERE `col = 'const'` conjuncts pushed into SEM_MATCH as bindings."""

    def test_hint_extraction(self):
        from repro.oracle.sql import _equality_hints

        query = parse_sem_sql(LISTING_2)
        assert _equality_hints(query.where) == {
            "source_id": "http://www.credit-suisse.com/dwh/client_information_id"
        }
        regex_query = parse_sem_sql(LISTING_1)
        assert _equality_hints(regex_query.where) == {}

    @staticmethod
    def unpushed(monkeypatch, store, sql):
        """The statement with ``sem_match(..., eq_hints=None)``: the
        whole WHERE clause stays a post-filter at the SQL layer."""
        with monkeypatch.context() as patch:
            patch.setattr("repro.oracle.sql._equality_hints", lambda where: None)
            return execute_sem_sql(store, sql)

    def test_pushdown_agrees_with_post_filter_on_listing2(self, store, monkeypatch):
        baseline = self.unpushed(monkeypatch, store, LISTING_2)
        for cache in (None, PlanCache()):
            rows = execute_sem_sql(store, LISTING_2, plan_cache=cache)
            assert rows.to_dicts() == baseline.to_dicts()
        assert baseline.values("source_id") == [
            "http://www.credit-suisse.com/dwh/client_information_id"
        ]

    def test_subject_equality_on_absent_iri_is_empty(self, store, monkeypatch):
        sql = LISTING_2.replace("client_information_id", "no_such_source")
        assert len(execute_sem_sql(store, sql)) == 0
        assert len(self.unpushed(monkeypatch, store, sql)) == 0

    def test_object_position_column_not_pushed(self, store, monkeypatch):
        # target_name sits in object position: it may match literals of
        # any shape, so the equality must stay a post-filter. An IRI
        # binding here would find nothing; the filter must still match.
        sql = """
        SELECT o, term FROM TABLE(SEM_MATCH(
            {?o dm:hasName ?term},
            SEM_MODELS('DWH_CURR'),
            SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'))))
        WHERE term = 'customer_id'
        """
        rows = execute_sem_sql(store, sql)
        assert rows.values("term") == ["customer_id"]
        assert rows.to_dicts() == self.unpushed(monkeypatch, store, sql).to_dicts()
