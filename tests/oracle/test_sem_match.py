"""Unit tests for the programmatic SEM_MATCH facade."""

import pytest

from repro.oracle import SEM_ALIAS, SEM_ALIASES, SEM_MODELS, SEM_RULEBASES, sem_match
from repro.rdf import DM, Graph, IRI, Literal, RDF, RDFS, Triple, TripleStore
from repro.sparql.parser import parse_query


@pytest.fixture
def store():
    s = TripleStore()
    g = s.create_model("DWH_CURR")
    col = DM.Application1_View_Column
    g.add(Triple(col, RDFS.label, Literal("Column")))
    node = IRI("http://www.credit-suisse.com/dwh/customer_id")
    g.add(Triple(node, RDF.type, col))
    g.add(Triple(node, DM.hasName, Literal("customer_id")))
    other = IRI("http://www.credit-suisse.com/dwh/trade_id")
    g.add(Triple(other, RDF.type, col))
    g.add(Triple(other, DM.hasName, Literal("trade_id")))
    return s


ALIASES = SEM_ALIASES(SEM_ALIAS("dm", DM.base))


class TestSemMatch:
    def test_basic_pattern(self, store):
        rows = sem_match(
            "{?object rdf:type ?c . ?object dm:hasName ?term}",
            store,
            SEM_MODELS("DWH_CURR"),
            aliases=ALIASES,
        )
        assert len(rows) == 2

    def test_filter_condition(self, store):
        rows = sem_match(
            "{?object dm:hasName ?term}",
            store,
            SEM_MODELS("DWH_CURR"),
            aliases=ALIASES,
            filter_condition='regex(?term, "customer", "i")',
        )
        assert rows.values("term") == ["customer_id"]

    def test_rulebase_index_visibility(self, store):
        derived = Graph([Triple(IRI("http://x/d"), DM.hasName, Literal("derived customer"))])
        store.attach_index("DWH_CURR", "OWLPRIME", derived)
        without = sem_match(
            "{?o dm:hasName ?term}", store, SEM_MODELS("DWH_CURR"), aliases=ALIASES
        )
        with_rb = sem_match(
            "{?o dm:hasName ?term}",
            store,
            SEM_MODELS("DWH_CURR"),
            rulebases=SEM_RULEBASES("OWLPRIME"),
            aliases=ALIASES,
        )
        assert len(with_rb) == len(without) + 1

    def test_multiple_models(self, store):
        g2 = store.create_model("DWH_PREV")
        g2.add(Triple(IRI("http://x/old"), DM.hasName, Literal("old_name")))
        rows = sem_match(
            "{?o dm:hasName ?term}",
            store,
            SEM_MODELS("DWH_CURR", "DWH_PREV"),
            aliases=ALIASES,
        )
        assert len(rows) == 3

    def test_prefix_does_not_reach_a_later_statement(self, store):
        # statements naming the same aliases share one manager; a PREFIX
        # parsed against it binds into the parser's own copy
        from repro.oracle.sem_match import _alias_manager

        nsm = _alias_manager(ALIASES)
        parse_query(
            "PREFIX dm: <http://elsewhere/> PREFIX zz: <http://zz/> "
            "SELECT ?s WHERE { ?s dm:hasName ?n ; zz:p ?o }",
            nsm=nsm,
        )
        assert nsm.expand("dm:hasName") == DM.hasName
        assert "zz" not in nsm
        rows = sem_match(
            "{?object dm:hasName ?term}", store, SEM_MODELS("DWH_CURR"), aliases=ALIASES
        )
        assert len(rows) == 2

    def test_pattern_must_be_braced(self, store):
        with pytest.raises(ValueError):
            sem_match("?s ?p ?o", store, SEM_MODELS("DWH_CURR"))

    def test_unknown_model_fails(self, store):
        with pytest.raises(KeyError):
            sem_match("{?s ?p ?o}", store, SEM_MODELS("NOPE"))

    def test_sem_models_requires_name(self):
        with pytest.raises(ValueError):
            SEM_MODELS()
