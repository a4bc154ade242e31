"""Unit tests for EXPLAIN plans and instance retirement."""

import pytest

from repro.core import MetadataWarehouse
from repro.rdf import BNode, Graph, IRI, Literal, Namespace, Triple
from repro.sparql import SparqlParseError, explain

EX = Namespace("http://x/")


@pytest.fixture
def graph():
    g = Graph()
    g.add(Triple(EX.alice, EX.name, Literal("Alice")))
    g.add(Triple(EX.alice, EX.knows, EX.bob))
    g.add(Triple(EX.bob, EX.name, Literal("Bob")))
    address = BNode("addr1")
    g.add(Triple(EX.alice, EX.address, address))
    g.add(Triple(address, EX.city, Literal("Zurich")))
    return g


class TestExplain:
    def test_bgp_join_order_shown(self, graph):
        plan = explain(
            graph,
            'SELECT ?x WHERE { ?x <http://x/knows> ?y . ?x <http://x/name> "Alice" }',
        )
        assert "BGP (2 pattern(s)" in plan
        lines = plan.splitlines()
        # the constant-name pattern is more selective and goes first
        first = next(l for l in lines if l.strip().startswith("1."))
        assert "Alice" in first
        assert "~1 row(s)" in first

    def test_cartesian_flagged(self, graph):
        plan = explain(
            graph, "SELECT * WHERE { ?a <http://x/name> ?n . ?x <http://x/city> ?c }"
        )
        assert "CARTESIAN" in plan

    def test_modifiers_shown(self, graph):
        plan = explain(
            graph,
            "SELECT DISTINCT ?x WHERE { ?x ?p ?o } ORDER BY ?x LIMIT 5 OFFSET 2",
        )
        assert "DISTINCT" in plan
        assert "ORDER BY" in plan
        assert "SLICE limit=5 offset=2" in plan

    def test_structural_nodes(self, graph):
        plan = explain(
            graph,
            """SELECT ?x WHERE {
                { ?x <http://x/name> ?n } UNION { ?x <http://x/city> ?n }
                OPTIONAL { ?x <http://x/knows> ?k }
                FILTER (bound(?k))
            }""",
        )
        assert "UNION" in plan and "OPTIONAL" in plan and "FILTER" in plan

    def test_path_shown(self, graph):
        plan = explain(graph, "SELECT ?y WHERE { <http://x/alice> <http://x/knows>+ ?y }")
        assert "PATH" in plan and ")+" in plan

    def test_values_and_bind_shown(self, graph):
        plan = explain(
            graph,
            "SELECT ?d WHERE { VALUES ?x { <http://x/alice> } ?x ?p ?o BIND(1 AS ?d) }",
        )
        assert "VALUES" in plan and "BIND -> ?d" in plan

    def test_ask_and_construct_and_describe(self, graph):
        assert "ASK" in explain(graph, "ASK { ?s ?p ?o }")
        # the removed forms get no plan, only the parser's typed rejection
        with pytest.raises(SparqlParseError, match="CONSTRUCT is outside"):
            explain(graph, "CONSTRUCT { ?s <http://x/p> ?o } WHERE { ?s ?p ?o }")
        with pytest.raises(SparqlParseError, match="DESCRIBE is outside"):
            explain(graph, "DESCRIBE <http://x/alice>")

    def test_warehouse_explain(self):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Customer")
        mdw.facts.add_instance("c1", cls)
        plan = mdw.explain("SELECT ?x WHERE { ?x rdf:type dm:Customer }")
        assert "BGP" in plan


class TestRetireInstance:
    def make(self):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Column")
        a = mdw.facts.add_instance("a", cls)
        b = mdw.facts.add_instance("b", cls)
        c = mdw.facts.add_instance("c", cls)
        mdw.facts.add_mapping(a, b, rule="r1")
        mdw.facts.add_mapping(b, c)
        return mdw, a, b, c

    def test_retire_leaf(self):
        mdw, a, b, c = self.make()
        removed = mdw.facts.retire_instance(c, force=True)
        assert removed > 0
        assert not mdw.facts.exists(c)
        assert not list(mdw.graph.triples(None, None, c))
        assert mdw.validate().conformant

    def test_retire_refuses_fed_instance(self):
        mdw, a, b, c = self.make()
        from repro.core import FactError

        with pytest.raises(FactError, match="mapping target"):
            mdw.facts.retire_instance(b)

    def test_force_retire_removes_reified_mapping(self):
        mdw, a, b, c = self.make()
        mdw.facts.retire_instance(b, force=True)
        # the reified mapping node for a->b is gone too
        from repro.core import TERMS

        assert not list(mdw.graph.triples(None, TERMS.mapping_target, b))
        assert not list(mdw.graph.triples(a, TERMS.has_mapping, None))
        assert mdw.validate().conformant

    def test_retire_source_allowed_without_force(self):
        mdw, a, b, c = self.make()
        mdw.facts.retire_instance(a)  # nothing maps INTO a
        assert not mdw.facts.exists(a)
        assert mdw.facts.exists(b)

    def test_retire_unknown(self):
        mdw, *_ = self.make()
        from repro.core import FactError
        from repro.rdf import IRI

        with pytest.raises(FactError):
            mdw.facts.retire_instance(IRI("http://x/ghost"))

    def test_search_no_longer_finds_retired(self):
        mdw, a, b, c = self.make()
        assert len(mdw.search.search("c")) >= 1
        mdw.facts.retire_instance(c, force=True)
        assert all(h.name != "c" for h in mdw.search.search("c").hits)
