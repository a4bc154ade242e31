"""Unit tests for the forward-chaining engine and entailment indexes."""

import pytest

from repro.rdf import (
    Graph,
    IRI,
    Literal,
    Namespace,
    OWL,
    RDF,
    RDFS,
    Triple,
    TripleStore,
)
from repro.reasoning import (
    EntailmentIndexManager,
    OWLPRIME,
    RDFS_RULEBASE,
    Rulebase,
    build_entailment_index,
    closure,
    maintain_closure,
    rule,
)

EX = Namespace("http://x/")


def hierarchy_graph():
    g = Graph()
    g.add(Triple(EX.ViewColumn, RDFS.subClassOf, EX.Attribute))
    g.add(Triple(EX.Attribute, RDFS.subClassOf, EX.Item))
    g.add(Triple(EX.customer_id, RDF.type, EX.ViewColumn))
    return g


class TestRdfsRules:
    def test_subclass_transitivity(self):
        derived, _ = closure(hierarchy_graph(), RDFS_RULEBASE)
        assert Triple(EX.ViewColumn, RDFS.subClassOf, EX.Item) in derived

    def test_type_inheritance(self):
        derived, _ = closure(hierarchy_graph(), RDFS_RULEBASE)
        assert Triple(EX.customer_id, RDF.type, EX.Attribute) in derived
        assert Triple(EX.customer_id, RDF.type, EX.Item) in derived

    def test_subproperty(self):
        g = Graph()
        g.add(Triple(EX.hasFirstName, RDFS.subPropertyOf, EX.hasName))
        g.add(Triple(EX.john, EX.hasFirstName, Literal("John")))
        derived, _ = closure(g, RDFS_RULEBASE)
        assert Triple(EX.john, EX.hasName, Literal("John")) in derived

    def test_subproperty_transitivity(self):
        g = Graph()
        g.add(Triple(EX.p1, RDFS.subPropertyOf, EX.p2))
        g.add(Triple(EX.p2, RDFS.subPropertyOf, EX.p3))
        derived, _ = closure(g, RDFS_RULEBASE)
        assert Triple(EX.p1, RDFS.subPropertyOf, EX.p3) in derived

    def test_domain(self):
        g = Graph()
        g.add(Triple(EX.hasFirstName, RDFS.domain, EX.Individual))
        g.add(Triple(EX.john, EX.hasFirstName, Literal("John")))
        derived, _ = closure(g, RDFS_RULEBASE)
        # the paper's example: instances with hasFirstName are Individuals
        assert Triple(EX.john, RDF.type, EX.Individual) in derived

    def test_range(self):
        g = Graph()
        g.add(Triple(EX.owns, RDFS.range, EX.Account))
        g.add(Triple(EX.john, EX.owns, EX.acct1))
        derived, _ = closure(g, RDFS_RULEBASE)
        assert Triple(EX.acct1, RDF.type, EX.Account) in derived

    def test_range_over_literal_not_derived(self):
        g = Graph()
        g.add(Triple(EX.hasName, RDFS.range, EX.NameString))
        g.add(Triple(EX.john, EX.hasName, Literal("John")))
        derived, _ = closure(g, RDFS_RULEBASE)
        # rdf:type about a literal is not a valid RDF triple
        assert len(list(derived.triples(None, RDF.type, EX.NameString))) == 0


class TestOwlRules:
    def test_symmetric(self):
        g = Graph()
        g.add(Triple(EX.isRelatedTo, RDF.type, OWL.SymmetricProperty))
        g.add(Triple(EX.a, EX.isRelatedTo, EX.b))
        derived, _ = closure(g, OWLPRIME)
        assert Triple(EX.b, EX.isRelatedTo, EX.a) in derived

    def test_transitive_chain(self):
        g = Graph()
        g.add(Triple(EX.isMappedTo, RDF.type, OWL.TransitiveProperty))
        for i in range(5):
            g.add(Triple(EX[f"n{i}"], EX.isMappedTo, EX[f"n{i+1}"]))
        derived, _ = closure(g, OWLPRIME)
        assert Triple(EX.n0, EX.isMappedTo, EX.n5) in derived
        # all pairs i<j derived except the 5 base edges
        assert derived.count(None, EX.isMappedTo, None) == 15 - 5

    def test_inverse(self):
        g = Graph()
        g.add(Triple(EX.feeds, OWL.inverseOf, EX.isFedBy))
        g.add(Triple(EX.app, EX.feeds, EX.dwh))
        g.add(Triple(EX.mart, EX.isFedBy, EX.core))
        derived, _ = closure(g, OWLPRIME)
        assert Triple(EX.dwh, EX.isFedBy, EX.app) in derived
        assert Triple(EX.core, EX.feeds, EX.mart) in derived

    def test_equivalent_class(self):
        g = Graph()
        g.add(Triple(EX.Customer, OWL.equivalentClass, EX.Client))
        g.add(Triple(EX.john, RDF.type, EX.Customer))
        derived, _ = closure(g, OWLPRIME)
        assert Triple(EX.john, RDF.type, EX.Client) in derived

    def test_equivalent_property(self):
        g = Graph()
        g.add(Triple(EX.hasName, OWL.equivalentProperty, EX.name))
        g.add(Triple(EX.a, EX.name, Literal("x")))
        derived, _ = closure(g, OWLPRIME)
        assert Triple(EX.a, EX.hasName, Literal("x")) in derived

    def test_sameas_propagation(self):
        g = Graph()
        g.add(Triple(EX.partner_42, OWL.sameAs, EX.customer_42))
        g.add(Triple(EX.partner_42, EX.hasName, Literal("John")))
        g.add(Triple(EX.acct, EX.ownedBy, EX.customer_42))
        derived, _ = closure(g, OWLPRIME)
        assert Triple(EX.customer_42, OWL.sameAs, EX.partner_42) in derived
        assert Triple(EX.customer_42, EX.hasName, Literal("John")) in derived
        assert Triple(EX.acct, EX.ownedBy, EX.partner_42) in derived


class TestEngineProperties:
    def test_derived_disjoint_from_base(self):
        g = hierarchy_graph()
        derived, _ = closure(g, OWLPRIME)
        assert all(t not in g for t in derived)

    def test_idempotent_fixpoint(self):
        g = hierarchy_graph()
        derived, _ = closure(g, OWLPRIME)
        merged = g | derived
        derived2, _ = closure(merged, OWLPRIME)
        assert len(derived2) == 0

    def test_base_untouched(self):
        g = hierarchy_graph()
        before = set(g)
        closure(g, OWLPRIME)
        assert set(g) == before

    def test_empty_graph(self):
        derived, report = closure(Graph(), OWLPRIME)
        assert len(derived) == 0
        assert report.rounds == 1

    def test_max_rounds_bounds_work(self):
        g = Graph()
        g.add(Triple(EX.isMappedTo, RDF.type, OWL.TransitiveProperty))
        for i in range(10):
            g.add(Triple(EX[f"n{i}"], EX.isMappedTo, EX[f"n{i+1}"]))
        partial, report = closure(g, OWLPRIME, max_rounds=2)
        full, _ = closure(g, OWLPRIME)
        assert report.rounds == 2
        assert len(partial) < len(full)

    def test_report_contents(self):
        _, report = closure(hierarchy_graph(), RDFS_RULEBASE)
        assert report.rulebase == "RDFS"
        assert report.base_triples == 3
        assert report.derived_triples == 3
        assert report.per_rule.get("rdfs9") == 2
        assert report.per_rule.get("rdfs11") == 1
        assert "derived" in report.summary()

    def test_custom_rulebase(self):
        synonyms = Rulebase(
            "SYN", [rule("syn-sym", "?a <http://x/synonymOf> ?b -> ?b <http://x/synonymOf> ?a")]
        )
        g = Graph([Triple(EX.client, EX.synonymOf, EX.customer)])
        derived, _ = closure(g, synonyms)
        assert Triple(EX.customer, EX.synonymOf, EX.client) in derived


class TestExtendClosure:
    def test_incremental_matches_full_rebuild(self):
        g = Graph()
        g.add(Triple(EX.isMappedTo, RDF.type, OWL.TransitiveProperty))
        for i in range(4):
            g.add(Triple(EX[f"n{i}"], EX.isMappedTo, EX[f"n{i+1}"]))
        derived, _ = closure(g, OWLPRIME)
        new_triple = Triple(EX.n4, EX.isMappedTo, EX.n5)
        g.add(new_triple)
        maintain_closure(g, derived, [new_triple], (), OWLPRIME)
        full, _ = closure(g, OWLPRIME)
        assert set(derived) == set(full)

    def test_incremental_new_schema_triple(self):
        g = hierarchy_graph()
        derived, _ = closure(g, RDFS_RULEBASE)
        added = Triple(EX.Item, RDFS.subClassOf, EX.Anything)
        g.add(added)
        maintain_closure(g, derived, [added], (), RDFS_RULEBASE)
        assert Triple(EX.customer_id, RDF.type, EX.Anything) in derived


class TestIndexLifecycle:
    def make_store(self):
        store = TripleStore()
        store.create_model("M").add_all(hierarchy_graph())
        return store

    def test_build_attaches(self):
        store = self.make_store()
        report = build_entailment_index(store, "M", "OWLPRIME")
        assert report.derived_triples == 3
        idx = store.index("M", "OWLPRIME")
        assert idx is not None and len(idx) == 3

    def test_unknown_rulebase_name(self):
        store = self.make_store()
        with pytest.raises(KeyError):
            build_entailment_index(store, "M", "NOPE")

    def test_manager_staleness(self):
        store = self.make_store()
        mgr = EntailmentIndexManager(store)
        assert mgr.is_stale("M")
        mgr.build("M")
        assert not mgr.is_stale("M")
        store.model("M").add(Triple(EX.extra, RDF.type, EX.ViewColumn))
        assert mgr.is_stale("M")

    def test_manager_refresh(self):
        store = self.make_store()
        mgr = EntailmentIndexManager(store)
        mgr.build("M")
        assert mgr.refresh("M") is None  # fresh: no work
        store.model("M").add(Triple(EX.extra, RDF.type, EX.ViewColumn))
        report = mgr.refresh("M")
        assert report is not None
        assert Triple(EX.extra, RDF.type, EX.Item) in store.index("M", "OWLPRIME")

    def test_manager_refresh_maintains_in_place(self):
        store = self.make_store()
        mgr = EntailmentIndexManager(store)
        mgr.build("M")
        idx = store.index("M", "OWLPRIME")
        store.model("M").add(Triple(EX.extra, RDF.type, EX.ViewColumn))
        report = mgr.refresh("M")
        # DRed maintenance of the same index object, not a rebuild
        assert report.mode == "incremental"
        assert store.index("M", "OWLPRIME") is idx
        assert Triple(EX.extra, RDF.type, EX.Item) in idx
        assert not mgr.is_stale("M")

    def test_manager_refresh_without_build_builds(self):
        store = self.make_store()
        mgr = EntailmentIndexManager(store)
        report = mgr.refresh("M")
        assert report.derived_triples == 3
        assert mgr.rulebases("M") == ["OWLPRIME"]

    def test_query_visibility_contract(self):
        # End-to-end: the paper's core index behaviour
        store = self.make_store()
        build_entailment_index(store, "M", "OWLPRIME")
        without = store.view(["M"])
        with_rb = store.view(["M"], rulebases=["OWLPRIME"])
        probe = Triple(EX.customer_id, RDF.type, EX.Item)
        assert probe not in without
        assert probe in with_rb
