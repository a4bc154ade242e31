"""Unit tests for fact assertion, validation, statistics, and the facade."""

import pytest

from repro.core import (
    EdgeCategory,
    FactError,
    MetadataWarehouse,
    NodeKind,
    TERMS,
    World,
    collect_statistics,
    validate_graph,
)
from repro.rdf import Graph, IRI, Literal, Namespace, RDF, Triple

EX = Namespace("http://x/")


@pytest.fixture
def mdw():
    return MetadataWarehouse()


@pytest.fixture
def customer(mdw):
    return mdw.schema.declare_class("Customer", world=World.BUSINESS)


class TestInstances:
    def test_add_instance(self, mdw, customer):
        inst = mdw.facts.add_instance("customer_id", customer)
        assert mdw.facts.exists(inst)
        assert mdw.facts.name_of(inst) == "customer_id"

    def test_display_name(self, mdw, customer):
        inst = mdw.facts.add_instance("cust_001", customer, display_name="John Doe")
        assert mdw.facts.name_of(inst) == "John Doe"

    def test_undeclared_class_rejected(self, mdw):
        with pytest.raises(FactError):
            mdw.facts.add_instance("x", EX.Ghost)

    def test_no_class_rejected(self, mdw):
        with pytest.raises(FactError):
            mdw.facts.add_instance("x", [])

    def test_clash_with_class_name(self):
        # when the schema and instance namespaces coincide, an instance
        # cannot reuse a class's identifier
        from repro.core.warehouse import INSTANCE_NS

        mdw = MetadataWarehouse(schema_ns=INSTANCE_NS)
        cls = mdw.schema.declare_class("Customer")
        with pytest.raises(FactError):
            mdw.facts.add_instance("Customer", cls)

    def test_multiple_classes(self, mdw, customer):
        other = mdw.schema.declare_class("Partner")
        inst = mdw.facts.add_instance("dual", [customer, other])
        assert mdw.hierarchy.classes_of(inst, direct=True) == {customer, other}

    def test_add_type_later(self, mdw, customer):
        other = mdw.schema.declare_class("Partner")
        inst = mdw.facts.add_instance("x", customer)
        mdw.facts.add_type(inst, other)
        assert other in mdw.hierarchy.classes_of(inst, direct=True)

    def test_add_type_undeclared_rejected(self, mdw, customer):
        inst = mdw.facts.add_instance("x", customer)
        with pytest.raises(FactError):
            mdw.facts.add_type(inst, EX.Ghost)


class TestValues:
    def test_set_value(self, mdw, customer):
        prop = mdw.schema.declare_property("hasBalance", domain=customer)
        inst = mdw.facts.add_instance("acct", customer)
        mdw.facts.set_value(inst, prop, 100)
        assert mdw.facts.values_of(inst, prop) == [Literal(100)]

    def test_undeclared_property_rejected(self, mdw, customer):
        inst = mdw.facts.add_instance("x", customer)
        with pytest.raises(FactError):
            mdw.facts.set_value(inst, EX.ghost, "v")

    def test_domain_enforced(self, mdw, customer):
        other = mdw.schema.declare_class("Unrelated")
        prop = mdw.schema.declare_property("hasBalance", domain=customer)
        inst = mdw.facts.add_instance("x", other)
        with pytest.raises(FactError, match="domain"):
            mdw.facts.set_value(inst, prop, 1)

    def test_domain_satisfied_through_subclass(self, mdw, customer):
        sub = mdw.schema.declare_class("PrivateCustomer", parents=customer)
        prop = mdw.schema.declare_property("hasBalance", domain=customer)
        inst = mdw.facts.add_instance("x", sub)
        mdw.facts.set_value(inst, prop, 1)  # must not raise

    def test_no_domain_means_any(self, mdw, customer):
        prop = mdw.schema.declare_property("free")
        inst = mdw.facts.add_instance("x", customer)
        mdw.facts.set_value(inst, prop, "anything")

    def test_classless_subject_rejected(self, mdw, customer):
        prop = mdw.schema.declare_property("hasBalance", domain=customer)
        with pytest.raises(FactError, match="no class"):
            mdw.facts.set_value(EX.stranger, prop, 1)


class TestRelationships:
    def test_relate(self, mdw, customer):
        prop = mdw.schema.declare_property("knows")
        a = mdw.facts.add_instance("a", customer)
        b = mdw.facts.add_instance("b", customer)
        mdw.facts.relate(a, prop, b)
        assert (a, prop, b) in mdw.graph

    def test_relate_literal_rejected(self, mdw, customer):
        prop = mdw.schema.declare_property("knows")
        a = mdw.facts.add_instance("a", customer)
        with pytest.raises(FactError):
            mdw.facts.relate(a, prop, Literal("b"))

    def test_mapping_plain(self, mdw, customer):
        a = mdw.facts.add_instance("a", customer)
        b = mdw.facts.add_instance("b", customer)
        assert mdw.facts.add_mapping(a, b) is None
        assert mdw.facts.mappings_from(a) == [b]
        assert mdw.facts.mappings_to(b) == [a]

    def test_mapping_with_rule(self, mdw, customer):
        a = mdw.facts.add_instance("a", customer)
        b = mdw.facts.add_instance("b", customer)
        node = mdw.facts.add_mapping(a, b, rule="cast(customer_id as int)", condition="country = 'CH'")
        assert node is not None
        assert (node, TERMS.mapping_rule, Literal("cast(customer_id as int)")) in mdw.graph
        assert (node, TERMS.mapping_condition, Literal("country = 'CH'")) in mdw.graph

    def test_mapping_node_of_any_local_name_reads_back(self, mdw, customer, tmp_path):
        # a local name outside [\w.-] must not mint `_:map_acct(eu)__t`,
        # a label no term reader accepts: the snapshot and the segment
        # holding the mapping node must read back
        from repro.core.facts import mapping_node
        from repro.rdf.staging import parse_lexical_term
        from repro.server.snapshot import SnapshotManager
        from repro.storage.segments import publish_segment

        assert mapping_node(EX.a, EX.b).label == "map_a__b"
        odd = [IRI("http://x/acct(eu)"), IRI("http://x/a%20b"), IRI("http://x/t."), EX.a]
        labels = {mapping_node(s, t).label for s in odd for t in odd}
        assert len(labels) == len(odd) ** 2

        base = tmp_path / "base.mdws"
        mdw.save_snapshot(base, generation=1)
        # the segment diffs two states of the live id space
        before = SnapshotManager(mdw).pin().warehouse.store
        node = mdw.facts.add_mapping(odd[0], EX.t, rule="r")
        assert parse_lexical_term(node.n3()) == node
        full = tmp_path / "full.mdws"
        mdw.save_snapshot(full, generation=2)
        segment = publish_segment(before, mdw.store, tmp_path / "d.seg", 1, 2)
        for attached in (
            MetadataWarehouse.attach_snapshot(full),
            MetadataWarehouse.attach_snapshot(base, segments=[segment]),
        ):
            assert (odd[0], TERMS.has_mapping, node) in attached.graph
            assert (node, TERMS.mapping_rule, Literal("r")) in attached.graph

    def test_mapping_node_is_injective(self, mdw, customer, tmp_path):
        # `a__b` -> `c` and `a` -> `b__c` would both read `_:map_a__b__c`
        from repro.core.facts import mapping_node

        pairs = [
            (IRI("http://x/a__b"), IRI("http://x/c")),
            (IRI("http://x/a"), IRI("http://x/b__c")),
            (IRI("http://x/a_"), IRI("http://x/_c")),
            (IRI("http://x/a"), IRI("http://x/__c")),
        ]
        nodes = [mapping_node(s, t) for s, t in pairs]
        assert len(set(nodes)) == len(pairs)
        assert nodes[1].label == "map_a__b__c"  # a `__` in the target is fine
        for (s, t), rule in zip(pairs, "wxyz"):
            mdw.facts.add_mapping(s, t, rule=rule)
        path = tmp_path / "m.mdws"
        mdw.save_snapshot(path)
        attached = MetadataWarehouse.attach_snapshot(path)
        for node, rule in zip(nodes, "wxyz"):
            rules = list(attached.graph.objects(node, TERMS.mapping_rule))
            assert rules == [Literal(rule)]

    def test_area_level_annotations(self, mdw, customer):
        inst = mdw.facts.add_instance("x", customer)
        mdw.facts.set_area(inst, TERMS.area_integration)
        mdw.facts.set_level(inst, TERMS.level_logical)
        assert mdw.facts.area_of(inst) == TERMS.area_integration
        assert mdw.facts.level_of(inst) == TERMS.level_logical


class TestValidation:
    def test_empty_graph_conformant(self):
        report = validate_graph(Graph())
        assert report.conformant
        assert report.conformance_ratio == 1.0

    def test_warehouse_built_graph_conformant(self, mdw, customer):
        prop = mdw.schema.declare_property("hasName", domain=customer)
        inst = mdw.facts.add_instance("c1", customer)
        mdw.facts.set_value(inst, prop, "X")
        report = mdw.validate()
        assert report.conformant, [i.describe() for i in report.issues]

    def test_violations_detected(self, customer, mdw):
        inst = mdw.facts.add_instance("x", customer)
        prop = mdw.schema.declare_property("p")
        # hand-inject a forbidden edge: instance -> property
        mdw.graph.add(Triple(inst, EX.weird, prop))
        report = mdw.validate()
        assert not report.conformant
        assert report.violation_count == 1
        assert report.issues[0].object_kind is NodeKind.PROPERTY
        assert "outside Table I" in report.issues[0].describe()

    def test_max_issues_caps_list_not_count(self, mdw, customer):
        inst = mdw.facts.add_instance("x", customer)
        prop = mdw.schema.declare_property("p")
        for i in range(5):
            mdw.graph.add(Triple(EX[f"i{i}"], EX.weird, prop))
        report = validate_graph(mdw.graph, max_issues=2)
        assert len(report.issues) == 2
        assert report.violation_count == 5

    def test_summary_text(self, mdw, customer):
        text = mdw.validate().summary()
        assert "violations" in text and "facts" in text


class TestStatistics:
    def test_counts(self, mdw, customer):
        prop = mdw.schema.declare_property("hasName", domain=customer)
        inst = mdw.facts.add_instance("c1", customer)
        mdw.facts.set_value(inst, prop, "X")
        stats = mdw.statistics()
        assert stats.edges == len(mdw.graph)
        assert stats.nodes == mdw.graph.node_count()
        assert stats.nodes_by_kind[NodeKind.CLASS] >= 1
        assert stats.nodes_by_kind[NodeKind.INSTANCE] >= 1
        assert stats.edges_by_category[EdgeCategory.FACTS] >= 2
        assert stats.violations == 0

    def test_density(self):
        stats = collect_statistics(Graph([Triple(EX.a, EX.p, EX.b)]))
        assert stats.density == 0.5  # 1 edge / 2 nodes

    def test_render_table_i(self, mdw, customer):
        mdw.facts.add_instance("c1", customer)
        text = mdw.statistics().render_table_i()
        assert "FACTS" in text
        assert "Edges (Class, Instance)" in text
        assert "HIERARCHIES" in text.upper() or "hierarchies" in text


class TestWarehouseFacade:
    def test_query_and_entailment_visibility(self, mdw, customer):
        sub = mdw.schema.declare_class("PrivateCustomer", parents=customer)
        mdw.facts.add_instance("c1", sub)
        mdw.build_entailment_index()
        with_rb = mdw.query(
            "SELECT ?x WHERE { ?x rdf:type dm:Customer }", rulebases=["OWLPRIME"]
        )
        without = mdw.query("SELECT ?x WHERE { ?x rdf:type dm:Customer }")
        assert len(with_rb) == 1
        assert len(without) == 0

    def test_refresh_indexes(self, mdw, customer):
        sub = mdw.schema.declare_class("Sub", parents=customer)
        mdw.build_entailment_index()
        mdw.facts.add_instance("late", sub)
        refreshed = mdw.refresh_indexes()
        assert "OWLPRIME" in refreshed
        rows = mdw.query(
            "SELECT ?x WHERE { ?x rdf:type dm:Customer }", rulebases=["OWLPRIME"]
        )
        assert len(rows) == 1

    def test_sem_sql_roundtrip(self, mdw, customer):
        inst = mdw.facts.add_instance("customer_id", customer)
        rows = mdw.sem_sql(
            """
            SELECT term FROM TABLE(SEM_MATCH(
                {?o dm:hasName ?term},
                SEM_MODELS('DWH_CURR'),
                SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#'))))
            WHERE regexp_like(term, 'customer')
            """
        )
        assert rows.values("term") == ["customer_id"]

    def test_namespaces_prebound(self, mdw):
        assert mdw.namespaces.expand("dm:hasName").value.endswith("#hasName")
        assert mdw.namespaces.expand("dt:isMappedTo").value.endswith("#isMappedTo")

    def test_repr(self, mdw):
        assert "DWH_CURR" in repr(mdw)
