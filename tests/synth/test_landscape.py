"""Unit tests for the synthetic landscape generator and figure builders."""

import pytest

from repro.core import TERMS, EdgeCategory, classify_edge, validate_graph
from repro.rdf import RDFS, Triple
from repro.synth import (
    LandscapeConfig,
    NamePool,
    generate_landscape,
    generate_pipeline,
    make_search_workload,
)
from repro.synth.figures import build_figure2_example, build_figure3_snippet


@pytest.fixture(scope="module")
def landscape():
    return generate_landscape(LandscapeConfig.small(seed=7))


class TestNamePool:
    def test_deterministic(self):
        a, b = NamePool(1), NamePool(1)
        assert [a.legacy_table_name() for _ in range(5)] == [
            b.legacy_table_name() for _ in range(5)
        ]

    def test_application_names_unique(self):
        pool = NamePool(1)
        names = [pool.application_name(i) for i in range(300)]
        assert len(set(names)) == 300

    def test_person_names_unique(self):
        pool = NamePool(1)
        names = [pool.person(i) for i in range(500)]
        assert len(set(names)) == 500

    def test_legacy_names_look_legacy(self):
        pool = NamePool(2)
        name = pool.legacy_table_name()
        assert name[0] == "T" and name[-3:].isdigit()

    def test_column_names(self):
        pool = NamePool(3)
        name = pool.column_name("customer")
        assert name.startswith("customer_")


class TestLandscapeGeneration:
    def test_deterministic_per_seed(self):
        a = generate_landscape(LandscapeConfig.tiny(seed=3))
        b = generate_landscape(LandscapeConfig.tiny(seed=3))
        assert len(a.graph) == len(b.graph)
        assert a.graph == b.graph

    def test_different_seeds_differ(self):
        a = generate_landscape(LandscapeConfig.tiny(seed=3))
        b = generate_landscape(LandscapeConfig.tiny(seed=4))
        assert a.graph != b.graph

    def test_conformant(self, landscape):
        report = validate_graph(landscape.graph, max_issues=5)
        assert report.conformant, [i.describe() for i in report.issues]

    def test_configured_application_count(self, landscape):
        # configured apps + dwh_core + marts
        config = landscape.config
        assert (
            len(landscape.applications) == config.applications + 1
        )
        assert landscape.subject_area_counts["applications"] == (
            config.applications + 1 + config.marts
        )

    def test_mapping_chains_reach_reports(self, landscape):
        mdw = landscape.warehouse
        reached = 0
        for attr in landscape.report_attributes[:10]:
            trace = mdw.lineage.upstream(attr)
            if trace.max_depth() >= 3:
                reached += 1
        assert reached > 0  # app column -> staging -> integration -> report

    def test_areas_populated(self, landscape):
        graph = landscape.graph
        for area in (TERMS.area_inbound, TERMS.area_integration, TERMS.area_mart):
            assert graph.count(None, TERMS.in_area, area) > 0

    def test_roles_linked(self, landscape):
        graph = landscape.graph
        assert graph.count(None, TERMS.plays_role, None) > 0
        assert graph.count(None, TERMS.for_application, None) > 0

    def test_search_has_hits(self, landscape):
        assert len(landscape.warehouse.search.search("customer")) > 0

    def test_synonyms_materialized(self, landscape):
        assert landscape.subject_area_counts.get("synonym edges", 0) > 0

    def test_extended_scope_adds_subject_areas(self):
        base = generate_landscape(LandscapeConfig.tiny(seed=5))
        extended = generate_landscape(LandscapeConfig.tiny(seed=5).with_extended_scope())
        assert "log files" not in base.subject_area_counts
        assert extended.subject_area_counts["log files"] > 0
        assert extended.subject_area_counts["technical components"] > 0
        assert extended.subject_area_counts["governance links"] > 0
        # still conformant: the graph absorbed new kinds without DDL
        assert validate_graph(extended.graph, max_issues=3).conformant

    def test_summary(self, landscape):
        text = landscape.summary()
        assert "nodes" in text and "applications" in text

    def test_grows_with_config(self):
        small = generate_landscape(LandscapeConfig.tiny(seed=5))
        bigger = generate_landscape(LandscapeConfig.small(seed=5))
        assert len(bigger.graph) > len(small.graph)


class TestWorkload:
    def test_workload_shape(self, landscape):
        workload = make_search_workload(landscape, n_terms=5, n_lineage=3)
        assert len(workload.terms) == 5
        assert len(workload.lineage_targets) <= 3
        assert workload.business_terms

    def test_deterministic(self, landscape):
        a = make_search_workload(landscape, seed=9)
        b = make_search_workload(landscape, seed=9)
        assert a.terms == b.terms
        assert a.lineage_targets == b.lineage_targets

    def test_targets_are_report_attributes(self, landscape):
        workload = make_search_workload(landscape)
        for target in workload.lineage_targets:
            assert target in landscape.report_attributes


class TestPipelineGenerator:
    def test_structure(self):
        pipeline = generate_pipeline(stages=3, items_per_stage=2, fan=1)
        assert pipeline.depth == 3
        assert len(pipeline.stages) == 4
        assert all(len(layer) == 2 for layer in pipeline.stages)

    def test_conformant(self):
        pipeline = generate_pipeline(stages=3)
        assert validate_graph(pipeline.warehouse.graph).conformant

    def test_fan_one_is_linear(self):
        pipeline = generate_pipeline(stages=5, items_per_stage=1, fan=1)
        assert pipeline.warehouse.lineage.count_paths(pipeline.source) == 1

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_pipeline(stages=0)
        with pytest.raises(ValueError):
            generate_pipeline(stages=2, fan=0)

    def test_source_in_inbound_area(self):
        pipeline = generate_pipeline(stages=2)
        graph = pipeline.warehouse.graph
        assert graph.value(pipeline.source, TERMS.in_area, None) == TERMS.area_inbound


class TestFigureBuilders:
    def test_figure2_chain(self):
        fig2 = build_figure2_example()
        lineage = fig2.warehouse.lineage
        trace = lineage.upstream(fig2.mart_client_id)
        assert trace.max_depth() == 2
        # backward lineage ends at the staging column and nowhere else
        assert trace.endpoints() == {fig2.staging_customer_id}
        assert lineage.downstream(fig2.staging_customer_id).endpoints() == {fig2.mart_client_id}

    def test_figure2_conformant(self):
        assert build_figure2_example().warehouse.validate().conformant

    def test_figure2_generalization(self):
        fig2 = build_figure2_example()
        hierarchy = fig2.warehouse.hierarchy
        partner = fig2.classes["Partner"]
        individual = fig2.warehouse.schema.class_by_label("Individual")
        institution = fig2.warehouse.schema.class_by_label("Institution")
        assert hierarchy.is_subclass_of(individual, partner)
        assert hierarchy.is_subclass_of(institution, partner)

    def test_figure2_rule_text(self):
        fig2 = build_figure2_example()
        edge = fig2.warehouse.lineage.edge(
            fig2.staging_customer_id, fig2.integration_partner_id
        )
        assert "string" in edge.rule and "integer" in edge.rule

    def test_figure3_layers_conformant(self):
        snippet = build_figure3_snippet()
        assert validate_graph(snippet.warehouse.graph).conformant

    def test_figure3_edges_sit_in_their_drawn_layers(self):
        snippet = build_figure3_snippet()
        graph = snippet.warehouse.graph
        chain = [
            Triple(snippet.client_information_id, TERMS.is_mapped_to, snippet.partner_id),
            Triple(snippet.partner_id, TERMS.is_mapped_to, snippet.customer_id),
        ]
        view_column = snippet.classes["Application1 View Column"]
        parents = [
            Triple(view_column, RDFS.subClassOf, snippet.classes[label])
            for label in ("Attribute", "Application1 Item", "Interface Item")
        ]
        for edges, layer in ((chain, EdgeCategory.FACTS), (parents, EdgeCategory.HIERARCHY)):
            for edge in edges:
                assert edge in graph
                assert classify_edge(graph, edge).category is layer

    def test_figure3_multiple_inheritance(self):
        snippet = build_figure3_snippet()
        hierarchy = snippet.warehouse.hierarchy
        classes = hierarchy.classes_of(snippet.customer_id)
        assert snippet.classes["Application1 Item"] in classes
        assert snippet.classes["Interface Item"] in classes
        assert snippet.classes["Attribute"] in classes

    def test_figure2_areas(self):
        fig2 = build_figure2_example()
        graph = fig2.warehouse.graph
        assert graph.value(fig2.staging_customer_id, TERMS.in_area, None) == TERMS.area_inbound
        assert graph.value(fig2.integration_partner_id, TERMS.in_area, None) == TERMS.area_integration
        assert graph.value(fig2.mart_client_id, TERMS.in_area, None) == TERMS.area_mart
