"""Unit tests for lineage (use case IV.B, Figures 7 and 8) and impact."""

import pytest

from repro.core import MetadataWarehouse, TERMS
from repro.services import ImpactAnalysis, LineageService, PathExplosionError
from repro.synth import generate_pipeline
from repro.synth.figures import build_figure2_example, build_figure3_snippet


@pytest.fixture
def snippet():
    return build_figure3_snippet()


class TestFigure8Walkthrough:
    def test_dependents_of_type(self, snippet):
        """(isMappedTo)* rdf:type from client_information_id reaches
        customer_id — the paper's exact example."""
        deps = snippet.warehouse.lineage.dependents_of_type(
            snippet.client_information_id,
            ["Application1 Item", "Interface Item"],
        )
        assert deps == [snippet.customer_id]

    def test_intermediate_not_a_valid_target(self, snippet):
        """partner_id is reached but filtered out: it is no
        Application1_View_Column."""
        trace = snippet.warehouse.lineage.downstream(snippet.client_information_id)
        assert snippet.partner_id in trace.items()
        deps = snippet.warehouse.lineage.dependents_of_type(
            snippet.client_information_id,
            ["Application1 Item", "Interface Item"],
        )
        assert snippet.partner_id not in deps

    def test_no_filters_returns_everything_reached(self, snippet):
        deps = snippet.warehouse.lineage.dependents_of_type(
            snippet.client_information_id, []
        )
        assert set(deps) == {snippet.partner_id, snippet.customer_id}


class TestTraces:
    def test_upstream(self, snippet):
        trace = snippet.warehouse.lineage.upstream(snippet.customer_id)
        assert trace.items() == {
            snippet.customer_id,
            snippet.partner_id,
            snippet.client_information_id,
        }
        assert trace.max_depth() == 2
        assert trace.endpoints() == {snippet.client_information_id}

    def test_downstream(self, snippet):
        trace = snippet.warehouse.lineage.downstream(snippet.client_information_id)
        assert trace.endpoints() == {snippet.customer_id}
        assert len(trace) == 2

    def test_max_depth_cuts(self, snippet):
        trace = snippet.warehouse.lineage.downstream(
            snippet.client_information_id, max_depth=1
        )
        assert snippet.customer_id not in trace.items()

    def test_isolated_item(self, snippet):
        mdw = snippet.warehouse
        lonely = mdw.facts.add_instance("lonely", snippet.classes["Attribute"])
        trace = mdw.lineage.upstream(lonely)
        assert trace.items() == {lonely}
        assert trace.endpoints() == {lonely}
        assert trace.max_depth() == 0

    def test_bad_direction(self, snippet):
        with pytest.raises(ValueError):
            snippet.warehouse.lineage.trace(snippet.customer_id, "sideways")

    def test_contains(self, snippet):
        trace = snippet.warehouse.lineage.upstream(snippet.customer_id)
        assert snippet.partner_id in trace

    def test_cycle_terminates(self):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Node")
        a = mdw.facts.add_instance("a", cls)
        b = mdw.facts.add_instance("b", cls)
        mdw.facts.add_mapping(a, b)
        mdw.facts.add_mapping(b, a)
        trace = mdw.lineage.downstream(a)
        assert trace.items() == {a, b}


class TestConditions:
    @pytest.fixture
    def mdw(self):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Node")
        items = {n: mdw.facts.add_instance(n, cls) for n in "abcd"}
        mdw.facts.add_mapping(items["a"], items["b"], condition="country = 'CH'")
        mdw.facts.add_mapping(items["a"], items["c"], condition="country = 'US'")
        mdw.facts.add_mapping(items["b"], items["d"], rule="merge")
        self_items = items
        return mdw, items

    def test_edge_metadata(self, mdw):
        mdw, items = mdw
        edge = mdw.lineage.edge(items["a"], items["b"])
        assert edge.condition == "country = 'CH'"
        edge2 = mdw.lineage.edge(items["b"], items["d"])
        assert edge2.rule == "merge"
        assert edge2.condition is None

    def test_condition_filter_prunes_trace(self, mdw):
        mdw, items = mdw
        trace = mdw.lineage.downstream(
            items["a"],
            condition_filter=lambda e: e.condition is None or "CH" in e.condition,
        )
        assert items["c"] not in trace.items()
        assert items["d"] in trace.items()

    def test_filter_on_paths(self, mdw):
        mdw, items = mdw
        paths = mdw.lineage.paths(items["a"], items["d"])
        assert paths == [[items["a"], items["b"], items["d"]]]
        filtered = mdw.lineage.paths(
            items["a"], items["d"], condition_filter=lambda e: e.condition is None
        )
        assert filtered == []


class TestPathExplosion:
    def test_counts_grow_exponentially(self):
        counts = []
        for depth in (2, 4, 6):
            pipeline = generate_pipeline(
                stages=depth, items_per_stage=3, fan=2, condition_fraction=0.0
            )
            counts.append(pipeline.warehouse.lineage.count_paths(pipeline.source))
        assert counts[0] < counts[1] < counts[2]
        assert counts[2] == 2 ** 6

    def test_condition_filter_bounds_growth(self):
        pipeline = generate_pipeline(
            stages=8, items_per_stage=3, fan=2, condition_fraction=0.6, seed=3
        )
        lineage = pipeline.warehouse.lineage
        unfiltered = lineage.count_paths(pipeline.source)
        filtered = lineage.count_paths(
            pipeline.source,
            condition_filter=lambda e: e.condition is None
            or e.condition == pipeline.conditions_used[0],
        )
        assert filtered < unfiltered

    def test_enumeration_budget(self):
        pipeline = generate_pipeline(
            stages=10, items_per_stage=4, fan=3, condition_fraction=0.0
        )
        lineage = pipeline.warehouse.lineage
        sink = pipeline.stages[-1][0]
        with pytest.raises(PathExplosionError):
            lineage.paths(pipeline.source, sink, max_paths=50)

    def test_count_paths_handles_cycles(self):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Node")
        a = mdw.facts.add_instance("a", cls)
        b = mdw.facts.add_instance("b", cls)
        c = mdw.facts.add_instance("c", cls)
        mdw.facts.add_mapping(a, b)
        mdw.facts.add_mapping(b, a)
        mdw.facts.add_mapping(b, c)
        assert mdw.lineage.count_paths(a) >= 1

    def test_count_paths_on_a_cycle_applies_the_filter(self):
        """The cycle fallback counts only the paths the filter keeps:
        with a→b and b→a kept and a→c dropped, one path is left."""
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("Node")
        a, b, c = (mdw.facts.add_instance(name, cls) for name in "abc")
        mdw.facts.add_mapping(a, b)
        mdw.facts.add_mapping(b, a)
        mdw.facts.add_mapping(a, c, condition="dropped")
        keep = lambda edge: edge.condition != "dropped"  # noqa: E731
        assert mdw.lineage.count_paths(a) == 2
        assert mdw.lineage.count_paths(a, condition_filter=keep) == 1


class TestDrilldown:
    @pytest.fixture
    def fig2(self):
        return build_figure2_example()

    def test_container_chain(self, snippet):
        mdw = snippet.warehouse
        # give customer_id a containment chain: column -> view -> schema
        item_cls = snippet.classes["Item"]
        view = mdw.facts.add_instance("app1_view", item_cls)
        schema = mdw.facts.add_instance("app1_schema", item_cls)
        mdw.graph.add_all(
            [
                (snippet.customer_id, TERMS.belongs_to, view),
                (view, TERMS.belongs_to, schema),
            ]
        )
        chain = mdw.lineage.container_chain(snippet.customer_id)
        assert chain == [snippet.customer_id, view, schema]
        assert mdw.lineage.at_granularity(snippet.customer_id, 1) == view
        assert mdw.lineage.at_granularity(snippet.customer_id, 99) == schema

    def test_flows_attribute_level(self, fig2):
        flows = fig2.warehouse.lineage.flows()
        pairs = {(s, t) for s, t, _ in flows}
        assert (fig2.staging_customer_id, fig2.integration_partner_id) in pairs
        assert (fig2.integration_partner_id, fig2.mart_client_id) in pairs

    def test_flows_aggregate_at_granularity(self):
        from repro.synth import LandscapeConfig, generate_landscape

        landscape = generate_landscape(LandscapeConfig.tiny(seed=5))
        lineage = landscape.warehouse.lineage
        attribute_level = lineage.flows()
        aggregated = lineage.flows(source_granularity=2, target_granularity=2)
        assert len(aggregated) <= len(attribute_level)
        assert sum(n for _, _, n in aggregated) == sum(n for _, _, n in attribute_level)

    def test_flows_scope(self, fig2):
        flows = fig2.warehouse.lineage.flows(source_scope=fig2.staging_customer_id)
        assert len(flows) == 1
        assert flows[0][0] == fig2.staging_customer_id


class TestImpact:
    def test_impact_of_item(self, snippet):
        impact = ImpactAnalysis(snippet.warehouse).of_item(snippet.client_information_id)
        assert impact.blast_radius == 2
        assert impact.max_depth == 2
        assert "affects 2" in impact.summary()

    def test_impact_areas(self, snippet):
        impact = ImpactAnalysis(snippet.warehouse).of_item(snippet.client_information_id)
        assert impact.by_area.get(TERMS.area_integration) == 1
        assert impact.by_area.get(TERMS.area_mart) == 1

    def test_impact_of_application(self):
        from repro.synth import LandscapeConfig, generate_landscape

        landscape = generate_landscape(LandscapeConfig.tiny(seed=5))
        application = landscape.source_applications[0]
        impact = ImpactAnalysis(landscape.warehouse).of_application(application)
        assert impact.blast_radius > 0
        assert application not in impact.affected_applications
