"""End-to-end integration: the full warehouse lifecycle in one scenario.

Generate a landscape → feed a new application through the Figure 4 ETL →
build entailment indexes → run both paper services and the verbatim
listings → historize a release → persist to disk → reopen → verify
everything survived, including an as-of comparison.
"""

import pytest

from repro.core import MetadataWarehouse, TERMS, validate_graph
from repro.etl import EtlOrchestrator, export_ontology
from repro.history import Historizer
from repro.synth import LandscapeConfig, generate_landscape

NEW_APP_FEED = """
<metadata source="onboarding-2026">
  <instance name="esg_scoring_hub" class="Application"/>
  <instance name="esg_scoring_hub_db" class="Database">
    <link property="belongsTo" target="esg_scoring_hub"/>
  </instance>
  <instance name="esg_feed" class="File" area="inbound">
    <link property="belongsTo" target="esg_scoring_hub_db"/>
  </instance>
  <instance name="esg_feed_customer_esg_score" class="Source Column" area="inbound" display-name="customer_esg_score">
    <link property="belongsTo" target="esg_feed"/>
    <mapping target="dwh_int_customer_score" rule="normalize(0..100)" condition="segment = 'private'"/>
  </instance>
  <instance name="dwh_int_customer_score" class="Column" area="integration" display-name="customer_esg_score"/>
</metadata>
"""


@pytest.fixture(scope="module")
def lifecycle(tmp_path_factory):
    """Run the whole lifecycle once; tests inspect its stages."""
    workdir = tmp_path_factory.mktemp("lifecycle")
    landscape = generate_landscape(LandscapeConfig.tiny(seed=42))
    mdw = landscape.warehouse
    historizer = Historizer(mdw.store)
    historizer.snapshot("2026.R1")

    mdw.build_entailment_index()
    # the release that onboards the application is complete: the current
    # model plus the feed's triples, applied as one incremental load
    onboarding = MetadataWarehouse()
    EtlOrchestrator(onboarding).apply_release([NEW_APP_FEED])
    release = mdw.graph.copy()
    release.add_all(onboarding.graph)
    load = EtlOrchestrator(mdw).apply_release(desired=release)

    historizer.snapshot("2026.R2")
    store_dir = workdir / "wh.mdws"
    mdw.save_snapshot(store_dir)
    reopened = MetadataWarehouse.attach_snapshot(store_dir)
    return dict(
        landscape=landscape,
        mdw=mdw,
        load=load,
        historizer=historizer,
        store_dir=store_dir,
        reopened=reopened,
    )


class TestLifecycle:
    def test_etl_load_ok(self, lifecycle):
        load = lifecycle["load"]
        assert load.ok, load.summary()
        assert load.mode == "incremental"
        assert load.added > 0 and load.removed == 0
        assert "OWLPRIME" in load.refreshed_rulebases

    def test_graph_conformant_after_everything(self, lifecycle):
        report = validate_graph(lifecycle["mdw"].graph, max_issues=5)
        assert report.conformant, [i.describe() for i in report.issues]

    def test_new_items_searchable(self, lifecycle):
        results = lifecycle["mdw"].search.search("esg")
        assert "customer_esg_score" in results.instance_names()

    def test_new_lineage_traced_with_condition(self, lifecycle):
        mdw = lifecycle["mdw"]
        from repro.rdf import Literal

        # two items share the display name; the staging-area one is the
        # mapping source
        source = next(
            item
            for item in mdw.graph.subjects(TERMS.has_name, Literal("customer_esg_score"))
            if mdw.graph.value(item, TERMS.in_area, None) == TERMS.area_inbound
        )
        trace = mdw.lineage.downstream(source)
        assert len(trace) == 1
        assert trace.edges[0].rule == "normalize(0..100)"
        assert trace.edges[0].condition == "segment = 'private'"

    def test_entailment_covers_loaded_feed(self, lifecycle):
        mdw = lifecycle["mdw"]
        rows = mdw.query(
            'SELECT ?x WHERE { ?x rdf:type dm:Attribute . ?x dm:hasName "customer_esg_score" }',
            rulebases=["OWLPRIME"],
        )
        assert len(rows) == 2  # the staging column and the integration column

    def test_listing1_verbatim_over_lifecycle_store(self, lifecycle):
        rows = lifecycle["mdw"].sem_sql("""
            SELECT object FROM TABLE(SEM_MATCH(
                {?object dm:hasName ?term},
                SEM_MODELS('DWH_CURR'),
                SEM_RULEBASES('OWLPRIME'),
                SEM_ALIASES(SEM_ALIAS('dm', 'http://www.credit-suisse.com/dwh/mdm/data_modeling#')),
                null))
            WHERE regexp_like(term, 'esg', 'i')
            GROUP BY object
        """)
        assert len(rows) >= 2

    def test_release_delta_contains_the_feed(self, lifecycle):
        historizer = lifecycle["historizer"]
        diff = historizer.diff("2026.R1", "2026.R2")
        assert len(diff.added) >= 10
        assert len(diff.removed) == 0
        assert diff.apply(historizer.get("2026.R1").graph) == historizer.get("2026.R2").graph

    def test_persisted_store_complete(self, lifecycle):
        reopened = lifecycle["reopened"]
        original = lifecycle["mdw"]
        assert reopened.graph == original.graph
        assert set(reopened.store.model_names()) == set(original.store.model_names())
        assert reopened.store.index("DWH_CURR", "OWLPRIME") is not None

    def test_reopened_services_work(self, lifecycle):
        reopened = lifecycle["reopened"]
        assert "customer_esg_score" in reopened.search.search("esg").instance_names()
        rows = reopened.query(
            "SELECT ?x WHERE { ?x rdf:type dm:Attribute }", rulebases=["OWLPRIME"]
        )
        assert len(rows) > 0

    def test_as_of_comparison_after_reload(self, lifecycle):
        reopened = lifecycle["reopened"]
        before = reopened.as_of("2026.R1")
        after = reopened.as_of("2026.R2")
        assert len(before.search.search("esg")) == 0
        assert len(after.search.search("esg")) > 0

    def test_historizer_rehydrates_from_reopened_store(self, lifecycle):
        rehydrated = Historizer(lifecycle["reopened"].store)
        assert rehydrated.version_names() == ["2026.R1", "2026.R2"]
        assert not rehydrated.diff("2026.R1", "2026.R2").is_empty

    def test_ontology_roundtrip_of_final_schema(self, lifecycle):
        from repro.etl import import_ontology

        text = export_ontology(lifecycle["mdw"].graph)
        reimported = import_ontology(text)
        assert export_ontology(reimported) == text
