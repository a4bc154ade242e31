"""The paper's shape claims, one test per experiment id of DESIGN.md §4.

Each test runs the report function of its experiment
(``benchmarks/report.py``) on a tiny or small landscape and asserts the
shape the paper states; ``python -m benchmarks.report`` runs the same
functions at report scale to regenerate EXPERIMENTS.md. Claims an older
test already guards are not repeated here (see docs/paper_map.md).
"""

import pytest

from benchmarks import report
from repro.synth import LandscapeConfig, generate_landscape


@pytest.fixture(scope="module")
def tiny():
    return generate_landscape(LandscapeConfig.tiny(seed=report.SEED))


@pytest.fixture(scope="module")
def small():
    return generate_landscape(LandscapeConfig.small(seed=report.SEED))


def test_t1_every_node_and_edge_fits_table_i(tiny):
    t1 = report.t1_taxonomy(tiny.graph)
    kinds = [t1[f"{kind} nodes"] for kind in ("class", "property", "instance", "value")]
    facts, schema, hierarchy = (
        t1[f"{category} edges"] for category in ("facts", "meta-data schema", "hierarchies")
    )
    assert all(kinds) and sum(kinds) == t1["nodes"]
    assert facts + schema + hierarchy == t1["edges"]
    assert t1["edges outside Table I"] == 0
    # one big graph of facts, organised by a thin schema and hierarchy
    assert facts > schema > hierarchy > 0


def test_f1_every_subject_area_is_populated(small):
    f1 = report.f1_subject_areas(small)
    assert all(f1[area] > 0 for area in report.FIGURE_1_AREAS)
    # applications are the centre: each has a database, each database a schema
    assert f1["databases"] <= f1["applications"] <= f1["schemas"]
    assert f1["columns"] > f1["tables"] > 0


def test_f4_every_feed_of_a_release_loads_without_rejects():
    # one feed's load, conformance and index refresh: tests/etl/test_etl.py
    (row,) = report.f4_import_pipeline([(2, 5)])
    assert row["documents loaded"] == 2
    assert row["rejected"] == 0


def test_f4b_derived_types_exist_only_through_the_index():
    f4b = report.f4b_index_visibility()
    # the 40 Source Column instances are dm:Attribute only by inheritance
    assert f4b["rdf:type dm:Attribute without a rulebase"] == 0
    assert f4b["rdf:type dm:Attribute with OWLPRIME"] == 40


def test_f6_every_hit_counts_in_every_ancestor_group(small):
    total, *groups = report.f6_grouped_counts(small, top=None)
    assert total["hits"] > 0
    assert len(groups) >= 5
    assert all(0 < group["hits"] <= total["hits"] for group in groups)
    hits = {group["class"]: group["hits"] for group in groups}
    assert hits["Item"] == total["hits"]
    assert hits["Attribute"] >= hits["Column"]


def test_f7_drilldown_preserves_the_mappings_at_every_granularity(tiny):
    rows = report.f7_drilldown(tiny)
    assert len({row["mappings"] for row in rows}) == 1
    pane_rows = [row["pane rows"] for row in rows]
    assert pane_rows == sorted(pane_rows, reverse=True)
    assert pane_rows[-1] < pane_rows[0]


def test_f8_staging_columns_reach_report_attributes(small):
    f8 = report.f8_lineage_path(small)
    assert f8["… reaching a report attribute"] >= f8["landscape staging columns traced"] // 3
    assert f8["… deepest walk (hops)"] >= 2


def test_f8c_property_paths_agree_with_the_lineage_service(small):
    f8c = report.f8c_property_path(small)
    assert f8c["report attributes via dt:isMappedTo+"] > 0 and f8c["same targets"]
    assert f8c["sources via ^dt:isMappedTo+"] > 0 and f8c["same sources"]


def test_f9_relational_catalog_needs_ddl_for_the_extension():
    f9 = report.f9_extended_scope(LandscapeConfig.tiny(seed=report.SEED))
    assert {"log files", "technical components", "component links", "governance links"} <= set(f9)
    assert f9["graph still Table I conformant"]
    assert f9["relational CREATE TABLE"] >= 4
    assert f9["relational DDL in total (graph: none)"] >= 8


def test_l1_listing1_finds_what_the_search_service_finds(small):
    l1 = report.l1_listing1(small)
    assert l1["landscape: distinct objects from the SQL"] > 0
    assert l1["same items"]


def test_s3_lineage_work_grows_slower_than_the_graph(tiny, small):
    _, larger = report.s3_scale_sweep([("tiny", tiny), ("small", small)])
    assert larger["edges ÷ first"] > 2
    assert larger["visited ÷ first"] < larger["edges ÷ first"]


def test_a1_graph_needs_no_ddl_and_answers_the_fixed_queries(small):
    ddl, create, add, conformant, lookup, lineage = report.a1_relational(small)
    assert ddl["graph warehouse"] == 0
    assert ddl["relational catalog"] == create["relational catalog"] + add["relational catalog"]
    assert ddl["relational catalog"] >= len(report.NOVEL_KINDS)
    assert conformant["graph warehouse"]
    assert lookup["graph warehouse"] >= 1 and lookup["relational catalog"] >= 1
    # the relational mirror holds DWH columns only; the graph also walks
    # the feeding applications
    assert lineage["graph warehouse"] >= lineage["relational catalog"] > 0


def test_a2_derived_types_exist_only_through_the_index(small):
    a2 = report.a2_entailment(small)
    assert a2["rdf:type dm:Attribute without a rulebase"] == 0
    assert a2["rdf:type dm:Attribute with OWLPRIME"] > 100
    assert a2["derived triples in the index"] > 0
    assert a2["density incl. the index"] > a2["density (edges/node), base"]
    # one derived edge bypasses the multi-hop subclass walk
    assert (
        a2["rdf:type dm:Item in one pattern via the index"]
        == a2["instances of Item by walking the subclass tree"]
    )


def test_a4_synonyms_widen_business_terms(small):
    *terms, total = report.a4_synonyms(small)
    assert all(row["with synonyms"] >= row["keyword hits"] for row in terms)
    assert total["with synonyms"] > total["keyword hits"]
    search = small.warehouse.search.search
    assert {"customer", "partner"} & set(search("client", expand_synonyms=True).expanded_terms)


def test_a5_planner_puts_the_selective_pattern_first(small):
    a5 = report.a5_planner(small)
    assert a5["first pattern's predicate"] == "hasName"
    assert a5["same results"]
    assert a5["reduction (×)"] > 5


def test_a6_name_index_scans_fewer_names_for_the_same_hits(small):
    a6 = report.a6_name_index(small)
    assert a6['hits for "customer"'] > 0 and a6["same hits"]
    scanned = a6["names compared per search, instance scan"]
    assert a6["names compared per search, name index"] < scanned
