"""F4 — Figure 4: the import architecture.

XML feeds and the ontology export are transformed to RDF, staged, bulk
loaded into the model tables, and the entailment indexes are refreshed —
one ``EtlOrchestrator.apply_release`` on an empty warehouse. The
benchmark times the end-to-end load at three scales and verifies the
index-only visibility of derived triples — the defining property of the
Oracle design the paper uses.
"""

import pytest

from repro.core import MetadataWarehouse
from repro.etl import EtlOrchestrator, export_ontology

FEED_TEMPLATE = """
<metadata source="feed-{i}">
  <class name="Application"/>
  <class name="Attribute"/>
  <class name="Source Column" parent="Attribute"/>
  <instance name="app_{i}" class="Application">
    <value property="hasVersion">{i}.0</value>
  </instance>
  {columns}
</metadata>
"""

COLUMN_TEMPLATE = """
  <instance name="col_{i}_{c}" class="Source Column" area="inbound">
    <mapping target="int_col_{c}" rule="load"/>
  </instance>
"""


def make_feeds(n_feeds: int, columns_per_feed: int):
    feeds = []
    for i in range(n_feeds):
        columns = "".join(
            COLUMN_TEMPLATE.format(i=i, c=c) for c in range(columns_per_feed)
        )
        feeds.append(FEED_TEMPLATE.format(i=i, columns=columns))
    return feeds


@pytest.mark.parametrize("n_feeds,columns", [(2, 5), (10, 20), (30, 50)])
def test_fig4_end_to_end_load(benchmark, n_feeds, columns, record):
    feeds = make_feeds(n_feeds, columns)
    # a pre-authored ontology (the Protégé export path)
    authoring = MetadataWarehouse()
    authoring.schema.declare_class("Application")
    item = authoring.schema.declare_class("Item")
    authoring.schema.declare_class("Attribute", parents=item)
    ontology = export_ontology(authoring.graph)

    def load():
        mdw = MetadataWarehouse()
        mdw.build_entailment_index()
        result = EtlOrchestrator(mdw).apply_release(feeds, ontology_text=ontology)
        return mdw, result

    mdw, result = benchmark.pedantic(load, rounds=2, iterations=1)
    assert result.ok, result.summary()
    assert result.documents == n_feeds
    assert "OWLPRIME" in result.refreshed_rulebases

    record(
        "F4",
        f"Figure 4 import pipeline ({n_feeds} feeds x {columns} columns)",
        [
            ("staged rows", str(result.staged_rows)),
            ("inserted", str(result.bulk_report.inserted)),
            ("rejected (paper: quarantined, not fatal)", str(len(result.bulk_report.rejected))),
            ("validation conformant", str(result.validation.conformant)),
        ],
    )


def test_fig4_derived_triples_only_in_index(benchmark, record):
    """Section III.B: "these derived RDF triples do only exist through
    the indexes" — a query without the rulebase must not see them."""
    feeds = make_feeds(4, 10)

    mdw = MetadataWarehouse()
    EtlOrchestrator(mdw).apply_release(feeds)
    mdw.build_entailment_index()

    query = "SELECT ?x WHERE { ?x rdf:type dm:Attribute }"

    def both():
        return (
            len(mdw.query(query)),
            len(mdw.query(query, rulebases=["OWLPRIME"])),
        )

    without, with_rb = benchmark(both)
    assert without == 0          # Source Column instances: base facts only
    assert with_rb == 40         # visible through subclass inheritance
    record(
        "F4b",
        "Figure 4 entailment-index visibility",
        [
            ("rdf:type dm:Attribute without rulebase", str(without)),
            ("rdf:type dm:Attribute with OWLPRIME", str(with_rb)),
        ],
    )


def test_fig4_quarantine_bad_rows(benchmark):
    """A feed with malformed rows loads the good rows and reports the bad."""
    from repro.rdf import BulkLoader, StagingTable, TripleStore

    staging = StagingTable()
    for i in range(100):
        staging.insert(f"<http://x/s{i}>", "<http://x/p>", f'"v{i}"', source="good")
    staging.insert("garbage", "<http://x/p>", '"bad"', source="bad-feed")

    def load():
        store = TripleStore()
        table = StagingTable()
        table._rows = list(staging._rows)  # reuse the prepared rows
        return BulkLoader(store).load(table, "M")

    report = benchmark(load)
    assert report.inserted == 100
    assert len(report.rejected) == 1
    assert report.rejected[0][0].source == "bad-feed"
