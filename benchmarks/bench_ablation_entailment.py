"""A2 — ablation: entailment index on vs. off.

Section III.B: the OWL indexes "add additional edges to the meta-data
graph and therefore increase its density. This is particularly useful in
cases where some multiple edge paths through the graph could be bypassed
by just one additional edge." Measured: result completeness and query
cost with and without ``SEM_RULEBASES('OWLPRIME')``, plus the index
build and incremental-maintenance costs.
"""

from repro.core.vocabulary import TERMS
from repro.rdf import Literal, RDF, Triple


def test_a2_result_completeness(benchmark, medium_landscape_with_index, record):
    mdw = medium_landscape_with_index.warehouse
    query = "SELECT ?x WHERE { ?x rdf:type dm:Attribute }"

    def both():
        return len(mdw.query(query)), len(mdw.query(query, rulebases=["OWLPRIME"]))

    without, with_rb = benchmark(both)
    # rdf:type dm:Attribute holds for no instance directly, but for every
    # column/source-column/report-attribute through the hierarchy
    assert without == 0
    assert with_rb > 100

    index = mdw.store.index("DWH_CURR", "OWLPRIME")
    stats = mdw.statistics()
    record(
        "A2",
        "Entailment index on/off",
        [
            ("instances of dm:Attribute without rulebase", str(without)),
            ("with OWLPRIME", str(with_rb)),
            ("derived triples in index", f"{len(index):,}"),
            ("density base -> base+index",
             f"{stats.density:.2f} -> {(stats.edges + len(index)) / stats.nodes:.2f}"),
        ],
    )


def test_a2_shortcut_edges(benchmark, medium_landscape_with_index, record):
    """The 'bypass multi-edge paths with one edge' effect: with the index
    a one-pattern query answers what otherwise needs a 3-hop walk."""
    mdw = medium_landscape_with_index.warehouse

    def one_pattern_with_index():
        return len(
            mdw.query(
                "SELECT ?x WHERE { ?x rdf:type dm:Item }", rulebases=["OWLPRIME"]
            )
        )

    with_index = benchmark(one_pattern_with_index)

    # the equivalent without the index: walk the subclass tree manually
    item = mdw.schema.class_by_label("Item")
    manual = len(mdw.hierarchy.instances_of(item))
    assert with_index == manual
    record(
        "A2b",
        "Shortcut edges vs multi-hop walk",
        [
            ("1-pattern query via index", str(with_index)),
            ("manual subclass-tree walk", str(manual)),
            ("agreement", str(with_index == manual)),
        ],
    )


def test_a2_index_build_cost(benchmark, medium_landscape, record):
    mdw = medium_landscape.warehouse

    report = benchmark.pedantic(
        lambda: mdw.indexes.build("DWH_CURR", "OWLPRIME"), rounds=1, iterations=1
    )
    assert report.derived_triples > 0
    record(
        "A2c",
        "Index build cost (medium landscape)",
        [
            ("base triples", f"{report.base_triples:,}"),
            ("derived triples", f"{report.derived_triples:,}"),
            ("rounds to fixpoint", str(report.rounds)),
            ("seconds", f"{report.seconds:.2f}"),
        ],
    )


def test_a2_incremental_maintenance(benchmark, medium_landscape_with_index):
    """Refreshing the index after a small load (DRed maintenance over
    the netted delta) beats a full rebuild."""
    mdw = medium_landscape_with_index.warehouse
    column_cls = medium_landscape_with_index.classes["Column"]
    counter = [0]

    def add_and_refresh():
        counter[0] += 1
        node = mdw.facts.namespace.term(f"late_column_{counter[0]}")
        added = [
            Triple(node, RDF.type, column_cls),
            Triple(node, TERMS.has_name, Literal(f"late_{counter[0]}")),
        ]
        for t in added:
            mdw.graph.add(t)
        return mdw.indexes.refresh("DWH_CURR")

    report = benchmark(add_and_refresh)
    assert report.mode == "incremental"
    assert report.rounds >= 1
