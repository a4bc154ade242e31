"""The ETL orchestrator: the full Figure 4 flow as one call.

:meth:`EtlOrchestrator.apply_release` is the one load. It takes XML feed
documents and an ontology file (or a release already in RDF), transforms
them into the staging tables, converges the target model to the
release's complete state, validates the result against Table I, and
refreshes the entailment indexes — the release-load a production
operator runs, up to 8 times a year.

A crashed load is recovered by running it again: the release describes
a complete state, so a re-run after a crash at any fault site diffs
against whatever the crash left and reaches the state an uninterrupted
load would have produced. Malformed staging rows never abort a load;
they are listed in ``BulkLoadReport.rejected``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.rdf.bulkload import BulkLoader, BulkLoadReport
from repro.rdf.graph import Graph
from repro.rdf.staging import StagingTable
from repro.rdf.store import TripleStore

from repro.core.validation import ValidationReport, validate_graph
from repro.core.warehouse import MetadataWarehouse
from repro.etl.dbpedia import SynonymThesaurus
from repro.etl.ontology_io import import_ontology
from repro.etl.transformer import XmlToRdfTransformer
from repro.etl.xml_source import parse_metadata_xml
from repro.history.diff import diff_graphs
from repro.obs.trace import span
from repro.resilience import faults

#: The fault sites :meth:`EtlOrchestrator.apply_release` passes through:
#: staging, the delta apply itself (incremental mode only), index
#: refresh or DRed maintenance, and validation.
RELEASE_SITES = [
    "staging.stage",
    "release.apply",
    "index.refresh",
    "etl.validate",
]


@dataclass
class ReleaseLoadResult:
    """Outcome of one complete-release application (:meth:`apply_release`).

    ``mode`` records the resolved strategy (``"incremental"`` or
    ``"full"``); ``added``/``removed`` are the effective triples changed
    on the live model — for an incremental apply that is the release
    delta, for a full rebuild the whole model.
    """

    mode: str = "full"
    documents: int = 0
    staged_rows: int = 0
    added: int = 0
    removed: int = 0
    bulk_report: Optional[BulkLoadReport] = None
    validation: Optional[ValidationReport] = None
    refreshed_rulebases: List[str] = field(default_factory=list)
    thesaurus_edges: int = 0
    version: Optional[str] = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        # bulk_report is None on the graph-level (``desired=``) path,
        # where there is no staging and nothing can be rejected
        return (self.bulk_report is None or not self.bulk_report.rejected) and (
            self.validation is None or self.validation.conformant
        )

    def summary(self) -> str:
        parts = [
            f"{self.mode} release apply: {self.documents} document(s), "
            f"+{self.added} / -{self.removed} triples"
        ]
        if self.validation:
            parts.append(
                f"validation: {self.validation.violation_count} violation(s)"
            )
        if self.refreshed_rulebases:
            parts.append(f"indexes refreshed: {', '.join(self.refreshed_rulebases)}")
        if self.version:
            parts.append(f"historized as {self.version}")
        parts.append(f"{self.seconds:.3f}s")
        return "; ".join(parts)


class EtlOrchestrator:
    """Runs the Figure 4 pipeline against one warehouse."""

    def __init__(self, warehouse: MetadataWarehouse, validate: bool = True):
        self._mdw = warehouse
        self._validate = validate
        self._transformer = XmlToRdfTransformer(
            schema_ns=warehouse.schema.namespace,
            instance_ns=warehouse.facts.namespace,
        )

    @property
    def transformer(self) -> XmlToRdfTransformer:
        return self._transformer

    def apply_release(
        self,
        xml_documents: Sequence[str] = (),
        ontology_text: Optional[str] = None,
        thesaurus: Optional[SynonymThesaurus] = None,
        mode: str = "auto",
        version: Optional[str] = None,
        historizer=None,
        desired: Optional[Graph] = None,
    ) -> ReleaseLoadResult:
        """Converge the live model to a *complete* release state.

        The documents describe the **full desired content** of the
        model — exactly the paper's release semantics, where each
        release delivers the whole meta-data graph. On an empty
        warehouse that is the initial load.

        ``mode``:

        * ``"full"`` — clear the model, reload everything, rebuild every
          entailment index from scratch (the escape hatch);
        * ``"incremental"`` — stage the release into a scratch model
          sharing the live term dictionary, diff it against the live
          model in id space, and apply only the delta in place. The
          entailment indexes then refresh by DRed maintenance, caches
          patch instead of clearing, and snapshot republication is
          copy-on-write — the whole load is O(delta);
        * ``"auto"`` (default) — incremental when a prior version is
          loaded (the live model is non-empty), else full.

        Incremental application is convergent: re-running the same
        release after a mid-apply crash finishes the job
        (``tests/etl/test_incremental_release.py`` crashes it at every
        firing of every :data:`RELEASE_SITES` site and checks exactly
        this). With ``historizer`` and ``version`` the converged state
        is historized afterwards.

        A release whose state is already RDF (a historized version, a
        replica catch-up, a benchmark scenario) can be passed directly
        as ``desired`` instead of XML sources — staging is skipped and
        the graph *is* the desired model content.
        """
        if mode not in ("auto", "incremental", "full"):
            raise ValueError(f"unknown release mode {mode!r}")
        if desired is not None and (
            xml_documents or ontology_text is not None or thesaurus is not None
        ):
            raise ValueError("desired graph and staged sources are mutually exclusive")
        started = time.perf_counter()
        live = self._mdw.graph
        resolved = mode if mode != "auto" else ("incremental" if live else "full")
        result = ReleaseLoadResult(mode=resolved)

        with span("etl.release", "etl", mode=resolved, version=version or "") as rel:
            if desired is None:
                staging = StagingTable(name=f"release-{version or 'load'}")
                with span("etl.stage", "etl"):
                    if ontology_text is not None:
                        faults.fire("staging.stage")
                        import_ontology(ontology_text, staging=staging)
                    for xml_text in xml_documents:
                        faults.fire("staging.stage")
                        document = parse_metadata_xml(xml_text)
                        self._transformer.stage(document, staging)
                        result.documents += 1
                result.staged_rows = len(staging)
            else:
                staging = None

            if resolved == "full":
                result.removed = len(live)
                live.clear()
                with span("etl.bulkload", "etl"):
                    if staging is not None:
                        result.bulk_report = BulkLoader(self._mdw.store).load(
                            staging, self._mdw.model_name
                        )
                        if thesaurus is not None:
                            result.thesaurus_edges = thesaurus.materialize(live)
                    else:
                        live.add_all(desired)
                result.added = len(live)
            else:
                if staging is not None:
                    # materialize the desired state off to the side, sharing
                    # the live dictionary so the diff below runs on interned ids
                    with span("etl.bulkload", "etl", target="scratch"):
                        scratch = TripleStore()
                        desired = Graph(dictionary=live.dictionary)
                        scratch.adopt_model(self._mdw.model_name, desired)
                        result.bulk_report = BulkLoader(scratch).load(
                            staging, self._mdw.model_name
                        )
                        if thesaurus is not None:
                            result.thesaurus_edges = thesaurus.materialize(desired)
                with span("etl.diff", "etl") as diff_attrs:
                    delta = diff_graphs(live, desired)
                    diff_attrs["added"] = len(delta.added)
                    diff_attrs["removed"] = len(delta.removed)
                with span("etl.apply", "etl"):
                    faults.fire("release.apply")
                    result.added, result.removed = delta.apply_in_place(live)

            if self._validate:
                with span("etl.validate", "etl"):
                    faults.fire("etl.validate")
                    result.validation = validate_graph(live, max_issues=25)

            with span("etl.index-refresh", "etl", mode=resolved):
                if resolved == "full":
                    model = self._mdw.model_name
                    for rulebase in self._mdw.indexes.rulebases(model):
                        self._mdw.indexes.build(model, rulebase)
                        result.refreshed_rulebases.append(rulebase)
                else:
                    result.refreshed_rulebases = sorted(self._mdw.refresh_indexes())

            if historizer is not None and version is not None:
                with span("etl.historize", "etl", version=version):
                    historizer.snapshot(version)
                result.version = version
            result.seconds = time.perf_counter() - started
            rel["added"] = result.added
            rel["removed"] = result.removed
        return result
