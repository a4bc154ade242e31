"""The MetadataWarehouse facade.

One object tying the substrates together the way the productive system
does: a triple store holding the current model (``DWH_CURR``), the
schema / hierarchy / fact managers over it, entailment-index lifecycle,
SPARQL and SEM_MATCH querying, validation, and statistics. The search
and lineage services (Section IV) are exposed as properties.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace, NamespaceManager
from repro.rdf.store import TripleStore
from repro.reasoning.index import EntailmentIndexManager
from repro.sparql import PlanCache, execute as sparql_execute

from repro.core.facts import FactManager
from repro.core.hierarchy import HierarchyManager
from repro.core.schema import MetadataSchema
from repro.core.statistics import GraphStatistics, collect_statistics
from repro.core.validation import ValidationReport, validate_graph
from repro.core.vocabulary import DM, DT, MDW

#: The default namespace instances are minted in (paper's listing 2 uses
#: plain http://www.credit-suisse.com/dwh/ IRIs for items).
INSTANCE_NS = Namespace("http://www.credit-suisse.com/dwh/")

DEFAULT_MODEL = "DWH_CURR"


class MetadataWarehouse:
    """The meta-data warehouse: one logical graph plus services.

    >>> mdw = MetadataWarehouse()
    >>> cls = mdw.schema.declare_class("Customer")
    >>> item = mdw.facts.add_instance("customer_id", cls)
    >>> mdw.statistics().edges > 0
    True
    """

    def __init__(
        self,
        model: str = DEFAULT_MODEL,
        store: Optional[TripleStore] = None,
        schema_ns: Namespace = DM,
        instance_ns: Namespace = INSTANCE_NS,
    ):
        self.store = store if store is not None else TripleStore()
        self.model_name = model
        self.graph: Graph = self.store.get_or_create_model(model)
        self.schema = MetadataSchema(self.graph, namespace=schema_ns)
        self.hierarchy = HierarchyManager(self.graph)
        self.facts = FactManager(self.graph, self.schema, instance_ns)
        self.indexes = EntailmentIndexManager(self.store)
        self.namespaces = NamespaceManager()
        self.namespaces.bind("dm", schema_ns)
        self.namespaces.bind("dt", DT)
        self.namespaces.bind("mdw", MDW)
        self.namespaces.bind("cs", instance_ns)
        self._search = None
        self._lineage = None
        self._audit = None
        # Shared parse/plan cache: repeated template queries (search,
        # lineage, SEM_MATCH) skip re-parsing and re-planning until the
        # queried view's generation changes.
        self.plan_cache = PlanCache()

    # -- auditing ------------------------------------------------------------

    def enable_audit(self, capacity: int = 10_000):
        """Start journaling every change to the current model.

        Returns the :class:`~repro.core.audit.AuditJournal`; idempotent.
        """
        if self._audit is None:
            from repro.core.audit import AuditJournal

            self._audit = AuditJournal(self.graph, capacity=capacity)
        return self._audit

    @property
    def audit(self):
        """The audit journal, or None when auditing is not enabled."""
        return self._audit

    # -- reasoning ---------------------------------------------------------

    def build_entailment_index(self, rulebase: str = "OWLPRIME"):
        """(Re)build the entailment index of the current model."""
        return self.indexes.build(self.model_name, rulebase)

    def refresh_indexes(self) -> Dict[str, object]:
        """Refresh every entailment index attached to the current model.

        Covers indexes built in this session *and* indexes that arrived
        with a loaded store (the manager treats unknown ones as stale).
        """
        out = {}
        for rulebase in self.indexes.rulebases(self.model_name):
            report = self.indexes.refresh(self.model_name, rulebase)
            if report is not None:
                out[rulebase] = report
        return out

    # -- querying ------------------------------------------------------------

    def query(
        self,
        text: str,
        rulebases: Sequence[str] = (),
        bindings=None,
    ):
        """Run a SPARQL query against the current model.

        ``rulebases`` adds the matching entailment indexes to the queried
        view — without them, derived triples stay invisible. Parsed
        queries and join orders are reused through :attr:`plan_cache`.
        """
        view = self.store.view([self.model_name], rulebases=list(rulebases))
        return sparql_execute(
            view,
            text,
            nsm=self.namespaces,
            bindings=bindings,
            plan_cache=self.plan_cache,
        )

    def explain(
        self,
        text: str,
        rulebases: Sequence[str] = (),
        analyze: bool = False,
    ) -> str:
        """The evaluation plan of a SPARQL query against the current
        model (join order, cardinality estimates, join operators) as the
        plan cache holds it — the plan the next execution runs — plus
        the plan-cache state for the query text.

        ``analyze=True`` additionally *runs* the query under a
        :class:`~repro.obs.profile.QueryProfile` and appends the actual
        runtime profile (operators run, rows in/out, cache hits) —
        EXPLAIN ANALYZE for the warehouse."""
        from repro.sparql import explain as sparql_explain

        view = self.store.view([self.model_name], rulebases=list(rulebases))
        plan = self.plan_cache.prepare(view, text, nsm=self.namespaces)
        rendered = sparql_explain(view, plan.query, plan=plan)
        stats = self.plan_cache.stats()
        rendered += (
            f"\nPLAN CACHE entry generation={plan.generation!r} "
            f"(hits={stats['plan_hits']} misses={stats['plan_misses']} "
            f"entries={stats['plan_entries']})"
        )
        if analyze:
            from repro.obs.profile import profile_scope

            with profile_scope() as prof:
                self.query(text, rulebases=rulebases)
            rendered += "\n" + prof.render(indent="  ")
        return rendered

    def sem_sql(self, sql: str):
        """Run an Oracle-style SEM_MATCH SQL statement (the listings)."""
        from repro.oracle import execute_sem_sql

        return execute_sem_sql(self.store, sql, plan_cache=self.plan_cache)

    def update(self, text: str):
        """Run SPARQL Update statements against the current model.

        The entailment indexes are refreshed afterwards when they were
        built before (updates can invalidate derived triples).
        """
        from repro.sparql import execute_update

        result = execute_update(self.graph, text, nsm=self.namespaces)
        if result.inserted or result.deleted:
            self.refresh_indexes()
        return result

    def view(self, rulebases: Sequence[str] = ()):
        """The read-only query view (model plus requested indexes)."""
        return self.store.view([self.model_name], rulebases=list(rulebases))

    # -- services (Section IV) ---------------------------------------------------

    @property
    def search(self):
        """The search facility (use case IV.A)."""
        if self._search is None:
            from repro.services.search import SearchService

            self._search = SearchService(self)
        return self._search

    @property
    def lineage(self):
        """The lineage / provenance tool (use case IV.B)."""
        if self._lineage is None:
            from repro.services.lineage import LineageService

            self._lineage = LineageService(self)
        return self._lineage

    # -- serving ------------------------------------------------------------

    def serve(self, config=None, **overrides):
        """A concurrent :class:`~repro.server.QueryService` over this
        warehouse: worker pool, bounded admission, per-request deadlines,
        snapshot-isolated reads. See ``docs/serving.md``.

        >>> with mdw.serve(max_workers=2) as service:        # doctest: +SKIP
        ...     rows = service.query("SELECT ...", timeout=1.0)
        """
        from repro.server import QueryService

        return QueryService(self, config=config, **overrides)

    # -- persistence and history ------------------------------------------------

    def save_snapshot(self, path, generation: Optional[int] = None):
        """Persist the whole store (current model, historized versions,
        entailment indexes) as one mmap-able binary snapshot file.

        Atomic and checksummed; the newest version is saved in full and
        each older one as a reverse delta against the next newer one
        when that is smaller. ``generation`` defaults to the current
        model's change counter (the stamp delta segments chain on).
        """
        from repro.storage import save_snapshot_store

        gen = self.graph.generation if generation is None else generation
        return save_snapshot_store(self.store, path, generation=gen)

    @classmethod
    def attach_snapshot(
        cls,
        path,
        model: str = DEFAULT_MODEL,
        segments: Sequence = (),
        mutable_models: Optional[Sequence[str]] = (),
    ) -> "MetadataWarehouse":
        """Open a warehouse over a mapped snapshot file — the fast cold
        start: nothing is deserialized up front, queries read pages
        straight from the mapping.

        A historized version saved as a reverse delta comes back as one
        read-only layered graph over the next newer version.
        ``segments`` is a chain of delta-segment paths layered on top of
        the base (their base generations are verified against the
        snapshot's stamp). ``mutable_models`` materializes the named
        models for writing, after the layering — ``None`` means every
        model saved unfrozen, the reopen-to-write case; the default
        keeps everything mapped and read-only.
        """
        from repro.storage import MappedSnapshot, apply_segments

        snap = MappedSnapshot.open(path)
        return cls(model=model, store=apply_segments(snap, segments, mutable_models))

    def as_of(self, version_name: str) -> "MetadataWarehouse":
        """A read-only warehouse over a historized version.

        The returned facade shares this warehouse's store but is bound
        to the frozen ``HIST_<version>`` model — search, lineage, and
        queries all answer as of that release.
        """
        hist_model = f"HIST_{version_name}"
        if not self.store.has_model(hist_model):
            raise KeyError(
                f"no historized version {version_name!r}; "
                f"snapshot it with a Historizer first"
            )
        return MetadataWarehouse(
            model=hist_model,
            store=self.store,
            schema_ns=self.schema.namespace,
            instance_ns=self.facts.namespace,
        )

    # -- governance ----------------------------------------------------------------

    def validate(self, max_issues: Optional[int] = 100) -> ValidationReport:
        """Audit the current model against Table I."""
        return validate_graph(self.graph, max_issues=max_issues)

    def statistics(self) -> GraphStatistics:
        """Node/edge composition of the current model."""
        return collect_statistics(self.graph)

    def __repr__(self) -> str:
        return (
            f"<MetadataWarehouse model={self.model_name!r} "
            f"triples={len(self.graph)}>"
        )
