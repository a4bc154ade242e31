"""Kill-at-every-fault-point crash recovery: bit-identical convergence.

The contract under test is the strongest the subsystem makes: a load
killed at *any* fault point, recovered through the journal (or re-run
when the journal never opened), converges to exactly the state an
uninterrupted load produces — same triples, same entailment indexes,
same answers, and a coherent plan cache.
"""

import pytest

from repro.core.warehouse import MetadataWarehouse
from repro.rdf.bulkload import BulkLoadError, BulkLoader
from repro.rdf.ntriples import serialize_ntriples
from repro.rdf.staging import StagingTable
from repro.resilience import (
    FaultInjector,
    InjectedFault,
    LoadJournal,
    QuarantineStore,
    ResilientBulkLoader,
    RetryPolicy,
    recover,
    rollback_to_snapshot,
)
from repro.resilience.chaos import LOAD_SITES
from repro.resilience.faults import fault_scope
from repro.resilience.quarantine import MALFORMED_TERM, TRANSIENT_EXHAUSTED

EX = "http://example.org/"

FAST_RETRY = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)

#: fault points reached by a direct ResilientBulkLoader.load (no ETL
#: around it, so no staging/validate/index sites)
LOADER_SITES = [
    "bulkload.parse",
    "journal.begin",
    "bulkload.batch",
    "journal.checkpoint",
    "bulkload.commit",
]


def fill_staging(rows=20):
    staging = StagingTable(name="feed")
    for n in range(rows):
        staging.insert(f"<{EX}s{n}>", f"<{EX}p>", f'"v{n}"', source="feed-a")
    return staging


def resilient_load(journal_path, rows=20, batch_size=4, injector=None):
    """One journaled load into a fresh store; returns (store, report-or-fault)."""
    mdw = MetadataWarehouse()
    journal = LoadJournal(journal_path, durable=False)
    loader = ResilientBulkLoader(
        mdw.store,
        journal,
        retry=FAST_RETRY,
        batch_size=batch_size,
        sleep=lambda _s: None,
    )
    fault = None
    try:
        if injector is not None:
            with fault_scope(injector):
                loader.load(fill_staging(rows), mdw.model_name)
        else:
            loader.load(fill_staging(rows), mdw.model_name)
    except InjectedFault as exc:
        fault = exc
    journal.close()
    return mdw, fault


class TestKillAtEveryFaultPoint:
    @pytest.fixture(scope="class")
    def expected(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ref") / "ref.journal"
        mdw, fault = resilient_load(path)
        assert fault is None
        return serialize_ntriples(mdw.graph)

    @pytest.mark.parametrize("site", LOADER_SITES)
    @pytest.mark.parametrize("skip", [0, 1])
    def test_recover_converges_bit_identically(self, tmp_path, expected, site, skip):
        injector = FaultInjector(seed=1)
        injector.arm(site, "raise", times=1, skip=skip)
        journal_path = tmp_path / "crash.journal"
        mdw, fault = resilient_load(journal_path, injector=injector)

        if fault is None:
            # skip exceeded the site's hit count (e.g. commit fires once):
            # the load simply succeeded — already converged
            assert serialize_ntriples(mdw.graph) == expected
            return

        report = recover(mdw, journal_path, durable=False)
        if report.action in ("none", "void"):
            # crashed before the write-ahead: model must be untouched,
            # and a plain re-run must converge
            assert len(mdw.graph) == 0
            mdw, fault2 = resilient_load(tmp_path / "rerun.journal")
            assert fault2 is None
        else:
            assert report.action == "replayed"
        assert serialize_ntriples(mdw.graph) == expected

        # recovery sealed (or never opened) the journal: recovering
        # again is a no-op and the converged state stays put
        assert recover(mdw, journal_path, durable=False).action == "none"
        assert serialize_ntriples(mdw.graph) == expected

    def test_in_process_resume_from_checkpoint(self, tmp_path, expected):
        injector = FaultInjector(seed=1)
        injector.arm("bulkload.batch", "raise", times=1, skip=3)
        journal_path = tmp_path / "crash.journal"
        mdw, fault = resilient_load(journal_path, injector=injector)
        assert fault is not None
        assert 0 < len(mdw.graph) < 20  # genuinely half-loaded

        # same process: the applied prefix is still in the graph, so the
        # cheap from_checkpoint resume suffices
        report = recover(mdw, journal_path, from_checkpoint=True, durable=False)
        assert report.action == "replayed"
        assert serialize_ntriples(mdw.graph) == expected


class TestIndexAndPlanCacheCoherence:
    def test_recovered_warehouse_answers_like_the_reference(self, tmp_path):
        query = "SELECT ?s ?v WHERE { ?s ?p ?v }"

        def build(journal_path, injector=None):
            mdw, fault = resilient_load(journal_path, injector=injector)
            return mdw, fault

        ref, fault = build(tmp_path / "ref.journal")
        assert fault is None
        ref.build_entailment_index("OWLPRIME")
        expected_index = serialize_ntriples(
            ref.store.index(ref.model_name, "OWLPRIME")
        )
        expected_rows = len(ref.query(query, rulebases=("OWLPRIME",)))

        injector = FaultInjector(seed=2)
        injector.arm("bulkload.batch", "raise", times=1, skip=2)
        crashed, fault = build(tmp_path / "crash.journal", injector=injector)
        assert fault is not None
        crashed.build_entailment_index("OWLPRIME")  # built over partial state
        recover(crashed, tmp_path / "crash.journal", durable=False)

        # recover() refreshed the stale index; answers match exactly,
        # through the plan cache both sides share per-warehouse
        assert not crashed.indexes.is_stale(crashed.model_name, "OWLPRIME")
        actual_index = serialize_ntriples(
            crashed.store.index(crashed.model_name, "OWLPRIME")
        )
        assert actual_index == expected_index
        assert len(crashed.query(query, rulebases=("OWLPRIME",))) == expected_rows
        assert len(crashed.query(query, rulebases=("OWLPRIME",))) == expected_rows


class TestRollbackToSnapshot:
    def test_half_load_voided_against_pinned_snapshot(self, tmp_path):
        from repro.server.snapshot import SnapshotManager

        mdw = MetadataWarehouse()
        staging = fill_staging(6)
        BulkLoader(mdw.store).load(staging, mdw.model_name)
        manager = SnapshotManager(mdw)
        with manager.read() as snap:
            baseline = serialize_ntriples(snap.warehouse.graph)

            # a half-load lands some genuinely new rows (batches past
            # the baseline's 6 duplicates) before dying
            injector = FaultInjector(seed=3)
            injector.arm("bulkload.batch", "raise", times=1, skip=4)
            journal = LoadJournal(tmp_path / "half.journal", durable=False)
            loader = ResilientBulkLoader(
                mdw.store, journal, retry=FAST_RETRY, batch_size=2,
                sleep=lambda _s: None,
            )
            with pytest.raises(InjectedFault):
                with fault_scope(injector):
                    loader.load(fill_staging(12), mdw.model_name)
            journal.close()
            assert serialize_ntriples(mdw.graph) != baseline

            changed = rollback_to_snapshot(mdw, snap)
            assert changed > 0
            assert serialize_ntriples(mdw.graph) == baseline
            # the pinned reader saw the frozen copy throughout
            assert serialize_ntriples(snap.warehouse.graph) == baseline

    def test_pinned_reader_never_sees_partial_generation(self, tmp_path):
        from repro.server.snapshot import SnapshotManager

        mdw = MetadataWarehouse()
        BulkLoader(mdw.store).load(fill_staging(5), mdw.model_name)
        manager = SnapshotManager(mdw)
        snap = manager.pin()
        before = serialize_ntriples(snap.warehouse.graph)
        generation = snap.generation

        injector = FaultInjector(seed=4)
        injector.arm("bulkload.batch", "raise", times=1, skip=4)
        journal = LoadJournal(tmp_path / "load.journal", durable=False)
        loader = ResilientBulkLoader(
            mdw.store, journal, retry=FAST_RETRY, batch_size=2,
            sleep=lambda _s: None,
        )
        with pytest.raises(InjectedFault):
            with fault_scope(injector):
                loader.load(fill_staging(10), mdw.model_name)
        journal.close()

        assert serialize_ntriples(mdw.graph) != before  # live is half-loaded
        assert snap.generation == generation
        assert serialize_ntriples(snap.warehouse.graph) == before
        manager.release(snap)


class TestQuarantine:
    def test_malformed_rows_divert_instead_of_aborting(self, tmp_path):
        mdw = MetadataWarehouse()
        staging = fill_staging(4)
        staging.insert("no-angle-brackets", f"<{EX}p>", '"v"', source="feed-bad")
        journal = LoadJournal(tmp_path / "load.journal", durable=False)
        quarantine = QuarantineStore(tmp_path / "quarantine.jsonl")
        loader = ResilientBulkLoader(
            mdw.store, journal, quarantine=quarantine, retry=FAST_RETRY,
            sleep=lambda _s: None,
        )
        report = loader.load(staging, mdw.model_name)
        journal.close()
        assert report.inserted == 4
        assert len(report.quarantined) == 1
        assert report.quarantined[0].code == MALFORMED_TERM
        assert "quarantined" in report.summary()

        # persistent: a fresh store over the same file sees the entry
        quarantine.close()
        reopened = QuarantineStore(tmp_path / "quarantine.jsonl")
        assert reopened.by_code() == {MALFORMED_TERM: 1}
        assert reopened.entries()[0].source == "feed-bad"
        reopened.close()

    def test_transient_parse_faults_retry_then_quarantine(self, tmp_path):
        mdw = MetadataWarehouse()
        injector = FaultInjector(seed=5)
        injector.arm("bulkload.parse", "raise")  # every parse attempt fails
        journal = LoadJournal(tmp_path / "load.journal", durable=False)
        loader = ResilientBulkLoader(
            mdw.store, journal, retry=FAST_RETRY, sleep=lambda _s: None,
        )
        with fault_scope(injector):
            report = loader.load(fill_staging(3), mdw.model_name)
        journal.close()
        assert len(report.quarantined) == 3
        assert {e.code for e in report.quarantined} == {TRANSIENT_EXHAUSTED}
        assert all(e.attempts == FAST_RETRY.max_attempts for e in report.quarantined)
        assert report.inserted == 0

    def test_transient_fault_that_heals_is_retried_to_success(self, tmp_path):
        mdw = MetadataWarehouse()
        injector = FaultInjector(seed=6)
        injector.arm("bulkload.parse", "raise", times=1)  # first attempt only
        journal = LoadJournal(tmp_path / "load.journal", durable=False)
        loader = ResilientBulkLoader(
            mdw.store, journal, retry=FAST_RETRY, sleep=lambda _s: None,
        )
        with fault_scope(injector):
            report = loader.load(fill_staging(3), mdw.model_name)
        journal.close()
        assert report.inserted == 3
        assert not report.quarantined


class TestBulkLoadErrorProgress:
    def test_load_many_reports_rows_loaded_before_failure(self):
        mdw = MetadataWarehouse()
        good = fill_staging(5)
        bad = StagingTable(name="bad")
        bad.insert("garbage row", f"<{EX}p>", '"v"')
        loader = BulkLoader(mdw.store, strict=True)
        with pytest.raises(BulkLoadError) as err:
            loader.load_many([good, bad], mdw.model_name)
        assert err.value.loaded == 5
        assert "after 5 row(s) loaded" in str(err.value)
        assert len(err.value.rejected) == 1

    def test_single_strict_load_reports_zero_loaded(self):
        mdw = MetadataWarehouse()
        bad = StagingTable(name="bad")
        bad.insert("garbage row", f"<{EX}p>", '"v"')
        with pytest.raises(BulkLoadError) as err:
            BulkLoader(mdw.store, strict=True).load(bad, mdw.model_name)
        assert err.value.loaded == 0


class TestEtlLevelRecovery:
    @pytest.mark.parametrize("site", LOAD_SITES)
    def test_orchestrated_load_recovers_at_every_site(self, tmp_path, site):
        import random

        from repro.etl.pipeline import EtlOrchestrator, ResilienceConfig
        from repro.resilience.chaos import make_release_feeds

        feeds = make_release_feeds(random.Random(9), documents=2, instances=5)

        def run(journal_path, injector=None):
            mdw = MetadataWarehouse()
            orchestrator = EtlOrchestrator(
                mdw,
                resilience=ResilienceConfig(
                    journal_path=journal_path,
                    batch_size=5,
                    durable=False,
                    retry=FAST_RETRY,
                ),
            )
            fault = None
            try:
                if injector is not None:
                    with fault_scope(injector):
                        mdw.build_entailment_index("OWLPRIME")
                        orchestrator.run(xml_documents=feeds)
                else:
                    mdw.build_entailment_index("OWLPRIME")
                    orchestrator.run(xml_documents=feeds)
            except InjectedFault as exc:
                fault = exc
            orchestrator.close_journal()
            return mdw, fault

        ref, fault = run(tmp_path / "ref.journal")
        assert fault is None
        expected = serialize_ntriples(ref.graph)

        injector = FaultInjector(seed=10)
        # index.refresh is also hit by the pre-load index build; skip
        # that one so the crash lands in the post-load refresh
        injector.arm(site, "raise", times=1, skip=1 if site == "index.refresh" else 0)
        journal_path = tmp_path / "crash.journal"
        mdw, fault = run(journal_path, injector=injector)
        assert fault is not None, f"site {site} never fired"

        if journal_path.exists():
            report = recover(mdw, journal_path, durable=False)
        else:
            report = None
        if report is None or report.action in ("none", "void"):
            mdw, fault = run(tmp_path / "rerun.journal")
            assert fault is None
        assert serialize_ntriples(mdw.graph) == expected
