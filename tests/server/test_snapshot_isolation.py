"""Snapshot isolation: readers vs. concurrent writes.

The acceptance property of the serving tier: a reader pinned to a
snapshot gets **bit-identical** results to a fresh single-threaded run
over the same state, no matter how many writes land while it reads.
"""

import threading

import pytest

from repro.server import SnapshotManager
from repro.synth import LandscapeConfig, generate_landscape

from .conftest import canonical_rows as canonical

NAMES_QUERY = "SELECT ?s ?n WHERE { ?s dm:hasName ?n } ORDER BY ?s ?n"

PREFIXES = (
    "PREFIX cs: <http://www.credit-suisse.com/dwh/> "
    "PREFIX dm: <http://www.credit-suisse.com/dwh/mdm/data_modeling#> "
)


def insert_item(number: int) -> str:
    return (
        PREFIXES + "INSERT DATA { "
        f'cs:iso_item_{number} dm:hasName "iso_item_{number}" '
        "}"
    )


@pytest.fixture()
def warehouse():
    return generate_landscape(LandscapeConfig.tiny(seed=23)).warehouse


class TestPinnedReaders:
    def test_pinned_snapshot_ignores_later_writes(self, warehouse):
        manager = SnapshotManager(warehouse)
        baseline = canonical(warehouse.query(NAMES_QUERY))
        with manager.read() as snap:
            manager.update(insert_item(1))
            # the pinned facade still answers as of the pin
            assert canonical(snap.warehouse.query(NAMES_QUERY)) == baseline
        # a fresh pin sees the write
        with manager.read() as snap:
            after = canonical(snap.warehouse.query(NAMES_QUERY))
        assert len(after) == len(baseline) + 1

    def test_pinned_reader_bit_identical_to_single_threaded_run(self, warehouse):
        """The acceptance check: interleaved update()/query() from threads,
        the pinned reader's rows equal a fresh single-threaded reference."""
        reference = canonical(warehouse.query(NAMES_QUERY))  # pre-write truth
        manager = SnapshotManager(warehouse)
        pinned = manager.pin()
        results = []
        errors = []
        pinned_once = threading.Event()

        def reader():
            try:
                for _ in range(10):
                    results.append(canonical(pinned.warehouse.query(NAMES_QUERY)))
                    pinned_once.set()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                pinned_once.set()

        def writer():
            pinned_once.wait(timeout=10)
            for number in range(5):
                manager.update(insert_item(number))

        threads = [threading.Thread(target=reader), threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        manager.release(pinned)

        assert not errors, errors
        assert len(results) == 10
        for rows in results:
            assert rows == reference  # bit-identical, every read
        # and the live warehouse holds all five writes
        assert len(canonical(warehouse.query(NAMES_QUERY))) == len(reference) + 5

    def test_concurrent_readers_each_see_one_consistent_generation(self, warehouse):
        """Hammer: every concurrent read equals the canonical result of
        *some* published generation — never a torn in-between state."""
        manager = SnapshotManager(warehouse)
        base = len(canonical(warehouse.query(NAMES_QUERY)))
        valid = {base}
        sizes = []
        sizes_lock = threading.Lock()
        errors = []
        stop = threading.Event()

        def reader():
            try:
                while not stop.is_set():
                    with manager.read() as snap:
                        rows = canonical(snap.warehouse.query(NAMES_QUERY))
                    with sizes_lock:
                        sizes.append(len(rows))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        for number in range(8):
            manager.update(insert_item(100 + number))
            valid.add(base + number + 1)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)

        assert not errors, errors
        assert sizes, "readers never completed a query"
        # each insert adds exactly one named item: any intermediate count
        # corresponds to a published snapshot, anything else is a tear
        assert set(sizes) <= valid


class TestPlanCacheAcrossSnapshots:
    def test_plan_reused_but_results_track_generation(self, warehouse):
        """The shared plan cache must not leak stale *results* across
        snapshots: same query text, different generations, fresh rows."""
        manager = SnapshotManager(warehouse)
        with manager.read() as snap:
            before = canonical(snap.warehouse.query(NAMES_QUERY))
        manager.update(insert_item(7))
        with manager.read() as snap:
            after = canonical(snap.warehouse.query(NAMES_QUERY))
        assert len(after) == len(before) + 1
        stats = warehouse.plan_cache.stats()
        assert stats["parse_hits"] >= 1  # the text itself was reused

    def test_snapshot_facade_shares_live_plan_cache(self, warehouse):
        manager = SnapshotManager(warehouse)
        with manager.read() as snap:
            assert snap.warehouse.plan_cache is warehouse.plan_cache


class TestSnapshotBookkeeping:
    def test_pin_counts(self, warehouse):
        manager = SnapshotManager(warehouse)
        snap = manager.pin()
        assert snap.pins == 1
        with manager.read() as inner:
            assert inner is snap
            assert snap.pins == 2
        assert snap.pins == 1
        manager.release(snap)
        assert snap.pins == 0

    def test_write_without_change_does_not_republish(self, warehouse):
        manager = SnapshotManager(warehouse)
        published = manager.stats()["publications"]
        # a DELETE matching nothing leaves the generation unchanged
        manager.update(PREFIXES + 'DELETE DATA { cs:ghost dm:hasName "ghost" }')
        assert manager.stats()["publications"] == published

    def test_entailment_indexes_copied_into_snapshot(self, warehouse):
        warehouse.build_entailment_index("OWLPRIME")
        manager = SnapshotManager(warehouse)
        with manager.read() as snap:
            assert "OWLPRIME" in snap.rulebases
            live = canonical(
                warehouse.query(NAMES_QUERY, rulebases=["OWLPRIME"])
            )
            frozen = canonical(
                snap.warehouse.query(NAMES_QUERY, rulebases=["OWLPRIME"])
            )
        assert frozen == live


ATTRIBUTES = "SELECT ?x WHERE { ?x rdf:type dm:Attribute }"


class TestIndexOnlyChangeIsPublished:
    """Building an index changes what a snapshot captures without
    touching the model: it must be published like a model write."""

    @pytest.fixture()
    def landscape(self):
        return generate_landscape(LandscapeConfig.tiny(seed=2009)).warehouse

    @pytest.mark.parametrize("path", ["refresh", "thread", "fork"])
    def test_served_answer_equals_live(self, landscape, path):
        if path == "refresh":
            manager = SnapshotManager(landscape)
            landscape.build_entailment_index()
            served = manager.refresh().warehouse
            rows = served.query(ATTRIBUTES, rulebases=["OWLPRIME"])
        else:
            with landscape.serve(max_workers=1, worker_mode=path) as service:
                service.query(ATTRIBUTES, rulebases=["OWLPRIME"])  # spawn a worker
                service.snapshots.write(lambda mdw: mdw.build_entailment_index())
                rows = service.query(ATTRIBUTES, rulebases=["OWLPRIME"])
                assert service.health()["stale_indexes"] == []
        live = landscape.query(ATTRIBUTES, rulebases=["OWLPRIME"])
        assert len(live) > 0
        assert canonical(rows) == canonical(live)
