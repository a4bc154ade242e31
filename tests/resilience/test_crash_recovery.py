"""A release apply crashed under a :class:`SnapshotManager`.

Readers pin generation N while ``apply_release``, or the snapshot
publish after it, is killed half-way and see N or, after the release is
applied again, N+1 — never the torn state in between. The recovered warehouse's entailment index is fresh
and its answers through the shared plan cache equal a clean apply's.
"""

import random

import pytest

from repro.core.warehouse import MetadataWarehouse
from repro.etl import EtlOrchestrator
from repro.etl.pipeline import RELEASE_SITES
from repro.rdf.ntriples import serialize_ntriples
from repro.resilience import FaultInjector, InjectedFault, fault_scope
from repro.server.snapshot import SnapshotManager
from repro.synth import make_release_feeds

QUERY = "SELECT ?s ?c WHERE { ?s a ?c }"


def warehouse(feeds):
    mdw = MetadataWarehouse()
    mdw.build_entailment_index("OWLPRIME")
    EtlOrchestrator(mdw).apply_release(feeds, mode="full")
    return mdw


def state(mdw):
    """Model and OWLPRIME index N-Triples plus the answers to QUERY."""
    rows = mdw.query(QUERY, rulebases=("OWLPRIME",))
    return (
        serialize_ntriples(mdw.graph),
        serialize_ntriples(mdw.store.index(mdw.model_name, "OWLPRIME")),
        sorted((str(b.get("s")), str(b.get("c"))) for b in rows.iter_bindings()),
    )


@pytest.fixture(scope="module")
def releases():
    rng = random.Random(4)
    release1 = make_release_feeds(rng, documents=2, instances=5)
    release2 = release1[:-1] + make_release_feeds(rng, documents=1, instances=5)
    return release1, release2


def crash_apply(manager, release, site):
    """Kill ``apply_release`` under ``manager.write`` at ``site``."""
    injector = FaultInjector()
    injector.arm(site, "raise", times=1)
    with fault_scope(injector), pytest.raises(InjectedFault):
        manager.write(lambda mdw: EtlOrchestrator(mdw).apply_release(release))


class TestSnapshotIsolation:
    @pytest.mark.parametrize("site", RELEASE_SITES + ["snapshot.publish"])
    def test_pinned_reader_never_sees_partial_generation(self, releases, site):
        release1, release2 = releases
        mdw = warehouse(release1)
        manager = SnapshotManager(mdw)
        pinned = manager.pin()
        generation = pinned.generation
        before = state(pinned.warehouse)

        crash_apply(manager, release2, site)
        # the torn apply was never published: old and new readers alike
        # see generation N, bit for bit
        assert manager.generation == generation
        with manager.read() as snap:
            assert snap.generation == generation
            assert state(snap.warehouse) == before

        manager.write(lambda live: EtlOrchestrator(live).apply_release(release2))
        with manager.read() as snap:
            assert snap.generation > generation
            assert state(snap.warehouse) == state(warehouse(release2))
        # the pin taken before the crash still reads generation N
        assert pinned.generation == generation
        assert state(pinned.warehouse) == before
        manager.release(pinned)


class TestIndexAndPlanCacheCoherence:
    def test_recovered_warehouse_answers_like_the_reference(self, releases):
        release1, release2 = releases
        expected = state(warehouse(release2))
        mdw = warehouse(release1)
        manager = SnapshotManager(mdw)
        with manager.read() as snap:
            state(snap.warehouse)  # warm the shared plan cache on release 1

        # killed mid-DRed maintenance: the model holds release 2, the
        # index still derives from release 1
        crash_apply(manager, release2, "index.refresh")
        assert mdw.indexes.is_stale(mdw.model_name, "OWLPRIME")

        manager.write(lambda live: EtlOrchestrator(live).apply_release(release2))
        assert not mdw.indexes.is_stale(mdw.model_name, "OWLPRIME")
        hits = mdw.plan_cache.plan_hits
        with manager.read() as snap:
            assert state(snap.warehouse) == expected
            assert state(snap.warehouse) == expected
        assert mdw.plan_cache.plan_hits > hits
