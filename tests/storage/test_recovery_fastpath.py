"""Cold start: attaching a published snapshot answers like a fresh ETL,
and a release crashed after the last save is recovered by attaching
that snapshot and applying the release again."""

import random

import pytest

from repro.core.warehouse import MetadataWarehouse
from repro.etl import EtlOrchestrator
from repro.rdf.ntriples import serialize_ntriples
from repro.resilience import FaultInjector, InjectedFault, fault_scope
from repro.synth import make_release_feeds


def test_attach_then_reapply_recovers_a_crashed_release(tmp_path):
    rng = random.Random(8)
    release1 = make_release_feeds(rng, documents=2, instances=5)
    release2 = release1[:-1] + make_release_feeds(rng, documents=1, instances=5)

    def fingerprint(mdw):
        index = mdw.store.index(mdw.model_name, "OWLPRIME")
        return serialize_ntriples(mdw.graph), serialize_ntriples(index)

    def full(feeds):
        mdw = MetadataWarehouse()
        mdw.build_entailment_index("OWLPRIME")
        EtlOrchestrator(mdw).apply_release(feeds, mode="full")
        return mdw

    path = full(release1).save_snapshot(tmp_path / "wh.mdws")
    victim = MetadataWarehouse.attach_snapshot(path, mutable_models=None)
    injector = FaultInjector()
    injector.arm("etl.validate", "raise", times=1)
    with fault_scope(injector), pytest.raises(InjectedFault):
        EtlOrchestrator(victim).apply_release(release2)

    # the crashed process's memory is gone; the durable state is the file
    restarted = MetadataWarehouse.attach_snapshot(path, mutable_models=None)
    EtlOrchestrator(restarted).apply_release(release2)
    assert fingerprint(restarted) == fingerprint(full(release2))


def test_cold_start_paths_answer_the_listings_identically(tmp_path):
    """Snapshot attach and a fresh ETL are two ways to the same
    warehouse: same model, same Listing 1/2 answers."""
    from benchmarks.queries import LISTING_1_LANDSCAPE, LISTING_2_LANDSCAPE, LISTING_2_SOURCE
    from repro.core.vocabulary import TERMS
    from repro.synth import LandscapeConfig, generate_landscape

    def etl():
        mdw = generate_landscape(LandscapeConfig.tiny(seed=3)).warehouse
        mdw.build_entailment_index()
        return mdw

    source = etl()
    attached = MetadataWarehouse.attach_snapshot(
        source.save_snapshot(tmp_path / "published.mdws")
    )
    # nothing to write: the model stays lazily mapped (no materialize)
    assert type(attached.graph).__name__ == "MappedGraph"

    mapped = sorted(t.subject.value for t in source.graph.triples(None, TERMS.is_mapped_to, None))
    listings = (LISTING_1_LANDSCAPE, LISTING_2_LANDSCAPE.replace(LISTING_2_SOURCE, mapped[len(mapped) // 2]))

    def answers(mdw):
        return [
            sorted(tuple(sorted(r.asdict().items())) for r in mdw.sem_sql(sql))
            for sql in listings
        ]

    expected = answers(etl())
    assert all(expected), "probes must return rows at tiny scale"
    assert serialize_ntriples(attached.graph) == serialize_ntriples(source.graph)
    assert answers(attached) == expected
