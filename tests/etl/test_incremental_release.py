"""Release application (``EtlOrchestrator.apply_release``).

A release describes the *complete* desired model state; these tests pin
the mode resolution, the O(delta) incremental path's bit-identity with a
full rebuild, convergence under re-application (the crash-recovery
story: a load killed at any fault site is recovered by running it
again), and the historizer hookup.
"""

import random

import pytest

from repro.core.warehouse import MetadataWarehouse
from repro.etl import EtlOrchestrator, ReleaseLoadResult
from repro.etl.pipeline import RELEASE_SITES
from repro.history import Historizer
from repro.rdf import Graph, RDF, Triple
from repro.rdf.ntriples import serialize_ntriples
from repro.resilience import FaultInjector, InjectedFault, fault_scope
from repro.synth import make_release_feeds

PROBE_QUERY = "SELECT ?s ?name WHERE { ?s dm:hasName ?name }"


def fresh_warehouse(feeds=()):
    mdw = MetadataWarehouse()
    mdw.build_entailment_index("OWLPRIME")
    if feeds:
        EtlOrchestrator(mdw).apply_release(feeds, mode="full")
    return mdw


def fingerprint(mdw):
    return {
        "model": serialize_ntriples(mdw.graph),
        "index": serialize_ntriples(mdw.store.index(mdw.model_name, "OWLPRIME")),
    }


def state(mdw):
    """The fingerprint plus the ``dm:hasName`` probe's answers."""
    rows = mdw.query(PROBE_QUERY, rulebases=("OWLPRIME",))
    probe = sorted((str(b.get("s")), str(b.get("name"))) for b in rows.iter_bindings())
    return {**fingerprint(mdw), "probe": probe}


def crash_at_every_site(build, load, rerun, expected):
    """Kill ``load`` at every firing of every release fault site, then
    ``rerun`` it, each time on a fresh ``build()``.

    A clean ``load`` under an idle injector is the census of how often
    each site fires. Returns ``(crash_points, diverged)``: every
    ``(site, skip)`` killed at, and those whose recovered state is not
    ``expected``.
    """
    census = FaultInjector()
    mdw = build()
    with fault_scope(census):
        load(mdw)
    points = [
        (site, skip) for site in RELEASE_SITES for skip in range(census.hits(site))
    ]
    diverged = []
    for site, skip in points:
        mdw = build()
        injector = FaultInjector()
        injector.arm(site, "raise", times=1, skip=skip)
        with fault_scope(injector), pytest.raises(InjectedFault):
            load(mdw)
        rerun(mdw)
        if state(mdw) != expected:
            diverged.append((site, skip))
    return points, diverged


class TestModeResolution:
    def test_auto_is_full_on_empty_model(self):
        mdw = MetadataWarehouse()
        feeds = make_release_feeds(random.Random(1))
        result = EtlOrchestrator(mdw).apply_release(feeds)
        assert result.mode == "full"
        assert result.ok and result.added == len(mdw.graph)

    def test_auto_is_incremental_on_loaded_model(self):
        feeds = make_release_feeds(random.Random(1))
        mdw = fresh_warehouse(feeds)
        result = EtlOrchestrator(mdw).apply_release(feeds)
        assert result.mode == "incremental"
        assert result.ok

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            EtlOrchestrator(MetadataWarehouse()).apply_release((), mode="sideways")

    def test_desired_graph_excludes_staged_sources(self):
        mdw = MetadataWarehouse()
        with pytest.raises(ValueError, match="mutually exclusive"):
            EtlOrchestrator(mdw).apply_release(
                ["<metadata source='x'/>"], desired=Graph()
            )


class TestIncrementalEquivalence:
    def test_incremental_matches_full_rebuild(self):
        rng = random.Random(7)
        release1 = make_release_feeds(rng)
        # overlapping successor: shared head, one document replaced —
        # the delta has both additions and retractions
        release2 = release1[:-1] + make_release_feeds(rng, documents=1)

        full = fresh_warehouse(release1)
        EtlOrchestrator(full).apply_release(release2, mode="full")

        incremental = fresh_warehouse(release1)
        result = EtlOrchestrator(incremental).apply_release(
            release2, mode="incremental"
        )
        assert result.added > 0 and result.removed > 0
        assert "OWLPRIME" in " ".join(result.refreshed_rulebases)
        assert fingerprint(incremental) == fingerprint(full)

    def test_reapplication_converges(self):
        # the crash-recovery contract: applying the same release again
        # (e.g. after a crash mid-apply) is an effective no-op
        rng = random.Random(11)
        release1 = make_release_feeds(rng)
        release2 = release1[:-1] + make_release_feeds(rng, documents=1)
        mdw = fresh_warehouse(release1)
        orchestrator = EtlOrchestrator(mdw)
        orchestrator.apply_release(release2, mode="incremental")
        state = fingerprint(mdw)

        again = orchestrator.apply_release(release2, mode="incremental")
        assert (again.added, again.removed) == (0, 0)
        assert again.refreshed_rulebases == []
        assert fingerprint(mdw) == state

    def test_noop_release_changes_nothing(self):
        feeds = make_release_feeds(random.Random(3))
        mdw = fresh_warehouse(feeds)
        generation = mdw.graph.generation
        result = EtlOrchestrator(mdw).apply_release(feeds, mode="incremental")
        assert (result.added, result.removed) == (0, 0)
        assert mdw.graph.generation == generation  # nothing to republish

    def test_graph_level_desired_path(self):
        feeds = make_release_feeds(random.Random(5))
        mdw = fresh_warehouse(feeds)
        desired = mdw.graph.copy(name="desired")
        victim = next(iter(desired.triples(None, RDF.type, None)))
        desired.discard(victim)
        result = EtlOrchestrator(mdw, validate=False).apply_release(
            desired=desired, mode="incremental"
        )
        assert isinstance(result, ReleaseLoadResult)
        assert result.ok and result.bulk_report is None
        assert (result.added, result.removed) == (0, 1)
        assert victim not in mdw.graph


class TestCrashAtEverySite:
    """Running a load again is the one recovery procedure: killed at any
    firing of any fault site, a re-run ends bit-identical (model,
    OWLPRIME index, probe answers) to an uninterrupted load."""

    @pytest.fixture(scope="class")
    def releases(self):
        rng = random.Random(21)
        release1 = make_release_feeds(rng, documents=3, instances=6)
        release2 = release1[:-1] + make_release_feeds(rng, documents=1, instances=6)
        return release1, release2

    @pytest.mark.parametrize("mode", ["full", "incremental"])
    def test_reapplied_release_matches_a_full_rebuild(self, releases, mode):
        release1, release2 = releases
        points, diverged = crash_at_every_site(
            build=lambda: fresh_warehouse(release1),
            load=lambda mdw: EtlOrchestrator(mdw).apply_release(release2, mode=mode),
            rerun=lambda mdw: EtlOrchestrator(mdw).apply_release(release2, mode="auto"),
            expected=state(fresh_warehouse(release2)),
        )
        skipped = {"release.apply"} if mode == "full" else set()
        assert {site for site, _ in points} == set(RELEASE_SITES) - skipped
        assert not diverged, f"{len(diverged)} of {len(points)} diverged: {diverged}"

    def test_rerun_initial_load_matches_a_clean_run(self, releases):
        """The first release into an empty warehouse: killed anywhere, the
        re-run (incremental once the crash left triples behind) converges."""
        feeds, _ = releases

        def load(mdw):
            EtlOrchestrator(mdw).apply_release(feeds)

        points, diverged = crash_at_every_site(
            build=fresh_warehouse, load=load, rerun=load, expected=state(fresh_warehouse(feeds))
        )
        assert {site for site, _ in points} == set(RELEASE_SITES) - {"release.apply"}
        assert not diverged, f"{len(diverged)} of {len(points)} diverged: {diverged}"


class TestHistorizerHookup:
    def test_version_snapshot_after_apply(self):
        rng = random.Random(9)
        release1 = make_release_feeds(rng)
        release2 = release1[:-1] + make_release_feeds(rng, documents=1)
        mdw = MetadataWarehouse()
        historizer = Historizer(mdw.store, model=mdw.model_name)
        orchestrator = EtlOrchestrator(mdw)
        r1 = orchestrator.apply_release(
            release1, mode="full", version="2026.R1", historizer=historizer
        )
        r2 = orchestrator.apply_release(
            release2, mode="incremental", version="2026.R2", historizer=historizer
        )
        assert r1.version == "2026.R1" and r2.version == "2026.R2"
        assert historizer.version_names() == ["2026.R1", "2026.R2"]
        # frozen captures, and the diff between them is exactly the delta
        diff = historizer.diff("2026.R1", "2026.R2")
        assert len(diff.added) == r2.added and len(diff.removed) == r2.removed

    def test_restore_is_delta_driven(self):
        feeds = make_release_feeds(random.Random(13))
        mdw = fresh_warehouse(feeds)
        historizer = Historizer(mdw.store, model=mdw.model_name)
        historizer.snapshot("2026.R1")
        before = serialize_ntriples(mdw.graph)

        extra = Triple(
            mdw.facts.namespace.term("late_arrival"),
            RDF.type,
            mdw.schema.namespace.term("Application"),
        )
        mdw.graph.add(extra)
        generation = mdw.graph.generation
        historizer.restore("2026.R1")
        assert serialize_ntriples(mdw.graph) == before
        # exactly one triple differed, so exactly one change event fired
        assert mdw.graph.generation == generation + 1
