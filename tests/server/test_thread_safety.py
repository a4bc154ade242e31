"""Multi-thread hammering of the shared caches and the audit journal.

Satellite coverage for the concurrency work: the plan cache, the
module-level regex cache, and the audit ring buffer must stay
consistent when hit from many threads at once.
"""

import threading

import pytest

from repro.core.audit import AuditJournal
from repro.rdf.graph import Graph
from repro.rdf.namespace import NamespaceManager
from repro.rdf.terms import IRI, Literal
from repro.sparql.plancache import PlanCache
from repro.synth import LandscapeConfig, generate_landscape

THREADS = 8
ROUNDS = 60


def hammer(worker, threads=THREADS):
    """Run ``worker(thread_index)`` in ``threads`` threads; re-raise errors."""
    errors = []
    barrier = threading.Barrier(threads)

    def run(index):
        try:
            barrier.wait(timeout=30)
            worker(index)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    pool = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=120)
    assert not errors, errors


@pytest.fixture(scope="module")
def warehouse():
    return generate_landscape(LandscapeConfig.tiny(seed=31)).warehouse


class TestPlanCache:
    QUERIES = [
        "SELECT ?s WHERE { ?s dm:hasName ?n }",
        "SELECT ?s ?n WHERE { ?s dm:hasName ?n } ORDER BY ?n",
        "SELECT ?a WHERE { ?a dt:isMappedTo ?b }",
        "ASK { ?s dm:hasName ?n }",
    ]

    def test_shared_cache_under_contention(self, warehouse):
        cache = PlanCache(maxsize=8)
        nsm = warehouse.namespaces
        view = warehouse.view()

        def worker(index):
            for round_number in range(ROUNDS):
                text = self.QUERIES[(index + round_number) % len(self.QUERIES)]
                prepared = cache.prepare(view, text, nsm=nsm)
                assert prepared.query is not None
                assert cache.parse(text, nsm=nsm) is not None

        hammer(worker)
        stats = cache.stats()
        total = THREADS * ROUNDS
        # every call was either a hit or a miss — no lost updates;
        # prepare() only consults parse() on a plan miss
        assert stats["plan_hits"] + stats["plan_misses"] == total
        assert (
            stats["parse_hits"] + stats["parse_misses"]
            == total + stats["plan_misses"]
        )
        assert 0.0 <= cache.hit_rate() <= 1.0

    def test_eviction_under_contention_keeps_bound(self, warehouse):
        cache = PlanCache(maxsize=4)
        nsm = warehouse.namespaces

        def worker(index):
            for round_number in range(ROUNDS):
                text = f"SELECT ?s WHERE {{ ?s dm:hasName \"t{index}_{round_number}\" }}"
                assert cache.parse(text, nsm=nsm) is not None

        hammer(worker)
        assert len(cache) <= 4

    def test_concurrent_results_identical(self, warehouse):
        """Queries through the shared cache return the same rows as a
        cold, single-threaded evaluation."""
        expected = sorted(
            tuple(sorted((k, v.n3()) for k, v in row.asdict().items()))
            for row in warehouse.query(self.QUERIES[0])
        )
        observed = []
        lock = threading.Lock()

        def worker(index):
            for _ in range(10):
                rows = warehouse.query(self.QUERIES[0])
                result = sorted(
                    tuple(sorted((k, v.n3()) for k, v in row.asdict().items()))
                    for row in rows
                )
                with lock:
                    observed.append(result)

        hammer(worker)
        assert all(result == expected for result in observed)


class TestRegexCaches:
    def test_expression_regex_cache(self):
        from repro.sparql.expressions import compile_regex

        def worker(index):
            for round_number in range(ROUNDS * 4):
                pattern = f"item_{(index * 31 + round_number) % 600}"
                compiled = compile_regex(pattern, "i")
                assert compiled.search(pattern.upper()) is not None

        hammer(worker)

    def test_search_thesaurus_single_instance(self, warehouse):
        from repro.services.search import SearchService

        service = SearchService(warehouse)
        seen = []
        lock = threading.Lock()

        def worker(index):
            thesaurus = service.thesaurus
            with lock:
                seen.append(thesaurus)

        hammer(worker)
        assert len({id(t) for t in seen}) == 1  # built exactly once


class TestAuditJournal:
    def _rows(self, graph):
        """The id triple each (thread, round) journals — a listener hears
        ids; interned up front, outside the contending threads."""
        intern = graph.dictionary.intern
        return {
            (index, round_number): (
                intern(IRI(f"urn:item:{index}")),
                intern(IRI("urn:p:changed")),
                intern(Literal(f"v{round_number}")),
            )
            for index in range(THREADS)
            for round_number in range(ROUNDS)
        }

    def test_concurrent_appends_no_lost_or_duplicate_sequences(self):
        graph = Graph(name="audit-hammer")
        journal = AuditJournal(graph, capacity=THREADS * ROUNDS + 10)
        rows = self._rows(graph)

        def worker(index):
            for round_number in range(ROUNDS):
                action = "add" if round_number % 2 == 0 else "remove"
                journal._on_change(action, *rows[index, round_number])

        hammer(worker)
        total = THREADS * ROUNDS
        assert journal.total_changes == total
        entries = journal.entries()
        assert len(entries) == total
        sequences = [entry.sequence for entry in entries]
        assert sorted(sequences) == list(range(1, total + 1))  # dense, unique
        summary = journal.epoch_summary()
        assert summary["initial"]["add"] + summary["initial"]["remove"] == total

    def test_ring_eviction_under_contention(self):
        graph = Graph(name="audit-ring")
        journal = AuditJournal(graph, capacity=50)
        rows = self._rows(graph)

        def worker(index):
            for round_number in range(ROUNDS):
                journal._on_change("add", *rows[index, round_number])

        hammer(worker)
        assert len(journal) == 50  # bounded
        assert journal.total_changes == THREADS * ROUNDS  # aggregates complete
        retained = journal.entries()
        # the ring retains the *latest* entries, contiguously
        assert [e.sequence for e in retained] == list(
            range(THREADS * ROUNDS - 49, THREADS * ROUNDS + 1)
        )

    def test_request_attribution_filter(self):
        graph = Graph(name="audit-request")
        journal = AuditJournal(graph, capacity=100)
        rows = self._rows(graph)
        with journal.request_context("w-42"):
            journal._on_change("add", *rows[1, 1])
        journal._on_change("add", *rows[2, 2])
        attributed = journal.entries(request_id="w-42")
        assert len(attributed) == 1
        assert attributed[0].request_id == "w-42"
        assert journal.entries()[1].request_id is None
