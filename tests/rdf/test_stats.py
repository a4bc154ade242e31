"""The statistics catalog behind the cost-based planner.

Collection correctness, freshness (the collected predicates are keyed
on the graph's generation, so the request after a write reads what a
fresh catalog would), and the layer-merge semantics of
:class:`CombinedStats` — in particular that distinct counts take the
max across layers, not the sum, so a base model stacked with its
entailment index does not double-count shared subjects.
"""

import pytest

from repro.rdf import CombinedStats, Graph, Namespace, StatsCatalog, Triple

EX = Namespace("http://stats.test/")


def skewed_graph():
    """One predicate: 10 triples, 10 subjects, 3 objects (o0 heavy)."""
    g = Graph()
    for i in range(10):
        g.add(Triple(EX[f"s{i}"], EX.p, EX[f"o{min(i, 2)}"]))
    return g


class TestCatalogCollection:
    def test_counts_and_distincts(self):
        g = skewed_graph()
        stats = g.stats().predicate(g.dictionary.lookup(EX.p))
        assert stats.count == 10
        assert stats.distinct_subjects == 10
        assert stats.distinct_objects == 3

    def test_heavy_hitters_sorted_descending(self):
        g = skewed_graph()
        stats = g.stats().predicate(g.dictionary.lookup(EX.p))
        freqs = [f for _, f in stats.top_objects]
        assert freqs == sorted(freqs, reverse=True)
        assert freqs[0] == 8  # o2 holds subjects s2..s9

    def test_weighted_fanout_exceeds_mean_under_skew(self):
        g = skewed_graph()
        stats = g.stats().predicate(g.dictionary.lookup(EX.p))
        assert stats.weighted_object_fanout() > stats.object_fanout()

    def test_unknown_predicate_is_none(self):
        g = skewed_graph()
        assert g.stats().predicate(10**9) is None


def fields(stats):
    """Every collected value of a PredicateStats (None stays None)."""
    if stats is None:
        return None
    return (
        stats.predicate_id, stats.count, stats.distinct_subjects,
        stats.distinct_objects, stats.top_subjects, stats.top_objects,
    )


class TestGenerationKeyed:
    def test_next_request_after_a_write_is_exact(self):
        g = skewed_graph()
        catalog = g.stats()
        pid = g.dictionary.lookup(EX.p)
        catalog.predicate(pid)  # collected at this generation
        g.add(Triple(EX.extra, EX.p, EX.o0))
        stats = catalog.predicate(pid)
        # the generation moved: recollected, so one write is enough for
        # the distincts and the heavy hitters to be exact, not only the count
        assert (stats.count, stats.distinct_subjects, stats.distinct_objects) == (11, 11, 3)
        assert fields(stats) == fields(StatsCatalog(g).predicate(pid))

    def test_no_write_keeps_the_collected_stats(self):
        g = skewed_graph()
        pid = g.dictionary.lookup(EX.p)
        assert g.stats().predicate(pid) is g.stats().predicate(pid)

    def test_a_predicate_that_appears_after_collection(self):
        g = skewed_graph()
        catalog = g.stats()
        g.add(Triple(EX.a, EX.q, EX.b))
        qid = g.dictionary.lookup(EX.q)
        g.discard(Triple(EX.a, EX.q, EX.b))
        assert catalog.predicate(qid) is None
        g.add(Triple(EX.a, EX.q, EX.b))
        assert catalog.predicate(qid).count == 1


class TestCombinedStatsMerge:
    def layered(self):
        """Base + entailment-style layer sharing all ten subjects."""
        base = skewed_graph()
        derived = Graph(dictionary=base.dictionary)
        for i in range(10):
            derived.add(Triple(EX[f"s{i}"], EX.p, EX[f"derived{i}"]))
        return base, derived

    def test_counts_add_distincts_take_max(self):
        base, derived = self.layered()
        combined = CombinedStats([base.stats(), derived.stats()])
        stats = combined.predicate(base.dictionary.lookup(EX.p))
        assert stats.count == 20
        # both layers cover the same ten subjects: summing would halve
        # every per-subject fanout estimate
        assert stats.distinct_subjects == 10
        assert stats.distinct_objects == 10  # 3 base, 10 derived: max

    def test_heavy_hitters_merge_by_term_id(self):
        base, derived = self.layered()
        combined = CombinedStats([base.stats(), derived.stats()])
        stats = combined.predicate(base.dictionary.lookup(EX.p))
        top = dict(stats.top_subjects)
        # every subject holds one triple per layer
        assert set(top.values()) == {2}

    def test_merge_cache_tracks_layer_churn(self):
        base, derived = self.layered()
        combined = CombinedStats([base.stats(), derived.stats()])
        pid = base.dictionary.lookup(EX.p)
        before = combined.predicate(pid).count
        base.add(Triple(EX.extra, EX.p, EX.o0))
        assert combined.predicate(pid).count == before + 1

    def test_single_layer_passthrough(self):
        base, _ = self.layered()
        catalog = base.stats()
        combined = CombinedStats([catalog])
        pid = base.dictionary.lookup(EX.p)
        assert combined.predicate(pid) is catalog.predicate(pid)
