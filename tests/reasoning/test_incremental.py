"""DRed maintenance: the incremental entailment-index path.

Every scenario cross-checks against a from-scratch ``closure()`` of the
post-delta base — the maintained index must be bit-identical to a
rebuild, only cheaper.
"""

import random

import pytest

import repro.reasoning.index as index_module
from repro.history import diff_graphs
from repro.rdf import Graph, Namespace, RDF, RDFS, TermDictionary, Triple, TripleStore
from repro.rdf.ntriples import serialize_ntriples
from repro.reasoning import (
    DeltaTracker,
    EntailmentIndexManager,
    OWLPRIME,
    RDFS_RULEBASE,
    closure,
    maintain_closure,
)

EX = Namespace("http://x/")


def diamond_graph():
    """C below T along two independent legs (A and B), one instance."""
    g = Graph()
    g.add(Triple(EX.C, RDFS.subClassOf, EX.A))
    g.add(Triple(EX.C, RDFS.subClassOf, EX.B))
    g.add(Triple(EX.A, RDFS.subClassOf, EX.T))
    g.add(Triple(EX.B, RDFS.subClassOf, EX.T))
    g.add(Triple(EX.x, RDF.type, EX.C))
    return g


def id_rows(graph, triples):
    """``triples`` as id triples in ``graph``'s dictionary: the delta
    ``maintain_closure`` takes."""
    intern = graph.dictionary.intern
    return [tuple(intern(x) for x in t) for t in triples]


def assert_equals_rebuild(base, derived, rulebase=RDFS_RULEBASE):
    rebuilt, _ = closure(base, rulebase)
    assert serialize_ntriples(derived) == serialize_ntriples(rebuilt)


def test_dred_needs_the_index_in_the_base_dictionary():
    # DRed joins model and index on ids; an index in another dictionary
    # is refused instead of silently matching nothing
    base = diamond_graph()
    foreign = Graph(closure(base, RDFS_RULEBASE)[0], dictionary=TermDictionary())
    with pytest.raises(ValueError, match="dictionary"):
        maintain_closure(base, foreign, (), (), RDFS_RULEBASE)


class TestDredRetraction:
    def test_retraction_removes_premise_of_derived_triple(self):
        base = diamond_graph()
        derived, _ = closure(base, RDFS_RULEBASE)
        assert Triple(EX.x, RDF.type, EX.T) in derived

        gone = Triple(EX.x, RDF.type, EX.C)
        base.discard(gone)
        report = maintain_closure(base, derived, (), id_rows(base, [gone]), RDFS_RULEBASE)

        # everything the retracted premise supported is gone for good
        assert Triple(EX.x, RDF.type, EX.A) not in derived
        assert Triple(EX.x, RDF.type, EX.T) not in derived
        assert report.overdeleted >= 3
        assert_equals_rebuild(base, derived)

    def test_rederivation_via_alternate_derivation(self):
        base = diamond_graph()
        derived, _ = closure(base, RDFS_RULEBASE)

        # C⊑T has two derivations (via A and via B); cutting one leg
        # overdeletes it, rederivation brings it back through the other
        gone = Triple(EX.A, RDFS.subClassOf, EX.T)
        base.discard(gone)
        report = maintain_closure(base, derived, (), id_rows(base, [gone]), RDFS_RULEBASE)

        assert Triple(EX.C, RDFS.subClassOf, EX.T) in derived
        assert Triple(EX.x, RDF.type, EX.T) in derived
        assert Triple(EX.x, RDF.type, EX.A) in derived  # C⊑A leg untouched
        assert report.overdeleted > 0
        assert report.rederived > 0
        assert_equals_rebuild(base, derived)

    def test_retracted_base_triple_still_entailed_enters_index(self):
        # C⊑T asserted *and* derivable; the derived-only closure excludes
        # it while asserted, and must include it once only derivable
        base = diamond_graph()
        asserted = Triple(EX.C, RDFS.subClassOf, EX.T)
        base.add(asserted)
        derived, _ = closure(base, RDFS_RULEBASE)
        assert asserted not in derived

        base.discard(asserted)
        maintain_closure(base, derived, (), id_rows(base, [asserted]), RDFS_RULEBASE)
        assert asserted in derived
        assert_equals_rebuild(base, derived)

    def test_added_base_triple_that_was_derived_leaves_index(self):
        base = diamond_graph()
        derived, _ = closure(base, RDFS_RULEBASE)
        promoted = Triple(EX.x, RDF.type, EX.T)
        assert promoted in derived

        base.add(promoted)
        maintain_closure(base, derived, id_rows(base, [promoted]), (), RDFS_RULEBASE)
        assert promoted not in derived
        assert_equals_rebuild(base, derived)

    def test_insertion_only_maintenance(self):
        base = diamond_graph()
        derived, _ = closure(base, RDFS_RULEBASE)
        added = [
            Triple(EX.T, RDFS.subClassOf, EX.Root),
            Triple(EX.y, RDF.type, EX.B),
        ]
        base.add_all(added)
        report = maintain_closure(base, derived, id_rows(base, added), (), RDFS_RULEBASE)
        assert report.mode == "incremental"
        assert Triple(EX.y, RDF.type, EX.Root) in derived
        assert_equals_rebuild(base, derived)

    def test_noop_delta_is_a_noop(self):
        base = diamond_graph()
        derived, _ = closure(base, RDFS_RULEBASE)
        before = serialize_ntriples(derived)
        report = maintain_closure(base, derived, (), (), RDFS_RULEBASE)
        assert serialize_ntriples(derived) == before
        assert report.overdeleted == 0 and report.rederived == 0


class TestDeltaTracker:
    def test_compensating_changes_net_to_fresh(self):
        g = diamond_graph()
        tracker = DeltaTracker(g)
        t = Triple(EX.z, RDF.type, EX.C)
        g.add(t)
        assert tracker.dirty
        g.discard(t)
        assert not tracker.dirty
        assert tracker.peek() == ([], [])

    def test_peek_nets_adds_and_removes(self):
        g = diamond_graph()
        tracker = DeltaTracker(g)
        added = Triple(EX.z, RDF.type, EX.C)
        removed = Triple(EX.x, RDF.type, EX.C)
        g.add(added)
        g.discard(removed)
        assert tracker.peek() == (id_rows(g, [added]), id_rows(g, [removed]))
        tracker.mark()
        assert not tracker.dirty

    def test_overflow_declares_defeat(self):
        g = diamond_graph()
        tracker = DeltaTracker(g)
        tracker._limit = 3
        for i in range(5):
            g.add(Triple(EX.term(f"inst{i}"), RDF.type, EX.C))
        assert tracker.overflown and tracker.dirty
        tracker.mark()
        assert not tracker.overflown


class TestManagerRefresh:
    def _warehouse_like(self):
        store = TripleStore()
        g = store.get_or_create_model("M")
        g.add_all(diamond_graph())
        manager = EntailmentIndexManager(store)
        manager.build("M", "RDFS")
        return store, g, manager

    def test_refresh_runs_dred_never_full_closure(self, monkeypatch):
        store, g, manager = self._warehouse_like()

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("refresh fell back to full closure()")

        monkeypatch.setattr(index_module, "closure", boom)
        g.add(Triple(EX.y, RDF.type, EX.B))
        assert manager.is_stale("M", "RDFS")
        report = manager.refresh("M", "RDFS")
        assert report is not None and report.mode == "incremental"
        assert Triple(EX.y, RDF.type, EX.T) in store.index("M", "RDFS")
        assert_equals_rebuild(g, store.index("M", "RDFS"))

    def test_noop_delta_keeps_index_object_untouched(self):
        store, g, manager = self._warehouse_like()
        index_before = store.index("M", "RDFS")
        t = Triple(EX.z, RDF.type, EX.C)
        g.add(t)
        g.discard(t)
        assert not manager.is_stale("M", "RDFS")
        assert manager.refresh("M", "RDFS") is None
        assert store.index("M", "RDFS") is index_before

    def test_failed_maintenance_poisons_tracker_then_rebuilds(self, monkeypatch):
        store, g, manager = self._warehouse_like()

        def torn(*args, **kwargs):
            raise RuntimeError("injected mid-maintenance crash")

        monkeypatch.setattr(index_module, "maintain_closure", torn)
        g.add(Triple(EX.y, RDF.type, EX.B))
        with pytest.raises(RuntimeError):
            manager.refresh("M", "RDFS")
        tracker = manager._trackers[("M", "RDFS")]
        assert tracker.overflown  # poisoned: delta no longer trustworthy

        monkeypatch.undo()
        report = manager.refresh("M", "RDFS")
        assert report is not None and report.mode == "full"
        assert_equals_rebuild(g, store.index("M", "RDFS"))


class TestRandomizedEquivalence:
    """The whole id path of a release: ``diff_graphs`` → ``apply_in_place``
    → the model's ``DeltaTracker`` → ``EntailmentIndexManager.refresh``
    (DRed), against a ``closure()`` rebuild after every wave."""

    @pytest.mark.parametrize("seed", range(6))
    def test_maintain_matches_rebuild(self, seed):
        rng = random.Random(seed)
        classes = [EX.term(f"C{i}") for i in range(8)]
        props = [EX.term(f"p{i}") for i in range(3)]
        instances = [EX.term(f"i{i}") for i in range(6)]

        def random_triple():
            kind = rng.randrange(4)
            if kind == 0:
                return Triple(rng.choice(classes), RDFS.subClassOf, rng.choice(classes))
            if kind == 1:
                return Triple(rng.choice(props), RDFS.subPropertyOf, rng.choice(props))
            if kind == 2:
                return Triple(rng.choice(instances), RDF.type, rng.choice(classes))
            return Triple(rng.choice(instances), rng.choice(props), rng.choice(instances))

        base = Graph()
        for _ in range(40):
            base.add(random_triple())
        for rulebase in (RDFS_RULEBASE, OWLPRIME):
            store = TripleStore()
            work = store.create_model("M")
            work.add_all(base)
            manager = EntailmentIndexManager(store)
            manager.build("M", rulebase.name)
            tracker = manager._trackers[("M", rulebase.name)]
            for _ in range(4):  # several consecutive release waves
                desired = work.copy()
                for t in [t for t in work if rng.random() < 0.15]:
                    desired.discard(t)
                desired.add_all(random_triple() for _ in range(6))
                diff = diff_graphs(work, desired)
                expected = sorted(
                    [("add", row) for row in diff.added.triples_ids()]
                    + [("remove", row) for row in diff.removed.triples_ids()]
                )
                heard = ([], [])
                listeners = [
                    lambda action, *row, log=log: log.append((action, row)) for log in heard
                ]
                for listener in listeners:
                    work.subscribe(listener)
                diff.apply_in_place(work)
                for listener in listeners:
                    work.unsubscribe(listener)
                # every listener heard each id row of the diff exactly once
                assert [sorted(log) for log in heard] == [expected, expected]
                added, removed = tracker.peek()
                assert (sorted(added), sorted(removed)) == (
                    sorted(diff.added.triples_ids()),
                    sorted(diff.removed.triples_ids()),
                )
                assert work == desired
                report = manager.refresh("M", rulebase.name)
                assert (report is None) == diff.is_empty
                assert report is None or report.mode == "incremental"
                assert_equals_rebuild(work, store.index("M", rulebase.name), rulebase)
