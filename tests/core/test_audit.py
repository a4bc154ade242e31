"""Unit tests for graph change notification and the audit journal."""

import pytest

from repro.core import AuditJournal, MetadataWarehouse
from repro.etl import EtlOrchestrator
from repro.rdf import Graph, IRI, Literal, Namespace, Triple

EX = Namespace("http://x/")


def t(i):
    return Triple(EX[f"s{i}"], EX.p, Literal(i))


def ids(g, triple):
    return tuple(g.dictionary.lookup(x) for x in triple)


class TestGraphListeners:
    def test_add_notifies(self):
        g = Graph()
        events = []
        g.subscribe(lambda action, *row: events.append((action, row)))
        g.add(t(1))
        assert events == [("add", ids(g, t(1)))]

    def test_duplicate_add_silent(self):
        g = Graph([t(1)])
        events = []
        g.subscribe(lambda a, s, p, o: events.append(a))
        g.add(t(1))
        assert events == []

    def test_remove_notifies(self):
        g = Graph([t(1)])
        events = []
        g.subscribe(lambda a, *row: events.append((a, row)))
        g.remove(t(1))
        assert events == [("remove", ids(g, t(1)))]

    def test_missed_remove_silent(self):
        g = Graph()
        events = []
        g.subscribe(lambda a, s, p, o: events.append(a))
        g.discard(t(1))
        assert events == []

    def test_clear_notifies_each(self):
        g = Graph([t(1), t(2)])
        events = []
        g.subscribe(lambda a, s, p, o: events.append(a))
        g.clear()
        assert events == ["remove", "remove"]
        assert len(g) == 0

    def test_unsubscribe(self):
        g = Graph()
        events = []
        listener = lambda a, s, p, o: events.append(a)
        g.subscribe(listener)
        g.unsubscribe(listener)
        g.add(t(1))
        assert events == []

    def test_multiple_listeners(self):
        g = Graph()
        a_events, b_events = [], []
        g.subscribe(lambda a, s, p, o: a_events.append(a))
        g.subscribe(lambda a, s, p, o: b_events.append(a))
        g.add(t(1))
        assert a_events == ["add"] and b_events == ["add"]


class TestAuditJournal:
    def test_records_manager_writes(self):
        mdw = MetadataWarehouse()
        journal = mdw.enable_audit()
        cls = mdw.schema.declare_class("Column")
        mdw.facts.add_instance("c1", cls)
        assert journal.total_changes == len(mdw.graph)
        assert all(e.action == "add" for e in journal.entries())

    def test_sequence_monotone(self):
        g = Graph()
        journal = AuditJournal(g)
        for i in range(5):
            g.add(t(i))
        sequences = [e.sequence for e in journal.entries()]
        assert sequences == [1, 2, 3, 4, 5]

    def test_epochs_attribute_changes(self):
        mdw = MetadataWarehouse()
        journal = mdw.enable_audit()
        cls = mdw.schema.declare_class("Column")
        journal.begin_epoch("release 2026.R2")
        mdw.facts.add_instance("late", cls)
        summary = journal.epoch_summary()
        assert "initial" in summary and "release 2026.R2" in summary
        assert summary["release 2026.R2"]["add"] == 2  # type + name

    def test_entries_filtering(self):
        g = Graph()
        journal = AuditJournal(g)
        g.add(t(1))
        journal.begin_epoch("second")
        g.add(t(2))
        g.remove(t(1))
        assert len(journal.entries(action="remove")) == 1
        assert len(journal.entries(epoch="second")) == 2
        assert len(journal.entries(since=2)) == 1

    def test_capacity_bounds_entries_not_counters(self):
        g = Graph()
        journal = AuditJournal(g, capacity=3)
        for i in range(10):
            g.add(t(i))
        assert len(journal) == 3
        assert journal.total_changes == 10
        assert journal.tail(2)[-1].sequence == 10

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            AuditJournal(Graph(), capacity=0)

    def test_bad_epoch(self):
        journal = AuditJournal(Graph())
        with pytest.raises(ValueError):
            journal.begin_epoch("")

    def test_hottest_predicates(self):
        g = Graph()
        journal = AuditJournal(g)
        for i in range(3):
            g.add(Triple(EX[f"s{i}"], EX.hot, Literal(i)))
        g.add(Triple(EX.s9, EX.cold, Literal(9)))
        top = journal.hottest_predicates(1)
        assert top == [(EX.hot.value, 3)]

    def test_journal_sees_bulk_load(self):
        mdw = MetadataWarehouse()
        journal = mdw.enable_audit()
        journal.begin_epoch("feed load")
        feed = '<metadata source="f"><class name="T"/><instance name="x" class="T"/></metadata>'
        EtlOrchestrator(mdw).apply_release([feed])
        assert journal.epoch_summary()["feed load"]["add"] > 0

    def test_journal_sees_retirement(self):
        mdw = MetadataWarehouse()
        cls = mdw.schema.declare_class("T")
        item = mdw.facts.add_instance("x", cls)
        journal = mdw.enable_audit()
        mdw.facts.retire_instance(item, force=True)
        assert journal.entries(action="remove")

    def test_close_detaches(self):
        g = Graph()
        journal = AuditJournal(g)
        journal.close()
        g.add(t(1))
        assert journal.total_changes == 0

    def test_enable_audit_idempotent(self):
        mdw = MetadataWarehouse()
        assert mdw.enable_audit() is mdw.enable_audit()
        assert mdw.audit is not None

    def test_report_text(self):
        g = Graph()
        journal = AuditJournal(g)
        g.add(t(1))
        text = journal.report()
        assert "1 change(s)" in text and "initial" in text

    def test_describe_entry(self):
        g = Graph()
        journal = AuditJournal(g)
        g.add(t(1))
        assert journal.tail(1)[0].describe().startswith("#1 [initial] +")
