"""The durable log and the audit file sink."""

import pytest

from repro.core.audit import AuditJournal
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal, Triple
from repro.resilience import DurableLog, JournalError

EX = "http://example.org/"


def triple(n):
    return Triple(IRI(EX + f"s{n}"), IRI(EX + "p"), Literal(f"v{n}"))


class TestDurableLog:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with DurableLog(path, durable=False) as log:
            log.append({"type": "a", "n": 1})
            log.append({"type": "b", "n": 2})
            log.checkpoint()
        assert DurableLog.read(path) == [{"type": "a", "n": 1}, {"type": "b", "n": 2}]

    def test_append_after_close_raises(self, tmp_path):
        log = DurableLog(tmp_path / "log.jsonl", durable=False)
        log.close()
        with pytest.raises(JournalError):
            log.append({"type": "a"})

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"type": "a"}\n{"type": "b"}\n{"type": "c", "tru', encoding="utf-8")
        assert DurableLog.read(path) == [{"type": "a"}, {"type": "b"}]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"type": "a"}\nGARBAGE\n{"type": "b"}\n', encoding="utf-8")
        with pytest.raises(JournalError):
            DurableLog.read(path)

    def test_append_is_reopenable(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with DurableLog(path, durable=False) as log:
            log.append({"n": 1})
        with DurableLog(path, durable=False) as log:
            log.append({"n": 2})
        assert [r["n"] for r in DurableLog.read(path)] == [1, 2]

    def test_counters(self, tmp_path):
        log = DurableLog(tmp_path / "log.jsonl", durable=False)
        log.append({"n": 1})
        log.checkpoint()
        log.checkpoint()
        assert log.appended == 1
        assert log.checkpoints == 2
        log.close()


class TestAuditFileSink:
    def test_changes_tail_to_the_sink(self, tmp_path):
        graph = Graph(name="audited")
        journal = AuditJournal(graph)
        path = tmp_path / "audit.jsonl"
        journal.attach_file_sink(path, durable=False)
        graph.add(triple(1))
        graph.add(triple(2))
        graph.discard(triple(1))
        journal.checkpoint()
        journal.close()
        records = DurableLog.read(path)
        assert [r["action"] for r in records] == ["add", "add", "remove"]
        assert [r["seq"] for r in records] == [1, 2, 3]
        assert records[0]["epoch"] == "initial"

    def test_second_sink_rejected(self, tmp_path):
        journal = AuditJournal(Graph(name="audited"))
        journal.attach_file_sink(tmp_path / "a.jsonl", durable=False)
        with pytest.raises(ValueError):
            journal.attach_file_sink(tmp_path / "b.jsonl", durable=False)
        journal.close()

    def test_sink_records_epoch_and_request_id(self, tmp_path):
        graph = Graph(name="audited")
        journal = AuditJournal(graph)
        path = tmp_path / "audit.jsonl"
        journal.attach_file_sink(path, durable=False)
        journal.begin_epoch("release 2026.R2")
        with journal.request_context("w-9"):
            graph.add(triple(3))
        journal.close()
        (record,) = DurableLog.read(path)
        assert record["epoch"] == "release 2026.R2"
        assert record["request_id"] == "w-9"

    def test_close_closes_the_sink(self, tmp_path):
        graph = Graph(name="audited")
        journal = AuditJournal(graph)
        sink = journal.attach_file_sink(tmp_path / "audit.jsonl", durable=False)
        journal.close()
        with pytest.raises(JournalError):
            sink.append({"n": 1})
