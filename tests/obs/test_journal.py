"""The operational event journal: recording, filtering, the capacity
bound, and the JSON-lines export, against a fake clock."""

import json

import pytest

from repro.obs import EventJournal, get_journal


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestEventJournal:
    def test_record_and_filter(self):
        clock = FakeClock(100.0)
        journal = EventJournal(capacity=8, clock=clock)
        journal.record(
            "breaker", severity="warning", shard="0", breaker="search", to="open"
        )
        clock.advance(1.0)
        journal.record(
            "worker-restart",
            severity="warning",
            service="svc",
            shard=1,  # non-string shard is coerced
            reason="crash",
        )
        journal.record("shard-replace", service="svc", shard="1")
        assert len(journal) == 3
        warnings = journal.events(severity="warning")
        assert [e.kind for e in warnings] == ["breaker", "worker-restart"]
        (restart,) = journal.events(shard="1", kind="worker-restart")
        assert restart.attrs["reason"] == "crash"
        assert restart.ts == 101.0
        assert journal.events(limit=1)[0].kind == "shard-replace"  # newest

    def test_capacity_bound_counts_dropped(self):
        journal = EventJournal(capacity=2)
        for i in range(5):
            journal.record("e", seq=i)
        assert len(journal) == 2
        assert journal.dropped == 3
        assert [e.attrs["seq"] for e in journal.events()] == [3, 4]

    def test_jsonl_round_trip(self):
        journal = EventJournal(clock=FakeClock(5.0))
        journal.record(
            "breaker",
            severity="warning",
            service="svc",
            shard="0",
            breaker="search",
            to="open",
        )
        docs = [json.loads(line) for line in journal.to_jsonl().splitlines()]
        assert docs == [
            {
                "ts": 5.0,
                "kind": "breaker",
                "severity": "warning",
                "service": "svc",
                "shard": "0",
                "breaker": "search",
                "to": "open",
            }
        ]

    def test_drain_empties_the_ring(self):
        journal = EventJournal()
        journal.record("a")
        assert [e.kind for e in journal.drain()] == ["a"]
        assert len(journal) == 0

    def test_process_global_journal_is_a_singleton(self):
        assert get_journal() is get_journal()

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EventJournal(capacity=0)

    def test_limit_zero_is_nothing_and_negative_is_rejected(self):
        journal = EventJournal()
        for i in range(3):
            journal.record("e", seq=i)
        assert journal.events(limit=0) == []
        assert [e.attrs["seq"] for e in journal.events(limit=5)] == [0, 1, 2]
        with pytest.raises(ValueError):
            journal.events(limit=-1)
