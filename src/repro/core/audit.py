"""The warehouse's own audit journal.

Section II: "every application and database maintains a log of events
which may be subject to inspection by auditors." The meta-data warehouse
is itself an application of record, so it keeps one too: a bounded,
sequence-numbered journal of every effective triple change, with enough
aggregation for an auditor to answer "what changed, where, since when".

The journal subscribes to the model graph's change notifications
(:meth:`Graph.subscribe`), so it sees changes from *every* write path —
managers, bulk loads, retirements, restores — without instrumentation
in each of them. A change arrives as an id triple; the journal is the
one listener that keeps terms, so it decodes each entry's triple.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.rdf.graph import Graph
from repro.rdf.terms import Triple


@dataclass(frozen=True)
class AuditEntry:
    """One journaled change."""

    sequence: int
    action: str      # "add" | "remove"
    triple: Triple
    epoch: str       # the label active when the change happened
    request_id: Optional[str] = None  # the submitting service request, if any

    def describe(self) -> str:
        sign = "+" if self.action == "add" else "-"
        req = f" ({self.request_id})" if self.request_id else ""
        return f"#{self.sequence} [{self.epoch}]{req} {sign} {self.triple.n3()}"


class AuditJournal:
    """A bounded journal of graph changes plus running aggregates.

    ``capacity`` bounds the retained entries (oldest evicted first);
    the aggregate counters are never evicted. Epochs label phases of
    operation ("release 2026.R2 load", "manual fix") so entries can be
    attributed — :meth:`begin_epoch` switches the label.

    Appends are thread-safe: the sequence counter, the ring buffer, and
    the aggregates update under one lock, so interleaved writers (the
    query service serializes them, but direct library users may not)
    never produce duplicate sequence numbers or torn counters. When the
    change was submitted through the query service,
    :meth:`request_context` attributes it to the request id.
    """

    def __init__(self, graph: Graph, capacity: int = 10_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._graph = graph
        self._lock = threading.Lock()
        self._entries: Deque[AuditEntry] = deque(maxlen=capacity)
        self._sequence = 0
        self._epoch = "initial"
        self._request_id: Optional[str] = None
        self._adds = 0
        self._removes = 0
        self._by_epoch: Dict[str, Dict[str, int]] = {}
        self._by_predicate: Dict[str, int] = {}
        graph.subscribe(self._on_change)

    def close(self) -> None:
        """Stop journaling (detach from the graph)."""
        self._graph.unsubscribe(self._on_change)

    # -- epochs ------------------------------------------------------------

    def begin_epoch(self, label: str) -> None:
        """Label subsequent changes (e.g. per release load)."""
        if not label:
            raise ValueError("epoch label must be non-empty")
        self._epoch = label

    # -- request attribution -------------------------------------------------

    @contextmanager
    def request_context(self, request_id: Optional[str]):
        """Attribute changes inside the block to a service request id.

        The query service wraps every write in this, so an auditor can
        trace a journal entry back to the submitting request. Writers
        are serialized by the service's write lock; for direct library
        use the attribution is best-effort (last setter wins).
        """
        previous = self._request_id
        self._request_id = request_id
        try:
            yield
        finally:
            self._request_id = previous

    # -- recording ------------------------------------------------------------

    def _on_change(self, action: str, s: int, p: int, o: int) -> None:
        term = self._graph.dictionary.term
        triple = Triple(term(s), term(p), term(o))
        with self._lock:
            self._sequence += 1
            entry = AuditEntry(
                self._sequence, action, triple, self._epoch, self._request_id
            )
            self._entries.append(entry)
            if action == "add":
                self._adds += 1
            else:
                self._removes += 1
            epoch_counts = self._by_epoch.setdefault(
                self._epoch, {"add": 0, "remove": 0}
            )
            epoch_counts[action] += 1
            predicate = triple.predicate.value
            self._by_predicate[predicate] = self._by_predicate.get(predicate, 0) + 1

    # -- inspection --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_changes(self) -> int:
        return self._adds + self._removes

    def entries(
        self,
        since: int = 0,
        action: Optional[str] = None,
        epoch: Optional[str] = None,
        request_id: Optional[str] = None,
    ) -> List[AuditEntry]:
        """Retained entries filtered by sequence / action / epoch / request."""
        with self._lock:
            retained = list(self._entries)
        return [
            e
            for e in retained
            if e.sequence > since
            and (action is None or e.action == action)
            and (epoch is None or e.epoch == epoch)
            and (request_id is None or e.request_id == request_id)
        ]

    def tail(self, n: int = 20) -> List[AuditEntry]:
        with self._lock:
            return list(self._entries)[-n:]

    def epoch_summary(self) -> Dict[str, Dict[str, int]]:
        """Per-epoch add/remove counts (complete, never evicted)."""
        with self._lock:
            return {epoch: dict(counts) for epoch, counts in self._by_epoch.items()}

    def hottest_predicates(self, n: int = 10) -> List[Tuple[str, int]]:
        """The most frequently changed predicates — where the churn is."""
        return sorted(self._by_predicate.items(), key=lambda kv: (-kv[1], kv[0]))[:n]

    def report(self) -> str:
        lines = [
            f"audit journal: {self.total_changes} change(s) "
            f"({self._adds} adds, {self._removes} removes), "
            f"{len(self._entries)} retained",
        ]
        for epoch, counts in self._by_epoch.items():
            lines.append(
                f"  epoch {epoch!r}: +{counts['add']} / -{counts['remove']}"
            )
        return "\n".join(lines)
