"""The operational event journal.

:class:`EventJournal` is a bounded, thread/fork-safe ring of structured
operational events — breaker transitions, worker restarts, shard
replacement and rebalancing — each with service, shard, and request-id
attribution, drainable as JSON lines. There are no background threads
or timers, and the clock is injectable.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

__all__ = ["Event", "EventJournal", "get_journal"]

_JOURNALS: "weakref.WeakSet[EventJournal]" = weakref.WeakSet()


@dataclass(frozen=True)
class Event:
    """One structured operational event."""

    ts: float
    kind: str  # "breaker", "worker-restart", "shard-replace", ...
    severity: str  # "info" | "warning" | "error"
    service: str
    shard: str
    request_id: str
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "ts": self.ts,
            "kind": self.kind,
            "severity": self.severity,
        }
        if self.service:
            doc["service"] = self.service
        if self.shard:
            doc["shard"] = self.shard
        if self.request_id:
            doc["request_id"] = self.request_id
        doc.update(self.attrs)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, default=str)


class EventJournal:
    """A bounded ring of :class:`Event` records.

    Thread-safe (one lock around the deque) and fork-safe (locks are
    reinstalled in the child, like the metrics registry's). Recording
    is append-only and O(1); the capacity bound means a flapping
    breaker can never exhaust memory, only evict history.
    """

    def __init__(self, capacity: int = 1024, clock: Callable[[], float] = time.time):
        if capacity < 1:
            raise ValueError("journal capacity must be positive")
        self._lock = threading.Lock()
        self._events: "deque[Event]" = deque(maxlen=capacity)
        self._clock = clock
        self._dropped = 0
        _JOURNALS.add(self)

    def record(
        self,
        kind: str,
        *,
        severity: str = "info",
        service: str = "",
        shard: str = "",
        request_id: str = "",
        **attrs: object,
    ) -> Event:
        event = Event(
            ts=self._clock(),
            kind=kind,
            severity=severity,
            service=service,
            shard=str(shard),
            request_id=request_id,
            attrs=dict(attrs),
        )
        with self._lock:
            if len(self._events) == self._events.maxlen:
                self._dropped += 1
            self._events.append(event)
        return event

    def events(
        self,
        *,
        kind: Optional[str] = None,
        severity: Optional[str] = None,
        service: Optional[str] = None,
        shard: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Event]:
        """Matching events, oldest first (``limit`` keeps the newest;
        a negative one raises ``ValueError``)."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        with self._lock:
            out = list(self._events)
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if severity is not None:
            out = [e for e in out if e.severity == severity]
        if service is not None:
            out = [e for e in out if e.service == service]
        if shard is not None:
            out = [e for e in out if e.shard == str(shard)]
        if limit is not None:
            out = out[max(0, len(out) - limit):]
        return out

    def drain(self) -> List[Event]:
        """Every retained event, oldest first; the ring is cleared."""
        with self._lock:
            out = list(self._events)
            self._events.clear()
            return out

    def to_jsonl(self, events: Optional[Sequence[Event]] = None) -> str:
        """The events as JSON lines (defaults to everything retained)."""
        if events is None:
            events = self.events()
        return "".join(e.to_json() + "\n" for e in events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def dropped(self) -> int:
        """Events evicted by the capacity bound since construction."""
        return self._dropped

    def _reinit_lock(self) -> None:
        self._lock = threading.Lock()


_journal = EventJournal()


def get_journal() -> EventJournal:
    """The process-global journal every subsystem records into."""
    return _journal


def _reinit_after_fork() -> None:
    for journal in list(_JOURNALS):
        journal._reinit_lock()


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX in CI
    os.register_at_fork(after_in_child=_reinit_after_fork)
