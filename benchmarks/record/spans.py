"""The benchmark's own span recorder.

Spans are recorded from *outside* the program, around the calls the
benchmark makes into each layer's public functions — the repo's own
``repro.obs.trace`` is one of the layers under measurement, so it cannot
also be the ruler. Spans live in memory and are written once, at exit, as
Chrome-trace JSON (load in ``chrome://tracing`` or Perfetto).

A span carries: id, parent id, name, start, end, thread, and the id of
the request it belongs to (spans of one request share it).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "tid", "request", "args")

    def __init__(self, id, parent, name, start, tid, request, args):
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.tid = tid
        self.request = request
        self.args = args

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while ``enabled``; a disabled recorder's
    :meth:`span` costs one attribute read and yields ``None``."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._stack = threading.local()

    @contextmanager
    def span(
        self,
        name: str,
        request: Optional[str] = None,
        parent: Optional[Span] = None,
        **args: object,
    ) -> Iterator[Optional[Span]]:
        """Record one span. The parent defaults to the innermost open
        span of the calling thread; pass ``parent`` to nest under a span
        opened on another thread (client threads under their round)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack.__dict__.setdefault("open", [])
        if parent is None and stack:
            parent = stack[-1]
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            next(self._ids),
            parent.id if parent is not None else None,
            name,
            time.perf_counter(),
            threading.get_ident(),
            request,
            args,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    # -- reading -----------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    # -- export ------------------------------------------------------------

    def to_chrome(self) -> Dict[str, object]:
        origin = min((s.start for s in self.spans), default=0.0)
        pid = os.getpid()
        events = []
        for s in sorted(self.spans, key=lambda s: (s.start, s.id)):
            args = {"span_id": s.id, "parent_id": s.parent, "request_id": s.request}
            args.update(s.args)
            events.append(
                {
                    "name": s.name,
                    "cat": s.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (s.start - origin) * 1e6,
                    "dur": s.seconds * 1e6,
                    "pid": pid,
                    "tid": s.tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome()))
        return path


def validate_chrome(data: Dict[str, object], slack_us: float = 1.0) -> int:
    """Check a trace written by :meth:`Recorder.write`: unique span ids,
    every parent resolvable, every child inside its parent's interval.
    Returns the span count; raises ``ValueError`` on the first breach."""
    events = data["traceEvents"]
    by_id: Dict[int, dict] = {}
    for event in events:
        span_id = event["args"]["span_id"]
        if span_id in by_id:
            raise ValueError(f"duplicate span id {span_id}")
        by_id[span_id] = event
    for event in events:
        parent_id = event["args"]["parent_id"]
        if parent_id is None:
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            raise ValueError(f"span {event['args']['span_id']} has unknown parent {parent_id}")
        if (
            event["ts"] < parent["ts"] - slack_us
            or event["ts"] + event["dur"] > parent["ts"] + parent["dur"] + slack_us
        ):
            raise ValueError(
                f"span {event['name']} ({event['args']['span_id']}) "
                f"is not contained in its parent {parent['name']}"
            )
    return len(events)
