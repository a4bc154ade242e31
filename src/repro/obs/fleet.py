"""Fleet-wide observability: the SLO engine and the operational event journal.

Two consumers of the substrate the rest of :mod:`repro.obs` already
feeds. The :class:`SloEngine` turns the registry's cumulative counters
and latency histograms into rolling-window SLIs (availability, latency
percentiles, degraded-response ratio) per service and shard, checks
them against declarative :class:`SLOTarget`\\ s, and exports the
error-budget arithmetic as ``mdw_slo_*`` gauge families. The
:class:`EventJournal` is a bounded, thread/fork-safe ring of structured
operational events — breaker transitions, worker restarts, shard
replacement and rebalancing, SLO burn alerts — each with service,
shard, and request-id attribution, drainable as JSON lines.

Both are pull-based: no background threads, no timers. ``tick()`` /
``report()`` read whatever the registry has accumulated, and every
clock is injectable so the error-budget math is unit-testable against
a fake clock.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import MetricsRegistry, bucket_percentile, get_registry

__all__ = [
    "DEFAULT_SLOS",
    "Event",
    "EventJournal",
    "SLOTarget",
    "SloEngine",
    "get_journal",
]


# -- the operational event journal -------------------------------------------

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


# -- SLO targets and the engine ----------------------------------------------


@dataclass(frozen=True)
class SLOTarget:
    """A declarative objective over one SLI.

    ``objective`` is the required good fraction over the window
    (``0.999`` = "three nines"). For the ``latency`` SLI a request is
    good when it finished within ``threshold`` seconds; for
    ``availability`` when it completed rather than failed; for
    ``degraded`` when the answer was not flagged ``degraded=True``.
    """

    name: str
    sli: str = "availability"  # "availability" | "latency" | "degraded"
    objective: float = 0.999
    threshold: float = 0.25  # latency SLI only: the good/bad bound, seconds

    def __post_init__(self):
        if self.sli not in ("availability", "latency", "degraded"):
            raise ValueError(f"unknown SLI {self.sli!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")


DEFAULT_SLOS: Tuple[SLOTarget, ...] = (
    SLOTarget("availability", sli="availability", objective=0.999),
    SLOTarget("latency-fast", sli="latency", objective=0.95, threshold=0.25),
    SLOTarget("full-answers", sli="degraded", objective=0.99),
)


class _Tick:
    """One cumulative snapshot of the registry's serving counters."""

    __slots__ = ("t", "requests", "latency")

    def __init__(self, t, requests, latency):
        self.t = t
        # {(service, shard): {event: value}}
        self.requests: Dict[Tuple[str, str], Dict[str, float]] = requests
        # {(service, kind, shard): (bounds, counts, count, sum)}
        self.latency: Dict[Tuple[str, str, str], tuple] = latency


class SloEngine:
    """Rolling-window SLIs + error budgets from the metrics registry.

    ``tick()`` snapshots the cumulative counters; ``report()`` takes a
    fresh tick, diffs it against the oldest snapshot still inside the
    window, and computes per-(service, shard) SLIs plus per-target
    error-budget and burn-rate figures. The first tick is taken at
    construction so the first report covers "since the engine started".

    Everything is exported back into the registry as ``mdw_slo_*``
    gauge families, so the SLO arithmetic rides the same scrape as the
    raw counters it was derived from.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        window: float = 300.0,
        targets: Sequence[SLOTarget] = DEFAULT_SLOS,
        clock: Callable[[], float] = time.monotonic,
        journal: Optional[EventJournal] = None,
        service_prefix: str = "",
        burn_alert: float = 2.0,
    ):
        if window <= 0:
            raise ValueError("window must be positive")
        names = [t.name for t in targets]
        if len(set(names)) != len(names):
            raise ValueError("SLO target names must be unique")
        self._registry = registry if registry is not None else get_registry()
        self.window = window
        self.targets = tuple(targets)
        self._clock = clock
        self._journal = journal if journal is not None else get_journal()
        self._prefix = service_prefix
        self._burn_alert = burn_alert
        self._lock = threading.Lock()
        self._ticks: "deque[_Tick]" = deque()
        self._burning: Dict[Tuple[str, str, str], bool] = {}
        reg = self._registry
        self._g_avail = reg.gauge(
            "mdw_slo_availability",
            "Windowed availability SLI (completed / attempted)",
            labels=("service", "shard"),
        )
        self._g_degraded = reg.gauge(
            "mdw_slo_degraded_ratio",
            "Windowed degraded-response ratio",
            labels=("service", "shard"),
        )
        self._g_latency = reg.gauge(
            "mdw_slo_latency_seconds",
            "Windowed latency percentile SLIs",
            labels=("service", "shard", "quantile"),
        )
        self._g_budget = reg.gauge(
            "mdw_slo_error_budget_remaining",
            "Fraction of the window's error budget still unspent",
            labels=("slo", "service", "shard"),
        )
        self._g_burn = reg.gauge(
            "mdw_slo_burn_rate",
            "Observed error rate over the budgeted error rate (1.0 = on budget)",
            labels=("slo", "service", "shard"),
        )
        self.tick()

    # -- snapshotting ---------------------------------------------------------

    def _read(self) -> _Tick:
        reg = self._registry
        requests: Dict[Tuple[str, str], Dict[str, float]] = {}
        family = reg.counter(
            "mdw_service_requests_total", labels=("service", "event", "shard")
        )
        for (service, event, shard), child in family.samples():
            requests.setdefault((service, shard), {})[event] = child.value
        latency: Dict[Tuple[str, str, str], tuple] = {}
        family = reg.histogram(
            "mdw_request_latency_seconds", labels=("service", "kind", "shard")
        )
        for (service, kind, shard), child in family.samples():
            state = child.state()
            latency[(service, kind, shard)] = (
                state["bounds"],
                tuple(state["counts"]),
                state["count"],
                state["sum"],
            )
        return _Tick(self._clock(), requests, latency)

    def tick(self) -> None:
        """Snapshot the registry; prune snapshots older than the window
        (the newest out-of-window one is kept as the delta baseline)."""
        snap = self._read()
        with self._lock:
            self._ticks.append(snap)
            horizon = snap.t - self.window
            while len(self._ticks) > 2 and self._ticks[1].t <= horizon:
                self._ticks.popleft()

    # -- reporting ------------------------------------------------------------

    def report(self) -> Dict[str, object]:
        """Tick, then the windowed SLI/SLO document (also exported as
        ``mdw_slo_*`` gauges)."""
        self.tick()
        with self._lock:
            newest = self._ticks[-1]
            horizon = newest.t - self.window
            oldest = self._ticks[0]
            for candidate in self._ticks:
                if candidate.t >= horizon:
                    oldest = candidate
                    break
        elapsed = max(newest.t - oldest.t, 0.0)
        services = self._service_rows(oldest, newest, elapsed)
        slos = self._slo_rows(oldest, newest, services)
        return {"window": elapsed, "services": services, "slos": slos}

    def _keys(self, newest: _Tick) -> List[Tuple[str, str]]:
        keys = set(newest.requests)
        keys.update((s, sh) for (s, _k, sh) in newest.latency)
        if self._prefix:
            keys = {k for k in keys if k[0].startswith(self._prefix)}
        return sorted(keys)

    @staticmethod
    def _delta_events(oldest: _Tick, newest: _Tick, key) -> Dict[str, float]:
        new = newest.requests.get(key, {})
        old = oldest.requests.get(key, {})
        return {e: new[e] - old.get(e, 0.0) for e in new}

    def _delta_buckets(
        self, oldest: _Tick, newest: _Tick, service: str, shard: str
    ) -> Tuple[Sequence[float], List[float], float]:
        """Summed-over-kinds delta bucket counts + delta count."""
        bounds: Sequence[float] = ()
        counts: List[float] = []
        total = 0.0
        for (s, _kind, sh), new_state in newest.latency.items():
            if (s, sh) != (service, shard):
                continue
            bounds = new_state[0]
            old_state = oldest.latency.get((s, _kind, sh))
            old_counts = old_state[1] if old_state else (0,) * len(new_state[1])
            old_count = old_state[2] if old_state else 0
            if not counts:
                counts = [0.0] * len(new_state[1])
            for i, (n, o) in enumerate(zip(new_state[1], old_counts)):
                counts[i] += n - o
            total += new_state[2] - old_count
        return bounds, counts, total

    def _service_rows(
        self, oldest: _Tick, newest: _Tick, elapsed: float
    ) -> Dict[str, Dict[str, object]]:
        rows: Dict[str, Dict[str, object]] = {}
        for service, shard in self._keys(newest):
            events = self._delta_events(oldest, newest, (service, shard))
            completed = events.get("completed", 0.0)
            failed = events.get("failed", 0.0)
            attempted = completed + failed
            bounds, counts, _ = self._delta_buckets(oldest, newest, service, shard)
            degraded = events.get("degraded", 0.0)
            availability = completed / attempted if attempted else 1.0
            degraded_ratio = degraded / completed if completed else 0.0
            latency = {
                q_name: bucket_percentile(bounds, counts, q)
                for q_name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
            }
            rows[service] = {
                "shard": shard,
                "attempted": attempted,
                "completed": completed,
                "failed": failed,
                "degraded": degraded,
                "availability": availability,
                "degraded_ratio": degraded_ratio,
                "throughput": attempted / elapsed if elapsed else 0.0,
                "latency": latency,
            }
            self._g_avail.set(availability, service=service, shard=shard)
            self._g_degraded.set(degraded_ratio, service=service, shard=shard)
            for q_name, value in latency.items():
                self._g_latency.set(
                    value, service=service, shard=shard, quantile=q_name
                )
        return rows

    def _good_bad(
        self, target: SLOTarget, oldest: _Tick, newest: _Tick, service: str, row
    ) -> Tuple[float, float]:
        shard = row["shard"]
        if target.sli == "availability":
            return row["completed"], row["failed"]
        if target.sli == "degraded":
            bad = min(row["degraded"], row["completed"])
            return row["completed"] - bad, bad
        bounds, counts, total = self._delta_buckets(oldest, newest, service, shard)
        good = 0.0
        for idx, n in enumerate(counts):
            bound = bounds[idx] if idx < len(bounds) else float("inf")
            if bound <= target.threshold:
                good += n
        return good, total - good

    def _slo_rows(
        self, oldest: _Tick, newest: _Tick, services: Dict[str, Dict[str, object]]
    ) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for target in self.targets:
            budget_rate = 1.0 - target.objective
            for service, row in services.items():
                shard = row["shard"]
                good, bad = self._good_bad(target, oldest, newest, service, row)
                total = good + bad
                error_rate = bad / total if total else 0.0
                burn = error_rate / budget_rate
                allowed_bad = budget_rate * total
                if allowed_bad:
                    remaining = max(0.0, 1.0 - bad / allowed_bad)
                else:
                    remaining = 1.0 if not bad else 0.0
                rows.append(
                    {
                        "slo": target.name,
                        "sli": target.sli,
                        "service": service,
                        "shard": shard,
                        "objective": target.objective,
                        "good": good,
                        "bad": bad,
                        "error_rate": error_rate,
                        "burn_rate": burn,
                        "budget_remaining": remaining,
                    }
                )
                self._g_budget.set(
                    remaining, slo=target.name, service=service, shard=shard
                )
                self._g_burn.set(burn, slo=target.name, service=service, shard=shard)
                self._alert(target, service, shard, burn, total)
        return rows

    def _alert(
        self, target: SLOTarget, service: str, shard: str, burn: float, total: float
    ) -> None:
        key = (target.name, service, shard)
        burning = bool(total) and burn >= self._burn_alert
        if burning and not self._burning.get(key):
            self._journal.record(
                "slo-burn",
                severity="warning",
                service=service,
                shard=shard,
                slo=target.name,
                burn_rate=round(burn, 3),
                objective=target.objective,
                window=self.window,
            )
        self._burning[key] = burning
