"""Operational metrics of the query service.

The productive warehouse lives or dies by its operators noticing load
problems before analysts do, so the service keeps its own numbers
rather than relying on external tooling: per-endpoint latency
histograms with percentile estimates, admission-queue gauges, rejection
and timeout counts, the shared plan cache's hit rate, and a slow-query
log that captures the evaluation plan and runtime profile of offenders
while the evidence is still fresh.

Every number lives in exactly one place: the process-global metrics
registry (:mod:`repro.obs.registry`). :class:`ServiceMetrics` is a typed
view over the registry children labelled with its ``(service, shard)``
— each ``on_*`` event is one write to one child, and ``snapshot()``
reads the same children the Prometheus exporter, the supervisor, the
health document and the gateway read, minus their values when this
instance was built ("since this instance started"). Two live instances
with equal labels share their series, as the scrape always said.

Recording is cheap on the hot path (one child lock, an integer bump);
the analysis work — percentiles, rendering — happens only when someone
asks.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

from repro.obs.journal import get_journal
from repro.obs.registry import bucket_summary, get_registry

__all__ = [
    "ServiceMetrics",
    "SlowQuery",
    "SlowQueryLog",
]

#: ``event`` label values of ``mdw_service_requests_total`` that
#: ``snapshot()`` reports, under the same name but for three.
_EVENTS = (
    "submitted", "completed", "failed", "rejected", "timeout", "cancelled",
    "breaker_shed", "degraded", "worker_lost", "requeued", "fork_worker_attach",
)
_SNAPSHOT_FIELD = {
    "timeout": "timeouts",
    "degraded": "degraded_responses",
    "fork_worker_attach": "fork_workers",
}
_RESTART_REASONS = ("crash", "hang", "stale")


@dataclass(frozen=True)
class SlowQuery:
    """One slow-query log record."""

    request_id: str
    kind: str
    statement: str
    elapsed: float
    timestamp: float
    plan: Optional[str] = None  # evaluator explain() output, when available
    profile: Optional[str] = None  # rendered runtime profile, when collected


class SlowQueryLog:
    """Bounded ring of the slowest offenders, newest last.

    The service appends a record (with the query's evaluation plan and
    runtime profile) for every request whose latency exceeds the
    configured threshold; the ring keeps the investigation material
    bounded.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: Deque[SlowQuery] = deque(maxlen=50)

    def record(self, entry: SlowQuery) -> None:
        with self._lock:
            self._entries.append(entry)

    def entries(self) -> List[SlowQuery]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class ServiceMetrics:
    """The serving tier's counters and gauges, as a view over the registry.

    Per-endpoint latency histograms (``query`` / ``sql`` / ``search`` /
    ``lineage`` / ``update``), admission counters, and the slow-query
    log. ``snapshot()`` returns a plain dict (JSON-friendly, used by the
    benchmark); ``render()`` a human report for the CLI.

    ``name`` is the ``service`` label of the samples (``"mdw"`` by
    default); ``shard`` the ``shard`` label, so a sharded deployment's
    per-shard series stay separable in one scrape (empty for unsharded
    services).
    """

    def __init__(self, name: str = "mdw", shard: str = ""):
        self.slow_queries = SlowQueryLog()
        self.name = name
        self.shard = shard
        registry = get_registry()
        own = {"service": name, "shard": shard}
        events = registry.counter(
            "mdw_service_requests_total",
            "Request lifecycle events by service and event",
            labels=("service", "event", "shard"),
        )
        self._events = {e: events.child(event=e, **own) for e in _EVENTS}
        restarts = registry.counter(
            "mdw_worker_restarts_total",
            "Fork workers reaped and respawned, by cause "
            "(crash | hang | stale)",
            labels=("service", "reason", "shard"),
        )
        self._restarts = {
            reason: restarts.child(reason=reason, **own)
            for reason in _RESTART_REASONS
        }
        # what the counters held before this instance: snapshot() reports
        # since then, so a fresh service starts from zero
        self._base = {
            child: child.value
            for child in (*self._events.values(), *self._restarts.values())
        }
        # a new instance takes over the queue series, like the service's
        # callback gauges: last registration wins
        self._queue_depth = registry.gauge(
            "mdw_queue_depth",
            "Admission queue depth",
            labels=("service", "shard"),
        ).child(**own)
        self._queue_depth.set(0)
        self._queue_high_water = registry.gauge(
            "mdw_queue_high_water",
            "Admission queue high-water mark",
            labels=("service", "shard"),
        ).child(**own)
        self._queue_high_water.set(0)
        self._latency_family = registry.histogram(
            "mdw_request_latency_seconds",
            "End-to-end request latency by endpoint kind",
            labels=("service", "kind", "shard"),
        )
        # endpoint kinds are not known up front: the histogram children
        # resolve on first use, against the states found here
        self._histogram_base = {
            kind: child.state()
            for (service, kind, child_shard), child in self._latency_family.samples()
            if (service, child_shard) == (name, shard)
        }
        self._histograms: Dict[str, object] = {}
        self._degraded_by_shard = registry.counter(
            "mdw_service_degraded_total",
            "Shards behind degraded=True responses, by endpoint kind: one "
            "per shard that failed to contribute, or the answering "
            "service's own shard (in-process fallback after WorkerLost)",
            labels=("service", "kind", "shard"),
        )

    # -- recording ---------------------------------------------------------

    def _observe(self, kind: str, seconds: float) -> None:
        histogram = self._histograms.get(kind)
        if histogram is None:
            histogram = self._histograms[kind] = self._latency_family.child(
                service=self.name, kind=kind, shard=self.shard
            )
        histogram.observe(seconds)

    def on_submit(self, queue_depth: int) -> None:
        self._events["submitted"].inc()
        self._queue_depth.set(queue_depth)
        self._queue_high_water.set_max(queue_depth)

    def on_dequeue(self, queue_depth: int) -> None:
        self._queue_depth.set(queue_depth)

    def on_complete(self, kind: str, seconds: float) -> None:
        self._events["completed"].inc()
        self._observe(kind, seconds)

    def on_failure(self, kind: str, seconds: float) -> None:
        self._events["failed"].inc()
        self._observe(kind, seconds)

    def on_reject(self) -> None:
        self._events["rejected"].inc()

    def on_timeout(self) -> None:
        self._events["timeout"].inc()

    def on_cancel(self) -> None:
        self._events["cancelled"].inc()

    def on_breaker_reject(self) -> None:
        self._events["breaker_shed"].inc()

    def on_degraded(self, kind: str, failed_shards: Sequence[str] = ()) -> None:
        """One response went out flagged ``degraded=True``. ``kind`` is
        the endpoint; ``failed_shards`` the shards that could not
        contribute (the gateway's partial answers) — without any,
        the degradation is attributed to this instance's own shard."""
        self._events["degraded"].inc()
        for shard in failed_shards or (self.shard,):
            self._degraded_by_shard.inc(service=self.name, kind=kind, shard=shard)

    def on_fork_worker(self) -> None:
        """A fork-mode child was spawned (it attaches the published
        snapshot file)."""
        self._events["fork_worker_attach"].inc()

    def on_worker_restart(self, reason: str) -> None:
        """A fork worker was reaped and respawned (``crash`` = found
        dead, ``hang`` = killed for a stale heartbeat, ``stale`` =
        retired for lagging the published snapshot generation)."""
        self._restarts[reason].inc()
        get_journal().record(
            "worker-restart",
            severity="warning",
            service=self.name,
            shard=self.shard,
            reason=reason,
        )

    def on_worker_lost(self) -> None:
        """A request's worker died under it (before any requeue verdict)."""
        self._events["worker_lost"].inc()

    def on_requeue(self) -> None:
        """A request orphaned by a dead worker went back into the queue."""
        self._events["requeued"].inc()

    # -- reporting ---------------------------------------------------------

    def _since(self, child) -> int:
        return int(child.value - self._base[child])

    def _nonzero(self, children) -> Dict[str, int]:
        return {
            label: n for label, child in children.items() if (n := self._since(child))
        }

    def restarts(self) -> Dict[str, int]:
        """Respawns since this instance started, by cause (causes that
        never happened are absent)."""
        return self._nonzero(self._restarts)

    def _endpoint_summary(self, kind: str, histogram) -> Dict[str, float]:
        state = histogram.state()
        counts, total = state["counts"], state["sum"]
        base = self._histogram_base.get(kind)
        if base is not None:
            counts = [n - b for n, b in zip(counts, base["counts"])]
            total -= base["sum"]
        return bucket_summary(state["bounds"], counts, total)

    def snapshot(self, plan_cache=None) -> Dict[str, object]:
        out: Dict[str, object] = {
            _SNAPSHOT_FIELD.get(event, event): self._since(child)
            for event, child in self._events.items()
        }
        out["queue_depth"] = int(self._queue_depth.value)
        out["queue_high_water"] = int(self._queue_high_water.value)
        out["worker_restarts"] = self.restarts()
        out["endpoints"] = {
            kind: self._endpoint_summary(kind, histogram)
            for kind, histogram in sorted(self._histograms.items())
        }
        out["slow_queries"] = len(self.slow_queries)
        if plan_cache is not None:
            out["plan_cache"] = dict(plan_cache.stats())
            out["plan_cache_hit_rate"] = plan_cache.hit_rate()
        return out

    def render(self, plan_cache=None) -> str:
        snap = self.snapshot(plan_cache=plan_cache)
        lines = [
            "query service metrics:",
            (
                f"  requests: {snap['submitted']} submitted, "
                f"{snap['completed']} completed, {snap['failed']} failed"
            ),
            (
                f"  admission: {snap['rejected']} rejected, "
                f"{snap['timeouts']} timeouts, {snap['cancelled']} cancelled, "
                f"queue depth {snap['queue_depth']} "
                f"(high water {snap['queue_high_water']})"
            ),
            (
                f"  resilience: {snap['breaker_shed']} shed by breakers, "
                f"{snap['degraded_responses']} degraded responses"
            ),
        ]
        restarts = snap["worker_restarts"]
        if restarts or snap["worker_lost"] or snap["requeued"]:
            by_reason = ", ".join(
                f"{n} {reason}" for reason, n in sorted(restarts.items())
            ) or "none"
            lines.append(
                f"  supervision: restarts {by_reason}; "
                f"{snap['worker_lost']} workers lost mid-request, "
                f"{snap['requeued']} requeued"
            )
        for kind, summary in snap["endpoints"].items():
            lines.append(
                f"  {kind}: n={summary['count']} mean={summary['mean'] * 1e3:.2f}ms "
                f"p50={summary['p50'] * 1e3:.2f}ms p95={summary['p95'] * 1e3:.2f}ms "
                f"p99={summary['p99'] * 1e3:.2f}ms"
            )
        if "plan_cache_hit_rate" in snap:
            lines.append(f"  plan cache hit rate: {snap['plan_cache_hit_rate']:.1%}")
        slow = self.slow_queries.entries()
        if slow:
            lines.append(f"  slow queries ({len(slow)} retained):")
            for entry in slow[-5:]:
                statement = " ".join(entry.statement.split())
                if len(statement) > 72:
                    statement = statement[:69] + "..."
                lines.append(
                    f"    {entry.request_id} {entry.kind} "
                    f"{entry.elapsed * 1e3:.1f}ms: {statement}"
                )
        return "\n".join(lines)
